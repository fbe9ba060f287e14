//! Host-side self-profiler: where do the *simulator's* cycles go?
//!
//! PR 5's tracer observes the simulated machine; this module observes
//! the simulator. The system layer wraps every subsystem tick in a
//! scoped span ([`Profiler::enter`] / [`Profiler::exit`]) or a
//! fence-post lap ([`Profiler::stamp`] / [`Profiler::lap`]), and the
//! profiler aggregates them into a call-tree keyed by [`Comp`] with
//! inclusive/exclusive wall nanoseconds and invocation counts. The
//! event engine additionally reports *dispatch accounting*: which
//! wake source won each jump, how many cycles the jump coalesced, and
//! whether the resulting tick was productive or spurious.
//!
//! Two span disciplines, chosen per call site:
//!
//! * **`enter`/`exit`** for phases that contain nested spans. The pair
//!   maintains a stack; a child's time is credited to the parent's
//!   inclusive total but subtracted from its exclusive total.
//! * **`stamp`/`lap`** for runs of *leaf* phases. One clock read per
//!   boundary instead of two per phase — `lap` charges `now - prev`
//!   to a leaf child of the open frame and returns `now` for the next
//!   lap in the chain. Never wrap a phase containing inner spans in a
//!   lap: the inner time would be counted twice.
//!
//! Like [`TraceHandle`](crate::TraceHandle), the profiler compiles out:
//! every method first tests whether it is on, and with the `enabled`
//! feature off that test is a `const false`, so the branch folds away,
//! [`Profiler::enabled`] records nothing, and `RunResult` stays
//! bit-identical. With the feature on but the profiler off (the
//! default), every method is one branch on a `bool`.
//!
//! The aggregate ([`ProfileSummary`]) is plain serializable data: it
//! rides in `RunResult.profile`
//! and renders as a summary table or as collapsed folded-stack text
//! (`component;sub;leaf ns`) loadable by standard flamegraph tooling.

use crate::COMPILED;
use camps_types::wake::WakeSource;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// A profiled simulator component. Variants mirror the span tree the
/// system layer builds; [`Comp::name`] is the stable label used in
/// summaries, folded stacks, and the per-layer shares the repository
/// benchmark (`benchmark/`) reads from the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // the names below are the documentation
pub enum Comp {
    /// The whole measured run loop (root of the tree).
    RunLoop,
    /// Event engine: folding `next_event` answers into a wake target.
    WakeScan,
    /// One engine iteration (tick body).
    RunStep,
    /// Core issue/retire loop (includes cache lookups and MSHR work).
    CoreRetire,
    /// Cache hierarchy probe (L1→L2→L3) on the demand path.
    CacheLookup,
    /// MSHR allocate/merge/reject bookkeeping.
    Mshr,
    /// Memory subsystem tick (everything below the host queue).
    MemTick,
    /// Host writeback-queue drain.
    WbDrain,
    /// Inter-cube interconnect (multi-cube machines only).
    CubeFabric,
    /// One HMC cube tick (links + crossbar + vaults).
    HmcTick,
    /// Serdes link set: token return, request/response launch+delivery.
    SerdesLinks,
    /// Crossbar delivery and vault-queue retry.
    Crossbar,
    /// Prefetch-buffer lookup on request admission (`try_enqueue`).
    PfLookup,
    /// Vault-controller tick loop (all vaults of one cube).
    VaultTick,
    /// Refresh deadline scan and all-bank refresh issue.
    RefreshScan,
    /// Prefetch-buffer fetch completion and resident-row service.
    BufferServe,
    /// Bank-model maintenance (precharge sweep).
    BankModel,
    /// DRAM command scheduler (FR-FCFS issue scan).
    IssueScan,
    /// Prefetch-scheme training/decision calls.
    PfTrain,
    /// Background row-fetch streaming into the prefetch buffer.
    PfFetch,
    /// Vault writeback engine.
    WbEngine,
    /// Response queue pop toward the crossbar.
    RespPop,
    /// Cache fill + waiter wakeup on the response path.
    CacheFill,
    /// Periodic metrics/snapshot sampling.
    Sampler,
}

impl Comp {
    /// Stable snake_case label for exports.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Comp::RunLoop => "run_loop",
            Comp::WakeScan => "wake_scan",
            Comp::RunStep => "run_step",
            Comp::CoreRetire => "core_retire",
            Comp::CacheLookup => "cache_lookup",
            Comp::Mshr => "mshr",
            Comp::MemTick => "mem_tick",
            Comp::WbDrain => "wb_drain",
            Comp::CubeFabric => "cube_fabric",
            Comp::HmcTick => "hmc_tick",
            Comp::SerdesLinks => "serdes_links",
            Comp::Crossbar => "crossbar",
            Comp::PfLookup => "pf_lookup",
            Comp::VaultTick => "vault_tick",
            Comp::RefreshScan => "refresh_scan",
            Comp::BufferServe => "buffer_serve",
            Comp::BankModel => "bank_model",
            Comp::IssueScan => "issue_scan",
            Comp::PfTrain => "pf_train",
            Comp::PfFetch => "pf_fetch",
            Comp::WbEngine => "wb_engine",
            Comp::RespPop => "resp_pop",
            Comp::CacheFill => "cache_fill",
            Comp::Sampler => "metrics_sample",
        }
    }
}

/// One node of the aggregated call-tree, identified by its full path
/// from the root (`;`-separated component names — the same encoding
/// folded-stack flamegraph tools consume).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileNode {
    /// Full path from the root, e.g. `run_loop;run_step;mem_tick`.
    pub path: String,
    /// Leaf component name (last path segment).
    pub comp: String,
    /// Wall nanoseconds inside this node, children included.
    pub incl_ns: u64,
    /// Wall nanoseconds inside this node, children excluded.
    pub excl_ns: u64,
    /// Times the span was entered (laps count once per lap).
    pub count: u64,
}

/// Dispatch accounting for one wake source under the event engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WakeSourceStat {
    /// Wake source name (`core`, `memory`, `watchdog`, ...).
    pub source: String,
    /// Jumps this source won (it reported the earliest wake).
    pub wakes: u64,
    /// Wakes whose tick visibly advanced the machine.
    pub productive: u64,
    /// Wakes whose tick changed nothing observable (conservative
    /// wake contract: allowed, but each one is pure overhead).
    pub spurious: u64,
    /// Idle cycles coalesced by jumps this source won.
    pub cycles_skipped: u64,
}

impl WakeSourceStat {
    /// Spurious fraction of this source's wakes (0.0 when it never won).
    #[must_use]
    pub fn spurious_ratio(&self) -> f64 {
        if self.wakes == 0 {
            0.0
        } else {
            self.spurious as f64 / self.wakes as f64
        }
    }
}

/// The aggregated self-profile of one run: call-tree, wall total, and
/// per-wake-source dispatch accounting. Plain data — compiled and
/// serializable in every feature mode so `RunResult`'s schema does not
/// depend on how `camps-obs` was built.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileSummary {
    /// Total profiled wall nanoseconds (sum of root-node inclusive
    /// time; with the standard `run_loop` root this is the measured
    /// run-loop wall time).
    pub total_ns: u64,
    /// Call-tree nodes in depth-first order.
    pub nodes: Vec<ProfileNode>,
    /// Per-wake-source dispatch accounting (event engine only; empty
    /// under the polling engine).
    pub wake_sources: Vec<WakeSourceStat>,
    /// Times the event engine's scan-backoff engaged (8 forced ticks
    /// after a tick-dense stretch instead of a full wake scan).
    pub backoff_engagements: u64,
}

impl ProfileSummary {
    /// Collapsed folded-stack text: one `path ns` line per node, using
    /// *exclusive* nanoseconds so a flamegraph reconstructs inclusive
    /// totals by summation (the format `inferno` / `flamegraph.pl`
    /// consume).
    #[must_use]
    pub fn render_folded(&self) -> String {
        let mut out = String::new();
        for n in &self.nodes {
            if n.excl_ns > 0 {
                out.push_str(&n.path);
                out.push(' ');
                out.push_str(&n.excl_ns.to_string());
                out.push('\n');
            }
        }
        out
    }

    /// Human-readable attribution table, components sorted by
    /// exclusive time (descending).
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut rows: Vec<&ProfileNode> = self.nodes.iter().collect();
        rows.sort_by_key(|n| std::cmp::Reverse(n.excl_ns));
        let total = self.total_ns.max(1);
        let mut out = String::from("excl_ms  incl_ms   excl%      count  path\n");
        for n in &rows {
            out.push_str(&format!(
                "{:>7.2}  {:>7.2}  {:>5.1}%  {:>9}  {}\n",
                n.excl_ns as f64 / 1e6,
                n.incl_ns as f64 / 1e6,
                n.excl_ns as f64 * 100.0 / total as f64,
                n.count,
                n.path,
            ));
        }
        if !self.wake_sources.is_empty() {
            out.push_str("\nwake source   wakes  productive  spurious  ratio  cycles_skipped\n");
            for w in &self.wake_sources {
                out.push_str(&format!(
                    "{:<11} {:>7}  {:>10}  {:>8}  {:>4.2}  {}\n",
                    w.source,
                    w.wakes,
                    w.productive,
                    w.spurious,
                    w.spurious_ratio(),
                    w.cycles_skipped,
                ));
            }
            out.push_str(&format!(
                "scan-backoff engagements: {}\n",
                self.backoff_engagements
            ));
        }
        out
    }

    /// Sum of exclusive nanoseconds across all nodes (equals the sum
    /// of root inclusive time; useful for attribution checks).
    #[must_use]
    pub fn attributed_ns(&self) -> u64 {
        self.nodes.iter().map(|n| n.excl_ns).sum()
    }

    /// Total spurious wakes across all sources.
    #[must_use]
    pub fn spurious_wakes(&self) -> u64 {
        self.wake_sources.iter().map(|w| w.spurious).sum()
    }
}

const NO_PARENT: usize = usize::MAX;

#[derive(Debug)]
struct Node {
    comp: Comp,
    children: Vec<usize>,
    incl_ns: u64,
    excl_ns: u64,
    count: u64,
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    node: usize,
    start_ns: u64,
    child_ns: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct WakeAcc {
    wakes: u64,
    productive: u64,
    spurious: u64,
    cycles_skipped: u64,
}

/// The self-profiler. All methods are a single `bool` test when the
/// profiler is off, which is the default everywhere, and a constant
/// `false` test when the `enabled` feature is off.
#[derive(Debug)]
pub struct Profiler {
    enabled: bool,
    origin: Instant,
    nodes: Vec<Node>,
    roots: Vec<usize>,
    stack: Vec<Frame>,
    wake: [WakeAcc; WakeSource::COUNT],
    pending: Option<WakeSource>,
    backoff_engagements: u64,
    spurious_total: u64,
}

impl Profiler {
    /// A disabled profiler: every call is one branch and a return.
    #[must_use]
    pub fn off() -> Self {
        Profiler {
            enabled: false,
            origin: Instant::now(),
            nodes: Vec::new(),
            roots: Vec::new(),
            stack: Vec::new(),
            wake: [WakeAcc::default(); WakeSource::COUNT],
            pending: None,
            backoff_engagements: 0,
            spurious_total: 0,
        }
    }

    /// An enabled profiler; the clock origin is the call instant. With
    /// the `enabled` feature off it records nothing.
    #[must_use]
    pub fn enabled() -> Self {
        let mut p = Self::off();
        p.enabled = true;
        p
    }

    /// True when spans are being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.on()
    }

    #[inline]
    fn on(&self) -> bool {
        COMPILED && self.enabled
    }

    /// Nanoseconds since the profiler was created (0 when off).
    /// Also the starting stamp for a [`lap`](Self::lap) chain.
    #[inline]
    #[must_use]
    pub fn stamp(&self) -> u64 {
        if !self.on() {
            return 0;
        }
        self.now_ns()
    }

    fn now_ns(&self) -> u64 {
        let d = self.origin.elapsed();
        d.as_secs() * 1_000_000_000 + u64::from(d.subsec_nanos())
    }

    /// Child of the current open frame (or a root) for `comp`,
    /// creating it on first use.
    fn node_for(&mut self, comp: Comp) -> usize {
        let parent = self.stack.last().map_or(NO_PARENT, |f| f.node);
        let siblings = if parent == NO_PARENT {
            &self.roots
        } else {
            &self.nodes[parent].children
        };
        if let Some(&id) = siblings.iter().find(|&&id| self.nodes[id].comp == comp) {
            return id;
        }
        let id = self.nodes.len();
        self.nodes.push(Node {
            comp,
            children: Vec::new(),
            incl_ns: 0,
            excl_ns: 0,
            count: 0,
        });
        if parent == NO_PARENT {
            self.roots.push(id);
        } else {
            self.nodes[parent].children.push(id);
        }
        id
    }

    /// Opens a span for a phase that contains nested spans.
    #[inline]
    pub fn enter(&mut self, comp: Comp) {
        if !self.on() {
            return;
        }
        let start_ns = self.now_ns();
        let node = self.node_for(comp);
        self.stack.push(Frame {
            node,
            start_ns,
            child_ns: 0,
        });
    }

    /// Closes the span opened by the matching [`enter`](Self::enter).
    /// Returns the close timestamp so a `lap` chain can continue
    /// from it without a second clock read (0 when off).
    #[inline]
    pub fn exit(&mut self, comp: Comp) -> u64 {
        if !self.on() {
            return 0;
        }
        let now = self.now_ns();
        let Some(frame) = self.stack.pop() else {
            return now;
        };
        debug_assert_eq!(
            self.nodes[frame.node].comp, comp,
            "unbalanced profiler span"
        );
        let d = now.saturating_sub(frame.start_ns);
        let n = &mut self.nodes[frame.node];
        n.incl_ns += d;
        n.excl_ns += d.saturating_sub(frame.child_ns);
        n.count += 1;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += d;
        }
        now
    }

    /// Charges `now - prev` to a *leaf* child `comp` of the open
    /// frame and returns `now` for the next lap. One clock read
    /// per phase boundary; `prev` comes from [`stamp`](Self::stamp),
    /// a previous `lap`, or an [`exit`](Self::exit) return value.
    #[inline]
    pub fn lap(&mut self, comp: Comp, prev: u64) -> u64 {
        if !self.on() {
            return 0;
        }
        let now = self.now_ns();
        let d = now.saturating_sub(prev);
        let node = self.node_for(comp);
        let n = &mut self.nodes[node];
        n.incl_ns += d;
        n.excl_ns += d;
        n.count += 1;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += d;
        }
        now
    }

    /// Event engine: `source` won the wake fold and the engine
    /// jumped over `skipped` idle cycles. The productive/spurious
    /// verdict arrives via [`note_outcome`](Self::note_outcome)
    /// after the tick body runs.
    #[inline]
    pub fn note_jump(&mut self, source: WakeSource, skipped: u64) {
        if !self.on() {
            return;
        }
        let acc = &mut self.wake[source as usize];
        acc.wakes += 1;
        acc.cycles_skipped += skipped;
        self.pending = Some(source);
    }

    /// Event engine: the tick after the last jump did (not) make
    /// observable progress.
    #[inline]
    pub fn note_outcome(&mut self, productive: bool) {
        if !self.on() {
            return;
        }
        let Some(source) = self.pending.take() else {
            return;
        };
        let acc = &mut self.wake[source as usize];
        if productive {
            acc.productive += 1;
        } else {
            acc.spurious += 1;
            self.spurious_total += 1;
        }
    }

    /// Event engine: a scan-backoff window (forced dense ticks)
    /// engaged.
    #[inline]
    pub fn note_backoff_engaged(&mut self) {
        if self.on() {
            self.backoff_engagements += 1;
        }
    }

    /// Total spurious wakes so far (metrics time-series column).
    #[must_use]
    pub fn spurious_total(&self) -> u64 {
        self.spurious_total
    }

    /// Nanoseconds of host wall clock since profiling started
    /// (metrics time-series column; 0 when off).
    #[must_use]
    pub fn host_ns(&self) -> u64 {
        self.stamp()
    }

    /// The aggregated summary, `None` when the profiler is off.
    /// Any still-open frames are ignored (call after the run loop).
    #[must_use]
    pub fn summary(&self) -> Option<ProfileSummary> {
        if !self.on() {
            return None;
        }
        let mut nodes = Vec::with_capacity(self.nodes.len());
        // Depth-first from the roots so parents precede children.
        let mut work: Vec<(usize, String)> = self
            .roots
            .iter()
            .rev()
            .map(|&id| (id, String::new()))
            .collect();
        while let Some((id, prefix)) = work.pop() {
            let n = &self.nodes[id];
            let path = if prefix.is_empty() {
                n.comp.name().to_string()
            } else {
                format!("{prefix};{}", n.comp.name())
            };
            nodes.push(ProfileNode {
                path: path.clone(),
                comp: n.comp.name().to_string(),
                incl_ns: n.incl_ns,
                excl_ns: n.excl_ns,
                count: n.count,
            });
            for &c in n.children.iter().rev() {
                work.push((c, path.clone()));
            }
        }
        let total_ns = self.roots.iter().map(|&id| self.nodes[id].incl_ns).sum();
        let wake_sources = WakeSource::ALL
            .iter()
            .zip(self.wake.iter())
            .filter(|(_, acc)| acc.wakes > 0)
            .map(|(src, acc)| WakeSourceStat {
                source: src.name().to_string(),
                wakes: acc.wakes,
                productive: acc.productive,
                spurious: acc.spurious,
                cycles_skipped: acc.cycles_skipped,
            })
            .collect();
        Some(ProfileSummary {
            total_ns,
            nodes,
            wake_sources,
            backoff_engagements: self.backoff_engagements,
        })
    }
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut p = Profiler::off();
        assert_eq!(p.stamp(), 0);
        p.enter(Comp::RunLoop);
        assert_eq!(p.exit(Comp::RunLoop), 0);
        assert!(p.summary().is_none());
    }

    #[test]
    fn tree_nests_and_attributes() {
        let mut p = Profiler::enabled();
        p.enter(Comp::RunLoop);
        p.enter(Comp::RunStep);
        let t = p.stamp();
        let t = p.lap(Comp::WbDrain, t);
        let _ = p.lap(Comp::RespPop, t);
        p.exit(Comp::RunStep);
        p.exit(Comp::RunLoop);
        let s = p.summary().expect("enabled profiler summarizes");
        let paths: Vec<&str> = s.nodes.iter().map(|n| n.path.as_str()).collect();
        assert_eq!(
            paths,
            [
                "run_loop",
                "run_loop;run_step",
                "run_loop;run_step;wb_drain",
                "run_loop;run_step;resp_pop",
            ]
        );
        let root = &s.nodes[0];
        let step = &s.nodes[1];
        // The root's inclusive time covers the nested step; exclusive
        // time telescopes (root excl + step incl == root incl).
        assert!(root.incl_ns >= step.incl_ns);
        assert_eq!(root.incl_ns, root.excl_ns + step.incl_ns);
        // Laps subtract from the step's exclusive time.
        let laps: u64 = s.nodes[2].incl_ns + s.nodes[3].incl_ns;
        assert_eq!(step.incl_ns, step.excl_ns + laps);
        assert_eq!(s.total_ns, root.incl_ns);
        // Every nanosecond is attributed to exactly one exclusive bin.
        assert_eq!(s.attributed_ns(), s.total_ns);
    }

    #[test]
    fn wake_accounting_classifies_outcomes() {
        use camps_types::wake::WakeSource;
        let mut p = Profiler::enabled();
        p.note_jump(WakeSource::Core, 10);
        p.note_outcome(true);
        p.note_jump(WakeSource::Core, 5);
        p.note_outcome(false);
        p.note_jump(WakeSource::Sampler, 100);
        p.note_outcome(false);
        p.note_backoff_engaged();
        assert_eq!(p.spurious_total(), 2);
        let s = p.summary().unwrap();
        assert_eq!(s.backoff_engagements, 1);
        assert_eq!(s.spurious_wakes(), 2);
        let core = s.wake_sources.iter().find(|w| w.source == "core").unwrap();
        assert_eq!((core.wakes, core.productive, core.spurious), (2, 1, 1));
        assert_eq!(core.cycles_skipped, 15);
        assert!((core.spurious_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn folded_render_is_flamegraph_shaped() {
        let s = ProfileSummary {
            total_ns: 30,
            nodes: vec![
                ProfileNode {
                    path: "run_loop".into(),
                    comp: "run_loop".into(),
                    incl_ns: 30,
                    excl_ns: 10,
                    count: 1,
                },
                ProfileNode {
                    path: "run_loop;mem_tick".into(),
                    comp: "mem_tick".into(),
                    incl_ns: 20,
                    excl_ns: 20,
                    count: 4,
                },
            ],
            wake_sources: vec![],
            backoff_engagements: 0,
        };
        assert_eq!(s.render_folded(), "run_loop 10\nrun_loop;mem_tick 20\n");
        let json = serde_json::to_string(&s).unwrap();
        let back: ProfileSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
