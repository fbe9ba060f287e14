//! The complete simulated machine: cores, cache hierarchy, and cube.

use crate::audit::RequestAuditor;
use crate::metrics::RunResult;
use crate::topology::Topology;
use camps_cache::hierarchy::{CacheHierarchy, HierarchyOutcome};
use camps_cache::mshr::MshrFile;
use camps_cpu::core_model::{Core, MemoryPort, PortResult};
use camps_cpu::trace::TraceSource;
use camps_obs::{
    Comp, MetricsSample, ObsConfig, Profiler, ReqClass, TraceHandle, METRICS_SCHEMA_VERSION,
};
use camps_prefetch::SchemeKind;
use camps_stats::{AuditLedger, Running};
use camps_types::addr::PhysAddr;
use camps_types::clock::Cycle;
use camps_types::config::SystemConfig;
use camps_types::error::{IntegrityError, SimError, WatchdogReport};
use camps_types::request::{AccessKind, CoreId, MemRequest, RequestId};
use camps_types::wake::{fold_wake, Wake, WakeSource};
use camps_vault::VaultStats;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet, VecDeque};

/// Sentinel MSHR waiter token for store fills (no core to wake).
const STORE_WAITER: u64 = u64::MAX;

/// Sentinel MSHR waiter token for core-side prefetch fills (fill the LLC
/// only, wake no one, never dirty).
const CORE_PF_WAITER: u64 = u64::MAX - 1;

/// Everything below the cores: caches, MSHRs, host controller, and the
/// cube pool (one or more cubes behind a [`Topology`]).
///
/// Implements [`MemoryPort`], so cores tick directly against it.
#[derive(Serialize, Deserialize)]
pub struct MemorySubsystem {
    hierarchy: CacheHierarchy,
    mshrs: MshrFile,
    /// The cube pool. Named `hmc` because at one cube its snapshot is the
    /// bare device state, byte-identical to pre-topology snapshots.
    hmc: Topology,
    /// Write-allocate fills that must land dirty.
    dirty_fills: HashSet<u64>,
    /// Per-waiter issue cycles for latency accounting.
    issue_cycle: HashMap<u64, Cycle>,
    /// First *attempt* cycle of loads that were rejected (MSHR/host-queue
    /// backpressure), keyed by (core, block). AMAT must include the time
    /// a miss spends unable to even enter the memory system — that is
    /// where an oversubscribed scheme's pain shows up.
    first_attempt: HashMap<(u8, u64), Cycle>,
    /// L3 dirty victims waiting to enter the cube.
    writeback_q: VecDeque<PhysAddr>,
    /// Scratch reused across calls.
    #[serde(skip)]
    wb_scratch: Vec<PhysAddr>,
    #[serde(skip)]
    resp_scratch: Vec<camps_types::request::MemResponse>,
    next_id: u64,
    #[serde(skip)]
    block_mask: u64,
    #[serde(skip)]
    block_bytes: u64,
    /// Core-side next-line prefetcher (two-level prefetching extension).
    #[serde(skip)]
    core_pf: camps_types::config::CoreSidePrefetchConfig,
    /// Core-side prefetches issued / and how many filled usefully is
    /// visible via the hierarchy's hit rates; we count issues here.
    pub core_pf_issued: u64,
    /// Demand-load latency, cache hits included (overall AMAT).
    pub amat_all: Running,
    /// Main-memory read latency (L3-miss round trips; Figure 8's metric).
    pub amat_mem: Running,
    /// Per-source service counts from responses.
    pub buffer_served: u64,
    /// Total read responses.
    pub mem_reads: u64,
    /// Request-conservation checker (integrity layer).
    auditor: RequestAuditor,
    /// Responses handed back to the host, all kinds. Part of the
    /// watchdog's forward-progress signature: a wedged cube stops
    /// advancing this even while cores spin.
    responses_delivered: u64,
    /// Observability hooks (runtime-only; excluded from snapshots so
    /// checkpoints are byte-identical with and without tracing).
    #[serde(skip)]
    obs: TraceHandle,
}

impl MemorySubsystem {
    /// Builds caches + cube for `scheme`.
    ///
    /// # Errors
    /// Returns [`SimError::Config`] when `cfg` fails validation.
    pub fn new(cfg: &SystemConfig, scheme: SchemeKind) -> Result<Self, SimError> {
        Ok(Self {
            hierarchy: CacheHierarchy::new(cfg),
            mshrs: MshrFile::new(cfg.l3.mshrs, cfg.l3.line_bytes),
            hmc: Topology::new(cfg, scheme)?,
            dirty_fills: HashSet::new(),
            issue_cycle: HashMap::new(),
            first_attempt: HashMap::new(),
            writeback_q: VecDeque::new(),
            wb_scratch: Vec::new(),
            resp_scratch: Vec::new(),
            next_id: 0,
            block_mask: !(u64::from(cfg.hmc.block_bytes) - 1),
            block_bytes: u64::from(cfg.hmc.block_bytes),
            core_pf: cfg.core_prefetch,
            core_pf_issued: 0,
            amat_all: Running::new(),
            amat_mem: Running::new(),
            buffer_served: 0,
            mem_reads: 0,
            auditor: RequestAuditor::new(
                cfg.integrity.audit,
                cfg.hmc.vaults as usize * cfg.topology.cubes as usize,
            ),
            responses_delivered: 0,
            obs: TraceHandle::disabled(),
        })
    }

    /// The cube pool: address interleaving, fabric, and every cube.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.hmc
    }

    /// Mutable access to the cube pool.
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.hmc
    }

    /// The cache hierarchy (functional warmup uses it directly).
    pub fn hierarchy_mut(&mut self) -> &mut CacheHierarchy {
        &mut self.hierarchy
    }

    /// Installs observability hooks here, on every cube, and on every
    /// vault (all clones of one handle).
    pub fn set_obs(&mut self, obs: TraceHandle) {
        self.hmc.set_obs(obs.clone());
        self.obs = obs;
    }

    fn fresh_id(&mut self) -> RequestId {
        self.next_id += 1;
        RequestId(self.next_id)
    }

    /// Submits `req` to the cube pool, recording the injection with the
    /// auditor when the pool accepts it. All host-side submits go
    /// through here so the request ledger sees every demand, writeback,
    /// and core-side prefetch. The auditor's vault index is pool-global
    /// (`cube * vaults_per_cube + local_vault`).
    fn submit_audited(&mut self, req: MemRequest, now: Cycle) -> bool {
        let (_, vault) = self.hmc.route_of(req.addr);
        let id = req.id;
        let accepted = self.hmc.submit(req, now);
        if accepted {
            self.auditor.record_injected(id, vault);
        }
        accepted
    }

    /// Takes the first latched request-conservation violation, if any.
    pub fn take_violation(&mut self) -> Option<IntegrityError> {
        self.auditor.take_violation()
    }

    /// End-of-run conservation check; only meaningful when
    /// [`Self::busy`] is false. A latched violation is readable
    /// afterwards via [`Self::take_violation`].
    pub fn check_drained(&mut self) {
        self.auditor.check_drained();
    }

    /// Per-vault injected/completed request counts.
    #[must_use]
    pub fn audit_ledger(&self) -> &AuditLedger {
        self.auditor.ledger()
    }

    /// Total responses delivered back to the host so far.
    #[must_use]
    pub fn responses_delivered(&self) -> u64 {
        self.responses_delivered
    }

    /// Demand misses currently tracked by the MSHR file (diagnostics).
    #[must_use]
    pub fn mshr_in_flight(&self) -> usize {
        self.mshrs.in_flight()
    }

    /// L3 victims still waiting to enter the cube (diagnostics).
    #[must_use]
    pub fn writeback_queue_len(&self) -> usize {
        self.writeback_q.len()
    }

    /// Advances the memory side one cycle; `(core, slot)` pairs whose
    /// loads completed this cycle are appended to `woken` (the caller
    /// owns the vector so the hot loop reuses one allocation).
    pub fn tick(&mut self, now: Cycle, woken: &mut Vec<(CoreId, u64)>, prof: &mut Profiler) {
        debug_assert!(
            self.wb_scratch.is_empty(),
            "writeback scratch not drained between ticks"
        );
        let t = prof.stamp();
        // Drain pending L3 writebacks into the cube pool as posted
        // writes (FIFO: a full owning cube blocks the queue head).
        while let Some(&wb) = self.writeback_q.front() {
            if self.hmc.headroom_for(wb) == 0 {
                break;
            }
            let id = self.fresh_id();
            self.obs.issue(id.0, 0, wb.0, ReqClass::Writeback, now, now);
            let accepted = self.submit_audited(
                MemRequest {
                    id,
                    addr: wb,
                    kind: AccessKind::Write,
                    core: CoreId(0),
                    created_at: now,
                },
                now,
            );
            debug_assert!(accepted, "headroom was checked");
            self.writeback_q.pop_front();
        }
        let _ = prof.lap(Comp::WbDrain, t);

        self.resp_scratch.clear();
        let mut responses = std::mem::take(&mut self.resp_scratch);
        self.hmc.tick(now, &mut responses, prof);

        prof.enter(Comp::CacheFill);
        for resp in &responses {
            if resp.push {
                // Unsolicited LLC push (ablation): fill the shared cache,
                // wake no one.
                self.wb_scratch.clear();
                let mut wbs = std::mem::take(&mut self.wb_scratch);
                self.hierarchy.fill_llc_only(resp.addr, &mut wbs);
                self.writeback_q.extend(wbs.drain(..));
                self.wb_scratch = wbs;
                continue;
            }
            // Every solicited response closes out an audited request;
            // unsolicited pushes above never entered the ledger.
            self.auditor.record_completed(resp.id);
            self.obs.finish(resp.id.0, resp.source, now);
            self.responses_delivered += 1;
            if !resp.kind.is_read() {
                continue; // posted-write acks carry no waiters
            }
            self.mem_reads += 1;
            if resp.source == camps_types::request::ServiceSource::PrefetchBuffer {
                self.buffer_served += 1;
            }
            let block = resp.addr.0 & self.block_mask;
            let dirty = self.dirty_fills.remove(&block);
            let core = usize::from(resp.core.0);
            if core >= self.hierarchy.cores() {
                // A corrupt response would index past the private caches;
                // latch the violation instead of panicking — the run loop
                // polls and aborts with a typed error on the next check.
                self.auditor.latch_violation(IntegrityError::CorruptCoreId {
                    core: resp.core.0,
                    cores: self.hierarchy.cores(),
                });
                continue;
            }
            let waiters = self.mshrs.complete(resp.addr);
            self.wb_scratch.clear();
            let mut wbs = std::mem::take(&mut self.wb_scratch);
            if waiters == [CORE_PF_WAITER] {
                // Pure core-side prefetch: park it in the shared LLC.
                self.hierarchy.fill_llc_only(resp.addr, &mut wbs);
            } else {
                self.hierarchy.fill(core, resp.addr, dirty, &mut wbs);
            }
            self.writeback_q.extend(wbs.drain(..));
            self.wb_scratch = wbs;
            for waiter in waiters {
                let issued = self.issue_cycle.remove(&waiter).unwrap_or(resp.created_at);
                let latency = now.saturating_sub(issued);
                if waiter == CORE_PF_WAITER {
                    // Prefetch fills carry no waiter and no AMAT sample.
                } else if waiter == STORE_WAITER {
                    self.amat_mem.record(latency as f64);
                } else {
                    self.amat_all.record(latency as f64);
                    self.amat_mem.record(latency as f64);
                    woken.push((CoreId((waiter >> 48) as u8), waiter & 0xFFFF_FFFF_FFFF));
                }
            }
        }
        prof.exit(Comp::CacheFill);
        self.resp_scratch = responses;
    }

    /// True while memory-side work remains.
    #[must_use]
    pub fn busy(&self) -> bool {
        self.hmc.busy() || self.mshrs.in_flight() > 0 || !self.writeback_q.is_empty()
    }

    fn token(core: CoreId, slot: u64) -> u64 {
        (u64::from(core.0) << 48) | (slot & 0xFFFF_FFFF_FFFF)
    }

    /// Two-level prefetching extension: after a demand L3 miss, fetch the
    /// next `degree` sequential blocks into the LLC (best-effort; skipped
    /// under MSHR or host-queue pressure so demand always wins).
    fn issue_core_prefetches(&mut self, now: Cycle, core: CoreId, addr: PhysAddr) {
        if !self.core_pf.enable {
            return;
        }
        for i in 1..=u64::from(self.core_pf.degree) {
            let target = PhysAddr((addr.0 & self.block_mask).wrapping_add(i * self.block_bytes));
            if self.hierarchy.access_untimed(target) || self.mshrs.contains(target) {
                continue; // already on chip or in flight
            }
            if self.mshrs.is_full() || self.hmc.headroom_for(target) == 0 {
                return; // never squeeze demand
            }
            self.mshrs.allocate(target, CORE_PF_WAITER);
            let id = self.fresh_id();
            self.obs
                .issue(id.0, core.0, target.0, ReqClass::CorePrefetch, now, now);
            let accepted = self.submit_audited(
                MemRequest {
                    id,
                    addr: target,
                    kind: AccessKind::Read,
                    core,
                    created_at: now,
                },
                now,
            );
            debug_assert!(accepted, "headroom was checked");
            self.core_pf_issued += 1;
        }
    }
}

impl Wake for MemorySubsystem {
    /// The memory side wakes with the cube pool, plus an immediate wake
    /// while the queued L3 writeback at the head can drain into its
    /// cube's free host-queue headroom (the drain runs at the top of
    /// every tick). MSHRs and caches hold no timers of their own — their
    /// state only changes when the pool delivers a response, which the
    /// pool's own wake already covers.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if let Some(&wb) = self.writeback_q.front() {
            if self.hmc.headroom_for(wb) > 0 {
                return Some(now + 1);
            }
        }
        self.hmc.next_event(now)
    }
}

impl MemorySubsystem {
    /// Demand-load L3 miss: merge into (or allocate) an MSHR and inject
    /// the read into the cube pool.
    fn load_miss(
        &mut self,
        now: Cycle,
        core: CoreId,
        slot: u64,
        addr: PhysAddr,
        lookup_latency: u64,
    ) -> PortResult {
        let block = addr.0 & self.block_mask;
        if self.mshrs.contains(addr) {
            let token = Self::token(core, slot);
            self.mshrs.allocate(addr, token);
            let issued = self.first_attempt.remove(&(core.0, block)).unwrap_or(now);
            self.issue_cycle.insert(token, issued);
            return PortResult::Accepted;
        }
        if self.mshrs.is_full() || self.hmc.headroom_for(addr) == 0 {
            self.first_attempt.entry((core.0, block)).or_insert(now);
            return PortResult::Rejected;
        }
        let token = Self::token(core, slot);
        self.mshrs.allocate(addr, token);
        let issued = self.first_attempt.remove(&(core.0, block)).unwrap_or(now);
        self.issue_cycle.insert(token, issued);
        let id = self.fresh_id();
        // Inject = this cycle: the request joins the host queue
        // now and can launch before `created_at` (which only
        // rides along for reporting), so the stage edges must be
        // real event times or the host-queue span goes negative.
        self.obs
            .issue(id.0, core.0, block, ReqClass::DemandRead, issued, now);
        let accepted = self.submit_audited(
            MemRequest {
                id,
                addr: addr.block_base(self.block_bytes),
                kind: AccessKind::Read,
                core,
                created_at: now + lookup_latency,
            },
            now,
        );
        debug_assert!(accepted, "headroom was checked");
        self.issue_core_prefetches(now, core, addr);
        PortResult::Accepted
    }

    /// Store L3 miss (write-allocate): fetch the block, fill dirty.
    fn store_miss(
        &mut self,
        now: Cycle,
        core: CoreId,
        addr: PhysAddr,
        lookup_latency: u64,
    ) -> bool {
        let block = addr.0 & self.block_mask;
        if self.mshrs.contains(addr) {
            self.mshrs.allocate(addr, STORE_WAITER);
            self.issue_cycle.entry(STORE_WAITER).or_insert(now);
            self.dirty_fills.insert(block);
            return true;
        }
        if self.mshrs.is_full() || self.hmc.headroom_for(addr) == 0 {
            return false;
        }
        self.mshrs.allocate(addr, STORE_WAITER);
        self.dirty_fills.insert(block);
        let id = self.fresh_id();
        self.obs
            .issue(id.0, core.0, block, ReqClass::Store, now, now);
        let accepted = self.submit_audited(
            MemRequest {
                id,
                addr: PhysAddr(block),
                kind: AccessKind::Read,
                core,
                created_at: now + lookup_latency,
            },
            now,
        );
        debug_assert!(accepted, "headroom was checked");
        true
    }
}

impl MemoryPort for MemorySubsystem {
    fn load(
        &mut self,
        now: Cycle,
        core: CoreId,
        slot: u64,
        addr: PhysAddr,
        prof: &mut Profiler,
    ) -> PortResult {
        self.wb_scratch.clear();
        let mut wbs = std::mem::take(&mut self.wb_scratch);
        let outcome = self
            .hierarchy
            .access(usize::from(core.0), addr, false, &mut wbs, prof);
        self.writeback_q.extend(wbs.drain(..));
        self.wb_scratch = wbs;
        match outcome {
            HierarchyOutcome::Hit { latency, .. } => {
                self.amat_all.record(latency as f64);
                PortResult::Hit { latency }
            }
            HierarchyOutcome::Miss { lookup_latency } => {
                let t = prof.stamp();
                let r = self.load_miss(now, core, slot, addr, lookup_latency);
                let _ = prof.lap(Comp::Mshr, t);
                r
            }
        }
    }

    fn store(&mut self, now: Cycle, core: CoreId, addr: PhysAddr, prof: &mut Profiler) -> bool {
        self.wb_scratch.clear();
        let mut wbs = std::mem::take(&mut self.wb_scratch);
        let outcome = self
            .hierarchy
            .access(usize::from(core.0), addr, true, &mut wbs, prof);
        self.writeback_q.extend(wbs.drain(..));
        self.wb_scratch = wbs;
        match outcome {
            HierarchyOutcome::Hit { .. } => true,
            HierarchyOutcome::Miss { lookup_latency } => {
                let t = prof.stamp();
                let r = self.store_miss(now, core, addr, lookup_latency);
                let _ = prof.lap(Comp::Mshr, t);
                r
            }
        }
    }
}

/// Loop bookkeeping for an in-flight [`System::run`] invocation, split
/// out so a driver can checkpoint and restore it alongside the machine
/// itself.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunState {
    /// Cycle the run started at.
    start: Cycle,
    /// Per-core retirement target.
    instructions: u64,
    /// Absolute cycle cap.
    deadline: Cycle,
    /// Cycle (relative to `start`) each core reached its target, per core.
    done_at: Box<[Option<Cycle>]>,
    /// Watchdog: last observed forward-progress signature.
    last_progress: (u64, u64),
    /// Watchdog: cycle the signature last changed.
    stalled_since: Cycle,
}

impl RunState {
    /// True once every core hit its retirement target.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.done_at.iter().all(Option::is_some)
    }
}

/// Stepping strategy of the run loop.
///
/// Both engines execute the exact same per-cycle tick body and produce
/// bit-identical results; they differ only in which cycles they visit.
/// The polling engine visits every cycle. The event engine asks each
/// component for its next wake time ([`camps_types::wake::Wake`]) and
/// jumps straight there, charging the skipped cycles to the cores' idle
/// accounting in bulk ([`Core::skip_idle`]).
///
/// The engine is a property of the *driver*, not the machine: it is not
/// part of [`SystemConfig`], does not enter the snapshot config hash,
/// and is not serialized, so a snapshot taken under one engine restores
/// under the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Tick every cycle (the reference engine).
    Polling,
    /// Skip to the next wake time (bit-identical, much faster when idle).
    #[default]
    Event,
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "polling" => Ok(Self::Polling),
            "event" => Ok(Self::Event),
            other => Err(format!("unknown engine `{other}` (polling|event)")),
        }
    }
}

/// The whole machine plus the run loop.
///
/// Its snapshot is the cores, the memory side and the clock. `cfg` and
/// `scheme` are construction inputs recorded (as a hash and a name) in
/// the snapshot manifest; the rest is driver-side pacing.
#[derive(Serialize, Deserialize)]
pub struct System {
    #[serde(skip)]
    cfg: SystemConfig,
    cores: Box<[Core]>,
    mem: MemorySubsystem,
    #[serde(skip)]
    scheme: SchemeKind,
    now: Cycle,
    /// Stepping strategy; never serialized (snapshots are engine-neutral).
    #[serde(skip)]
    engine: Engine,
    /// Scratch for completed-load wakeups, reused across `run_step`s.
    #[serde(skip)]
    woken_scratch: Vec<(CoreId, u64)>,
    /// Event-engine scan backoff: cycles left before the next wake scan.
    /// When a scan finds nothing skippable, rescanning every cycle only
    /// burns time on dense mixes — ticking without scanning is always
    /// correct (it *is* the polling engine), so we pause the scan for a
    /// few cycles. Never serialized (engine-local pacing state).
    #[serde(skip)]
    scan_backoff: u64,
    /// Observability hooks; never serialized (see [`MemorySubsystem`]).
    #[serde(skip)]
    obs: TraceHandle,
    /// Host-side self-profiler. A sibling of `cores`/`mem` so the tick
    /// loop can split-borrow it alongside both. Runtime-only: never
    /// serialized, and [`Profiler::off`] unless enabled via
    /// [`ObsConfig`], so profiled and unprofiled runs stay bit-identical.
    #[serde(skip)]
    prof: Profiler,
    /// Metrics sampling interval; `None` disables the sampler.
    #[serde(skip)]
    metrics_every: Option<u64>,
    /// Absolute cycle of the next metrics sample.
    #[serde(skip)]
    next_sample: Cycle,
    /// Ticks the run loop actually executed (event engine: per wake);
    /// read by [`Self::visited_cycles`].
    #[serde(skip)]
    wake_ticks: u64,
    /// Cycles the event engine skipped without ticking.
    #[serde(skip)]
    cycles_skipped: u64,
}

impl System {
    /// Builds the machine: one core per trace, all vaults running
    /// `scheme`.
    ///
    /// # Errors
    /// Returns [`SimError::Config`] for an invalid configuration and
    /// [`SimError::Setup`] when the trace count does not match
    /// `cfg.cpu.cores`.
    pub fn new(
        cfg: &SystemConfig,
        scheme: SchemeKind,
        traces: Vec<Box<dyn TraceSource>>,
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        if traces.len() != cfg.cpu.cores as usize {
            return Err(SimError::Setup {
                reason: format!(
                    "need one trace per core: got {} traces for {} cores",
                    traces.len(),
                    cfg.cpu.cores
                ),
            });
        }
        let cores = traces
            .into_iter()
            .enumerate()
            .map(|(i, t)| Core::new(CoreId(i as u8), &cfg.cpu, t))
            .collect();
        Ok(Self {
            cfg: cfg.clone(),
            cores,
            mem: MemorySubsystem::new(cfg, scheme)?,
            scheme,
            now: 0,
            engine: Engine::default(),
            woken_scratch: Vec::new(),
            scan_backoff: 0,
            obs: TraceHandle::disabled(),
            prof: Profiler::off(),
            metrics_every: None,
            next_sample: 0,
            wake_ticks: 0,
            cycles_skipped: 0,
        })
    }

    /// Selects the stepping strategy for subsequent run loops. The event
    /// engine also ticks only the vaults that are due; polling ticks all.
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
        self.mem
            .topology_mut()
            .set_vault_gating(engine == Engine::Event);
    }

    /// The stepping strategy in force.
    #[must_use]
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Installs observability per `obs_cfg`: lifecycle tracing hooks on
    /// the whole memory path, plus the periodic metrics sampler when
    /// `metrics_every` is set. A no-op (warning-free) when the crate was
    /// built without the `obs` feature — check
    /// [`TraceHandle::compiled`] to report that to the user.
    pub fn enable_obs(&mut self, obs_cfg: &ObsConfig) {
        let handle = TraceHandle::new(obs_cfg);
        self.mem.set_obs(handle.clone());
        self.obs = handle;
        self.metrics_every = if self.obs.is_enabled() {
            obs_cfg.metrics_every
        } else {
            None
        };
        if let Some(every) = self.metrics_every {
            self.next_sample = self.now + every;
        }
        if obs_cfg.wants_profile() {
            self.prof = Profiler::enabled();
        }
    }

    /// The host-side self-profiler (disabled unless requested via
    /// [`Self::enable_obs`]).
    #[must_use]
    pub fn profiler(&self) -> &Profiler {
        &self.prof
    }

    /// The installed observability handle (disabled by default).
    #[must_use]
    pub fn obs(&self) -> &TraceHandle {
        &self.obs
    }

    /// Vault ticks run so far, a count of simulation work that does not
    /// depend on the host. Polling runs one per vault per cycle; the
    /// event engine skips the vaults that are not due. Runtime-only: it
    /// is in neither [`RunResult`] nor snapshots.
    #[must_use]
    pub fn vault_ticks(&self) -> u64 {
        self.mem.topology().vault_ticks()
    }

    /// Cycles the run loop has ticked so far, the other host-independent
    /// count of work. Polling visits every cycle; the event engine jumps
    /// over the cycles where nothing can happen, so the skipped cycles
    /// are the elapsed cycles minus this. Runtime-only, like
    /// [`Self::vault_ticks`].
    #[must_use]
    pub fn visited_cycles(&self) -> u64 {
        self.wake_ticks
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Read access to the memory subsystem.
    #[must_use]
    pub fn memory(&self) -> &MemorySubsystem {
        &self.mem
    }

    /// The configuration the machine was built from.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The prefetching scheme every vault runs.
    #[must_use]
    pub fn scheme(&self) -> SchemeKind {
        self.scheme
    }

    /// The self-profiler, for a driver that steps the run loop itself
    /// and must bracket it in [`Comp::RunLoop`] as [`Self::run`] does.
    pub(crate) fn profiler_mut(&mut self) -> &mut Profiler {
        &mut self.prof
    }

    /// Functionally warms the caches by streaming `instructions` per core
    /// through the hierarchy with no timing — the equivalent of the
    /// paper's fast-forward + cache-warmup phase (§4.1). The per-core
    /// trace cursors advance, so detailed simulation continues from warmed
    /// state.
    pub fn warmup(&mut self, instructions: u64) {
        for core_idx in 0..self.cores.len() {
            let mut done = 0u64;
            while done < instructions {
                let op = self.cores[core_idx].warmup_op();
                done += op.instructions();
                if let Some((addr, kind)) = op.mem {
                    let h = self.mem.hierarchy_mut();
                    let mut wb = Vec::new();
                    // Warmup is untimed; keep it out of the profile.
                    if let HierarchyOutcome::Miss { .. } = h.access(
                        core_idx,
                        addr,
                        !kind.is_read(),
                        &mut wb,
                        &mut Profiler::off(),
                    ) {
                        h.fill(core_idx, addr, !kind.is_read(), &mut wb);
                    }
                }
            }
        }
    }

    /// Runs detailed simulation until every core has retired
    /// `instructions` (or `max_cycles` elapse), returning the run's
    /// metrics. Per-core IPC is measured at the cycle each core reached
    /// its own target, while the machine keeps running to provide
    /// contention until the slowest core finishes — the standard
    /// multiprogrammed methodology.
    ///
    /// # Errors
    /// Returns [`SimError::Integrity`] when the request auditor latches
    /// a conservation violation, and [`SimError::Watchdog`] — with a
    /// full occupancy dump — when no core retires an instruction and no
    /// response leaves the cube for
    /// [`watchdog_cycles`](camps_types::IntegrityConfig::watchdog_cycles)
    /// consecutive cycles (0 disables the watchdog).
    pub fn run(
        &mut self,
        instructions: u64,
        max_cycles: Cycle,
        mix_id: &str,
    ) -> Result<RunResult, SimError> {
        let mut state = self.run_begin(instructions, max_cycles);
        self.prof.enter(Comp::RunLoop);
        let looped = loop {
            match self.run_step(&mut state) {
                Ok(true) => {}
                Ok(false) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        self.prof.exit(Comp::RunLoop);
        looped?;
        self.run_finish(&state, mix_id)
    }

    /// Starts a run: captures the loop bookkeeping that [`Self::run_step`]
    /// advances. Split out (with [`Self::run_finish`]) so a driver can
    /// interleave checkpoints and deadline checks with the cycle loop and
    /// snapshot the bookkeeping together with the machine.
    pub fn run_begin(&mut self, instructions: u64, max_cycles: Cycle) -> RunState {
        RunState {
            start: self.now,
            instructions,
            deadline: self.now + max_cycles,
            done_at: vec![None; self.cores.len()].into_boxed_slice(),
            last_progress: self.progress_signature(),
            stalled_since: self.now,
        }
    }

    /// Advances the machine one cycle. Returns `Ok(true)` while the run
    /// has work left and `Ok(false)` once every core hit its target (or
    /// the cycle cap elapsed).
    ///
    /// # Errors
    /// The same integrity/watchdog errors as [`Self::run`].
    pub fn run_step(&mut self, state: &mut RunState) -> Result<bool, SimError> {
        if !(state.done_at.iter().any(Option::is_none) && self.now < state.deadline) {
            return Ok(false);
        }
        if self.engine == Engine::Event && self.scan_backoff > 0 {
            self.scan_backoff -= 1;
            self.prof.note_jump(WakeSource::Backoff, 0);
        } else if self.engine == Engine::Event {
            // Jump to the cycle before the earliest pending event, charging
            // the skipped cycles to the cores' idle accounting in bulk. The
            // wake contract is conservative (never late), so the tick below
            // lands on — or before — the first cycle where anything can
            // happen, and the tick body is the same as the polling engine's.
            //
            // The dispatch accounting (which source won the fold, how many
            // cycles the jump coalesced) only *observes* the computation —
            // it must never change `wake` or `target`, or the engines'
            // bit-identity contract breaks.
            self.prof.enter(Comp::WakeScan);
            let next = self.now + 1;
            let mut wake: Option<Cycle> = None;
            let mut source = WakeSource::Deadline;
            for core in &self.cores {
                let before = wake;
                fold_wake(&mut wake, self.now, core.next_event(self.now));
                if wake != before {
                    source = WakeSource::Core;
                }
                if wake == Some(next) {
                    break; // can't skip anything; don't scan the memory side
                }
            }
            if wake != Some(next) {
                let before = wake;
                fold_wake(&mut wake, self.now, self.mem.next_event(self.now));
                if wake != before {
                    source = WakeSource::Memory;
                }
            }
            if wake != Some(next) && self.cfg.integrity.watchdog_cycles > 0 {
                // The watchdog must still fire at the exact polling cycle
                // even when every component sleeps past it.
                let fire = state.stalled_since + self.cfg.integrity.watchdog_cycles;
                let before = wake;
                fold_wake(&mut wake, self.now, Some(fire));
                if wake != before {
                    source = WakeSource::Watchdog;
                }
            }
            if wake != Some(next) && self.metrics_every.is_some() {
                // Samples must land on their exact cycle under both
                // engines, so the sampler is a wake source of its own.
                let before = wake;
                fold_wake(&mut wake, self.now, Some(self.next_sample));
                if wake != before {
                    source = WakeSource::Sampler;
                }
            }
            let target = wake.unwrap_or(state.deadline).min(state.deadline).max(next);
            if wake.is_none_or(|w| w > state.deadline) {
                source = WakeSource::Deadline;
            }
            let skipped = target - self.now - 1;
            self.cycles_skipped += skipped;
            if skipped > 0 {
                for core in &mut self.cores {
                    core.skip_idle(skipped);
                }
                self.now = target - 1;
            } else {
                // Nothing skippable: the machine is dense right now, and
                // will usually stay dense for a while. Tick scan-free for a
                // few cycles before probing again.
                self.scan_backoff = 8;
                self.prof.note_backoff_engaged();
            }
            self.prof.note_jump(source, skipped);
            self.prof.exit(Comp::WakeScan);
        }
        let sig_before = if self.prof.is_enabled() {
            Some(self.progress_signature())
        } else {
            None
        };
        self.prof.enter(Comp::RunStep);
        let stepped = self.step_body(state);
        self.prof.exit(Comp::RunStep);
        if let Some(before) = sig_before {
            self.prof.note_outcome(self.progress_signature() != before);
        }
        stepped
    }

    /// The per-cycle tick body shared verbatim by both engines; split
    /// from [`Self::run_step`] so the profiler's `run_step` span closes
    /// on every exit path (including typed errors).
    fn step_body(&mut self, state: &mut RunState) -> Result<bool, SimError> {
        self.now += 1;
        self.wake_ticks += 1;
        self.prof.enter(Comp::CoreRetire);
        for (i, core) in self.cores.iter_mut().enumerate() {
            core.tick(self.now, &mut self.mem, &mut self.prof);
            if state.done_at[i].is_none() && core.stats().retired.get() >= state.instructions {
                state.done_at[i] = Some(self.now - state.start);
            }
        }
        self.prof.exit(Comp::CoreRetire);
        self.woken_scratch.clear();
        self.prof.enter(Comp::MemTick);
        self.mem
            .tick(self.now, &mut self.woken_scratch, &mut self.prof);
        self.prof.exit(Comp::MemTick);
        for i in 0..self.woken_scratch.len() {
            let (core, slot) = self.woken_scratch[i];
            // MSHR waiter tokens come back from the memory side; a corrupt
            // token must surface as a typed error, not an index panic.
            let Some(c) = self.cores.get_mut(usize::from(core.0)) else {
                return Err(SimError::Integrity(IntegrityError::CorruptCoreId {
                    core: core.0,
                    cores: self.cores.len(),
                }));
            };
            c.complete_load(slot);
        }
        if let Some(violation) = self.mem.take_violation() {
            return Err(SimError::Integrity(violation));
        }
        if let Some(every) = self.metrics_every {
            if self.now >= self.next_sample {
                self.prof.enter(Comp::Sampler);
                self.record_metrics_sample();
                self.prof.exit(Comp::Sampler);
                self.next_sample = self.now + every;
            }
        }
        let watchdog = self.cfg.integrity.watchdog_cycles;
        if watchdog > 0 {
            let sig = self.progress_signature();
            if sig == state.last_progress {
                let stall = self.now - state.stalled_since;
                if stall >= watchdog {
                    self.obs.mark("watchdog_trip", self.now);
                    return Err(SimError::Watchdog(Box::new(self.diagnostic_report(stall))));
                }
            } else {
                state.last_progress = sig;
                state.stalled_since = self.now;
            }
        }
        Ok(true)
    }

    /// Closes out a run: drain-audits the memory side and computes the
    /// metrics from the loop bookkeeping.
    ///
    /// # Errors
    /// [`SimError::Integrity`] if the drained machine lost requests.
    pub fn run_finish(&mut self, state: &RunState, mix_id: &str) -> Result<RunResult, SimError> {
        if !self.mem.busy() {
            // The machine claims idle: every injected request must have
            // come back. (While memory is still draining — the run ended
            // on retirement, not quiescence — outstanding entries are
            // legitimate in-flight work, not losses.)
            self.mem.check_drained();
            if let Some(violation) = self.mem.take_violation() {
                return Err(SimError::Integrity(violation));
            }
        }
        let elapsed = self.now - state.start;
        let ipc: Vec<f64> = self
            .cores
            .iter()
            .zip(&state.done_at)
            .map(|(core, done)| {
                let cycles = done.unwrap_or(elapsed).max(1);
                core.stats().retired.get().min(state.instructions) as f64 / cycles as f64
            })
            .collect();
        let vaults = self.mem.topology_mut().finalize(self.now);
        let amplification = Some(camps_stats::AmplificationReport::from_counts(
            vaults.demand_activations.get(),
            vaults.prefetch_activations.get(),
            vaults.writeback_activations.get(),
            vaults.worst_row_window_acts,
            vaults.mitigations.get(),
            vaults.refreshes.get(),
        ));
        Ok(RunResult {
            scheme: self.scheme,
            mix_id: mix_id.to_string(),
            ipc,
            core_names: self
                .cores
                .iter()
                .map(|c| c.workload_name().to_string())
                .collect(),
            core_stats: self.cores.iter().map(|c| c.stats().clone()).collect(),
            vaults,
            amat_all: self.mem.amat_all.mean().unwrap_or(0.0),
            amat_mem: self.mem.amat_mem.mean().unwrap_or(0.0),
            cycles: elapsed,
            energy_nj: 0.0, // filled below (needs cfg)
            stage_latency: self.obs.breakdown(),
            amplification,
            profile: self.prof.summary(),
        }
        .with_energy(&self.cfg))
    }

    /// Gathers one [`MetricsSample`] across cores, host structures, and
    /// every vault, and appends it to the tracer's time-series.
    fn record_metrics_sample(&mut self) {
        let retired: u64 = self.cores.iter().map(|c| c.stats().retired.get()).sum();
        let topo = self.mem.topology();
        let mut vault_read_queue = 0u64;
        let mut vault_write_queue = 0u64;
        let mut buffer_rows = 0u64;
        let mut buffer_capacity = 0u64;
        let mut rut_entries = 0u64;
        let mut ct_entries = 0u64;
        let mut pf_unused_evictions = 0u64;
        let mut stats = VaultStats::new();
        for v in topo.all_cubes().iter().flat_map(|c| c.vaults()) {
            vault_read_queue += v.read_queue_len() as u64;
            vault_write_queue += v.write_queue_len() as u64;
            let (rows, cap) = v.buffer_occupancy();
            buffer_rows += rows as u64;
            buffer_capacity += cap as u64;
            let (rut, ct) = v.table_occupancy();
            rut_entries += rut as u64;
            ct_entries += ct as u64;
            pf_unused_evictions += v.buffer_unused_evictions();
            stats.merge(v.stats());
        }
        let (traced_reads, traced_cycles) = self.obs.traced_reads();
        self.obs.push_sample(MetricsSample {
            schema: METRICS_SCHEMA_VERSION,
            cycle: self.now,
            retired,
            responses: self.mem.responses_delivered(),
            mem_reads: self.mem.mem_reads,
            buffer_served: self.mem.buffer_served,
            host_queue: topo.host_queue_len() as u64,
            mshr_in_flight: self.mem.mshr_in_flight() as u64,
            writeback_queue: self.mem.writeback_queue_len() as u64,
            vault_read_queue,
            vault_write_queue,
            buffer_rows,
            buffer_capacity,
            rut_entries,
            ct_entries,
            row_hits: stats.row_hits.get(),
            row_misses: stats.row_misses.get(),
            row_conflicts: stats.row_conflicts.get(),
            buffer_hits: stats.buffer_hits.get(),
            prefetches: stats.prefetches.get(),
            pf_useful: stats.prefetches_referenced.get(),
            pf_unused_evictions,
            amat_mem_mean: self.mem.amat_mem.mean().unwrap_or(0.0),
            traced_reads,
            traced_cycles,
            wake_ticks: self.wake_ticks,
            cycles_skipped: self.cycles_skipped,
            host_profile_ns: self.prof.host_ns(),
            spurious_wakes: self.prof.spurious_total(),
            worst_row_window_acts: stats.worst_row_window_acts,
            rowguard_mitigations: stats.mitigations.get(),
            cubes: topo.cubes() as u64,
            cube_link_inflight: topo.link_inflight() as u64,
            cube_host_queue: topo.host_queue_lens(),
        });
    }

    /// Forward-progress signature: total retired instructions plus total
    /// responses delivered. A live machine advances at least one of the
    /// two; a wedged one advances neither.
    fn progress_signature(&self) -> (u64, u64) {
        let retired: u64 = self.cores.iter().map(|c| c.stats().retired.get()).sum();
        (retired, self.mem.responses_delivered())
    }

    /// Structured occupancy dump for the watchdog: where every queue,
    /// row, and token stood when forward progress stopped.
    fn diagnostic_report(&self, stall_cycles: Cycle) -> WatchdogReport {
        let topo = self.mem.topology();
        WatchdogReport {
            now: self.now,
            stall_cycles,
            host_queue: topo.host_queue_len(),
            mshr_in_flight: self.mem.mshr_in_flight(),
            writeback_queue: self.mem.writeback_queue_len(),
            rob_occupancy: self.cores.iter().map(Core::rob_occupancy).collect(),
            req_link_tokens: topo.req_link_tokens(),
            resp_link_tokens: topo.resp_link_tokens(),
            vaults: topo.vault_snapshots(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camps_cpu::trace::{TraceOp, VecTrace};
    use camps_types::snapshot::Snapshot;

    fn small_cfg() -> SystemConfig {
        SystemConfig::small()
    }

    fn streaming_traces(cfg: &SystemConfig) -> Vec<Box<dyn TraceSource>> {
        (0..cfg.cpu.cores)
            .map(|c| {
                // Per-core disjoint streaming over 1 MB.
                let ops: Vec<TraceOp> = (0..2048u64)
                    .map(|i| {
                        TraceOp::load(2, PhysAddr((u64::from(c) << 24) + (i * 64) % (1 << 20)))
                    })
                    .collect();
                Box::new(VecTrace::new(format!("stream{c}"), ops)) as Box<dyn TraceSource>
            })
            .collect()
    }

    #[test]
    fn system_runs_and_produces_ipc() {
        let cfg = small_cfg();
        let mut sys = System::new(&cfg, SchemeKind::Nopf, streaming_traces(&cfg)).unwrap();
        let result = sys.run(20_000, 2_000_000, "unit").unwrap();
        assert_eq!(result.ipc.len(), cfg.cpu.cores as usize);
        for &ipc in &result.ipc {
            assert!(ipc > 0.0 && ipc <= 4.0, "ipc {ipc}");
        }
        assert!(result.cycles > 0);
        assert!(result.vaults.reads.get() > 0);
    }

    #[test]
    fn warmup_reduces_cold_misses() {
        let cfg = small_cfg();
        let mut cold = System::new(&cfg, SchemeKind::Nopf, streaming_traces(&cfg)).unwrap();
        let mut warm = System::new(&cfg, SchemeKind::Nopf, streaming_traces(&cfg)).unwrap();
        warm.warmup(50_000);
        let rc = cold.run(10_000, 1_000_000, "cold").unwrap();
        let rw = warm.run(10_000, 1_000_000, "warm").unwrap();
        // The trace loops over 1 MB (fits in the small L3 with room to
        // spare only partially) — warmed caches must not do worse.
        let cold_reads = rc.vaults.reads.get();
        let warm_reads = rw.vaults.reads.get();
        assert!(
            warm_reads <= cold_reads,
            "warm {warm_reads} vs cold {cold_reads}"
        );
    }

    #[test]
    fn deterministic_runs() {
        let cfg = small_cfg();
        let mut a = System::new(&cfg, SchemeKind::CampsMod, streaming_traces(&cfg)).unwrap();
        let mut b = System::new(&cfg, SchemeKind::CampsMod, streaming_traces(&cfg)).unwrap();
        let ra = a.run(10_000, 1_000_000, "det").unwrap();
        let rb = b.run(10_000, 1_000_000, "det").unwrap();
        assert_eq!(ra.ipc, rb.ipc);
        assert_eq!(ra.cycles, rb.cycles);
        assert_eq!(ra.vaults, rb.vaults);
    }

    #[test]
    fn mid_run_snapshot_restores_bit_identical_results() {
        let cfg = small_cfg();
        for scheme in [SchemeKind::Nopf, SchemeKind::Camps] {
            let mut a = System::new(&cfg, scheme, streaming_traces(&cfg)).unwrap();
            let mut st_a = a.run_begin(10_000, 1_000_000);
            for _ in 0..3_000 {
                assert!(a.run_step(&mut st_a).unwrap());
            }
            let sys_state = a.save_state();
            let run_state = st_a.save_state();
            // Fresh machine, overlay the checkpoint, continue both.
            let mut b = System::new(&cfg, scheme, streaming_traces(&cfg)).unwrap();
            let mut st_b = b.run_begin(10_000, 1_000_000);
            b.restore_state(&sys_state).unwrap();
            st_b.restore_state(&run_state).unwrap();
            while a.run_step(&mut st_a).unwrap() {}
            while b.run_step(&mut st_b).unwrap() {}
            let ra = a.run_finish(&st_a, "snap").unwrap();
            let rb = b.run_finish(&st_b, "snap").unwrap();
            assert_eq!(ra.ipc, rb.ipc, "{scheme:?}");
            assert_eq!(ra.cycles, rb.cycles, "{scheme:?}");
            assert_eq!(ra.vaults, rb.vaults, "{scheme:?}");
            assert_eq!(ra.amat_mem, rb.amat_mem, "{scheme:?}");
        }
    }

    #[test]
    fn snapshot_rejects_wrong_core_count() {
        let cfg = small_cfg();
        let sys = System::new(&cfg, SchemeKind::Nopf, streaming_traces(&cfg)).unwrap();
        let state = sys.save_state();
        let mut one_core_cfg = cfg.clone();
        one_core_cfg.cpu.cores = 1;
        let traces = streaming_traces(&one_core_cfg);
        let mut small = System::new(&one_core_cfg, SchemeKind::Nopf, traces).unwrap();
        let err = small.restore_state(&state).unwrap_err();
        assert!(err.to_string().contains("core"), "got: {err}");
    }

    #[test]
    fn prefetching_scheme_generates_prefetches() {
        let cfg = small_cfg();
        let mut sys = System::new(&cfg, SchemeKind::Base, streaming_traces(&cfg)).unwrap();
        let result = sys.run(20_000, 2_000_000, "base").unwrap();
        assert!(result.vaults.prefetches.get() > 0, "BASE must prefetch");
    }

    #[test]
    fn amat_positive_when_memory_touched() {
        let cfg = small_cfg();
        let mut sys = System::new(&cfg, SchemeKind::Nopf, streaming_traces(&cfg)).unwrap();
        let result = sys.run(10_000, 1_000_000, "amat").unwrap();
        assert!(result.amat_mem > 100.0, "memory AMAT {}", result.amat_mem);
        assert!(result.amat_all > 0.0);
        // With a fully-missing stream the two coincide; hits only lower it.
        assert!(result.amat_all <= result.amat_mem);
    }

    #[test]
    fn trace_count_mismatch_is_a_setup_error() {
        let cfg = small_cfg();
        let Err(err) = System::new(&cfg, SchemeKind::Nopf, vec![]) else {
            panic!("zero traces for a multi-core config must be rejected");
        };
        let SimError::Setup { reason } = err else {
            panic!("expected a setup error, got {err}");
        };
        assert!(reason.contains("one trace per core"), "{reason}");
    }

    #[test]
    fn invalid_config_is_a_config_error() {
        let mut cfg = small_cfg();
        cfg.link.tokens = 0;
        let Err(err) = System::new(&cfg, SchemeKind::Nopf, streaming_traces(&small_cfg())) else {
            panic!("zero link tokens must be rejected");
        };
        assert!(matches!(err, SimError::Config(_)), "got {err}");
    }
}

#[cfg(test)]
mod integrity_tests {
    use super::*;
    use camps_cpu::trace::{TraceOp, VecTrace};

    fn traces(cfg: &SystemConfig) -> Vec<Box<dyn TraceSource>> {
        (0..cfg.cpu.cores)
            .map(|c| {
                let ops: Vec<TraceOp> = (0..2048u64)
                    .map(|i| {
                        TraceOp::load(2, PhysAddr((u64::from(c) << 24) + (i * 64) % (1 << 20)))
                    })
                    .collect();
                Box::new(VecTrace::new(format!("stream{c}"), ops)) as Box<dyn TraceSource>
            })
            .collect()
    }

    #[test]
    fn stalled_vault_trips_the_watchdog_with_a_diagnostic_dump() {
        let mut cfg = SystemConfig::small();
        cfg.faults.stall_vault = 0;
        cfg.faults.stall_vault_from = 1;
        cfg.integrity.watchdog_cycles = 5_000;
        let mut sys = System::new(&cfg, SchemeKind::Nopf, traces(&cfg)).unwrap();
        let Err(err) = sys.run(20_000, 2_000_000, "wedged") else {
            panic!("a stalled vault must wedge the run, not finish it");
        };
        let SimError::Watchdog(report) = err else {
            panic!("expected the watchdog to fire, got {err}");
        };
        assert_eq!(report.stall_cycles, 5_000);
        assert_eq!(report.vaults.len(), cfg.hmc.vaults as usize);
        // The wedged vault holds work it will never finish.
        let v0 = &report.vaults[0];
        assert!(
            v0.read_q + v0.retry_q + v0.inflight_jobs > 0,
            "stalled vault shows no backlog: {v0:?}"
        );
        // The rendered dump names the stall and the vault occupancies.
        let dump = report.render();
        assert!(dump.contains("no forward progress"), "{dump}");
        assert!(dump.contains("vault"), "{dump}");
    }

    #[test]
    fn duplicated_response_is_caught_by_the_auditor() {
        let mut cfg = SystemConfig::small();
        cfg.integrity.audit = true;
        cfg.faults.duplicate_response_every = 1;
        let mut sys = System::new(&cfg, SchemeKind::Nopf, traces(&cfg)).unwrap();
        let Err(err) = sys.run(20_000, 2_000_000, "dup") else {
            panic!("duplicated responses must fail the run");
        };
        assert!(
            matches!(
                err,
                SimError::Integrity(IntegrityError::DuplicateCompletion { .. })
            ),
            "got {err}"
        );
    }

    #[test]
    fn clean_run_keeps_the_ledger_balanced() {
        let mut cfg = SystemConfig::small();
        cfg.integrity.audit = true;
        let mut sys = System::new(&cfg, SchemeKind::Camps, traces(&cfg)).unwrap();
        sys.run(10_000, 1_000_000, "clean").unwrap();
        let ledger = sys.memory().audit_ledger();
        assert!(ledger.injected() > 0, "the run must touch memory");
        assert!(
            ledger.outstanding() <= ledger.injected(),
            "conservation arithmetic"
        );
    }

    #[test]
    fn watchdog_disabled_means_a_wedged_run_times_out_instead() {
        let mut cfg = SystemConfig::small();
        cfg.faults.stall_vault = 0;
        cfg.faults.stall_vault_from = 1;
        cfg.integrity.watchdog_cycles = 0;
        let mut sys = System::new(&cfg, SchemeKind::Nopf, traces(&cfg)).unwrap();
        // With the watchdog off the run grinds to the cycle cap; the old
        // pre-integrity behaviour (silent truncation) is preserved when
        // explicitly requested. Audit drain check is skipped because the
        // memory side is still (forever) busy.
        let r = sys.run(20_000, 30_000, "timeout").unwrap();
        assert_eq!(r.cycles, 30_000);
    }
}

#[cfg(test)]
mod port_tests {
    use super::*;
    use camps_cpu::core_model::{MemoryPort, PortResult};

    fn subsystem() -> MemorySubsystem {
        MemorySubsystem::new(&SystemConfig::small(), SchemeKind::Nopf).unwrap()
    }

    #[test]
    fn cache_hit_returns_latency_without_memory_traffic() {
        let mut m = subsystem();
        // Prime the hierarchy.
        let mut wb = Vec::new();
        m.hierarchy_mut().fill(0, PhysAddr(0x100), false, &mut wb);
        match m.load(5, CoreId(0), 1, PhysAddr(0x100), &mut Profiler::off()) {
            PortResult::Hit { latency } => assert_eq!(latency, 2),
            other => panic!("expected L1 hit, got {other:?}"),
        }
        assert!(!m.busy(), "a cache hit must not touch the cube");
    }

    #[test]
    fn miss_is_accepted_and_completes_with_wakeup() {
        let mut m = subsystem();
        assert_eq!(
            m.load(0, CoreId(1), 42, PhysAddr(0x2000), &mut Profiler::off()),
            PortResult::Accepted
        );
        let mut woken = Vec::new();
        let mut now = 0;
        while woken.is_empty() && now < 100_000 {
            now += 1;
            m.tick(now, &mut woken, &mut Profiler::off());
        }
        assert_eq!(woken, vec![(CoreId(1), 42)]);
        // The fill landed: the same load now hits on-chip.
        assert!(matches!(
            m.load(now, CoreId(1), 43, PhysAddr(0x2000), &mut Profiler::off()),
            PortResult::Hit { .. }
        ));
    }

    #[test]
    fn same_block_loads_merge_into_one_memory_read() {
        let mut m = subsystem();
        assert_eq!(
            m.load(0, CoreId(0), 1, PhysAddr(0x3000), &mut Profiler::off()),
            PortResult::Accepted
        );
        assert_eq!(
            m.load(0, CoreId(0), 2, PhysAddr(0x3008), &mut Profiler::off()),
            PortResult::Accepted
        );
        let mut woken = Vec::new();
        let mut now = 0;
        while woken.len() < 2 && now < 100_000 {
            now += 1;
            m.tick(now, &mut woken, &mut Profiler::off());
        }
        assert_eq!(woken.len(), 2, "both waiters wake from one response");
        assert_eq!(m.mem_reads, 1, "MSHR merging must collapse the reads");
    }

    #[test]
    fn mshr_exhaustion_rejects_loads() {
        let mut cfg = SystemConfig::small();
        cfg.l3.mshrs = 2;
        let mut m = MemorySubsystem::new(&cfg, SchemeKind::Nopf).unwrap();
        assert_eq!(
            m.load(0, CoreId(0), 1, PhysAddr(0x0), &mut Profiler::off()),
            PortResult::Accepted
        );
        assert_eq!(
            m.load(0, CoreId(0), 2, PhysAddr(0x1000), &mut Profiler::off()),
            PortResult::Accepted
        );
        assert_eq!(
            m.load(0, CoreId(0), 3, PhysAddr(0x2000), &mut Profiler::off()),
            PortResult::Rejected
        );
        // Merging still works while full.
        assert_eq!(
            m.load(0, CoreId(0), 4, PhysAddr(0x1008), &mut Profiler::off()),
            PortResult::Accepted
        );
    }

    #[test]
    fn store_miss_write_allocates_and_dirties() {
        let mut m = subsystem();
        assert!(
            m.store(0, CoreId(0), PhysAddr(0x4000), &mut Profiler::off()),
            "posted store accepted"
        );
        let mut now = 0;
        let mut sink = Vec::new();
        while m.busy() && now < 200_000 {
            now += 1;
            m.tick(now, &mut sink, &mut Profiler::off());
        }
        // The block was fetched (write-allocate read) and filled dirty:
        // a later load hits on-chip.
        assert!(matches!(
            m.load(now, CoreId(0), 9, PhysAddr(0x4000), &mut Profiler::off()),
            PortResult::Hit { .. }
        ));
        assert_eq!(m.mem_reads, 1);
    }

    #[test]
    fn rejected_then_accepted_load_counts_stall_in_amat() {
        let mut cfg = SystemConfig::small();
        cfg.l3.mshrs = 1;
        let mut m = MemorySubsystem::new(&cfg, SchemeKind::Nopf).unwrap();
        assert_eq!(
            m.load(10, CoreId(0), 1, PhysAddr(0x0), &mut Profiler::off()),
            PortResult::Accepted
        );
        // Second miss is rejected at cycle 10; retried successfully later.
        assert_eq!(
            m.load(10, CoreId(0), 2, PhysAddr(0x1000), &mut Profiler::off()),
            PortResult::Rejected
        );
        let mut now = 10;
        let mut woken = Vec::new();
        while woken.is_empty() && now < 100_000 {
            now += 1;
            m.tick(now, &mut woken, &mut Profiler::off());
        }
        let retry_at = now + 5;
        assert_eq!(
            m.load(
                retry_at,
                CoreId(0),
                2,
                PhysAddr(0x1000),
                &mut Profiler::off()
            ),
            PortResult::Accepted
        );
        woken.clear();
        while m.busy() {
            now += 1;
            m.tick(now, &mut woken, &mut Profiler::off());
        }
        // The second load's recorded latency starts at the first attempt
        // (cycle 10), not the retry: its sample must exceed the retry gap.
        assert!(m.amat_mem.max().unwrap() >= (retry_at - 10) as f64);
    }
}

#[cfg(test)]
mod core_prefetch_tests {
    use super::*;
    use camps_cpu::core_model::MemoryPort;

    #[test]
    fn next_line_prefetch_fills_the_llc() {
        let mut cfg = SystemConfig::small();
        cfg.core_prefetch.enable = true;
        cfg.core_prefetch.degree = 2;
        let mut m = MemorySubsystem::new(&cfg, SchemeKind::Nopf).unwrap();
        // One demand miss at block 0 → prefetches for blocks 1 and 2.
        let _ = m.load(0, CoreId(0), 1, PhysAddr(0), &mut Profiler::off());
        assert_eq!(m.core_pf_issued, 2);
        let mut now = 0;
        let mut sink = Vec::new();
        while m.busy() && now < 200_000 {
            now += 1;
            m.tick(now, &mut sink, &mut Profiler::off());
        }
        // The next block is now an on-chip (L3) hit without any demand
        // having touched it.
        assert!(matches!(
            m.load(now, CoreId(0), 2, PhysAddr(64), &mut Profiler::off()),
            camps_cpu::core_model::PortResult::Hit { .. }
        ));
    }

    #[test]
    fn disabled_core_prefetcher_issues_nothing() {
        let cfg = SystemConfig::small();
        let mut m = MemorySubsystem::new(&cfg, SchemeKind::Nopf).unwrap();
        let _ = m.load(0, CoreId(0), 1, PhysAddr(0), &mut Profiler::off());
        assert_eq!(m.core_pf_issued, 0);
    }

    #[test]
    fn core_prefetch_never_displaces_demand_capacity() {
        let mut cfg = SystemConfig::small();
        cfg.core_prefetch.enable = true;
        cfg.core_prefetch.degree = 8;
        cfg.l3.mshrs = 2;
        let mut m = MemorySubsystem::new(&cfg, SchemeKind::Nopf).unwrap();
        // Demand takes one MSHR; prefetches may take at most the rest and
        // must stop before exhausting them... they stop when full, so a
        // second demand can still merge or be cleanly rejected (not panic).
        let _ = m.load(0, CoreId(0), 1, PhysAddr(0), &mut Profiler::off());
        let r = m.load(0, CoreId(0), 2, PhysAddr(0x10000), &mut Profiler::off());
        assert!(matches!(
            r,
            camps_cpu::core_model::PortResult::Rejected
                | camps_cpu::core_model::PortResult::Accepted
        ));
    }
}
