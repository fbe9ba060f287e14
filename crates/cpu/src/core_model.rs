//! The ROB-limited core model.

use crate::trace::{TraceOp, TraceSource};
use camps_obs::Profiler;
use camps_stats::Counter;
use camps_types::addr::PhysAddr;
use camps_types::clock::Cycle;
use camps_types::config::CpuConfig;
use camps_types::request::{AccessKind, CoreId};
use camps_types::wake::Wake;
use serde::value::Value;
use serde::{de, Deserialize, Serialize};
use std::collections::{HashSet, VecDeque};

/// What the memory port says about an attempted load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortResult {
    /// On-chip cache hit: data ready after `latency` cycles.
    Hit {
        /// Hit latency (sum of lookup latencies).
        latency: Cycle,
    },
    /// Miss accepted into the memory system; completion arrives later via
    /// [`Core::complete_load`] keyed by the slot the core passed in.
    Accepted,
    /// Structural stall (MSHRs full, queues full) — retry next cycle.
    Rejected,
}

/// The core's window into the memory system.
///
/// Each call receives the host self-profiler so the port implementation
/// can attribute its cache-lookup and MSHR time (a no-op when profiling
/// is off or compiled out).
pub trait MemoryPort {
    /// Attempts a load for `(core, slot)`.
    fn load(
        &mut self,
        now: Cycle,
        core: CoreId,
        slot: u64,
        addr: PhysAddr,
        prof: &mut Profiler,
    ) -> PortResult;

    /// Attempts a posted store; `true` if accepted.
    fn store(&mut self, now: Cycle, core: CoreId, addr: PhysAddr, prof: &mut Profiler) -> bool;
}

/// Reorder-buffer entry states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RobEntry {
    /// Completes at a known cycle (ALU ops).
    Ready(Cycle),
    /// A cache-hit load completing at a known cycle (counted as memory
    /// stall time while it blocks the head).
    HitLoad(Cycle),
    /// A load waiting for a memory response (keyed by slot).
    PendingLoad(u64),
    /// A load that could not even be *issued* yet (port rejection).
    StalledLoad(PhysAddr),
    /// A store waiting for store-buffer space.
    StalledStore(PhysAddr),
}

/// The derive subset cannot express data-carrying enums, so entries
/// serialize as `(tag, payload)` pairs.
impl Serialize for RobEntry {
    fn to_value(&self) -> Value {
        match *self {
            Self::Ready(c) => (0u8, c),
            Self::HitLoad(c) => (1, c),
            Self::PendingLoad(slot) => (2, slot),
            Self::StalledLoad(a) => (3, a.0),
            Self::StalledStore(a) => (4, a.0),
        }
        .to_value()
    }
}

impl Deserialize for RobEntry {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        let (tag, payload): (u8, u64) = Deserialize::from_value(v)?;
        Ok(match tag {
            0 => Self::Ready(payload),
            1 => Self::HitLoad(payload),
            2 => Self::PendingLoad(payload),
            3 => Self::StalledLoad(PhysAddr(payload)),
            4 => Self::StalledStore(PhysAddr(payload)),
            other => {
                return Err(de::Error::custom(format!(
                    "snapshot: unknown RobEntry tag {other}"
                )))
            }
        })
    }
}

/// Per-core statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreStats {
    /// Instructions retired.
    pub retired: Counter,
    /// Cycles simulated.
    pub cycles: Counter,
    /// Loads issued to the memory port.
    pub loads: Counter,
    /// Stores issued.
    pub stores: Counter,
    /// Cycles the ROB head was an incomplete load (memory stall).
    pub load_stall_cycles: Counter,
    /// Cycles nothing retired because the ROB was empty (issue-bound).
    pub empty_cycles: Counter,
    /// Port rejections (MSHR/queue backpressure events).
    pub rejections: Counter,
}

impl CoreStats {
    /// Retired instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles.get() == 0 {
            return 0.0;
        }
        self.retired.as_f64() / self.cycles.as_f64()
    }
}

/// A 4-wide, ROB-limited, trace-driven core.
#[derive(Serialize, Deserialize)]
#[serde(check)]
pub struct Core {
    #[serde(skip)]
    id: CoreId,
    rob: VecDeque<RobEntry>,
    #[serde(skip)]
    rob_cap: usize,
    #[serde(skip)]
    issue_w: u32,
    #[serde(skip)]
    retire_w: u32,
    store_buffer: VecDeque<PhysAddr>,
    #[serde(skip)]
    store_cap: usize,
    /// ALU instructions from the current trace op still waiting to issue.
    pending_gap: u32,
    /// The current op's memory operation, not yet issued.
    pending_mem: Option<(PhysAddr, AccessKind)>,
    next_slot: u64,
    completed: HashSet<u64>,
    /// Count of `Stalled*` ROB entries, kept so [`Wake::next_event`] is
    /// O(1) instead of scanning the ROB. Derived from `rob` — not
    /// serialized; recomputed on restore.
    #[serde(skip)]
    stalled_entries: usize,
    stats: CoreStats,
    trace: Box<dyn TraceSource>,
}

impl Core {
    /// Builds core `id` running `trace`.
    #[must_use]
    pub fn new(id: CoreId, cfg: &CpuConfig, trace: Box<dyn TraceSource>) -> Self {
        Self {
            id,
            rob: VecDeque::with_capacity(cfg.rob_entries as usize),
            rob_cap: cfg.rob_entries as usize,
            issue_w: cfg.issue_width,
            retire_w: cfg.retire_width,
            store_buffer: VecDeque::new(),
            store_cap: cfg.store_buffer_entries as usize,
            pending_gap: 0,
            pending_mem: None,
            next_slot: 0,
            completed: HashSet::new(),
            stalled_entries: 0,
            stats: CoreStats::default(),
            trace,
        }
    }

    /// This core's id.
    #[must_use]
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Name of the benchmark this core runs.
    #[must_use]
    pub fn workload_name(&self) -> &str {
        self.trace.name()
    }

    /// Instructions currently in the reorder buffer (watchdog
    /// diagnostics: a full ROB that never drains marks the wedged core).
    #[must_use]
    pub fn rob_occupancy(&self) -> usize {
        self.rob.len()
    }

    /// Pops the next trace op *without* simulating it — used by the
    /// functional cache-warmup phase, which advances the trace cursor
    /// while priming caches outside of detailed timing.
    pub fn warmup_op(&mut self) -> TraceOp {
        self.trace.next_op()
    }

    /// Delivers a memory response for the load issued with `slot`.
    pub fn complete_load(&mut self, slot: u64) {
        self.completed.insert(slot);
    }

    /// Accounts for `cycles` skipped cycles during which this core was
    /// quiescent (the event engine's bulk replay of what per-cycle polling
    /// would have recorded): every skipped cycle counts as simulated, and
    /// if the ROB head is an incomplete load each one is a memory stall —
    /// exactly what [`Core::tick`] would have done, cycle by cycle.
    ///
    /// Only legal when [`Wake::next_event`] deemed the core quiescent past
    /// the skipped range (debug-asserted).
    pub fn skip_idle(&mut self, cycles: u64) {
        debug_assert!(
            self.store_buffer.is_empty() && self.rob.len() == self.rob_cap,
            "skip_idle on a non-quiescent core"
        );
        self.stats.cycles.add(cycles);
        match self.rob.front() {
            Some(RobEntry::HitLoad(_)) => self.stats.load_stall_cycles.add(cycles),
            Some(RobEntry::PendingLoad(slot)) => {
                debug_assert!(
                    !self.completed.contains(slot),
                    "skip_idle past a completed load"
                );
                self.stats.load_stall_cycles.add(cycles);
            }
            // Ready(at > now) blocks retirement without any stall counter
            // (`retire`'s catch-all break); Stalled* heads are excluded by
            // the quiescence check in `next_event`.
            _ => {}
        }
    }

    /// Advances the core by one cycle against `port`.
    pub fn tick(&mut self, now: Cycle, port: &mut impl MemoryPort, prof: &mut Profiler) {
        self.stats.cycles.inc();
        self.drain_store_buffer(now, port, prof);
        self.retry_stalled(now, port, prof);
        self.retire(now);
        self.issue(now, port, prof);
    }

    /// Oldest-first: try to un-stall entries that were rejected earlier.
    fn retry_stalled(&mut self, now: Cycle, port: &mut impl MemoryPort, prof: &mut Profiler) {
        for i in 0..self.rob.len() {
            let entry = self.rob[i];
            match entry {
                RobEntry::StalledLoad(addr) => {
                    match port.load(now, self.id, self.next_slot, addr, prof) {
                        PortResult::Hit { latency } => {
                            self.rob[i] = RobEntry::HitLoad(now + latency);
                            self.stalled_entries -= 1;
                            self.stats.loads.inc();
                        }
                        PortResult::Accepted => {
                            self.rob[i] = RobEntry::PendingLoad(self.next_slot);
                            self.stalled_entries -= 1;
                            self.next_slot += 1;
                            self.stats.loads.inc();
                        }
                        PortResult::Rejected => {
                            self.stats.rejections.inc();
                            return; // keep ordering: stop at first stall
                        }
                    }
                }
                RobEntry::StalledStore(addr) => {
                    if self.store_buffer.len() < self.store_cap {
                        self.store_buffer.push_back(addr);
                        self.rob[i] = RobEntry::Ready(now);
                        self.stalled_entries -= 1;
                    } else {
                        return;
                    }
                }
                _ => {}
            }
        }
    }

    fn drain_store_buffer(&mut self, now: Cycle, port: &mut impl MemoryPort, prof: &mut Profiler) {
        if let Some(&addr) = self.store_buffer.front() {
            if port.store(now, self.id, addr, prof) {
                self.store_buffer.pop_front();
                self.stats.stores.inc();
            }
        }
    }

    fn retire(&mut self, now: Cycle) {
        if self.rob.is_empty() {
            self.stats.empty_cycles.inc();
            return;
        }
        for _ in 0..self.retire_w {
            match self.rob.front() {
                Some(RobEntry::Ready(at)) if *at <= now => {
                    self.rob.pop_front();
                    self.stats.retired.inc();
                }
                Some(RobEntry::HitLoad(at)) if *at <= now => {
                    self.rob.pop_front();
                    self.stats.retired.inc();
                }
                Some(RobEntry::HitLoad(_)) => {
                    self.stats.load_stall_cycles.inc();
                    break;
                }
                Some(RobEntry::PendingLoad(slot)) => {
                    if self.completed.remove(slot) {
                        self.rob.pop_front();
                        self.stats.retired.inc();
                    } else {
                        self.stats.load_stall_cycles.inc();
                        break;
                    }
                }
                Some(RobEntry::StalledLoad(_)) => {
                    self.stats.load_stall_cycles.inc();
                    break;
                }
                _ => break,
            }
        }
    }

    fn issue(&mut self, now: Cycle, port: &mut impl MemoryPort, prof: &mut Profiler) {
        for _ in 0..self.issue_w {
            if self.rob.len() == self.rob_cap {
                return;
            }
            // Refill the pending op if drained.
            if self.pending_gap == 0 && self.pending_mem.is_none() {
                let TraceOp { gap, mem } = self.trace.next_op();
                self.pending_gap = gap;
                self.pending_mem = mem;
                if gap == 0 && mem.is_none() {
                    continue; // degenerate op; pull another next slot
                }
            }
            if self.pending_gap > 0 {
                self.pending_gap -= 1;
                self.rob.push_back(RobEntry::Ready(now + 1));
                continue;
            }
            let Some((addr, kind)) = self.pending_mem.take() else {
                continue;
            };
            match kind {
                AccessKind::Read => match port.load(now, self.id, self.next_slot, addr, prof) {
                    PortResult::Hit { latency } => {
                        self.rob.push_back(RobEntry::HitLoad(now + latency));
                        self.stats.loads.inc();
                    }
                    PortResult::Accepted => {
                        self.rob.push_back(RobEntry::PendingLoad(self.next_slot));
                        self.next_slot += 1;
                        self.stats.loads.inc();
                    }
                    PortResult::Rejected => {
                        self.rob.push_back(RobEntry::StalledLoad(addr));
                        self.stalled_entries += 1;
                        self.stats.rejections.inc();
                        return;
                    }
                },
                AccessKind::Write => {
                    if self.store_buffer.len() < self.store_cap {
                        self.store_buffer.push_back(addr);
                        self.rob.push_back(RobEntry::Ready(now + 1));
                    } else {
                        self.rob.push_back(RobEntry::StalledStore(addr));
                        self.stalled_entries += 1;
                        return;
                    }
                }
            }
        }
    }
}

impl Wake for Core {
    /// A core must tick on the very next cycle whenever anything in it can
    /// act: a store waiting to drain, ROB space to issue into (the trace
    /// never ends, so issue always makes progress), a stalled entry to
    /// retry against the port, or a retirable head. The only quiescent
    /// shape is a full ROB whose head is waiting on time (wake at its
    /// completion cycle) or on a memory response (wake on the response —
    /// an external event, so `None` here).
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if !self.store_buffer.is_empty() || self.rob.len() < self.rob_cap {
            return Some(now + 1);
        }
        debug_assert_eq!(
            self.stalled_entries,
            self.rob
                .iter()
                .filter(|e| matches!(e, RobEntry::StalledLoad(_) | RobEntry::StalledStore(_)))
                .count(),
            "stalled-entry counter drifted from the ROB"
        );
        if self.stalled_entries > 0 {
            return Some(now + 1);
        }
        match self.rob.front() {
            Some(&(RobEntry::Ready(at) | RobEntry::HitLoad(at))) => Some(at.max(now + 1)),
            Some(&RobEntry::PendingLoad(slot)) => self.completed.contains(&slot).then_some(now + 1),
            // Stalled heads were handled above; an empty ROB is below
            // capacity. Conservative fallback: tick next cycle.
            _ => Some(now + 1),
        }
    }
}

impl Core {
    fn check_restored(&mut self) -> Result<(), de::Error> {
        self.stalled_entries = self
            .rob
            .iter()
            .filter(|e| matches!(e, RobEntry::StalledLoad(_) | RobEntry::StalledStore(_)))
            .count();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::VecTrace;
    use camps_types::config::SystemConfig;
    use camps_types::snapshot::Snapshot;

    /// A memory that always hits with a fixed latency.
    struct FlatMemory {
        latency: Cycle,
        loads: u64,
        stores: u64,
    }

    impl MemoryPort for FlatMemory {
        fn load(
            &mut self,
            _now: Cycle,
            _core: CoreId,
            _slot: u64,
            _addr: PhysAddr,
            _prof: &mut Profiler,
        ) -> PortResult {
            self.loads += 1;
            PortResult::Hit {
                latency: self.latency,
            }
        }
        fn store(
            &mut self,
            _now: Cycle,
            _core: CoreId,
            _addr: PhysAddr,
            _prof: &mut Profiler,
        ) -> bool {
            self.stores += 1;
            true
        }
    }

    /// A memory that accepts loads and completes them after a delay the
    /// test controls.
    #[derive(Default)]
    struct PendingMemory {
        accepted: Vec<(u64, Cycle)>,
        reject: bool,
    }

    impl MemoryPort for PendingMemory {
        fn load(
            &mut self,
            now: Cycle,
            _core: CoreId,
            slot: u64,
            _addr: PhysAddr,
            _prof: &mut Profiler,
        ) -> PortResult {
            if self.reject {
                return PortResult::Rejected;
            }
            self.accepted.push((slot, now));
            PortResult::Accepted
        }
        fn store(
            &mut self,
            _now: Cycle,
            _core: CoreId,
            _addr: PhysAddr,
            _prof: &mut Profiler,
        ) -> bool {
            !self.reject
        }
    }

    fn cfg() -> CpuConfig {
        SystemConfig::paper_default().cpu
    }

    fn run(core: &mut Core, port: &mut impl MemoryPort, cycles: u64) {
        for now in 1..=cycles {
            core.tick(now, port, &mut Profiler::off());
        }
    }

    #[test]
    fn pure_compute_reaches_issue_width_ipc() {
        let trace = VecTrace::new("alu", vec![TraceOp::compute(16)]);
        let mut core = Core::new(CoreId(0), &cfg(), Box::new(trace));
        let mut mem = FlatMemory {
            latency: 2,
            loads: 0,
            stores: 0,
        };
        run(&mut core, &mut mem, 10_000);
        let ipc = core.stats().ipc();
        assert!(ipc > 3.8 && ipc <= 4.0, "compute-bound IPC ≈ 4, got {ipc}");
    }

    #[test]
    fn long_latency_loads_throttle_ipc() {
        let trace = VecTrace::new("mem", vec![TraceOp::load(3, PhysAddr(0x40))]);
        let mut fast_core = Core::new(CoreId(0), &cfg(), Box::new(trace.clone()));
        let mut slow_core = Core::new(CoreId(0), &cfg(), Box::new(trace));
        let mut fast = FlatMemory {
            latency: 2,
            loads: 0,
            stores: 0,
        };
        let mut slow = FlatMemory {
            latency: 400,
            loads: 0,
            stores: 0,
        };
        run(&mut fast_core, &mut fast, 20_000);
        run(&mut slow_core, &mut slow, 20_000);
        assert!(
            fast_core.stats().ipc() > 2.0 * slow_core.stats().ipc(),
            "fast {} vs slow {}",
            fast_core.stats().ipc(),
            slow_core.stats().ipc()
        );
        assert!(slow_core.stats().load_stall_cycles.get() > 0);
    }

    #[test]
    fn rob_bounds_outstanding_loads() {
        // Pure pointer-chase trace: every instruction is a load.
        let trace = VecTrace::new("chase", vec![TraceOp::load(0, PhysAddr(0x40))]);
        let mut core = Core::new(CoreId(0), &cfg(), Box::new(trace));
        let mut mem = PendingMemory::default();
        // Never complete anything: the core must stop at the ROB limit.
        run(&mut core, &mut mem, 5_000);
        assert_eq!(mem.accepted.len() as u32, cfg().rob_entries);
        assert_eq!(core.stats().retired.get(), 0);
    }

    #[test]
    fn completions_unblock_retirement_in_order() {
        let trace = VecTrace::new("mem", vec![TraceOp::load(0, PhysAddr(0x40))]);
        let mut core = Core::new(CoreId(0), &cfg(), Box::new(trace));
        let mut mem = PendingMemory::default();
        run(&mut core, &mut mem, 100);
        let first_slots: Vec<u64> = mem.accepted.iter().map(|&(s, _)| s).take(8).collect();
        for s in first_slots {
            core.complete_load(s);
        }
        let before = core.stats().retired.get();
        run(&mut core, &mut mem, 10); // ticks 1..=10 again is fine: time only gates Ready
        assert_eq!(core.stats().retired.get(), before + 8);
    }

    #[test]
    fn port_rejection_stalls_issue_and_counts() {
        let trace = VecTrace::new("mem", vec![TraceOp::load(0, PhysAddr(0x40))]);
        let mut core = Core::new(CoreId(0), &cfg(), Box::new(trace));
        let mut mem = PendingMemory {
            reject: true,
            ..Default::default()
        };
        run(&mut core, &mut mem, 50);
        assert!(core.stats().rejections.get() > 0);
        assert!(mem.accepted.is_empty());
        // Un-block the port: the stalled load issues.
        mem.reject = false;
        run(&mut core, &mut mem, 5);
        assert!(!mem.accepted.is_empty());
    }

    #[test]
    fn stores_post_through_store_buffer() {
        let trace = VecTrace::new("st", vec![TraceOp::store(1, PhysAddr(0x80))]);
        let mut core = Core::new(CoreId(0), &cfg(), Box::new(trace));
        let mut mem = FlatMemory {
            latency: 2,
            loads: 0,
            stores: 0,
        };
        run(&mut core, &mut mem, 1_000);
        assert!(mem.stores > 0);
        // Stores never block retirement here: IPC stays near width limits.
        assert!(core.stats().ipc() > 0.9, "ipc {}", core.stats().ipc());
    }

    #[test]
    fn core_snapshot_restores_identical_execution() {
        // Mixed trace with loads, stores, and compute so the snapshot
        // covers the ROB, store buffer, pending-op state, and the trace
        // cursor mid-stream.
        let ops = vec![
            TraceOp::compute(3),
            TraceOp::load(1, PhysAddr(0x40)),
            TraceOp::store(2, PhysAddr(0x80)),
            TraceOp::load(0, PhysAddr(0xC0)),
        ];
        let trace = VecTrace::new("mix", ops.clone());
        let mut a = Core::new(CoreId(0), &cfg(), Box::new(trace));
        let mut mem_a = FlatMemory {
            latency: 7,
            loads: 0,
            stores: 0,
        };
        run(&mut a, &mut mem_a, 137);
        let state = a.save_state();

        let mut b = Core::new(CoreId(0), &cfg(), Box::new(VecTrace::new("mix", ops)));
        b.restore_state(&state).unwrap();
        assert_eq!(a.stats(), b.stats());

        let mut mem_b = FlatMemory {
            latency: 7,
            loads: 0,
            stores: 0,
        };
        for now in 138..=400 {
            a.tick(now, &mut mem_a, &mut Profiler::off());
            b.tick(now, &mut mem_b, &mut Profiler::off());
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.rob_occupancy(), b.rob_occupancy());
    }

    #[test]
    fn core_restore_rejects_garbage_shapes() {
        let trace = VecTrace::new("x", vec![TraceOp::compute(1)]);
        let mut core = Core::new(CoreId(0), &cfg(), Box::new(trace));
        assert!(core.restore_state(&Value::U64(1)).is_err());
        // A valid map with a corrupt ROB tag is also a typed error.
        let mut state = match Core::new(
            CoreId(0),
            &cfg(),
            Box::new(VecTrace::new("x", vec![TraceOp::compute(1)])),
        )
        .save_state()
        {
            Value::Map(m) => m,
            other => panic!("expected map, got {other:?}"),
        };
        for entry in &mut state {
            if entry.0 == "rob" {
                entry.1 = vec![(9u8, 0u64)].to_value();
            }
        }
        let err = core.restore_state(&Value::Map(state)).unwrap_err();
        assert!(err.to_string().contains("RobEntry tag"));
    }

    #[test]
    fn ipc_zero_before_any_cycle() {
        let trace = VecTrace::new("x", vec![TraceOp::compute(1)]);
        let core = Core::new(CoreId(0), &cfg(), Box::new(trace));
        assert_eq!(core.stats().ipc(), 0.0);
    }
}
