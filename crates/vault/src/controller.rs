//! The vault controller proper.

use crate::queue::{queued_same_row, Queued};
use crate::stats::VaultStats;
use camps_dram::bank::{AccessCategory, Bank, Cause, DramCmd};
use camps_dram::rowguard::RowGuard;
use camps_dram::timing::TimingCpu;
use camps_dram::window::ActWindow;
use camps_obs::{Comp, Point, Profiler, TraceHandle};
use camps_prefetch::buffer::PrefetchBuffer;
use camps_prefetch::scheme::{PfAction, PrefetchScheme, SchemeKind};
use camps_types::addr::{DecodedAddr, RowKey};
use camps_types::clock::Cycle;
use camps_types::config::{PagePolicy, SchedulerKind, SystemConfig};
use camps_types::error::{ConfigError, VaultSnapshot};
use camps_types::request::{AccessKind, MemRequest, MemResponse, ServiceSource};
use camps_types::wake::{fold_wake, Wake};
use serde::{de, Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// If a request has waited this long, FR-FCFS stops protecting the open
/// row and lets the conflict precharge proceed (starvation guard).
const STARVATION_LIMIT: Cycle = 5_000;

/// Writeback queue depth at which writebacks stop yielding to demand.
const WRITEBACK_PRESSURE: usize = 8;

/// A whole-row prefetch in flight on one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct FetchJob {
    key: RowKey,
    precharge_after: bool,
    /// Distinct lines served from the row pre-fetch (seeds §3.2 utilization).
    seed_util: u32,
    /// Always `false`: every fetch copies a row that demand already
    /// opened. Kept so snapshots keep the v1 layout, which the committed
    /// checkpoint fixture pins.
    needs_activate: bool,
    /// When the job was created (the start of its trace span).
    spawned: Cycle,
    /// Bus slots of the transfer still to stream. The row-wide TSV copy
    /// is interruptible: it is granted the bus one burst-slot at a time,
    /// and demand bursts win the bus between slots.
    chunks_left: u32,
    /// `None` until the final block's completion cycle is known.
    done: Option<Cycle>,
}

/// A dirty buffer eviction being written back to its bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct WritebackJob {
    key: RowKey,
    /// `None` until the TSV transfer starts; then its completion cycle.
    done: Option<Cycle>,
}

/// One HMC vault: banks + queues + scheduler + prefetch engine.
///
/// Its snapshot is every field not marked `skip`; the skipped ones are
/// derived configuration (timing, caps, mapping, scheduler and page
/// policy, fetch chunking), rebuilt by the constructor.
#[derive(Serialize, Deserialize)]
#[serde(check)]
pub struct VaultController {
    #[serde(skip)]
    id: u16,
    #[serde(skip)]
    timing: TimingCpu,
    banks: Box<[Bank]>,
    window: ActWindow,
    #[serde(skip)]
    scheduler: SchedulerKind,
    #[serde(skip)]
    page_policy: PagePolicy,
    #[serde(skip)]
    read_cap: usize,
    #[serde(skip)]
    write_cap: usize,
    /// Blocks per row (push packet expansion).
    #[serde(skip)]
    blocks_per_row: u32,
    /// Bus slots (bursts) a whole-row transfer occupies in total.
    #[serde(skip)]
    fetch_chunks: u32,
    /// §2.4 counter-design switch: push prefetched blocks to the LLC.
    #[serde(skip)]
    push_to_llc: bool,
    push_seq: u64,
    #[serde(skip)]
    mapping: camps_types::addr::AddressMapping,
    #[serde(skip)]
    drain_high: usize,
    #[serde(skip)]
    drain_low: usize,
    draining: bool,
    read_q: Vec<Queued>,
    write_q: Vec<Queued>,
    buffer: PrefetchBuffer,
    scheme: Box<dyn PrefetchScheme>,
    fetches: Vec<FetchJob>,
    writeback_q: VecDeque<RowKey>,
    active_writeback: Option<WritebackJob>,
    /// One per bank.
    want_precharge: Box<[bool]>,
    /// The vault's shared TSV data bus is occupied until this cycle. All
    /// data movement — 64 B bursts and whole-row transfers, demand or
    /// prefetch — serializes here; this is what makes useless row fetches
    /// cost real demand bandwidth (the effect the paper's BASE suffers).
    bus_free: Cycle,
    /// Next all-bank refresh deadline (staggered per vault; 0 = disabled).
    next_refresh: Cycle,
    /// A refresh is due: stop opening rows, close the vault, refresh.
    refresh_pending: bool,
    responses: BinaryHeap<Reverse<(Cycle, u64, MemResponse)>>,
    resp_seq: u64,
    #[serde(skip)]
    hit_latency: Cycle,
    stats: VaultStats,
    /// Per-row activation counters for the current refresh window
    /// (RowHammer accounting; always on, observation-only by default).
    /// Snapshots that predate the tracker carry no key: absence means an
    /// empty window, not corruption.
    #[serde(default)]
    rowguard: RowGuard,
    /// TRR-style mitigation knob and threshold (derived configuration —
    /// rebuilt by the constructor, not snapshotted).
    #[serde(skip)]
    mitigate: bool,
    #[serde(skip)]
    mitigate_threshold: u32,
    /// Observability hooks. Runtime pacing only — like `Engine`, this is
    /// deliberately excluded from snapshots so checkpoints stay
    /// byte-identical with and without observability.
    #[serde(skip)]
    obs: TraceHandle,
}

impl VaultController {
    /// Builds vault `id` from the system configuration, running the given
    /// prefetching scheme.
    ///
    /// # Errors
    /// Propagates [`ConfigError`] from an invalid cube geometry.
    pub fn new(id: u16, cfg: &SystemConfig, scheme_kind: SchemeKind) -> Result<Self, ConfigError> {
        let timing = TimingCpu::from_config(&cfg.dram, cfg.cpu.freq_hz);
        let banks = (0..cfg.hmc.banks_per_vault).map(|_| Bank::new()).collect();
        let scheme = scheme_kind.build(&cfg.prefetch, cfg.hmc.banks_per_vault);
        let buffer = PrefetchBuffer::new(
            cfg.prefetch.entries,
            cfg.hmc.blocks_per_row(),
            scheme.replacement(),
        );
        Ok(Self {
            id,
            banks,
            window: ActWindow::new(timing.t_rrd, timing.t_faw),
            timing,
            scheduler: cfg.vault.scheduler,
            page_policy: cfg.vault.page_policy,
            read_cap: cfg.vault.read_queue as usize,
            write_cap: cfg.vault.write_queue as usize,
            blocks_per_row: cfg.hmc.blocks_per_row(),
            fetch_chunks: (timing.t_row_transfer / timing.t_burst.max(1)).max(1) as u32,
            push_to_llc: cfg.prefetch.push_to_llc,
            push_seq: 0,
            mapping: cfg.hmc.address_mapping()?,
            drain_high: cfg.vault.write_drain_high as usize,
            drain_low: cfg.vault.write_drain_low as usize,
            draining: false,
            read_q: Vec::with_capacity(cfg.vault.read_queue as usize),
            write_q: Vec::with_capacity(cfg.vault.write_queue as usize),
            buffer,
            scheme,
            fetches: Vec::new(),
            writeback_q: VecDeque::new(),
            active_writeback: None,
            want_precharge: vec![false; cfg.hmc.banks_per_vault as usize].into_boxed_slice(),
            bus_free: 0,
            // Stagger refresh deadlines across vaults so the cube never
            // refreshes everywhere at once.
            next_refresh: if timing.t_refi == 0 {
                0
            } else {
                timing.t_refi + (timing.t_refi / cfg.hmc.vaults.max(1) as u64) * u64::from(id)
            },
            refresh_pending: false,
            responses: BinaryHeap::new(),
            resp_seq: 0,
            hit_latency: cfg.prefetch.hit_latency,
            stats: VaultStats::new(),
            rowguard: RowGuard::new(),
            mitigate: cfg.rowguard.enable_mitigation,
            mitigate_threshold: cfg.rowguard.threshold,
            obs: TraceHandle::disabled(),
        })
    }

    /// This vault's index.
    #[must_use]
    pub fn id(&self) -> u16 {
        self.id
    }

    /// Installs the observability hooks this vault stamps into.
    pub fn set_obs(&mut self, obs: TraceHandle) {
        self.obs = obs;
    }

    /// Demand read-queue depth (metrics gauge).
    #[must_use]
    pub fn read_queue_len(&self) -> usize {
        self.read_q.len()
    }

    /// Demand write-queue depth (metrics gauge).
    #[must_use]
    pub fn write_queue_len(&self) -> usize {
        self.write_q.len()
    }

    /// `(resident rows, capacity)` of the prefetch buffer (metrics gauge).
    #[must_use]
    pub fn buffer_occupancy(&self) -> (usize, usize) {
        (self.buffer.len(), self.buffer.capacity())
    }

    /// The scheme's `(RUT, CT)` occupancy (metrics gauge).
    #[must_use]
    pub fn table_occupancy(&self) -> (usize, usize) {
        self.scheme.table_occupancy()
    }

    /// Prefetched rows that left the buffer without ever serving a
    /// demand read (coverage-loss counter for the metrics sampler).
    #[must_use]
    pub fn buffer_unused_evictions(&self) -> u64 {
        self.buffer.unused_evictions()
    }

    /// Statistics so far (energy's buffer-access count is synced in
    /// [`VaultController::finalize`]).
    #[must_use]
    pub fn stats(&self) -> &VaultStats {
        &self.stats
    }

    /// Diagnostic one-liner of the scheme's internal state.
    #[must_use]
    pub fn scheme_debug(&self) -> String {
        self.scheme.debug_state()
    }

    /// Occupancy snapshot for watchdog diagnostics: queue depths, open
    /// rows, buffer residency, and in-flight transfer jobs. The host-side
    /// retry-queue depth is not visible from inside the vault; the caller
    /// fills it in.
    #[must_use]
    pub fn snapshot(&self) -> VaultSnapshot {
        VaultSnapshot {
            vault: self.id,
            read_q: self.read_q.len(),
            write_q: self.write_q.len(),
            retry_q: 0,
            open_rows: self
                .banks
                .iter()
                .enumerate()
                .filter_map(|(bank, b)| b.open_row().map(|row| (bank as u16, row)))
                .collect(),
            buffer_rows: self.buffer.len(),
            inflight_jobs: self.fetches.len()
                + self.writeback_q.len()
                + usize::from(self.active_writeback.is_some()),
        }
    }

    /// True while any demand, prefetch, writeback, or response work
    /// remains.
    #[must_use]
    pub fn busy(&self) -> bool {
        !self.read_q.is_empty()
            || !self.write_q.is_empty()
            || !self.fetches.is_empty()
            || !self.writeback_q.is_empty()
            || self.active_writeback.is_some()
            || !self.responses.is_empty()
    }

    /// Offers a demand request to this vault at `now`. Returns `false`
    /// (backpressure) when the target queue is full; the caller retries.
    pub fn try_enqueue(&mut self, req: MemRequest, decoded: DecodedAddr, now: Cycle) -> bool {
        debug_assert_eq!(decoded.vault, self.id, "request routed to wrong vault");
        let key = decoded.row_key();
        let is_write = !req.kind.is_read();

        // §3.1: "the vault controller will first check the prefetch buffer".
        let first_touch = self.buffer.is_referenced(key) == Some(false);
        if self.buffer.access(key, decoded.col, now, is_write) {
            self.stats.buffer_hits.inc();
            self.scheme.on_buffer_hit(key, first_touch);
            self.obs.stamp(req.id.0, Point::ServiceStart, now);
            self.push_response(req, now + self.hit_latency, ServiceSource::PrefetchBuffer);
            if is_write {
                self.stats.writes.inc();
            } else {
                self.stats.reads.inc();
            }
            return true;
        }

        if is_write {
            if self.write_q.len() == self.write_cap {
                self.stats.queue_rejects.inc();
                return false;
            }
            self.write_q.push(Queued::new(req, decoded, now));
            self.stats.writes.inc();
            // Posted write: acknowledged on queue acceptance; the burst
            // drains in the background.
            self.push_response(req, now + 1, ServiceSource::RowBufferMiss);
            true
        } else {
            if self.read_q.len() == self.read_cap {
                self.stats.queue_rejects.inc();
                return false;
            }
            self.read_q.push(Queued::new(req, decoded, now));
            true
        }
    }

    /// Advances the vault by one CPU cycle, appending any responses that
    /// complete at `now` to `out`. `prof` attributes each phase's host
    /// time (fence-post laps: one clock read per boundary, none at all
    /// when profiling is off).
    pub fn tick(&mut self, now: Cycle, out: &mut Vec<MemResponse>, prof: &mut Profiler) {
        let t = prof.stamp();
        self.advance_refresh(now);
        let t = prof.lap(Comp::RefreshScan, t);
        self.complete_fetches(now);
        self.serve_buffer_resident(now);
        let t = prof.lap(Comp::BufferServe, t);
        self.sweep_precharges(now);
        let _ = prof.lap(Comp::BankModel, t);
        // Demand commands issue before prefetch transfers claim banks: a
        // row fetch is background work and must not delay the triggering
        // request. A scoped span (not a lap): scheme-training laps nest
        // inside the scheduler.
        prof.enter(Comp::IssueScan);
        self.schedule_command(now, prof);
        let t = prof.exit(Comp::IssueScan);
        self.start_fetches(now);
        let t = prof.lap(Comp::PfFetch, t);
        self.advance_writeback(now);
        let t = prof.lap(Comp::WbEngine, t);
        self.pop_responses(now, out);
        let _ = prof.lap(Comp::RespPop, t);
    }

    /// Ends the run: drains the prefetch buffer so resident-but-referenced
    /// rows are counted in the accuracy statistics and syncs the buffer's
    /// access count into the energy model.
    pub fn finalize(&mut self, _now: Cycle) {
        for ev in self.buffer.drain() {
            if ev.referenced {
                self.stats.prefetches_referenced.inc();
            }
            self.scheme.on_buffer_evicted(ev.key, ev.referenced);
        }
        let (_inserts, _hits, lookups) = self.buffer.stats();
        self.stats.energy.buffer_accesses = lookups;
    }

    fn push_response_raw(&mut self, resp: MemResponse) {
        self.responses
            .push(Reverse((resp.completed_at, self.resp_seq, resp)));
        self.resp_seq += 1;
    }

    fn push_response(&mut self, req: MemRequest, at: Cycle, source: ServiceSource) {
        let resp = MemResponse {
            id: req.id,
            addr: req.addr,
            kind: req.kind,
            core: req.core,
            created_at: req.created_at,
            completed_at: at,
            source,
            push: false,
        };
        self.responses.push(Reverse((at, self.resp_seq, resp)));
        self.resp_seq += 1;
    }

    fn pop_responses(&mut self, now: Cycle, out: &mut Vec<MemResponse>) {
        while self
            .responses
            .peek()
            .is_some_and(|Reverse((at, _, _))| *at <= now)
        {
            let Some(Reverse((_, _, resp))) = self.responses.pop() else {
                break;
            };
            if resp.kind.is_read() && !resp.push {
                self.stats.read_latency.record(resp.latency());
            }
            out.push(resp);
        }
    }

    /// Finishes TSV row transfers whose completion time has arrived.
    fn complete_fetches(&mut self, now: Cycle) {
        let mut i = 0;
        while i < self.fetches.len() {
            match self.fetches[i].done {
                Some(done) if done <= now => {
                    let job = self.fetches.swap_remove(i);
                    self.obs.fetch_span(
                        self.id,
                        u32::from(job.key.bank),
                        u64::from(job.key.row),
                        job.spawned,
                        now,
                    );
                    self.insert_prefetched(job.key, now, job.seed_util);
                    if job.precharge_after {
                        self.want_precharge[usize::from(job.key.bank)] = true;
                    }
                }
                _ => i += 1,
            }
        }
    }

    fn insert_prefetched(&mut self, key: RowKey, now: Cycle, seed_util: u32) {
        self.stats.prefetches.inc();
        self.stats.energy.row_fetches += 1;
        if self.push_to_llc {
            // §2.4 counter-design: aggressively push every block of the
            // prefetched row toward the LLC. Each block rides the response
            // links as an unsolicited packet — the bandwidth/pollution
            // cost the paper avoids by keeping data memory-side.
            for col in 0..self.blocks_per_row {
                self.push_seq += 1;
                let addr = self.mapping.block_addr(self.id, key, col as u16);
                self.push_response_raw(MemResponse {
                    id: camps_types::request::RequestId(u64::MAX - self.push_seq),
                    addr,
                    kind: AccessKind::Read,
                    core: camps_types::request::CoreId(0),
                    created_at: now,
                    completed_at: now + 1,
                    source: ServiceSource::PrefetchBuffer,
                    push: true,
                });
            }
        }
        if let Some(ev) = self.buffer.insert_with_utilization(key, now, seed_util) {
            if ev.referenced {
                self.stats.prefetches_referenced.inc();
            }
            self.scheme.on_buffer_evicted(ev.key, ev.referenced);
            if ev.dirty {
                self.writeback_q.push_back(ev.key);
            }
        }
    }

    /// Serves queued requests whose row arrived in the buffer after they
    /// were enqueued (fetch completed while they waited).
    fn serve_buffer_resident(&mut self, now: Cycle) {
        let hit_latency = self.hit_latency;
        for is_write in [false, true] {
            let mut i = 0;
            while i < if is_write {
                self.write_q.len()
            } else {
                self.read_q.len()
            } {
                let q = if is_write {
                    self.write_q[i]
                } else {
                    self.read_q[i]
                };
                let key = q.decoded.row_key();
                if !self.buffer.contains(key) {
                    i += 1;
                    continue;
                }
                let first_touch = self.buffer.is_referenced(key) == Some(false);
                let hit = self.buffer.access(key, q.decoded.col, now, is_write);
                debug_assert!(hit, "contains() implies access() hits");
                self.stats.buffer_hits.inc();
                self.scheme.on_buffer_hit(key, first_touch);
                if is_write {
                    // Already acknowledged at enqueue; absorbed by buffer.
                    self.write_q.remove(i);
                } else {
                    self.stats.reads.inc();
                    self.obs.stamp(q.req.id.0, Point::ServiceStart, now);
                    self.push_response(q.req, now + hit_latency, ServiceSource::PrefetchBuffer);
                    self.read_q.remove(i);
                }
            }
        }
    }

    /// Starts pending row fetches whose bank can stream the row now.
    fn start_fetches(&mut self, now: Cycle) {
        let mut i = 0;
        while i < self.fetches.len() {
            let job = self.fetches[i];
            if job.done.is_some() {
                i += 1;
                continue;
            }
            if self.buffer.contains(job.key) {
                self.fetches.swap_remove(i);
                continue;
            }
            let cmd = self.next_cmd(job.key, Cause::Prefetch, AccessKind::Read);
            if !matches!(cmd, DramCmd::Rd { .. }) {
                // The row closed before the transfer could start (conflict
                // precharge won the race) — abandon the prefetch.
                self.stats.prefetches_dropped.inc();
                self.fetches.swap_remove(i);
                continue;
            }
            // Stream one bus slot of the row-wide copy; demand bursts
            // interleave because the scheduler ran first this cycle.
            if self.can_issue(&cmd, now) {
                let data_done = self.issue(cmd, now);
                let job = &mut self.fetches[i];
                job.chunks_left -= 1;
                if job.chunks_left == 0 {
                    job.done = Some(data_done);
                }
            }
            i += 1;
        }
    }

    /// Closes banks flagged for precharge as soon as it is legal.
    fn sweep_precharges(&mut self, now: Cycle) {
        for bank_idx in 0..self.banks.len() {
            if !self.want_precharge[bank_idx] {
                continue;
            }
            if self.banks[bank_idx].open_row().is_none() {
                self.want_precharge[bank_idx] = false;
                continue;
            }
            if self.fetch_pending_on(bank_idx) {
                continue; // the fetch needs the row; close afterwards
            }
            let pre = DramCmd::Pre {
                bank: bank_idx as u16,
            };
            if self.can_issue(&pre, now) {
                self.issue(pre, now);
                self.want_precharge[bank_idx] = false;
            }
        }
    }

    /// §2.1: the vault controller owns refresh. When the deadline passes,
    /// stop opening new rows, close every bank as timing permits, and once
    /// the vault is quiet issue the all-bank refresh (tRFC).
    fn advance_refresh(&mut self, now: Cycle) {
        if self.timing.t_refi == 0 {
            return;
        }
        if !self.refresh_pending && now >= self.next_refresh {
            self.refresh_pending = true;
        }
        if !self.refresh_pending {
            return;
        }
        // Drain: request every open bank to close (fetches in flight keep
        // their bank until done; the sweep skips those).
        for idx in 0..self.banks.len() {
            if self.banks[idx].open_row().is_some() {
                self.want_precharge[idx] = true;
            }
        }
        if self.can_issue(&DramCmd::Ref, now) {
            self.issue(DramCmd::Ref, now);
            self.refresh_pending = false;
            self.next_refresh += self.timing.t_refi;
        }
    }

    fn fetch_pending_on(&self, bank_idx: usize) -> bool {
        self.fetches
            .iter()
            .any(|f| usize::from(f.key.bank) == bank_idx)
    }

    fn writeback_holds(&self, bank_idx: usize) -> bool {
        self.active_writeback
            .is_some_and(|w| usize::from(w.key.bank) == bank_idx)
    }

    /// The command `key` needs next on behalf of `cause`: ACT while the
    /// bank is idle, PRE while another row occupies it, and once the row
    /// is open its column command — a demand RD or WR (by `kind`), a
    /// prefetch RD chunk, or a writeback row-in. The scheduler, the fetch
    /// and writeback engines and the wake all read bank state through it.
    fn next_cmd(&self, key: RowKey, cause: Cause, kind: AccessKind) -> DramCmd {
        let bank = key.bank;
        match self.banks[usize::from(bank)].open_row() {
            None => DramCmd::Act {
                bank,
                row: key.row,
                cause,
            },
            Some(r) if r != key.row => DramCmd::Pre { bank },
            Some(_) => match (cause, kind) {
                (Cause::Writeback, _) => DramCmd::RowIn { bank },
                (_, AccessKind::Write) => DramCmd::Wr { bank },
                (_, AccessKind::Read) => DramCmd::Rd { bank, cause },
            },
        }
    }

    /// What queued demand request `q` needs next.
    fn demand_cmd(&self, q: &Queued) -> DramCmd {
        self.next_cmd(q.decoded.row_key(), Cause::Demand, q.req.kind)
    }

    /// Earliest cycle `cmd` may issue: the bank's own readiness, gated by
    /// the vault's shared TSV bus for data commands and by tRRD/tFAW for
    /// ACT. `None` while the row-buffer state forbids it (the all-bank
    /// REF needs every bank idle).
    fn ready_at(&self, cmd: &DramCmd) -> Option<Cycle> {
        let Some(bank) = cmd.bank() else {
            return self
                .banks
                .iter()
                .try_fold(0, |at, b| Some(at.max(b.ready_at(cmd)?)));
        };
        let at = self.banks[bank].ready_at(cmd)?;
        Some(match cmd {
            DramCmd::Act { .. } => at.max(self.window.earliest_activate()),
            DramCmd::Rd { .. } | DramCmd::Wr { .. } | DramCmd::RowIn { .. } => {
                at.max(self.bus_free)
            }
            _ => at,
        })
    }

    /// True once `cmd` may issue at `now`.
    fn can_issue(&self, cmd: &DramCmd, now: Cycle) -> bool {
        self.ready_at(cmd).is_some_and(|at| at <= now)
    }

    /// Issues `cmd` at `now`: the one place bank state changes. Does all
    /// of the command's bookkeeping — TSV bus occupancy, energy, the
    /// activation window, per-cause activation counts, RowHammer tracking
    /// and refresh statistics — and returns when its data is done (see
    /// [`Bank::apply`]).
    fn issue(&mut self, cmd: DramCmd, now: Cycle) -> Cycle {
        let t = self.timing;
        let done = match cmd.bank() {
            Some(bank) => self.banks[bank].apply(cmd, now, &t),
            None => {
                for b in &mut self.banks {
                    b.apply(cmd, now, &t);
                }
                now
            }
        };
        match cmd {
            DramCmd::Act { bank, row, cause } => {
                self.window.record(now);
                self.stats.energy.activates += 1;
                match cause {
                    Cause::Demand => self.stats.demand_activations.inc(),
                    Cause::Prefetch => self.stats.prefetch_activations.inc(),
                    Cause::Writeback => self.stats.writeback_activations.inc(),
                }
                // RowHammer accounting: the row's activations inside the
                // current refresh window and the worst count ever seen.
                // Only with the mitigation knob on does a row crossing the
                // threshold cost its bank a TRR, so paper results are
                // unchanged by default.
                let count = self.rowguard.record(bank, row);
                self.stats.worst_row_window_acts =
                    self.stats.worst_row_window_acts.max(u64::from(count));
                if self.mitigate && count >= self.mitigate_threshold {
                    self.issue(DramCmd::Trr { bank, row }, now);
                }
            }
            DramCmd::Pre { .. } => self.stats.energy.precharges += 1,
            DramCmd::Rd { cause, .. } => {
                // The TSV data bus carries this burst t_CL later; bursts
                // pipeline behind CAS, so the bus slot is one t_BURST.
                self.bus_free = now + t.t_burst;
                self.stats.bus_busy_cycles.add(t.t_burst);
                if cause == Cause::Demand {
                    self.stats.energy.read_bursts += 1;
                }
            }
            DramCmd::Wr { .. } => {
                self.bus_free = now + t.t_burst;
                self.stats.bus_busy_cycles.add(t.t_burst);
                self.stats.energy.write_bursts += 1;
            }
            DramCmd::RowIn { .. } => {
                self.bus_free = done;
                self.stats.bus_busy_cycles.add(t.t_row_transfer);
            }
            DramCmd::Trr { bank, row } => {
                // Restart the row's count so the threshold meters
                // mitigation intervals instead of firing on every
                // subsequent ACT.
                self.rowguard.reset_row(bank, row);
                self.stats.mitigations.inc();
                self.obs.mark("rowguard_mitigation", now);
            }
            DramCmd::Ref => {
                self.stats.energy.refreshes += 1;
                self.stats.refreshes.inc();
                // The all-bank refresh rewrote every row: the RowHammer
                // window restarts.
                self.rowguard.on_refresh();
            }
        }
        done
    }

    /// Issues at most one DRAM command (RD/WR, ACT, or PRE) per cycle.
    fn schedule_command(&mut self, now: Cycle, prof: &mut Profiler) {
        // Write-drain hysteresis.
        if !self.draining && self.write_q.len() >= self.drain_high {
            self.draining = true;
            self.stats.drain_entries.inc();
        } else if self.draining && self.write_q.len() <= self.drain_low {
            self.draining = false;
        }
        let use_writes = self.draining || (self.read_q.is_empty() && !self.write_q.is_empty());

        if self.try_issue_column(now, use_writes, prof) {
            return;
        }
        if self.try_issue_activate(now, use_writes, prof) {
            return;
        }
        let _ = self.try_issue_precharge(now, use_writes);
    }

    /// The first candidate, in age order, whose next command `pick`
    /// accepts. FCFS restricts the scheduler's view to the queue head.
    fn first_candidate(
        &self,
        use_writes: bool,
        pick: impl Fn(&Queued, DramCmd) -> bool,
    ) -> Option<(usize, DramCmd)> {
        let queue = if use_writes {
            &self.write_q
        } else {
            &self.read_q
        };
        let len = match self.scheduler {
            SchedulerKind::FrFcfs => queue.len(),
            SchedulerKind::Fcfs => queue.len().min(1),
        };
        queue[..len].iter().enumerate().find_map(|(i, q)| {
            let cmd = self.demand_cmd(q);
            pick(q, cmd).then_some((i, cmd))
        })
    }

    fn try_issue_column(&mut self, now: Cycle, use_writes: bool, prof: &mut Profiler) -> bool {
        if now < self.bus_free {
            return false; // TSV data bus occupied
        }
        let pick = self.first_candidate(use_writes, |_, cmd| {
            matches!(cmd, DramCmd::Rd { .. } | DramCmd::Wr { .. }) && self.can_issue(&cmd, now)
        });
        let Some((i, cmd)) = pick else { return false };
        let mut q = if use_writes {
            self.write_q.remove(i)
        } else {
            self.read_q.remove(i)
        };
        let key = q.decoded.row_key();

        // Classify: a request served with its row already open — and not
        // opened on its own behalf — is a row-buffer hit.
        if q.category.is_none() {
            q.category = Some(AccessCategory::Hit);
            self.stats.row_hits.inc();
        }

        let same_row = queued_same_row(&self.read_q, key.bank, key.row, None);
        let action = if q.activated {
            // This request's activation already informed the scheme.
            PfAction::None
        } else {
            let pt = prof.stamp();
            let action = self.scheme.on_row_hit(key, same_row);
            let _ = prof.lap(Comp::PfTrain, pt);
            action
        };

        let done = self.issue(cmd, now);
        if q.req.kind.is_read() {
            self.obs.stamp(q.req.id.0, Point::ServiceStart, now);
            self.stats.reads.inc();
            let source = match q.category {
                Some(AccessCategory::Hit) => ServiceSource::RowBufferHit,
                Some(AccessCategory::Conflict) => ServiceSource::RowBufferConflict,
                _ => ServiceSource::RowBufferMiss,
            };
            self.push_response(q.req, done, source);
        }

        self.apply_action(action, now);

        // Closed-page policy: close the row once nothing queued needs it.
        if self.page_policy == PagePolicy::Closed
            && queued_same_row(&self.read_q, key.bank, key.row, None) == 0
            && queued_same_row(&self.write_q, key.bank, key.row, None) == 0
        {
            self.want_precharge[q.bank()] = true;
        }
        true
    }

    fn try_issue_activate(&mut self, now: Cycle, use_writes: bool, prof: &mut Profiler) -> bool {
        if self.refresh_pending || now < self.window.earliest_activate() {
            return false; // draining for refresh, or tRRD/tFAW gates every ACT
        }
        let pick = self.first_candidate(use_writes, |q, cmd| {
            matches!(cmd, DramCmd::Act { .. })
                && self.can_issue(&cmd, now)
                && !self.writeback_holds(q.bank())
                && !self.fetch_pending_on(q.bank())
        });
        let Some((i, cmd)) = pick else { return false };
        let q = if use_writes {
            &mut self.write_q[i]
        } else {
            &mut self.read_q[i]
        };
        let key = q.decoded.row_key();
        let conflict = q.category == Some(AccessCategory::Conflict);
        if q.category.is_none() {
            q.category = Some(AccessCategory::Miss);
            self.stats.row_misses.inc();
        }
        q.activated = true;
        self.issue(cmd, now);
        let queued = queued_same_row(
            &self.read_q,
            key.bank,
            key.row,
            Some(i).filter(|_| !use_writes),
        );
        let pt = prof.stamp();
        let action = self.scheme.on_row_activated(key, conflict, queued);
        let _ = prof.lap(Comp::PfTrain, pt);
        self.apply_action(action, now);
        true
    }

    fn try_issue_precharge(&mut self, now: Cycle, use_writes: bool) -> bool {
        let pick = self.first_candidate(use_writes, |q, cmd| {
            if !matches!(cmd, DramCmd::Pre { .. }) || !self.can_issue(&cmd, now) {
                return false;
            }
            let bank_idx = q.bank();
            if self.fetch_pending_on(bank_idx) || self.writeback_holds(bank_idx) {
                return false;
            }
            // FR-FCFS protects the open row while other requests still
            // target it — unless this request is starving.
            let open = self.banks[bank_idx].open_row().unwrap_or_default();
            let open_row_demand = queued_same_row(&self.read_q, q.decoded.bank, open, None)
                + queued_same_row(&self.write_q, q.decoded.bank, open, None);
            open_row_demand == 0 || now.saturating_sub(q.arrived) > STARVATION_LIMIT
        });
        let Some((i, cmd)) = pick else { return false };
        let q = if use_writes {
            &mut self.write_q[i]
        } else {
            &mut self.read_q[i]
        };
        if q.category.is_none() {
            q.category = Some(AccessCategory::Conflict);
            self.stats.row_conflicts.inc();
        }
        self.issue(cmd, now);
        true
    }

    fn apply_action(&mut self, action: PfAction, now: Cycle) {
        let PfAction::FetchRow {
            key,
            precharge_after,
            used_so_far,
        } = action
        else {
            return;
        };
        self.spawn_fetch(key, precharge_after, now, used_so_far);
    }

    fn spawn_fetch(&mut self, key: RowKey, precharge_after: bool, now: Cycle, used_so_far: u32) {
        if self.buffer.contains(key) || self.fetches.iter().any(|f| f.key == key) {
            return;
        }
        if self.banks[usize::from(key.bank)].open_row() != Some(key.row) {
            // A demand-triggered fetch can only copy the row that is open;
            // if it closed in the same cycle, drop the request.
            self.stats.prefetches_dropped.inc();
            return;
        }
        self.fetches.push(FetchJob {
            key,
            precharge_after,
            needs_activate: false,
            spawned: now,
            seed_util: used_so_far,
            chunks_left: self.fetch_chunks,
            done: None,
        });
    }

    /// Advances (or starts) the dirty-row writeback engine.
    fn advance_writeback(&mut self, now: Cycle) {
        if let Some(job) = self.active_writeback {
            match job.done {
                Some(done) if done <= now => {
                    self.want_precharge[usize::from(job.key.bank)] = true;
                    self.stats.writebacks.inc();
                    self.stats.energy.row_writebacks += 1;
                    self.active_writeback = None;
                }
                Some(_) => {}
                None => self.try_start_writeback_transfer(now),
            }
            return;
        }
        let Some(&key) = self.writeback_q.front() else {
            return;
        };
        // Yield to demand traffic unless writebacks are piling up.
        let bank_idx = usize::from(key.bank);
        let demand_pending = self
            .read_q
            .iter()
            .chain(self.write_q.iter())
            .any(|q| q.bank() == bank_idx);
        if demand_pending && self.writeback_q.len() <= WRITEBACK_PRESSURE {
            return;
        }
        self.writeback_q.pop_front();
        self.active_writeback = Some(WritebackJob { key, done: None });
        self.try_start_writeback_transfer(now);
    }

    fn try_start_writeback_transfer(&mut self, now: Cycle) {
        let Some(job) = self.active_writeback else {
            return;
        };
        let cmd = self.next_cmd(job.key, Cause::Writeback, AccessKind::Write);
        if !self.can_issue(&cmd, now) {
            return;
        }
        match cmd {
            DramCmd::RowIn { .. } => {
                let done = self.issue(cmd, now);
                self.active_writeback = Some(WritebackJob {
                    key: job.key,
                    done: Some(done),
                });
            }
            DramCmd::Pre { bank } => {
                // A different row occupies the bank; close it when no
                // demand wants it (demand precharges happen in the
                // scheduler).
                let bank_idx = usize::from(bank);
                let open = self.banks[bank_idx].open_row().unwrap_or_default();
                let demand = queued_same_row(&self.read_q, bank, open, None)
                    + queued_same_row(&self.write_q, bank, open, None);
                if !self.want_precharge[bank_idx] && demand == 0 {
                    self.issue(cmd, now);
                }
            }
            _ => {
                if !self.refresh_pending {
                    self.issue(cmd, now);
                }
            }
        }
    }
}

impl Wake for VaultController {
    /// Folds every engine's earliest actionable cycle: pending responses,
    /// the refresh state machine, queued demand against bank/bus timing,
    /// in-flight row fetches, the precharge sweep, and the writeback
    /// engine. Banks, the activation window, the prefetch buffer and the
    /// scheme hold no timers of their own: they change only inside this
    /// controller's calls, and every timing edge is read through the
    /// scheduler's own `ready_at`. Candidates are conservative lower
    /// bounds — a gate that is really waiting on another event (e.g. a
    /// conflict precharge held off by open-row demand) contributes a
    /// past-due edge that clamps to `now + 1`, costing a no-op tick, never
    /// a missed one.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut wake: Option<Cycle> = None;
        let mut up = |at: Option<Cycle>| fold_wake(&mut wake, now, at);

        if let Some(Reverse((at, _, _))) = self.responses.peek() {
            up(Some(*at));
        }

        // Refresh: the deadline while idle; while draining, every bank's
        // path to the REF (close open rows, wait out busy arrays).
        if self.timing.t_refi > 0 {
            if self.refresh_pending {
                for (idx, b) in self.banks.iter().enumerate() {
                    // A fetch in flight owns the open row; its own
                    // edges below wake us, not the drain.
                    if b.open_row().is_some() && self.fetch_pending_on(idx) {
                        continue;
                    }
                    let pre = DramCmd::Pre { bank: idx as u16 };
                    up(b.ready_at(&DramCmd::Ref).or(b.ready_at(&pre)));
                }
            } else {
                up(Some(self.next_refresh));
            }
        }

        // The write-drain hysteresis flips `draining` on the next tick.
        if (!self.draining && self.write_q.len() >= self.drain_high)
            || (self.draining && self.write_q.len() <= self.drain_low)
        {
            up(Some(now + 1));
        }

        // Queued demand: a buffer-resident row is served next tick; any
        // other request waits on its next command, and a conflict
        // precharge also on the starvation override.
        for q in self.read_q.iter().chain(self.write_q.iter()) {
            if self.buffer.contains(q.decoded.row_key()) {
                up(Some(now + 1));
                continue;
            }
            let cmd = self.demand_cmd(q);
            up(self.ready_at(&cmd));
            if matches!(cmd, DramCmd::Pre { .. }) {
                up(Some(q.arrived + STARVATION_LIMIT + 1));
            }
        }

        // Row fetches: completions and bus slots for the next chunk.
        for job in &self.fetches {
            if let Some(done) = job.done {
                up(Some(done));
                continue;
            }
            if self.buffer.contains(job.key) {
                up(Some(now + 1)); // duplicate: discarded next tick
                continue;
            }
            match self.next_cmd(job.key, Cause::Prefetch, AccessKind::Read) {
                cmd @ DramCmd::Rd { .. } => up(self.ready_at(&cmd)),
                _ => up(Some(now + 1)), // row closed under the fetch: dropped next tick
            }
        }

        // Precharge sweep.
        for (idx, b) in self.banks.iter().enumerate() {
            if self.want_precharge[idx] && b.open_row().is_some() && !self.fetch_pending_on(idx) {
                up(b.ready_at(&DramCmd::Pre { bank: idx as u16 }));
            }
        }

        // Writeback engine.
        if let Some(job) = self.active_writeback {
            match job.done {
                Some(done) => up(Some(done)),
                None => {
                    up(self.ready_at(&self.next_cmd(job.key, Cause::Writeback, AccessKind::Write)))
                }
            }
        } else if let Some(&key) = self.writeback_q.front() {
            let bank_idx = usize::from(key.bank);
            let demand_pending = self
                .read_q
                .iter()
                .chain(self.write_q.iter())
                .any(|q| q.bank() == bank_idx);
            if !demand_pending || self.writeback_q.len() > WRITEBACK_PRESSURE {
                up(Some(now + 1));
            }
            // Else: yielding to demand; the demand candidates above cover
            // the tick on which the yield condition can change.
        }

        wake
    }
}

impl VaultController {
    fn check_restored(&mut self) -> Result<(), de::Error> {
        if self.read_q.len() > self.read_cap || self.write_q.len() > self.write_cap {
            return Err(de::Error::custom(
                "snapshot: queue contents exceed configured capacity",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camps_types::addr::AddressMapping;
    use camps_types::request::{CoreId, RequestId};
    use camps_types::snapshot::Snapshot;
    use serde::value::Value;

    fn cfg() -> SystemConfig {
        let mut c = SystemConfig::paper_default();
        c.hmc.vaults = 4; // keep decode cheap; vault 0 is used below
        c
    }

    fn mapping(c: &SystemConfig) -> AddressMapping {
        c.hmc.address_mapping().unwrap()
    }

    /// Builds a request for (bank, row, col) in vault 0.
    fn req_at(
        c: &SystemConfig,
        id: u64,
        bank: u16,
        row: u32,
        col: u16,
        kind: AccessKind,
        now: Cycle,
    ) -> (MemRequest, DecodedAddr) {
        let m = mapping(c);
        let d = DecodedAddr {
            vault: 0,
            bank,
            row,
            col,
            offset: 0,
        };
        let addr = m.encode(&d);
        (
            MemRequest {
                id: RequestId(id),
                addr,
                kind,
                core: CoreId(0),
                created_at: now,
            },
            d,
        )
    }

    /// Runs the vault until `n` responses arrive (or `limit` cycles pass).
    fn run_until(
        v: &mut VaultController,
        start: Cycle,
        n: usize,
        limit: Cycle,
    ) -> (Vec<MemResponse>, Cycle) {
        let mut out = Vec::new();
        let mut now = start;
        while out.len() < n && now < start + limit {
            now += 1;
            v.tick(now, &mut out, &mut Profiler::off());
        }
        (out, now)
    }

    /// Serves `pattern` one request at a time so FR-FCFS cannot batch
    /// same-row work — alternating rows force one ACT per access.
    fn hammer(
        v: &mut VaultController,
        c: &SystemConfig,
        pattern: &[(u16, u32)],
        start: Cycle,
    ) -> Cycle {
        let mut now = start;
        for (i, &(bank, row)) in pattern.iter().enumerate() {
            let (r, d) = req_at(c, i as u64 + 1, bank, row, 0, AccessKind::Read, now);
            assert!(v.try_enqueue(r, d, now));
            let (out, end) = run_until(v, now, 1, 100_000);
            assert_eq!(out.len(), 1, "request {i} never completed");
            now = end;
        }
        now
    }

    #[test]
    fn alternating_rows_count_per_row_activations() {
        let c = cfg();
        let mut v = VaultController::new(0, &c, SchemeKind::Nopf).unwrap();
        let pattern = [(0, 1), (0, 2), (0, 1), (0, 2), (0, 1), (0, 2)];
        hammer(&mut v, &c, &pattern, 0);
        assert_eq!(v.stats().demand_activations.get(), 6);
        assert_eq!(v.stats().worst_row_window_acts, 3);
        assert_eq!(
            v.stats().mitigations.get(),
            0,
            "observation-only by default"
        );
    }

    #[test]
    fn mitigation_fires_at_threshold_and_slows_the_hammer() {
        let pattern: Vec<(u16, u32)> = (0..16u32).map(|i| (0u16, 1 + (i % 2))).collect();

        let mut on = cfg();
        on.rowguard.enable_mitigation = true;
        on.rowguard.threshold = 2;
        let mut v_on = VaultController::new(0, &on, SchemeKind::Nopf).unwrap();
        let end_on = hammer(&mut v_on, &on, &pattern, 0);
        // 8 ACTs per row at threshold 2 → 4 mitigations per row.
        assert_eq!(v_on.stats().mitigations.get(), 8);
        assert_eq!(
            v_on.stats().worst_row_window_acts,
            2,
            "the counter restarts at every mitigation"
        );

        let off = cfg();
        let mut v_off = VaultController::new(0, &off, SchemeKind::Nopf).unwrap();
        let end_off = hammer(&mut v_off, &off, &pattern, 0);
        assert_eq!(v_off.stats().mitigations.get(), 0);
        assert!(
            end_on > end_off,
            "the TRR penalty must delay the aggressor stream ({end_on} vs {end_off})"
        );
    }

    #[test]
    fn refresh_clears_the_rowguard_window_in_snapshots() {
        let c = cfg();
        let mut v = VaultController::new(0, &c, SchemeKind::Nopf).unwrap();
        let now = hammer(&mut v, &c, &[(0, 1), (0, 2)], 0);
        let tracked = |v: &VaultController| {
            let Value::Map(m) = v.save_state() else {
                panic!("snapshot is a map")
            };
            let val = &m.iter().find(|(k, _)| k == "rowguard").unwrap().1;
            RowGuard::from_value(val).unwrap().tracked_rows()
        };
        assert_eq!(tracked(&v), 2);
        // Tick past the vault's refresh deadline: the all-bank refresh
        // resets every per-row counter, but the worst-case survives.
        let mut out = Vec::new();
        let mut t = now;
        while t < 2 * v.timing.t_refi {
            t += 1;
            v.tick(t, &mut out, &mut Profiler::off());
        }
        assert!(v.stats().refreshes.get() >= 1);
        assert_eq!(tracked(&v), 0);
        assert!(v.stats().worst_row_window_acts >= 1);
    }

    #[test]
    fn restore_tolerates_snapshots_without_rowguard() {
        let c = cfg();
        let mut v = VaultController::new(0, &c, SchemeKind::Nopf).unwrap();
        hammer(&mut v, &c, &[(0, 1), (0, 2)], 0);
        let Value::Map(mut m) = v.save_state() else {
            panic!("snapshot is a map")
        };
        m.retain(|(k, _)| k != "rowguard");
        let mut fresh = VaultController::new(0, &c, SchemeKind::Nopf).unwrap();
        fresh.restore_state(&Value::Map(m)).unwrap();
        assert_eq!(fresh.rowguard.tracked_rows(), 0);
    }

    #[test]
    fn single_read_miss_latency_matches_timing() {
        let c = cfg();
        let mut v = VaultController::new(0, &c, SchemeKind::Nopf).unwrap();
        let (r, d) = req_at(&c, 1, 0, 5, 0, AccessKind::Read, 0);
        assert!(v.try_enqueue(r, d, 0));
        let (out, _) = run_until(&mut v, 0, 1, 10_000);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].source, ServiceSource::RowBufferMiss);
        let t = TimingCpu::from_config(&c.dram, c.cpu.freq_hz);
        // ACT at cycle 1 (first tick), RD at 1+tRCD, data at +tCL+tBURST.
        assert_eq!(out[0].completed_at, 1 + t.t_rcd + t.t_cl + t.t_burst);
        assert_eq!(v.stats().row_misses.get(), 1);
    }

    #[test]
    fn second_read_same_row_is_a_hit() {
        let c = cfg();
        let mut v = VaultController::new(0, &c, SchemeKind::Nopf).unwrap();
        let (r1, d1) = req_at(&c, 1, 0, 5, 0, AccessKind::Read, 0);
        let (r2, d2) = req_at(&c, 2, 0, 5, 1, AccessKind::Read, 0);
        v.try_enqueue(r1, d1, 0);
        v.try_enqueue(r2, d2, 0);
        let (out, _) = run_until(&mut v, 0, 2, 10_000);
        assert_eq!(out.len(), 2);
        assert_eq!(v.stats().row_hits.get(), 1);
        assert_eq!(v.stats().row_misses.get(), 1);
        assert_eq!(v.stats().row_conflicts.get(), 0);
    }

    #[test]
    fn different_row_same_bank_is_a_conflict() {
        let c = cfg();
        let mut v = VaultController::new(0, &c, SchemeKind::Nopf).unwrap();
        let (r1, d1) = req_at(&c, 1, 0, 5, 0, AccessKind::Read, 0);
        v.try_enqueue(r1, d1, 0);
        let (_, end) = run_until(&mut v, 0, 1, 10_000);
        // Row 5 is open (open-page); now request row 6 in the same bank.
        let (r2, d2) = req_at(&c, 2, 0, 6, 0, AccessKind::Read, end);
        v.try_enqueue(r2, d2, end);
        let (out, _) = run_until(&mut v, end, 1, 20_000);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].source, ServiceSource::RowBufferConflict);
        assert_eq!(v.stats().row_conflicts.get(), 1);
    }

    #[test]
    fn base_scheme_prefetches_and_later_requests_hit_buffer() {
        let c = cfg();
        let mut v = VaultController::new(0, &c, SchemeKind::Base).unwrap();
        let (r1, d1) = req_at(&c, 1, 0, 5, 0, AccessKind::Read, 0);
        v.try_enqueue(r1, d1, 0);
        let (_, end) = run_until(&mut v, 0, 1, 20_000);
        // Let the row transfer finish and the bank precharge.
        let mut out = Vec::new();
        let mut now = end;
        for _ in 0..2_000 {
            now += 1;
            v.tick(now, &mut out, &mut Profiler::off());
        }
        assert_eq!(v.stats().prefetches.get(), 1);
        // A new request to any column of row 5 must now hit the buffer.
        let (r2, d2) = req_at(&c, 2, 0, 5, 7, AccessKind::Read, now);
        assert!(v.try_enqueue(r2, d2, now));
        let (out2, _) = run_until(&mut v, now, 1, 1_000);
        assert_eq!(out2[0].source, ServiceSource::PrefetchBuffer);
        assert_eq!(out2[0].completed_at, now + c.prefetch.hit_latency);
        assert_eq!(v.stats().buffer_hits.get(), 1);
    }

    #[test]
    fn base_never_leaves_rows_open() {
        // BASE fetches + precharges on every activation → no conflicts.
        let c = cfg();
        let mut v = VaultController::new(0, &c, SchemeKind::Base).unwrap();
        let mut now = 0;
        let mut out = Vec::new();
        for (i, row) in [5u32, 6, 5, 6, 7, 8].iter().enumerate() {
            let (r, d) = req_at(&c, i as u64, 0, *row, 0, AccessKind::Read, now);
            assert!(v.try_enqueue(r, d, now));
            for _ in 0..3_000 {
                now += 1;
                v.tick(now, &mut out, &mut Profiler::off());
            }
        }
        assert_eq!(
            v.stats().row_conflicts.get(),
            0,
            "BASE precharges after every fetch"
        );
    }

    #[test]
    fn camps_prefetches_hot_row_after_five_accesses() {
        let c = cfg();
        let mut v = VaultController::new(0, &c, SchemeKind::CampsMod).unwrap();
        let mut now = 0;
        let mut out = Vec::new();
        // Five sequential requests to row 5 (activation + 4 hits exceeds
        // the threshold of 4).
        for i in 0..5u64 {
            let (r, d) = req_at(&c, i, 0, 5, i as u16, AccessKind::Read, now);
            assert!(v.try_enqueue(r, d, now));
            for _ in 0..1_000 {
                now += 1;
                v.tick(now, &mut out, &mut Profiler::off());
            }
        }
        assert_eq!(v.stats().prefetches.get(), 1);
        assert_eq!(out.len(), 5);
        // The bank was precharged after the fetch (CAMPS behavior).
        let (r, d) = req_at(&c, 99, 0, 5, 9, AccessKind::Read, now);
        v.try_enqueue(r, d, now);
        let (out2, _) = run_until(&mut v, now, 1, 1_000);
        assert_eq!(out2[0].source, ServiceSource::PrefetchBuffer);
    }

    #[test]
    fn camps_prefetches_conflict_victim_on_reactivation() {
        let c = cfg();
        let mut v = VaultController::new(0, &c, SchemeKind::Camps).unwrap();
        let mut now = 0;
        let mut out = Vec::new();
        // Ping-pong rows 5 and 6 in bank 0. With ct_evidence = 3, the CT
        // fires on row 5's second return (accumulated evidence 2 + 1).
        for (i, row) in [5u32, 6, 5, 6, 5].iter().enumerate() {
            let (r, d) = req_at(&c, i as u64, 0, *row, 0, AccessKind::Read, now);
            assert!(v.try_enqueue(r, d, now));
            for _ in 0..3_000 {
                now += 1;
                v.tick(now, &mut out, &mut Profiler::off());
            }
        }
        assert_eq!(out.len(), 5);
        assert_eq!(v.stats().prefetches.get(), 1);
        // Row 5 is now buffer-resident.
        let (r, d) = req_at(&c, 99, 0, 5, 3, AccessKind::Read, now);
        v.try_enqueue(r, d, now);
        let (out2, _) = run_until(&mut v, now, 1, 1_000);
        assert_eq!(out2[0].source, ServiceSource::PrefetchBuffer);
    }

    #[test]
    fn nopf_never_prefetches() {
        let c = cfg();
        let mut v = VaultController::new(0, &c, SchemeKind::Nopf).unwrap();
        let mut now = 0;
        let mut out = Vec::new();
        for i in 0..20u64 {
            let (r, d) = req_at(&c, i, 0, 5, (i % 16) as u16, AccessKind::Read, now);
            v.try_enqueue(r, d, now);
            for _ in 0..500 {
                now += 1;
                v.tick(now, &mut out, &mut Profiler::off());
            }
        }
        assert_eq!(v.stats().prefetches.get(), 0);
        assert_eq!(v.stats().buffer_hits.get(), 0);
        assert_eq!(out.len(), 20);
    }

    #[test]
    fn writes_are_posted_and_drain() {
        let c = cfg();
        let mut v = VaultController::new(0, &c, SchemeKind::Nopf).unwrap();
        let (w, d) = req_at(&c, 1, 0, 5, 0, AccessKind::Write, 0);
        assert!(v.try_enqueue(w, d, 0));
        let (out, end) = run_until(&mut v, 0, 1, 100);
        assert_eq!(out.len(), 1, "posted write acks immediately");
        // The burst itself drains in the background.
        let mut out2 = Vec::new();
        let mut now = end;
        while v.busy() && now < end + 20_000 {
            now += 1;
            v.tick(now, &mut out2, &mut Profiler::off());
        }
        assert!(!v.busy());
        assert_eq!(v.stats().energy.write_bursts, 1);
        assert_eq!(v.stats().writes.get(), 1);
    }

    #[test]
    fn read_queue_backpressure() {
        let c = cfg();
        let mut v = VaultController::new(0, &c, SchemeKind::Nopf).unwrap();
        let mut accepted = 0;
        for i in 0..(c.vault.read_queue + 5) as u64 {
            let (r, d) = req_at(&c, i, 0, i as u32 % 8, 0, AccessKind::Read, 0);
            if v.try_enqueue(r, d, 0) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, c.vault.read_queue);
        assert_eq!(v.stats().queue_rejects.get(), 5);
    }

    #[test]
    fn frfcfs_prefers_open_row_over_older_conflict() {
        let c = cfg();
        let mut v = VaultController::new(0, &c, SchemeKind::Nopf).unwrap();
        // Open row 5.
        let (r1, d1) = req_at(&c, 1, 0, 5, 0, AccessKind::Read, 0);
        v.try_enqueue(r1, d1, 0);
        let (_, end) = run_until(&mut v, 0, 1, 10_000);
        // Older request to row 6 (conflict), newer to open row 5.
        let (r2, d2) = req_at(&c, 2, 0, 6, 0, AccessKind::Read, end);
        let (r3, d3) = req_at(&c, 3, 0, 5, 1, AccessKind::Read, end + 1);
        v.try_enqueue(r2, d2, end);
        v.try_enqueue(r3, d3, end + 1);
        let (out, _) = run_until(&mut v, end + 1, 2, 30_000);
        assert_eq!(out.len(), 2);
        // The row-5 hit (id 3) completes before the row-6 conflict (id 2).
        assert_eq!(out[0].id, RequestId(3));
        assert_eq!(out[1].id, RequestId(2));
    }

    #[test]
    fn fcfs_serves_strictly_in_order() {
        let mut c = cfg();
        c.vault.scheduler = SchedulerKind::Fcfs;
        let mut v = VaultController::new(0, &c, SchemeKind::Nopf).unwrap();
        let (r1, d1) = req_at(&c, 1, 0, 5, 0, AccessKind::Read, 0);
        v.try_enqueue(r1, d1, 0);
        let (_, end) = run_until(&mut v, 0, 1, 10_000);
        let (r2, d2) = req_at(&c, 2, 0, 6, 0, AccessKind::Read, end);
        let (r3, d3) = req_at(&c, 3, 0, 5, 1, AccessKind::Read, end + 1);
        v.try_enqueue(r2, d2, end);
        v.try_enqueue(r3, d3, end + 1);
        let (out, _) = run_until(&mut v, end + 1, 2, 40_000);
        assert_eq!(out[0].id, RequestId(2), "FCFS ignores row-buffer state");
        assert_eq!(out[1].id, RequestId(3));
    }

    #[test]
    fn closed_page_policy_precharges_after_service() {
        let mut c = cfg();
        c.vault.page_policy = PagePolicy::Closed;
        let mut v = VaultController::new(0, &c, SchemeKind::Nopf).unwrap();
        let (r1, d1) = req_at(&c, 1, 0, 5, 0, AccessKind::Read, 0);
        v.try_enqueue(r1, d1, 0);
        let (_, end) = run_until(&mut v, 0, 1, 10_000);
        // Give the sweep time to close the bank.
        let mut out = Vec::new();
        let mut now = end;
        for _ in 0..1_000 {
            now += 1;
            v.tick(now, &mut out, &mut Profiler::off());
        }
        // A second access to the same row is a miss, not a hit.
        let (r2, d2) = req_at(&c, 2, 0, 5, 1, AccessKind::Read, now);
        v.try_enqueue(r2, d2, now);
        let (out2, _) = run_until(&mut v, now, 1, 10_000);
        assert_eq!(out2[0].source, ServiceSource::RowBufferMiss);
        assert_eq!(v.stats().row_misses.get(), 2);
    }

    #[test]
    fn responses_preserve_request_ids_and_metadata() {
        let c = cfg();
        let mut v = VaultController::new(0, &c, SchemeKind::Nopf).unwrap();
        let (r, d) = req_at(&c, 42, 1, 3, 2, AccessKind::Read, 7);
        v.try_enqueue(r, d, 7);
        let (out, _) = run_until(&mut v, 7, 1, 10_000);
        assert_eq!(out[0].id, RequestId(42));
        assert_eq!(out[0].core, CoreId(0));
        assert_eq!(out[0].created_at, 7);
        assert_eq!(out[0].addr, r.addr);
        assert!(out[0].latency() > 0);
    }

    #[test]
    fn finalize_counts_resident_referenced_rows() {
        let c = cfg();
        let mut v = VaultController::new(0, &c, SchemeKind::Base).unwrap();
        let (r, d) = req_at(&c, 1, 0, 5, 0, AccessKind::Read, 0);
        v.try_enqueue(r, d, 0);
        let mut out = Vec::new();
        for now in 1..3_000 {
            v.tick(now, &mut out, &mut Profiler::off());
        }
        assert_eq!(v.stats().prefetches.get(), 1);
        // The fetched row was never demand-referenced from the buffer
        // (the triggering read was served from the bank).
        v.finalize(3_000);
        assert_eq!(v.stats().prefetches_referenced.get(), 0);
        assert_eq!(v.stats().prefetch_accuracy(), Some(0.0));
        // Buffer lookups were synced into the energy counters.
        assert!(v.stats().energy.buffer_accesses > 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        // Conservation: every accepted request eventually produces exactly
        // one response, under random schemes, banks, rows, access kinds
        // (writes dirty buffered rows, whose evictions cost writeback
        // ACTs), arrival gaps, and RowHammer mitigation on or off. And the
        // bookkeeping `issue` owns adds up: every ACT is counted under
        // exactly one cause, and only an activated row is precharged.
        #[test]
        fn no_request_is_ever_lost(
            ops in proptest::collection::vec(
                (0u16..8, 0u32..8, 0u16..16, 0u64..200, proptest::bool::ANY),
                1..120,
            ),
            scheme_idx in 0usize..6,
            mitigate in proptest::bool::ANY,
        ) {
            let mut c = cfg();
            c.rowguard.enable_mitigation = mitigate;
            c.rowguard.threshold = 2;
            let mut v = VaultController::new(0, &c, SchemeKind::ALL[scheme_idx]).unwrap();
            let mut now: Cycle = 0;
            let mut accepted = 0u64;
            let mut out = Vec::new();
            for (i, &(bank, row, col, gap, write)) in ops.iter().enumerate() {
                now += gap;
                let kind = if write { AccessKind::Write } else { AccessKind::Read };
                let (r, d) = req_at(&c, i as u64, bank, row, col, kind, now);
                if v.try_enqueue(r, d, now) {
                    accepted += 1;
                }
                now += 1;
                v.tick(now, &mut out, &mut Profiler::off());
            }
            let deadline = now + 2_000_000;
            while v.busy() && now < deadline {
                now += 1;
                v.tick(now, &mut out, &mut Profiler::off());
            }
            proptest::prop_assert_eq!(out.len() as u64, accepted,
                "accepted requests must all complete");
            // And every response id is unique.
            let mut ids: Vec<u64> = out.iter().map(|r| r.id.0).collect();
            ids.sort_unstable();
            ids.dedup();
            proptest::prop_assert_eq!(ids.len() as u64, accepted);
            let s = v.stats();
            proptest::prop_assert_eq!(
                s.energy.activates,
                s.demand_activations.get() + s.writeback_activations.get()
            );
            proptest::prop_assert!(s.energy.precharges <= s.energy.activates);
        }
    }

    #[test]
    fn snapshot_mid_flight_resumes_bit_identically() {
        // Exercise every stateful engine: queued demand, an in-flight row
        // fetch, buffer residency, and pending responses — then snapshot,
        // restore onto a fresh vault, and require identical behavior.
        for kind in SchemeKind::ALL {
            let c = cfg();
            let mut a = VaultController::new(0, &c, kind).unwrap();
            let mut now: Cycle = 0;
            let mut out_a = Vec::new();
            for (i, row) in [5u32, 5, 5, 5, 5, 6, 5, 7].iter().enumerate() {
                let (r, d) = req_at(&c, i as u64, 0, *row, i as u16, AccessKind::Read, now);
                a.try_enqueue(r, d, now);
                for _ in 0..40 {
                    now += 1;
                    a.tick(now, &mut out_a, &mut Profiler::off());
                }
            }
            let state = a.save_state();
            let mut b = VaultController::new(0, &c, kind).unwrap();
            b.restore_state(&state).unwrap();
            let mut out_b = Vec::new();
            let deadline = now + 200_000;
            while (a.busy() || b.busy()) && now < deadline {
                now += 1;
                a.tick(now, &mut out_a, &mut Profiler::off());
                b.tick(now, &mut out_b, &mut Profiler::off());
            }
            // Responses emitted after the snapshot point must match exactly.
            let pending = out_a.len() - out_b.len();
            assert_eq!(
                &out_a[pending..],
                &out_b[..],
                "{kind}: post-snapshot responses diverged"
            );
            a.finalize(now);
            b.finalize(now);
            assert_eq!(a.stats(), b.stats(), "{kind}: stats diverged");
        }
    }

    #[test]
    fn snapshot_rejects_wrong_geometry() {
        let c = cfg();
        let a = VaultController::new(0, &c, SchemeKind::Camps).unwrap();
        let state = a.save_state();
        let mut c8 = cfg();
        c8.hmc.banks_per_vault = 8;
        let mut b = VaultController::new(0, &c8, SchemeKind::Camps).unwrap();
        let err = b.restore_state(&state).unwrap_err();
        assert!(err.to_string().contains("bank"));
    }

    #[test]
    fn vault_bus_serializes_bursts_across_banks() {
        // Two same-cycle reads to different banks: their data must be
        // spaced by at least one bus slot (t_burst), not returned together.
        let c = cfg();
        let t = TimingCpu::from_config(&c.dram, c.cpu.freq_hz);
        let mut v = VaultController::new(0, &c, SchemeKind::Nopf).unwrap();
        let (r1, d1) = req_at(&c, 1, 0, 5, 0, AccessKind::Read, 0);
        let (r2, d2) = req_at(&c, 2, 1, 7, 0, AccessKind::Read, 0);
        assert!(v.try_enqueue(r1, d1, 0));
        assert!(v.try_enqueue(r2, d2, 0));
        let (out, _) = run_until(&mut v, 0, 2, 20_000);
        assert_eq!(out.len(), 2);
        let gap = out[1].completed_at.abs_diff(out[0].completed_at);
        assert!(
            gap >= t.t_burst,
            "bus must serialize: gap {gap} < tBURST {}",
            t.t_burst
        );
    }

    #[test]
    fn demand_bursts_interleave_with_row_fetch_chunks() {
        // Start a CAMPS fetch on bank 0, then send a demand read to bank 1.
        // The demand must complete long before the whole-row transfer
        // would finish if it monopolized the bus.
        let c = cfg();
        let t = TimingCpu::from_config(&c.dram, c.cpu.freq_hz);
        let mut v = VaultController::new(0, &c, SchemeKind::Base).unwrap();
        let (r1, d1) = req_at(&c, 1, 0, 5, 0, AccessKind::Read, 0);
        assert!(v.try_enqueue(r1, d1, 0));
        // Let the activation + fetch begin.
        let (out1, end) = run_until(&mut v, 0, 1, 20_000);
        assert_eq!(out1.len(), 1);
        let mut now = end;
        let (r2, d2) = req_at(&c, 2, 1, 7, 0, AccessKind::Read, now);
        assert!(v.try_enqueue(r2, d2, now));
        let (out2, _) = run_until(&mut v, now, 1, 20_000);
        // Bank-1 miss latency ≈ tRCD + tCL + tBURST plus at most a couple
        // of bus slots of fetch traffic — far less than a full row
        // transfer on top.
        let latency = out2[0].completed_at - now;
        assert!(
            latency < t.miss_read_latency() + t.t_row_transfer,
            "demand stuck behind fetch: {latency}"
        );
        now = out2[0].completed_at;
        // And the fetch still completes.
        let mut out = Vec::new();
        for _ in 0..5_000 {
            now += 1;
            v.tick(now, &mut out, &mut Profiler::off());
        }
        assert!(v.stats().prefetches.get() >= 1);
    }

    #[test]
    fn push_to_llc_emits_one_packet_per_block() {
        let mut c = cfg();
        c.prefetch.push_to_llc = true;
        let mut v = VaultController::new(0, &c, SchemeKind::Base).unwrap();
        let (r, d) = req_at(&c, 1, 0, 5, 0, AccessKind::Read, 0);
        assert!(v.try_enqueue(r, d, 0));
        let mut out = Vec::new();
        for now in 1..3_000 {
            v.tick(now, &mut out, &mut Profiler::off());
        }
        let pushes: Vec<_> = out.iter().filter(|r| r.push).collect();
        assert_eq!(
            pushes.len(),
            c.hmc.blocks_per_row() as usize,
            "one push packet per 64 B block of the prefetched row"
        );
        // Pushes cover every column of the row exactly once.
        let m = mapping(&c);
        let mut cols: Vec<u16> = pushes.iter().map(|r| m.decode(r.addr).col).collect();
        cols.sort_unstable();
        assert_eq!(cols, (0..16).collect::<Vec<u16>>());
        // And the demand response itself is not a push.
        assert!(out.iter().any(|r| !r.push && r.id == RequestId(1)));
    }

    #[test]
    fn refresh_fires_periodically_and_blocks_activation() {
        let c = cfg();
        let mut v = VaultController::new(0, &c, SchemeKind::Nopf).unwrap();
        let t = TimingCpu::from_config(&c.dram, c.cpu.freq_hz);
        let mut out = Vec::new();
        // Run three refresh intervals with no traffic: the vault must
        // refresh on schedule.
        for now in 1..=(3 * t.t_refi + t.t_rfc) {
            v.tick(now, &mut out, &mut Profiler::off());
        }
        assert!(
            v.stats().refreshes.get() >= 2,
            "refreshes: {}",
            v.stats().refreshes.get()
        );
        assert_eq!(v.stats().energy.refreshes, v.stats().refreshes.get());
    }

    #[test]
    fn refresh_drains_open_rows_first() {
        let c = cfg();
        let mut v = VaultController::new(0, &c, SchemeKind::Nopf).unwrap();
        let t = TimingCpu::from_config(&c.dram, c.cpu.freq_hz);
        // Open a row just before the refresh deadline.
        let start = v_next_refresh_probe(&c) - 200;
        let (r, d) = req_at(&c, 1, 0, 5, 0, AccessKind::Read, start);
        let mut out = Vec::new();
        let mut now = start;
        assert!(v.try_enqueue(r, d, now));
        // Advance well past the deadline; the request is served, the row
        // closed, and the refresh eventually happens.
        for _ in 0..(t.t_refi / 2) {
            now += 1;
            v.tick(now, &mut out, &mut Profiler::off());
        }
        assert_eq!(out.len(), 1);
        assert!(v.stats().refreshes.get() >= 1);
    }

    /// First refresh deadline for vault 0 under `cfg` (mirrors the
    /// constructor's stagger formula).
    fn v_next_refresh_probe(c: &SystemConfig) -> Cycle {
        TimingCpu::from_config(&c.dram, c.cpu.freq_hz).t_refi
    }

    #[test]
    fn disabling_refresh_removes_all_refreshes() {
        let mut c = cfg();
        c.dram.t_refi = 0;
        let mut v = VaultController::new(0, &c, SchemeKind::Nopf).unwrap();
        let mut out = Vec::new();
        for now in 1..100_000 {
            v.tick(now, &mut out, &mut Profiler::off());
        }
        assert_eq!(v.stats().refreshes.get(), 0);
    }

    #[test]
    fn write_to_buffered_row_is_absorbed_and_written_back() {
        let c = cfg();
        let mut v = VaultController::new(0, &c, SchemeKind::Base).unwrap();
        // Prefetch row 5 via a read.
        let (r, d) = req_at(&c, 1, 0, 5, 0, AccessKind::Read, 0);
        v.try_enqueue(r, d, 0);
        let mut out = Vec::new();
        let mut now = 0;
        for _ in 0..3_000 {
            now += 1;
            v.tick(now, &mut out, &mut Profiler::off());
        }
        assert_eq!(v.stats().prefetches.get(), 1);
        // Write to the buffered row: absorbed, marks it dirty.
        let (w, dw) = req_at(&c, 2, 0, 5, 3, AccessKind::Write, now);
        assert!(v.try_enqueue(w, dw, now));
        assert_eq!(v.stats().buffer_hits.get(), 1);
        // Force eviction pressure: prefetch many other rows via reads.
        for i in 0..(c.prefetch.entries as u64 + 4) {
            let (r, d) = req_at(
                &c,
                100 + i,
                (i % 8) as u16 + 1,
                50 + i as u32,
                0,
                AccessKind::Read,
                now,
            );
            assert!(v.try_enqueue(r, d, now));
            for _ in 0..3_000 {
                now += 1;
                v.tick(now, &mut out, &mut Profiler::off());
            }
        }
        // The dirty row was evicted and written back to its bank.
        while v.busy() && now < 1_000_000 {
            now += 1;
            v.tick(now, &mut out, &mut Profiler::off());
        }
        assert_eq!(v.stats().writebacks.get(), 1);
        assert_eq!(v.stats().energy.row_writebacks, 1);
    }
}
