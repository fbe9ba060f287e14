//! The Hybrid Memory Cube device: serial links, crossbar, and vaults.
//!
//! Host-side flow (§2.1): requests are packetized into FLITs, serialized
//! over one of the four full-duplex links, routed through the crossbar to
//! the target vault controller, and answered over the reverse path. The
//! request and response directions have independent lanes and token pools.

use camps_link::packet::Packet;
use camps_link::serdes::LinkSet;
use camps_link::Crossbar;
use camps_obs::{Comp, Point, Profiler, TraceHandle};
use camps_prefetch::SchemeKind;
use camps_types::addr::AddressMapping;
use camps_types::clock::Cycle;
use camps_types::config::{FaultPlan, SystemConfig};
use camps_types::error::{SimError, VaultSnapshot};
use camps_types::request::{MemRequest, MemResponse};
use camps_types::wake::{fold_wake, Wake};
use camps_vault::{VaultController, VaultStats};
use serde::{de, Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Maximum host-controller queue depth (requests waiting for link tokens).
const HOST_QUEUE_DEPTH: usize = 64;

/// The cube.
///
/// Its snapshot skips the construction inputs re-derived from the config
/// (`mapping`, `block_bytes`, `link_cfg`, `faults`), the intra-tick
/// scratch `vault_out`, empty between ticks, and the runtime-only vault
/// gate (`due`, `gated`, `vault_ticks`).
#[derive(Serialize, Deserialize)]
#[serde(check)]
pub struct HmcDevice {
    #[serde(skip)]
    mapping: AddressMapping,
    #[serde(skip)]
    block_bytes: u32,
    #[serde(skip)]
    link_cfg: camps_types::config::LinkConfig,
    req_links: LinkSet,
    resp_links: LinkSet,
    req_xbar: Crossbar,
    resp_xbar: Crossbar,
    vaults: Box<[VaultController]>,
    /// Requests accepted by the host controller, waiting for a link.
    host_queue: VecDeque<MemRequest>,
    /// Request packets in flight: (arrival at vault, seq, packet).
    inflight_req: BinaryHeap<Reverse<(Cycle, u64, Packet)>>,
    /// Packets that reached a full vault queue, per vault; retried every
    /// cycle.
    vault_retry: Box<[VecDeque<MemRequest>]>,
    /// Responses in flight to the host: (delivery, seq, response).
    inflight_resp: BinaryHeap<Reverse<(Cycle, u64, MemResponse)>>,
    /// Responses waiting for response-link tokens.
    resp_queue: VecDeque<MemResponse>,
    /// Link token returns: (cycle, link index, flits, is_response_dir).
    token_returns: BinaryHeap<Reverse<(Cycle, usize, u32, bool)>>,
    /// Scratch for vault responses within a tick.
    #[serde(skip)]
    vault_out: Vec<MemResponse>,
    seq: u64,
    /// Fault-injection schedule (all-off in normal runs).
    #[serde(skip)]
    faults: FaultPlan,
    /// Request packets delivered so far (drives `drop_request_every`).
    req_deliveries: u64,
    /// Responses delivered so far (drives `duplicate_response_every`).
    resp_deliveries: u64,
    /// Observability hooks (runtime-only; excluded from snapshots).
    #[serde(skip)]
    obs: TraceHandle,
    /// The stall-fault instant has been emitted (emit-once latch).
    #[serde(skip)]
    stall_marked: bool,
    /// Per-vault due cycle: while gated, a vault ticks only once `now`
    /// reaches it. Every tick stores the vault's own `next_event`
    /// (`Cycle::MAX`: quiescent until input arrives); input forces it to
    /// 0. Ungated, it stays 0.
    #[serde(skip)]
    due: Box<[Cycle]>,
    /// Skip vaults that are not due (event engine). Off, every vault
    /// ticks every cycle (the polling reference).
    #[serde(skip)]
    gated: bool,
    /// Vault ticks run so far (a deterministic work counter).
    #[serde(skip)]
    vault_ticks: u64,
}

impl HmcDevice {
    /// Builds the cube with every vault running `scheme`.
    ///
    /// # Errors
    /// [`SimError::Config`] if the configuration fails validation.
    pub fn new(cfg: &SystemConfig, scheme: SchemeKind) -> Result<Self, SimError> {
        cfg.validate()?;
        let mapping = cfg.hmc.address_mapping()?;
        let vaults = (0..cfg.hmc.vaults)
            .map(|v| VaultController::new(v as u16, cfg, scheme))
            .collect::<Result<Box<[_]>, _>>()?;
        Ok(Self {
            mapping,
            block_bytes: cfg.hmc.block_bytes,
            link_cfg: cfg.link,
            req_links: LinkSet::new(&cfg.link, cfg.cpu.freq_hz),
            resp_links: LinkSet::new(&cfg.link, cfg.cpu.freq_hz),
            req_xbar: Crossbar::new(cfg.hmc.vaults, cfg.link.xbar_cycles),
            resp_xbar: Crossbar::new(cfg.link.links, cfg.link.xbar_cycles),
            vaults,
            host_queue: VecDeque::new(),
            inflight_req: BinaryHeap::new(),
            vault_retry: (0..cfg.hmc.vaults).map(|_| VecDeque::new()).collect(),
            inflight_resp: BinaryHeap::new(),
            resp_queue: VecDeque::new(),
            token_returns: BinaryHeap::new(),
            vault_out: Vec::new(),
            seq: 0,
            faults: cfg.faults,
            req_deliveries: 0,
            resp_deliveries: 0,
            obs: TraceHandle::disabled(),
            stall_marked: false,
            due: vec![0; cfg.hmc.vaults as usize].into_boxed_slice(),
            gated: true,
            vault_ticks: 0,
        })
    }

    /// The address mapping in force.
    #[must_use]
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    /// Installs observability hooks on the cube and every vault.
    pub fn set_obs(&mut self, obs: TraceHandle) {
        for v in &mut self.vaults {
            v.set_obs(obs.clone());
        }
        self.obs = obs;
    }

    /// Turns the per-vault gate on (event engine) or off (polling). Every
    /// vault starts due, so the first tick refreshes the due cycles.
    pub(crate) fn set_vault_gating(&mut self, on: bool) {
        self.gated = on;
        self.due.fill(0);
    }

    /// Vault ticks run so far; skipped vaults are not counted.
    #[must_use]
    pub(crate) fn vault_ticks(&self) -> u64 {
        self.vault_ticks
    }

    /// The vault an injected stall fault freezes, once it is in force.
    fn stalled_vault(&self, now: Cycle) -> Option<usize> {
        (self.faults.stall_vault_from > 0 && now >= self.faults.stall_vault_from)
            .then_some(self.faults.stall_vault as usize)
    }

    /// Offers a demand request to the host-side controller. `false` means
    /// the controller queue is full (caller retries).
    pub fn submit(&mut self, req: MemRequest) -> bool {
        if self.host_queue.len() >= HOST_QUEUE_DEPTH {
            return false;
        }
        self.host_queue.push_back(req);
        true
    }

    /// Host-queue headroom (used by the memory subsystem for pacing).
    #[must_use]
    pub fn headroom(&self) -> usize {
        HOST_QUEUE_DEPTH - self.host_queue.len()
    }

    /// Advances the cube one CPU cycle; responses delivered to the host at
    /// `now` are appended to `out`. `prof` splits the cube's host time
    /// into serdes-link, crossbar, and vault bins.
    pub fn tick(&mut self, now: Cycle, out: &mut Vec<MemResponse>, prof: &mut Profiler) {
        debug_assert!(
            self.vault_out.is_empty(),
            "vault scratch not drained between ticks"
        );
        let t = prof.stamp();
        self.return_tokens(now);
        self.launch_requests(now);
        let _ = prof.lap(Comp::SerdesLinks, t);
        // Scoped spans: prefetch-buffer lookups (crossbar) and the
        // vault-internal phase laps nest inside these frames.
        prof.enter(Comp::Crossbar);
        self.deliver_requests(now, prof);
        self.retry_vault_queues(now, prof);
        prof.exit(Comp::Crossbar);
        prof.enter(Comp::VaultTick);
        self.tick_vaults(now, prof);
        let t = prof.exit(Comp::VaultTick);
        self.launch_responses(now);
        self.deliver_responses(now, out);
        let _ = prof.lap(Comp::SerdesLinks, t);
    }

    fn return_tokens(&mut self, now: Cycle) {
        while let Some(Reverse((at, idx, flits, is_resp))) = self.token_returns.peek().copied() {
            if at > now {
                break;
            }
            self.token_returns.pop();
            if is_resp {
                self.resp_links.release(idx, flits);
            } else {
                self.req_links.release(idx, flits);
            }
        }
    }

    fn launch_requests(&mut self, now: Cycle) {
        while let Some(&req) = self.host_queue.front() {
            let packet = Packet::request(req, &self.link_cfg, self.block_bytes);
            let Some((link_idx, exit_link)) = self.req_links.send(&packet, now) else {
                break; // token-blocked; retry next cycle
            };
            self.host_queue.pop_front();
            self.obs.stamp(req.id.0, Point::LinkLaunch, now);
            self.token_returns
                .push(Reverse((exit_link, link_idx, packet.flits, false)));
            let vault = self.mapping.decode(req.addr).vault;
            let arrive = self.req_xbar.route(usize::from(vault), exit_link);
            self.inflight_req.push(Reverse((arrive, self.seq, packet)));
            self.seq += 1;
        }
    }

    fn deliver_requests(&mut self, now: Cycle, prof: &mut Profiler) {
        while self
            .inflight_req
            .peek()
            .is_some_and(|Reverse((at, _, _))| *at <= now)
        {
            let Some(Reverse((_, _, packet))) = self.inflight_req.pop() else {
                break;
            };
            self.req_deliveries += 1;
            if self.faults.drop_request_every > 0
                && self
                    .req_deliveries
                    .is_multiple_of(self.faults.drop_request_every)
            {
                self.obs.mark("fault_drop_request", now);
                self.obs.abort(packet.request.id.0);
                continue; // injected fault: packet vanishes at the crossbar
            }
            let req = packet.request;
            let d = self.mapping.decode(req.addr);
            let v = usize::from(d.vault);
            self.obs.arrive(req.id.0, d.vault, now);
            self.due[v] = 0;
            let pt = prof.stamp();
            let accepted = self.vaults[v].try_enqueue(req, d, now);
            let _ = prof.lap(Comp::PfLookup, pt);
            if !accepted {
                self.vault_retry[v].push_back(req);
            }
        }
    }

    fn retry_vault_queues(&mut self, now: Cycle, prof: &mut Profiler) {
        for v in 0..self.vaults.len() {
            while let Some(&req) = self.vault_retry[v].front() {
                let d = self.mapping.decode(req.addr);
                self.due[v] = 0;
                let pt = prof.stamp();
                let accepted = self.vaults[v].try_enqueue(req, d, now);
                let _ = prof.lap(Comp::PfLookup, pt);
                if accepted {
                    self.vault_retry[v].pop_front();
                } else {
                    break;
                }
            }
        }
    }

    /// Ticks every vault that is due and, while gated, caches its own
    /// wake as its next due cycle. Nothing but input changes a vault
    /// between its ticks, so the cache stays exact until then. A vault an
    /// injected stall freezes is never ticked and keeps its last due
    /// cycle (0 once input reaches it): a lower bound on a state that no
    /// longer changes.
    fn tick_vaults(&mut self, now: Cycle, prof: &mut Profiler) {
        let stalled = self.stalled_vault(now);
        for (idx, v) in self.vaults.iter_mut().enumerate() {
            if stalled == Some(idx) {
                if !self.stall_marked {
                    self.obs.mark("fault_vault_stall", now);
                    self.stall_marked = true;
                }
                continue; // injected fault: the vault makes no progress
            }
            if self.gated && self.due[idx] > now {
                continue;
            }
            v.tick(now, &mut self.vault_out, prof);
            self.vault_ticks += 1;
            if self.gated {
                self.due[idx] = v.next_event(now).unwrap_or(Cycle::MAX);
            }
        }
        for resp in &self.vault_out {
            self.obs
                .stamp(resp.id.0, Point::RespReady, resp.completed_at);
        }
        self.resp_queue.extend(self.vault_out.drain(..));
    }

    fn launch_responses(&mut self, now: Cycle) {
        while let Some(&resp) = self.resp_queue.front() {
            let req = MemRequest {
                id: resp.id,
                addr: resp.addr,
                kind: resp.kind,
                core: resp.core,
                created_at: resp.created_at,
            };
            let packet = Packet::response(req, &self.link_cfg, self.block_bytes);
            // Crossbar hop from the vault to the link, then serialize.
            let Some(link_idx) = self.resp_links.pick(packet.flits) else {
                break;
            };
            let at_link = self.resp_xbar.route(link_idx, now);
            let Some((idx, delivered)) = self.resp_links.send(&packet, at_link) else {
                break;
            };
            debug_assert_eq!(idx, link_idx);
            self.resp_queue.pop_front();
            self.token_returns
                .push(Reverse((delivered, idx, packet.flits, true)));
            let mut final_resp = resp;
            final_resp.completed_at = delivered;
            self.inflight_resp
                .push(Reverse((delivered, self.seq, final_resp)));
            self.seq += 1;
        }
    }

    fn deliver_responses(&mut self, now: Cycle, out: &mut Vec<MemResponse>) {
        while self
            .inflight_resp
            .peek()
            .is_some_and(|Reverse((at, _, _))| *at <= now)
        {
            let Some(Reverse((_, _, resp))) = self.inflight_resp.pop() else {
                break;
            };
            self.resp_deliveries += 1;
            if self.faults.duplicate_response_every > 0
                && self
                    .resp_deliveries
                    .is_multiple_of(self.faults.duplicate_response_every)
            {
                self.obs.mark("fault_duplicate_response", now);
                out.push(resp); // injected fault: the response arrives twice
            }
            out.push(resp);
        }
    }

    /// True while any queue, vault, or in-flight packet has work left.
    #[must_use]
    pub fn busy(&self) -> bool {
        !self.host_queue.is_empty()
            || !self.inflight_req.is_empty()
            || !self.inflight_resp.is_empty()
            || !self.resp_queue.is_empty()
            || self.vault_retry.iter().any(|q| !q.is_empty())
            || self.vaults.iter().any(VaultController::busy)
    }

    /// Finalizes every vault and returns the merged statistics, including
    /// link FLIT counts folded into the energy model.
    pub fn finalize(&mut self, now: Cycle) -> VaultStats {
        let mut merged = VaultStats::new();
        for v in &mut self.vaults {
            v.finalize(now);
            merged.merge(v.stats());
        }
        let (_, req_flits, _) = self.req_links.stats();
        let (_, resp_flits, _) = self.resp_links.stats();
        merged.energy.link_flits = req_flits + resp_flits;
        merged
    }

    /// Per-vault view (tests, ablations).
    #[must_use]
    pub fn vaults(&self) -> &[VaultController] {
        &self.vaults
    }

    /// Host-controller queue occupancy (watchdog diagnostics).
    #[must_use]
    pub fn host_queue_len(&self) -> usize {
        self.host_queue.len()
    }

    /// Free token counts on the request-direction links.
    #[must_use]
    pub fn req_link_tokens(&self) -> Vec<u32> {
        self.req_links.tokens_free()
    }

    /// Free token counts on the response-direction links.
    #[must_use]
    pub fn resp_link_tokens(&self) -> Vec<u32> {
        self.resp_links.tokens_free()
    }

    /// Occupancy snapshots of every vault, with the host-side retry-queue
    /// depths filled in (watchdog diagnostics).
    #[must_use]
    pub fn vault_snapshots(&self) -> Vec<VaultSnapshot> {
        self.vaults
            .iter()
            .zip(&self.vault_retry)
            .map(|(v, retry)| {
                let mut snap = v.snapshot();
                snap.retry_q = retry.len();
                snap
            })
            .collect()
    }
}

impl Wake for HmcDevice {
    /// Earliest cycle at which the cube can make progress: the heads of
    /// the three timestamped heaps (token returns, in-flight requests,
    /// in-flight responses), an immediate wake whenever a queue head could
    /// launch this instant (host queue with link tokens free, response
    /// queue with response tokens free, or any non-empty vault retry queue
    /// — retries probe the prefetch buffer and count lookups, so they must
    /// run every cycle), and the earliest cached due cycle of any vault
    /// (0 under polling, so the next cycle). Token-blocked
    /// queue heads need no wake of their own: the tokens they wait for are
    /// always represented by a pending `token_returns` entry. Serial links
    /// and crossbars hold no timers: a send only queues behind a busy
    /// serializer, routing happens synchronously inside the tick, and the
    /// packets in flight wait in the heaps above.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let next = now + 1;
        // Cheapest immediate-wake sources first: once the answer is
        // `now + 1` nothing can beat it, so stop scanning.
        if self.vault_retry.iter().any(|q| !q.is_empty()) {
            return Some(next);
        }
        if let Some(&req) = self.host_queue.front() {
            let flits = Packet::request_flits(req.kind, &self.link_cfg, self.block_bytes);
            if self.req_links.pick(flits).is_some() {
                return Some(next);
            }
        }
        if let Some(&resp) = self.resp_queue.front() {
            let flits = Packet::response_flits(resp.kind, &self.link_cfg, self.block_bytes);
            if self.resp_links.pick(flits).is_some() {
                return Some(next);
            }
        }
        let mut wake: Option<Cycle> = None;
        if let Some(Reverse((at, _, _, _))) = self.token_returns.peek() {
            fold_wake(&mut wake, now, Some(*at));
        }
        if let Some(Reverse((at, _, _))) = self.inflight_req.peek() {
            fold_wake(&mut wake, now, Some(*at));
        }
        if let Some(Reverse((at, _, _))) = self.inflight_resp.peek() {
            fold_wake(&mut wake, now, Some(*at));
        }
        let due = self.due.iter().copied().min();
        fold_wake(&mut wake, now, due.filter(|&at| at != Cycle::MAX));
        wake
    }
}

impl HmcDevice {
    fn check_restored(&mut self) -> Result<(), de::Error> {
        if self.host_queue.len() > HOST_QUEUE_DEPTH {
            return Err(de::Error::custom(format!(
                "snapshot: host queue holds {} requests (depth {HOST_QUEUE_DEPTH})",
                self.host_queue.len()
            )));
        }
        // The restored vaults' due cycles are unknown: make all due.
        self.due.fill(0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camps_types::addr::PhysAddr;
    use camps_types::request::{AccessKind, CoreId, RequestId, ServiceSource};
    use camps_types::snapshot::Snapshot;

    fn cfg() -> SystemConfig {
        SystemConfig::paper_default()
    }

    fn read(id: u64, addr: u64, now: Cycle) -> MemRequest {
        MemRequest {
            id: RequestId(id),
            addr: PhysAddr(addr),
            kind: AccessKind::Read,
            core: CoreId(0),
            created_at: now,
        }
    }

    fn run(
        h: &mut HmcDevice,
        start: Cycle,
        want: usize,
        limit: Cycle,
    ) -> (Vec<MemResponse>, Cycle) {
        let mut out = Vec::new();
        let mut now = start;
        while out.len() < want && now < start + limit {
            now += 1;
            h.tick(now, &mut out, &mut Profiler::off());
        }
        (out, now)
    }

    #[test]
    fn read_round_trip_includes_link_and_dram_latency() {
        let c = cfg();
        let mut h = HmcDevice::new(&c, SchemeKind::Nopf).unwrap();
        assert!(h.submit(read(1, 0x1234_5678, 0)));
        let (out, _) = run(&mut h, 0, 1, 50_000);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, RequestId(1));
        assert_eq!(out[0].source, ServiceSource::RowBufferMiss);
        // Row-miss DRAM latency alone is tRCD+tCL+tBURST = 99 CPU cycles;
        // links, crossbar and SerDes must add on top.
        assert!(out[0].latency() > 99 + 20, "latency {}", out[0].latency());
    }

    #[test]
    fn requests_to_different_vaults_proceed_in_parallel() {
        let c = cfg();
        let mut h = HmcDevice::new(&c, SchemeKind::Nopf).unwrap();
        // 1 KB apart → adjacent vaults under RoRaBaVaCo.
        for i in 0..8u64 {
            assert!(h.submit(read(i, i * 1024, 0)));
        }
        let (out, end) = run(&mut h, 0, 8, 50_000);
        assert_eq!(out.len(), 8);
        // Parallel service: the whole batch should not take 8× a single
        // round trip.
        let single = {
            let mut h2 = HmcDevice::new(&c, SchemeKind::Nopf).unwrap();
            h2.submit(read(99, 0, 0));
            let (o, _) = run(&mut h2, 0, 1, 50_000);
            o[0].latency()
        };
        assert!(
            end < single * 4,
            "8 vault-parallel reads took {end} vs single {single}"
        );
    }

    #[test]
    fn host_queue_backpressure() {
        let c = cfg();
        let mut h = HmcDevice::new(&c, SchemeKind::Nopf).unwrap();
        let mut accepted = 0u64;
        for i in 0..200 {
            if h.submit(read(i, i * 64, 0)) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 64, "host queue depth is 64");
        assert_eq!(h.headroom(), 0);
    }

    #[test]
    fn busy_drains_to_idle() {
        let c = cfg();
        let mut h = HmcDevice::new(&c, SchemeKind::Base).unwrap();
        for i in 0..16u64 {
            h.submit(read(i, i * 4096, 0));
        }
        assert!(h.busy());
        let mut out = Vec::new();
        let mut now = 0;
        while h.busy() && now < 200_000 {
            now += 1;
            h.tick(now, &mut out, &mut Profiler::off());
        }
        assert!(!h.busy(), "cube must drain");
        assert_eq!(out.len(), 16);
    }

    #[test]
    fn finalize_merges_vault_stats_and_link_flits() {
        let c = cfg();
        let mut h = HmcDevice::new(&c, SchemeKind::Nopf).unwrap();
        h.submit(read(1, 0, 0));
        let (_, end) = run(&mut h, 0, 1, 50_000);
        let stats = h.finalize(end);
        assert_eq!(stats.reads.get(), 1);
        assert_eq!(stats.row_misses.get(), 1);
        // 1 request FLIT + 5 response FLITs.
        assert_eq!(stats.energy.link_flits, 6);
    }

    #[test]
    fn drop_fault_swallows_the_request() {
        let mut c = cfg();
        c.faults.drop_request_every = 1; // drop every request packet
        let mut h = HmcDevice::new(&c, SchemeKind::Nopf).unwrap();
        assert!(h.submit(read(1, 0, 0)));
        let (out, _) = run(&mut h, 0, 1, 20_000);
        assert!(out.is_empty(), "a dropped request must never answer");
    }

    #[test]
    fn duplicate_fault_delivers_the_same_response_twice() {
        let mut c = cfg();
        c.faults.duplicate_response_every = 1;
        let mut h = HmcDevice::new(&c, SchemeKind::Nopf).unwrap();
        assert!(h.submit(read(1, 0, 0)));
        let (out, _) = run(&mut h, 0, 2, 50_000);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id, out[1].id, "both deliveries carry one id");
    }

    #[test]
    fn stalled_vault_stops_answering_and_snapshot_shows_the_backlog() {
        let mut c = cfg();
        c.faults.stall_vault = 0;
        c.faults.stall_vault_from = 1;
        let mut h = HmcDevice::new(&c, SchemeKind::Nopf).unwrap();
        assert!(h.submit(read(1, 0, 0))); // address 0 decodes to vault 0
        let (out, end) = run(&mut h, 0, 1, 20_000);
        assert!(out.is_empty(), "a stalled vault must never answer");
        assert!(h.busy(), "the wedged request keeps the cube busy");
        let snaps = h.vault_snapshots();
        assert_eq!(snaps.len(), c.hmc.vaults as usize);
        let stuck = &snaps[0];
        assert_eq!(
            stuck.read_q + stuck.retry_q,
            1,
            "the request is parked in vault 0 at cycle {end}: {stuck:?}"
        );
    }

    #[test]
    fn snapshot_mid_flight_resumes_bit_identically() {
        let c = cfg();
        for scheme in SchemeKind::ALL {
            let mut a = HmcDevice::new(&c, scheme).unwrap();
            // Mixed pattern: cross-vault strides plus same-bank conflicts so
            // links, crossbar, queues, and DRAM state are all mid-flight.
            for i in 0..24u64 {
                let addr = if i % 3 == 0 { i * (1 << 19) } else { i * 1024 };
                a.submit(read(i, addr, 0));
            }
            let mut out_a = Vec::new();
            let mut now = 0;
            // Stop mid-flight: some responses delivered, some in the wires.
            while now < 400 {
                now += 1;
                a.tick(now, &mut out_a, &mut Profiler::off());
            }
            assert!(a.busy(), "scheme {scheme:?}: cube must still be busy");
            let state = a.save_state();
            let mut b = HmcDevice::new(&c, scheme).unwrap();
            b.restore_state(&state)
                .unwrap_or_else(|e| panic!("scheme {scheme:?}: restore failed: {e}"));
            let pending = out_a.len();
            let mut out_b = Vec::new();
            while (a.busy() || b.busy()) && now < 500_000 {
                now += 1;
                a.tick(now, &mut out_a, &mut Profiler::off());
                b.tick(now, &mut out_b, &mut Profiler::off());
            }
            assert!(!a.busy() && !b.busy(), "scheme {scheme:?}: must drain");
            assert_eq!(
                &out_a[pending..],
                &out_b[..],
                "scheme {scheme:?}: post-snapshot responses diverged"
            );
            let sa = a.finalize(now);
            let sb = b.finalize(now);
            assert_eq!(
                format!("{sa:?}"),
                format!("{sb:?}"),
                "scheme {scheme:?}: finalized stats diverged"
            );
        }
    }

    #[test]
    fn restoring_over_a_running_cube_makes_every_vault_due() {
        // Due cycles are runtime-only, so an overlay must not keep the
        // ones of the cube it lands on: here that cube has drained, and
        // its vaults sleep until refresh while the snapshot's have work.
        let c = cfg();
        let mut a = HmcDevice::new(&c, SchemeKind::Camps).unwrap();
        for i in 0..24u64 {
            a.submit(read(i, i * 1024, 0));
        }
        let mut out_a = Vec::new();
        for now in 1..=100 {
            a.tick(now, &mut out_a, &mut Profiler::off());
        }
        let state = a.save_state();
        let mut b = HmcDevice::new(&c, SchemeKind::Camps).unwrap();
        b.submit(read(99, 0, 0));
        let (_, end) = run(&mut b, 0, 1, 50_000);
        assert!(
            end > 100 && !b.busy(),
            "b must drain past the snapshot cycle"
        );
        b.restore_state(&state).unwrap();
        let pending = out_a.len();
        let mut out_b = Vec::new();
        let mut now = 100;
        while (a.busy() || b.busy()) && now < 100_000 {
            now += 1;
            a.tick(now, &mut out_a, &mut Profiler::off());
            b.tick(now, &mut out_b, &mut Profiler::off());
        }
        assert_eq!(&out_a[pending..], &out_b[..]);
        assert_eq!(a.finalize(now), b.finalize(now));
    }

    #[test]
    fn snapshot_rejects_wrong_vault_count() {
        let paper = cfg();
        let mut a = HmcDevice::new(&paper, SchemeKind::Nopf).unwrap();
        a.submit(read(1, 0, 0));
        let mut out = Vec::new();
        a.tick(1, &mut out, &mut Profiler::off());
        let state = a.save_state();
        let mut small = SystemConfig::small();
        small.hmc.vaults = paper.hmc.vaults / 2;
        let mut b = HmcDevice::new(&small, SchemeKind::Nopf).unwrap();
        let err = b.restore_state(&state).unwrap_err();
        assert!(err.to_string().contains("vault"), "got: {err}");
    }

    #[test]
    fn invalid_config_is_rejected_not_panicked() {
        let mut c = cfg();
        c.link.tokens = 0;
        assert!(matches!(
            HmcDevice::new(&c, SchemeKind::Nopf),
            Err(SimError::Config(_))
        ));
    }

    #[test]
    fn same_bank_requests_serialize_more_than_cross_vault() {
        let c = cfg();
        // Same vault, same bank, different rows → conflicts serialize.
        let mut h = HmcDevice::new(&c, SchemeKind::Nopf).unwrap();
        let row_stride = 1u64 << 19; // same vault & bank, next row (RoRaBaVaCo)
        for i in 0..4u64 {
            h.submit(read(i, i * row_stride, 0));
        }
        let (out_same, end_same) = run(&mut h, 0, 4, 100_000);
        assert_eq!(out_same.len(), 4);
        let mut h2 = HmcDevice::new(&c, SchemeKind::Nopf).unwrap();
        for i in 0..4u64 {
            h2.submit(read(i, i * 1024, 0)); // different vaults
        }
        let (_, end_diff) = run(&mut h2, 0, 4, 100_000);
        assert!(
            end_same > end_diff,
            "same-bank {end_same} vs cross-vault {end_diff}"
        );
        let stats = h.finalize(end_same);
        assert!(stats.row_conflicts.get() >= 2);
    }
}
