//! The multi-cube pool: address interleaving, inter-cube interconnect,
//! and per-cube request/response routing.
//!
//! [`Topology`] is the layer between [`MemorySubsystem`] and the cubes.
//! It owns a [`CubeMap`] (which cube a global address lives on, and what
//! that cube calls it locally), a [`CubeFabric`] (the chain/star hop
//! links), and one [`HmcDevice`] per cube. Each cube is a completely
//! ordinary single-cube device — it sees only cube-local addresses, so
//! its vault controllers, prefetch schemes, and snapshots are oblivious
//! to the pool around them.
//!
//! **The single-cube contract.** With `cubes = 1` every method takes a
//! fast path straight to `cubes[0]`: no address translation (the splice
//! is the identity), no fabric, no transit heaps, and `save_state`
//! returns the bare device state — bit-identical behaviour *and*
//! checkpoint bytes versus the pre-topology engine.
//!
//! [`MemorySubsystem`]: crate::system::MemorySubsystem

use crate::hmc::HmcDevice;
use camps_link::cube_link::CubeFabric;
use camps_link::packet::Packet;
use camps_obs::{Comp, Profiler, TraceHandle};
use camps_prefetch::SchemeKind;
use camps_types::addr::{CubeMap, PhysAddr};
use camps_types::clock::Cycle;
use camps_types::config::SystemConfig;
use camps_types::error::{SimError, VaultSnapshot};
use camps_types::request::{MemRequest, MemResponse};
use camps_types::wake::{fold_wake, Wake};
use camps_vault::VaultStats;
use serde::value::{lookup, Value};
use serde::{de, Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// The pool of cubes behind the host memory controller.
pub struct Topology {
    cube_map: CubeMap,
    link_cfg: camps_types::config::LinkConfig,
    block_bytes: u32,
    /// Everything a multi-cube snapshot captures.
    pool: Pool,
    /// Scratch for per-cube responses within a tick.
    cube_out: Vec<MemResponse>,
    obs: TraceHandle,
}

/// The pool's mutable state: the cubes and the fabric between them.
#[derive(Serialize, Deserialize)]
struct Pool {
    cubes: Box<[HmcDevice]>,
    fabric: CubeFabric,
    /// Requests crossing the fabric: (arrival, seq, cube, local request).
    hop_req: BinaryHeap<Reverse<(Cycle, u64, u16, MemRequest)>>,
    /// Responses crossing back: (arrival, seq, global-address response).
    hop_resp: BinaryHeap<Reverse<(Cycle, u64, MemResponse)>>,
    /// Requests that arrived at a cube whose host queue was momentarily
    /// full, per cube; drained ahead of new fabric deliveries every tick.
    arrival_q: Box<[VecDeque<MemRequest>]>,
    /// Requests accepted but not yet in a cube's host queue, per cube.
    /// Subtracted from that cube's headroom so transit never overcommits.
    in_transit: Box<[usize]>,
    seq: u64,
}

impl Topology {
    /// Builds `cfg.topology.cubes` identical cubes, every vault running
    /// `scheme`, wired by the configured fabric.
    ///
    /// # Errors
    /// [`SimError::Config`] if the configuration fails validation.
    pub fn new(cfg: &SystemConfig, scheme: SchemeKind) -> Result<Self, SimError> {
        let cube_map = cfg.cube_map()?;
        let cubes = (0..cfg.topology.cubes)
            .map(|_| HmcDevice::new(cfg, scheme))
            .collect::<Result<Box<[_]>, _>>()?;
        let n = cubes.len();
        Ok(Self {
            cube_map,
            link_cfg: cfg.link,
            block_bytes: cfg.hmc.block_bytes,
            pool: Pool {
                cubes,
                fabric: CubeFabric::new(&cfg.topology, &cfg.link, cfg.cpu.freq_hz),
                hop_req: BinaryHeap::new(),
                hop_resp: BinaryHeap::new(),
                arrival_q: (0..n).map(|_| VecDeque::new()).collect(),
                in_transit: vec![0; n].into_boxed_slice(),
                seq: 0,
            },
            cube_out: Vec::new(),
            obs: TraceHandle::disabled(),
        })
    }

    /// Number of cubes in the pool.
    #[must_use]
    pub fn cubes(&self) -> usize {
        self.pool.cubes.len()
    }

    /// The pool-wide address interleaving stage.
    #[must_use]
    pub fn cube_map(&self) -> &CubeMap {
        &self.cube_map
    }

    /// Every cube in the pool.
    #[must_use]
    pub fn all_cubes(&self) -> &[HmcDevice] {
        &self.pool.cubes
    }

    /// Installs observability hooks on every cube (and for hop stamps).
    pub fn set_obs(&mut self, obs: TraceHandle) {
        for c in &mut self.pool.cubes {
            c.set_obs(obs.clone());
        }
        self.obs = obs;
    }

    /// Turns every cube's per-vault tick gate on or off.
    pub(crate) fn set_vault_gating(&mut self, on: bool) {
        self.pool
            .cubes
            .iter_mut()
            .for_each(|c| c.set_vault_gating(on));
    }

    /// Vault ticks run so far, summed over the pool.
    #[must_use]
    pub(crate) fn vault_ticks(&self) -> u64 {
        self.pool.cubes.iter().map(HmcDevice::vault_ticks).sum()
    }

    /// Vaults per cube; a request's pool-global vault index is
    /// `cube * vaults_per_cube() + local_vault`.
    #[must_use]
    pub fn vaults_per_cube(&self) -> usize {
        self.pool.cubes[0].vaults().len()
    }

    /// `(cube, pool-global vault index)` owning `addr`.
    #[must_use]
    pub fn route_of(&self, addr: PhysAddr) -> (u16, usize) {
        let cube = self.cube_map.cube_of(addr);
        let local = self
            .cube_map
            .mapping()
            .decode(self.cube_map.local_addr(addr));
        (
            cube,
            usize::from(cube) * self.vaults_per_cube() + usize::from(local.vault),
        )
    }

    /// Host-queue slots available for a request to `addr`: the owning
    /// cube's headroom minus requests already bound for it. Transit
    /// reservations make accepted requests always landable, so the
    /// fabric needs no flow-control credits of its own.
    #[must_use]
    pub fn headroom_for(&self, addr: PhysAddr) -> usize {
        if self.pool.cubes.len() == 1 {
            return self.pool.cubes[0].headroom();
        }
        let cube = usize::from(self.cube_map.cube_of(addr));
        self.pool.cubes[cube]
            .headroom()
            .saturating_sub(self.pool.in_transit[cube].min(self.pool.cubes[cube].headroom()))
    }

    /// Offers a request (global address) to the pool. `false` means the
    /// owning cube has no headroom left (caller retries). On the
    /// multi-cube path the request is translated to the owning cube's
    /// local address space and shipped over the fabric.
    pub fn submit(&mut self, req: MemRequest, now: Cycle) -> bool {
        if self.pool.cubes.len() == 1 {
            return self.pool.cubes[0].submit(req);
        }
        if self.headroom_for(req.addr) == 0 {
            return false;
        }
        let cube = self.cube_map.cube_of(req.addr);
        let local = MemRequest {
            addr: self.cube_map.local_addr(req.addr),
            ..req
        };
        let flits = Packet::request(local, &self.link_cfg, self.block_bytes).flits;
        let arrive = self.pool.fabric.send_request(cube, flits, now);
        self.pool.in_transit[usize::from(cube)] += 1;
        self.pool
            .hop_req
            .push(Reverse((arrive, self.pool.seq, cube, local)));
        self.pool.seq += 1;
        true
    }

    /// Advances the pool one CPU cycle; responses delivered to the host
    /// at `now` are appended to `out` with their global addresses.
    pub fn tick(&mut self, now: Cycle, out: &mut Vec<MemResponse>, prof: &mut Profiler) {
        if self.pool.cubes.len() == 1 {
            prof.enter(Comp::HmcTick);
            self.pool.cubes[0].tick(now, out, prof);
            prof.exit(Comp::HmcTick);
            return;
        }
        prof.enter(Comp::CubeFabric);
        // Fabric deliveries land in per-cube arrival queues...
        while self
            .pool
            .hop_req
            .peek()
            .is_some_and(|Reverse((at, _, _, _))| *at <= now)
        {
            let Some(Reverse((_, _, cube, req))) = self.pool.hop_req.pop() else {
                break;
            };
            self.pool.arrival_q[usize::from(cube)].push_back(req);
        }
        // ...and drain into the cubes' host queues as slots free up.
        for cube in 0..self.pool.cubes.len() {
            while let Some(&req) = self.pool.arrival_q[cube].front() {
                if !self.pool.cubes[cube].submit(req) {
                    break;
                }
                self.obs.cube_arrive(req.id.0, cube as u16, now);
                self.pool.arrival_q[cube].pop_front();
                self.pool.in_transit[cube] -= 1;
            }
        }
        debug_assert!(
            self.cube_out.is_empty(),
            "cube scratch not drained between ticks"
        );
        let mut responses = std::mem::take(&mut self.cube_out);
        for (idx, cube) in self.pool.cubes.iter_mut().enumerate() {
            responses.clear();
            prof.enter(Comp::HmcTick);
            cube.tick(now, &mut responses, prof);
            prof.exit(Comp::HmcTick);
            for resp in responses.drain(..) {
                // Back to the pool's address space, then over the fabric.
                let mut global = resp;
                global.addr = self.cube_map.global_addr(idx as u16, resp.addr);
                let req = MemRequest {
                    id: global.id,
                    addr: global.addr,
                    kind: global.kind,
                    core: global.core,
                    created_at: global.created_at,
                };
                let flits = Packet::response(req, &self.link_cfg, self.block_bytes).flits;
                let arrive = self.pool.fabric.send_response(idx as u16, flits, now);
                global.completed_at = global.completed_at.max(arrive);
                self.pool
                    .hop_resp
                    .push(Reverse((arrive, self.pool.seq, global)));
                self.pool.seq += 1;
            }
        }
        self.cube_out = responses;
        while self
            .pool
            .hop_resp
            .peek()
            .is_some_and(|Reverse((at, _, _))| *at <= now)
        {
            let Some(Reverse((_, _, resp))) = self.pool.hop_resp.pop() else {
                break;
            };
            out.push(resp);
        }
        prof.exit(Comp::CubeFabric);
    }

    /// True while any cube or fabric-transit work remains.
    #[must_use]
    pub fn busy(&self) -> bool {
        !self.pool.hop_req.is_empty()
            || !self.pool.hop_resp.is_empty()
            || self.pool.arrival_q.iter().any(|q| !q.is_empty())
            || self.pool.cubes.iter().any(HmcDevice::busy)
    }

    /// Requests plus responses currently crossing the fabric (gauge).
    #[must_use]
    pub fn link_inflight(&self) -> usize {
        self.pool.hop_req.len()
            + self.pool.hop_resp.len()
            + self.pool.arrival_q.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Finalizes every cube and merges the statistics; fabric FLITs fold
    /// into the energy model's link total alongside the host links.
    pub fn finalize(&mut self, now: Cycle) -> VaultStats {
        let mut merged = VaultStats::new();
        for c in &mut self.pool.cubes {
            merged.merge(&c.finalize(now));
        }
        let (_, fabric_flits, _) = self.pool.fabric.stats();
        merged.energy.link_flits += fabric_flits;
        merged
    }

    /// Total host-queue occupancy across the pool.
    #[must_use]
    pub fn host_queue_len(&self) -> usize {
        self.pool.cubes.iter().map(HmcDevice::host_queue_len).sum()
    }

    /// Per-cube host-queue depths (metrics sampling).
    #[must_use]
    pub fn host_queue_lens(&self) -> Vec<u64> {
        self.pool
            .cubes
            .iter()
            .map(|c| c.host_queue_len() as u64)
            .collect()
    }

    /// Free request-link tokens, all cubes concatenated in cube order.
    #[must_use]
    pub fn req_link_tokens(&self) -> Vec<u32> {
        self.pool
            .cubes
            .iter()
            .flat_map(HmcDevice::req_link_tokens)
            .collect()
    }

    /// Free response-link tokens, all cubes concatenated in cube order.
    #[must_use]
    pub fn resp_link_tokens(&self) -> Vec<u32> {
        self.pool
            .cubes
            .iter()
            .flat_map(HmcDevice::resp_link_tokens)
            .collect()
    }

    /// Occupancy snapshots of every vault, all cubes concatenated in
    /// cube order (pool-global vault indexing).
    #[must_use]
    pub fn vault_snapshots(&self) -> Vec<VaultSnapshot> {
        self.pool
            .cubes
            .iter()
            .flat_map(HmcDevice::vault_snapshots)
            .collect()
    }
}

impl Wake for Topology {
    /// Earliest progress edge across the pool: pending fabric arrivals,
    /// queued arrivals that may drain this cycle, and every cube's own
    /// wake. (Fabric serializers hold no spontaneous events — they only
    /// matter when a send happens, which other wakes already cover.)
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.pool.cubes.len() == 1 {
            return self.pool.cubes[0].next_event(now);
        }
        let next = now + 1;
        if self.pool.arrival_q.iter().any(|q| !q.is_empty()) {
            return Some(next);
        }
        let mut wake: Option<Cycle> = None;
        if let Some(Reverse((at, _, _, _))) = self.pool.hop_req.peek() {
            fold_wake(&mut wake, now, Some(*at));
        }
        if let Some(Reverse((at, _, _))) = self.pool.hop_resp.peek() {
            fold_wake(&mut wake, now, Some(*at));
        }
        for c in &self.pool.cubes {
            fold_wake(&mut wake, now, c.next_event(now));
            if wake == Some(next) {
                break;
            }
        }
        wake
    }
}

/// Single cube: the bare device state, byte-identical to the
/// pre-topology snapshot layout. Multi-cube: the `Pool`, whose `cubes`
/// key distinguishes it (a device state has no such key), so restore can
/// accept either.
impl Serialize for Topology {
    fn to_value(&self) -> Value {
        match &*self.pool.cubes {
            [cube] => cube.to_value(),
            _ => self.pool.to_value(),
        }
    }
}

impl Deserialize for Topology {
    fn from_value(_: &Value) -> Result<Self, de::Error> {
        Err(de::Error::custom(
            "snapshot: a cube pool restores only in place",
        ))
    }

    fn from_value_in_place(&mut self, v: &Value) -> Result<(), de::Error> {
        if matches!(v, Value::Map(entries) if lookup(entries, "cubes").is_some()) {
            return self.pool.from_value_in_place(v);
        }
        match &mut *self.pool.cubes {
            [cube] => cube.from_value_in_place(v),
            cubes => Err(de::Error::custom(format!(
                "snapshot: single-cube state for a {}-cube pool",
                cubes.len()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camps_types::config::TopologyKind;
    use camps_types::request::{AccessKind, CoreId, RequestId};
    use camps_types::snapshot::Snapshot;

    fn cfg(cubes: u32, kind: TopologyKind) -> SystemConfig {
        let mut c = SystemConfig::paper_default();
        c.topology.cubes = cubes;
        c.topology.kind = kind;
        c
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

    fn drain(
        t: &mut Topology,
        start: Cycle,
        want: usize,
        limit: Cycle,
    ) -> (Vec<MemResponse>, Cycle) {
        let mut out = Vec::new();
        let mut now = start;
        while out.len() < want && now < start + limit {
            now += 1;
            t.tick(now, &mut out, &mut Profiler::off());
        }
        (out, now)
    }

    #[test]
    fn responses_carry_global_addresses_back() {
        for kind in [TopologyKind::Chain, TopologyKind::Star] {
            let mut t = Topology::new(&cfg(4, kind), SchemeKind::Nopf).unwrap();
            // One read per cube: 1 KB granule stride with the default
            // 16-block interleave.
            for i in 0..4u64 {
                assert!(t.submit(read(i, i * 1024, 0), 0));
            }
            let (out, _) = drain(&mut t, 0, 4, 100_000);
            assert_eq!(out.len(), 4);
            let mut addrs: Vec<u64> = out.iter().map(|r| r.addr.0).collect();
            addrs.sort_unstable();
            assert_eq!(addrs, vec![0, 1024, 2048, 3072]);
        }
    }

    #[test]
    fn remote_cube_pays_interconnect_latency() {
        let paper = cfg(1, TopologyKind::Chain);
        let mut single = Topology::new(&paper, SchemeKind::Nopf).unwrap();
        assert!(single.submit(read(1, 0, 0), 0));
        let (out, _) = drain(&mut single, 0, 1, 100_000);
        let local_latency = out[0].latency();

        // Same cube-local address, but on the far cube of a 4-chain:
        // global addr with cube bits = 3 at the 1 KB granule.
        let mut far = Topology::new(&cfg(4, TopologyKind::Chain), SchemeKind::Nopf).unwrap();
        assert!(far.submit(read(1, 3 * 1024 /* cube 3, local 0 */, 0), 0));
        let (out, _) = drain(&mut far, 0, 1, 100_000);
        assert!(
            out[0].latency() > local_latency,
            "3 hops each way must cost more: {} vs {local_latency}",
            out[0].latency()
        );
    }

    #[test]
    fn headroom_reserves_in_transit_slots() {
        let mut t = Topology::new(&cfg(2, TopologyKind::Chain), SchemeKind::Nopf).unwrap();
        // Cube 1 addresses: granule 1 (1 KB..2 KB). Host queue depth is
        // 64; submit until refused.
        let mut accepted = 0u64;
        for i in 0..200u64 {
            if t.submit(read(i, 1024 + (i % 16) * 64, 0), 0) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 64, "transit must not overcommit the cube");
        assert_eq!(t.headroom_for(PhysAddr(1024)), 0);
        // The other cube is unaffected.
        assert_eq!(t.headroom_for(PhysAddr(0)), 64);
    }

    #[test]
    fn pool_drains_to_idle_under_load() {
        let mut t = Topology::new(&cfg(4, TopologyKind::Star), SchemeKind::Base).unwrap();
        for i in 0..32u64 {
            assert!(t.submit(read(i, i * 1024, 0), 0));
        }
        assert!(t.busy());
        let (out, mut now) = drain(&mut t, 0, 32, 400_000);
        assert_eq!(out.len(), 32);
        // Responses are all home, but memory-side prefetch fills may
        // still be in flight; the pool must reach quiescence.
        let mut sink = Vec::new();
        while t.busy() && now < 800_000 {
            now += 1;
            t.tick(now, &mut sink, &mut Profiler::off());
        }
        assert!(!t.busy(), "pool must drain");
        let stats = t.finalize(400_000);
        assert_eq!(stats.reads.get(), 32);
    }

    #[test]
    fn multicube_snapshot_round_trips_mid_flight() {
        let base = cfg(2, TopologyKind::Chain);
        let mut a = Topology::new(&base, SchemeKind::Camps).unwrap();
        for i in 0..24u64 {
            a.submit(read(i, i * 1024, 0), 0);
        }
        let mut out_a = Vec::new();
        let mut now = 0;
        while now < 40 {
            now += 1;
            a.tick(now, &mut out_a, &mut Profiler::off());
        }
        assert!(a.busy(), "pool must still be mid-flight");
        let state = a.save_state();
        let mut b = Topology::new(&base, SchemeKind::Camps).unwrap();
        b.restore_state(&state).unwrap();
        let pending = out_a.len();
        let mut out_b = Vec::new();
        while (a.busy() || b.busy()) && now < 500_000 {
            now += 1;
            a.tick(now, &mut out_a, &mut Profiler::off());
            b.tick(now, &mut out_b, &mut Profiler::off());
        }
        assert_eq!(&out_a[pending..], &out_b[..]);
        assert_eq!(
            format!("{:?}", a.finalize(now)),
            format!("{:?}", b.finalize(now))
        );
    }

    #[test]
    fn single_cube_snapshot_is_the_bare_device_state() {
        let paper = cfg(1, TopologyKind::Chain);
        let mut t = Topology::new(&paper, SchemeKind::Nopf).unwrap();
        t.submit(read(1, 0, 0), 0);
        let mut sink = Vec::new();
        t.tick(1, &mut sink, &mut Profiler::off());
        let via_topology = t.save_state();
        // The same traffic through a bare device must serialize equal.
        let mut d = HmcDevice::new(&paper, SchemeKind::Nopf).unwrap();
        d.submit(read(1, 0, 0));
        d.tick(1, &mut sink, &mut Profiler::off());
        assert_eq!(via_topology, d.save_state());
        // And a legacy (bare-device) snapshot restores into a 1-cube pool.
        let mut back = Topology::new(&paper, SchemeKind::Nopf).unwrap();
        back.restore_state(&d.save_state()).unwrap();
    }

    #[test]
    fn legacy_snapshot_rejected_by_multicube_pool() {
        let paper = cfg(1, TopologyKind::Chain);
        let d = HmcDevice::new(&paper, SchemeKind::Nopf).unwrap();
        let mut pool = Topology::new(&cfg(2, TopologyKind::Chain), SchemeKind::Nopf).unwrap();
        let err = pool.restore_state(&d.save_state()).unwrap_err();
        assert!(err.to_string().contains("cube"), "got: {err}");
    }
}
