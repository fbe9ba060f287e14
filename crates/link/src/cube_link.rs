//! Inter-cube interconnect: the hop links that wire a pool of cubes into
//! a chain or star behind the host-attached cube.
//!
//! The HMC spec's scaling story is cube chaining: cube 0 owns the host
//! links and every further cube is reached over pass-through hops, each a
//! full-duplex serial bundle just like the host links. This module reuses
//! the FLIT serialization model from [`crate::serdes`] — a packet of `n`
//! FLITs occupies a hop's serializer for `n × flit_cycles` and lands
//! `hop_cycles` after its last FLIT — but store-and-forward across
//! multiple hops: a chained cube `c` pays the full serialize+propagate
//! cost at each of its `c` edges.
//!
//! Flow control is handled one level up: the topology layer bounds the
//! requests in transit per cube against that cube's headroom, so hop
//! links themselves never need token credits and can never deadlock.

use camps_types::clock::{serialization_cycles, Cycle};
use camps_types::config::{LinkConfig, TopologyConfig, TopologyKind};
use serde::{Deserialize, Serialize};

/// One direction of one inter-cube edge: a serializer plus fixed
/// propagation, store-and-forward.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HopLink {
    flit_cycles: Cycle,
    hop_cycles: Cycle,
    busy_until: Cycle,
    // Statistics.
    packets: u64,
    flits: u64,
    busy_cycles: Cycle,
}

impl HopLink {
    fn new(flit_cycles: Cycle, hop_cycles: Cycle) -> Self {
        Self {
            flit_cycles,
            hop_cycles,
            busy_until: 0,
            packets: 0,
            flits: 0,
            busy_cycles: 0,
        }
    }

    /// Serializes `flits` FLITs no earlier than `now`; returns the cycle
    /// the packet lands at the far end of this edge.
    pub fn send(&mut self, flits: u32, now: Cycle) -> Cycle {
        let start = now.max(self.busy_until);
        let serialized = start + Cycle::from(flits) * self.flit_cycles;
        self.busy_until = serialized;
        self.busy_cycles += serialized - start;
        self.packets += 1;
        self.flits += u64::from(flits);
        serialized + self.hop_cycles
    }

    /// Earliest cycle the serializer is free.
    #[must_use]
    pub fn ready_at(&self) -> Cycle {
        self.busy_until
    }

    /// Lifetime (packets, FLITs, serializer-busy cycles).
    #[must_use]
    pub fn stats(&self) -> (u64, u64, Cycle) {
        (self.packets, self.flits, self.busy_cycles)
    }
}

/// The full inter-cube fabric: `cubes - 1` full-duplex edges arranged as
/// a chain or star, with a routing table from cube id to the edges a
/// packet traverses.
///
/// Cube 0 is host-attached in both topologies and is always zero hops
/// away — a single-cube fabric has no edges at all, so the 1-cube
/// machine spends no cycles here.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CubeFabric {
    kind: TopologyKind,
    cubes: u32,
    /// Host→cube direction, one per edge.
    req_hops: Vec<HopLink>,
    /// Cube→host direction, one per edge.
    resp_hops: Vec<HopLink>,
}

impl CubeFabric {
    /// Builds the fabric for `topo` with hop serializers matching the
    /// host-link FLIT rate from `link` at `cpu_hz`.
    #[must_use]
    pub fn new(topo: &TopologyConfig, link: &LinkConfig, cpu_hz: u64) -> Self {
        let flit_cycles = serialization_cycles(
            u64::from(link.flit_bytes),
            link.lanes,
            link.lane_gbps,
            cpu_hz,
        )
        .max(1);
        let edges = topo.cubes.saturating_sub(1) as usize;
        Self {
            kind: topo.kind,
            cubes: topo.cubes,
            req_hops: (0..edges)
                .map(|_| HopLink::new(flit_cycles, topo.hop_cycles))
                .collect(),
            resp_hops: (0..edges)
                .map(|_| HopLink::new(flit_cycles, topo.hop_cycles))
                .collect(),
        }
    }

    /// Number of cubes this fabric connects.
    #[must_use]
    pub fn cubes(&self) -> u32 {
        self.cubes
    }

    /// Interconnect shape.
    #[must_use]
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Number of edges a packet to `cube` traverses (0 for the
    /// host-attached cube 0 in both topologies).
    #[must_use]
    pub fn hops(&self, cube: u16) -> u32 {
        match self.kind {
            TopologyKind::Chain => u32::from(cube),
            TopologyKind::Star => u32::from(cube != 0),
        }
    }

    /// Edge indices traversed host→`cube`, in order.
    fn route(&self, cube: u16) -> std::ops::Range<usize> {
        let c = usize::from(cube);
        match self.kind {
            TopologyKind::Chain => 0..c,
            TopologyKind::Star => c.saturating_sub(1)..c,
        }
    }

    /// Ships a request of `flits` FLITs toward `cube`, store-and-forward
    /// across every edge on its route; returns the arrival cycle.
    ///
    /// # Panics
    /// Panics if `cube` is outside the pool (simulator bug).
    pub fn send_request(&mut self, cube: u16, flits: u32, now: Cycle) -> Cycle {
        assert!(u32::from(cube) < self.cubes, "cube {cube} out of range");
        self.route(cube)
            .fold(now, |t, e| self.req_hops[e].send(flits, t))
    }

    /// Ships a response of `flits` FLITs from `cube` back to the host,
    /// traversing the route in reverse; returns the arrival cycle.
    ///
    /// # Panics
    /// Panics if `cube` is outside the pool (simulator bug).
    pub fn send_response(&mut self, cube: u16, flits: u32, now: Cycle) -> Cycle {
        assert!(u32::from(cube) < self.cubes, "cube {cube} out of range");
        self.route(cube)
            .rev()
            .fold(now, |t, e| self.resp_hops[e].send(flits, t))
    }

    /// Aggregate (packets, FLITs, serializer-busy cycles) across both
    /// directions of every edge.
    #[must_use]
    pub fn stats(&self) -> (u64, u64, Cycle) {
        self.req_hops
            .iter()
            .chain(&self.resp_hops)
            .fold((0, 0, 0), |(p, f, b), l| {
                let (lp, lf, lb) = l.stats();
                (p + lp, f + lf, b + lb)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camps_types::config::SystemConfig;

    const CPU_HZ: u64 = 3_000_000_000;

    fn fabric(cubes: u32, kind: TopologyKind) -> CubeFabric {
        let cfg = SystemConfig::paper_default();
        let topo = TopologyConfig {
            cubes,
            kind,
            ..TopologyConfig::default()
        };
        CubeFabric::new(&topo, &cfg.link, CPU_HZ)
    }

    #[test]
    fn single_cube_fabric_has_no_edges_and_no_latency() {
        for kind in [TopologyKind::Chain, TopologyKind::Star] {
            let mut f = fabric(1, kind);
            assert_eq!(f.hops(0), 0);
            assert_eq!(f.send_request(0, 1, 123), 123);
            assert_eq!(f.send_response(0, 5, 456), 456);
            assert_eq!(f.stats(), (0, 0, 0));
        }
    }

    #[test]
    fn chain_latency_grows_with_cube_index() {
        let mut f = fabric(4, TopologyKind::Chain);
        // Paper link config: 2 cycles/FLIT, 10 cycles/hop. 1-FLIT request
        // to cube c pays c × (2 + 10).
        assert_eq!(f.hops(2), 2);
        assert_eq!(f.send_request(1, 1, 0), 12);
        let mut f = fabric(4, TopologyKind::Chain);
        assert_eq!(f.send_request(3, 1, 0), 36);
    }

    #[test]
    fn star_is_one_hop_to_every_remote_cube() {
        let mut f = fabric(4, TopologyKind::Star);
        for cube in 1..4u16 {
            assert_eq!(f.hops(cube), 1);
        }
        // Distinct cubes use distinct dedicated edges: no queueing.
        assert_eq!(f.send_request(1, 1, 0), 12);
        assert_eq!(f.send_request(2, 1, 0), 12);
        assert_eq!(f.send_request(3, 1, 0), 12);
    }

    #[test]
    fn chain_shares_the_first_edge() {
        let mut f = fabric(4, TopologyKind::Chain);
        // Both packets cross edge 0; the second serializes behind the
        // first there, then pays its remaining hops.
        let d1 = f.send_request(1, 5, 0);
        let d2 = f.send_request(2, 5, 0);
        assert_eq!(d1, 20);
        // Waits 10 for edge 0's serializer, crosses it (arrives 30), then
        // re-serializes the full packet on edge 1: 30 + 10 + 10.
        assert_eq!(d2, 50);
    }

    #[test]
    fn responses_use_their_own_direction() {
        let mut f = fabric(2, TopologyKind::Chain);
        let req = f.send_request(1, 1, 0);
        let resp = f.send_response(1, 5, 0);
        // Full duplex: the response does not queue behind the request.
        assert_eq!(req, 12);
        assert_eq!(resp, 20);
    }

    #[test]
    fn fabric_round_trips_through_snapshot_value() {
        use serde::{Deserialize as _, Serialize as _};
        let mut f = fabric(4, TopologyKind::Star);
        f.send_request(3, 5, 7);
        f.send_response(2, 1, 9);
        let v = f.to_value();
        let back = CubeFabric::from_value(&v).unwrap();
        assert_eq!(back, f);
    }
}
