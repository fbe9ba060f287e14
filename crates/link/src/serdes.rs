//! Serial-link timing: serialization, propagation, and token flow control.
//!
//! Each of the 4 links is full duplex: the request direction (host → cube)
//! and response direction (cube → host) serialize independently on their
//! own 16-lane bundles. A link serializes one packet at a time; a packet of
//! `n` FLITs occupies the serializer for `n × flit_cycles` and is delivered
//! `propagation_cycles` after its last FLIT leaves. Token-based flow
//! control bounds the FLITs in flight per direction (HMC 2.1 link-layer
//! credits); the receiver returns tokens when it drains a packet.

use crate::packet::Packet;
use camps_types::clock::{serialization_cycles, Cycle};
use camps_types::config::LinkConfig;
use serde::{Deserialize, Serialize};

/// One direction of one serial link.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SerialLink {
    flit_cycles: Cycle,
    propagation: Cycle,
    busy_until: Cycle,
    tokens_free: u32,
    tokens_total: u32,
    /// Idle threshold before entering the low-power state (0 = never).
    sleep_after_idle: Cycle,
    /// Re-training penalty when waking.
    wake_cycles: Cycle,
    /// Cycle of the last serialization activity.
    last_active: Cycle,
    // Statistics.
    packets: u64,
    flits: u64,
    busy_cycles: Cycle,
    wakeups: u64,
    asleep_cycles: Cycle,
}

impl SerialLink {
    /// Builds one link direction from the link configuration for a CPU at
    /// `cpu_hz`.
    #[must_use]
    pub fn new(cfg: &LinkConfig, cpu_hz: u64) -> Self {
        let flit_cycles =
            serialization_cycles(u64::from(cfg.flit_bytes), cfg.lanes, cfg.lane_gbps, cpu_hz)
                .max(1);
        Self {
            flit_cycles,
            propagation: cfg.propagation_cycles,
            busy_until: 0,
            tokens_free: cfg.tokens,
            tokens_total: cfg.tokens,
            sleep_after_idle: cfg.sleep_after_idle,
            wake_cycles: cfg.wake_cycles,
            last_active: 0,
            packets: 0,
            flits: 0,
            busy_cycles: 0,
            wakeups: 0,
            asleep_cycles: 0,
        }
    }

    /// True if the link would be in its low-power state at `now`
    /// (power management enabled and idle past the threshold).
    #[must_use]
    pub fn is_asleep(&self, now: Cycle) -> bool {
        self.sleep_after_idle > 0
            && now > self.busy_until
            && now.saturating_sub(self.last_active.max(self.busy_until)) > self.sleep_after_idle
    }

    /// Cycles to serialize one FLIT on this link.
    #[must_use]
    pub fn flit_cycles(&self) -> Cycle {
        self.flit_cycles
    }

    /// True if the link has credits for `flits` more FLITs.
    #[must_use]
    pub fn has_tokens(&self, flits: u32) -> bool {
        self.tokens_free >= flits
    }

    /// Flow-control credits currently available (watchdog diagnostics: a
    /// link pinned at zero free tokens is a flow-control deadlock).
    #[must_use]
    pub fn tokens_free(&self) -> u32 {
        self.tokens_free
    }

    /// Earliest cycle the serializer is free.
    #[must_use]
    pub fn ready_at(&self) -> Cycle {
        self.busy_until
    }

    /// Sends `packet` no earlier than `now`; returns the delivery cycle at
    /// the far end. Consumes `packet.flits` tokens — the receiver must
    /// return them via [`SerialLink::release`] when it drains the packet.
    ///
    /// # Panics
    /// Panics if flow-control tokens are exhausted (callers gate on
    /// [`SerialLink::has_tokens`]).
    pub fn send(&mut self, packet: &Packet, now: Cycle) -> Cycle {
        assert!(
            self.has_tokens(packet.flits),
            "link out of tokens: {} free, {} needed",
            self.tokens_free,
            packet.flits
        );
        self.tokens_free -= packet.flits;
        let mut start = now.max(self.busy_until);
        if self.is_asleep(now) {
            // Wake the SerDes: pay the re-training penalty first.
            start += self.wake_cycles;
            self.wakeups += 1;
            self.asleep_cycles +=
                now.saturating_sub(self.last_active.max(self.busy_until) + self.sleep_after_idle);
        }
        self.last_active = start;
        let serialized = start + Cycle::from(packet.flits) * self.flit_cycles;
        self.busy_until = serialized;
        self.busy_cycles += serialized - start;
        self.packets += 1;
        self.flits += u64::from(packet.flits);
        serialized + self.propagation
    }

    /// Returns `flits` flow-control tokens (receiver drained a packet).
    ///
    /// # Panics
    /// Panics on token over-release (simulator bug).
    pub fn release(&mut self, flits: u32) {
        self.tokens_free += flits;
        assert!(
            self.tokens_free <= self.tokens_total,
            "token over-release: {} > {}",
            self.tokens_free,
            self.tokens_total
        );
    }

    /// Lifetime (packets, FLITs, serializer-busy cycles).
    #[must_use]
    pub fn stats(&self) -> (u64, u64, Cycle) {
        (self.packets, self.flits, self.busy_cycles)
    }

    /// Power-management statistics: (wakeups, cycles spent asleep before
    /// each wake, accumulated).
    #[must_use]
    pub fn power_stats(&self) -> (u64, Cycle) {
        (self.wakeups, self.asleep_cycles)
    }
}

/// The cube's full set of links for one direction, with least-loaded
/// selection.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkSet {
    links: Vec<SerialLink>,
}

impl LinkSet {
    /// Builds `cfg.links` link directions.
    #[must_use]
    pub fn new(cfg: &LinkConfig, cpu_hz: u64) -> Self {
        Self {
            links: (0..cfg.links)
                .map(|_| SerialLink::new(cfg, cpu_hz))
                .collect(),
        }
    }

    /// Number of links.
    #[must_use]
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True if the set is empty (never, for valid configs).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Index of the link that could start serializing soonest among those
    /// with tokens for `flits`; `None` if every link is token-blocked.
    #[must_use]
    pub fn pick(&self, flits: u32) -> Option<usize> {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, l)| l.has_tokens(flits))
            .min_by_key(|(_, l)| l.ready_at())
            .map(|(i, _)| i)
    }

    /// Sends `packet` on the best available link at `now`; returns
    /// `(link_index, delivery_cycle)`, or `None` if all links are
    /// token-blocked (caller retries next cycle).
    pub fn send(&mut self, packet: &Packet, now: Cycle) -> Option<(usize, Cycle)> {
        let idx = self.pick(packet.flits)?;
        let delivery = self.links[idx].send(packet, now);
        Some((idx, delivery))
    }

    /// Returns tokens to link `idx`.
    pub fn release(&mut self, idx: usize, flits: u32) {
        self.links[idx].release(flits);
    }

    /// Aggregate (packets, FLITs, busy cycles) across the set.
    #[must_use]
    pub fn stats(&self) -> (u64, u64, Cycle) {
        self.links.iter().fold((0, 0, 0), |(p, f, b), l| {
            let (lp, lf, lb) = l.stats();
            (p + lp, f + lf, b + lb)
        })
    }

    /// Per-link free-token counts (watchdog diagnostics).
    #[must_use]
    pub fn tokens_free(&self) -> Vec<u32> {
        self.links.iter().map(SerialLink::tokens_free).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camps_types::addr::PhysAddr;
    use camps_types::config::SystemConfig;
    use camps_types::request::{AccessKind, CoreId, MemRequest, RequestId};

    fn cfg() -> camps_types::config::LinkConfig {
        SystemConfig::paper_default().link
    }

    fn packet(flits: u32) -> Packet {
        Packet {
            kind: crate::packet::PacketKind::ReadResp,
            request: MemRequest {
                id: RequestId(0),
                addr: PhysAddr(0),
                kind: AccessKind::Read,
                core: CoreId(0),
                created_at: 0,
            },
            flits,
        }
    }

    #[test]
    fn paper_flit_time_is_two_cycles() {
        let l = SerialLink::new(&cfg(), 3_000_000_000);
        // 16 B over 16 × 12.5 Gbps = 0.64 ns = 1.92 cycles → 2.
        assert_eq!(l.flit_cycles(), 2);
    }

    #[test]
    fn delivery_includes_serialization_and_propagation() {
        let mut l = SerialLink::new(&cfg(), 3_000_000_000);
        let d = l.send(&packet(5), 100);
        // 5 FLITs × 2 cycles + 10 propagation.
        assert_eq!(d, 100 + 10 + 10);
    }

    #[test]
    fn back_to_back_packets_serialize_in_order() {
        let mut l = SerialLink::new(&cfg(), 3_000_000_000);
        let d1 = l.send(&packet(5), 0);
        let d2 = l.send(&packet(1), 0);
        assert_eq!(d1, 20);
        assert_eq!(d2, 10 + 2 + 10); // starts after the first finishes
        assert!(d2 > d1 - 10 + 2 - 1);
        let (p, f, busy) = l.stats();
        assert_eq!((p, f), (2, 6));
        assert_eq!(busy, 12);
    }

    #[test]
    fn tokens_block_and_release() {
        let mut c = cfg();
        c.tokens = 6;
        let mut l = SerialLink::new(&c, 3_000_000_000);
        l.send(&packet(5), 0);
        assert!(!l.has_tokens(5));
        assert!(l.has_tokens(1));
        l.release(5);
        assert!(l.has_tokens(5));
    }

    #[test]
    #[should_panic(expected = "out of tokens")]
    fn sending_without_tokens_panics() {
        let mut c = cfg();
        c.tokens = 4;
        let mut l = SerialLink::new(&c, 3_000_000_000);
        l.send(&packet(5), 0);
    }

    #[test]
    #[should_panic(expected = "over-release")]
    fn over_release_panics() {
        let mut l = SerialLink::new(&cfg(), 3_000_000_000);
        l.release(1);
    }

    #[test]
    fn linkset_balances_load() {
        let mut s = LinkSet::new(&cfg(), 3_000_000_000);
        assert_eq!(s.len(), 4);
        // Four packets land on four different links: same delivery time.
        let deliveries: Vec<_> = (0..4).map(|_| s.send(&packet(5), 0).unwrap()).collect();
        let links: std::collections::HashSet<usize> = deliveries.iter().map(|&(i, _)| i).collect();
        assert_eq!(links.len(), 4);
        assert!(deliveries.iter().all(|&(_, d)| d == deliveries[0].1));
        // A fifth packet queues behind one of them.
        let (_, d5) = s.send(&packet(5), 0).unwrap();
        assert!(d5 > deliveries[0].1);
    }

    #[test]
    fn sleeping_link_pays_wake_penalty_once() {
        let mut c = cfg();
        c.sleep_after_idle = 100;
        c.wake_cycles = 50;
        let mut l = SerialLink::new(&c, 3_000_000_000);
        // First packet at t=0: link starts awake (last_active = 0).
        let d0 = l.send(&packet(1), 0);
        assert_eq!(d0, 2 + 10, "no penalty while fresh");
        // Long idle → asleep; next send pays 50 cycles of re-training.
        assert!(l.is_asleep(500));
        let d1 = l.send(&packet(1), 500);
        assert_eq!(d1, 500 + 50 + 2 + 10);
        let (wakeups, _) = l.power_stats();
        assert_eq!(wakeups, 1);
        // Back-to-back traffic stays awake.
        assert!(!l.is_asleep(d1 - 10));
        let d2 = l.send(&packet(1), d1 - 10);
        assert!(d2 < d1 + 20);
    }

    #[test]
    fn disabled_power_management_never_sleeps() {
        let l = SerialLink::new(&cfg(), 3_000_000_000);
        assert!(!l.is_asleep(1_000_000_000));
    }

    proptest::proptest! {
        // Tokens are conserved: free + in-flight == total, and deliveries
        // are monotone in send order on a single link.
        #[test]
        fn token_conservation_under_random_traffic(
            sizes in proptest::collection::vec(1u32..6, 1..60)
        ) {
            let mut c = cfg();
            c.tokens = 24;
            let mut l = SerialLink::new(&c, 3_000_000_000);
            let mut outstanding: std::collections::VecDeque<u32> = Default::default();
            let mut in_flight = 0u32;
            let mut last_delivery = 0;
            for (i, &flits) in sizes.iter().enumerate() {
                if l.has_tokens(flits) {
                    let d = l.send(&packet(flits), i as u64);
                    proptest::prop_assert!(d >= last_delivery, "deliveries reorder");
                    last_delivery = d;
                    outstanding.push_back(flits);
                    in_flight += flits;
                    proptest::prop_assert!(in_flight <= 24);
                } else if let Some(f) = outstanding.pop_front() {
                    l.release(f);
                    in_flight -= f;
                }
            }
            while let Some(f) = outstanding.pop_front() {
                l.release(f);
                in_flight -= f;
            }
            proptest::prop_assert_eq!(in_flight, 0);
            proptest::prop_assert!(l.has_tokens(24), "all tokens must return");
        }
    }

    #[test]
    fn linkset_none_when_all_blocked() {
        let mut c = cfg();
        c.tokens = 5;
        let mut s = LinkSet::new(&c, 3_000_000_000);
        for _ in 0..4 {
            assert!(s.send(&packet(5), 0).is_some());
        }
        assert!(s.send(&packet(5), 0).is_none());
        s.release(2, 5);
        let (idx, _) = s.send(&packet(5), 0).unwrap();
        assert_eq!(idx, 2);
    }
}
