//! The logic-base crossbar that routes packets between serial links and
//! vault controllers.
//!
//! "All the serial links are connected to the vault controllers through a
//! crossbar switch that routes the request packet coming from the
//! processor to a particular vault controller" (§2.1). The model adds a
//! fixed traversal latency and serializes packets per destination port
//! (one packet per cycle per vault input), which captures the only
//! contention that matters at this fan-out: hot vaults backing up.

use camps_types::clock::Cycle;
use serde::{Deserialize, Serialize};

/// The crossbar switch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Crossbar {
    latency: Cycle,
    /// Per-destination-port next-free cycle.
    port_free: Vec<Cycle>,
    // Statistics.
    routed: u64,
    contended: u64,
}

impl Crossbar {
    /// A crossbar with `ports` destination ports (vaults on the request
    /// path, links on the response path) and fixed traversal `latency`.
    ///
    /// # Panics
    /// Panics if `ports` is zero.
    #[must_use]
    pub fn new(ports: u32, latency: Cycle) -> Self {
        assert!(ports > 0, "crossbar needs ports");
        Self {
            latency,
            port_free: vec![0; ports as usize],
            routed: 0,
            contended: 0,
        }
    }

    /// Routes a packet arriving at `now` toward `port`; returns when it
    /// exits the crossbar.
    ///
    /// # Panics
    /// Panics if `port` is out of range.
    pub fn route(&mut self, port: usize, now: Cycle) -> Cycle {
        let free = self.port_free[port];
        let start = now.max(free);
        if start > now {
            self.contended += 1;
        }
        self.port_free[port] = start + 1; // one packet per cycle per port
        self.routed += 1;
        start + self.latency
    }

    /// Lifetime (packets routed, packets that waited on a busy port).
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.routed, self.contended)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn uncontended_route_is_fixed_latency() {
        let mut x = Crossbar::new(32, 3);
        assert_eq!(x.route(5, 100), 103);
        assert_eq!(x.stats(), (1, 0));
    }

    #[test]
    fn same_port_serializes() {
        let mut x = Crossbar::new(32, 3);
        assert_eq!(x.route(0, 10), 13);
        assert_eq!(x.route(0, 10), 14); // waits one cycle
        assert_eq!(x.route(0, 10), 15);
        assert_eq!(x.stats(), (3, 2));
    }

    #[test]
    fn different_ports_independent() {
        let mut x = Crossbar::new(32, 3);
        assert_eq!(x.route(0, 10), 13);
        assert_eq!(x.route(1, 10), 13);
        assert_eq!(x.stats().1, 0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_port_panics() {
        let mut x = Crossbar::new(4, 3);
        let _ = x.route(4, 0);
    }

    proptest! {
        #[test]
        fn exits_are_monotone_per_port(times in prop::collection::vec(0u64..1000, 1..50)) {
            let mut x = Crossbar::new(1, 3);
            let mut sorted = times.clone();
            sorted.sort_unstable();
            let mut last_exit = 0;
            for t in sorted {
                let exit = x.route(0, t);
                prop_assert!(exit > last_exit, "port must serialize");
                prop_assert!(exit >= t + 3);
                last_exit = exit;
            }
        }
    }
}
