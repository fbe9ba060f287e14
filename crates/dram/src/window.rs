//! Vault-level activation constraints: tRRD and the four-activate window
//! (tFAW).
//!
//! Banks gate their own tRC; activations across *different* banks of the
//! same vault additionally need tRRD spacing, and no more than four ACTs may
//! land inside any tFAW window (a power-delivery limit).

use camps_types::clock::Cycle;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Sliding activation window for one vault.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActWindow {
    t_rrd: Cycle,
    t_faw: Cycle,
    last_act: Option<Cycle>,
    recent: VecDeque<Cycle>,
}

impl ActWindow {
    /// Creates the window from the vault's tRRD/tFAW (CPU cycles).
    #[must_use]
    pub fn new(t_rrd: Cycle, t_faw: Cycle) -> Self {
        Self {
            t_rrd,
            t_faw,
            last_act: None,
            recent: VecDeque::with_capacity(4),
        }
    }

    /// Earliest cycle at which the vault-level constraints permit an ACT.
    #[must_use]
    pub fn earliest_activate(&self) -> Cycle {
        let rrd_ready = self.last_act.map_or(0, |t| t + self.t_rrd);
        let faw_ready = if self.recent.len() == 4 {
            self.recent.front().map_or(0, |&t| t + self.t_faw)
        } else {
            0
        };
        rrd_ready.max(faw_ready)
    }

    /// Records an ACT issued at `now`.
    ///
    /// # Panics
    /// Panics if the ACT violates tRRD/tFAW (simulator bug).
    pub fn record(&mut self, now: Cycle) {
        assert!(
            now >= self.earliest_activate(),
            "ACT at {now} violates tRRD/tFAW: {self:?}"
        );
        self.last_act = Some(now);
        if self.recent.len() == 4 {
            self.recent.pop_front();
        }
        self.recent.push_back(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fresh_window_allows_immediate_act() {
        let w = ActWindow::new(19, 90);
        assert_eq!(w.earliest_activate(), 0);
    }

    #[test]
    fn trrd_spaces_consecutive_acts() {
        let mut w = ActWindow::new(19, 90);
        w.record(0);
        assert_eq!(w.earliest_activate(), 19);
    }

    #[test]
    fn tfaw_limits_burst_of_activates() {
        let mut w = ActWindow::new(10, 100);
        for i in 0..4 {
            w.record(i * 10);
        }
        // Fifth ACT must wait for the first to age out of the tFAW window.
        assert_eq!(w.earliest_activate(), 100);
        w.record(100);
        // Now the window holds ACTs at 10, 20, 30, 100; next earliest is
        // max(100 + tRRD, 10 + tFAW) = 110.
        assert_eq!(w.earliest_activate(), 110);
    }

    #[test]
    #[should_panic(expected = "violates")]
    fn premature_record_panics() {
        let mut w = ActWindow::new(19, 90);
        w.record(0);
        w.record(5);
    }

    proptest! {
        // Issue ACTs greedily at the earliest legal times and verify no
        // window of tFAW cycles ever contains five activations.
        #[test]
        fn never_five_acts_in_faw_window(gaps in prop::collection::vec(0u64..40, 4..50)) {
            let (t_rrd, t_faw) = (19u64, 90u64);
            let mut w = ActWindow::new(t_rrd, t_faw);
            let mut times = Vec::new();
            let mut now = 0u64;
            for g in gaps {
                now = (now + g).max(w.earliest_activate());
                w.record(now);
                times.push(now);
            }
            for (i, &t0) in times.iter().enumerate() {
                let in_window = times[i..].iter().take_while(|&&t| t < t0 + t_faw).count();
                prop_assert!(in_window <= 4, "five ACTs within tFAW starting at {}", t0);
            }
            for pair in times.windows(2) {
                prop_assert!(pair[1] - pair[0] >= t_rrd);
            }
        }
    }
}
