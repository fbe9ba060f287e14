//! MMD — usefulness-adaptive memory-side prefetching.
//!
//! Reconstruction of the comparator the paper calls MMD ("Meeting Midway",
//! Yedlapalli et al., PACT 2013 \[8\]), from the paper's description: "an
//! existing memory-side prefetching scheme that dynamically adjusts the
//! prefetch degree based on the usefulness of prefetched data and uses
//! traditional LRU policy for prefetch buffer management".
//!
//! The original Meeting Midway prefetcher sits in the host memory
//! controller and adapts how far it runs ahead of the demand stream. Moved
//! into an HMC vault controller at row granularity (as this paper's
//! evaluation does), address-space lookahead is not expressible — under
//! the `RoRaBaVaCo` mapping the "next" row of the address space lives in
//! another vault, and a vault-local `row + 1` fetch has no correlation
//! with the demand stream (we verified experimentally that a literal
//! degree-of-sequential-rows port collapses for exactly this reason). The
//! knob that remains meaningful vault-side is *how much observed reuse a
//! row must show before it is worth a whole-row fetch*, so this
//! reconstruction adapts a per-open-row hit threshold with the usefulness
//! feedback loop:
//!
//! * every `epoch` issued prefetches, accuracy = prefetched rows that were
//!   demand-referenced / rows prefetched;
//! * accuracy ≥ 75 % → threshold − 1 (min 1): the data is being consumed,
//!   fetch sooner;
//! * accuracy < 40 % → threshold + 1 (max 4): back off.
//!
//! MMD never precharges after fetching (it is conflict-blind — the very
//! property CAMPS' Conflict Table adds) and uses plain LRU in the buffer
//! (what CAMPS-MOD's §3.2 policy replaces).

use crate::replacement::ReplacementKind;
use crate::scheme::{PfAction, PrefetchScheme, SchemeKind};
use crate::tables::RowUtilizationTable;
use camps_types::addr::RowKey;
use serde::value::Value;
use serde::{de, Deserialize, Serialize};

/// Most aggressive: fetch a row on its first access while open.
const MIN_THRESHOLD: u32 = 1;
/// Most conservative trigger.
const MAX_THRESHOLD: u32 = 4;
/// Raise aggressiveness above this accuracy.
const HIGH_ACCURACY: f64 = 0.75;
/// Lower aggressiveness below this accuracy.
const LOW_ACCURACY: f64 = 0.40;

/// The usefulness-adaptive scheme.
#[derive(Debug, Serialize, Deserialize)]
pub struct Mmd {
    hits: RowUtilizationTable,
    threshold: u32,
    #[serde(skip)]
    epoch: u32,
    issued_in_epoch: u32,
    useful_in_epoch: u32,
}

impl Mmd {
    /// Creates the scheme for a vault with `banks` banks and the given
    /// feedback epoch (prefetches per adaptation step).
    #[must_use]
    pub fn new(banks: u32, epoch: u32) -> Self {
        Self {
            hits: RowUtilizationTable::new(banks),
            threshold: 2,
            epoch: epoch.max(1),
            issued_in_epoch: 0,
            useful_in_epoch: 0,
        }
    }

    /// Current adaptive threshold (exposed for tests and ablations).
    #[must_use]
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    fn note_issue(&mut self) {
        self.issued_in_epoch += 1;
        if self.issued_in_epoch >= self.epoch {
            let accuracy = f64::from(self.useful_in_epoch) / f64::from(self.issued_in_epoch);
            if accuracy >= HIGH_ACCURACY {
                self.threshold = (self.threshold - 1).max(MIN_THRESHOLD);
            } else if accuracy < LOW_ACCURACY {
                self.threshold = (self.threshold + 1).min(MAX_THRESHOLD);
            }
            self.issued_in_epoch = 0;
            self.useful_in_epoch = 0;
        }
    }

    fn decide(&mut self, key: RowKey, count: u32) -> PfAction {
        if count >= self.threshold {
            self.hits.clear(key.bank);
            self.note_issue();
            PfAction::FetchRow {
                key,
                precharge_after: false,
                used_so_far: count,
            }
        } else {
            PfAction::None
        }
    }
}

impl PrefetchScheme for Mmd {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Mmd
    }

    fn replacement(&self) -> ReplacementKind {
        ReplacementKind::Lru
    }

    fn on_row_hit(&mut self, key: RowKey, _queued_same_row: u32) -> PfAction {
        let count = self.hits.record_hit(key.bank, key.row);
        self.decide(key, count)
    }

    fn on_row_activated(
        &mut self,
        key: RowKey,
        _conflict: bool,
        _queued_same_row: u32,
    ) -> PfAction {
        self.hits.open_row(key.bank, key.row);
        self.decide(key, 1)
    }

    fn on_buffer_hit(&mut self, _key: RowKey, first_touch: bool) {
        if first_touch {
            // Saturating: the epoch reset may race a late hit.
            self.useful_in_epoch = self.useful_in_epoch.saturating_add(1);
        }
    }

    fn table_occupancy(&self) -> (usize, usize) {
        (self.hits.occupied(), 0)
    }

    fn save_state(&self) -> Value {
        self.to_value()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), de::Error> {
        self.from_value_in_place(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(bank: u16, row: u32) -> RowKey {
        RowKey { bank, row }
    }

    #[test]
    fn starts_at_threshold_two() {
        let s = Mmd::new(16, 64);
        assert_eq!(s.threshold(), 2);
    }

    #[test]
    fn fetches_after_threshold_hits_without_precharge() {
        let mut s = Mmd::new(16, 1024);
        // Activation = first hit; below threshold 2 → no fetch.
        assert_eq!(s.on_row_activated(k(0, 5), false, 0), PfAction::None);
        // Second access to the open row reaches the threshold.
        assert_eq!(
            s.on_row_hit(k(0, 5), 0),
            PfAction::FetchRow {
                key: k(0, 5),
                precharge_after: false,
                used_so_far: 2
            }
        );
    }

    #[test]
    fn counter_resets_after_fetch() {
        let mut s = Mmd::new(16, 1024);
        s.on_row_activated(k(0, 5), false, 0);
        s.on_row_hit(k(0, 5), 0); // fetch fires, counter cleared
        assert_eq!(s.on_row_hit(k(0, 5), 0), PfAction::None); // restarts at 1
    }

    #[test]
    fn high_accuracy_lowers_threshold() {
        let mut s = Mmd::new(16, 2);
        for row in 0..2 {
            s.on_row_activated(k(0, row), false, 0);
            s.on_buffer_hit(k(0, row), true);
            let _ = s.on_row_hit(k(0, row), 0);
        }
        assert_eq!(s.threshold(), 1);
        // At threshold 1, an activation alone triggers the fetch.
        assert!(matches!(
            s.on_row_activated(k(1, 9), false, 0),
            PfAction::FetchRow { .. }
        ));
    }

    #[test]
    fn low_accuracy_raises_threshold() {
        let mut s = Mmd::new(16, 2);
        for row in 0..2 {
            s.on_row_activated(k(0, row), false, 0);
            let _ = s.on_row_hit(k(0, row), 0); // issued, never referenced
        }
        assert_eq!(s.threshold(), 3);
    }

    #[test]
    fn threshold_stays_within_bounds() {
        let mut s = Mmd::new(16, 1);
        for row in 0..20 {
            s.on_row_activated(k(0, row), false, 0);
            for _ in 0..4 {
                let _ = s.on_row_hit(k(0, row), 0);
            }
        }
        assert_eq!(s.threshold(), MAX_THRESHOLD);
        for row in 20..60 {
            s.on_row_activated(k(0, row), false, 0);
            for _ in 0..4 {
                if let PfAction::FetchRow { key, .. } = s.on_row_hit(k(0, row), 0) {
                    s.on_buffer_hit(key, true);
                }
            }
        }
        assert_eq!(s.threshold(), MIN_THRESHOLD);
    }

    #[test]
    fn snapshot_round_trips_adaptive_state() {
        let mut a = Mmd::new(16, 2);
        for row in 0..2 {
            a.on_row_activated(k(0, row), false, 0);
            let _ = a.on_row_hit(k(0, row), 0); // issued, never referenced
        }
        assert_eq!(a.threshold(), 3);
        a.on_row_activated(k(1, 7), false, 0); // partial epoch + live RUT entry
        let state = a.save_state();
        let mut b = Mmd::new(16, 2);
        b.restore_state(&state).unwrap();
        assert_eq!(b.threshold(), 3);
        assert_eq!(a.save_state(), b.save_state());
        for row in 10..14 {
            assert_eq!(
                a.on_row_activated(k(2, row), false, 0),
                b.on_row_activated(k(2, row), false, 0)
            );
            assert_eq!(a.on_row_hit(k(2, row), 0), b.on_row_hit(k(2, row), 0));
        }
        assert!(b.restore_state(&serde::value::Value::U64(3)).is_err());
    }

    #[test]
    fn moderate_accuracy_leaves_threshold_alone() {
        let mut s = Mmd::new(16, 4);
        // 2 useful out of 4 issued = 50 % — inside the dead band.
        for row in 0..4 {
            s.on_row_activated(k(0, row), false, 0);
            if let PfAction::FetchRow { key, .. } = s.on_row_hit(k(0, row), 0) {
                if row < 2 {
                    s.on_buffer_hit(key, true);
                }
            }
        }
        assert_eq!(s.threshold(), 2);
    }
}
