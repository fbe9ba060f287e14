//! Per-row activation tracking within one refresh window (RowHammer
//! accounting).
//!
//! A [`RowGuard`] counts ACT commands per `(bank, row)` between all-bank
//! refreshes. In this model every all-bank refresh (issued once per
//! tREFI by the vault controller) refreshes *every* row, so tREFI is the
//! effective tREFW: the window resets exactly at the refresh boundary
//! and the per-window counts are the quantity a RowHammer attacker
//! maximizes and a TRR mitigation watches.
//!
//! The tracker is pure observation — it never touches bank timing. The
//! mitigation *decision* (comparing a count against a threshold and
//! charging the bank a neighbor-refresh penalty with a
//! [`DramCmd::Trr`](crate::DramCmd::Trr))
//! belongs to the vault controller, which owns the bank array and the
//! configuration knob.

use serde::value::Value;
use serde::{de, Deserialize};
use std::collections::BTreeMap;

/// Per-row activation counters for the current refresh window of one
/// vault. Sparse: only rows activated since the last refresh occupy an
/// entry, so idle vaults snapshot to nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowGuard {
    /// `(bank, row) → activations since the last all-bank refresh`.
    /// A `BTreeMap` so serialization is deterministically ordered.
    counts: BTreeMap<(u16, u32), u32>,
}

impl RowGuard {
    /// An empty tracker (start of a refresh window).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one ACT of `row` in `bank`; returns the row's activation
    /// count within the current refresh window, including this one.
    pub fn record(&mut self, bank: u16, row: u32) -> u32 {
        let c = self.counts.entry((bank, row)).or_insert(0);
        *c += 1;
        *c
    }

    /// The row's activation count so far this window.
    #[must_use]
    pub fn count(&self, bank: u16, row: u32) -> u32 {
        self.counts.get(&(bank, row)).copied().unwrap_or(0)
    }

    /// Clears one row's counter — called after a mitigation refreshes the
    /// row's neighbors, so the threshold is measured per mitigation
    /// interval rather than firing on every subsequent ACT.
    pub fn reset_row(&mut self, bank: u16, row: u32) {
        self.counts.remove(&(bank, row));
    }

    /// Window boundary: an all-bank refresh rewrote every row, so every
    /// counter restarts from zero.
    pub fn on_refresh(&mut self) {
        self.counts.clear();
    }

    /// Rows with a nonzero count in the current window.
    #[must_use]
    pub fn tracked_rows(&self) -> usize {
        self.counts.len()
    }

    /// The hottest row of the current (incomplete) window:
    /// `((bank, row), count)`, or `None` when nothing activated yet.
    #[must_use]
    pub fn hottest(&self) -> Option<((u16, u32), u32)> {
        self.counts
            .iter()
            .max_by_key(|&(key, c)| (*c, std::cmp::Reverse(*key)))
            .map(|(&k, &c)| (k, c))
    }
}

// The vendored serde subset has no map support, so the counters lower to
// a sorted `(bank, row, count)` tuple sequence — deterministic because
// `BTreeMap` iterates in key order.
impl serde::Serialize for RowGuard {
    fn to_value(&self) -> Value {
        let flat: Vec<(u16, u32, u32)> = self
            .counts
            .iter()
            .map(|(&(bank, row), &c)| (bank, row, c))
            .collect();
        flat.to_value()
    }
}

impl Deserialize for RowGuard {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        let flat: Vec<(u16, u32, u32)> = Vec::from_value(v)?;
        let mut counts = BTreeMap::new();
        for (bank, row, c) in flat {
            if c == 0 {
                return Err(de::Error::custom(format!(
                    "rowguard: zero count for bank {bank} row {row}"
                )));
            }
            if counts.insert((bank, row), c).is_some() {
                return Err(de::Error::custom(format!(
                    "rowguard: duplicate entry for bank {bank} row {row}"
                )));
            }
        }
        Ok(Self { counts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize as _;

    #[test]
    fn record_counts_per_row_within_the_window() {
        let mut g = RowGuard::new();
        assert_eq!(g.record(0, 7), 1);
        assert_eq!(g.record(0, 7), 2);
        assert_eq!(g.record(0, 9), 1);
        assert_eq!(g.record(1, 7), 1, "same row in another bank is distinct");
        assert_eq!(g.count(0, 7), 2);
        assert_eq!(g.count(0, 1), 0);
        assert_eq!(g.tracked_rows(), 3);
    }

    #[test]
    fn refresh_boundary_resets_every_counter() {
        let mut g = RowGuard::new();
        for _ in 0..5 {
            g.record(2, 100);
        }
        g.record(3, 50);
        g.on_refresh();
        assert_eq!(g.tracked_rows(), 0);
        assert_eq!(g.count(2, 100), 0);
        // The next window counts from scratch.
        assert_eq!(g.record(2, 100), 1);
    }

    #[test]
    fn reset_row_clears_only_that_row() {
        let mut g = RowGuard::new();
        g.record(0, 1);
        g.record(0, 1);
        g.record(0, 2);
        g.reset_row(0, 1);
        assert_eq!(g.count(0, 1), 0);
        assert_eq!(g.count(0, 2), 1);
    }

    #[test]
    fn hottest_tracks_the_max_count() {
        let mut g = RowGuard::new();
        assert_eq!(g.hottest(), None);
        g.record(0, 1);
        g.record(0, 3);
        g.record(0, 3);
        assert_eq!(g.hottest(), Some(((0, 3), 2)));
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let mut g = RowGuard::new();
        for row in [9u32, 3, 3, 900, 17, 3] {
            g.record((row % 4) as u16, row);
        }
        let v = g.to_value();
        let back = RowGuard::from_value(&v).unwrap();
        assert_eq!(back, g);
        // Serialization is canonical: re-serializing the restored tracker
        // yields the same value tree.
        assert_eq!(back.to_value(), v);
    }

    #[test]
    fn malformed_snapshots_are_shape_errors() {
        assert!(RowGuard::from_value(&Value::Null).is_err());
        // Duplicate (bank, row) keys and zero counts are rejected.
        let dup = vec![(0u16, 1u32, 2u32), (0, 1, 3)].to_value();
        assert!(RowGuard::from_value(&dup).is_err());
        let zero = vec![(0u16, 1u32, 0u32)].to_value();
        assert!(RowGuard::from_value(&zero).is_err());
    }
}
