//! CAMPS — conflict-aware memory-side prefetching (§3.1 of the paper).
//!
//! Decision logic, exactly as Figure 3 of the paper describes:
//!
//! * **Row-buffer hit** → count it in the RUT. Once a row has served more
//!   than the threshold (4) requests while open, it is clearly hot:
//!   stream the whole row into the prefetch buffer and precharge the bank.
//!   The row's RUT entry is cleared (it is no longer open).
//! * **Row-buffer miss/conflict (activation)** → if the newly opened row
//!   already has an entry in the Conflict Table, it has been displaced
//!   recently — a conflict-prone row: prefetch it immediately, remove it
//!   from the CT, and precharge the bank. Otherwise keep the row open and
//!   start tracking it in the RUT; whatever entry the RUT held for that
//!   bank is *moved* into the CT (that row was just displaced by this
//!   activation).
//!
//! With `ReplacementKind::UtilRecency` this becomes CAMPS-MOD (§3.2).

use crate::replacement::ReplacementKind;
use crate::scheme::{PfAction, PrefetchScheme, SchemeKind};
use crate::tables::{ConflictTable, RowUtilizationTable};
use camps_types::addr::RowKey;
use camps_types::config::PrefetchBufferConfig;
use serde::value::Value;
use serde::{de, Deserialize, Serialize};

/// The conflict-aware scheme (CAMPS, or CAMPS-MOD when built with the
/// utilization + recency replacement policy).
#[derive(Debug, Serialize, Deserialize)]
pub struct Camps {
    rut: RowUtilizationTable,
    ct: ConflictTable,
    #[serde(skip)]
    threshold: u32,
    /// Minimum accumulated CT evidence (past accesses + the reactivating
    /// access) before a CT hit triggers the fetch.
    #[serde(skip)]
    ct_evidence: u32,
    #[serde(skip)]
    replacement: ReplacementKind,
}

impl Camps {
    /// Creates the scheme for a vault with `banks` banks.
    #[must_use]
    pub fn new(banks: u32, cfg: &PrefetchBufferConfig, replacement: ReplacementKind) -> Self {
        Self {
            rut: RowUtilizationTable::new(banks),
            ct: ConflictTable::new(cfg.ct_entries),
            threshold: cfg.rut_threshold,
            ct_evidence: cfg.ct_evidence,
            replacement,
        }
    }

    /// Read-only view of the conflict table (tests/ablations).
    #[must_use]
    pub fn conflict_table(&self) -> &ConflictTable {
        &self.ct
    }

    /// Read-only view of the row-utilization table (tests/ablations).
    #[must_use]
    pub fn utilization_table(&self) -> &RowUtilizationTable {
        &self.rut
    }
}

impl PrefetchScheme for Camps {
    fn kind(&self) -> SchemeKind {
        match self.replacement {
            ReplacementKind::UtilRecency => SchemeKind::CampsMod,
            // LRU is the paper's plain CAMPS; other policies (FIFO, …) are
            // ablation variants of it.
            _ => SchemeKind::Camps,
        }
    }

    fn replacement(&self) -> ReplacementKind {
        self.replacement
    }

    fn on_row_hit(&mut self, key: RowKey, _queued_same_row: u32) -> PfAction {
        let count = self.rut.record_hit(key.bank, key.row);
        if count > self.threshold {
            // §3.1: "If the number of accesses to a row exceeds a threshold
            // value (four in our experiment), our scheme fetches the whole
            // row to the prefetch buffer and precharges bank."
            self.rut.clear(key.bank);
            PfAction::FetchRow {
                key,
                precharge_after: true,
                used_so_far: count,
            }
        } else {
            PfAction::None
        }
    }

    fn on_row_activated(
        &mut self,
        key: RowKey,
        _conflict: bool,
        _queued_same_row: u32,
    ) -> PfAction {
        if self.ct.contains(key) {
            // §3.1: "if the newly opened row already has an entry in CT …
            // this row caused row-buffer conflict and is a good candidate
            // for prefetching. After fetching this row to the prefetch
            // buffer, its entry will be removed from the CT and the bank is
            // precharged." The utilization information carried in the CT
            // gates the decision: enough accumulated evidence (past
            // residencies + this access) marks a genuinely conflict-prone
            // row; a row seen only once before keeps accumulating instead.
            let prior = self.ct.count_of(key).unwrap_or(0);
            if prior + 1 >= self.ct_evidence {
                self.ct.remove(key);
                return PfAction::FetchRow {
                    key,
                    precharge_after: true,
                    used_so_far: 1,
                };
            }
        }
        // §3.1: the newly opened row starts tracking in the RUT; the
        // displaced RUT entry moves to the CT.
        if let Some((old_row, count)) = self.rut.open_row(key.bank, key.row) {
            self.ct.insert(
                RowKey {
                    bank: key.bank,
                    row: old_row,
                },
                count,
            );
        }
        PfAction::None
    }

    fn table_occupancy(&self) -> (usize, usize) {
        (self.rut.occupied(), self.ct.len())
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
    use camps_types::config::SystemConfig;

    fn scheme() -> Camps {
        let cfg = SystemConfig::paper_default().prefetch;
        Camps::new(16, &cfg, ReplacementKind::Lru)
    }

    fn k(bank: u16, row: u32) -> RowKey {
        RowKey { bank, row }
    }

    #[test]
    fn hot_row_prefetched_after_threshold_exceeded() {
        let mut s = scheme();
        assert_eq!(s.on_row_activated(k(0, 10), false, 0), PfAction::None);
        // Activation counts as access 1; hits 2..=4 stay below the trigger
        // ("exceeds a threshold value (four)").
        for _ in 0..3 {
            assert_eq!(s.on_row_hit(k(0, 10), 0), PfAction::None);
        }
        // Fifth access exceeds 4 → fetch + precharge.
        assert_eq!(
            s.on_row_hit(k(0, 10), 0),
            PfAction::FetchRow {
                key: k(0, 10),
                precharge_after: true,
                used_so_far: 5
            }
        );
        // The RUT entry is gone; the row is NOT in the CT (prefetched rows
        // leave the tables entirely).
        assert_eq!(s.utilization_table().get(0), None);
        assert!(!s.conflict_table().contains(k(0, 10)));
    }

    #[test]
    fn displaced_row_moves_to_conflict_table() {
        let mut s = scheme();
        s.on_row_activated(k(0, 10), false, 0);
        s.on_row_hit(k(0, 10), 0);
        // A different row opens in the same bank: row 10 moves RUT → CT.
        assert_eq!(s.on_row_activated(k(0, 11), true, 0), PfAction::None);
        assert!(s.conflict_table().contains(k(0, 10)));
        assert_eq!(s.utilization_table().get(0), Some((11, 1)));
    }

    #[test]
    fn reactivated_conflict_victim_is_prefetched_once_evidence_accrues() {
        let mut s = scheme(); // ct_evidence = 3 (paper default config)
        s.on_row_activated(k(0, 10), false, 0);
        s.on_row_activated(k(0, 11), true, 0); // 10 → CT with count 1
                                               // First return of row 10: accumulated evidence 1 + 1 = 2 < 3 — it
                                               // keeps profiling instead of fetching, and 11 is displaced to CT.
        assert_eq!(s.on_row_activated(k(0, 10), true, 0), PfAction::None);
        assert!(s.conflict_table().contains(k(0, 11)));
        // Another bounce: 10 displaced again (CT count accumulates to 2)…
        assert_eq!(s.on_row_activated(k(0, 11), true, 0), PfAction::None);
        // …and on its second return the evidence (2 + 1 = 3) fires.
        assert_eq!(
            s.on_row_activated(k(0, 10), true, 0),
            PfAction::FetchRow {
                key: k(0, 10),
                precharge_after: true,
                used_so_far: 1
            }
        );
        // Consumed from the CT.
        assert!(!s.conflict_table().contains(k(0, 10)));
    }

    #[test]
    fn ct_fires_immediately_with_minimum_evidence() {
        let mut cfg = SystemConfig::paper_default().prefetch;
        cfg.ct_evidence = 2; // the paper's letter: any re-activation fires
        let mut s = Camps::new(16, &cfg, ReplacementKind::Lru);
        s.on_row_activated(k(0, 10), false, 0);
        s.on_row_activated(k(0, 11), true, 0); // 10 → CT
        assert!(matches!(
            s.on_row_activated(k(0, 10), true, 0),
            PfAction::FetchRow { .. }
        ));
    }

    #[test]
    fn conflict_table_is_shared_across_banks() {
        let mut s = scheme();
        for bank in 0..16 {
            s.on_row_activated(k(bank, 1), false, 0);
            s.on_row_activated(k(bank, 2), true, 0); // (bank,1) → CT
        }
        for bank in 0..16 {
            assert!(s.conflict_table().contains(k(bank, 1)));
        }
    }

    #[test]
    fn ct_capacity_is_lru_bounded() {
        let cfg = SystemConfig::paper_default().prefetch;
        let mut s = Camps::new(16, &cfg, ReplacementKind::Lru);
        // Displace 40 distinct rows through bank 0's RUT slot; the CT holds
        // the 32 most recent.
        for row in 0..41u32 {
            s.on_row_activated(k(0, row), row > 0, 0);
        }
        // Rows 0..8 displaced first → evicted; rows 8..40 resident.
        assert!(!s.conflict_table().contains(k(0, 0)));
        assert!(!s.conflict_table().contains(k(0, 7)));
        assert!(s.conflict_table().contains(k(0, 8)));
        assert!(s.conflict_table().contains(k(0, 39)));
        assert_eq!(s.conflict_table().len(), 32);
    }

    #[test]
    fn kind_tracks_replacement_policy() {
        let cfg = SystemConfig::paper_default().prefetch;
        assert_eq!(
            Camps::new(16, &cfg, ReplacementKind::Lru).kind(),
            SchemeKind::Camps
        );
        assert_eq!(
            Camps::new(16, &cfg, ReplacementKind::UtilRecency).kind(),
            SchemeKind::CampsMod
        );
    }

    #[test]
    fn snapshot_round_trips_profiling_tables() {
        let mut a = scheme();
        // Populate both tables: open rows, displace a few into the CT.
        for row in 0..6u32 {
            a.on_row_activated(k(0, row), row > 0, 0);
        }
        a.on_row_hit(k(0, 5), 0);
        let state = a.save_state();
        let mut b = scheme();
        b.restore_state(&state).unwrap();
        assert_eq!(a.utilization_table(), b.utilization_table());
        assert_eq!(a.conflict_table(), b.conflict_table());
        // Identical behavior after restore.
        assert_eq!(
            a.on_row_activated(k(0, 4), true, 0),
            b.on_row_activated(k(0, 4), true, 0)
        );
        assert!(b.restore_state(&serde::value::Value::Null).is_err());
    }

    #[test]
    fn threshold_respects_config() {
        let mut cfg = SystemConfig::paper_default().prefetch;
        cfg.rut_threshold = 1;
        let mut s = Camps::new(16, &cfg, ReplacementKind::Lru);
        s.on_row_activated(k(0, 3), false, 0);
        // Second access already exceeds threshold 1.
        assert!(matches!(
            s.on_row_hit(k(0, 3), 0),
            PfAction::FetchRow { .. }
        ));
    }
}
