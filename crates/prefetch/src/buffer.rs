//! The per-vault prefetch buffer.
//!
//! Table I: 16 KB per vault, fully associative, 1 KB entries (one DRAM
//! row), 22-cycle hit latency (latency is charged by the vault controller;
//! the buffer itself is purely functional state).
//!
//! Each resident row tracks:
//! * a per-line reference mask → the §3.2 *utilization* counter
//!   ("number of distinct cache lines referenced within that row"),
//! * its recency rank (MRU = capacity-1; with a full buffer of 16 this is
//!   exactly the paper's 15..0 recency counter),
//! * a dirty flag (writes absorbed by the buffer must be written back to
//!   the bank on eviction),
//! * whether it was *ever* referenced by a demand access — the numerator of
//!   the Figure 7 prefetch-accuracy metric.

use crate::replacement::{ReplacementKind, VictimView};
use camps_types::addr::RowKey;
use camps_types::clock::Cycle;
use serde::{Deserialize, Serialize};

/// One resident prefetched row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Entry {
    key: RowKey,
    line_mask: u64,
    /// Distinct lines already served from the bank's row buffer before the
    /// row was fetched (the RUT count at trigger time). §3.2 defines
    /// utilization as distinct lines referenced *within the row*, not
    /// merely since insertion; seeding makes fully-streamed rows reach the
    /// "all lines consumed → evict first" state.
    seed_util: u32,
    dirty: bool,
    inserted_at: Cycle,
    last_access: Cycle,
    referenced: bool,
}

/// Information about a row evicted (or invalidated) from the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Evicted {
    /// Which row left the buffer.
    pub key: RowKey,
    /// True if the buffer absorbed writes for it (needs a writeback).
    pub dirty: bool,
    /// Distinct lines referenced while resident.
    pub utilization: u32,
    /// True if at least one demand access hit it while resident.
    pub referenced: bool,
}

/// A fully associative buffer of whole prefetched rows.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefetchBuffer {
    entries: Vec<Entry>,
    /// Indices into `entries`, most recently used first.
    lru_order: Vec<usize>,
    capacity: usize,
    blocks_per_row: u32,
    policy: ReplacementKind,
    // Lifetime statistics.
    insertions: u64,
    hits: u64,
    lookups: u64,
    /// Rows that left the buffer (eviction, invalidation, or drain)
    /// without a single demand reference — wasted fetches, the
    /// complement of the Figure 7 accuracy numerator. `default` so
    /// checkpoints written before the counter existed still restore.
    #[serde(default)]
    unused_evictions: u64,
}

impl PrefetchBuffer {
    /// Creates an empty buffer of `capacity` row entries.
    ///
    /// # Panics
    /// Panics if `capacity` is 0 or `blocks_per_row` is 0 or > 64.
    #[must_use]
    pub fn new(capacity: u32, blocks_per_row: u32, policy: ReplacementKind) -> Self {
        assert!(capacity > 0, "buffer needs at least one entry");
        assert!(
            (1..=64).contains(&blocks_per_row),
            "line mask is a u64: 1..=64 blocks per row"
        );
        Self {
            entries: Vec::with_capacity(capacity as usize),
            lru_order: Vec::with_capacity(capacity as usize),
            capacity: capacity as usize,
            blocks_per_row,
            policy,
            insertions: 0,
            hits: 0,
            lookups: 0,
            unused_evictions: 0,
        }
    }

    /// Number of resident rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no rows are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum resident rows.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True if `key` is resident (no state update — used by schemes to
    /// avoid duplicate fetches).
    #[must_use]
    pub fn contains(&self, key: RowKey) -> bool {
        self.entries.iter().any(|e| e.key == key)
    }

    /// Recency rank of `key` as the paper defines it (MRU = capacity-1),
    /// or `None` if not resident.
    #[must_use]
    pub fn recency_of(&self, key: RowKey) -> Option<u32> {
        let idx = self.entries.iter().position(|e| e.key == key)?;
        let rank = self.lru_order.iter().position(|&i| i == idx)?;
        Some((self.capacity - 1 - rank) as u32)
    }

    /// Utilization of `key` (distinct lines referenced within the row,
    /// pre-fetch accesses included, capped at the row's line count), or
    /// `None` if not resident.
    #[must_use]
    pub fn utilization_of(&self, key: RowKey) -> Option<u32> {
        self.entries
            .iter()
            .find(|e| e.key == key)
            .map(|e| (e.line_mask.count_ones() + e.seed_util).min(self.blocks_per_row))
    }

    /// Whether `key` has been demand-referenced since insertion, or `None`
    /// if not resident.
    #[must_use]
    pub fn is_referenced(&self, key: RowKey) -> Option<bool> {
        self.entries
            .iter()
            .find(|e| e.key == key)
            .map(|e| e.referenced)
    }

    /// Probes the buffer for block `col` of row `key` at time `now`.
    ///
    /// On a hit the entry's line mask, referenced flag, recency, and (for
    /// writes) dirty bit are updated. Returns whether it hit.
    pub fn access(&mut self, key: RowKey, col: u16, now: Cycle, is_write: bool) -> bool {
        self.lookups += 1;
        debug_assert!(u32::from(col) < self.blocks_per_row, "column out of range");
        let Some(idx) = self.entries.iter().position(|e| e.key == key) else {
            return false;
        };
        let e = &mut self.entries[idx];
        e.line_mask |= 1u64 << col;
        e.referenced = true;
        e.last_access = now;
        if is_write {
            e.dirty = true;
        }
        self.hits += 1;
        self.touch(idx);
        true
    }

    /// Inserts a freshly prefetched row at time `now`, evicting a victim if
    /// the buffer is full. Returns the eviction (if any) so the vault can
    /// schedule a writeback for dirty rows and feed accuracy stats.
    ///
    /// Inserting a row that is already resident refreshes its recency and
    /// returns `None` (the fetch was redundant; schemes normally guard with
    /// [`PrefetchBuffer::contains`]).
    pub fn insert(&mut self, key: RowKey, now: Cycle) -> Option<Evicted> {
        self.insert_with_utilization(key, now, 0)
    }

    /// Like [`PrefetchBuffer::insert`], seeding the entry's utilization
    /// with `seed_util` distinct lines that were already served from the
    /// open row before the fetch triggered (the RUT count, §3.2).
    pub fn insert_with_utilization(
        &mut self,
        key: RowKey,
        now: Cycle,
        seed_util: u32,
    ) -> Option<Evicted> {
        if let Some(idx) = self.entries.iter().position(|e| e.key == key) {
            self.touch(idx);
            return None;
        }
        self.insertions += 1;
        let evicted = if self.entries.len() == self.capacity {
            let victim = self.pick_victim();
            Some(self.remove_index(victim))
        } else {
            None
        };
        self.entries.push(Entry {
            key,
            line_mask: 0,
            seed_util: seed_util.min(self.blocks_per_row),
            dirty: false,
            inserted_at: now,
            last_access: now,
            referenced: false,
        });
        self.lru_order.insert(0, self.entries.len() - 1);
        evicted
    }

    /// Removes `key` (e.g. a demand write that must invalidate the stale
    /// prefetched copy). Returns its state if it was resident.
    pub fn invalidate(&mut self, key: RowKey) -> Option<Evicted> {
        let idx = self.entries.iter().position(|e| e.key == key)?;
        Some(self.remove_index(idx))
    }

    /// Drains every resident row (end of simulation), yielding eviction
    /// records so accuracy statistics can count never-referenced residents.
    pub fn drain(&mut self) -> Vec<Evicted> {
        let mut out = Vec::with_capacity(self.entries.len());
        while let Some(idx) = self.entries.len().checked_sub(1) {
            out.push(self.remove_index(idx));
        }
        out
    }

    /// Lifetime (insertions, demand hits, demand lookups).
    #[must_use]
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.insertions, self.hits, self.lookups)
    }

    /// Rows that left the buffer without ever being demand-referenced
    /// (prefetch-accuracy complement for the metrics time-series).
    #[must_use]
    pub fn unused_evictions(&self) -> u64 {
        self.unused_evictions
    }

    /// Moves entry `idx` to MRU.
    fn touch(&mut self, idx: usize) {
        let rank = self.lru_order.iter().position(|&i| i == idx);
        debug_assert!(rank.is_some(), "entry must be in the recency stack");
        if let Some(rank) = rank {
            self.lru_order.remove(rank);
            self.lru_order.insert(0, idx);
        }
    }

    fn pick_victim(&self) -> usize {
        let views: Vec<VictimView> = self
            .entries
            .iter()
            .enumerate()
            .map(|(idx, e)| {
                let rank = self.lru_order.iter().position(|&i| i == idx);
                debug_assert!(rank.is_some(), "entry must be in the recency stack");
                // An entry missing from the stack (impossible unless the
                // invariant broke) ranks as least recent.
                let rank = rank.unwrap_or(self.lru_order.len().saturating_sub(1));
                VictimView {
                    utilization: (e.line_mask.count_ones() + e.seed_util).min(self.blocks_per_row),
                    lines: self.blocks_per_row,
                    recency: (self.capacity - 1 - rank) as u32,
                    inserted_at: e.inserted_at,
                }
            })
            .collect();
        self.policy.victim(&views)
    }

    fn remove_index(&mut self, idx: usize) -> Evicted {
        let e = self.entries.swap_remove(idx);
        if !e.referenced {
            self.unused_evictions += 1;
        }
        let moved = self.entries.len(); // old index of the swapped-in entry
        self.lru_order.retain(|&i| i != idx);
        for slot in &mut self.lru_order {
            if *slot == moved {
                *slot = idx;
            }
        }
        Evicted {
            key: e.key,
            dirty: e.dirty,
            utilization: (e.line_mask.count_ones() + e.seed_util).min(self.blocks_per_row),
            referenced: e.referenced,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key(bank: u16, row: u32) -> RowKey {
        RowKey { bank, row }
    }

    fn buf(cap: u32, policy: ReplacementKind) -> PrefetchBuffer {
        PrefetchBuffer::new(cap, 16, policy)
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let mut b = buf(4, ReplacementKind::Lru);
        assert!(!b.access(key(0, 1), 0, 0, false));
        assert!(b.insert(key(0, 1), 0).is_none());
        assert!(b.access(key(0, 1), 3, 5, false));
        assert_eq!(b.utilization_of(key(0, 1)), Some(1));
        assert_eq!(b.stats(), (1, 1, 2));
    }

    #[test]
    fn distinct_lines_counted_once() {
        let mut b = buf(4, ReplacementKind::Lru);
        b.insert(key(0, 1), 0);
        for _ in 0..3 {
            b.access(key(0, 1), 7, 0, false);
        }
        b.access(key(0, 1), 8, 0, false);
        assert_eq!(b.utilization_of(key(0, 1)), Some(2));
    }

    #[test]
    fn lru_eviction_order() {
        let mut b = buf(2, ReplacementKind::Lru);
        b.insert(key(0, 1), 0);
        b.insert(key(0, 2), 1);
        // Touch row 1 so row 2 becomes LRU.
        b.access(key(0, 1), 0, 2, false);
        let ev = b.insert(key(0, 3), 3).unwrap();
        assert_eq!(ev.key, key(0, 2));
        assert!(!ev.referenced);
    }

    #[test]
    fn mru_recency_is_capacity_minus_one() {
        let mut b = buf(16, ReplacementKind::Lru);
        b.insert(key(0, 1), 0);
        b.insert(key(0, 2), 0);
        assert_eq!(b.recency_of(key(0, 2)), Some(15));
        assert_eq!(b.recency_of(key(0, 1)), Some(14));
        b.access(key(0, 1), 0, 1, false);
        assert_eq!(b.recency_of(key(0, 1)), Some(15));
        assert_eq!(b.recency_of(key(0, 2)), Some(14));
    }

    #[test]
    fn full_buffer_recency_is_permutation_of_0_to_15() {
        let mut b = buf(16, ReplacementKind::Lru);
        for r in 0..16 {
            b.insert(key(0, r), 0);
        }
        let mut seen: Vec<u32> = (0..16).map(|r| b.recency_of(key(0, r)).unwrap()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn util_recency_evicts_consumed_row_first() {
        let mut b = buf(2, ReplacementKind::UtilRecency);
        b.insert(key(0, 1), 0);
        b.insert(key(0, 2), 0);
        // Fully consume row 2 (16 lines), then touch it again so it is MRU.
        for col in 0..16 {
            b.access(key(0, 2), col, 1, false);
        }
        let ev = b.insert(key(0, 3), 2).unwrap();
        assert_eq!(ev.key, key(0, 2));
        assert_eq!(ev.utilization, 16);
        assert!(ev.referenced);
    }

    #[test]
    fn writes_mark_dirty_and_surface_on_eviction() {
        let mut b = buf(1, ReplacementKind::Lru);
        b.insert(key(0, 1), 0);
        b.access(key(0, 1), 2, 0, true);
        let ev = b.insert(key(0, 2), 1).unwrap();
        assert!(ev.dirty);
    }

    #[test]
    fn unused_evictions_count_unreferenced_departures() {
        let mut b = buf(1, ReplacementKind::Lru);
        b.insert(key(0, 1), 0);
        // Never referenced → the eviction is a wasted fetch.
        b.insert(key(0, 2), 1);
        assert_eq!(b.unused_evictions(), 1);
        // Referenced rows leave without charge, even via drain.
        b.access(key(0, 2), 0, 2, false);
        b.drain();
        assert_eq!(b.unused_evictions(), 1);
        // Invalidating an untouched row counts too.
        b.insert(key(0, 3), 3);
        b.invalidate(key(0, 3));
        assert_eq!(b.unused_evictions(), 2);
    }

    #[test]
    fn invalidate_removes_row() {
        let mut b = buf(4, ReplacementKind::Lru);
        b.insert(key(0, 1), 0);
        let ev = b.invalidate(key(0, 1)).unwrap();
        assert_eq!(ev.key, key(0, 1));
        assert!(!b.contains(key(0, 1)));
        assert!(b.invalidate(key(0, 1)).is_none());
    }

    #[test]
    fn duplicate_insert_is_refresh_not_eviction() {
        let mut b = buf(2, ReplacementKind::Lru);
        b.insert(key(0, 1), 0);
        b.insert(key(0, 2), 1);
        assert!(b.insert(key(0, 1), 2).is_none());
        assert_eq!(b.len(), 2);
        assert_eq!(b.recency_of(key(0, 1)), Some(1)); // MRU of capacity 2
    }

    #[test]
    fn drain_reports_all_entries() {
        let mut b = buf(4, ReplacementKind::Lru);
        b.insert(key(0, 1), 0);
        b.insert(key(1, 2), 0);
        b.access(key(0, 1), 0, 1, false);
        let drained = b.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained.iter().filter(|e| e.referenced).count(), 1);
        assert!(b.is_empty());
    }

    proptest! {
        // Random workloads: the buffer never exceeds capacity, the recency
        // stack always indexes each resident entry exactly once, and a
        // just-inserted row is never its own eviction victim.
        #[test]
        fn invariants_under_random_ops(
            ops in prop::collection::vec((0u8..3, 0u32..24, 0u16..16), 1..300),
            policy in prop::sample::select(vec![
                ReplacementKind::Lru,
                ReplacementKind::UtilRecency,
                ReplacementKind::Fifo,
            ]),
        ) {
            let mut b = buf(8, policy);
            for (i, (op, row, col)) in ops.into_iter().enumerate() {
                let k = key(0, row);
                match op {
                    0 => {
                        let was_resident = b.contains(k);
                        let ev = b.insert(k, i as u64);
                        if let Some(ev) = ev {
                            prop_assert!(was_resident || ev.key != k,
                                "fresh insert evicted itself");
                        }
                        prop_assert!(b.contains(k));
                    }
                    1 => { let _ = b.access(k, col, i as u64, false); }
                    _ => { let _ = b.invalidate(k); }
                }
                prop_assert!(b.len() <= b.capacity());
                // Recency stack is a permutation of entry indices.
                let mut order: Vec<u32> = Vec::new();
                for r in 0..24u32 {
                    if let Some(rec) = b.recency_of(key(0, r)) {
                        order.push(rec);
                    }
                }
                order.sort_unstable();
                order.dedup();
                prop_assert_eq!(order.len(), b.len(), "recency ranks must be distinct");
            }
        }

        #[test]
        fn utilization_bounded_by_lines(cols in prop::collection::vec(0u16..16, 1..100)) {
            let mut b = buf(2, ReplacementKind::UtilRecency);
            b.insert(key(0, 0), 0);
            for (i, c) in cols.iter().enumerate() {
                b.access(key(0, 0), *c, i as u64, false);
            }
            let u = b.utilization_of(key(0, 0)).unwrap();
            prop_assert!(u <= 16);
            let distinct: std::collections::HashSet<_> = cols.iter().collect();
            prop_assert_eq!(u as usize, distinct.len());
        }
    }
}
