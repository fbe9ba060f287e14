//! Per-vault statistics.

use camps_dram::energy::EnergyCounters;
use camps_stats::{Counter, Log2Histogram};
use serde::{Deserialize, Serialize};

/// Everything one vault measures over a run. Merged across vaults by the
/// system layer and turned into the paper's figures.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct VaultStats {
    /// Demand reads completed (responses produced for reads).
    pub reads: Counter,
    /// Demand writes accepted.
    pub writes: Counter,
    /// Demand accesses served straight from the prefetch buffer.
    pub buffer_hits: Counter,
    /// Demand accesses that had to touch a bank: hits.
    pub row_hits: Counter,
    /// …row misses (idle bank, activation needed).
    pub row_misses: Counter,
    /// …row-buffer conflicts (precharge + activation needed) — the event
    /// CAMPS minimizes (Figure 6).
    pub row_conflicts: Counter,
    /// Whole rows prefetched into the buffer.
    pub prefetches: Counter,
    /// Prefetched rows that were referenced at least once before leaving
    /// the buffer — numerator of Figure 7's accuracy.
    pub prefetches_referenced: Counter,
    /// Prefetch fetches abandoned because the row closed first.
    pub prefetches_dropped: Counter,
    /// Dirty prefetched rows written back to their bank.
    pub writebacks: Counter,
    /// Demand requests rejected for a full queue (backpressure events).
    pub queue_rejects: Counter,
    /// Round-trip latency of reads inside the vault (enqueue → response),
    /// CPU cycles.
    pub read_latency: Log2Histogram,
    /// Write-drain activations.
    pub drain_entries: Counter,
    /// All-bank refreshes performed.
    #[serde(default)]
    pub refreshes: Counter,
    /// Cycles the vault's shared TSV data bus was granted (demand bursts,
    /// fetch slots, writeback transfers) — bandwidth-utilization metric.
    #[serde(default)]
    pub bus_busy_cycles: Counter,
    /// ACT commands issued on behalf of demand requests.
    #[serde(default)]
    pub demand_activations: Counter,
    /// ACT commands issued to fetch prefetch rows into the buffer. Always
    /// 0: every row fetch copies a row that demand already opened. Kept
    /// because the checkpoint fixture and `runresult_single_cube.tsv`
    /// pin the key, and the RowHammer amplification report sums it.
    #[serde(default)]
    pub prefetch_activations: Counter,
    /// ACT commands issued to write dirty prefetched rows back.
    #[serde(default)]
    pub writeback_activations: Counter,
    /// Worst per-row activation count observed inside any single refresh
    /// window (tREFI ≡ tREFW here) — the RowHammer exposure metric.
    /// Merged across vaults by max, not sum.
    #[serde(default)]
    pub worst_row_window_acts: u64,
    /// TRR-style neighbor refreshes injected by the rowguard mitigation
    /// (always zero with mitigation off).
    #[serde(default)]
    pub mitigations: Counter,
    /// DRAM/prefetch energy events.
    pub energy: EnergyCounters,
}

impl VaultStats {
    /// Fresh, zeroed statistics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bank accesses that were classified (hit + miss + conflict).
    #[must_use]
    pub fn bank_accesses(&self) -> u64 {
        self.row_hits.get() + self.row_misses.get() + self.row_conflicts.get()
    }

    /// Row-buffer conflict rate over bank accesses (Figure 6's metric),
    /// `None` when the vault saw no bank traffic.
    #[must_use]
    pub fn conflict_rate(&self) -> Option<f64> {
        let total = self.bank_accesses();
        (total > 0).then(|| self.row_conflicts.as_f64() / total as f64)
    }

    /// Prefetch accuracy (Figure 7): referenced / issued.
    #[must_use]
    pub fn prefetch_accuracy(&self) -> Option<f64> {
        let issued = self.prefetches.get();
        (issued > 0).then(|| self.prefetches_referenced.as_f64() / issued as f64)
    }

    /// Folds another vault's stats into this one.
    pub fn merge(&mut self, other: &VaultStats) {
        self.reads.merge(other.reads);
        self.writes.merge(other.writes);
        self.buffer_hits.merge(other.buffer_hits);
        self.row_hits.merge(other.row_hits);
        self.row_misses.merge(other.row_misses);
        self.row_conflicts.merge(other.row_conflicts);
        self.prefetches.merge(other.prefetches);
        self.prefetches_referenced
            .merge(other.prefetches_referenced);
        self.prefetches_dropped.merge(other.prefetches_dropped);
        self.writebacks.merge(other.writebacks);
        self.queue_rejects.merge(other.queue_rejects);
        self.read_latency.merge(&other.read_latency);
        self.drain_entries.merge(other.drain_entries);
        self.refreshes.merge(other.refreshes);
        self.bus_busy_cycles.merge(other.bus_busy_cycles);
        self.demand_activations.merge(other.demand_activations);
        self.prefetch_activations.merge(other.prefetch_activations);
        self.writeback_activations
            .merge(other.writeback_activations);
        // Worst-case exposure is a maximum across vaults: summing would
        // overstate what any single row experienced.
        self.worst_row_window_acts = self.worst_row_window_acts.max(other.worst_row_window_acts);
        self.mitigations.merge(other.mitigations);
        self.energy.merge(&other.energy);
    }

    /// Total ACT commands issued, by attribution.
    #[must_use]
    pub fn total_activations(&self) -> u64 {
        self.demand_activations.get()
            + self.prefetch_activations.get()
            + self.writeback_activations.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_rate_over_bank_accesses() {
        let mut s = VaultStats::new();
        s.row_hits.add(6);
        s.row_misses.add(2);
        s.row_conflicts.add(2);
        assert_eq!(s.bank_accesses(), 10);
        assert_eq!(s.conflict_rate(), Some(0.2));
    }

    #[test]
    fn empty_rates_are_none() {
        let s = VaultStats::new();
        assert_eq!(s.conflict_rate(), None);
        assert_eq!(s.prefetch_accuracy(), None);
    }

    #[test]
    fn accuracy_is_referenced_over_issued() {
        let mut s = VaultStats::new();
        s.prefetches.add(8);
        s.prefetches_referenced.add(6);
        assert_eq!(s.prefetch_accuracy(), Some(0.75));
    }

    #[test]
    fn merge_sums_counters_and_histograms() {
        let mut a = VaultStats::new();
        a.reads.add(2);
        a.read_latency.record(100);
        let mut b = VaultStats::new();
        b.reads.add(3);
        b.row_conflicts.add(1);
        b.read_latency.record(200);
        a.merge(&b);
        assert_eq!(a.reads.get(), 5);
        assert_eq!(a.row_conflicts.get(), 1);
        assert_eq!(a.read_latency.count(), 2);
    }

    #[test]
    fn worst_window_acts_merge_by_max_and_activations_by_sum() {
        let mut a = VaultStats::new();
        a.demand_activations.add(10);
        a.prefetch_activations.add(4);
        a.worst_row_window_acts = 7;
        let mut b = VaultStats::new();
        b.demand_activations.add(1);
        b.writeback_activations.add(2);
        b.worst_row_window_acts = 90;
        b.mitigations.add(3);
        a.merge(&b);
        assert_eq!(a.total_activations(), 17);
        assert_eq!(a.worst_row_window_acts, 90, "max, not sum");
        assert_eq!(a.mitigations.get(), 3);
    }
}
