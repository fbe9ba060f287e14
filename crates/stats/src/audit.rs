//! Request-conservation accounting for the request auditor.
//!
//! The auditor itself (id-level lifecycle tracking) lives in the core
//! crate next to the memory subsystem it checks; this module holds the
//! *accounting* side — per-vault injected/completed counters — so the
//! numbers travel with the rest of the run statistics and serialize into
//! experiment output like every other counter.

use crate::counter::Counter;
use serde::{Deserialize, Serialize};

/// Per-vault request conservation counts. For a clean finished run,
/// `injected == completed` in every vault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct VaultAudit {
    /// Demand/writeback/prefetch requests the host injected toward this
    /// vault.
    pub injected: Counter,
    /// Responses the host received back from this vault.
    pub completed: Counter,
}

impl VaultAudit {
    /// Requests still in flight (injected but not completed).
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        self.injected.get().saturating_sub(self.completed.get())
    }
}

/// Whole-cube request ledger: one [`VaultAudit`] per vault.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AuditLedger {
    /// Per-vault conservation counts, indexed by vault id.
    pub vaults: Box<[VaultAudit]>,
}

impl AuditLedger {
    /// A ledger for `vaults` vaults, all counts zero.
    #[must_use]
    pub fn new(vaults: usize) -> Self {
        Self {
            vaults: vec![VaultAudit::default(); vaults].into_boxed_slice(),
        }
    }

    /// Records an injection toward `vault` (out-of-range ids are counted
    /// in the last bucket rather than dropped, so totals stay exact).
    pub fn record_injected(&mut self, vault: usize) {
        if let Some(v) = self.bucket(vault) {
            v.injected.inc();
        }
    }

    /// Records a completion from `vault`.
    pub fn record_completed(&mut self, vault: usize) {
        if let Some(v) = self.bucket(vault) {
            v.completed.inc();
        }
    }

    fn bucket(&mut self, vault: usize) -> Option<&mut VaultAudit> {
        let last = self.vaults.len().checked_sub(1)?;
        Some(&mut self.vaults[vault.min(last)])
    }

    /// Total requests injected.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.vaults.iter().map(|v| v.injected.get()).sum()
    }

    /// Total responses received.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.vaults.iter().map(|v| v.completed.get()).sum()
    }

    /// Requests still in flight across the cube.
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        self.vaults.iter().map(VaultAudit::outstanding).sum()
    }

    /// True when every vault's books balance.
    #[must_use]
    pub fn balanced(&self) -> bool {
        self.vaults.iter().all(|v| v.outstanding() == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_balances_when_completions_match() {
        let mut l = AuditLedger::new(4);
        l.record_injected(0);
        l.record_injected(3);
        assert_eq!(l.outstanding(), 2);
        assert!(!l.balanced());
        l.record_completed(0);
        l.record_completed(3);
        assert!(l.balanced());
        assert_eq!(l.injected(), 2);
        assert_eq!(l.completed(), 2);
    }

    #[test]
    fn out_of_range_vault_counts_in_last_bucket() {
        let mut l = AuditLedger::new(2);
        l.record_injected(99);
        assert_eq!(l.vaults[1].injected.get(), 1);
        // Empty ledgers drop rather than index out of bounds.
        let mut empty = AuditLedger::new(0);
        empty.record_injected(0);
        assert_eq!(empty.injected(), 0);
    }

    #[test]
    fn ledger_serializes() {
        let mut l = AuditLedger::new(2);
        l.record_injected(1);
        let s = serde_json::to_string(&l).unwrap();
        assert!(s.contains("injected"));
    }
}
