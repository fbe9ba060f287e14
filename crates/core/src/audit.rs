//! The request-lifetime auditor.
//!
//! Tags every request the memory subsystem injects into the cube and
//! checks conservation when responses come back: no request may be lost,
//! injected twice while outstanding, or completed twice. Simulator bugs
//! that corrupt the request lifecycle (a queue overwrite, a duplicated
//! response, a dropped packet) produce silently-wrong IPC numbers — the
//! auditor turns them into a typed [`IntegrityError`] instead.
//!
//! Auditing is always on in debug builds and opt-in
//! ([`camps_types::IntegrityConfig::audit`]) in release builds. The cost
//! is one hash-map insert/remove per memory request — noise next to the
//! per-cycle work of the vault controllers, but not zero, hence the
//! release-mode gate.
//!
//! Violations are *latched*, not returned inline: the hot per-cycle path
//! stays `Result`-free, and [`System::run`](crate::system::System::run)
//! polls [`RequestAuditor::take_violation`] once per tick, aborting the
//! run with the latched error.

use camps_stats::AuditLedger;
use camps_types::error::IntegrityError;
use camps_types::request::RequestId;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Request-conservation checker (see the module docs).
///
/// `enabled` is a construction input. A latched `violation` is never
/// present at snapshot time: the run loop polls and aborts before a
/// checkpoint could be taken, so it is not serialized.
#[derive(Debug, Serialize, Deserialize)]
pub struct RequestAuditor {
    #[serde(skip)]
    enabled: bool,
    /// Vault each outstanding request id was routed to.
    outstanding: HashMap<u64, usize>,
    /// Ids that have completed (detects double completion after the
    /// outstanding entry is gone).
    completed: HashSet<u64>,
    ledger: AuditLedger,
    #[serde(skip)]
    violation: Option<IntegrityError>,
}

impl RequestAuditor {
    /// An auditor for a cube with `vaults` vaults. `enabled` is the
    /// release-mode opt-in; debug builds audit unconditionally.
    #[must_use]
    pub fn new(enabled: bool, vaults: usize) -> Self {
        Self {
            enabled: enabled || cfg!(debug_assertions),
            outstanding: HashMap::new(),
            completed: HashSet::new(),
            ledger: AuditLedger::new(vaults),
            violation: None,
        }
    }

    /// True when auditing is active in this build/configuration.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records `id` entering the cube toward `vault`.
    pub fn record_injected(&mut self, id: RequestId, vault: usize) {
        if !self.enabled {
            return;
        }
        self.ledger.record_injected(vault);
        if self.outstanding.insert(id.0, vault).is_some() {
            self.latch(IntegrityError::DuplicateInjection { id });
        }
        // A retired id being reused for a new request is legal (ids are
        // monotonic in practice, but the auditor does not rely on it).
        self.completed.remove(&id.0);
    }

    /// Records a response for `id` arriving back at the host.
    pub fn record_completed(&mut self, id: RequestId) {
        if !self.enabled {
            return;
        }
        match self.outstanding.remove(&id.0) {
            Some(vault) => {
                self.ledger.record_completed(vault);
                self.completed.insert(id.0);
            }
            None if self.completed.contains(&id.0) => {
                self.latch(IntegrityError::DuplicateCompletion { id });
            }
            None => {
                self.latch(IntegrityError::UnknownCompletion { id });
            }
        }
    }

    /// End-of-drain check: the memory system claims idle, so nothing may
    /// be outstanding. Call only when the cube reports not busy.
    pub fn check_drained(&mut self) {
        if !self.enabled || self.outstanding.is_empty() {
            return;
        }
        let mut ids: Vec<u64> = self.outstanding.keys().copied().collect();
        ids.sort_unstable(); // deterministic despite HashMap iteration order
        ids.truncate(8);
        self.latch(IntegrityError::LostRequests {
            outstanding: self.outstanding.len(),
            examples: ids.into_iter().map(RequestId).collect(),
        });
    }

    /// Takes the first latched violation, if any (later ones are dropped:
    /// the first corruption is the one worth debugging).
    pub fn take_violation(&mut self) -> Option<IntegrityError> {
        self.violation.take()
    }

    /// Latches a violation detected outside the auditor itself (e.g. a
    /// response naming a nonexistent core). First violation wins, like
    /// the internal checks.
    pub fn latch_violation(&mut self, violation: IntegrityError) {
        self.latch(violation);
    }

    /// Per-vault conservation counts.
    #[must_use]
    pub fn ledger(&self) -> &AuditLedger {
        &self.ledger
    }

    fn latch(&mut self, violation: IntegrityError) {
        if self.violation.is_none() {
            self.violation = Some(violation);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camps_types::snapshot::Snapshot;

    fn auditor() -> RequestAuditor {
        RequestAuditor::new(true, 4)
    }

    #[test]
    fn clean_lifecycle_has_no_violation() {
        let mut a = auditor();
        a.record_injected(RequestId(1), 0);
        a.record_injected(RequestId(2), 3);
        a.record_completed(RequestId(1));
        a.record_completed(RequestId(2));
        a.check_drained();
        assert!(a.take_violation().is_none());
        assert!(a.ledger().balanced());
        assert_eq!(a.ledger().injected(), 2);
    }

    #[test]
    fn duplicate_completion_is_caught() {
        let mut a = auditor();
        a.record_injected(RequestId(7), 1);
        a.record_completed(RequestId(7));
        a.record_completed(RequestId(7));
        assert!(matches!(
            a.take_violation(),
            Some(IntegrityError::DuplicateCompletion { id: RequestId(7) })
        ));
    }

    #[test]
    fn unknown_completion_is_caught() {
        let mut a = auditor();
        a.record_completed(RequestId(9));
        assert!(matches!(
            a.take_violation(),
            Some(IntegrityError::UnknownCompletion { id: RequestId(9) })
        ));
    }

    #[test]
    fn duplicate_injection_is_caught() {
        let mut a = auditor();
        a.record_injected(RequestId(5), 0);
        a.record_injected(RequestId(5), 0);
        assert!(matches!(
            a.take_violation(),
            Some(IntegrityError::DuplicateInjection { id: RequestId(5) })
        ));
    }

    #[test]
    fn lost_requests_are_caught_at_drain() {
        let mut a = auditor();
        a.record_injected(RequestId(1), 0);
        a.record_injected(RequestId(2), 1);
        a.check_drained();
        match a.take_violation() {
            Some(IntegrityError::LostRequests {
                outstanding,
                examples,
            }) => {
                assert_eq!(outstanding, 2);
                assert_eq!(examples, vec![RequestId(1), RequestId(2)]);
            }
            other => panic!("expected LostRequests, got {other:?}"),
        }
    }

    #[test]
    fn first_violation_wins() {
        let mut a = auditor();
        a.record_completed(RequestId(1)); // unknown
        a.record_injected(RequestId(2), 0);
        a.record_injected(RequestId(2), 0); // duplicate, dropped
        assert!(matches!(
            a.take_violation(),
            Some(IntegrityError::UnknownCompletion { .. })
        ));
        assert!(a.take_violation().is_none());
    }

    #[test]
    fn snapshot_round_trips_in_flight_requests() {
        let mut a = auditor();
        a.record_injected(RequestId(1), 0);
        a.record_injected(RequestId(2), 3);
        a.record_injected(RequestId(3), 1);
        a.record_completed(RequestId(1));
        let state = a.save_state();
        let mut b = auditor();
        b.restore_state(&state).unwrap();
        // Both in-flight requests complete after the restore: clean drain.
        b.record_completed(RequestId(2));
        b.record_completed(RequestId(3));
        b.check_drained();
        assert!(b.take_violation().is_none());
        assert!(b.ledger().balanced());
        assert_eq!(b.ledger().injected(), 3);
        // Id 1 already completed before the snapshot; completing it again
        // in the restored auditor is still a double completion.
        b.record_completed(RequestId(1));
        assert!(matches!(
            b.take_violation(),
            Some(IntegrityError::DuplicateCompletion { id: RequestId(1) })
        ));
    }

    #[test]
    fn restore_that_drops_an_in_flight_request_surfaces_at_drain() {
        let mut a = auditor();
        a.record_injected(RequestId(10), 0);
        a.record_injected(RequestId(11), 2);
        let state = a.save_state();
        let mut b = auditor();
        b.restore_state(&state).unwrap();
        // The restored run only ever answers request 10 — request 11 was
        // lost across the restore boundary. The existing lost-request
        // check must catch it at drain.
        b.record_completed(RequestId(10));
        b.check_drained();
        match b.take_violation() {
            Some(IntegrityError::LostRequests {
                outstanding,
                examples,
            }) => {
                assert_eq!(outstanding, 1);
                assert_eq!(examples, vec![RequestId(11)]);
            }
            other => panic!("expected LostRequests, got {other:?}"),
        }
    }

    #[test]
    fn restore_rejects_mismatched_ledger_width() {
        let mut a = auditor(); // 4 vaults
        a.record_injected(RequestId(1), 0);
        let state = a.save_state();
        let mut b = RequestAuditor::new(true, 8);
        let err = b.restore_state(&state).unwrap_err();
        assert!(err.to_string().contains("vaults"), "got: {err}");
    }

    #[test]
    fn id_reuse_after_completion_is_legal() {
        let mut a = auditor();
        a.record_injected(RequestId(3), 0);
        a.record_completed(RequestId(3));
        a.record_injected(RequestId(3), 2);
        a.record_completed(RequestId(3));
        a.check_drained();
        assert!(a.take_violation().is_none());
    }
}
