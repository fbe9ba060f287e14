//! BASE-HIT — prefetch a row once the read queue shows reuse.
//!
//! §5: "The second scheme prefetches a whole row if the row has two or
//! more hits based on the requests in the read queue." The scheme fires
//! when the access being served plus the requests still queued for the
//! same row reach two; the row stays open afterwards (open-page policy).

use crate::replacement::ReplacementKind;
use crate::scheme::{PfAction, PrefetchScheme, SchemeKind};
use camps_types::addr::RowKey;

/// Read-queue-reuse triggered prefetcher.
#[derive(Debug, Default, Clone, Copy)]
pub struct BaseHit;

impl BaseHit {
    fn decide(key: RowKey, queued_same_row: u32) -> PfAction {
        // The request being served counts as the first "hit"; one or more
        // queued requests to the same row make it two.
        if queued_same_row >= 1 {
            PfAction::FetchRow {
                key,
                precharge_after: false,
                used_so_far: 1,
            }
        } else {
            PfAction::None
        }
    }
}

impl PrefetchScheme for BaseHit {
    fn kind(&self) -> SchemeKind {
        SchemeKind::BaseHit
    }

    fn replacement(&self) -> ReplacementKind {
        ReplacementKind::Lru
    }

    fn on_row_hit(&mut self, key: RowKey, queued_same_row: u32) -> PfAction {
        Self::decide(key, queued_same_row)
    }

    fn on_row_activated(&mut self, key: RowKey, _conflict: bool, queued_same_row: u32) -> PfAction {
        Self::decide(key, queued_same_row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lone_request_does_not_fetch() {
        let mut s = BaseHit;
        let k = RowKey { bank: 1, row: 3 };
        assert_eq!(s.on_row_hit(k, 0), PfAction::None);
        assert_eq!(s.on_row_activated(k, false, 0), PfAction::None);
    }

    #[test]
    fn queued_reuse_triggers_fetch_without_precharge() {
        let mut s = BaseHit;
        let k = RowKey { bank: 1, row: 3 };
        assert_eq!(
            s.on_row_hit(k, 1),
            PfAction::FetchRow {
                key: k,
                precharge_after: false,
                used_so_far: 1
            }
        );
        assert_eq!(
            s.on_row_activated(k, true, 3),
            PfAction::FetchRow {
                key: k,
                precharge_after: false,
                used_so_far: 1
            }
        );
    }
}
