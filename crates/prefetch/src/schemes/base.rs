//! BASE — prefetch the whole row on the first access to it.
//!
//! §5: "the baseline scheme, which prefetches a whole row at the first
//! access to the row". Every activation immediately streams the row into
//! the buffer and precharges the bank, so BASE never suffers row-buffer
//! conflicts (§5.2 excludes it from Figure 6 for exactly that reason) but
//! pollutes the small buffer with barely used rows, which is what CAMPS
//! beats by 17.9 % on average.

use crate::replacement::ReplacementKind;
use crate::scheme::{PfAction, PrefetchScheme, SchemeKind};
use camps_types::addr::RowKey;

/// The aggressive always-prefetch baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct Base;

impl PrefetchScheme for Base {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Base
    }

    fn replacement(&self) -> ReplacementKind {
        ReplacementKind::Lru
    }

    fn on_row_hit(&mut self, key: RowKey, _queued_same_row: u32) -> PfAction {
        // Under BASE a row-buffer hit only happens in the short window
        // between activation and the row copy completing; insisting on the
        // fetch is harmless (the vault deduplicates in-flight fetches).
        PfAction::FetchRow {
            key,
            precharge_after: true,
            used_so_far: 1,
        }
    }

    fn on_row_activated(
        &mut self,
        key: RowKey,
        _conflict: bool,
        _queued_same_row: u32,
    ) -> PfAction {
        PfAction::FetchRow {
            key,
            precharge_after: true,
            used_so_far: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_activation_fetches_and_precharges() {
        let mut s = Base;
        let k = RowKey { bank: 2, row: 9 };
        assert_eq!(
            s.on_row_activated(k, false, 0),
            PfAction::FetchRow {
                key: k,
                precharge_after: true,
                used_so_far: 1
            }
        );
        assert_eq!(
            s.on_row_activated(k, true, 5),
            PfAction::FetchRow {
                key: k,
                precharge_after: true,
                used_so_far: 1
            }
        );
    }

    #[test]
    fn hits_also_fetch() {
        let mut s = Base;
        let k = RowKey { bank: 0, row: 0 };
        assert_eq!(
            s.on_row_hit(k, 0),
            PfAction::FetchRow {
                key: k,
                precharge_after: true,
                used_so_far: 1
            }
        );
    }
}
