//! The prefetch-scheme interface and the factory for all evaluated schemes.
//!
//! The vault controller translates its row-buffer activity into calls on
//! [`PrefetchScheme`]; the scheme answers with [`PfAction`]s. Keeping the
//! interface event-shaped (rather than letting schemes poke at DRAM state)
//! makes every scheme a pure, unit-testable state machine and guarantees
//! all five schemes see exactly the same information the paper's hardware
//! would: row-buffer hit/miss/conflict outcomes and read-queue occupancy.

use crate::replacement::ReplacementKind;
use crate::schemes::{base::Base, base_hit::BaseHit, camps::Camps, mmd::Mmd, none::Nopf};
use camps_types::addr::RowKey;
use camps_types::config::PrefetchBufferConfig;
use serde::value::Value;
use serde::{de, Deserialize, Serialize};
use std::fmt;

/// What the vault controller should do in response to an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PfAction {
    /// Nothing to prefetch.
    None,
    /// Stream the currently open row `key` into the prefetch buffer over
    /// the TSV path.
    FetchRow {
        /// The row to copy (it is open in its bank when the action fires).
        key: RowKey,
        /// Close the bank once the copy completes. CAMPS and BASE do this
        /// ("…and precharges bank to make it ready for next request",
        /// §3.1); BASE-HIT/MMD leave the row open under the open-page
        /// policy.
        precharge_after: bool,
        /// Distinct lines already served from the open row before this
        /// fetch (the RUT count); seeds the buffer entry's §3.2
        /// utilization counter.
        used_so_far: u32,
    },
}

/// One of the paper's evaluated prefetching schemes.
pub trait PrefetchScheme: Send {
    /// Which scheme this is.
    fn kind(&self) -> SchemeKind;

    /// Replacement policy the prefetch buffer should use under this scheme.
    fn replacement(&self) -> ReplacementKind;

    /// A demand access was just served from the open row `key`
    /// (row-buffer hit). `queued_same_row` counts *other* read-queue
    /// entries waiting on the same row.
    fn on_row_hit(&mut self, key: RowKey, queued_same_row: u32) -> PfAction;

    /// Row `key` was just activated to serve a demand access.
    /// `conflict` is true if a different row had to be closed first.
    fn on_row_activated(&mut self, key: RowKey, conflict: bool, queued_same_row: u32) -> PfAction;

    /// The prefetch buffer served a demand access from `key`;
    /// `first_touch` marks the first demand reference to that resident row
    /// (the usefulness signal MMD adapts on).
    fn on_buffer_hit(&mut self, key: RowKey, first_touch: bool) {
        let _ = (key, first_touch);
    }

    /// Row `key` left the buffer; `referenced` tells whether any demand
    /// access touched it while resident.
    fn on_buffer_evicted(&mut self, key: RowKey, referenced: bool) {
        let _ = (key, referenced);
    }

    /// Diagnostic one-liner of internal state (adaptive thresholds etc.).
    fn debug_state(&self) -> String {
        self.kind().name().to_string()
    }

    /// `(RUT entries, CT entries)` currently live — the occupancy gauge
    /// behind the metrics time-series. Table-less schemes report zero.
    fn table_occupancy(&self) -> (usize, usize) {
        (0, 0)
    }

    /// Captures the scheme's mutable state (RUT/CT contents, adaptive
    /// thresholds) for checkpointing. Stateless schemes return
    /// [`Value::Null`] (the default).
    fn save_state(&self) -> Value {
        Value::Null
    }

    /// Overlays state captured by [`PrefetchScheme::save_state`] on an
    /// identically constructed scheme.
    ///
    /// # Errors
    /// Returns a deserialization error on shape mismatch (snapshot from a
    /// different scheme kind or a format break).
    fn restore_state(&mut self, state: &Value) -> Result<(), de::Error> {
        let _ = state;
        Ok(())
    }
}

/// A vault's scheme field snapshots through the scheme's own methods. A
/// scheme cannot be built from a snapshot alone, only restored in place
/// onto one built from the configuration.
impl Serialize for Box<dyn PrefetchScheme> {
    fn to_value(&self) -> Value {
        PrefetchScheme::save_state(&**self)
    }
}

impl Deserialize for Box<dyn PrefetchScheme> {
    fn from_value(_: &Value) -> Result<Self, de::Error> {
        Err(de::Error::custom(
            "snapshot: a prefetch scheme restores only in place",
        ))
    }

    fn from_value_in_place(&mut self, v: &Value) -> Result<(), de::Error> {
        PrefetchScheme::restore_state(&mut **self, v)
    }
}

/// Identifier + factory for the evaluated schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchemeKind {
    /// No prefetching (reference point for ablations; not in Figure 5).
    Nopf,
    /// Prefetch the whole row on the first access to it (paper's BASE).
    Base,
    /// Prefetch a row once ≥ 2 read-queue requests target it (BASE-HIT).
    BaseHit,
    /// Usefulness-adaptive memory-side prefetcher with LRU buffer (MMD).
    Mmd,
    /// Conflict-aware prefetching (§3.1) with an LRU buffer (CAMPS).
    Camps,
    /// CAMPS + utilization/recency buffer management (§3.2, CAMPS-MOD).
    CampsMod,
}

impl SchemeKind {
    /// Every scheme, NOPF included.
    pub const ALL: [SchemeKind; 6] = [
        Self::Nopf,
        Self::Base,
        Self::BaseHit,
        Self::Mmd,
        Self::Camps,
        Self::CampsMod,
    ];

    /// The five schemes of Figure 5 (everything except NOPF).
    pub const PAPER: [SchemeKind; 5] = [
        Self::Base,
        Self::BaseHit,
        Self::Mmd,
        Self::Camps,
        Self::CampsMod,
    ];

    /// Display name matching the paper's figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Nopf => "NOPF",
            Self::Base => "BASE",
            Self::BaseHit => "BASE-HIT",
            Self::Mmd => "MMD",
            Self::Camps => "CAMPS",
            Self::CampsMod => "CAMPS-MOD",
        }
    }

    /// Instantiates the scheme for a vault with `banks` banks.
    #[must_use]
    pub fn build(self, cfg: &PrefetchBufferConfig, banks: u32) -> Box<dyn PrefetchScheme> {
        match self {
            Self::Nopf => Box::new(Nopf),
            Self::Base => Box::new(Base),
            Self::BaseHit => Box::new(BaseHit),
            Self::Mmd => Box::new(Mmd::new(banks, cfg.mmd_epoch)),
            Self::Camps => Box::new(Camps::new(banks, cfg, ReplacementKind::Lru)),
            Self::CampsMod => Box::new(Camps::new(banks, cfg, ReplacementKind::UtilRecency)),
        }
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SchemeKind {
    type Err = String;

    /// Case-insensitive; accepts the paper's names (`CAMPS-MOD`) and the
    /// CLI's hyphen-free spellings (`campsmod`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "nopf" => Ok(Self::Nopf),
            "base" => Ok(Self::Base),
            "basehit" | "base-hit" => Ok(Self::BaseHit),
            "mmd" => Ok(Self::Mmd),
            "camps" => Ok(Self::Camps),
            "campsmod" | "camps-mod" => Ok(Self::CampsMod),
            _ => Err(format!(
                "unknown scheme `{s}` (nopf|base|basehit|mmd|camps|campsmod)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camps_types::config::SystemConfig;

    #[test]
    fn names_match_paper_figures() {
        assert_eq!(SchemeKind::Base.name(), "BASE");
        assert_eq!(SchemeKind::BaseHit.name(), "BASE-HIT");
        assert_eq!(SchemeKind::Mmd.name(), "MMD");
        assert_eq!(SchemeKind::Camps.name(), "CAMPS");
        assert_eq!(SchemeKind::CampsMod.name(), "CAMPS-MOD");
        assert_eq!(SchemeKind::CampsMod.to_string(), "CAMPS-MOD");
    }

    #[test]
    fn names_parse_back_and_unknown_names_fail() {
        for kind in SchemeKind::ALL {
            assert_eq!(kind.name().parse::<SchemeKind>(), Ok(kind));
        }
        assert_eq!("campsmod".parse::<SchemeKind>(), Ok(SchemeKind::CampsMod));
        let err = "camps2".parse::<SchemeKind>().unwrap_err();
        assert!(err.contains("camps2") && err.contains("campsmod"), "{err}");
    }

    #[test]
    fn factory_builds_matching_kinds() {
        let cfg = SystemConfig::paper_default().prefetch;
        for kind in SchemeKind::ALL {
            let s = kind.build(&cfg, 16);
            assert_eq!(s.kind(), kind);
        }
    }

    #[test]
    fn only_camps_mod_uses_util_recency() {
        let cfg = SystemConfig::paper_default().prefetch;
        for kind in SchemeKind::ALL {
            let s = kind.build(&cfg, 16);
            let expect = if kind == SchemeKind::CampsMod {
                ReplacementKind::UtilRecency
            } else {
                ReplacementKind::Lru
            };
            assert_eq!(s.replacement(), expect, "{kind}");
        }
    }

    #[test]
    fn paper_set_excludes_nopf() {
        assert!(!SchemeKind::PAPER.contains(&SchemeKind::Nopf));
        assert_eq!(SchemeKind::PAPER.len(), 5);
    }
}
