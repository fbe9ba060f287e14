//! Checkpoint/restore vocabulary: the [`Snapshot`] trait, the on-disk
//! manifest, and the checksum/versioning helpers shared by every stateful
//! component.
//!
//! Serialization is value-based (the workspace's serde subset), and a
//! component's state is its derived `Serialize`/`Deserialize`. Restore
//! never *constructs* a component — the caller rebuilds it from the same
//! configuration/inputs first, then overlays the saved mutable state with
//! [`Deserialize::from_value_in_place`]. That split keeps snapshots small
//! (no config duplication) and makes config drift detectable via the
//! manifest's config hash instead of silently misinterpreting state.
//!
//! Rules every component follows (DESIGN.md §8):
//!
//! * Every field is captured unless marked `#[serde(skip)]`; only
//!   construction inputs and scratch buffers are skipped.
//! * Key order is field declaration order.
//! * Hash-based collections and priority queues serialize as sorted
//!   sequences (the vendored serde's encodings).
//! * Fixed-shape collections (one entry per core, vault, bank) are boxed
//!   slices, whose overlay rejects a length change.
//! * Checks that reject a state the built component cannot hold run
//!   after the overlay, via `#[serde(check)]`.

use crate::clock::Cycle;
use serde::value::lookup;
use serde::{de, Deserialize, Serialize};
// Re-exported: `Value` appears in the `Snapshot` trait's signatures, so
// downstream code must be able to name it from here.
pub use serde::value::Value;

/// Version tag of the on-disk snapshot format. Bump whenever any
/// component changes its state layout incompatibly; the loader rejects
/// mismatches with a typed error instead of misreading bytes.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 1;

/// A component whose complete mutable state can be captured and later
/// overlaid onto a freshly rebuilt instance. Implemented for every
/// serde type: the state is the derived encoding.
pub trait Snapshot {
    /// Lowers the component's mutable state to a value tree.
    fn save_state(&self) -> Value;

    /// Overlays `state` (a tree produced by [`Snapshot::save_state`] on an
    /// identically configured instance) onto `self`.
    ///
    /// # Errors
    /// Returns a deserialization error when the tree's shape does not
    /// match — a format break or a snapshot from a different
    /// configuration.
    fn restore_state(&mut self, state: &Value) -> Result<(), de::Error>;
}

impl<T: Serialize + Deserialize> Snapshot for T {
    fn save_state(&self) -> Value {
        self.to_value()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), de::Error> {
        self.from_value_in_place(state)
    }
}

/// Identification block stored next to the state payload in every
/// snapshot file. Restore verifies each field before touching any state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotManifest {
    /// On-disk format version ([`SNAPSHOT_FORMAT_VERSION`] at write time).
    pub format: u32,
    /// FNV-1a hash of the compact-JSON serialized `SystemConfig` the run
    /// used. A restore under a different configuration is rejected.
    pub config_hash: u64,
    /// Prefetching scheme name (e.g. `"CAMPS-MOD"`).
    pub scheme: String,
    /// Workload mix id (e.g. `"HM1"`); empty for ad-hoc trace runs.
    pub mix_id: String,
    /// Workload seed the traces were built from.
    pub seed: u64,
    /// Simulation cycle at which the snapshot was taken.
    pub cycle: Cycle,
    /// Build identifier of the writer (crate version), informational.
    pub build: String,
}

/// FNV-1a over `bytes` — the checksum used for both the config hash and
/// the state-payload integrity check. Not cryptographic; it exists to
/// catch truncation, bit rot, and accidental hand edits.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Looks up required field `key` in map value `v`.
///
/// # Errors
/// Returns an error naming the missing key or the non-map shape.
pub fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, de::Error> {
    let entries = v
        .as_map()
        .ok_or_else(|| de::Error::custom(format!("snapshot: expected map, got {v:?}")))?;
    lookup(entries, key)
        .ok_or_else(|| de::Error::custom(format!("snapshot: missing field `{key}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = SnapshotManifest {
            format: SNAPSHOT_FORMAT_VERSION,
            config_hash: 0xDEAD_BEEF,
            scheme: "CAMPS".into(),
            mix_id: "HM1".into(),
            seed: 42,
            cycle: 123_456,
            build: "0.1.0".into(),
        };
        let s = serde_json::to_string(&m).unwrap();
        let d: SnapshotManifest = serde_json::from_str(&s).unwrap();
        assert_eq!(m, d);
    }

    #[test]
    fn field_reports_missing_keys() {
        let v = Value::Map(vec![("x".into(), Value::U64(7))]);
        assert_eq!(field(&v, "x").unwrap(), &Value::U64(7));
        let err = field(&v, "y").unwrap_err();
        assert!(err.to_string().contains("missing field `y`"));
        let err = field(&Value::U64(1), "x").unwrap_err();
        assert!(err.to_string().contains("expected map"));
    }
}
