//! Checkpoint and restore of a mid-flight run.
//!
//! A snapshot captures the machine ([`System`]) together with the run's
//! bookkeeping ([`RunState`]), so a fresh process can rebuild the
//! machine from its configuration and workload, overlay the snapshot,
//! and continue bit-identically. The run driver
//! ([`RunSpec`](crate::experiment::RunSpec)) writes snapshots on a
//! cycle schedule and resumes from them; the sweep supervisor uses that
//! to resume killed or failed jobs.
//!
//! On-disk format (DESIGN.md §8): a single JSON document
//! `{"manifest": {...}, "checksum": N, "state": {...}}` where `checksum`
//! is FNV-1a over the compact JSON serialization of the `state` subtree
//! and the manifest pins format version, config hash, scheme, mix, seed,
//! and cycle. The loader verifies all of these before touching any state.

use crate::system::{RunState, System};
use camps_prefetch::SchemeKind;
use camps_types::config::SystemConfig;
use camps_types::error::SimError;
use camps_types::snapshot::{field, fnv1a, Snapshot, SnapshotManifest};
use serde::value::Value;
use serde::{Deserialize, Serialize};
use std::path::Path;

pub use camps_types::snapshot::{SnapshotManifest as Manifest, SNAPSHOT_FORMAT_VERSION};

/// FNV-1a hash of the compact-JSON form of `cfg` — the manifest's
/// configuration fingerprint.
///
/// # Errors
/// [`SimError::Snapshot`] if the config fails to serialize.
pub fn config_hash(cfg: &SystemConfig) -> Result<u64, SimError> {
    let text = serde_json::to_string(cfg).map_err(|e| SimError::Snapshot {
        reason: format!("config serialization failed: {e}"),
    })?;
    Ok(fnv1a(text.as_bytes()))
}

fn scheme_name(scheme: SchemeKind) -> String {
    match scheme.to_value() {
        Value::Str(s) => s,
        other => format!("{other:?}"), // unreachable for a unit enum
    }
}

/// Parses the manifest's scheme name (the serde identifier, e.g.
/// `"CampsMod"`) back into a [`SchemeKind`].
///
/// # Errors
/// [`SimError::Snapshot`] for an unknown name.
pub fn scheme_from_name(name: &str) -> Result<SchemeKind, SimError> {
    SchemeKind::from_value(&Value::Str(name.to_string())).map_err(|_| SimError::Snapshot {
        reason: format!("manifest names unknown scheme `{name}`"),
    })
}

/// Builds the identification block for a snapshot of `sys` at its
/// current cycle.
///
/// # Errors
/// Propagates [`config_hash`] failures.
pub fn build_manifest(sys: &System, mix_id: &str, seed: u64) -> Result<SnapshotManifest, SimError> {
    Ok(SnapshotManifest {
        format: SNAPSHOT_FORMAT_VERSION,
        config_hash: config_hash(sys.config())?,
        scheme: scheme_name(sys.scheme()),
        mix_id: mix_id.to_string(),
        seed,
        cycle: sys.now(),
        build: env!("CARGO_PKG_VERSION").to_string(),
    })
}

fn state_checksum(state: &Value) -> Result<u64, SimError> {
    let text = serde_json::to_string(state).map_err(|e| SimError::Snapshot {
        reason: format!("state serialization failed: {e}"),
    })?;
    Ok(fnv1a(text.as_bytes()))
}

/// Encodes a manifest + state pair as the on-disk JSON document.
///
/// # Errors
/// [`SimError::Snapshot`] on serialization failure.
pub fn encode_snapshot(manifest: &SnapshotManifest, state: &Value) -> Result<String, SimError> {
    let doc = Value::Map(vec![
        ("manifest".into(), manifest.to_value()),
        ("checksum".into(), Value::U64(state_checksum(state)?)),
        ("state".into(), state.clone()),
    ]);
    serde_json::to_string_pretty(&doc).map_err(|e| SimError::Snapshot {
        reason: format!("snapshot serialization failed: {e}"),
    })
}

/// Decodes (and fully verifies) an on-disk snapshot document: format
/// version and state checksum are checked before anything is returned.
///
/// # Errors
/// [`SimError::Snapshot`] on malformed JSON, a format-version mismatch,
/// or a checksum mismatch.
pub fn decode_snapshot(text: &str) -> Result<(SnapshotManifest, Value), SimError> {
    let doc: Value = serde_json::from_str(text).map_err(|e| SimError::Snapshot {
        reason: format!("snapshot is not valid JSON: {e}"),
    })?;
    let manifest = SnapshotManifest::from_value(field(&doc, "manifest")?)?;
    if manifest.format != SNAPSHOT_FORMAT_VERSION {
        return Err(SimError::Snapshot {
            reason: format!(
                "snapshot format v{} is not readable by this build (v{SNAPSHOT_FORMAT_VERSION})",
                manifest.format
            ),
        });
    }
    let declared: u64 = u64::from_value(field(&doc, "checksum")?)?;
    let state = field(&doc, "state")?.clone();
    let actual = state_checksum(&state)?;
    if declared != actual {
        return Err(SimError::Snapshot {
            reason: format!(
                "snapshot checksum mismatch: declared {declared:#018x}, computed {actual:#018x} \
                 (truncated or corrupted file)"
            ),
        });
    }
    Ok((manifest, state))
}

/// Captures `sys` + `run` into a snapshot document string.
///
/// # Errors
/// Propagates manifest/serialization failures.
pub fn snapshot_to_string(
    sys: &System,
    run: &RunState,
    mix_id: &str,
    seed: u64,
) -> Result<String, SimError> {
    let manifest = build_manifest(sys, mix_id, seed)?;
    let state = Value::Map(vec![
        ("system".into(), sys.save_state()),
        ("run".into(), run.save_state()),
    ]);
    encode_snapshot(&manifest, &state)
}

/// Writes a verified snapshot of `sys` + `run` to `path` (write to a
/// temporary sibling, then rename, so a crash never leaves a torn file).
///
/// # Errors
/// [`SimError::Snapshot`] on serialization or I/O failure.
pub fn write_snapshot(
    path: &Path,
    sys: &System,
    run: &RunState,
    mix_id: &str,
    seed: u64,
) -> Result<(), SimError> {
    let text = snapshot_to_string(sys, run, mix_id, seed)?;
    let tmp = path.with_extension("tmp");
    let io_err = |e: std::io::Error| SimError::Snapshot {
        reason: format!("writing {}: {e}", path.display()),
    };
    std::fs::write(&tmp, text).map_err(io_err)?;
    std::fs::rename(&tmp, path).map_err(io_err)?;
    Ok(())
}

/// Reads and verifies a snapshot document from `path`.
///
/// # Errors
/// [`SimError::Snapshot`] on I/O failure or any verification failure.
pub fn read_snapshot(path: &Path) -> Result<(SnapshotManifest, Value), SimError> {
    let text = std::fs::read_to_string(path).map_err(|e| SimError::Snapshot {
        reason: format!("reading {}: {e}", path.display()),
    })?;
    decode_snapshot(&text)
}

/// Overlays a decoded snapshot onto a freshly built `sys` + `run` pair,
/// after verifying the manifest matches the machine (config hash and
/// scheme). The caller is responsible for rebuilding `sys` from the same
/// config/traces the manifest describes.
///
/// # Errors
/// [`SimError::Snapshot`] on a manifest mismatch or a state-shape
/// mismatch.
pub fn restore_run(
    sys: &mut System,
    run: &mut RunState,
    manifest: &SnapshotManifest,
    state: &Value,
) -> Result<(), SimError> {
    let expect_hash = config_hash(sys.config())?;
    if manifest.config_hash != expect_hash {
        return Err(SimError::Snapshot {
            reason: format!(
                "snapshot was taken under a different configuration \
                 (hash {:#018x}, this machine {expect_hash:#018x})",
                manifest.config_hash
            ),
        });
    }
    let scheme = scheme_from_name(&manifest.scheme)?;
    if scheme != sys.scheme() {
        return Err(SimError::Snapshot {
            reason: format!(
                "snapshot ran scheme {}, this machine runs {:?}",
                manifest.scheme,
                sys.scheme()
            ),
        });
    }
    sys.restore_state(field(state, "system")?)?;
    run.restore_state(field(state, "run")?)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use camps_cpu::trace::{TraceOp, TraceSource, VecTrace};
    use camps_types::addr::PhysAddr;
    use camps_types::error::IntegrityError;

    fn traces(cfg: &SystemConfig) -> Vec<Box<dyn TraceSource>> {
        (0..cfg.cpu.cores)
            .map(|c| {
                let ops: Vec<TraceOp> = (0..2048u64)
                    .map(|i| {
                        TraceOp::load(2, PhysAddr((u64::from(c) << 24) + (i * 64) % (1 << 20)))
                    })
                    .collect();
                Box::new(VecTrace::new(format!("stream{c}"), ops)) as Box<dyn TraceSource>
            })
            .collect()
    }

    #[test]
    fn snapshot_file_round_trips_with_verification() {
        let cfg = SystemConfig::small();
        let mut sys = System::new(&cfg, SchemeKind::Camps, traces(&cfg)).unwrap();
        let mut run = sys.run_begin(10_000, 1_000_000);
        for _ in 0..2_500 {
            sys.run_step(&mut run).unwrap();
        }
        let dir = std::env::temp_dir().join("camps-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mid.ckpt.json");
        write_snapshot(&path, &sys, &run, "unit", 7).unwrap();
        let (manifest, state) = read_snapshot(&path).unwrap();
        assert_eq!(manifest.format, SNAPSHOT_FORMAT_VERSION);
        assert_eq!(manifest.mix_id, "unit");
        assert_eq!(manifest.seed, 7);
        assert_eq!(manifest.cycle, sys.now());
        assert_eq!(manifest.scheme, "Camps");
        // Restore into a fresh machine and continue both to the end.
        let mut fresh = System::new(&cfg, SchemeKind::Camps, traces(&cfg)).unwrap();
        let mut fresh_run = fresh.run_begin(10_000, 1_000_000);
        restore_run(&mut fresh, &mut fresh_run, &manifest, &state).unwrap();
        while sys.run_step(&mut run).unwrap() {}
        while fresh.run_step(&mut fresh_run).unwrap() {}
        let ra = sys.run_finish(&run, "unit").unwrap();
        let rb = fresh.run_finish(&fresh_run, "unit").unwrap();
        assert_eq!(ra.ipc, rb.ipc);
        assert_eq!(ra.cycles, rb.cycles);
        assert_eq!(ra.vaults, rb.vaults);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_snapshot_is_rejected_by_checksum() {
        let cfg = SystemConfig::small();
        let mut sys = System::new(&cfg, SchemeKind::Nopf, traces(&cfg)).unwrap();
        let run = sys.run_begin(1_000, 100_000);
        let text = snapshot_to_string(&sys, &run, "unit", 0).unwrap();
        // Flip a digit inside the state payload (not the manifest).
        let state_at = text.find("\"state\"").unwrap();
        let digit_at = text[state_at..].find(|c: char| c.is_ascii_digit()).unwrap() + state_at;
        let mut corrupt = text.clone();
        let old = corrupt.as_bytes()[digit_at];
        let new = if old == b'9' { b'0' } else { old + 1 };
        // Safety: replacing one ASCII digit with another keeps it UTF-8.
        unsafe { corrupt.as_bytes_mut()[digit_at] = new };
        let err = decode_snapshot(&corrupt).unwrap_err();
        assert!(
            matches!(&err, SimError::Snapshot { reason } if reason.contains("checksum")),
            "got {err}"
        );
        // The untouched document still verifies.
        decode_snapshot(&text).unwrap();
    }

    #[test]
    fn restore_rejects_config_and_scheme_drift() {
        let cfg = SystemConfig::small();
        let mut sys = System::new(&cfg, SchemeKind::Nopf, traces(&cfg)).unwrap();
        let run = sys.run_begin(1_000, 100_000);
        let text = snapshot_to_string(&sys, &run, "unit", 0).unwrap();
        let (manifest, state) = decode_snapshot(&text).unwrap();
        // Different scheme, same config.
        let mut other = System::new(&cfg, SchemeKind::Camps, traces(&cfg)).unwrap();
        let mut other_run = other.run_begin(1_000, 100_000);
        let err = restore_run(&mut other, &mut other_run, &manifest, &state).unwrap_err();
        assert!(
            matches!(&err, SimError::Snapshot { reason } if reason.contains("scheme")),
            "got {err}"
        );
        // Different config (changed watchdog), same scheme.
        let mut drifted = cfg.clone();
        drifted.integrity.watchdog_cycles += 1;
        let mut third = System::new(&drifted, SchemeKind::Nopf, traces(&drifted)).unwrap();
        let mut third_run = third.run_begin(1_000, 100_000);
        let err = restore_run(&mut third, &mut third_run, &manifest, &state).unwrap_err();
        assert!(
            matches!(&err, SimError::Snapshot { reason } if reason.contains("configuration")),
            "got {err}"
        );
    }

    #[test]
    fn corrupt_core_id_is_a_typed_integrity_error() {
        // Directly exercise the new variant's rendering.
        let err = SimError::Integrity(IntegrityError::CorruptCoreId { core: 9, cores: 4 });
        assert!(err.to_string().contains("core 9"), "{err}");
    }
}
