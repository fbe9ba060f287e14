//! Checkpoint/restore integration tests.
//!
//! The determinism contract: run to cycle K, snapshot to disk, rebuild a
//! fresh machine from the file, continue — final stats must be
//! bit-identical to the uninterrupted run, for every PAPER scheme. Plus
//! the fault path: a fault-injected watchdog trip on a checkpointed run
//! propagates the original typed error.

use camps::checkpoint::{
    decode_snapshot, read_snapshot, snapshot_to_string, SNAPSHOT_FORMAT_VERSION,
};
use camps::experiment::RunSpec;
use camps::system::{Engine, RunState};
use camps::System;
use camps_obs::ObsConfig;
use camps_sim::camps_types::snapshot::Value;
use camps_sim::prelude::*;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("camps-checkpoint-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn tiny() -> RunLength {
    RunLength {
        warmup_instructions: 2_000,
        instructions: 6_000,
        max_cycles: 2_000_000,
    }
}

#[test]
fn snapshot_restore_is_deterministic_for_every_paper_scheme() {
    let cfg = SystemConfig::paper_default();
    let mix = Mix::by_id("HM1").expect("known mix");
    for scheme in SchemeKind::PAPER {
        let path = tmp(&format!("determinism-{scheme:?}.ckpt.json"));
        std::fs::remove_file(&path).ok();
        let full = RunSpec {
            checkpoint: Some((8_000, path.clone())),
            ..RunSpec::new(&cfg, mix, scheme, tiny(), 0xFEED)
        }
        .run()
        .expect("clean run");
        assert!(
            path.exists(),
            "{scheme:?}: run finished without leaving a checkpoint"
        );
        // Fresh machine, rebuilt from config + manifest, state overlaid
        // from the file, run to completion.
        let resumed = RunSpec::from_snapshot(&cfg, &path)
            .and_then(|spec| spec.run())
            .expect("resume");
        assert_eq!(full.ipc, resumed.ipc, "{scheme:?}: per-core IPC drifted");
        assert_eq!(
            full.cycles, resumed.cycles,
            "{scheme:?}: cycle count drifted"
        );
        assert_eq!(
            full.vaults, resumed.vaults,
            "{scheme:?}: vault stats drifted"
        );
        assert_eq!(full.amat_mem, resumed.amat_mem, "{scheme:?}: AMAT drifted");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn watchdog_trip_with_zero_budget_propagates_the_typed_error() {
    let mut cfg = SystemConfig::paper_default();
    cfg.faults.stall_vault = 3;
    cfg.faults.stall_vault_from = 1;
    cfg.integrity.watchdog_cycles = 20_000;
    let mix = Mix::by_id("HM1").expect("known mix");
    let err = RunSpec {
        checkpoint: Some((10_000, tmp("wedged.ckpt.json"))),
        ..RunSpec::new(&cfg, mix, SchemeKind::CampsMod, tiny(), 0xFEED)
    }
    .run()
    .expect_err("the wedge must propagate");
    assert!(
        matches!(err, SimError::Watchdog(_)),
        "the original typed error must survive, got {err}"
    );
}

#[test]
fn snapshots_are_byte_identical_with_and_without_observability() {
    // Observability is runtime-only state: a machine with full tracing
    // and metrics sampling enabled must checkpoint to the exact bytes a
    // bare machine does, or restores would depend on how a run was
    // watched.
    let cfg = SystemConfig::paper_default();
    let mix = Mix::by_id("HM1").expect("known mix");
    let capacity = cfg
        .hmc
        .address_mapping()
        .expect("valid mapping")
        .capacity_bytes();
    let build = || {
        let traces = mix.build_traces(capacity, 0xFEED).expect("traces");
        let mut sys = System::new(&cfg, SchemeKind::CampsMod, traces).expect("system");
        // Polling: both machines advance one cycle per step, so they
        // reach the same checkpoint cycle regardless of the sampler's
        // extra wake source.
        sys.set_engine(Engine::Polling);
        sys
    };
    let mut bare = build();
    let mut observed = build();
    observed.enable_obs(&ObsConfig {
        trace_out: Some(tmp("identity.trace.json")),
        metrics_every: Some(100),
        metrics_out: Some(tmp("identity.metrics.jsonl")),
        ..ObsConfig::default()
    });
    let mut run_a = bare.run_begin(3_000, 2_000_000);
    let mut run_b = observed.run_begin(3_000, 2_000_000);
    while bare.now() < 500 {
        assert!(bare.run_step(&mut run_a).expect("step"), "ended too early");
    }
    while observed.now() < 500 {
        assert!(
            observed.run_step(&mut run_b).expect("step"),
            "ended too early"
        );
    }
    assert!(
        observed.obs().samples() > 0,
        "the observed machine must actually be sampling"
    );
    let a = snapshot_to_string(&bare, &run_a, "HM1", 0xFEED).expect("serialize bare");
    let b = snapshot_to_string(&observed, &run_b, "HM1", 0xFEED).expect("serialize observed");
    assert_eq!(a, b, "observability state leaked into the snapshot");
}

#[test]
fn rowguard_counters_ride_in_snapshots_and_round_trip_bit_identically() {
    use camps::checkpoint::restore_run;
    use camps_sim::camps_types::snapshot::field;

    let cfg = fixture_cfg();
    let mix = Mix::by_id("HM1").expect("known mix");
    let capacity = cfg
        .hmc
        .address_mapping()
        .expect("valid mapping")
        .capacity_bytes();
    let traces = mix.build_traces(capacity, 0xFEED).expect("traces");
    let mut sys = System::new(&cfg, SchemeKind::Camps, traces).expect("system");
    let mut run = sys.run_begin(3_000, 2_000_000);
    // Stop mid refresh window (tREFI is ~23k cycles): activations have
    // happened, no refresh has cleared the trackers yet.
    while sys.now() < 600 {
        assert!(sys.run_step(&mut run).expect("step"), "ended too early");
    }
    let text = snapshot_to_string(&sys, &run, FIXTURE_MIX, 0xFEED).expect("serialize");
    let (manifest, state) = decode_snapshot(&text).expect("decode own snapshot");

    // The per-vault rowguard trackers must actually carry counters.
    let hmc = field(
        field(field(&state, "system").expect("system"), "mem").expect("mem"),
        "hmc",
    )
    .expect("hmc");
    let Value::Seq(vaults) = field(hmc, "vaults").expect("vaults") else {
        panic!("vault states must serialize as a sequence");
    };
    let tracking = vaults
        .iter()
        .filter(|v| {
            matches!(
                field(v, "rowguard").expect("every vault snapshots its rowguard"),
                Value::Seq(rows) if !rows.is_empty()
            )
        })
        .count();
    assert!(
        tracking > 0,
        "mid-window, at least one vault must have live activation counters"
    );

    // A fresh machine restored from the snapshot re-serializes to the
    // exact same bytes — rowguard counters included.
    let traces = mix.build_traces(capacity, 0xFEED).expect("traces");
    let mut restored = System::new(&cfg, SchemeKind::Camps, traces).expect("system");
    let mut restored_run = restored.run_begin(3_000, 2_000_000);
    restore_run(&mut restored, &mut restored_run, &manifest, &state).expect("restore");
    let again =
        snapshot_to_string(&restored, &restored_run, FIXTURE_MIX, 0xFEED).expect("serialize");
    assert_eq!(text, again, "rowguard state drifted through restore");
}

// ---------------------------------------------------------------------
// Committed-fixture compatibility: a snapshot written by an earlier
// build must keep restoring, and a fresh one must keep its layout. CI
// runs the `committed_fixture*` tests on every push; regenerate with
// `cargo test --test checkpoint_restore -- --ignored` when the format
// version is bumped (and bump SNAPSHOT_FORMAT_VERSION when layout
// changes).
// ---------------------------------------------------------------------

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/checkpoint_v1.json")
}

/// The exact machine the fixture was generated from. Restores must
/// rebuild from an identical config or the manifest hash check fires.
/// Auditing is pinned on: debug builds audit unconditionally, so a
/// fixture captured with auditing off would replay its in-flight
/// requests as false `UnknownCompletion` violations there.
fn fixture_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::paper_default();
    cfg.integrity.audit = true;
    cfg
}

const FIXTURE_MIX: &str = "HM1";
const FIXTURE_SEED: u64 = 0xF1C;

/// The fixture machine: HM1 under CAMPS, stepped to cycle 300. Early
/// enough to keep the fixture small, late enough for in-flight requests
/// and partly primed caches (the interesting restore cases).
fn fixture_machine() -> (System, RunState) {
    let cfg = fixture_cfg();
    let mix = Mix::by_id(FIXTURE_MIX).expect("known mix");
    let capacity = cfg
        .hmc
        .address_mapping()
        .expect("valid mapping")
        .capacity_bytes();
    let traces = mix.build_traces(capacity, FIXTURE_SEED).expect("traces");
    let mut sys = System::new(&cfg, SchemeKind::Camps, traces).expect("system");
    let mut run = sys.run_begin(3_000, 2_000_000);
    while sys.now() < 300 {
        assert!(sys.run_step(&mut run).expect("step"), "run ended too early");
    }
    (sys, run)
}

#[test]
#[ignore = "regenerates the committed fixture; run manually"]
fn generate_checkpoint_fixture() {
    let (sys, run) = fixture_machine();
    // Committed compactly: `read_snapshot` is whitespace-insensitive and
    // the checksum is over the compact serialization, so this is still
    // format v1 — but a regeneration diffs as one changed line instead of
    // tens of thousands.
    let text = snapshot_to_string(&sys, &run, FIXTURE_MIX, FIXTURE_SEED).expect("serialize");
    let doc: Value = serde_json::from_str(&text).expect("valid snapshot JSON");
    let compact = serde_json::to_string(&doc).expect("compact render");
    std::fs::write(fixture_path(), compact + "\n").expect("write fixture");
}

/// `fresh` cut down to the map keys `old` has, recursively, so keys added
/// since `old` was written (under `#[serde(default)]`) drop out.
fn keep_keys_of(fresh: &Value, old: &Value) -> Value {
    match (fresh, old) {
        (Value::Map(fresh), Value::Map(old)) => Value::Map(
            fresh
                .iter()
                .filter_map(|(k, v)| {
                    let (_, o) = old.iter().find(|(ok, _)| ok == k)?;
                    Some((k.clone(), keep_keys_of(v, o)))
                })
                .collect(),
        ),
        (Value::Seq(fresh), Value::Seq(old)) if fresh.len() == old.len() => Value::Seq(
            fresh
                .iter()
                .zip(old)
                .map(|(f, o)| keep_keys_of(f, o))
                .collect(),
        ),
        _ => fresh.clone(),
    }
}

#[test]
fn committed_fixture_matches_a_fresh_snapshot() {
    // Pins the v1 layout: key names, key order and value encodings. A
    // fresh snapshot of the fixture machine, cut to the fixture's keys,
    // must be byte-identical to the committed state.
    let (committed_manifest, committed_state) =
        read_snapshot(&fixture_path()).expect("fixture must verify");
    let (sys, run) = fixture_machine();
    let text = snapshot_to_string(&sys, &run, FIXTURE_MIX, FIXTURE_SEED).expect("serialize");
    let (manifest, state) = decode_snapshot(&text).expect("decode own snapshot");
    assert_eq!(manifest, committed_manifest);
    let fresh = serde_json::to_string(&keep_keys_of(&state, &committed_state)).expect("render");
    let committed = serde_json::to_string(&committed_state).expect("render");
    // Not `assert_eq!`: the two strings are ~200 KB. Show where they part.
    let at = fresh
        .bytes()
        .zip(committed.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(fresh.len().min(committed.len()));
    assert!(
        fresh == committed,
        "a fresh snapshot no longer matches the committed v1 layout at byte {at}: \
         committed …{}…, fresh …{}…",
        &committed[at.saturating_sub(60)..(at + 60).min(committed.len())],
        &fresh[at.saturating_sub(60)..(at + 60).min(fresh.len())]
    );
}

#[test]
fn committed_fixture_restores_and_completes() {
    let path = fixture_path();
    let (manifest, _state) = read_snapshot(&path).expect("fixture must verify");
    assert_eq!(manifest.format, SNAPSHOT_FORMAT_VERSION);
    assert_eq!(manifest.mix_id, FIXTURE_MIX);
    assert_eq!(manifest.seed, FIXTURE_SEED);
    let result = RunSpec::from_snapshot(&fixture_cfg(), &path)
        .and_then(|spec| spec.run())
        .expect("fixture must resume");
    assert_eq!(result.mix_id, FIXTURE_MIX);
    assert_eq!(result.ipc.len(), 8);
    assert!(
        result.cycles > manifest.cycle,
        "the resumed run must continue past the checkpoint cycle"
    );
    assert!(result.ipc.iter().all(|&i| i > 0.0 && i <= 4.0));
}
