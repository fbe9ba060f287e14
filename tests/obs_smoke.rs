//! Observability smoke tests.
//!
//! A traced run must export a Perfetto-loadable Chrome trace-event JSON
//! carrying at least six distinct request-stage span types plus the
//! checkpoint/fault events, even when the run fails; the metrics
//! time-series must be well-formed;
//! and on a merge-free read workload the per-stage latency breakdown
//! must reconcile with the run's `amat_mem` within 1%.

use camps::experiment::RunSpec;
use camps::system::Engine;
use camps_cpu::trace::{TraceOp, TraceSource, VecTrace};
use camps_obs::{ObsConfig, METRICS_SCHEMA_VERSION};
use camps_sim::prelude::*;
use camps_types::addr::PhysAddr;
use serde::value::{lookup, Value};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("camps-obs-tests");
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

/// Event names in the trace, split by phase: async span begins (`b`)
/// and instants (`i`).
struct TraceNames {
    spans: BTreeSet<String>,
    instants: BTreeSet<String>,
}

fn read_trace_names(path: &PathBuf) -> TraceNames {
    let text = std::fs::read_to_string(path).expect("trace file exists");
    let doc: Value = serde_json::from_str(&text).expect("trace is valid JSON");
    let root = doc.as_map().expect("trace root is an object");
    let Some(Value::Seq(events)) = lookup(root, "traceEvents") else {
        panic!("trace has no traceEvents array");
    };
    let mut names = TraceNames {
        spans: BTreeSet::new(),
        instants: BTreeSet::new(),
    };
    for ev in events {
        let ev = ev.as_map().expect("event is an object");
        let ph = lookup(ev, "ph").and_then(Value::as_str).unwrap_or("");
        let name = lookup(ev, "name").and_then(Value::as_str).unwrap_or("");
        let set = match ph {
            "b" => &mut names.spans,
            "i" => &mut names.instants,
            _ => continue,
        };
        set.insert(name.to_string());
    }
    names
}

#[test]
fn traced_failing_run_exports_all_span_kinds() {
    // The checkpoint_restore fault scenario, now observed: vault 3
    // wedges and the watchdog trips; the trace of the failed run must
    // still be written.
    let mut cfg = SystemConfig::paper_default();
    cfg.faults.stall_vault = 3;
    cfg.faults.stall_vault_from = 1;
    cfg.integrity.watchdog_cycles = 20_000;
    let mix = Mix::by_id("HM1").expect("known mix");
    let trace_path = tmp("failing.trace.json");
    std::fs::remove_file(&trace_path).ok();
    let err = RunSpec {
        obs: Some(ObsConfig {
            trace_out: Some(trace_path.clone()),
            ..ObsConfig::default()
        }),
        checkpoint: Some((10_000, tmp("failing.ckpt.json"))),
        ..RunSpec::new(&cfg, mix, SchemeKind::CampsMod, tiny(), 0xFEED)
    }
    .run()
    .expect_err("the stalled vault must fail the run");
    assert!(
        matches!(err, SimError::Watchdog(_)),
        "the watchdog must trip, got {err}"
    );

    let names = read_trace_names(&trace_path);
    assert!(
        names.spans.len() >= 6,
        "want ≥6 distinct stage span types, got {:?}",
        names.spans
    );
    for stage in [
        "cache_mshr",
        "host_queue",
        "req_link",
        "vault_queue",
        "resp_link",
    ] {
        assert!(names.spans.contains(stage), "missing span type {stage}");
    }
    assert!(
        names.spans.iter().any(|n| n.starts_with("bank_")),
        "no bank service span in {:?}",
        names.spans
    );
    for instant in ["checkpoint", "watchdog_trip", "fault_vault_stall"] {
        assert!(
            names.instants.contains(instant),
            "missing instant {instant} in {:?}",
            names.instants
        );
    }
    std::fs::remove_file(&trace_path).ok();
}

#[test]
fn metrics_series_is_well_formed_and_monotonic() {
    let mix = Mix::by_id("LM1").expect("known mix");
    let metrics_path = tmp("plain.metrics.jsonl");
    let obs_cfg = ObsConfig {
        metrics_every: Some(500),
        metrics_out: Some(metrics_path.clone()),
        ..ObsConfig::default()
    };
    let cfg = SystemConfig::paper_default();
    let result = RunSpec {
        engine: Engine::Event,
        obs: Some(obs_cfg),
        ..RunSpec::new(&cfg, mix, SchemeKind::Camps, tiny(), 7)
    }
    .run()
    .expect("observed run");

    // The breakdown rides in the result of an observed run.
    let breakdown = result.stage_latency.expect("observed run has a breakdown");
    assert_eq!(
        breakdown.stages.len(),
        camps_obs::STAGE_COUNT,
        "fixed-width stage schema"
    );
    assert!(breakdown.demand_reads > 0);

    let text = std::fs::read_to_string(&metrics_path).expect("metrics file exists");
    let mut rows = 0u64;
    let mut last_cycle: Option<u64> = None;
    let mut last_retired = 0u64;
    for line in text.lines() {
        let row: Value = serde_json::from_str(line).expect("row is valid JSON");
        let row = row.as_map().expect("row is an object");
        assert_eq!(
            lookup(row, "schema"),
            Some(&Value::U64(u64::from(METRICS_SCHEMA_VERSION))),
            "schema version mismatch"
        );
        let Some(&Value::U64(cycle)) = lookup(row, "cycle") else {
            panic!("row has no cycle: {line}");
        };
        if let Some(prev) = last_cycle {
            assert!(
                cycle > prev,
                "cycles must strictly increase ({prev} → {cycle})"
            );
        }
        last_cycle = Some(cycle);
        // Counters are cumulative: retired never decreases.
        let Some(&Value::U64(retired)) = lookup(row, "retired") else {
            panic!("row has no retired: {line}");
        };
        assert!(retired >= last_retired, "retired went backwards");
        last_retired = retired;
        rows += 1;
    }
    assert!(rows > 10, "expected a real series, got {rows} rows");
    assert!(last_retired > 0, "the series never saw progress");
    std::fs::remove_file(&metrics_path).ok();
}

#[test]
fn stage_breakdown_reconciles_with_amat_on_merge_free_reads() {
    // One narrow core streaming loads with a row-sized stride: every
    // access is a distinct block (no MSHR merging), every load is a
    // demand read, so the telescoped stage sums must reproduce the
    // `amat_mem` accounting exactly. No warmup: the histograms and the
    // AMAT accumulator must see the same set of reads.
    let mut cfg = SystemConfig::paper_default();
    cfg.cpu.cores = 1;
    let ops: Vec<TraceOp> = (0..4096u64)
        .map(|i| TraceOp::load(2, PhysAddr(i * (1 << 13))))
        .collect();
    let traces: Vec<Box<dyn TraceSource>> =
        vec![Box::new(VecTrace::new("stream".to_string(), ops))];
    let mut sys = System::new(&cfg, SchemeKind::Camps, traces).expect("system");
    sys.enable_obs(&ObsConfig::default());
    let result = sys.run(8_000, 2_000_000, "reconcile").expect("run");

    let breakdown = result.stage_latency.expect("observed run has a breakdown");
    assert!(breakdown.demand_reads > 100, "not enough traced reads");
    let stage_sum: f64 = breakdown.stages.iter().map(|s| s.mean_cycles).sum();
    let relative = |a: f64, b: f64| (a - b).abs() / b.max(1e-9);
    assert!(
        relative(stage_sum, breakdown.mean_total) < 1e-9,
        "stage means must telescope: sum {stage_sum} vs total {}",
        breakdown.mean_total
    );
    assert!(
        relative(breakdown.mean_total, result.amat_mem) < 0.01,
        "breakdown {:.3} does not reconcile with amat_mem {:.3}",
        breakdown.mean_total,
        result.amat_mem
    );
}

/// Observers must observe without perturbing: a profiled run's
/// `RunResult`, and a traced and sampled one's, minus the host-side
/// blocks only an observed run can carry, is byte-identical to the
/// plain run's. When the hooks are compiled in, the span tree must
/// telescope (exclusive nanoseconds sum exactly to the measured root
/// wall time), the expected component paths must appear, the event
/// engine must report per-wake-source dispatch accounting, and
/// `--profile-out` must yield parseable folded-stack lines. When built
/// `--no-default-features` every hook folds away and the same run
/// yields no profile at all — the identity check holds in both modes.
#[test]
fn profiler_attributes_wall_time_without_perturbing_the_run() {
    let cfg = SystemConfig::paper_default();
    let mix = Mix::by_id("HM1").expect("known mix");
    let plain = RunSpec {
        engine: Engine::Event,
        ..RunSpec::new(&cfg, mix, SchemeKind::Camps, tiny(), 21)
    }
    .run()
    .expect("plain run");
    assert!(
        plain.profile.is_none(),
        "profile must be absent unless requested"
    );

    // Run under an observer, strip the host-timing payloads (wall-clock,
    // so nondeterministic by design) and demand bit-identity on
    // everything simulated.
    let observed = |what: &str, obs| {
        let mut result = RunSpec {
            engine: Engine::Event,
            obs: Some(obs),
            ..RunSpec::new(&cfg, mix, SchemeKind::Camps, tiny(), 21)
        }
        .run()
        .expect("observed run");
        let summary = result.profile.take();
        result.stage_latency = None;
        assert_eq!(
            serde_json::to_string(&plain).expect("plain serializes"),
            serde_json::to_string(&result).expect("observed serializes"),
            "{what} perturbed the simulation"
        );
        summary
    };

    let trace_path = tmp("hm1.observed.trace.json");
    observed(
        "tracing and metrics sampling",
        ObsConfig {
            // A compiled-out build refuses to export a trace.
            trace_out: camps_obs::TraceHandle::compiled().then(|| trace_path.clone()),
            metrics_every: Some(1_000),
            ..ObsConfig::default()
        },
    );
    std::fs::remove_file(&trace_path).ok();

    let folded_path = tmp("hm1.folded.txt");
    let summary = observed(
        "profiling",
        ObsConfig {
            profile: true,
            profile_out: Some(folded_path.clone()),
            ..ObsConfig::default()
        },
    );

    let folded = std::fs::read_to_string(&folded_path).expect("profile-out file exists");
    std::fs::remove_file(&folded_path).ok();

    if !camps_obs::TraceHandle::compiled() {
        // Compiled-out build: hooks record nothing, the file is written
        // but empty.
        assert!(
            summary.is_none(),
            "compiled-out build must not produce a profile"
        );
        return;
    }

    let summary = summary.expect("profiled run carries a summary");
    assert!(summary.total_ns > 0, "no wall time measured");
    assert_eq!(
        summary.attributed_ns(),
        summary.total_ns,
        "span tree must telescope: every nanosecond under run_loop \
         lands in exactly one node"
    );
    let paths: BTreeSet<&str> = summary.nodes.iter().map(|n| n.path.as_str()).collect();
    for path in [
        "run_loop",
        "run_loop;wake_scan",
        "run_loop;run_step;core_retire;cache_lookup",
        "run_loop;run_step;mem_tick;hmc_tick;vault_tick;issue_scan",
        "run_loop;run_step;mem_tick;cache_fill",
    ] {
        assert!(
            paths.contains(path),
            "missing span path {path} in {paths:?}"
        );
    }

    // Dispatch accounting: the event engine attributes every jump to a
    // wake source, and outcomes never outnumber the wakes they judge.
    assert!(
        !summary.wake_sources.is_empty(),
        "event engine must report wake sources"
    );
    let total_wakes: u64 = summary.wake_sources.iter().map(|w| w.wakes).sum();
    assert!(total_wakes > 0, "no wakes recorded");
    for w in &summary.wake_sources {
        assert!(
            w.productive + w.spurious <= w.wakes,
            "{}: outcomes ({} + {}) exceed wakes ({})",
            w.source,
            w.productive,
            w.spurious,
            w.wakes
        );
    }

    // The folded export is real flamegraph input: `path ns` per line,
    // every stack rooted at run_loop.
    assert!(!folded.is_empty(), "folded export is empty");
    for line in folded.lines() {
        let (path, ns) = line.rsplit_once(' ').expect("line is `path ns`");
        assert!(path.starts_with("run_loop"), "stack not rooted: {line}");
        ns.parse::<u64>().expect("trailing field is nanoseconds");
    }
}

/// A disabled profiler is inert regardless of build mode: no clock
/// reads observable through `stamp`, no summary, no accumulated time.
/// This is the contract that keeps the polling hot loop free and
/// `RunResult` stable when `--profile` is not passed.
#[test]
fn disabled_profiler_is_inert() {
    let prof = camps_obs::Profiler::off();
    assert!(!prof.is_enabled());
    assert_eq!(
        prof.stamp(),
        0,
        "a disabled profiler must not read the clock"
    );
    assert_eq!(prof.host_ns(), 0);
    assert_eq!(prof.spurious_total(), 0);
    assert!(prof.summary().is_none());
}
