//! `throughput` — engine throughput benchmark (simulated cycles/second).
//!
//! Runs the same workloads under the polling and event engines, records
//! wall-clock time and simulated cycles for each, verifies the two
//! engines stayed bit-identical, and writes the numbers to
//! `BENCH_engine.json`. Workloads cover both extremes:
//!
//! * `HM1` / `LM1` — real paper mixes (memory-busy; modest skipping),
//! * `idle-heavy` — a synthetic trace whose ROB fills with compute
//!   behind one outstanding load, so the machine sleeps for whole memory
//!   round trips at a time; this is where time-skipping shines.
//!
//! The observability cost rides along: `HM1` is also run once under the
//! event engine with full tracing + metrics sampling enabled, and the
//! wall-clock ratio over the plain event run is reported as
//! `obs_over_plain` (memory-busy = most requests per cycle = the worst
//! case for per-request stamping).
//!
//! ```text
//! cargo run --release -p camps-bench --bin throughput [-- --out FILE]
//! cargo run --release -p camps-bench --bin throughput -- --trace-out hm1.trace.json
//! cargo run --release -p camps-bench --bin throughput -- --check ci/perf_baseline.json
//! ```
//!
//! `--trace-out` saves the traced run's Perfetto JSON (otherwise the
//! trace is rendered and discarded — rendering cost stays in the
//! measurement either way). `--check` reruns the `idle-heavy` workload
//! and exits nonzero if the measured event-engine advantage (wall-clock
//! speedup over polling) falls below 80% of the committed baseline's — a
//! portable regression gate: absolute cycles/sec vary across machines,
//! the *ratio* between two engines on the same machine does not. When
//! the baseline carries an `obs_over_plain` entry the overhead ratio is
//! gated the same way (against a generous ceiling).

use camps::metrics::RunResult;
use camps::system::Engine;
use camps::System;
use camps_cpu::trace::{TraceOp, TraceSource, VecTrace};
use camps_obs::{ObsConfig, TraceHandle};
use camps_prefetch::SchemeKind;
use camps_types::addr::PhysAddr;
use camps_types::config::SystemConfig;
use camps_workloads::Mix;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Instructions per core for the measured runs.
const INSTRUCTIONS: u64 = 60_000;
/// Cycle cap (generous; the idle-heavy trace is latency-bound).
const MAX_CYCLES: u64 = 40_000_000;
/// `--check` fails when the measured speedup drops below this fraction
/// of the committed baseline's speedup.
const CHECK_FLOOR: f64 = 0.8;
/// `--check` fails when the measured observability overhead exceeds this
/// multiple of the committed baseline's ratio. Wide on purpose: the
/// overhead is a small ratio of two short wall-clock times, so it is far
/// noisier than the engine speedup.
const OVERHEAD_CEILING: f64 = 2.0;
/// Workload used for the observability-overhead measurement.
const OBS_WORKLOAD: &str = "HM1";
/// Metrics sampling period for the observed run (cycles).
const OBS_SAMPLE_EVERY: u64 = 1_000;

/// One measured (workload, engine) cell.
struct Sample {
    workload: &'static str,
    engine: &'static str,
    cycles: u64,
    wall_secs: f64,
}

impl Sample {
    fn mcycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.wall_secs.max(1e-9) / 1e6
    }
}

/// The config a workload runs under. The paper mixes use the Table I
/// machine untouched; `idle-heavy` narrows it to one core so the whole
/// machine genuinely sleeps between memory round trips.
fn config_for(workload: &str) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default();
    if workload == "idle-heavy" {
        // One narrow core: a single outstanding row-miss load at a time,
        // with only rob/issue_width cycles of retire work per round trip —
        // the machine spends most wall-cycles fully asleep.
        cfg.cpu.cores = 1;
        cfg.cpu.rob_entries = 64;
    }
    cfg
}

/// The traces a workload feeds its cores.
fn traces_for(cfg: &SystemConfig, workload: &str, seed: u64) -> Vec<Box<dyn TraceSource>> {
    if workload == "idle-heavy" {
        // Each load is preceded by enough compute to fill the ROB, so the
        // core goes quiescent for the whole memory round trip. Strided
        // across rows so every access misses the caches.
        let gap = cfg.cpu.rob_entries - 1;
        return (0..cfg.cpu.cores)
            .map(|c| {
                let ops: Vec<TraceOp> = (0..2048u64)
                    .map(|i| TraceOp::load(gap, PhysAddr((u64::from(c) << 32) + i * (1 << 19))))
                    .collect();
                Box::new(VecTrace::new(format!("idle{c}"), ops)) as Box<dyn TraceSource>
            })
            .collect();
    }
    let mix = Mix::by_id(workload).expect("known mix");
    let capacity = cfg
        .hmc
        .address_mapping()
        .expect("valid mapping")
        .capacity_bytes();
    mix.build_traces(capacity, seed).expect("traces build")
}

/// Runs `workload` under `engine`, returning the sample and the result
/// (for cross-engine identity checking).
fn measure(workload: &'static str, engine: Engine) -> Result<(Sample, RunResult), String> {
    let cfg = config_for(workload);
    let mut sys = System::new(&cfg, SchemeKind::Camps, traces_for(&cfg, workload, 11))
        .map_err(|e| format!("{workload}: {e}"))?;
    sys.set_engine(engine);
    sys.warmup(2_000);
    let start = Instant::now();
    let result = sys
        .run(INSTRUCTIONS, MAX_CYCLES, workload)
        .map_err(|e| format!("{workload}: {e}"))?;
    let wall_secs = start.elapsed().as_secs_f64();
    let name = match engine {
        Engine::Polling => "polling",
        Engine::Event => "event",
    };
    Ok((
        Sample {
            workload,
            engine: name,
            cycles: result.cycles,
            wall_secs,
        },
        result,
    ))
}

/// The observability-overhead measurement: traced event run vs the plain
/// event run of the same workload.
struct Overhead {
    workload: &'static str,
    plain_secs: f64,
    observed_secs: f64,
    trace_bytes: u64,
    metrics_rows: u64,
}

impl Overhead {
    fn ratio(&self) -> f64 {
        self.observed_secs / self.plain_secs.max(1e-9)
    }
}

/// Reruns `workload` under the event engine with full observability on
/// (trace recording + metrics sampling) and compares against the plain
/// event-engine wall time. The traced run must not perturb the
/// simulation: its `RunResult` — minus the stage-latency block only an
/// observed run can have — must serialize identically to `plain`'s.
fn measure_observed(
    workload: &'static str,
    plain: &Sample,
    plain_result: &RunResult,
    trace_out: Option<&PathBuf>,
) -> Result<Overhead, String> {
    let cfg = config_for(workload);
    let mut sys = System::new(&cfg, SchemeKind::Camps, traces_for(&cfg, workload, 11))
        .map_err(|e| format!("{workload}: {e}"))?;
    sys.set_engine(Engine::Event);
    let obs_cfg = ObsConfig {
        // Span recording is switched by `trace_out`'s presence; the path
        // itself is unused here — the export below is explicit.
        trace_out: Some(
            trace_out
                .cloned()
                .unwrap_or_else(|| PathBuf::from("unused.trace.json")),
        ),
        metrics_every: Some(OBS_SAMPLE_EVERY),
        ..ObsConfig::default()
    };
    sys.enable_obs(&obs_cfg);
    sys.warmup(2_000);
    let start = Instant::now();
    let mut result = sys
        .run(INSTRUCTIONS, MAX_CYCLES, workload)
        .map_err(|e| format!("{workload} (observed): {e}"))?;
    // Rendering is part of the cost a user pays for `--trace-out`; keep
    // it inside the timed region whether or not the JSON is saved.
    let trace = sys.obs().render_trace_json();
    let observed_secs = start.elapsed().as_secs_f64();
    let metrics_rows = sys.obs().samples();
    let trace_bytes = trace.map_or(0, |t| t.len() as u64);
    if let Some(path) = trace_out {
        let report = sys
            .obs()
            .export_trace(path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "{workload:>10}: trace saved to {} ({} records, {} dropped)",
            path.display(),
            report.records,
            report.dropped
        );
    }
    result.stage_latency = None;
    result.profile = None;
    let a = serde_json::to_string(plain_result).map_err(|e| e.to_string())?;
    let b = serde_json::to_string(&result).map_err(|e| e.to_string())?;
    if a != b {
        return Err(format!(
            "{workload}: observed run diverged from plain run — tracing perturbed the simulation"
        ));
    }
    Ok(Overhead {
        workload,
        plain_secs: plain.wall_secs,
        observed_secs,
        trace_bytes,
        metrics_rows,
    })
}

/// Measures one workload under both engines and asserts bit-identity.
/// Returns the event-engine `RunResult` too, so the observability
/// overhead pass can reuse it as the non-perturbation reference.
fn measure_pair(workload: &'static str) -> Result<(Sample, Sample, RunResult), String> {
    let (polled, rp) = measure(workload, Engine::Polling)?;
    let (evented, re) = measure(workload, Engine::Event)?;
    let a = serde_json::to_string(&rp).map_err(|e| e.to_string())?;
    let b = serde_json::to_string(&re).map_err(|e| e.to_string())?;
    if a != b {
        return Err(format!("{workload}: engines diverged — refusing to bench"));
    }
    Ok((polled, evented, re))
}

fn render(pairs: &[(Sample, Sample)], overhead: Option<&Overhead>) -> String {
    let mut out = String::from("{\n  \"benchmark\": \"engine-throughput\",\n");
    out.push_str(&format!(
        "  \"instructions_per_core\": {INSTRUCTIONS},\n  \"entries\": [\n"
    ));
    let mut first = true;
    for (p, e) in pairs {
        for s in [p, e] {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "    {{\"workload\": \"{}\", \"engine\": \"{}\", \"cycles\": {}, \
                 \"wall_secs\": {:.4}, \"mcycles_per_sec\": {:.2}}}",
                s.workload,
                s.engine,
                s.cycles,
                s.wall_secs,
                s.mcycles_per_sec()
            ));
        }
    }
    out.push_str("\n  ],\n  \"speedups\": [\n");
    for (i, (p, e)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"event_over_polling\": {:.3}}}",
            p.workload,
            p.wall_secs / e.wall_secs.max(1e-9)
        ));
    }
    out.push_str("\n  ]");
    if let Some(o) = overhead {
        out.push_str(",\n  \"obs_overhead\": [\n");
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"obs_over_plain\": {:.3}, \
             \"plain_secs\": {:.4}, \"observed_secs\": {:.4}, \
             \"trace_bytes\": {}, \"metrics_rows\": {}}}",
            o.workload,
            o.ratio(),
            o.plain_secs,
            o.observed_secs,
            o.trace_bytes,
            o.metrics_rows
        ));
        out.push_str("\n  ]");
    }
    out.push_str("\n}\n");
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_engine.json");
    let mut check_path: Option<String> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(p) => out_path = p.clone(),
                None => {
                    eprintln!("--out needs a file");
                    return ExitCode::FAILURE;
                }
            },
            "--check" => match it.next() {
                Some(p) => check_path = Some(p.clone()),
                None => {
                    eprintln!("--check needs a baseline file");
                    return ExitCode::FAILURE;
                }
            },
            "--trace-out" => match it.next() {
                Some(p) => trace_out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--trace-out needs a file");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!(
                    "unknown option `{other}` (try --out FILE | --trace-out FILE | --check FILE)"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if trace_out.is_some() && !TraceHandle::compiled() {
        eprintln!("throughput: built without the `obs` feature; --trace-out is unavailable");
        return ExitCode::FAILURE;
    }
    if trace_out.is_some() && check_path.is_some() {
        eprintln!("throughput: --trace-out applies to the measuring mode, not --check");
        return ExitCode::FAILURE;
    }

    if let Some(path) = check_path {
        // Regression gate: idle-heavy only, ratio vs the committed baseline.
        let baseline_text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("throughput: cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let Some(expected) =
            camps_bench::baseline_value(&baseline_text, Some("idle-heavy"), "event_over_polling")
        else {
            eprintln!("throughput: baseline {path} has no idle-heavy speedup");
            return ExitCode::FAILURE;
        };
        let (p, e, _) = match measure_pair("idle-heavy") {
            Ok(pair) => pair,
            Err(err) => {
                eprintln!("throughput: {err}");
                return ExitCode::FAILURE;
            }
        };
        let measured = p.wall_secs / e.wall_secs.max(1e-9);
        let floor = expected * CHECK_FLOOR;
        println!(
            "idle-heavy event/polling speedup: measured {measured:.2}x, \
             baseline {expected:.2}x, floor {floor:.2}x"
        );
        if measured < floor {
            eprintln!("throughput: event-engine speedup regressed >20% vs baseline");
            return ExitCode::FAILURE;
        }
        // Observability-overhead gate — only when the baseline commits to a
        // ratio and the binary carries the hooks at all.
        let expected_oh =
            camps_bench::baseline_value(&baseline_text, Some(OBS_WORKLOAD), "obs_over_plain");
        if let Some(expected_oh) = expected_oh.filter(|_| TraceHandle::compiled()) {
            let (_, e, re) = match measure_pair(OBS_WORKLOAD) {
                Ok(pair) => pair,
                Err(err) => {
                    eprintln!("throughput: {err}");
                    return ExitCode::FAILURE;
                }
            };
            let o = match measure_observed(OBS_WORKLOAD, &e, &re, None) {
                Ok(o) => o,
                Err(err) => {
                    eprintln!("throughput: {err}");
                    return ExitCode::FAILURE;
                }
            };
            let ceiling = expected_oh * OVERHEAD_CEILING;
            println!(
                "{OBS_WORKLOAD} observed/plain overhead: measured {:.2}x, \
                 baseline {expected_oh:.2}x, ceiling {ceiling:.2}x",
                o.ratio()
            );
            if o.ratio() > ceiling {
                eprintln!("throughput: observability overhead regressed >2x vs baseline");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }

    let mut pairs = Vec::new();
    let mut obs_ref: Option<RunResult> = None;
    for workload in ["idle-heavy", "HM1", "LM1"] {
        match measure_pair(workload) {
            Ok((p, e, re)) => {
                println!(
                    "{workload:>10}: polling {:8.2} Mcyc/s ({:.2}s) | event {:8.2} Mcyc/s \
                     ({:.2}s) | speedup {:.2}x",
                    p.mcycles_per_sec(),
                    p.wall_secs,
                    e.mcycles_per_sec(),
                    e.wall_secs,
                    p.wall_secs / e.wall_secs.max(1e-9)
                );
                if workload == OBS_WORKLOAD {
                    obs_ref = Some(re);
                }
                pairs.push((p, e));
            }
            Err(err) => {
                eprintln!("throughput: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut overhead = None;
    if TraceHandle::compiled() {
        let plain = pairs
            .iter()
            .find(|(p, _)| p.workload == OBS_WORKLOAD)
            .map(|(_, e)| e)
            .expect("obs workload is in the measured set");
        let reference = obs_ref.as_ref().expect("event result retained");
        match measure_observed(OBS_WORKLOAD, plain, reference, trace_out.as_ref()) {
            Ok(o) => {
                println!(
                    "{:>10}: observed {:.2}s vs plain {:.2}s | obs overhead {:.2}x | \
                     {} metrics rows, {} KiB trace",
                    o.workload,
                    o.observed_secs,
                    o.plain_secs,
                    o.ratio(),
                    o.metrics_rows,
                    o.trace_bytes / 1024
                );
                overhead = Some(o);
            }
            Err(err) => {
                eprintln!("throughput: {err}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        println!("obs hooks compiled out; skipping the overhead measurement");
    }
    let rendered = render(&pairs, overhead.as_ref());
    if let Err(e) = std::fs::write(&out_path, &rendered) {
        eprintln!("throughput: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");
    ExitCode::SUCCESS
}
