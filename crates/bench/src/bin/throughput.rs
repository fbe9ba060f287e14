//! `throughput` — the engine bench: simulated cycles per host second,
//! and what observing a run costs.
//!
//! Runs each workload under the polling and the event engine, once plain
//! and once with the host-side self-profiler on, and writes the numbers
//! to `BENCH_engine.json`. Workloads cover both extremes:
//!
//! * `HM1` / `LM1` — real paper mixes (memory-busy; modest skipping),
//! * `idle-heavy` — a synthetic trace whose ROB fills with compute
//!   behind one outstanding load, so the machine sleeps for whole memory
//!   round trips at a time; this is where time-skipping shines.
//!
//! Each (workload, engine) entry reports the plain wall time, the
//! profiled wall time and their ratio (`profiled_over_plain`, the
//! profiler's cost), the share of the profiled wall time the span tree
//! attributes to named components (`attributed_ratio` — anything
//! unattributed is a profiler blind spot), the top components by
//! exclusive time and, under the event engine, per-wake-source dispatch
//! accounting. `HM1` is also run once under the event engine with full
//! tracing and metrics sampling, reported as `obs_over_plain`
//! (memory-busy = most requests per cycle = the worst case for
//! per-request stamping). Every run must match the plain event run
//! bit for bit once the blocks only an observed run carries are cleared.
//! Each plain `idle-heavy` cell is the median of five runs: its event
//! run lasts only milliseconds.
//!
//! ```text
//! cargo run --release -p camps-bench --bin throughput [-- --out FILE]
//! cargo run --release -p camps-bench --bin throughput -- --check ci/perf_baseline.json
//! ```
//!
//! `--check` gates the numbers just written against the committed
//! baseline and exits nonzero when
//!
//! * the idle-heavy event-over-polling speedup falls below 80% of the
//!   baseline's,
//! * the HM1 traced-over-plain overhead exceeds twice the baseline's, or
//! * any entry attributes less than 90% of its profiled wall time.
//!
//! Absolute cycles per second vary across machines; ratios between two
//! runs on the same machine do not, so the gates are portable.

use camps::metrics::RunResult;
use camps::system::Engine;
use camps::System;
use camps_cpu::trace::{TraceOp, TraceSource, VecTrace};
use camps_obs::{ObsConfig, ProfileSummary};
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
/// `--check` fails when an entry attributes less than this share of its
/// profiled wall time to named components.
const ATTRIBUTION_FLOOR: f64 = 0.9;
/// Top-N components reported per entry.
const TOP_COMPONENTS: usize = 6;
/// Workload used for the tracing-overhead measurement.
const OBS_WORKLOAD: &str = "HM1";
/// Metrics sampling period for the traced run (cycles).
const OBS_SAMPLE_EVERY: u64 = 1_000;

const WORKLOADS: [&str; 3] = ["idle-heavy", "HM1", "LM1"];
/// Runs per plain `idle-heavy` cell, which the `--check` speedup gate
/// reads. Its event-engine run lasts only milliseconds, so a single
/// timing sits at the host's noise floor; the cell reports the median
/// run (odd, so the median is one run).
const IDLE_REPS: usize = 5;

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

fn engine_name(engine: Engine) -> &'static str {
    match engine {
        Engine::Polling => "polling",
        Engine::Event => "event",
    }
}

/// One timed run.
struct Timed {
    wall_secs: f64,
    result: RunResult,
    /// Size of the rendered trace (0 unless tracing was on).
    trace_bytes: u64,
    metrics_rows: u64,
}

/// Runs `workload` under `engine`, with `obs` installed when given:
/// once, or, for a plain `idle-heavy` cell, [`IDLE_REPS`] times, keeping
/// the run of median wall time.
fn measure(workload: &str, engine: Engine, obs: Option<&ObsConfig>) -> Result<Timed, String> {
    let reps = if workload == "idle-heavy" && obs.is_none() {
        IDLE_REPS
    } else {
        1
    };
    let mut runs = (0..reps)
        .map(|_| measure_once(workload, engine, obs))
        .collect::<Result<Vec<_>, _>>()?;
    runs.sort_by(|a, b| a.wall_secs.total_cmp(&b.wall_secs));
    Ok(runs.swap_remove(reps / 2))
}

/// One timed run of `workload` under `engine`.
fn measure_once(workload: &str, engine: Engine, obs: Option<&ObsConfig>) -> Result<Timed, String> {
    let cfg = config_for(workload);
    let mut sys = System::new(&cfg, SchemeKind::Camps, traces_for(&cfg, workload, 11))
        .map_err(|e| format!("{workload}: {e}"))?;
    sys.set_engine(engine);
    if let Some(obs) = obs {
        sys.enable_obs(obs);
    }
    sys.warmup(2_000);
    let start = Instant::now();
    let result = sys
        .run(INSTRUCTIONS, MAX_CYCLES, workload)
        .map_err(|e| format!("{workload}: {e}"))?;
    // Rendering is part of the cost a user pays for `--trace-out`; keep
    // it inside the timed region.
    let trace_bytes = match obs {
        Some(o) if o.trace_out.is_some() => sys.obs().render_trace_json().map_or(0, |t| t.len()),
        _ => 0,
    } as u64;
    Ok(Timed {
        wall_secs: start.elapsed().as_secs_f64(),
        result,
        trace_bytes,
        metrics_rows: sys.obs().samples(),
    })
}

/// Observers and engines must not perturb the simulation: `candidate`,
/// with the blocks only an observed run carries cleared, must serialize
/// exactly like `reference`.
fn assert_same_run(what: &str, reference: &RunResult, candidate: &RunResult) -> Result<(), String> {
    let mut candidate = candidate.clone();
    candidate.stage_latency = None;
    candidate.profile = None;
    let a = serde_json::to_string(reference).map_err(|e| e.to_string())?;
    let b = serde_json::to_string(&candidate).map_err(|e| e.to_string())?;
    if a == b {
        Ok(())
    } else {
        Err(format!("{what} diverged from the plain event run"))
    }
}

/// One measured (workload, engine) entry: a plain and a profiled run.
struct Entry {
    workload: &'static str,
    engine: Engine,
    cycles: u64,
    wall_secs: f64,
    profiled_secs: f64,
    profile: ProfileSummary,
}

impl Entry {
    fn mcycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.wall_secs.max(1e-9) / 1e6
    }

    fn profiled_over_plain(&self) -> f64 {
        self.profiled_secs / self.wall_secs.max(1e-9)
    }

    /// Share of the profiled wall time the span tree accounts for.
    fn attributed_ratio(&self) -> f64 {
        self.profile.attributed_ns() as f64 / (self.profiled_secs * 1e9).max(1.0)
    }
}

/// The tracing-overhead measurement: traced event run vs the plain
/// event run of the same workload.
struct Overhead {
    plain_secs: f64,
    observed: Timed,
}

impl Overhead {
    fn ratio(&self) -> f64 {
        self.observed.wall_secs / self.plain_secs.max(1e-9)
    }
}

/// Measures every workload: both engines plain and profiled, plus the
/// traced `OBS_WORKLOAD` run.
fn measure_all() -> Result<(Vec<Entry>, Overhead), String> {
    let profiled = ObsConfig {
        profile: true,
        ..ObsConfig::default()
    };
    let mut entries = Vec::new();
    let mut overhead = None;
    for workload in WORKLOADS {
        let polling = measure(workload, Engine::Polling, None)?;
        let event = measure(workload, Engine::Event, None)?;
        assert_same_run(
            &format!("{workload}/polling"),
            &event.result,
            &polling.result,
        )?;
        for (engine, plain) in [(Engine::Polling, &polling), (Engine::Event, &event)] {
            let name = engine_name(engine);
            let run = measure(workload, engine, Some(&profiled))?;
            assert_same_run(
                &format!("{workload}/{name} (profiled)"),
                &event.result,
                &run.result,
            )?;
            let profile = run
                .result
                .profile
                .ok_or_else(|| format!("{workload}/{name}: profiled run produced no summary"))?;
            let entry = Entry {
                workload,
                engine,
                cycles: plain.result.cycles,
                wall_secs: plain.wall_secs,
                profiled_secs: run.wall_secs,
                profile,
            };
            println!(
                "{workload:>10} / {name:<7}: {:8.2} Mcyc/s ({:.2}s) | profiled {:.2}s ({:.2}x), \
                 {:.1}% attributed",
                entry.mcycles_per_sec(),
                entry.wall_secs,
                entry.profiled_secs,
                entry.profiled_over_plain(),
                entry.attributed_ratio() * 100.0
            );
            entries.push(entry);
        }
        if workload == OBS_WORKLOAD {
            let traced = ObsConfig {
                // Span recording is switched on by `trace_out`'s presence;
                // the trace is rendered in memory and never written.
                trace_out: Some(PathBuf::from("unused.trace.json")),
                metrics_every: Some(OBS_SAMPLE_EVERY),
                ..ObsConfig::default()
            };
            let observed = measure(workload, Engine::Event, Some(&traced))?;
            assert_same_run(
                &format!("{workload}/event (traced)"),
                &event.result,
                &observed.result,
            )?;
            let o = Overhead {
                plain_secs: event.wall_secs,
                observed,
            };
            println!(
                "{workload:>10}: traced {:.2}s vs plain {:.2}s | obs overhead {:.2}x | \
                 {} metrics rows, {} KiB trace",
                o.observed.wall_secs,
                o.plain_secs,
                o.ratio(),
                o.observed.metrics_rows,
                o.observed.trace_bytes / 1024
            );
            overhead = Some(o);
        }
    }
    let overhead = overhead.expect("the traced workload is in the measured set");
    Ok((entries, overhead))
}

/// `polling wall / event wall` for `workload`.
fn event_over_polling(entries: &[Entry], workload: &str) -> f64 {
    let wall = |engine| {
        entries
            .iter()
            .find(|e| e.workload == workload && e.engine == engine)
            .map_or(f64::NAN, |e| e.wall_secs)
    };
    wall(Engine::Polling) / wall(Engine::Event).max(1e-9)
}

fn render_entry(out: &mut String, e: &Entry) {
    out.push_str(&format!(
        "    {{\"workload\": \"{}\", \"engine\": \"{}\", \"cycles\": {}, \
         \"wall_secs\": {:.4}, \"mcycles_per_sec\": {:.2}, \"profiled_secs\": {:.4}, \
         \"profiled_over_plain\": {:.3}, \"attributed_ratio\": {:.3},\n     \"top_exclusive\": [",
        e.workload,
        engine_name(e.engine),
        e.cycles,
        e.wall_secs,
        e.mcycles_per_sec(),
        e.profiled_secs,
        e.profiled_over_plain(),
        e.attributed_ratio()
    ));
    let mut nodes: Vec<_> = e.profile.nodes.iter().collect();
    nodes.sort_by_key(|n| std::cmp::Reverse(n.excl_ns));
    let total = e.profile.total_ns.max(1);
    for (j, n) in nodes.iter().take(TOP_COMPONENTS).enumerate() {
        if j > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"comp\": \"{}\", \"excl_ms\": {:.2}, \"share\": {:.3}}}",
            n.comp,
            n.excl_ns as f64 / 1e6,
            n.excl_ns as f64 / total as f64
        ));
    }
    out.push(']');
    if !e.profile.wake_sources.is_empty() {
        out.push_str(",\n     \"wake_sources\": [");
        for (j, w) in e.profile.wake_sources.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"source\": \"{}\", \"wakes\": {}, \"spurious_ratio\": {:.3}, \
                 \"cycles_skipped\": {}}}",
                w.source,
                w.wakes,
                w.spurious_ratio(),
                w.cycles_skipped
            ));
        }
        out.push_str(&format!(
            "],\n     \"backoff_engagements\": {}",
            e.profile.backoff_engagements
        ));
    }
    out.push('}');
}

fn render(entries: &[Entry], o: &Overhead) -> String {
    let mut out = String::from("{\n  \"benchmark\": \"engine-throughput\",\n");
    out.push_str(&format!(
        "  \"instructions_per_core\": {INSTRUCTIONS},\n  \"entries\": [\n"
    ));
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        render_entry(&mut out, e);
    }
    out.push_str("\n  ],\n  \"speedups\": [\n");
    for (i, workload) in WORKLOADS.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "    {{\"workload\": \"{workload}\", \"event_over_polling\": {:.3}}}",
            event_over_polling(entries, workload)
        ));
    }
    out.push_str("\n  ],\n  \"obs_overhead\": [\n");
    out.push_str(&format!(
        "    {{\"workload\": \"{OBS_WORKLOAD}\", \"obs_over_plain\": {:.3}, \
         \"plain_secs\": {:.4}, \"observed_secs\": {:.4}, \
         \"trace_bytes\": {}, \"metrics_rows\": {}}}",
        o.ratio(),
        o.plain_secs,
        o.observed.wall_secs,
        o.observed.trace_bytes,
        o.observed.metrics_rows
    ));
    out.push_str("\n  ]\n}\n");
    out
}

/// Applies the three `--check` gates; returns every failure.
fn check(baseline: &str, entries: &[Entry], o: &Overhead) -> Vec<String> {
    let mut failures = Vec::new();
    match baseline_value(baseline, "idle-heavy", "event_over_polling") {
        Some(expected) => {
            let measured = event_over_polling(entries, "idle-heavy");
            let floor = expected * CHECK_FLOOR;
            println!(
                "idle-heavy event/polling speedup: measured {measured:.2}x, \
                 baseline {expected:.2}x, floor {floor:.2}x"
            );
            if measured < floor {
                failures.push("event-engine speedup regressed >20% vs baseline".into());
            }
        }
        None => failures.push("baseline has no idle-heavy event_over_polling".into()),
    }
    match baseline_value(baseline, OBS_WORKLOAD, "obs_over_plain") {
        Some(expected) => {
            let ceiling = expected * OVERHEAD_CEILING;
            println!(
                "{OBS_WORKLOAD} traced/plain overhead: measured {:.2}x, \
                 baseline {expected:.2}x, ceiling {ceiling:.2}x",
                o.ratio()
            );
            if o.ratio() > ceiling {
                failures.push("observability overhead regressed >2x vs baseline".into());
            }
        }
        None => failures.push(format!("baseline has no {OBS_WORKLOAD} obs_over_plain")),
    }
    for e in entries {
        if e.attributed_ratio() < ATTRIBUTION_FLOOR {
            failures.push(format!(
                "{}/{} attributes only {:.1}% of wall time (floor {:.0}%)",
                e.workload,
                engine_name(e.engine),
                e.attributed_ratio() * 100.0,
                ATTRIBUTION_FLOOR * 100.0
            ));
        }
    }
    failures
}

/// The value of `key` in the committed baseline's entry
/// `{"workload": "<workload>", "<key>": …}`. Matching is textual; the
/// format is ours.
fn baseline_value(text: &str, workload: &str, key: &str) -> Option<f64> {
    let needle = format!("\"workload\": \"{workload}\", \"{key}\": ");
    let rest = &text[text.find(&needle)? + needle.len()..];
    rest[..rest.find(['}', ','])?].trim().parse().ok()
}

/// Parses `[--out FILE] [--check FILE]` into the report path and the
/// baseline to gate against.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<(String, Option<String>), String> {
    let (mut out, mut check) = ("BENCH_engine.json".to_string(), None);
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = it.next().ok_or("--out needs a file")?,
            "--check" => check = Some(it.next().ok_or("--check needs a baseline file")?),
            other => {
                return Err(format!(
                    "unknown option `{other}` (try --out FILE | --check FILE)"
                ))
            }
        }
    }
    Ok((out, check))
}

fn main() -> ExitCode {
    let (out_path, check_path) = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let (entries, overhead) = match measure_all() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("throughput: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(&out_path, render(&entries, &overhead)) {
        eprintln!("throughput: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");

    let Some(path) = check_path else {
        return ExitCode::SUCCESS;
    };
    let baseline = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("throughput: cannot read baseline {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let failures = check(&baseline, &entries, &overhead);
    for f in &failures {
        eprintln!("throughput: {f}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::{baseline_value, parse_args};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn args_parse_out_and_check() {
        let none = parse_args(args(&[])).unwrap();
        assert_eq!(none, ("BENCH_engine.json".to_string(), None));
        let both = parse_args(args(&["--check", "b.json", "--out", "o.json"])).unwrap();
        assert_eq!(both, ("o.json".to_string(), Some("b.json".to_string())));
        assert_eq!(
            parse_args(args(&["--out"])).unwrap_err(),
            "--out needs a file"
        );
        assert!(parse_args(args(&["--fast"]))
            .unwrap_err()
            .contains("`--fast`"));
    }

    /// Every key a `--check` gate reads from the committed baseline.
    #[test]
    fn committed_baseline_has_every_gated_key() {
        let text = include_str!("../../../../ci/perf_baseline.json");
        for (workload, key) in [
            ("idle-heavy", "event_over_polling"),
            ("HM1", "obs_over_plain"),
        ] {
            let v = baseline_value(text, workload, key);
            assert!(v.is_some_and(|v| v > 0.0), "{workload}/{key}: {v:?}");
        }
        assert_eq!(baseline_value(text, "HM1", "no_such_key"), None);
        assert_eq!(baseline_value(text, "LM1", "obs_over_plain"), None);
    }
}
