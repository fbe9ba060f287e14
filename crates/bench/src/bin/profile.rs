//! `profile` — self-profiler attribution benchmark (where do the
//! simulator's cycles go?).
//!
//! Runs the paper mixes (`HM1`, `LM1`) and the synthetic `idle-heavy`
//! trace under both engines with the host-side self-profiler enabled,
//! and reports for each cell:
//!
//! * the measured wall time and the share of it the profiler's span
//!   tree attributes to named components (the *attribution ratio* —
//!   anything unattributed is profiler blind spot),
//! * the top components by exclusive time, and
//! * under the event engine, per-wake-source dispatch accounting
//!   (wakes, spurious ratio, cycles coalesced) plus scan-backoff
//!   engagements.
//!
//! The numbers land in `BENCH_profile.json`.
//!
//! ```text
//! cargo run --release -p camps-bench --bin profile [-- --out FILE]
//! cargo run --release -p camps-bench --bin profile -- --check ci/perf_baseline.json
//! ```
//!
//! `--check` fails when any cell attributes less than 90% of its
//! measured wall time (the profiler grew a blind spot), and gates the
//! binary's total wall time against the `profile_ceiling` entry of the
//! committed baseline (generous — a runaway guard, not a perf bench).

use camps::system::Engine;
use camps::System;
use camps_cpu::trace::{TraceOp, TraceSource, VecTrace};
use camps_obs::{ObsConfig, ProfileSummary};
use camps_prefetch::SchemeKind;
use camps_types::addr::PhysAddr;
use camps_types::config::SystemConfig;
use camps_workloads::Mix;
use std::process::ExitCode;
use std::time::Instant;

/// Instructions per core for the measured runs.
const INSTRUCTIONS: u64 = 60_000;
/// Cycle cap (generous; the idle-heavy trace is latency-bound).
const MAX_CYCLES: u64 = 40_000_000;
/// `--check` fails when a cell attributes less than this share of its
/// measured wall time to named components.
const ATTRIBUTION_FLOOR: f64 = 0.9;
/// Top-N components reported per cell.
const TOP_COMPONENTS: usize = 6;

const WORKLOADS: [&str; 3] = ["HM1", "LM1", "idle-heavy"];

/// The config a workload runs under (mirrors the `throughput` bench so
/// the two report on the same machines).
fn config_for(workload: &str) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default();
    if workload == "idle-heavy" {
        cfg.cpu.cores = 1;
        cfg.cpu.rob_entries = 64;
    }
    cfg
}

/// The traces a workload feeds its cores (mirrors `throughput`).
fn traces_for(cfg: &SystemConfig, workload: &str, seed: u64) -> Vec<Box<dyn TraceSource>> {
    if workload == "idle-heavy" {
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

/// One profiled (workload, engine) cell.
struct Cell {
    workload: &'static str,
    engine: &'static str,
    wall_secs: f64,
    summary: ProfileSummary,
}

impl Cell {
    /// Share of the measured wall time the span tree accounts for.
    fn attribution(&self) -> f64 {
        self.summary.attributed_ns() as f64 / (self.wall_secs * 1e9).max(1.0)
    }
}

/// Runs `workload` under `engine` with the profiler on and returns the
/// measured cell.
fn measure(workload: &'static str, engine: Engine) -> Result<Cell, String> {
    let cfg = config_for(workload);
    let mut sys = System::new(&cfg, SchemeKind::Camps, traces_for(&cfg, workload, 11))
        .map_err(|e| format!("{workload}: {e}"))?;
    sys.set_engine(engine);
    sys.enable_obs(&ObsConfig {
        profile: true,
        ..ObsConfig::default()
    });
    sys.warmup(2_000);
    let start = Instant::now();
    let result = sys
        .run(INSTRUCTIONS, MAX_CYCLES, workload)
        .map_err(|e| format!("{workload}: {e}"))?;
    let wall_secs = start.elapsed().as_secs_f64();
    let summary = result
        .profile
        .ok_or_else(|| format!("{workload}: profiled run produced no summary"))?;
    Ok(Cell {
        workload,
        engine: match engine {
            Engine::Polling => "polling",
            Engine::Event => "event",
        },
        wall_secs,
        summary,
    })
}

fn render(cells: &[Cell]) -> String {
    let mut out = String::from("{\n  \"benchmark\": \"self-profile\",\n");
    out.push_str(&format!(
        "  \"instructions_per_core\": {INSTRUCTIONS},\n  \"cells\": [\n"
    ));
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"engine\": \"{}\", \"wall_secs\": {:.4}, \
             \"attributed_ratio\": {:.3},\n     \"top_exclusive\": [",
            c.workload,
            c.engine,
            c.wall_secs,
            c.attribution()
        ));
        let mut nodes: Vec<_> = c.summary.nodes.iter().collect();
        nodes.sort_by_key(|n| std::cmp::Reverse(n.excl_ns));
        let total = c.summary.total_ns.max(1);
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
        if !c.summary.wake_sources.is_empty() {
            out.push_str(",\n     \"wake_sources\": [");
            for (j, w) in c.summary.wake_sources.iter().enumerate() {
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
                c.summary.backoff_engagements
            ));
        }
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_profile.json");
    let mut check_path: Option<String> = None;
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
            other => {
                eprintln!("unknown option `{other}` (try --out FILE | --check FILE)");
                return ExitCode::FAILURE;
            }
        }
    }

    let started = Instant::now();
    let mut cells = Vec::new();
    for workload in WORKLOADS {
        for engine in [Engine::Polling, Engine::Event] {
            match measure(workload, engine) {
                Ok(cell) => {
                    println!(
                        "{:>10} / {:<7}: {:.3}s wall, {:.1}% attributed, {} spurious wakes",
                        cell.workload,
                        cell.engine,
                        cell.wall_secs,
                        cell.attribution() * 100.0,
                        cell.summary.spurious_wakes()
                    );
                    cells.push(cell);
                }
                Err(e) => {
                    eprintln!("profile: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    let rendered = render(&cells);
    if let Err(e) = std::fs::write(&out_path, &rendered) {
        eprintln!("profile: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");

    if let Some(path) = check_path {
        let mut ok = true;
        for c in &cells {
            if c.attribution() < ATTRIBUTION_FLOOR {
                eprintln!(
                    "profile: {}/{} attributes only {:.1}% of wall time (floor {:.0}%)",
                    c.workload,
                    c.engine,
                    c.attribution() * 100.0,
                    ATTRIBUTION_FLOOR * 100.0
                );
                ok = false;
            }
        }
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("profile: cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let Some(ceiling) = camps_bench::baseline_value(&text, None, "profile_ceiling") else {
            eprintln!("profile: baseline {path} has no profile_ceiling");
            return ExitCode::FAILURE;
        };
        let elapsed = started.elapsed().as_secs_f64();
        println!("total wall time {elapsed:.1}s, ceiling {ceiling:.1}s");
        if elapsed > ceiling {
            eprintln!("profile: wall time exceeded the committed ceiling");
            ok = false;
        }
        if !ok {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
