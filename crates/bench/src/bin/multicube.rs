//! `multicube` — the paper's scheme matrix rerun at 1, 2, and 4 cubes.
//!
//! The CAMPS evaluation is single-cube; the HMC scaling story is cube
//! chaining. This bench answers the ROADMAP's pooled-memory question
//! empirically: it reruns the paper mixes under every scheme on chained
//! pools of 1, 2, and 4 cubes and reports how each scheme's speedup
//! over NOPF decays as requests pick up inter-cube hops.
//!
//! The measurements land in `BENCH_multicube.json`: per cube count, one
//! entry per scheme with its geomean IPC across the mixes and its
//! speedup over same-pool NOPF (speedups compare like with like — a
//! 4-cube CAMPS run is normalized to 4-cube NOPF, so the column isolates
//! the *prefetcher's* contribution from the fabric's added latency).
//!
//! ```text
//! cargo run --release -p camps-bench --bin multicube [-- --out FILE]
//! cargo run --release -p camps-bench --bin multicube -- --check ci/perf_baseline.json
//! ```
//!
//! `--check` gates total wall time against the `multicube_ceiling` entry
//! of the committed baseline (a runaway guard, not a perf benchmark).

use camps::experiment::RunLength;
use camps::metrics::RunResult;
use camps::sweep::{run_sweep, SweepPolicy};
use camps_bench::{check_wall_ceiling, BenchArgs};
use camps_prefetch::SchemeKind;
use camps_stats::geomean;
use camps_types::config::SystemConfig;
use camps_workloads::Mix;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Workload seed for every run (fixed: rows are cross-comparable).
const SEED: u64 = 0xC0BE5;

/// Cube counts the matrix sweeps over.
const CUBE_COUNTS: [u32; 3] = [1, 2, 4];

fn mixes() -> Vec<Mix> {
    // One high-intensity and one low-intensity Table II mix: enough to
    // expose the fabric's effect on both traffic classes while keeping
    // the 3 × 6-scheme matrix affordable in CI.
    vec![*Mix::by_id("HM1").unwrap(), *Mix::by_id("LM1").unwrap()]
}

/// Geomean IPC across a scheme's per-mix results.
fn scheme_geomean(results: &[RunResult], scheme: SchemeKind) -> f64 {
    let ipcs: Vec<f64> = results
        .iter()
        .filter(|r| r.scheme == scheme)
        .map(RunResult::geomean_ipc)
        .collect();
    geomean(&ipcs).unwrap_or_else(|| panic!("no positive IPCs for {}", scheme.name()))
}

fn run() -> Result<String, String> {
    let mixes = mixes();
    let len = RunLength::tiny();
    let mut body = String::from("{\n  \"benchmark\": \"multicube-scaling\",\n  \"pools\": [\n");
    for (i, &cubes) in CUBE_COUNTS.iter().enumerate() {
        let mut cfg = SystemConfig::paper_default();
        cfg.topology.cubes = cubes;
        let t0 = Instant::now();
        let matrix_err = |e| format!("{cubes}-cube matrix failed: {e}");
        let run = run_sweep(
            &cfg,
            &mixes,
            &SchemeKind::ALL,
            &len,
            SEED,
            &SweepPolicy::default(),
        )
        .map_err(matrix_err)?;
        if let Some(e) = run.errors.into_iter().flatten().next() {
            return Err(matrix_err(e));
        }
        let results: Vec<_> = run.results.into_iter().flatten().collect();
        let wall = t0.elapsed().as_secs_f64();
        let nopf = scheme_geomean(&results, SchemeKind::Nopf);
        let _ = write!(
            body,
            "    {{\"cubes\": {cubes}, \"topology\": \"chain\", \"wall_secs\": {wall:.3}, \
             \"schemes\": ["
        );
        for (j, &scheme) in SchemeKind::ALL.iter().enumerate() {
            let ipc = scheme_geomean(&results, scheme);
            let _ = write!(
                body,
                "{}\n      {{\"scheme\": \"{}\", \"geomean_ipc\": {ipc:.4}, \
                 \"speedup_vs_nopf\": {:.4}}}",
                if j == 0 { "" } else { "," },
                scheme.name(),
                ipc / nopf,
            );
            println!(
                "{cubes} cube(s) | {:>9} | geomean IPC {ipc:.4} | vs NOPF {:.3}",
                scheme.name(),
                ipc / nopf
            );
        }
        let _ = write!(
            body,
            "\n    ]}}{}\n",
            if i + 1 == CUBE_COUNTS.len() { "" } else { "," }
        );
    }
    body.push_str("  ]\n}\n");
    Ok(body)
}

fn main() -> ExitCode {
    let BenchArgs {
        out: out_path,
        check: check_path,
    } = match BenchArgs::parse(std::env::args().skip(1), "BENCH_multicube.json") {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let started = Instant::now();
    let rendered = match run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("multicube: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(&out_path, &rendered) {
        eprintln!("multicube: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");

    if let Some(path) = check_path {
        let elapsed = started.elapsed().as_secs_f64();
        if let Err(e) = check_wall_ceiling(&path, "multicube_ceiling", elapsed) {
            eprintln!("multicube: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
