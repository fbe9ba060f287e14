//! Regenerates the paper's Figures 5–9, the ablations and the two
//! studies: prints each paper-style table with its paper comparisons and
//! writes its CSV under `target/experiments/`, or checks a study's
//! results and rewrites its `BENCH_<name>.json`. The registry is
//! `EXPERIMENTS` in `crates/bench/src/experiments.rs`; this target only
//! passes the names, and exits nonzero when a study check fails.
//!
//! Run: `cargo bench -p camps-bench --bench experiments [-- NAME…]`,
//! where NAME is `fig5_speedup` … `fig9_energy`, an `ablate_*` entry,
//! `adversarial` or `multicube` (no names runs everything). Scale the
//! figures and ablations via
//! `CAMPS_BENCH_SCALE=tiny|quick|standard|thorough`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match camps_bench::experiments::run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("experiments: {e}");
            ExitCode::FAILURE
        }
    }
}
