//! Regenerates the paper's Figures 5–9 and the ablations: prints each
//! paper-style table with its paper comparisons and writes its CSV under
//! `target/experiments/`. The registry is `EXPERIMENTS` in
//! `crates/bench/src/experiments.rs`; this target only passes the names.
//!
//! Run: `cargo bench -p camps-bench --bench experiments [-- NAME…]`,
//! where NAME is `fig5_speedup` … `fig9_energy` or an `ablate_*` entry
//! (no names runs everything). Scale via
//! `CAMPS_BENCH_SCALE=quick|standard|thorough`.

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
