//! Per-stage AMAT decomposition across the paper's five schemes.
//!
//! Runs a chosen Table II mix under each Figure 5 scheme with the
//! request-lifecycle tracer enabled and prints where a demand read's
//! memory latency goes: MSHR stalls, host queue, request link, vault
//! queue, bank service (hit / miss / conflict / prefetch buffer), and
//! the response link. The per-stage means telescope, so each column sums
//! to the scheme's `amat_mem` — a Figure 8-style view with the paper's
//! queue/link terms split out.
//!
//! ```sh
//! cargo run --release --example latency_breakdown [MIX]
//! ```

use camps::experiment::RunSpec;
use camps_obs::{ObsConfig, TraceHandle};
use camps_sim::prelude::*;
use rayon::prelude::*;

fn main() {
    if !TraceHandle::compiled() {
        eprintln!("built without the `obs` feature; nothing to decompose");
        std::process::exit(1);
    }
    let mix_id = std::env::args().nth(1).unwrap_or_else(|| "HM1".into());
    let mix = Mix::by_id(&mix_id).unwrap_or_else(|| {
        eprintln!("unknown mix `{mix_id}`");
        std::process::exit(1);
    });
    let cfg = SystemConfig::paper_default();
    // A breakdown is collected whenever a handle is installed; no trace
    // file or metrics series is needed for this table.
    let obs_cfg = ObsConfig::default();

    println!(
        "decomposing {} under {} schemes …",
        mix.id,
        SchemeKind::PAPER.len()
    );
    let results: Vec<RunResult> = SchemeKind::PAPER
        .par_iter()
        .map(|&s| {
            RunSpec {
                obs: Some(obs_cfg.clone()),
                ..RunSpec::new(&cfg, mix, s, RunLength::quick(), 7)
            }
            .run()
            .expect("quick run")
        })
        .collect();

    let stages: Vec<String> = results[0]
        .stage_latency
        .as_ref()
        .expect("observed runs carry a breakdown")
        .stages
        .iter()
        .map(|s| s.stage.clone())
        .collect();

    print!("{:>14}", "stage");
    for r in &results {
        print!("  {:>10}", r.scheme.name());
    }
    println!();
    for stage in &stages {
        print!("{stage:>14}");
        for r in &results {
            let b = r.stage_latency.as_ref().expect("breakdown");
            print!("  {:>10.1}", b.mean_of(stage));
        }
        println!();
    }
    print!("{:>14}", "= total");
    for r in &results {
        let b = r.stage_latency.as_ref().expect("breakdown");
        print!("  {:>10.1}", b.mean_total);
    }
    println!();
    print!("{:>14}", "amat_mem");
    for r in &results {
        print!("  {:>10.1}", r.amat_mem);
    }
    println!();
    println!(
        "\nStage means telescope to the traced total exactly; `amat_mem` \
         (Figure 8's metric) also counts store fills and MSHR-merged \
         waiters, so it sits near — not on — the total. CAMPS/CAMPS-MOD \
         shift cycles out of bank_conflict and into pfbuffer_hit — the \
         paper's §4 explanation for their AMAT win."
    );
}
