//! Quickstart: simulate one Table II workload under CAMPS-MOD and print
//! the headline metrics.
//!
//! ```sh
//! cargo run --release --example quickstart [MIX] [SCHEME]
//! # e.g.
//! cargo run --release --example quickstart HM1 campsmod
//! ```

use camps_sim::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mix_id = args.first().map_or("HM1", String::as_str);
    let scheme: SchemeKind = args
        .get(1)
        .map_or("campsmod", String::as_str)
        .parse()
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        });

    // Table I system: 8 cores @ 3 GHz, 32-vault HMC, 16 KB prefetch
    // buffer per vault.
    let cfg = SystemConfig::paper_default();
    let mix = Mix::by_id(mix_id).unwrap_or_else(|| {
        eprintln!("unknown mix `{mix_id}`; available: HM1-4, LM1-4, MX1-4");
        std::process::exit(1);
    });

    println!("simulating {mix_id} {:?} under {scheme} …", mix.benchmarks);
    let result = run_mix(&cfg, mix, scheme, &RunLength::quick(), 42).unwrap_or_else(|e| {
        eprintln!("simulation failed: {e}");
        std::process::exit(1);
    });

    println!("\n== {} under {} ==", result.mix_id, result.scheme);
    println!("cycles simulated      : {}", result.cycles);
    println!("geomean IPC           : {:.3}", result.geomean_ipc());
    for (name, ipc) in result.core_names.iter().zip(&result.ipc) {
        println!("  {name:>8}: IPC {ipc:.3}");
    }
    println!(
        "row-buffer conflicts  : {:.1}%",
        result.conflict_rate() * 100.0
    );
    println!("prefetches issued     : {}", result.vaults.prefetches);
    println!(
        "prefetch accuracy     : {:.1}%",
        result.prefetch_accuracy() * 100.0
    );
    println!("buffer-served demand  : {}", result.vaults.buffer_hits);
    println!("memory AMAT           : {:.1} cycles", result.amat_mem);
    println!("HMC energy            : {:.3} mJ", result.energy_nj / 1e6);
}
