//! Trace capture and replay: record a workload's instruction stream to a
//! binary `.camps-trace` file, then replay exactly the same stream under
//! different prefetching schemes — the workflow for evaluating CAMPS on
//! traces of real programs (convert your Pin/DynamoRIO log into the
//! format documented in `camps_cpu::trace_file`).
//!
//! Also demonstrates checkpoint/resume (the library form of the CLI's
//! `--checkpoint-every` / `--resume`): replay half the trace, snapshot
//! to disk, restore into a fresh machine, finish — and check the final
//! stats are bit-identical to an uninterrupted replay.
//!
//! ```sh
//! cargo run --release --example trace_replay
//! ```

use camps_sim::camps::checkpoint::{read_snapshot, restore_run, write_snapshot};
use camps_sim::camps::system::System;
use camps_sim::camps_cpu::trace::TraceSource;
use camps_sim::camps_cpu::trace_file::{record, FileTrace};
use camps_sim::camps_workloads::generator::SpecTrace;
use camps_sim::camps_workloads::spec::profile_for;
use camps_sim::prelude::*;

fn main() {
    let cfg = SystemConfig::paper_default();
    let capacity = cfg.hmc.address_mapping().unwrap().capacity_bytes();
    let slice = capacity / u64::from(cfg.cpu.cores);
    let dir = std::env::temp_dir().join("camps-traces");
    std::fs::create_dir_all(&dir).expect("create trace dir");

    // 1. Capture: record 40k ops of each core's generator to disk.
    println!("recording 8 × 40k-op traces to {} …", dir.display());
    let mix = Mix::by_id("MX1").unwrap();
    for (core, bench) in mix.benchmarks.iter().enumerate() {
        let mut gen = SpecTrace::new(
            profile_for(bench).expect("Table II benchmark"),
            core as u64 * slice,
            slice,
            77 + core as u64,
        );
        let writer = record(&mut gen, 40_000);
        writer
            .save(dir.join(format!("core{core}-{bench}.camps-trace")))
            .expect("save trace");
    }

    // 2. Replay: identical streams under two schemes — any difference is
    // the scheme, nothing else.
    let load_traces = |dir: &std::path::Path| -> Vec<Box<dyn TraceSource>> {
        (0..8usize)
            .map(|core| {
                let bench = mix.benchmarks[core];
                let t = FileTrace::load(dir.join(format!("core{core}-{bench}.camps-trace")))
                    .expect("load trace");
                Box::new(t) as Box<dyn TraceSource>
            })
            .collect()
    };
    let mut campsmod_result = None;
    for scheme in [SchemeKind::Nopf, SchemeKind::CampsMod] {
        let mut sys = System::new(&cfg, scheme, load_traces(&dir)).expect("paper-default config");
        sys.warmup(30_000);
        let r = sys.run(30_000, 10_000_000, "replay").expect("replay run");
        println!(
            "{:>10}: geomean IPC {:.3}, buffer hits {}, conflicts {:.1}%",
            scheme.name(),
            r.geomean_ipc(),
            r.vaults.buffer_hits,
            r.conflict_rate() * 100.0,
        );
        if scheme == SchemeKind::CampsMod {
            campsmod_result = Some(r);
        }
    }
    println!("\nIdentical replayed streams — the IPC delta is pure scheme effect.");

    // 3. Checkpoint/resume: replay roughly half of the CAMPS-MOD run,
    // snapshot to disk, restore into a brand-new machine (what the CLI's
    // `camps run --resume <FILE>` does in a fresh process), and finish.
    let full = campsmod_result.expect("CAMPS-MOD replay ran above");
    let mut sys = System::new(&cfg, SchemeKind::CampsMod, load_traces(&dir)).expect("config");
    sys.warmup(30_000);
    let mut run = sys.run_begin(30_000, 10_000_000);
    let start = sys.now();
    while sys.now() - start < full.cycles / 2 {
        assert!(
            sys.run_step(&mut run).expect("replay step"),
            "half-way point must land inside the run"
        );
    }
    let ckpt = dir.join("replay.ckpt.json");
    write_snapshot(&ckpt, &sys, &run, "replay", 0).expect("write checkpoint");
    println!(
        "checkpointed the half-done replay at cycle {} → {}",
        sys.now(),
        ckpt.display()
    );
    drop(sys); // the interrupted machine is gone — only the file survives

    let (manifest, state) = read_snapshot(&ckpt).expect("read checkpoint");
    let mut resumed = System::new(&cfg, SchemeKind::CampsMod, load_traces(&dir)).expect("config");
    let mut resumed_run = resumed.run_begin(0, 0);
    restore_run(&mut resumed, &mut resumed_run, &manifest, &state).expect("restore");
    while resumed.run_step(&mut resumed_run).expect("resumed step") {}
    let r = resumed.run_finish(&resumed_run, "replay").expect("finish");

    assert_eq!(full.ipc, r.ipc, "per-core IPC must match the full replay");
    assert_eq!(full.cycles, r.cycles, "cycle count must match");
    assert_eq!(full.vaults, r.vaults, "vault stats must match");
    println!(
        "resumed from cycle {}: final stats bit-identical to the uninterrupted replay \
         (geomean IPC {:.3}, {} cycles)",
        manifest.cycle,
        r.geomean_ipc(),
        r.cycles
    );
}
