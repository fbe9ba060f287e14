//! Focused diagnostic probe: single benchmark, chosen scheme, small run;
//! dumps bank-level category counts to understand scheduler behavior.
//!
//! Usage: `probe <benchmark> <scheme> [instructions]`

use camps::system::System;
use camps_prefetch::SchemeKind;
use camps_types::config::SystemConfig;
use camps_workloads::generator::SpecTrace;
use camps_workloads::spec::profile_for;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bench = args.first().map_or("lbm", String::as_str);
    let scheme = args
        .get(1)
        .map_or(Ok(SchemeKind::Nopf), |s| s.parse())
        .unwrap_or_else(|e| {
            eprintln!("probe: {e}");
            std::process::exit(1);
        });
    let instrs: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(60_000);

    let cfg = SystemConfig::paper_default();
    let capacity = cfg.hmc.address_mapping().unwrap().capacity_bytes();
    let slice = capacity / 8;
    // `mix:HM1` runs a Table II mix; a bare name runs 8 copies of it.
    let traces: Vec<_> = if let Some(mix_id) = bench.strip_prefix("mix:") {
        camps_workloads::Mix::by_id(mix_id)
            .expect("known mix id")
            .build_traces(capacity, 0xCA3B5)
            .expect("known benchmark names")
    } else {
        (0..8)
            .map(|core| {
                Box::new(SpecTrace::new(
                    profile_for(bench).expect("known benchmark name"),
                    core as u64 * slice,
                    slice,
                    99 ^ (core as u64),
                )) as Box<dyn camps_cpu::trace::TraceSource>
            })
            .collect()
    };
    let mut sys = System::new(&cfg, scheme, traces).expect("paper-default config");
    sys.warmup(instrs);
    let r = sys.run(instrs, 50_000_000, "probe").expect("probe run");
    println!("bench={bench} scheme={} instrs={instrs}", scheme.name());
    println!("cycles={} geomean_ipc={:.3}", r.cycles, r.geomean_ipc());
    let total_instr = instrs * 8;
    println!(
        "mem reads/kiloinstr={:.1} writes/kiloinstr={:.1}",
        r.vaults.reads.get() as f64 * 1000.0 / total_instr as f64,
        r.vaults.writes.get() as f64 * 1000.0 / total_instr as f64
    );
    println!(
        "reads={} writes={} buffer_hits={} row_hits={} misses={} conflicts={}",
        r.vaults.reads.get(),
        r.vaults.writes.get(),
        r.vaults.buffer_hits.get(),
        r.vaults.row_hits.get(),
        r.vaults.row_misses.get(),
        r.vaults.row_conflicts.get()
    );
    println!(
        "conflict_rate={:.1}% prefetches={} referenced={} dropped={} accuracy={:.1}%",
        r.conflict_rate() * 100.0,
        r.vaults.prefetches.get(),
        r.vaults.prefetches_referenced.get(),
        r.vaults.prefetches_dropped.get(),
        r.prefetch_accuracy() * 100.0
    );
    println!(
        "amat_mem={:.1} amat_all={:.1} queue_rejects={} writebacks={} drains={}",
        r.amat_mem,
        r.amat_all,
        r.vaults.queue_rejects.get(),
        r.vaults.writebacks.get(),
        r.vaults.drain_entries.get()
    );
    println!(
        "bus utilization={:.1}% (of {} vault-cycles)",
        r.vaults.bus_busy_cycles.as_f64() * 100.0 / (r.cycles as f64 * 32.0),
        r.cycles * 32
    );
    println!(
        "energy: acts={} pres={} rd={} wr={} rowfetch={} rowwb={} flits={}",
        r.vaults.energy.activates,
        r.vaults.energy.precharges,
        r.vaults.energy.read_bursts,
        r.vaults.energy.write_bursts,
        r.vaults.energy.row_fetches,
        r.vaults.energy.row_writebacks,
        r.vaults.energy.link_flits
    );
    for v in sys.memory().hmc().vaults().iter().take(4) {
        println!("  vault{}: {}", v.id(), v.scheme_debug());
    }
    for (i, (ipc, stats)) in r.ipc.iter().zip(&r.core_stats).enumerate() {
        println!(
            "  core{i}: ipc={ipc:.3} loads={} stores={} stalls={} rejects={}",
            stats.loads.get(),
            stats.stores.get(),
            stats.load_stall_cycles.get(),
            stats.rejections.get()
        );
    }
}
