//! `adversarial` — ranks all six schemes by worst-case RowHammer
//! activation amplification under attack streams.
//!
//! Every core runs one adversarial generator (hammer single/double,
//! conflict thrash, buffer pollution — see `camps-workloads`'s
//! `adversarial` module) against its own vault, and each attack is run
//! under every scheme. The per-run [`AmplificationReport`] is written to
//! `BENCH_adversarial.json` together with a ranking of the schemes by
//! hammer amplification on the double-sided aggressor stream — the
//! ρHammer observation in miniature: a prefetcher that echoes aggressor
//! activations hands the attacker extra hammers for free, so CAMPS must
//! rank strictly above the no-prefetch baseline.
//!
//! A second pass reruns the aggressor stream with the TRR-style rowguard
//! mitigation enabled (tight threshold) under every scheme, asserting
//! mitigations fire and no run wedges the watchdog.
//!
//! ```text
//! cargo run --release -p camps-bench --bin adversarial [-- --out FILE]
//! cargo run --release -p camps-bench --bin adversarial -- --check ci/perf_baseline.json
//! ```
//!
//! `--check` additionally gates the binary's total wall time against the
//! `adversarial_ceiling` entry of the committed baseline (generous — an
//! absolute runaway guard, not a perf benchmark).

use camps::metrics::RunResult;
use camps::System;
use camps_bench::{check_wall_ceiling, BenchArgs};
use camps_cpu::trace::TraceSource;
use camps_dram::TimingCpu;
use camps_prefetch::SchemeKind;
use camps_stats::AmplificationReport;
use camps_types::config::SystemConfig;
use camps_workloads::{AdversarialSpec, AdversarialTrace, AttackKind};
use std::process::ExitCode;
use std::time::Instant;

/// Fixed measurement horizon in CPU cycles (~10 refresh windows at the
/// paper's tREFI). The bench runs for a fixed number of *cycles*, not
/// instructions: all-miss attack streams saturate the shared L3 MSHRs
/// and starve the slower cores almost completely (rejections every
/// cycle), so a per-core retirement target would never be reached.
/// Amplification is a ratio of activation counts over the horizon, so a
/// fixed-cycle window is the honest measurement.
const HORIZON_CYCLES: u64 = 250_000;
/// Per-core retirement target passed to `System::run` — unreachable on
/// purpose so the horizon alone ends the run.
const RETIRE_TARGET: u64 = u64::MAX;
/// Base seed for the attack streams.
const SEED: u64 = 0xA11CE;
/// Aggressor rows per hammer stream — more than the 16-row prefetch
/// buffer, so buffered aggressors are evicted (and, when dirty, written
/// back with a fresh ACT) before they can be reused.
const HAMMER_AGGRESSORS: u32 = 32;
/// Mitigation threshold for the mitigation-on pass: a saturated bank
/// reaches ~6 ACTs per aggressor row per refresh window, so 3 fires
/// reliably within the short horizon (the default 64 never would).
const MITIGATION_THRESHOLD: u32 = 3;

/// The attacks, ranked stream first.
const ATTACKS: [AttackKind; 4] = [
    AttackKind::HammerDouble,
    AttackKind::HammerSingle,
    AttackKind::ConflictThrash,
    AttackKind::BufferPollution,
];

/// One measured (attack, scheme) cell.
struct Entry {
    attack: AttackKind,
    scheme: SchemeKind,
    report: AmplificationReport,
    geomean_ipc: f64,
    cycles: u64,
    wall_secs: f64,
}

/// One mitigation-on rerun.
struct MitigationRun {
    scheme: SchemeKind,
    mitigations: u64,
    worst_row_window_acts: u64,
    cycles: u64,
}

/// Builds one attack stream per core, each targeting its own vault.
fn attack_traces(
    cfg: &SystemConfig,
    kind: AttackKind,
) -> Result<Vec<Box<dyn TraceSource>>, String> {
    let t_refw = TimingCpu::from_config(&cfg.dram, cfg.cpu.freq_hz).t_refi;
    (0..cfg.cpu.cores)
        .map(|i| {
            let vault = (i % cfg.hmc.vaults) as u16;
            let mut spec = AdversarialSpec::preset(kind, vault, SEED + u64::from(i));
            if matches!(kind, AttackKind::HammerDouble | AttackKind::HammerSingle) {
                spec.aggressors = HAMMER_AGGRESSORS;
            }
            AdversarialTrace::new(spec, &cfg.hmc, t_refw)
                .map(|t| Box::new(t) as Box<dyn TraceSource>)
                .map_err(|e| format!("{}: {e}", kind.as_str()))
        })
        .collect()
}

/// Runs one (attack, scheme) cell to completion.
fn run_attack(
    cfg: &SystemConfig,
    scheme: SchemeKind,
    kind: AttackKind,
) -> Result<RunResult, String> {
    let traces = attack_traces(cfg, kind)?;
    let mut sys =
        System::new(cfg, scheme, traces).map_err(|e| format!("{}: {e}", kind.as_str()))?;
    sys.warmup(2_000);
    sys.run(RETIRE_TARGET, HORIZON_CYCLES, kind.as_str())
        .map_err(|e| format!("{} under {scheme}: {e}", kind.as_str()))
}

fn render(entries: &[Entry], ranking: &[(SchemeKind, f64)], mitigated: &[MitigationRun]) -> String {
    let mut out = String::from("{\n  \"benchmark\": \"adversarial\",\n");
    out.push_str(&format!(
        "  \"horizon_cycles\": {HORIZON_CYCLES},\n  \"entries\": [\n"
    ));
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let r = &e.report;
        out.push_str(&format!(
            "    {{\"attack\": \"{}\", \"scheme\": \"{}\", \
             \"hammer_amplification\": {:.4}, \"worst_row_window_acts\": {}, \
             \"demand_activations\": {}, \"prefetch_activations\": {}, \
             \"writeback_activations\": {}, \"refreshes\": {}, \
             \"geomean_ipc\": {:.4}, \"cycles\": {}, \"wall_secs\": {:.3}}}",
            e.attack.as_str(),
            e.scheme,
            r.hammer_amplification,
            r.worst_row_window_acts,
            r.demand_activations,
            r.prefetch_activations,
            r.writeback_activations,
            r.refreshes,
            e.geomean_ipc,
            e.cycles,
            e.wall_secs,
        ));
    }
    out.push_str("\n  ],\n  \"hammer_ranking\": [\n");
    for (i, (scheme, amp)) in ranking.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "    {{\"scheme\": \"{scheme}\", \"hammer_amplification\": {amp:.4}}}"
        ));
    }
    out.push_str("\n  ],\n  \"mitigation\": [\n");
    for (i, m) in mitigated.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "    {{\"scheme\": \"{}\", \"mitigations\": {}, \
             \"worst_row_window_acts\": {}, \"cycles\": {}, \"completed\": true}}",
            m.scheme, m.mitigations, m.worst_row_window_acts, m.cycles
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn main() -> ExitCode {
    let BenchArgs {
        out: out_path,
        check: check_path,
    } = match BenchArgs::parse(std::env::args().skip(1), "BENCH_adversarial.json") {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let started = Instant::now();
    let cfg = SystemConfig::paper_default();
    let mut entries = Vec::new();
    for attack in ATTACKS {
        for scheme in SchemeKind::ALL {
            let t0 = Instant::now();
            let result = match run_attack(&cfg, scheme, attack) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("adversarial: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let Some(report) = result.amplification else {
                eprintln!(
                    "adversarial: {} under {scheme} produced no amplification report",
                    attack.as_str()
                );
                return ExitCode::FAILURE;
            };
            // Well-formedness: the ratio must reconcile with its parts.
            let expect =
                report.total_activations() as f64 / report.demand_activations.max(1) as f64;
            if report.demand_activations == 0
                || (report.hammer_amplification - expect).abs() > 1e-9
                || report.worst_row_window_acts == 0
                || report.mitigations != 0
            {
                eprintln!(
                    "adversarial: malformed report for {} under {scheme}: {report:?}",
                    attack.as_str()
                );
                return ExitCode::FAILURE;
            }
            println!(
                "{:>13} | {:<9} | amp {:.3} | worst {:>4} acts/window | {:>8} cycles | {:.2}s",
                attack.as_str(),
                scheme.to_string(),
                report.hammer_amplification,
                report.worst_row_window_acts,
                result.cycles,
                t0.elapsed().as_secs_f64()
            );
            entries.push(Entry {
                attack,
                scheme,
                report,
                geomean_ipc: result.geomean_ipc(),
                cycles: result.cycles,
                wall_secs: t0.elapsed().as_secs_f64(),
            });
        }
    }

    // Rank by worst-case amplification on the double-sided stream.
    let mut ranking: Vec<(SchemeKind, f64)> = entries
        .iter()
        .filter(|e| e.attack == AttackKind::HammerDouble)
        .map(|e| (e.scheme, e.report.hammer_amplification))
        .collect();
    ranking.sort_by(|a, b| b.1.total_cmp(&a.1));
    let amp_of = |s: SchemeKind| ranking.iter().find(|(k, _)| *k == s).map(|(_, a)| *a);
    let (camps, nopf) = match (amp_of(SchemeKind::Camps), amp_of(SchemeKind::Nopf)) {
        (Some(c), Some(n)) => (c, n),
        _ => {
            eprintln!("adversarial: hammer ranking lost a scheme");
            return ExitCode::FAILURE;
        }
    };
    println!("hammer-double amplification: CAMPS {camps:.4} vs NOPF {nopf:.4}");
    if camps <= nopf {
        eprintln!(
            "adversarial: CAMPS must amplify the aggressor stream beyond the \
             no-prefetch baseline (CAMPS {camps:.4} <= NOPF {nopf:.4})"
        );
        return ExitCode::FAILURE;
    }

    // Mitigation-on pass: every scheme, tight threshold, watchdog armed
    // by the default config — completion proves no deadlock.
    let mut mitigated_cfg = cfg.clone();
    mitigated_cfg.rowguard.enable_mitigation = true;
    mitigated_cfg.rowguard.threshold = MITIGATION_THRESHOLD;
    if let Err(e) = mitigated_cfg.validate() {
        eprintln!("adversarial: mitigation config invalid: {e}");
        return ExitCode::FAILURE;
    }
    let mut mitigated = Vec::new();
    for scheme in SchemeKind::ALL {
        let result = match run_attack(&mitigated_cfg, scheme, AttackKind::HammerDouble) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("adversarial (mitigation on): {e}");
                return ExitCode::FAILURE;
            }
        };
        let mitigations = result.vaults.mitigations.get();
        if mitigations == 0 {
            eprintln!("adversarial: mitigation never fired under {scheme}");
            return ExitCode::FAILURE;
        }
        println!(
            "mitigation on | {:<9} | {} neighbor refreshes | worst {} acts/window",
            scheme.to_string(),
            mitigations,
            result.vaults.worst_row_window_acts
        );
        mitigated.push(MitigationRun {
            scheme,
            mitigations,
            worst_row_window_acts: result.vaults.worst_row_window_acts,
            cycles: result.cycles,
        });
    }

    let rendered = render(&entries, &ranking, &mitigated);
    if let Err(e) = std::fs::write(&out_path, &rendered) {
        eprintln!("adversarial: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");

    if let Some(path) = check_path {
        let elapsed = started.elapsed().as_secs_f64();
        if let Err(e) = check_wall_ceiling(&path, "adversarial_ceiling", elapsed) {
            eprintln!("adversarial: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
