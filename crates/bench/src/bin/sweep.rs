//! `sweep` — fault-injection drill for the resilient sweep supervisor.
//!
//! Three passes over the same tiny mixes × schemes matrix:
//!
//! 1. **Reference** — a clean sweep, no journal, no faults. Its results
//!    are the ground truth for every bit-identity check below.
//! 2. **Fault drill** — the same matrix with a fresh journal and three
//!    injected faults: a start-panic (retry runs clean), a mid-run panic
//!    planted *after* the first checkpoint (the retry must resume from
//!    that checkpoint, not restart), and a permanently stalled vault
//!    (watchdog fires every attempt; the job must exhaust its retries
//!    and quarantine without poisoning its siblings). Every surviving
//!    result must be byte-for-byte identical to the reference — faults,
//!    retries, and checkpoint resume may cost time, never correctness.
//! 3. **Journal resume** — the same sweep again, same journal, faults
//!    off: the completed jobs must come back from the journal without
//!    rerunning, the quarantined job runs clean, and the merged matrix
//!    must again be bit-identical to the reference.
//!
//! The measurements land in `BENCH_sweep.json`.
//!
//! ```text
//! cargo run --release -p camps-bench --bin sweep [-- --out FILE]
//! cargo run --release -p camps-bench --bin sweep -- --check ci/perf_baseline.json
//! ```
//!
//! `--check` additionally gates the binary's total wall time against the
//! `sweep_ceiling` entry of the committed baseline (generous — an
//! absolute runaway guard, not a perf benchmark).

use camps::experiment::RunLength;
use camps::metrics::RunResult;
use camps::sweep::{run_sweep, InjectedFault, JobOutcome, SweepFaultPlan, SweepPolicy, SweepRun};
use camps_prefetch::SchemeKind;
use camps_types::config::{SystemConfig, TopologyKind};
use camps_workloads::Mix;
use serde::Serialize as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Workload seed for every job.
const SEED: u64 = 0x5EE9;
/// Checkpoint cadence — a tiny run lasts >10k cycles under every
/// scheme, so several checkpoints land before the planted mid-run panic.
const CHECKPOINT_EVERY: u64 = 2_000;
/// Where the mid-run panic fires: late enough that checkpoints exist,
/// early enough that every tiny run actually reaches it.
const PANIC_AT: u64 = 6_000;

fn schemes() -> Vec<SchemeKind> {
    vec![SchemeKind::Nopf, SchemeKind::Base, SchemeKind::CampsMod]
}

fn mixes() -> Vec<Mix> {
    vec![*Mix::by_id("HM1").unwrap(), *Mix::by_id("LM1").unwrap()]
}

/// Canonical byte form of a result, for bit-identity comparison.
fn fingerprint(r: &RunResult) -> String {
    serde_json::to_string(&r.to_value()).expect("RunResult serializes")
}

fn assert_results_match(
    reference: &SweepRun,
    candidate: &SweepRun,
    what: &str,
) -> Result<(), String> {
    for (i, (want, got)) in reference.results.iter().zip(&candidate.results).enumerate() {
        let (Some(want), Some(got)) = (want, got) else {
            continue; // quarantined slots are checked by the caller
        };
        if fingerprint(want) != fingerprint(got) {
            return Err(format!(
                "{what}: job {i} ({}/{}) diverged from the reference run",
                got.mix_id, got.scheme
            ));
        }
    }
    Ok(())
}

fn run(cubes: u32, kind: TopologyKind) -> Result<String, String> {
    let mut cfg = SystemConfig::paper_default();
    cfg.topology.cubes = cubes;
    cfg.topology.kind = kind;
    let len = RunLength::tiny();
    let mixes = mixes();
    let schemes = schemes();
    let n_jobs = mixes.len() * schemes.len();

    let dir = std::env::temp_dir().join(format!("camps-bench-sweep-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let journal = dir.join("sweep.journal.jsonl");

    // Pass 1: clean reference.
    let t0 = Instant::now();
    let reference = run_sweep(&cfg, &mixes, &schemes, &len, SEED, &SweepPolicy::default())
        .map_err(|e| format!("reference sweep failed: {e}"))?;
    let reference_secs = t0.elapsed().as_secs_f64();
    if reference.report.completed != n_jobs {
        return Err(format!(
            "reference sweep incomplete: {}",
            reference.report.render()
        ));
    }

    // Pass 2: fault drill. Jobs are row-major mixes × schemes; fault the
    // first three, leave the rest as healthy siblings.
    let faults = SweepFaultPlan::new()
        .inject(0, InjectedFault::PanicOnStart, 1)
        .inject(1, InjectedFault::PanicAtCycle(PANIC_AT), 1)
        .inject(
            2,
            InjectedFault::StallVault {
                vault: 0,
                from: 1_000,
            },
            u32::MAX,
        );
    let drill_policy = SweepPolicy {
        max_retries: 2,
        retry_backoff: Duration::ZERO,
        job_deadline: None,
        checkpoint_every: Some(CHECKPOINT_EVERY),
        journal_path: Some(journal.clone()),
        scratch_dir: Some(dir.join("ckpts")),
        threads: None,
        trace_out: None,
        progress_every: None,
        faults,
    };
    let t1 = Instant::now();
    let drill = run_sweep(&cfg, &mixes, &schemes, &len, SEED, &drill_policy)
        .map_err(|e| format!("fault drill failed: {e}"))?;
    let drill_secs = t1.elapsed().as_secs_f64();
    let rep = &drill.report;
    if rep.completed != n_jobs - 1 || rep.quarantined != 1 {
        return Err(format!(
            "fault drill: expected {} completed + 1 quarantined, got:\n{}",
            n_jobs - 1,
            rep.render()
        ));
    }
    if rep.jobs[0].attempts != 2 || rep.jobs[0].panics != 1 {
        return Err(format!(
            "start-panic job should complete on attempt 2: {:?}",
            rep.jobs[0]
        ));
    }
    if rep.jobs[1].resumed_retries == 0 {
        return Err(format!(
            "mid-run-panic job never resumed from its checkpoint: {:?}",
            rep.jobs[1]
        ));
    }
    if rep.jobs[2].outcome != JobOutcome::Quarantined
        || rep.jobs[2].attempts != 3
        || rep.jobs[2].watchdog_trips != 3
    {
        return Err(format!(
            "stalled-vault job should trip the watchdog on all 3 attempts and quarantine: {:?}",
            rep.jobs[2]
        ));
    }
    assert_results_match(&reference, &drill, "fault drill")?;

    // Pass 3: journal resume — completed jobs skip, the quarantined one
    // runs clean, and the merged matrix matches the reference.
    let resume_policy = SweepPolicy {
        faults: SweepFaultPlan::new(),
        ..drill_policy
    };
    let t2 = Instant::now();
    let resumed = run_sweep(&cfg, &mixes, &schemes, &len, SEED, &resume_policy)
        .map_err(|e| format!("journal resume failed: {e}"))?;
    let resume_secs = t2.elapsed().as_secs_f64();
    if resumed.report.journaled != n_jobs - 1 || resumed.report.completed != 1 {
        return Err(format!(
            "journal resume: expected {} journaled + 1 completed, got:\n{}",
            n_jobs - 1,
            resumed.report.render()
        ));
    }
    assert_results_match(&reference, &resumed, "journal resume")?;
    if resumed.results.iter().any(Option::is_none) {
        return Err("journal resume left a hole in the matrix".into());
    }

    std::fs::remove_dir_all(&dir).ok();

    println!("reference : {}", reference.report.render().trim_end());
    println!("fault drill: {}", drill.report.render().trim_end());
    println!("resume    : {}", resumed.report.render().trim_end());

    Ok(format!(
        "{{\n  \"benchmark\": \"sweep-supervisor\",\n  \"jobs\": {n_jobs},\n  \
         \"cubes\": {cubes},\n  \"topology\": \"{}\",\n  \
         \"threads\": {},\n  \"reference_secs\": {reference_secs:.3},\n  \
         \"fault_drill_secs\": {drill_secs:.3},\n  \"resume_secs\": {resume_secs:.3},\n  \
         \"drill_retries\": {},\n  \"drill_quarantined\": {},\n  \
         \"resume_journaled\": {},\n  \"bit_identical\": true\n}}\n",
        kind.name(),
        drill.report.threads,
        drill.report.total_retries,
        drill.report.quarantined,
        resumed.report.journaled,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_sweep.json");
    let mut check_path: Option<String> = None;
    let mut cubes = 1u32;
    let mut kind = TopologyKind::Chain;
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
            "--cubes" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => cubes = n,
                None => {
                    eprintln!("--cubes needs a power-of-two count");
                    return ExitCode::FAILURE;
                }
            },
            "--topology" => match it.next().and_then(|k| k.parse().ok()) {
                Some(k) => kind = k,
                None => {
                    eprintln!("--topology needs `chain` or `star`");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!(
                    "unknown option `{other}` \
                     (try --out FILE | --check FILE | --cubes N | --topology chain|star)"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let started = Instant::now();
    let rendered = match run(cubes, kind) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sweep: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(&out_path, &rendered) {
        eprintln!("sweep: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");

    if let Some(path) = check_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("sweep: cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let Some(ceiling) = camps_bench::baseline_value(&text, None, "sweep_ceiling") else {
            eprintln!("sweep: baseline {path} has no sweep_ceiling");
            return ExitCode::FAILURE;
        };
        let elapsed = started.elapsed().as_secs_f64();
        println!("total wall time {elapsed:.1}s, ceiling {ceiling:.1}s");
        if elapsed > ceiling {
            eprintln!("sweep: wall time exceeded the committed ceiling");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
