//! Integration tests for the resilient sweep supervisor: fault
//! isolation, deadline enforcement, watchdog quarantine, resume from a
//! failed job's leftover checkpoint, journal crash tolerance, and
//! thread-count independence.

use camps::experiment::{RunLength, Workload};
use camps::metrics::RunResult;
use camps::sweep::{
    read_journal, run_sweep, InjectedFault, JobOutcome, SweepFaultPlan, SweepPolicy,
};
use camps_prefetch::SchemeKind;
use camps_types::config::SystemConfig;
use camps_workloads::{AttackKind, Mix};
use serde::Serialize as _;
use std::path::PathBuf;
use std::time::Duration;

const SEED: u64 = 7;

fn mixes() -> Vec<Mix> {
    vec![*Mix::by_id("HM1").unwrap()]
}

fn schemes() -> Vec<SchemeKind> {
    vec![SchemeKind::Nopf, SchemeKind::Base, SchemeKind::CampsMod]
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("camps-sweep-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fingerprint(r: &RunResult) -> String {
    serde_json::to_string(&r.to_value()).unwrap()
}

#[test]
fn panicking_job_quarantines_without_poisoning_siblings() {
    let cfg = SystemConfig::paper_default();
    let policy = SweepPolicy {
        faults: SweepFaultPlan::new().inject(1, InjectedFault::PanicOnStart),
        ..SweepPolicy::default()
    };
    let run = run_sweep(
        &cfg,
        &mixes(),
        &schemes(),
        &RunLength::tiny(),
        SEED,
        &policy,
    )
    .unwrap();
    assert_eq!(run.report.quarantined, 1);
    assert_eq!(run.report.completed, 2, "siblings must still complete");
    assert!(run.results[0].is_some() && run.results[2].is_some());
    assert!(run.results[1].is_none());
    let bad = &run.report.jobs[1];
    assert_eq!(bad.outcome, JobOutcome::Quarantined);
    let msg = bad.error.as_deref().unwrap();
    assert!(msg.contains("panicked"), "typed panic error, got: {msg}");
    // The quarantined slot carries the typed error, not a result.
    assert!(matches!(
        run.errors[1],
        Some(camps_types::error::SimError::Panic { .. })
    ));
    // Siblings are bit-identical to a clean sweep: the panic cost a job,
    // never correctness.
    let clean = run_sweep(
        &cfg,
        &mixes(),
        &schemes(),
        &RunLength::tiny(),
        SEED,
        &SweepPolicy::default(),
    )
    .unwrap();
    for i in [0, 2] {
        assert_eq!(
            fingerprint(run.results[i].as_ref().unwrap()),
            fingerprint(clean.results[i].as_ref().unwrap()),
        );
    }
}

#[test]
fn deadline_overrun_quarantines_and_is_recorded() {
    let cfg = SystemConfig::paper_default();
    let policy = SweepPolicy {
        // Generous limit against CI noise: healthy jobs finish a tiny
        // run in a couple of seconds even in debug builds, while the
        // faulted job sleeps well past the limit.
        job_deadline: Some(Duration::from_secs(10)),
        faults: SweepFaultPlan::new()
            .inject(0, InjectedFault::SleepOnStart(Duration::from_secs(12))),
        ..SweepPolicy::default()
    };
    let run = run_sweep(
        &cfg,
        &mixes(),
        &schemes(),
        &RunLength::tiny(),
        SEED,
        &policy,
    )
    .unwrap();
    assert_eq!(run.report.quarantined, 1);
    assert_eq!(
        run.report.completed, 2,
        "deadline must not leak to siblings"
    );
    let bad = &run.report.jobs[0];
    assert_eq!(bad.outcome, JobOutcome::Quarantined);
    assert!(matches!(
        run.errors[0],
        Some(camps_types::error::SimError::Deadline { .. })
    ));
    assert!(
        bad.error.as_deref().unwrap().contains("deadline"),
        "error should name the deadline: {:?}",
        bad.error
    );
}

/// A job that panics mid-run is quarantined with its last periodic
/// checkpoint left on disk; the next (fault-free) sweep on the same
/// journal resumes from that checkpoint, matches a clean sweep bit for
/// bit, and removes the file.
#[test]
fn failed_job_leaves_its_checkpoint_and_the_next_sweep_resumes_from_it() {
    let cfg = SystemConfig::paper_default();
    let dir = scratch("resume");
    let ckpts = dir.join("sweep.ckpts");
    let one_scheme = vec![SchemeKind::Base];
    let sweep = |policy: &SweepPolicy| {
        run_sweep(
            &cfg,
            &mixes(),
            &one_scheme,
            &RunLength::tiny(),
            SEED,
            policy,
        )
        .unwrap()
    };
    let leftovers = || -> Vec<PathBuf> {
        std::fs::read_dir(&ckpts)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .collect()
    };
    let policy = SweepPolicy {
        checkpoint_every: Some(2_000),
        journal_path: Some(dir.join("sweep.jsonl")),
        // Panic well into the run, after several checkpoints exist.
        faults: SweepFaultPlan::new().inject(0, InjectedFault::PanicAtCycle(6_000)),
        ..SweepPolicy::default()
    };
    let failed = sweep(&policy);
    let rec = &failed.report.jobs[0];
    assert_eq!(rec.outcome, JobOutcome::Quarantined, "{rec:?}");
    assert!(!rec.resumed, "nothing to resume from yet: {rec:?}");
    assert!(matches!(
        failed.errors[0],
        Some(camps_types::error::SimError::Panic { .. })
    ));
    assert_eq!(
        leftovers().len(),
        1,
        "the failed job must leave its checkpoint behind"
    );

    let rerun = sweep(&SweepPolicy {
        faults: SweepFaultPlan::new(),
        ..policy
    });
    let rec = &rerun.report.jobs[0];
    assert_eq!(rec.outcome, JobOutcome::Completed, "{rec:?}");
    assert!(
        rec.resumed,
        "the re-run must resume from the checkpoint, not restart: {rec:?}"
    );
    let clean = sweep(&SweepPolicy::default());
    assert_eq!(
        fingerprint(rerun.results[0].as_ref().unwrap()),
        fingerprint(clean.results[0].as_ref().unwrap()),
        "resume-from-checkpoint must be bit-identical to the straight run"
    );
    // The finished job cleans its checkpoint up.
    assert!(
        leftovers().is_empty(),
        "stale checkpoints left: {:?}",
        leftovers()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The fault drill end to end: a start-panic and a stalled vault that
/// trips the watchdog both quarantine, with checkpoints and a journal
/// on. The survivor matches a clean sweep, and a fault-free re-run on
/// the same journal takes it from there, runs only the quarantined jobs
/// and fills both holes.
#[test]
fn stalled_vault_quarantines_and_a_journal_rerun_fills_the_hole() {
    let cfg = SystemConfig::paper_default();
    let dir = scratch("drill");
    let sweep = |policy: &SweepPolicy| {
        run_sweep(&cfg, &mixes(), &schemes(), &RunLength::tiny(), SEED, policy).unwrap()
    };
    let clean = sweep(&SweepPolicy::default());
    let policy = SweepPolicy {
        checkpoint_every: Some(2_000),
        journal_path: Some(dir.join("sweep.jsonl")),
        faults: SweepFaultPlan::new()
            .inject(0, InjectedFault::PanicOnStart)
            .inject(
                2,
                InjectedFault::StallVault {
                    vault: 0,
                    from: 1_000,
                },
            ),
        ..SweepPolicy::default()
    };
    let drill = sweep(&policy);
    assert_eq!(drill.report.completed, 1, "{}", drill.report.render());
    assert_eq!(drill.report.quarantined, 2, "{}", drill.report.render());
    for i in [0, 2] {
        assert_eq!(drill.report.jobs[i].outcome, JobOutcome::Quarantined);
        assert!(drill.results[i].is_none());
    }
    assert!(matches!(
        drill.errors[0],
        Some(camps_types::error::SimError::Panic { .. })
    ));
    assert!(
        matches!(
            drill.errors[2],
            Some(camps_types::error::SimError::Watchdog(_))
        ),
        "the stall must trip the watchdog: {:?}",
        drill.errors[2]
    );
    assert_eq!(
        fingerprint(drill.results[1].as_ref().unwrap()),
        fingerprint(clean.results[1].as_ref().unwrap()),
        "faults in the sweep must not change a survivor"
    );

    let rerun = sweep(&SweepPolicy {
        faults: SweepFaultPlan::new(),
        ..policy
    });
    assert_eq!(rerun.report.journaled, 1, "{}", rerun.report.render());
    assert_eq!(rerun.report.completed, 2, "{}", rerun.report.render());
    for (i, (got, want)) in rerun.results.iter().zip(&clean.results).enumerate() {
        let got = got
            .as_ref()
            .unwrap_or_else(|| panic!("job {i} left a hole"));
        assert_eq!(
            fingerprint(got),
            fingerprint(want.as_ref().unwrap()),
            "job {i}: the re-run must match the clean sweep"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journal_resume_skips_completed_jobs_and_tolerates_a_torn_tail() {
    let cfg = SystemConfig::paper_default();
    let dir = scratch("journal");
    let journal = dir.join("sweep.jsonl");
    let policy = SweepPolicy {
        journal_path: Some(journal.clone()),
        ..SweepPolicy::default()
    };
    let first = run_sweep(
        &cfg,
        &mixes(),
        &schemes(),
        &RunLength::tiny(),
        SEED,
        &policy,
    )
    .unwrap();
    assert_eq!(first.report.completed, 3);
    let (entries, rec) = read_journal(&journal).unwrap();
    assert_eq!(entries.len(), 3);
    assert_eq!(rec.discarded_lines, 0);

    // Simulate a crash mid-append: a torn fragment of a journal line
    // with no trailing newline, exactly what `kill -9` leaves behind.
    let text = std::fs::read_to_string(&journal).unwrap();
    let torn = &text.lines().next().unwrap()[..40];
    std::fs::write(&journal, format!("{text}{torn}")).unwrap();

    let second = run_sweep(
        &cfg,
        &mixes(),
        &schemes(),
        &RunLength::tiny(),
        SEED,
        &policy,
    )
    .unwrap();
    assert_eq!(
        second.report.journaled, 3,
        "all three jobs must come back from the journal without rerunning"
    );
    assert_eq!(second.report.completed, 0);
    assert_eq!(second.report.journal_lines_discarded, 1);
    for (a, b) in first.results.iter().zip(&second.results) {
        assert_eq!(
            fingerprint(a.as_ref().unwrap()),
            fingerprint(b.as_ref().unwrap()),
            "journaled results must round-trip bit-identically"
        );
    }
    // The compaction rewrote the file: the torn fragment is gone and a
    // third load is clean.
    let (entries, rec) = read_journal(&journal).unwrap();
    assert_eq!(entries.len(), 3);
    assert_eq!(rec.discarded_lines, 0, "torn tail must be compacted away");

    // A different run length must not reuse the journal entries.
    let longer = RunLength {
        warmup_instructions: 2_000,
        instructions: 4_000,
        max_cycles: 1_000_000,
    };
    let other = run_sweep(&cfg, &mixes(), &schemes(), &longer, SEED, &policy).unwrap();
    assert_eq!(
        other.report.journaled, 0,
        "a different run length must invalidate journal reuse"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_results_are_independent_of_thread_count() {
    let cfg = SystemConfig::paper_default();
    let len = RunLength::tiny();
    let two_schemes = vec![SchemeKind::Nopf, SchemeKind::CampsMod];
    let run_with = |threads: usize| {
        let policy = SweepPolicy {
            threads: Some(threads),
            ..SweepPolicy::default()
        };
        run_sweep(&cfg, &mixes(), &two_schemes, &len, SEED, &policy).unwrap()
    };
    let one = run_with(1);
    let four = run_with(4);
    assert_eq!(one.results.len(), four.results.len());
    for (a, b) in one.results.iter().zip(&four.results) {
        assert_eq!(
            fingerprint(a.as_ref().unwrap()),
            fingerprint(b.as_ref().unwrap()),
            "results must not depend on worker thread count"
        );
    }
}

#[cfg(feature = "obs")]
#[test]
fn sweep_trace_records_job_and_quarantine_instants() {
    let cfg = SystemConfig::paper_default();
    let dir = scratch("trace");
    let trace = dir.join("sweep.trace.json");
    let policy = SweepPolicy {
        trace_out: Some(trace.clone()),
        faults: SweepFaultPlan::new().inject(0, InjectedFault::PanicOnStart),
        ..SweepPolicy::default()
    };
    let run = run_sweep(
        &cfg,
        &mixes(),
        &schemes(),
        &RunLength::tiny(),
        SEED,
        &policy,
    )
    .unwrap();
    assert_eq!(run.report.quarantined, 1);
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(
        text.contains("sweep_quarantine:HM1/NOPF#7"),
        "quarantine instant missing from trace"
    );
    assert!(
        !text.contains("sweep_quarantine:HM1/BASE#7"),
        "a completed job must not be marked quarantined"
    );
    for label in ["NOPF", "BASE", "CAMPS-MOD"] {
        assert!(
            text.contains(&format!("sweep_job_done:HM1/{label}#7")),
            "completion instant for {label} missing from trace"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journaled_attack_sweep_reruns_from_the_journal() {
    let cfg = SystemConfig::paper_default();
    let dir = scratch("attack");
    let policy = SweepPolicy {
        journal_path: Some(dir.join("attack.jsonl")),
        ..SweepPolicy::default()
    };
    let attacks = [AttackKind::HammerDouble, AttackKind::BufferPollution].map(Workload::Attack);
    let len = RunLength {
        warmup_instructions: 500,
        instructions: u64::MAX,
        max_cycles: 3_000,
    };
    let sweep = || run_sweep(&cfg, &attacks, &schemes(), &len, SEED, &policy).unwrap();
    let (first, second) = (sweep(), sweep());
    assert_eq!(first.report.completed, 6);
    assert!(second.report.render().contains("6 from journal"));
    for (a, b) in first.results.iter().zip(&second.results) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert!(a.amplification.is_some(), "{} lost its report", a.mix_id);
        assert_eq!(fingerprint(a), fingerprint(b));
    }
    std::fs::remove_dir_all(&dir).ok();
}
