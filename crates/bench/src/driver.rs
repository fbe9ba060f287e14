//! Experiment driving, result caching, and CSV output.

use camps::experiment::RunLength;
use camps::metrics::RunResult;
use camps::sweep::{run_sweep, SweepPolicy, SweepRun};
use camps_prefetch::SchemeKind;
use camps_types::config::SystemConfig;
use camps_workloads::{Mix, ALL_MIXES};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Once;

/// Seed used by every figure run (fixed → figures are cross-comparable).
pub const FIGURE_SEED: u64 = 0xCA3B5;

/// Resolves the run length from `CAMPS_BENCH_SCALE`
/// (`quick` | `standard` | `thorough`; default `quick`).
#[must_use]
pub fn bench_length() -> RunLength {
    match std::env::var("CAMPS_BENCH_SCALE").as_deref() {
        Ok("standard") => RunLength::standard(),
        Ok("thorough") => RunLength::thorough(),
        _ => RunLength::quick(),
    }
}

/// Directory where figure CSVs and the shared result cache live:
/// `<workspace>/target/experiments` (honors `CARGO_TARGET_DIR`).
#[must_use]
pub fn experiments_dir() -> PathBuf {
    // Bench binaries run with the package directory as CWD, so anchor on
    // the workspace root via this crate's manifest location instead.
    let target = std::env::var("CARGO_TARGET_DIR").map_or_else(
        |_| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("target")
        },
        PathBuf::from,
    );
    let dir = target.join("experiments");
    fs::create_dir_all(&dir).expect("create target/experiments");
    dir
}

/// The shared journal every bench matrix rides on. Results are keyed by
/// (config hash, mix, scheme, seed, run length), so figure runs,
/// ablation variants, and different `CAMPS_BENCH_SCALE`s all coexist in
/// one append-only file without ever reusing the wrong result.
/// `CAMPS_BENCH_FRESH=1` deletes it once per process, on the first call,
/// so the matrices of one run still journal (and resume) as usual.
#[must_use]
pub fn bench_journal() -> PathBuf {
    static DISCARDED: Once = Once::new();
    let fresh = std::env::var("CAMPS_BENCH_FRESH").is_ok();
    journal_in(&experiments_dir(), fresh, &DISCARDED)
}

/// The journal path under `dir`; when `fresh`, the first call through
/// `discarded` deletes the file and later calls leave it alone.
fn journal_in(dir: &Path, fresh: bool, discarded: &Once) -> PathBuf {
    let path = dir.join("bench.journal.jsonl");
    if fresh {
        discarded.call_once(|| {
            fs::remove_file(&path).ok();
        });
    }
    path
}

/// Runs a `mixes × schemes` matrix under the resilient sweep supervisor
/// against the shared bench journal: already-journaled jobs are reused
/// per-job (not all-or-nothing), fresh jobs get fault isolation, and a
/// failed job's checkpoint lets the next run resume it. Panics if any
/// job is quarantined — bench code fails loudly.
fn journaled_matrix(
    cfg: &SystemConfig,
    mixes: &[Mix],
    schemes: &[SchemeKind],
    label: &str,
) -> Vec<RunResult> {
    let journal = bench_journal();
    let policy = SweepPolicy {
        journal_path: Some(journal.clone()),
        checkpoint_every: Some(2_000_000),
        ..SweepPolicy::default()
    };
    let SweepRun {
        results,
        errors,
        report,
    } = run_sweep(cfg, mixes, schemes, &bench_length(), FIGURE_SEED, &policy)
        .unwrap_or_else(|e| panic!("{label} sweep infrastructure: {e}"));
    if let Some(err) = errors.into_iter().flatten().next() {
        panic!("{label} job quarantined (bench-only: fail loudly): {err}");
    }
    let reused = report
        .jobs
        .iter()
        .filter(|j| j.outcome == camps::sweep::JobOutcome::Journaled)
        .count();
    eprintln!(
        "[journal] {label}: {} jobs ({reused} from journal) via {}",
        report.jobs.len(),
        journal.display()
    );
    results.into_iter().flatten().collect()
}

/// Runs all twelve Table II mixes under every paper scheme (plus NOPF) on
/// the Table I system at the configured scale.
///
/// Figures 5–9 all consume this one matrix; completed (mix, scheme)
/// cells are reused from the shared [`bench_journal`], so a re-run after
/// an interruption only pays for the missing cells. Set
/// `CAMPS_BENCH_FRESH=1` to discard the journal and re-run everything.
#[must_use]
pub fn figure_results() -> Vec<RunResult> {
    let cfg = SystemConfig::paper_default();
    journaled_matrix(&cfg, &ALL_MIXES, &SchemeKind::ALL, "figures")
}

/// Writes rows as CSV to `target/experiments/<name>.csv` and returns the
/// path.
///
/// # Panics
/// Panics if the directory or file cannot be written (bench-only code;
/// failing loudly is correct).
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let path = experiments_dir().join(format!("{name}.csv"));
    let mut f = fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").expect("write csv header");
    for row in rows {
        writeln!(f, "{row}").expect("write csv row");
    }
    println!("\n[csv] {}", path.display());
    path
}

/// A configuration run under one scheme, labelled for its table row.
pub type Variant = (String, SystemConfig, SchemeKind);

/// Ablation helper: runs `scheme` on the given mixes under each labeled
/// configuration variant and returns one geomean-IPC row per variant
/// (columns = mixes, in order).
///
/// Each variant's cells ride the shared [`bench_journal`] — the journal
/// key includes the config hash, so variants never cross-pollinate, and
/// an interrupted ablation resumes at the first un-journaled cell. Jobs
/// within a variant run in parallel under the sweep supervisor.
#[must_use]
pub fn ablation_sweep(variants: &[Variant], mix_ids: &[&str]) -> Vec<(String, Vec<f64>)> {
    let mixes: Vec<Mix> = mix_ids
        .iter()
        .map(|id| *Mix::by_id(id).expect("known mix"))
        .collect();
    variants
        .iter()
        .map(|(label, cfg, scheme)| {
            let results = journaled_matrix(cfg, &mixes, &[*scheme], label);
            let ipcs: Vec<f64> = results.iter().map(RunResult::geomean_ipc).collect();
            assert_eq!(ipcs.len(), mix_ids.len(), "one cell per mix");
            (label.clone(), ipcs)
        })
        .collect()
}

/// The mixes ablations run on: one per intensity class, to keep sweeps
/// affordable while covering the spectrum.
pub const ABLATION_MIXES: [&str; 3] = ["HM1", "LM1", "MX1"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_quick() {
        if std::env::var("CAMPS_BENCH_SCALE").is_err() {
            assert_eq!(bench_length(), RunLength::quick());
        }
    }

    #[test]
    fn fresh_discards_the_journal_only_once() {
        let dir = std::env::temp_dir().join(format!("camps-bench-fresh-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.journal.jsonl");
        fs::write(&path, "stale\n").unwrap();
        let discarded = Once::new();
        assert_eq!(journal_in(&dir, true, &discarded), path);
        assert!(!path.exists(), "FRESH discards the old journal");
        fs::write(&path, "journaled\n").unwrap();
        journal_in(&dir, true, &discarded);
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            "journaled\n",
            "a later call in the same run must keep what was journaled"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_roundtrip() {
        let p = write_csv("unit_test", "a,b", &["1,2".to_string()]);
        let body = std::fs::read_to_string(p).unwrap();
        assert_eq!(body, "a,b\n1,2\n");
    }
}
