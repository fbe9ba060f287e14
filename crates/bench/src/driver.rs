//! Experiment driving, result caching, and CSV output.

use camps::experiment::{RunLength, Workload};
use camps::metrics::RunResult;
use camps::sweep::{run_sweep, JobOutcome, SweepPolicy, SweepRun};
use camps_prefetch::SchemeKind;
use camps_types::config::SystemConfig;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Once;

/// Seed of every figure and ablation run (fixed → figures are
/// cross-comparable).
pub const FIGURE_SEED: u64 = 0xCA3B5;

/// The run length `CAMPS_BENCH_SCALE` names (`tiny`, `quick`,
/// `standard` or `thorough`); `quick` when it is unset.
///
/// # Errors
/// An unknown scale name, with the list of valid ones.
pub fn bench_length() -> Result<RunLength, String> {
    scale_from(std::env::var("CAMPS_BENCH_SCALE").ok().as_deref())
}

/// The run length named `name`, or `quick` for `None`.
fn scale_from(name: Option<&str>) -> Result<RunLength, String> {
    name.map_or(Ok(RunLength::quick()), |name| {
        RunLength::by_name(name).map_err(|e| format!("CAMPS_BENCH_SCALE: {e}"))
    })
}

/// The workspace root. Bench binaries run with the package directory as
/// their working directory, so this anchors on the crate's manifest.
#[must_use]
pub(crate) fn workspace_root() -> PathBuf {
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR")); // <root>/crates/bench
    crate_dir.ancestors().nth(2).unwrap_or(crate_dir).into()
}

/// Directory where figure CSVs and the shared result cache live:
/// `<workspace>/target/experiments` (honors `CARGO_TARGET_DIR`).
#[must_use]
pub fn experiments_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR")
        .map_or_else(|_| workspace_root().join("target"), PathBuf::from);
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

/// Runs a `workloads × schemes` matrix at `len` and `seed` under the
/// resilient sweep supervisor against the shared bench journal:
/// already-journaled jobs are reused per-job (not all-or-nothing), fresh
/// jobs get fault isolation, and a failed job's checkpoint lets the next
/// run resume it.
///
/// # Errors
/// The sweep's infrastructure failed, or a job was quarantined.
pub(crate) fn journaled_matrix(
    cfg: &SystemConfig,
    workloads: &[impl Into<Workload> + Copy],
    schemes: &[SchemeKind],
    len: &RunLength,
    seed: u64,
    label: &str,
) -> Result<Vec<RunResult>, String> {
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
    } = run_sweep(cfg, workloads, schemes, len, seed, &policy)
        .map_err(|e| format!("{label} sweep infrastructure: {e}"))?;
    if let Some(err) = errors.into_iter().flatten().next() {
        return Err(format!("{label} job quarantined: {err}"));
    }
    let reused = report
        .jobs
        .iter()
        .filter(|j| j.outcome == JobOutcome::Journaled)
        .count();
    eprintln!(
        "[journal] {label}: {} jobs ({reused} from journal) via {}",
        report.jobs.len(),
        journal.display()
    );
    Ok(results.into_iter().flatten().collect())
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_scale_is_quick_and_an_unknown_one_fails() {
        assert_eq!(scale_from(None), Ok(RunLength::quick()));
        assert_eq!(scale_from(Some("tiny")), Ok(RunLength::tiny()));
        let err = scale_from(Some("standrd")).unwrap_err();
        assert!(
            err.contains("`standrd`") && err.contains("tiny, quick, standard, thorough"),
            "{err}"
        );
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
