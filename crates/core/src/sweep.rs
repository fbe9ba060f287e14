//! Resilient parallel sweep supervisor.
//!
//! Runs a workload-mix × scheme job matrix concurrently on real worker
//! threads (the vendored rayon pool) with production-grade failure
//! handling:
//!
//! * **Fault isolation** — each job runs under `catch_unwind`; a panic
//!   becomes a typed [`SimError::Panic`] in that job's record instead of
//!   aborting the sweep, and sibling jobs never notice.
//! * **Wall-clock deadlines** — an optional per-attempt budget enforced
//!   alongside the cycle-domain watchdog: the watchdog catches a
//!   *wedged* machine, the deadline catches a *slow* one
//!   ([`SimError::Deadline`]).
//! * **Retry with resume** — failed attempts are retried with
//!   exponential backoff, resuming from the job's last periodic
//!   checkpoint (bit-identical restore, see DESIGN.md §8) instead of
//!   recomputing from scratch. Jobs that keep failing are
//!   **quarantined** and reported; everything else completes.
//! * **Crash-safe journal** — completed results stream into an
//!   append-only JSONL journal keyed by (config hash, mix, scheme, seed,
//!   run length) with a per-line checksum. A `kill -9`'d sweep resumes
//!   by skipping journaled jobs; a torn final line (the crash landed
//!   mid-`write`) is detected, tolerated, and compacted away.
//! * **Partial results** — the sweep always returns a [`SweepRun`]: the
//!   per-job results that exist, the per-job errors that occurred, and a
//!   [`SweepReport`] accounting for every job
//!   (completed/journaled/quarantined, retries, deadline hits, panics,
//!   wall time).
//!
//! Determinism: each job is single-threaded and seeded, the vendored
//! rayon pool returns results in job order regardless of thread count,
//! and checkpoint restore is bit-identical — so a sweep's merged results
//! are byte-for-byte the same whether it ran on 1 thread or 16, straight
//! through or killed and resumed.

use crate::checkpoint::config_hash;
use crate::experiment::{RunLength, RunSpec};
use crate::metrics::RunResult;
use camps_obs::{ObsConfig, TraceHandle};
use camps_prefetch::SchemeKind;
use camps_types::clock::Cycle;
use camps_types::config::SystemConfig;
use camps_types::error::SimError;
use camps_types::snapshot::fnv1a;
use camps_workloads::Mix;
use rayon::prelude::*;
use serde::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Identity of one sweep job, pinned tightly enough that a journaled
/// result can only ever be reused for the exact computation that
/// produced it: machine configuration (hashed), workload, scheme,
/// workload seed, and run length.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct JobKey {
    /// FNV-1a hash of the compact-JSON `SystemConfig`.
    pub config_hash: u64,
    /// Table II mix id.
    pub mix_id: String,
    /// Prefetching scheme.
    pub scheme: SchemeKind,
    /// Workload seed.
    pub seed: u64,
    /// Functional warmup instructions per core.
    pub warmup_instructions: u64,
    /// Detailed instructions per core.
    pub instructions: u64,
    /// Hard cycle cap.
    pub max_cycles: Cycle,
}

impl JobKey {
    fn new(config_hash: u64, mix: &Mix, scheme: SchemeKind, seed: u64, len: &RunLength) -> Self {
        Self {
            config_hash,
            mix_id: mix.id.to_string(),
            scheme,
            seed,
            warmup_instructions: len.warmup_instructions,
            instructions: len.instructions,
            max_cycles: len.max_cycles,
        }
    }

    /// `HM1/CAMPS-MOD#7` — the job's display identity.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}/{}#{}", self.mix_id, self.scheme.name(), self.seed)
    }
}

/// A deterministic fault to apply to one job, for testing the
/// supervisor's isolation and retry machinery (the sweep analogue of
/// [`camps_types::config::FaultPlan`]).
#[derive(Debug, Clone, Copy)]
pub enum InjectedFault {
    /// Panic the instant the job starts.
    PanicOnStart,
    /// Panic once simulation reaches this cycle — late enough to leave a
    /// checkpoint behind, so the retry exercises resume-from-checkpoint.
    PanicAtCycle(Cycle),
    /// Sleep this long at job start, tripping the wall-clock deadline.
    SleepOnStart(Duration),
    /// Stall a vault from the given cycle (the machine wedges and the
    /// forward-progress watchdog fires). Alters the job's effective
    /// config, so checkpoints are suppressed for the faulted attempt.
    StallVault {
        /// Vault index to stall.
        vault: u32,
        /// First stalled cycle.
        from: Cycle,
    },
}

/// Which jobs fail, how, and for how many attempts.
#[derive(Debug, Clone, Default)]
pub struct SweepFaultPlan {
    entries: Vec<(usize, InjectedFault, u32)>,
}

impl SweepFaultPlan {
    /// An empty plan (no injected faults).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `fault` for job index `job` (row-major over
    /// mixes × schemes) on every attempt numbered below `attempts` —
    /// `1` faults only the first attempt (the retry succeeds),
    /// `u32::MAX` faults every attempt (the job quarantines).
    #[must_use]
    pub fn inject(mut self, job: usize, fault: InjectedFault, attempts: u32) -> Self {
        self.entries.push((job, fault, attempts));
        self
    }

    fn fault_for(&self, job: usize, attempt: u32) -> Option<InjectedFault> {
        self.entries
            .iter()
            .find(|(j, _, upto)| *j == job && attempt < *upto)
            .map(|(_, f, _)| *f)
    }
}

/// Failure-handling knobs for [`run_sweep`].
#[derive(Debug, Clone, Default)]
pub struct SweepPolicy {
    /// Retries per job after the first attempt (0 = fail fast into
    /// quarantine on the first error).
    pub max_retries: u32,
    /// Base backoff between a failure and its retry; doubles per
    /// attempt. `Duration::ZERO` retries immediately.
    pub retry_backoff: Duration,
    /// Per-attempt wall-clock budget; `None` disables the deadline.
    pub job_deadline: Option<Duration>,
    /// Periodic per-job checkpoint interval (cycles). Enables
    /// retry-with-resume and crash resume of half-finished jobs; `None`
    /// means retries restart from scratch.
    pub checkpoint_every: Option<Cycle>,
    /// Append-only JSONL journal of completed results. Jobs already
    /// journaled (same [`JobKey`]) are skipped on re-invocation.
    pub journal_path: Option<PathBuf>,
    /// Directory for per-job checkpoint files. Defaults to
    /// `<journal>.ckpts/` next to the journal, else a config-hash-keyed
    /// directory under the system temp dir.
    pub scratch_dir: Option<PathBuf>,
    /// Worker thread count; `None`/0 uses `RAYON_NUM_THREADS` or all
    /// host cores.
    pub threads: Option<usize>,
    /// When set, sweep-level Perfetto instants (job done, retry,
    /// quarantine; timestamps in wall-clock microseconds since sweep
    /// start) are written here.
    pub trace_out: Option<PathBuf>,
    /// When set, a heartbeat line (jobs done/total, retries so far,
    /// quarantines so far, elapsed, crude ETA) is printed to stderr at
    /// this interval while the sweep runs. `None` (the default) keeps
    /// sweeps silent for scripting.
    pub progress_every: Option<Duration>,
    /// Injected faults (tests and CI fault drills).
    pub faults: SweepFaultPlan,
}

/// Live sweep counters shared between the rayon workers and the
/// heartbeat reporter thread ([`SweepPolicy::progress_every`]).
#[derive(Debug, Default)]
struct SweepProgress {
    done: std::sync::atomic::AtomicUsize,
    retries: std::sync::atomic::AtomicU64,
    quarantined: std::sync::atomic::AtomicUsize,
}

impl SweepProgress {
    /// Records one finished job (journal skips count too — the user
    /// wants distance-to-done, not distance-to-computed).
    fn note_job(&self, retries: u32, quarantined: bool) {
        use std::sync::atomic::Ordering::Relaxed;
        self.retries.fetch_add(u64::from(retries), Relaxed);
        if quarantined {
            self.quarantined.fetch_add(1, Relaxed);
        }
        self.done.fetch_add(1, Relaxed);
    }

    /// One stderr heartbeat line with a crude linear ETA.
    fn report(&self, total: usize, started: Instant) {
        use std::sync::atomic::Ordering::Relaxed;
        let done = self.done.load(Relaxed);
        let retries = self.retries.load(Relaxed);
        let quarantined = self.quarantined.load(Relaxed);
        let elapsed = started.elapsed().as_secs_f64();
        let eta = if done > 0 && done < total {
            let per_job = elapsed / done as f64;
            format!(", ETA ~{:.0}s", per_job * (total - done) as f64)
        } else {
            String::new()
        };
        eprintln!(
            "sweep: {done}/{total} jobs done, {retries} retries, \
             {quarantined} quarantined, {elapsed:.0}s elapsed{eta}"
        );
    }
}

/// What ultimately happened to one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobOutcome {
    /// Ran (possibly after retries) and produced a result this sweep.
    Completed,
    /// Skipped: an identical-key result was already in the journal.
    Journaled,
    /// Exhausted its retry budget (or failed non-retryably); no result.
    Quarantined,
}

/// Per-job accounting in the [`SweepReport`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobRecord {
    /// Table II mix id.
    pub mix_id: String,
    /// Prefetching scheme.
    pub scheme: SchemeKind,
    /// Workload seed.
    pub seed: u64,
    /// Final disposition.
    pub outcome: JobOutcome,
    /// Attempts actually executed this sweep (0 for journaled jobs).
    pub attempts: u32,
    /// Retries that resumed from a checkpoint instead of restarting.
    pub resumed_retries: u32,
    /// Attempts cut by the wall-clock deadline.
    pub deadline_hits: u32,
    /// Attempts that panicked.
    pub panics: u32,
    /// Attempts aborted by the cycle-domain watchdog.
    pub watchdog_trips: u32,
    /// Wall-clock seconds spent on this job (all attempts + backoff).
    pub wall_secs: f64,
    /// Rendered final error for quarantined jobs.
    #[serde(default)]
    pub error: Option<String>,
}

/// Aggregate outcome of a sweep: every job accounted for, nothing
/// silently discarded.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepReport {
    /// Per-job records, in job (row-major mixes × schemes) order.
    pub jobs: Vec<JobRecord>,
    /// Jobs that ran to completion this sweep.
    pub completed: usize,
    /// Jobs skipped because the journal already had their result.
    pub journaled: usize,
    /// Jobs that exhausted their retry budget.
    pub quarantined: usize,
    /// Total retries across all jobs (attempts beyond each job's first).
    pub total_retries: u32,
    /// End-to-end sweep wall-clock seconds.
    pub wall_secs: f64,
    /// Worker threads used.
    pub threads: usize,
    /// Journal entries loaded at startup (before key filtering).
    pub journal_entries_loaded: usize,
    /// Journal lines discarded as torn/corrupt at startup.
    pub journal_lines_discarded: usize,
    /// Journal append failures (results were still returned in-memory).
    pub journal_append_errors: usize,
}

impl SweepReport {
    /// Human-readable multi-line summary (what the CLI prints).
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "sweep: {} job(s) on {} thread(s) in {:.1}s — {} completed, {} from journal, \
             {} quarantined, {} retri(es)\n",
            self.jobs.len(),
            self.threads,
            self.wall_secs,
            self.completed,
            self.journaled,
            self.quarantined,
            self.total_retries,
        );
        if self.journal_lines_discarded > 0 {
            let _ = writeln!(
                out,
                "  journal: {} torn/corrupt line(s) discarded and compacted away",
                self.journal_lines_discarded
            );
        }
        for j in &self.jobs {
            if j.outcome == JobOutcome::Quarantined {
                let _ = writeln!(
                    out,
                    "  QUARANTINED {}/{}#{} after {} attempt(s) \
                     ({} panic(s), {} deadline hit(s), {} watchdog trip(s)): {}",
                    j.mix_id,
                    j.scheme.name(),
                    j.seed,
                    j.attempts,
                    j.panics,
                    j.deadline_hits,
                    j.watchdog_trips,
                    j.error.as_deref().unwrap_or("unknown error"),
                );
            } else if j.attempts > 1 {
                let _ = writeln!(
                    out,
                    "  recovered {}/{}#{} on attempt {} ({} resumed from checkpoint)",
                    j.mix_id,
                    j.scheme.name(),
                    j.seed,
                    j.attempts,
                    j.resumed_retries,
                );
            }
        }
        out
    }
}

/// Everything a sweep produces: per-job results, per-job errors, and the
/// report. Indices are job order (row-major mixes × schemes); a job has
/// exactly one of a result or an error.
#[derive(Debug)]
pub struct SweepRun {
    /// Per-job results; `None` for quarantined jobs.
    pub results: Vec<Option<RunResult>>,
    /// Per-job final errors; `None` for jobs with a result.
    pub errors: Vec<Option<SimError>>,
    /// Aggregate accounting.
    pub report: SweepReport,
}

/// One journaled (key, result) pair.
#[derive(Debug, Clone)]
pub struct JournalEntry {
    /// The job identity the result belongs to.
    pub key: JobKey,
    /// The completed run's result.
    pub result: RunResult,
}

/// What loading a journal found.
#[derive(Debug, Clone, Copy, Default)]
pub struct JournalRecovery {
    /// Intact entries loaded.
    pub entries: usize,
    /// Torn/corrupt lines discarded (a crash mid-append leaves at most
    /// one, but any number is tolerated).
    pub discarded_lines: usize,
    /// True when the file was rewritten to drop the discarded lines.
    pub compacted: bool,
}

fn io_err(path: &Path, e: std::io::Error) -> SimError {
    SimError::Io {
        path: path.display().to_string(),
        source: e,
    }
}

/// Serializes one journal line: `{"key":…,"checksum":…,"result":…}`.
/// The checksum is FNV-1a over the compact-JSON result subtree, so a
/// torn or bit-rotted line is detected even if it still parses as JSON.
fn encode_journal_line(key: &JobKey, result: &RunResult) -> Result<String, SimError> {
    let result_value = result.to_value();
    let result_text = serde_json::to_string(&result_value).map_err(|e| SimError::Snapshot {
        reason: format!("journal result serialization failed: {e}"),
    })?;
    let doc = Value::Map(vec![
        ("key".into(), key.to_value()),
        ("checksum".into(), Value::U64(fnv1a(result_text.as_bytes()))),
        ("result".into(), result_value),
    ]);
    serde_json::to_string(&doc).map_err(|e| SimError::Snapshot {
        reason: format!("journal line serialization failed: {e}"),
    })
}

/// Decodes one journal line; `None` for anything torn, corrupt, or
/// checksum-mismatched (the caller counts and discards it).
fn decode_journal_line(line: &str) -> Option<JournalEntry> {
    let doc: Value = serde_json::from_str(line).ok()?;
    let key = JobKey::from_value(camps_types::snapshot::field(&doc, "key").ok()?).ok()?;
    let declared = u64::from_value(camps_types::snapshot::field(&doc, "checksum").ok()?).ok()?;
    let result_value = camps_types::snapshot::field(&doc, "result").ok()?;
    let result_text = serde_json::to_string(result_value).ok()?;
    if fnv1a(result_text.as_bytes()) != declared {
        return None;
    }
    let result = RunResult::from_value(result_value).ok()?;
    Some(JournalEntry { key, result })
}

/// Reads every intact entry from a journal file. A missing file is an
/// empty journal; torn or corrupt lines are counted and skipped.
///
/// # Errors
/// [`SimError::Io`] only for real I/O failures (permissions etc.), never
/// for content damage.
pub fn read_journal(path: &Path) -> Result<(Vec<JournalEntry>, JournalRecovery), SimError> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(io_err(path, e)),
    };
    let mut entries = Vec::new();
    let mut recovery = JournalRecovery::default();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match decode_journal_line(line) {
            Some(entry) => entries.push(entry),
            None => recovery.discarded_lines += 1,
        }
    }
    recovery.entries = entries.len();
    Ok((entries, recovery))
}

/// The append side of the journal: one shared handle, line-at-a-time
/// `write_all` + flush so a crash can tear at most the final line.
struct Journal {
    path: PathBuf,
    file: Mutex<std::fs::File>,
}

impl Journal {
    /// Loads existing entries (tolerating a torn tail), compacts the
    /// file if anything had to be discarded, and opens it for append.
    fn open(path: &Path) -> Result<(Vec<JournalEntry>, JournalRecovery, Self), SimError> {
        let (entries, mut recovery) = read_journal(path)?;
        if recovery.discarded_lines > 0 {
            // Rewrite with only the intact lines (atomic tmp + rename):
            // later appends must not land after a torn fragment.
            let mut text = String::new();
            for e in &entries {
                text.push_str(&encode_journal_line(&e.key, &e.result)?);
                text.push('\n');
            }
            let tmp = path.with_extension("compact.tmp");
            std::fs::write(&tmp, text).map_err(|e| io_err(&tmp, e))?;
            std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
            recovery.compacted = true;
        }
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        }
        let file = std::fs::File::options()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        Ok((
            entries,
            recovery,
            Self {
                path: path.to_path_buf(),
                file: Mutex::new(file),
            },
        ))
    }

    /// Appends one completed result as a single atomic-enough line (one
    /// `write_all`, then flush — `kill -9` can tear only the last line,
    /// which the loader tolerates).
    fn append(&self, key: &JobKey, result: &RunResult) -> Result<(), SimError> {
        let mut line = encode_journal_line(key, result)?;
        line.push('\n');
        let mut file = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        file.write_all(line.as_bytes())
            .map_err(|e| io_err(&self.path, e))?;
        file.flush().map_err(|e| io_err(&self.path, e))
    }
}

/// Mutable per-attempt bookkeeping threaded through one job's attempts.
#[derive(Debug, Default)]
struct JobStats {
    attempts: u32,
    resumed_retries: u32,
    deadline_hits: u32,
    panics: u32,
    watchdog_trips: u32,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Errors worth retrying: transient-looking failures (a wedged or slow
/// machine, a conservation trip, a bad checkpoint) — as opposed to
/// deterministic input errors (config/trace/setup) that would fail
/// identically on every attempt.
fn retryable(err: &SimError) -> bool {
    matches!(
        err,
        SimError::Panic { .. }
            | SimError::Deadline { .. }
            | SimError::Watchdog(_)
            | SimError::Integrity(_)
            | SimError::Snapshot { .. }
    )
}

/// One simulation attempt through the run driver: resume from the job's
/// checkpoint when one verifies, else start fresh, and apply the
/// injected fault.
fn run_attempt(
    job: &RunSpec,
    fault: Option<InjectedFault>,
    resumed: &mut bool,
) -> Result<RunResult, SimError> {
    if let Some(InjectedFault::PanicOnStart) = fault {
        panic!("injected sweep fault: panic on start");
    }
    let stalled;
    let mut spec = job.clone();
    if let Some(InjectedFault::StallVault { vault, from }) = fault {
        // A config-mutating fault would write checkpoints a clean retry
        // cannot restore (the manifest pins the config hash) — such
        // attempts neither resume nor checkpoint.
        let mut cfg = spec.cfg.clone();
        cfg.faults.stall_vault = vault;
        cfg.faults.stall_vault_from = from;
        stalled = cfg;
        spec.cfg = &stalled;
        spec.checkpoint = None;
    }
    spec.resume = spec
        .checkpoint
        .as_ref()
        .map(|(_, path)| path.clone())
        .filter(|path| path.exists());
    // A checkpoint from an earlier attempt (or a killed sweep) that
    // does not verify is dropped, and the attempt starts fresh.
    let mut run = match spec.start() {
        Ok(run) => {
            *resumed = spec.resume.is_some();
            run
        }
        Err(_) if spec.resume.is_some() => {
            if let Some(path) = spec.resume.take() {
                std::fs::remove_file(path).ok();
            }
            spec.start()?
        }
        Err(err) => return Err(err),
    };
    if let Some(InjectedFault::SleepOnStart(d)) = fault {
        std::thread::sleep(d);
    }
    let panic_at = match fault {
        Some(InjectedFault::PanicAtCycle(c)) => Some(c),
        _ => None,
    };
    loop {
        if let Some(c) = panic_at.filter(|&c| run.now() >= c) {
            panic!("injected sweep fault: panic at cycle {c}");
        }
        if !run.step()? {
            break;
        }
    }
    run.finish()
}

/// Runs one job to completion or quarantine: attempts with isolation,
/// deadline, backoff, and resume-from-checkpoint.
fn run_job(
    job: &RunSpec,
    job_index: usize,
    policy: &SweepPolicy,
    tracer: &TraceHandle,
    sweep_started: Instant,
    key: &JobKey,
) -> (Result<RunResult, SimError>, JobStats) {
    let mut stats = JobStats::default();
    let mut attempt = 0u32;
    loop {
        stats.attempts += 1;
        let fault = policy.faults.fault_for(job_index, attempt);
        let mut resumed = false;
        let outcome = catch_unwind(AssertUnwindSafe(|| run_attempt(job, fault, &mut resumed)));
        if attempt > 0 && resumed {
            stats.resumed_retries += 1;
        }
        let result = match outcome {
            Ok(r) => r,
            Err(payload) => Err(SimError::Panic {
                message: panic_message(payload),
            }),
        };
        match result {
            Ok(run) => {
                if let Some((_, path)) = &job.checkpoint {
                    std::fs::remove_file(path).ok();
                }
                return (Ok(run), stats);
            }
            Err(err) => {
                match &err {
                    SimError::Panic { .. } => stats.panics += 1,
                    SimError::Deadline { .. } => stats.deadline_hits += 1,
                    SimError::Watchdog(_) => stats.watchdog_trips += 1,
                    _ => {}
                }
                if attempt >= policy.max_retries || !retryable(&err) {
                    tracer.instant(
                        format!("sweep_quarantine:{}", key.label()),
                        micros_since(sweep_started),
                    );
                    return (Err(err), stats);
                }
                tracer.instant(
                    format!("sweep_retry:{}", key.label()),
                    micros_since(sweep_started),
                );
                let backoff = policy.retry_backoff.saturating_mul(1u32 << attempt.min(16));
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
                attempt += 1;
            }
        }
    }
}

fn micros_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Per-job checkpoint file, keyed by the *full* job identity: config
/// hash, workload, scheme, seed, and run length. The config hash prefix
/// matters — two sweeps sharing a scratch directory but differing only
/// in machine configuration (say, cube count) would otherwise collide on
/// the same filename, and a resume would restore a checkpoint from the
/// wrong machine (rejected by the manifest hash check, but the job then
/// restarts from zero instead of its own checkpoint).
fn ckpt_file(dir: &Path, key: &JobKey) -> PathBuf {
    dir.join(format!(
        "{:016x}-{}-{}-s{}-w{}-i{}.ckpt.json",
        key.config_hash,
        key.mix_id,
        key.scheme.name(),
        key.seed,
        key.warmup_instructions,
        key.instructions
    ))
}

/// Runs the `mixes × schemes` matrix under the supervisor. Always comes
/// back with partial results and a full accounting; the `Err` arm is
/// reserved for infrastructure failures that poison the whole sweep (an
/// unwritable journal, an invalid config).
///
/// # Errors
/// [`SimError::Io`]/[`SimError::Snapshot`] for journal/trace-file
/// failures; [`SimError::Config`] when `cfg` cannot be hashed. Per-job
/// failures do **not** surface here — they are quarantined into the
/// returned [`SweepRun`].
pub fn run_sweep(
    cfg: &SystemConfig,
    mixes: &[Mix],
    schemes: &[SchemeKind],
    len: &RunLength,
    seed: u64,
    policy: &SweepPolicy,
) -> Result<SweepRun, SimError> {
    let sweep_started = Instant::now();
    let chash = config_hash(cfg)?;
    let jobs: Vec<(usize, Mix, SchemeKind)> = mixes
        .iter()
        .flat_map(|m| schemes.iter().map(move |&s| (*m, s)))
        .enumerate()
        .map(|(i, (m, s))| (i, m, s))
        .collect();
    let keys: Vec<JobKey> = jobs
        .iter()
        .map(|(_, m, s)| JobKey::new(chash, m, *s, seed, len))
        .collect();

    // Journal: load what survives, repair torn tails, open for append.
    let mut journal = None;
    let mut recovery = JournalRecovery::default();
    let mut done: HashMap<&JobKey, &RunResult> = HashMap::new();
    let mut entries = Vec::new();
    if let Some(path) = &policy.journal_path {
        let (loaded, rec, handle) = Journal::open(path)?;
        entries = loaded;
        recovery = rec;
        journal = Some(handle);
    }
    for entry in &entries {
        // Last write wins; keys from other configs/lengths never match.
        done.insert(&entry.key, &entry.result);
    }

    // Scratch dir for per-job checkpoints.
    let scratch = if policy.checkpoint_every.is_some() {
        let dir = policy.scratch_dir.clone().unwrap_or_else(|| {
            policy.journal_path.as_ref().map_or_else(
                || std::env::temp_dir().join(format!("camps-sweep-{chash:016x}")),
                |j| j.with_extension("ckpts"),
            )
        });
        std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        Some(dir)
    } else {
        None
    };

    let tracer = if policy.trace_out.is_some() {
        TraceHandle::new(&ObsConfig {
            trace_out: policy.trace_out.clone(),
            ..ObsConfig::default()
        })
    } else {
        TraceHandle::disabled()
    };

    let journal_append_errors = std::sync::atomic::AtomicUsize::new(0);

    // Progress heartbeat (opt-in): rayon's `install` blocks this thread
    // until the whole sweep drains, so the periodic reporter runs on a
    // plain OS thread fed by atomic counters the workers bump. Stopping
    // is a channel drop — `recv_timeout` doubles as the interval sleep,
    // so shutdown never waits out a sleep.
    let progress = std::sync::Arc::new(SweepProgress::default());
    let total_jobs = jobs.len();
    let heartbeat = policy.progress_every.map(|every| {
        let counters = std::sync::Arc::clone(&progress);
        let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            while let Err(std::sync::mpsc::RecvTimeoutError::Timeout) = stop_rx.recv_timeout(every)
            {
                counters.report(total_jobs, sweep_started);
            }
        });
        (handle, stop_tx)
    });

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(policy.threads.unwrap_or(0))
        .build()
        .map_err(|e| SimError::Setup {
            reason: format!("sweep thread pool: {e}"),
        })?;
    let threads = pool.current_num_threads();

    let job_outputs: Vec<(Result<RunResult, SimError>, JobStats, bool, f64)> = pool.install(|| {
        jobs.par_iter()
            .map(|(index, mix, scheme)| {
                let key = &keys[*index];
                if let Some(prev) = done.get(key) {
                    progress.note_job(0, false);
                    return (Ok((*prev).clone()), JobStats::default(), true, 0.0);
                }
                let job_started = Instant::now();
                let job = RunSpec {
                    checkpoint: policy
                        .checkpoint_every
                        .zip(scratch.as_ref())
                        .map(|(every, dir)| (every, ckpt_file(dir, key))),
                    deadline: policy.job_deadline,
                    ..RunSpec::new(cfg, mix, *scheme, *len, seed)
                };
                let (result, stats) = run_job(&job, *index, policy, &tracer, sweep_started, key);
                if let (Ok(run), Some(j)) = (&result, journal.as_ref()) {
                    if j.append(key, run).is_err() {
                        journal_append_errors.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
                tracer.instant(
                    format!("sweep_job_done:{}", key.label()),
                    micros_since(sweep_started),
                );
                progress.note_job(stats.attempts.saturating_sub(1), result.is_err());
                (result, stats, false, job_started.elapsed().as_secs_f64())
            })
            .collect()
    });

    if let Some((handle, stop_tx)) = heartbeat {
        drop(stop_tx); // disconnects the channel; the reporter exits
        handle.join().ok();
    }

    // Assemble the run + report in job order.
    let mut results = Vec::with_capacity(job_outputs.len());
    let mut errors = Vec::with_capacity(job_outputs.len());
    let mut records = Vec::with_capacity(job_outputs.len());
    let (mut completed, mut journaled, mut quarantined, mut total_retries) = (0, 0, 0, 0u32);
    for ((result, stats, from_journal, wall_secs), key) in job_outputs.into_iter().zip(&keys) {
        let (outcome, error) = match (&result, from_journal) {
            (_, true) => {
                journaled += 1;
                (JobOutcome::Journaled, None)
            }
            (Ok(_), false) => {
                completed += 1;
                (JobOutcome::Completed, None)
            }
            (Err(e), false) => {
                quarantined += 1;
                (JobOutcome::Quarantined, Some(e.to_string()))
            }
        };
        total_retries += stats.attempts.saturating_sub(1);
        records.push(JobRecord {
            mix_id: key.mix_id.clone(),
            scheme: key.scheme,
            seed: key.seed,
            outcome,
            attempts: stats.attempts,
            resumed_retries: stats.resumed_retries,
            deadline_hits: stats.deadline_hits,
            panics: stats.panics,
            watchdog_trips: stats.watchdog_trips,
            wall_secs,
            error,
        });
        match result {
            Ok(r) => {
                results.push(Some(r));
                errors.push(None);
            }
            Err(e) => {
                results.push(None);
                errors.push(Some(e));
            }
        }
    }

    if let Some(path) = &policy.trace_out {
        tracer.export_trace(path).map_err(|e| io_err(path, e))?;
    }

    let report = SweepReport {
        jobs: records,
        completed,
        journaled,
        quarantined,
        total_retries,
        wall_secs: sweep_started.elapsed().as_secs_f64(),
        threads,
        journal_entries_loaded: recovery.entries,
        journal_lines_discarded: recovery.discarded_lines,
        journal_append_errors: journal_append_errors.into_inner(),
    };
    Ok(SweepRun {
        results,
        errors,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use camps_workloads::ALL_MIXES;

    fn tiny() -> RunLength {
        RunLength::tiny()
    }

    #[test]
    fn job_key_round_trips_through_the_journal_line() {
        let cfg = SystemConfig::paper_default();
        let mix = &ALL_MIXES[0];
        let result = crate::experiment::run_mix(&cfg, mix, SchemeKind::Nopf, &tiny(), 1).unwrap();
        let key = JobKey::new(
            config_hash(&cfg).unwrap(),
            mix,
            SchemeKind::Nopf,
            1,
            &tiny(),
        );
        let line = encode_journal_line(&key, &result).unwrap();
        assert!(!line.contains('\n'), "journal lines must be single-line");
        let entry = decode_journal_line(&line).expect("intact line decodes");
        assert_eq!(entry.key, key);
        assert_eq!(
            serde_json::to_string(&entry.result.to_value()).unwrap(),
            serde_json::to_string(&result.to_value()).unwrap(),
            "journaled result must round-trip bit-identically"
        );
    }

    #[test]
    fn checkpoint_files_differ_across_configs() {
        // Same mix/scheme/seed/length, different machine (cube count):
        // the checkpoint filenames must not collide, or two sweeps
        // sharing one scratch directory would clobber each other's
        // resume state.
        let dir = Path::new("/tmp/sweep-ckpt");
        let mix = &ALL_MIXES[0];
        let one = SystemConfig::paper_default();
        let mut four = SystemConfig::paper_default();
        four.topology.cubes = 4;
        let key_one = JobKey::new(
            config_hash(&one).unwrap(),
            mix,
            SchemeKind::Nopf,
            1,
            &tiny(),
        );
        let key_four = JobKey::new(
            config_hash(&four).unwrap(),
            mix,
            SchemeKind::Nopf,
            1,
            &tiny(),
        );
        assert_ne!(key_one.config_hash, key_four.config_hash);
        assert_ne!(ckpt_file(dir, &key_one), ckpt_file(dir, &key_four));
        // Identical configs still agree on the filename (resume works).
        let again = JobKey::new(
            config_hash(&one).unwrap(),
            mix,
            SchemeKind::Nopf,
            1,
            &tiny(),
        );
        assert_eq!(ckpt_file(dir, &key_one), ckpt_file(dir, &again));
    }

    #[test]
    fn torn_and_corrupt_lines_are_rejected() {
        let cfg = SystemConfig::paper_default();
        let mix = &ALL_MIXES[0];
        let result = crate::experiment::run_mix(&cfg, mix, SchemeKind::Nopf, &tiny(), 1).unwrap();
        let key = JobKey::new(
            config_hash(&cfg).unwrap(),
            mix,
            SchemeKind::Nopf,
            1,
            &tiny(),
        );
        let line = encode_journal_line(&key, &result).unwrap();
        // Torn mid-write: any strict prefix fails.
        assert!(decode_journal_line(&line[..line.len() / 2]).is_none());
        // Bit flip inside the result payload: checksum catches it even
        // though the line still parses as JSON.
        let flipped = line.replace("\"cycles\":", "\"cycles\": 9");
        assert!(decode_journal_line(&flipped).is_none());
        assert!(decode_journal_line("").is_none());
        assert!(decode_journal_line("{}").is_none());
    }

    #[test]
    fn fault_plan_matches_attempts_below_threshold() {
        let plan = SweepFaultPlan::new()
            .inject(2, InjectedFault::PanicOnStart, 1)
            .inject(4, InjectedFault::PanicOnStart, u32::MAX);
        assert!(plan.fault_for(2, 0).is_some());
        assert!(plan.fault_for(2, 1).is_none(), "retry runs clean");
        assert!(plan.fault_for(4, 31).is_some(), "always-faulted job");
        assert!(plan.fault_for(0, 0).is_none());
    }
}
