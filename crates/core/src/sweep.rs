//! Resilient parallel sweep supervisor.
//!
//! Runs a workload-mix × scheme job matrix concurrently on real worker
//! threads (the vendored rayon pool) with production-grade failure
//! handling:
//!
//! * **Fault isolation** — each job runs under `catch_unwind`; a panic
//!   becomes a typed [`SimError::Panic`] in that job's record instead of
//!   aborting the sweep, and sibling jobs never notice.
//! * **Wall-clock deadlines** — an optional per-job budget enforced
//!   alongside the cycle-domain watchdog: the watchdog catches a
//!   *wedged* machine, the deadline catches a *slow* one
//!   ([`SimError::Deadline`]).
//! * **One attempt, then quarantine** — the simulator is deterministic,
//!   so a job that failed would fail the same way again: each job runs
//!   once, and a failed job is **quarantined** and reported while
//!   everything else completes. With periodic checkpoints on, a failed
//!   or killed job leaves its last checkpoint behind and the next sweep
//!   resumes it from there (bit-identical restore, see DESIGN.md §8)
//!   instead of recomputing from scratch.
//! * **Crash-safe journal** — completed results stream into an
//!   append-only JSONL journal keyed by (config hash, mix, scheme, seed,
//!   run length) with a per-line checksum. A `kill -9`'d sweep resumes
//!   by skipping journaled jobs; a torn final line (the crash landed
//!   mid-`write`) is detected, tolerated, and compacted away.
//! * **Partial results** — the sweep always returns a [`SweepRun`]: the
//!   per-job results that exist, the per-job errors that occurred, and a
//!   [`SweepReport`] accounting for every job
//!   (completed/journaled/quarantined, resumed, wall time).
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
/// supervisor's isolation, quarantine and resume machinery (the sweep
/// analogue of [`camps_types::config::FaultPlan`]).
#[derive(Debug, Clone, Copy)]
pub enum InjectedFault {
    /// Panic the instant the job starts.
    PanicOnStart,
    /// Panic once simulation reaches this cycle — late enough to leave a
    /// checkpoint behind for the next sweep to resume from.
    PanicAtCycle(Cycle),
    /// Sleep this long at job start, tripping the wall-clock deadline.
    SleepOnStart(Duration),
    /// Stall a vault from the given cycle (the machine wedges and the
    /// forward-progress watchdog fires). Alters the job's effective
    /// config, so the faulted job neither resumes nor checkpoints.
    StallVault {
        /// Vault index to stall.
        vault: u32,
        /// First stalled cycle.
        from: Cycle,
    },
}

/// Which jobs fail, and how.
#[derive(Debug, Clone, Default)]
pub struct SweepFaultPlan {
    entries: Vec<(usize, InjectedFault)>,
}

impl SweepFaultPlan {
    /// An empty plan (no injected faults).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `fault` for job index `job` (row-major over
    /// mixes × schemes).
    #[must_use]
    pub fn inject(mut self, job: usize, fault: InjectedFault) -> Self {
        self.entries.push((job, fault));
        self
    }

    fn fault_for(&self, job: usize) -> Option<InjectedFault> {
        self.entries
            .iter()
            .find(|(j, _)| *j == job)
            .map(|(_, f)| *f)
    }
}

/// Failure-handling knobs for [`run_sweep`].
#[derive(Debug, Clone, Default)]
pub struct SweepPolicy {
    /// Per-job wall-clock budget; `None` disables the deadline.
    pub job_deadline: Option<Duration>,
    /// Periodic per-job checkpoint interval (cycles). A job that fails
    /// or is killed leaves its last checkpoint behind, and the next
    /// sweep resumes it from there; `None` means such a job restarts
    /// from scratch. Checkpoints live in `<journal>.ckpts/` next to the
    /// journal, else in a config-hash-keyed directory under the system
    /// temp dir.
    pub checkpoint_every: Option<Cycle>,
    /// Append-only JSONL journal of completed results. Jobs already
    /// journaled (same [`JobKey`]) are skipped on re-invocation.
    pub journal_path: Option<PathBuf>,
    /// Worker thread count; `None`/0 uses `RAYON_NUM_THREADS` or all
    /// host cores.
    pub threads: Option<usize>,
    /// When set, sweep-level Perfetto instants (job done, quarantine;
    /// timestamps in wall-clock microseconds since sweep start) are
    /// written here.
    pub trace_out: Option<PathBuf>,
    /// When set, a heartbeat line (jobs done/total, quarantines so far,
    /// elapsed, crude ETA) is printed to stderr at
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
    quarantined: std::sync::atomic::AtomicUsize,
}

impl SweepProgress {
    /// Records one finished job (journal skips count too — the user
    /// wants distance-to-done, not distance-to-computed).
    fn note_job(&self, quarantined: bool) {
        use std::sync::atomic::Ordering::Relaxed;
        if quarantined {
            self.quarantined.fetch_add(1, Relaxed);
        }
        self.done.fetch_add(1, Relaxed);
    }

    /// One stderr heartbeat line with a crude linear ETA.
    fn report(&self, total: usize, started: Instant) {
        use std::sync::atomic::Ordering::Relaxed;
        let done = self.done.load(Relaxed);
        let quarantined = self.quarantined.load(Relaxed);
        let elapsed = started.elapsed().as_secs_f64();
        let eta = if done > 0 && done < total {
            let per_job = elapsed / done as f64;
            format!(", ETA ~{:.0}s", per_job * (total - done) as f64)
        } else {
            String::new()
        };
        eprintln!(
            "sweep: {done}/{total} jobs done, {quarantined} quarantined, \
             {elapsed:.0}s elapsed{eta}"
        );
    }
}

/// What ultimately happened to one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobOutcome {
    /// Ran and produced a result this sweep.
    Completed,
    /// Skipped: an identical-key result was already in the journal.
    Journaled,
    /// Failed this sweep; no result.
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
    /// The job continued from a checkpoint that an earlier killed or
    /// failed sweep left behind, instead of starting from scratch.
    pub resumed: bool,
    /// Wall-clock seconds spent on this job this sweep.
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
    /// Jobs that failed this sweep.
    pub quarantined: usize,
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
             {} quarantined\n",
            self.jobs.len(),
            self.threads,
            self.wall_secs,
            self.completed,
            self.journaled,
            self.quarantined,
        );
        if self.journal_lines_discarded > 0 {
            let _ = writeln!(
                out,
                "  journal: {} torn/corrupt line(s) discarded and compacted away",
                self.journal_lines_discarded
            );
        }
        for j in self
            .jobs
            .iter()
            .filter(|j| j.outcome == JobOutcome::Quarantined)
        {
            let _ = writeln!(
                out,
                "  QUARANTINED {}/{}#{}: {}",
                j.mix_id,
                j.scheme.name(),
                j.seed,
                j.error.as_deref().unwrap_or("unknown error"),
            );
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

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The simulation itself: resume from the job's checkpoint when one
/// verifies, else start fresh, and apply the injected fault. Sets
/// `resumed` once a leftover checkpoint has been restored.
fn simulate(
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
        // A config-mutating fault would write checkpoints a clean re-run
        // cannot restore (the manifest pins the config hash) — such
        // jobs neither resume nor checkpoint.
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
    // A checkpoint from a failed or killed sweep that does not verify
    // is dropped, and the job starts fresh.
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

/// Runs one job once, isolated: a panic becomes [`SimError::Panic`].
/// A finished job removes its checkpoint; a failed one leaves it for the
/// next sweep to resume from. Returns the outcome and whether the job
/// resumed from a leftover checkpoint.
fn run_job(job: &RunSpec, fault: Option<InjectedFault>) -> (Result<RunResult, SimError>, bool) {
    let mut resumed = false;
    let result = catch_unwind(AssertUnwindSafe(|| simulate(job, fault, &mut resumed)))
        .unwrap_or_else(|payload| {
            Err(SimError::Panic {
                message: panic_message(payload),
            })
        });
    if let (Ok(_), Some((_, path))) = (&result, &job.checkpoint) {
        std::fs::remove_file(path).ok();
    }
    (result, resumed)
}

fn micros_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Per-job checkpoint file, keyed by the *full* job identity: config
/// hash, workload, scheme, seed, and run length (warmup, instructions
/// and cycle cap). Every field matters. Two sweeps sharing a checkpoint
/// directory but differing only in machine configuration (say, cube
/// count) would otherwise collide, and the resume would be rejected by
/// the manifest hash check, restarting the job from zero. Two differing
/// only in the cycle cap would be worse: the restored run state carries
/// the first sweep's cap, and its result would be journaled under the
/// second sweep's key.
fn ckpt_file(dir: &Path, key: &JobKey) -> PathBuf {
    dir.join(format!(
        "{:016x}-{}-{}-s{}-w{}-i{}-c{}.ckpt.json",
        key.config_hash,
        key.mix_id,
        key.scheme.name(),
        key.seed,
        key.warmup_instructions,
        key.instructions,
        key.max_cycles
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

    // Directory for per-job checkpoints.
    let ckpt_dir = if policy.checkpoint_every.is_some() {
        let dir = policy.journal_path.as_ref().map_or_else(
            || std::env::temp_dir().join(format!("camps-sweep-{chash:016x}")),
            |j| j.with_extension("ckpts"),
        );
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

    let job_outputs: Vec<(Result<RunResult, SimError>, JobRecord)> = pool.install(|| {
        jobs.par_iter()
            .map(|(index, mix, scheme)| {
                let key = &keys[*index];
                let record = |outcome, resumed, wall_secs, error| JobRecord {
                    mix_id: key.mix_id.clone(),
                    scheme: key.scheme,
                    seed: key.seed,
                    outcome,
                    resumed,
                    wall_secs,
                    error,
                };
                if let Some(prev) = done.get(key) {
                    progress.note_job(false);
                    return (
                        Ok((*prev).clone()),
                        record(JobOutcome::Journaled, false, 0.0, None),
                    );
                }
                let job_started = Instant::now();
                let job = RunSpec {
                    checkpoint: policy
                        .checkpoint_every
                        .zip(ckpt_dir.as_ref())
                        .map(|(every, dir)| (every, ckpt_file(dir, key))),
                    deadline: policy.job_deadline,
                    ..RunSpec::new(cfg, mix, *scheme, *len, seed)
                };
                let (result, resumed) = run_job(&job, policy.faults.fault_for(*index));
                let outcome = match &result {
                    Ok(run) => {
                        if journal
                            .as_ref()
                            .is_some_and(|j| j.append(key, run).is_err())
                        {
                            journal_append_errors
                                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                        JobOutcome::Completed
                    }
                    Err(_) => {
                        tracer.instant(
                            format!("sweep_quarantine:{}", key.label()),
                            micros_since(sweep_started),
                        );
                        JobOutcome::Quarantined
                    }
                };
                tracer.instant(
                    format!("sweep_job_done:{}", key.label()),
                    micros_since(sweep_started),
                );
                progress.note_job(result.is_err());
                let error = result.as_ref().err().map(ToString::to_string);
                let wall_secs = job_started.elapsed().as_secs_f64();
                (result, record(outcome, resumed, wall_secs, error))
            })
            .collect()
    });

    if let Some((handle, stop_tx)) = heartbeat {
        drop(stop_tx); // disconnects the channel; the reporter exits
        handle.join().ok();
    }

    // Split into the run + report, in job order.
    let (outputs, records): (Vec<_>, Vec<JobRecord>) = job_outputs.into_iter().unzip();
    let (results, errors) = outputs
        .into_iter()
        .map(|r| match r {
            Ok(r) => (Some(r), None),
            Err(e) => (None, Some(e)),
        })
        .unzip();
    let count = |outcome| records.iter().filter(|r| r.outcome == outcome).count();

    if let Some(path) = &policy.trace_out {
        tracer.export_trace(path).map_err(|e| io_err(path, e))?;
    }

    let report = SweepReport {
        completed: count(JobOutcome::Completed),
        journaled: count(JobOutcome::Journaled),
        quarantined: count(JobOutcome::Quarantined),
        jobs: records,
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
        // Same machine and job, different cycle cap: a resume across the
        // two would carry the other cap and journal under the wrong key.
        let capped = JobKey::new(
            config_hash(&one).unwrap(),
            mix,
            SchemeKind::Nopf,
            1,
            &RunLength {
                max_cycles: tiny().max_cycles / 2,
                ..tiny()
            },
        );
        assert_ne!(ckpt_file(dir, &key_one), ckpt_file(dir, &capped));
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
    fn fault_plan_faults_only_its_jobs() {
        let plan = SweepFaultPlan::new()
            .inject(2, InjectedFault::PanicOnStart)
            .inject(4, InjectedFault::PanicAtCycle(10));
        assert!(matches!(
            plan.fault_for(2),
            Some(InjectedFault::PanicOnStart)
        ));
        assert!(matches!(
            plan.fault_for(4),
            Some(InjectedFault::PanicAtCycle(10))
        ));
        assert!(plan.fault_for(0).is_none());
        assert!(plan.fault_for(3).is_none());
    }
}
