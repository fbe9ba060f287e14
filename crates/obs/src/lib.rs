//! camps-obs — observability for the CAMPS simulator.
//!
//! Three facilities, all reachable through one cheap [`TraceHandle`]:
//!
//! 1. **Request-lifecycle tracer.** Every demand/prefetch request is
//!    stamped as it moves core issue → MSHR → host queue → serial link →
//!    vault queue → bank (or prefetch buffer) → response link. Completed
//!    lifecycles become per-stage spans in a bounded ring buffer and are
//!    exported as Chrome trace-event JSON, loadable in Perfetto
//!    (`ui.perfetto.dev`). Watchdog trips, injected faults and
//!    checkpoints appear as instants.
//! 2. **Metrics registry.** The system layer pushes a [`MetricsSample`]
//!    every `--metrics-every N` cycles; the series is exported as JSONL
//!    (or CSV, chosen by file extension). Rows carry a schema version
//!    ([`METRICS_SCHEMA_VERSION`]) so downstream tooling can reject
//!    incompatible files instead of misreading them.
//! 3. **Latency-breakdown histograms.** Per-stage `Log2Histogram`s of
//!    demand-read latency, folded into a [`StageBreakdown`] that rides
//!    along in `RunResult` — the per-stage AMAT decomposition behind the
//!    paper's Figure 8 argument.
//!
//! The observers compile out: with the `enabled` feature off (it is on
//! by default) every hook of [`TraceHandle`] and [`Profiler`] first
//! tests a `const false`, so the branch folds away and the optimizer
//! removes the hook. Both builds run the one implementation of each
//! observer. With the feature on but no handle installed (the default
//! at runtime), each hook is a single `Option` test on a `None`, and
//! every workload of the repository benchmark (`benchmark/`) times that
//! configuration.
//!
//! Stage sums telescope: for a demand read delivered at cycle `d` and
//! issued at cycle `i`, the six stage durations add up to exactly
//! `d - i`, which is the same quantity the system's `amat_mem`
//! accumulator records for the request's primary waiter. A traced run's
//! per-stage sums therefore reconcile with `amat_mem` (exactly on
//! merge-free workloads; within noise otherwise, since MSHR merges wake
//! several waiters per memory request).

#![warn(missing_docs)]

mod breakdown;
mod core;
mod metrics;
mod profiler;
mod stage;

pub use breakdown::{StageBreakdown, StageLatency};
pub use metrics::{MetricsFormat, MetricsSample, METRICS_SCHEMA_VERSION};
pub use profiler::{Comp, ProfileNode, ProfileSummary, Profiler, WakeSourceStat};
pub use stage::{Point, ReqClass, Stage, STAGE_COUNT};

use camps_types::clock::Cycle;
use camps_types::request::ServiceSource;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

/// True when the `enabled` feature compiled the observers in. Every
/// hook tests it first, so with the feature off each one folds to a
/// constant `false` branch and the optimizer removes it.
const COMPILED: bool = cfg!(feature = "enabled");

/// Default capacity of the trace ring buffer (events, oldest dropped).
pub const TRACE_RING_DEFAULT: usize = 1 << 18;

/// Runtime observability configuration, normally built from CLI flags.
///
/// `Default` is everything off. Tracing activates when `trace_out` is
/// set; periodic metrics sampling when `metrics_every` is set. Stage
/// histograms (the [`StageBreakdown`]) are collected whenever a handle
/// is installed at all, so a default config still yields a breakdown.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsConfig {
    /// Write a Chrome trace-event JSON here after the run.
    pub trace_out: Option<PathBuf>,
    /// Keep only spans whose stage name contains this substring
    /// (instants are always kept).
    pub trace_filter: Option<String>,
    /// Ring-buffer capacity in events; `0` means [`TRACE_RING_DEFAULT`].
    pub trace_capacity: usize,
    /// Push a [`MetricsSample`] every N cycles.
    pub metrics_every: Option<u64>,
    /// Write the sampled series here after the run (`.csv` extension
    /// selects CSV, anything else JSONL).
    pub metrics_out: Option<PathBuf>,
    /// Enable the host-side self-profiler ([`Profiler`]); the summary
    /// rides in `RunResult.profile`.
    pub profile: bool,
    /// Write the self-profile as collapsed folded-stack text here
    /// after the run (implies `profile`).
    pub profile_out: Option<PathBuf>,
}

impl ObsConfig {
    /// True when any output or sampling was requested.
    #[must_use]
    pub fn wants_any(&self) -> bool {
        self.trace_out.is_some()
            || self.metrics_every.is_some()
            || self.metrics_out.is_some()
            || self.wants_profile()
    }

    /// True when the self-profiler should be enabled.
    #[must_use]
    pub fn wants_profile(&self) -> bool {
        self.profile || self.profile_out.is_some()
    }
}

/// What a trace export wrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExportReport {
    /// Trace records written (spans count once, not per JSON event).
    pub records: u64,
    /// Records evicted from the ring before export (trace truncated).
    pub dropped: u64,
}

fn unsupported() -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "camps-obs was compiled without the `enabled` feature",
    )
}

/// The hook object threaded through the simulator.
///
/// Cloning is cheap (an `Arc`); all clones observe the same state, so
/// the system, cube, and every vault can stamp into one tracer. The
/// handle is deliberately *not* part of any `Snapshot`: checkpoints are
/// byte-identical with and without observability.
#[derive(Clone, Default, Debug)]
pub struct TraceHandle(Option<Arc<Mutex<core::ObsCore>>>);

impl TraceHandle {
    /// An active handle configured by `cfg` (a disabled one when the
    /// `enabled` feature is off).
    #[must_use]
    pub fn new(cfg: &ObsConfig) -> Self {
        Self(COMPILED.then(|| Arc::new(Mutex::new(core::ObsCore::new(cfg)))))
    }

    /// The default, do-nothing handle.
    #[must_use]
    pub fn disabled() -> Self {
        Self(None)
    }

    /// True when this crate was built with the `enabled` feature.
    #[must_use]
    pub const fn compiled() -> bool {
        COMPILED
    }

    /// True when this handle actually records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        COMPILED && self.0.is_some()
    }

    fn with<R>(&self, f: impl FnOnce(&mut core::ObsCore) -> R) -> Option<R> {
        if !COMPILED {
            return None;
        }
        self.0.as_ref().map(|m| {
            let mut guard = m.lock().unwrap_or_else(PoisonError::into_inner);
            f(&mut guard)
        })
    }

    /// Opens a lifecycle record: the request entered the memory system.
    ///
    /// `issue` is the cycle latency accounting starts from (first MSHR
    /// attempt for retried loads); `inject` is when the request entered
    /// the host queue.
    #[inline]
    pub fn issue(
        &self,
        id: u64,
        core: u8,
        addr: u64,
        class: ReqClass,
        issue: Cycle,
        inject: Cycle,
    ) {
        self.with(|c| c.issue(id, core, addr, class, issue, inject));
    }

    /// Stamps one lifecycle point on an in-flight request. Unknown ids
    /// (e.g. unsolicited cache-push packets) are ignored.
    #[inline]
    pub fn stamp(&self, id: u64, point: Point, at: Cycle) {
        self.with(|c| c.stamp(id, point, at));
    }

    /// Stamps delivery into a cube's host queue after the inter-cube
    /// interconnect, recording which cube owns the request. Single-cube
    /// machines never call this; the `cube_link` span is then absent
    /// and the host-queue span starts at injection, exactly as before.
    #[inline]
    pub fn cube_arrive(&self, id: u64, cube: u16, at: Cycle) {
        self.with(|c| c.cube_arrive(id, cube, at));
    }

    /// Stamps arrival at a vault, recording which vault it was.
    #[inline]
    pub fn arrive(&self, id: u64, vault: u16, at: Cycle) {
        self.with(|c| c.arrive(id, vault, at));
    }

    /// Closes a lifecycle: the response was delivered at `at`. Emits the
    /// request's stage spans and folds demand reads into the histograms.
    #[inline]
    pub fn finish(&self, id: u64, source: ServiceSource, at: Cycle) {
        self.with(|c| c.finish(id, source, at));
    }

    /// Forgets an in-flight request (it was dropped by an injected
    /// fault and will never complete).
    #[inline]
    pub fn abort(&self, id: u64) {
        self.with(|c| c.abort(id));
    }

    /// Records a completed prefetch row fetch as a span.
    #[inline]
    pub fn fetch_span(&self, vault: u16, bank: u32, row: u64, start: Cycle, end: Cycle) {
        self.with(|c| c.fetch_span(vault, bank, row, start, end));
    }

    /// Records an instantaneous event (watchdog trip, injected fault).
    #[inline]
    pub fn mark(&self, name: &'static str, at: Cycle) {
        self.with(|c| c.mark(name, at));
    }

    /// Records an instantaneous event with a runtime-built name — the
    /// sweep supervisor stamps job-done/quarantine markers carrying the
    /// job's identity (`sweep_quarantine:HM1/CAMPS-MOD#7`). `at` is whatever
    /// timebase the caller renders in (the sweep uses microseconds of
    /// wall clock since sweep start).
    #[inline]
    pub fn instant(&self, name: String, at: Cycle) {
        self.with(|c| c.instant(name, at));
    }

    /// Appends one metrics sample to the time-series.
    #[inline]
    pub fn push_sample(&self, sample: MetricsSample) {
        self.with(|c| c.push_sample(sample));
    }

    /// `(count, total cycles)` of traced demand reads so far.
    #[must_use]
    pub fn traced_reads(&self) -> (u64, u64) {
        self.with(|c| c.traced_reads()).unwrap_or((0, 0))
    }

    /// Number of metrics samples collected so far.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.with(|c| c.samples_len()).unwrap_or(0)
    }

    /// The per-stage latency breakdown, `None` when disabled.
    #[must_use]
    pub fn breakdown(&self) -> Option<StageBreakdown> {
        self.with(|c| c.breakdown())
    }

    /// Renders the trace ring as Chrome trace-event JSON, `None` when
    /// disabled.
    #[must_use]
    pub fn render_trace_json(&self) -> Option<String> {
        self.with(|c| c.render_trace_json())
    }

    /// Renders the metrics series, `None` when disabled.
    #[must_use]
    pub fn render_metrics(&self, format: MetricsFormat) -> Option<String> {
        self.with(|c| c.render_metrics(format))
    }

    /// Writes the trace JSON to `path`.
    ///
    /// # Errors
    /// Fails on I/O errors or when the handle is disabled.
    pub fn export_trace(&self, path: &Path) -> std::io::Result<ExportReport> {
        let (text, report) = self
            .with(|c| (c.render_trace_json(), c.export_report()))
            .ok_or_else(unsupported)?;
        std::fs::write(path, text)?;
        if report.dropped > 0 {
            // The written file carries the same counts in its
            // `trace_ring` metadata record; warn here so a truncated
            // trace is never mistaken for the whole run.
            eprintln!(
                "camps-obs: trace ring overflowed: {} record(s) dropped, {} kept \
                 (raise ObsConfig::trace_capacity or narrow --trace-filter)",
                report.dropped, report.records
            );
        }
        Ok(report)
    }

    /// Writes the metrics series to `path` (CSV when the extension is
    /// `.csv`, JSONL otherwise). Returns the number of rows written.
    ///
    /// # Errors
    /// Fails on I/O errors or when the handle is disabled.
    pub fn export_metrics(&self, path: &Path) -> std::io::Result<u64> {
        let format = MetricsFormat::for_path(path);
        let (text, rows) = self
            .with(|c| (c.render_metrics(format), c.samples_len()))
            .ok_or_else(unsupported)?;
        std::fs::write(path, text)?;
        Ok(rows)
    }
}

#[cfg(all(test, not(feature = "enabled")))]
mod compiled_out_tests {
    use super::*;

    #[test]
    fn hooks_are_inert_without_the_feature() {
        assert!(!TraceHandle::compiled());
        let cfg = ObsConfig {
            trace_out: Some(PathBuf::from("unused.trace.json")),
            metrics_every: Some(100),
            ..ObsConfig::default()
        };
        let handle = TraceHandle::new(&cfg);
        assert!(!handle.is_enabled());
        handle.push_sample(MetricsSample::default());
        assert_eq!(handle.samples(), 0);
        assert!(handle.breakdown().is_none());
        let err = handle
            .export_trace(Path::new("unused.trace.json"))
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::Unsupported);

        let mut profiler = Profiler::enabled();
        assert!(!profiler.is_enabled());
        profiler.enter(Comp::RunLoop);
        assert_eq!(profiler.exit(Comp::RunLoop), 0);
        assert!(profiler.summary().is_none());
    }
}
