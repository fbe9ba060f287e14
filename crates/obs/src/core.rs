//! The live tracer state behind an enabled [`TraceHandle`].
//!
//! [`TraceHandle`]: crate::TraceHandle

use crate::breakdown::{StageBreakdown, StageLatency};
use crate::metrics::{MetricsFormat, MetricsSample};
use crate::stage::{Point, ReqClass, Stage, STAGE_COUNT};
use crate::{ExportReport, ObsConfig, TRACE_RING_DEFAULT};
use camps_stats::{Log2Histogram, Running};
use camps_types::clock::Cycle;
use camps_types::request::ServiceSource;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;

/// Sentinel for a lifecycle point that was never stamped.
const UNSET: Cycle = Cycle::MAX;

/// Cap on stored metrics rows: beyond this the oldest rows are dropped
/// (a run sampling every cycle must not balloon memory).
const METRICS_ROW_CAP: usize = 1 << 20;

/// An in-flight request's stamps.
#[derive(Debug, Clone, Copy)]
struct Pending {
    class: ReqClass,
    core: u8,
    cube: u16,
    vault: u16,
    addr: u64,
    issue: Cycle,
    inject: Cycle,
    /// Delivery into the owning cube's host queue after the inter-cube
    /// interconnect; `UNSET` on single-cube machines (no hop exists).
    cube_arrive: Cycle,
    launch: Cycle,
    arrive: Cycle,
    service: Cycle,
    ready: Cycle,
}

/// One record in the bounded trace ring. Spans are stored whole (one
/// record per stage) so ring eviction can never orphan half of an
/// async begin/end pair.
#[derive(Debug, Clone)]
enum TraceRecord {
    /// A request spent `[start, end]` in `stage`.
    Span {
        stage: Stage,
        id: u64,
        core: u8,
        cube: u16,
        vault: u16,
        addr: u64,
        source: Option<ServiceSource>,
        start: Cycle,
        end: Cycle,
    },
    /// A prefetch engine fetched one row into the buffer.
    Fetch {
        seq: u64,
        vault: u16,
        bank: u32,
        row: u64,
        start: Cycle,
        end: Cycle,
    },
    /// An instantaneous event (watchdog trip, injected fault).
    Mark { name: &'static str, at: Cycle },
    /// An instantaneous event with a runtime-built name (sweep-level
    /// job-done/quarantine markers carrying the job's identity).
    Instant { name: String, at: Cycle },
}

/// All observability state. Lives behind `Arc<Mutex<..>>`; deliberately
/// excluded from every `Snapshot` implementation.
#[derive(Debug)]
pub(crate) struct ObsCore {
    record_spans: bool,
    filter: Option<String>,
    capacity: usize,
    pending: HashMap<u64, Pending>,
    ring: VecDeque<TraceRecord>,
    dropped: u64,
    fetch_seq: u64,
    stage_hist: [Log2Histogram; STAGE_COUNT],
    traced: Running,
    traced_cycles: u64,
    samples: Vec<MetricsSample>,
}

fn span_len(start: Cycle, end: Cycle) -> Option<Cycle> {
    (start != UNSET && end != UNSET && end >= start).then(|| end - start)
}

impl ObsCore {
    pub(crate) fn new(cfg: &ObsConfig) -> Self {
        Self {
            record_spans: cfg.trace_out.is_some(),
            filter: cfg.trace_filter.clone(),
            capacity: if cfg.trace_capacity == 0 {
                TRACE_RING_DEFAULT
            } else {
                cfg.trace_capacity
            },
            pending: HashMap::new(),
            ring: VecDeque::new(),
            dropped: 0,
            fetch_seq: 0,
            stage_hist: std::array::from_fn(|_| Log2Histogram::new()),
            traced: Running::new(),
            traced_cycles: 0,
            samples: Vec::new(),
        }
    }

    fn push(&mut self, rec: TraceRecord) {
        if !self.record_spans {
            return;
        }
        if let Some(f) = &self.filter {
            let name = match &rec {
                TraceRecord::Span { stage, .. } => stage.name(),
                TraceRecord::Fetch { .. } => "row_fetch",
                // Rare, load-bearing events always survive the filter.
                TraceRecord::Mark { .. } | TraceRecord::Instant { .. } => "",
            };
            if !name.is_empty() && !name.contains(f.as_str()) {
                return;
            }
        }
        if self.ring.len() >= self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(rec);
    }

    pub(crate) fn issue(
        &mut self,
        id: u64,
        core: u8,
        addr: u64,
        class: ReqClass,
        issue: Cycle,
        inject: Cycle,
    ) {
        self.pending.insert(
            id,
            Pending {
                class,
                core,
                cube: 0,
                vault: 0,
                addr,
                issue,
                inject,
                cube_arrive: UNSET,
                launch: UNSET,
                arrive: UNSET,
                service: UNSET,
                ready: UNSET,
            },
        );
    }

    pub(crate) fn stamp(&mut self, id: u64, point: Point, at: Cycle) {
        let Some(p) = self.pending.get_mut(&id) else {
            return;
        };
        match point {
            Point::LinkLaunch => p.launch = at,
            // A queue-full retry re-selects later; keep the *first*
            // service start so stage sums still telescope.
            Point::ServiceStart => {
                if p.service == UNSET {
                    p.service = at;
                }
            }
            Point::RespReady => p.ready = at,
        }
    }

    pub(crate) fn cube_arrive(&mut self, id: u64, cube: u16, at: Cycle) {
        if let Some(p) = self.pending.get_mut(&id) {
            p.cube = cube;
            if p.cube_arrive == UNSET {
                p.cube_arrive = at;
            }
        }
    }

    pub(crate) fn arrive(&mut self, id: u64, vault: u16, at: Cycle) {
        if let Some(p) = self.pending.get_mut(&id) {
            p.vault = vault;
            // Faults can re-deliver; the first arrival is the real one.
            if p.arrive == UNSET {
                p.arrive = at;
            }
        }
    }

    pub(crate) fn abort(&mut self, id: u64) {
        self.pending.remove(&id);
    }

    pub(crate) fn finish(&mut self, id: u64, source: ServiceSource, at: Cycle) {
        let Some(p) = self.pending.remove(&id) else {
            return;
        };
        let service_stage = Stage::from_source(source);
        // With no interconnect hop (`cube_arrive` unset) the cube-link
        // edge has zero span and is skipped, and the host-queue span
        // starts at injection — exactly the single-cube accounting. With
        // a hop the two edges telescope through `cube_arrive` instead.
        let hq_start = if p.cube_arrive == UNSET {
            p.inject
        } else {
            p.cube_arrive
        };
        let edges = [
            (Stage::CacheMshr, p.issue, p.inject),
            (Stage::CubeLink, p.inject, p.cube_arrive),
            (Stage::HostQueue, hq_start, p.launch),
            (Stage::ReqLink, p.launch, p.arrive),
            (Stage::VaultQueue, p.arrive, p.service),
            (service_stage, p.service, p.ready),
            (Stage::RespLink, p.ready, at),
        ];
        let histogram = matches!(p.class, ReqClass::DemandRead);
        for (stage, start, end) in edges {
            let Some(len) = span_len(start, end) else {
                continue;
            };
            if histogram {
                self.stage_hist[stage.index()].record(len);
                self.traced_cycles = self.traced_cycles.saturating_add(len);
            }
            if p.class.traced() {
                self.push(TraceRecord::Span {
                    stage,
                    id,
                    core: p.core,
                    cube: p.cube,
                    vault: p.vault,
                    addr: p.addr,
                    source: (stage == service_stage).then_some(source),
                    start,
                    end,
                });
            }
        }
        if histogram {
            if let Some(total) = span_len(p.issue, at) {
                self.traced.record(total as f64);
            }
        }
    }

    pub(crate) fn fetch_span(&mut self, vault: u16, bank: u32, row: u64, start: Cycle, end: Cycle) {
        let seq = self.fetch_seq;
        self.fetch_seq += 1;
        self.push(TraceRecord::Fetch {
            seq,
            vault,
            bank,
            row,
            start,
            end,
        });
    }

    pub(crate) fn mark(&mut self, name: &'static str, at: Cycle) {
        self.push(TraceRecord::Mark { name, at });
    }

    pub(crate) fn instant(&mut self, name: String, at: Cycle) {
        self.push(TraceRecord::Instant { name, at });
    }

    pub(crate) fn push_sample(&mut self, sample: MetricsSample) {
        if self.samples.len() >= METRICS_ROW_CAP {
            self.samples.remove(0);
        }
        self.samples.push(sample);
    }

    pub(crate) fn traced_reads(&self) -> (u64, u64) {
        (self.traced.count(), self.traced_cycles)
    }

    pub(crate) fn samples_len(&self) -> u64 {
        self.samples.len() as u64
    }

    pub(crate) fn export_report(&self) -> ExportReport {
        ExportReport {
            records: self.ring.len() as u64,
            dropped: self.dropped,
        }
    }

    pub(crate) fn breakdown(&self) -> StageBreakdown {
        let reads = self.traced.count();
        let stages = Stage::ALL
            .iter()
            .map(|&s| {
                let h = &self.stage_hist[s.index()];
                let total = h.sum();
                StageLatency {
                    stage: s.name().to_string(),
                    count: h.count(),
                    total_cycles: total,
                    mean_cycles: if reads == 0 {
                        0.0
                    } else {
                        total as f64 / reads as f64
                    },
                }
            })
            .collect();
        StageBreakdown {
            demand_reads: reads,
            mean_total: self.traced.mean().unwrap_or(0.0),
            stages,
        }
    }

    /// Chrome trace-event JSON (object form). Request spans are async
    /// begin/end pairs keyed by request id so overlapping lifetimes get
    /// their own lanes in Perfetto; faults, watchdog trips and
    /// checkpoints are instants.
    pub(crate) fn render_trace_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.ring.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        out.push_str(
            "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\
             \"args\":{\"name\":\"camps-sim\"}}",
        );
        // Ring accounting rides along as metadata so a viewer (or a
        // script) can tell a complete trace from a truncated one.
        let _ = write!(
            out,
            ",\n{{\"ph\":\"M\",\"pid\":1,\"name\":\"trace_ring\",\
             \"args\":{{\"records\":{},\"dropped\":{},\"capacity\":{}}}}}",
            self.ring.len(),
            self.dropped,
            self.capacity
        );
        for rec in &self.ring {
            match rec {
                TraceRecord::Span {
                    stage,
                    id,
                    core,
                    cube,
                    vault,
                    addr,
                    source,
                    start,
                    end,
                } => {
                    let name = stage.name();
                    let _ = write!(
                        out,
                        ",\n{{\"ph\":\"b\",\"cat\":\"req\",\"id\":\"0x{id:x}\",\
                         \"name\":\"{name}\",\"pid\":1,\"tid\":1,\"ts\":{start},\
                         \"args\":{{\"core\":{core},\"cube\":{cube},\"vault\":{vault},\
                         \"addr\":\"0x{addr:x}\""
                    );
                    if let Some(src) = source {
                        let _ = write!(out, ",\"source\":\"{}\"", src.name());
                    }
                    let _ = write!(
                        out,
                        "}}}},\n{{\"ph\":\"e\",\"cat\":\"req\",\"id\":\"0x{id:x}\",\
                         \"name\":\"{name}\",\"pid\":1,\"tid\":1,\"ts\":{end}}}"
                    );
                }
                TraceRecord::Fetch {
                    seq,
                    vault,
                    bank,
                    row,
                    start,
                    end,
                } => {
                    let _ = write!(
                        out,
                        ",\n{{\"ph\":\"b\",\"cat\":\"pf\",\"id\":\"f{seq}\",\
                         \"name\":\"row_fetch\",\"pid\":1,\"tid\":2,\"ts\":{start},\
                         \"args\":{{\"vault\":{vault},\"bank\":{bank},\"row\":{row}}}}},\n\
                         {{\"ph\":\"e\",\"cat\":\"pf\",\"id\":\"f{seq}\",\
                         \"name\":\"row_fetch\",\"pid\":1,\"tid\":2,\"ts\":{end}}}"
                    );
                }
                TraceRecord::Mark { name, at } => {
                    let _ = write!(
                        out,
                        ",\n{{\"ph\":\"i\",\"s\":\"g\",\"name\":\"{name}\",\
                         \"pid\":1,\"tid\":0,\"ts\":{at}}}"
                    );
                }
                TraceRecord::Instant { name, at } => {
                    let _ = write!(
                        out,
                        ",\n{{\"ph\":\"i\",\"s\":\"g\",\"name\":\"{name}\",\
                         \"pid\":1,\"tid\":0,\"ts\":{at}}}"
                    );
                }
            }
        }
        out.push_str("\n]}\n");
        out
    }

    pub(crate) fn render_metrics(&self, format: MetricsFormat) -> String {
        let mut out = String::new();
        match format {
            MetricsFormat::Csv => {
                out.push_str(&MetricsSample::csv_header());
                out.push('\n');
                for s in &self.samples {
                    out.push_str(&s.csv_row());
                    out.push('\n');
                }
            }
            MetricsFormat::Jsonl => {
                for s in &self.samples {
                    // MetricsSample is flat scalars; serialization
                    // cannot fail.
                    if let Ok(line) = serde_json::to_string(s) {
                        out.push_str(&line);
                        out.push('\n');
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::value::{lookup, Value};

    fn traced_core() -> ObsCore {
        ObsCore::new(&ObsConfig {
            trace_out: Some(std::path::PathBuf::from("unused.json")),
            ..ObsConfig::default()
        })
    }

    /// Drives one full demand-read lifecycle through the tracer.
    fn one_read(core: &mut ObsCore, id: u64, base: Cycle, source: ServiceSource) {
        core.issue(id, 0, 0x40 * id, ReqClass::DemandRead, base, base + 2);
        core.stamp(id, Point::LinkLaunch, base + 5);
        core.arrive(id, 3, base + 13);
        core.stamp(id, Point::ServiceStart, base + 20);
        core.stamp(id, Point::RespReady, base + 45);
        core.finish(id, source, base + 53);
    }

    #[test]
    fn spans_telescope_into_total() {
        let mut core = traced_core();
        one_read(&mut core, 1, 100, ServiceSource::RowBufferConflict);
        let (count, cycles) = core.traced_reads();
        assert_eq!(count, 1);
        assert_eq!(cycles, 53, "stage sums must telescope to issue→deliver");
        let b = core.breakdown();
        assert_eq!(b.demand_reads, 1);
        assert!((b.mean_total - 53.0).abs() < 1e-9);
        let stage_sum: f64 = b.stages.iter().map(|s| s.mean_cycles).sum();
        assert!((stage_sum - b.mean_total).abs() < 1e-9);
        assert_eq!(b.mean_of("bank_conflict"), 25.0);
    }

    #[test]
    fn cube_hop_splits_host_queue_and_still_telescopes() {
        let mut core = traced_core();
        core.issue(1, 0, 0x40, ReqClass::DemandRead, 100, 102);
        core.cube_arrive(1, 2, 110);
        core.stamp(1, Point::LinkLaunch, 115);
        core.arrive(1, 3, 123);
        core.stamp(1, Point::ServiceStart, 130);
        core.stamp(1, Point::RespReady, 155);
        core.finish(1, ServiceSource::RowBufferMiss, 163);
        let (count, cycles) = core.traced_reads();
        assert_eq!(count, 1);
        assert_eq!(cycles, 63, "cube_link edge must keep telescoping");
        let b = core.breakdown();
        assert_eq!(b.mean_of("cube_link"), 8.0);
        assert_eq!(b.mean_of("host_queue"), 5.0);
        let text = core.render_trace_json();
        assert!(text.contains("cube_link"));
        assert!(text.contains("\"cube\":2"));
    }

    #[test]
    fn trace_json_parses_and_ts_is_monotonic_per_track() {
        let mut core = traced_core();
        one_read(&mut core, 1, 100, ServiceSource::RowBufferMiss);
        one_read(&mut core, 2, 130, ServiceSource::PrefetchBuffer);
        core.fetch_span(3, 1, 42, 90, 160);
        core.mark("fault_drop_request", 140);

        let text = core.render_trace_json();
        let doc: Value = serde_json::from_str(&text).expect("trace JSON must parse");
        let Value::Map(entries) = &doc else {
            panic!("top level must be an object")
        };
        let Some(Value::Seq(events)) = lookup(entries, "traceEvents") else {
            panic!("traceEvents must be an array")
        };
        // Async begin/end pairs must be ts-monotonic within one id.
        let mut last_ts: HashMap<String, u64> = HashMap::new();
        let mut names = std::collections::HashSet::new();
        for ev in events {
            let Value::Map(e) = ev else {
                panic!("event must be an object")
            };
            let Some(Value::Str(ph)) = lookup(e, "ph") else {
                panic!("event must have ph")
            };
            if ph == "M" {
                continue;
            }
            let Some(Value::U64(ts)) = lookup(e, "ts") else {
                panic!("event must have integer ts")
            };
            if let Some(Value::Str(name)) = lookup(e, "name") {
                names.insert(name.clone());
            }
            if let Some(Value::Str(id)) = lookup(e, "id") {
                let prev = last_ts.entry(id.clone()).or_insert(0);
                assert!(*ts >= *prev, "ts must be monotonic within track {id}");
                *prev = *ts;
            }
        }
        for expected in [
            "cache_mshr",
            "host_queue",
            "req_link",
            "vault_queue",
            "bank_miss",
            "pfbuffer_hit",
            "resp_link",
            "row_fetch",
            "fault_drop_request",
        ] {
            assert!(names.contains(expected), "missing span type {expected}");
        }
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let mut core = ObsCore::new(&ObsConfig {
            trace_out: Some(std::path::PathBuf::from("unused.json")),
            trace_capacity: 8,
            ..ObsConfig::default()
        });
        for id in 0..10 {
            one_read(&mut core, id, 100 * id, ServiceSource::RowBufferHit);
        }
        let report = core.export_report();
        assert_eq!(report.records, 8);
        // 10 reads × 6 spans = 60 records offered, 8 retained.
        assert_eq!(report.dropped, 52);
        // The exported JSON must carry the same accounting as metadata.
        let text = core.render_trace_json();
        assert!(text.contains("\"name\":\"trace_ring\""));
        assert!(text.contains("\"records\":8,\"dropped\":52,\"capacity\":8"));
    }

    #[test]
    fn filter_keeps_marks() {
        let mut core = ObsCore::new(&ObsConfig {
            trace_out: Some(std::path::PathBuf::from("unused.json")),
            trace_filter: Some("bank".to_string()),
            ..ObsConfig::default()
        });
        one_read(&mut core, 1, 100, ServiceSource::RowBufferHit);
        core.mark("watchdog_trip", 500);
        let text = core.render_trace_json();
        assert!(text.contains("bank_hit"));
        assert!(!text.contains("host_queue"));
        assert!(text.contains("watchdog_trip"));
    }

    #[test]
    fn store_lifecycles_do_not_skew_histograms() {
        let mut core = traced_core();
        core.issue(9, 0, 0x1000, ReqClass::Store, 10, 12);
        core.stamp(9, Point::LinkLaunch, 14);
        core.arrive(9, 1, 20);
        core.stamp(9, Point::RespReady, 21);
        core.finish(9, ServiceSource::RowBufferMiss, 30);
        assert_eq!(core.traced_reads(), (0, 0));
        assert_eq!(core.breakdown().demand_reads, 0);
    }

    #[test]
    fn abort_forgets_the_request() {
        let mut core = traced_core();
        core.issue(5, 0, 0x80, ReqClass::DemandRead, 10, 12);
        core.abort(5);
        core.finish(5, ServiceSource::RowBufferHit, 99);
        assert_eq!(core.traced_reads(), (0, 0));
    }

    #[test]
    fn metrics_row_cap_drops_oldest() {
        let mut core = traced_core();
        for i in 0..4 {
            core.push_sample(MetricsSample {
                cycle: i,
                ..MetricsSample::default()
            });
        }
        assert_eq!(core.samples_len(), 4);
        let csv = core.render_metrics(MetricsFormat::Csv);
        assert!(csv.starts_with(&MetricsSample::csv_header()));
        assert_eq!(csv.lines().count(), 5);
    }
}
