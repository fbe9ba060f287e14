//! The sampled metrics time-series.

use serde::value::Value;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Version stamped into every row. Bump when fields change meaning or
/// are removed; adding fields with `#[serde(default)]` is compatible.
pub const METRICS_SCHEMA_VERSION: u32 = 1;

/// Output encoding for the metrics series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// One JSON object per line.
    Jsonl,
    /// Header row + one comma-separated row per sample.
    Csv,
}

impl MetricsFormat {
    /// CSV for a `.csv` extension, JSONL otherwise.
    #[must_use]
    pub fn for_path(path: &Path) -> MetricsFormat {
        match path.extension().and_then(|e| e.to_str()) {
            Some(e) if e.eq_ignore_ascii_case("csv") => MetricsFormat::Csv,
            _ => MetricsFormat::Jsonl,
        }
    }
}

/// One row of the periodic metrics series. Counters are cumulative
/// since the start of the measured run (rates are first differences);
/// queue depths and occupancies are instantaneous gauges.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSample {
    /// Schema version ([`METRICS_SCHEMA_VERSION`]).
    pub schema: u32,
    /// Sample cycle.
    pub cycle: u64,
    /// Instructions retired across all cores.
    pub retired: u64,
    /// Responses delivered back to the host.
    pub responses: u64,
    /// Demand reads completed by the memory system.
    pub mem_reads: u64,
    /// Demand reads served by a prefetch buffer.
    pub buffer_served: u64,
    /// Host-side queue depth (gauge).
    pub host_queue: u64,
    /// MSHR entries in flight (gauge).
    pub mshr_in_flight: u64,
    /// Dirty blocks waiting in the host writeback queue (gauge).
    pub writeback_queue: u64,
    /// Requests across all vault read queues (gauge).
    pub vault_read_queue: u64,
    /// Requests across all vault write queues (gauge).
    pub vault_write_queue: u64,
    /// Rows resident across all prefetch buffers (gauge).
    pub buffer_rows: u64,
    /// Total prefetch-buffer capacity, rows.
    pub buffer_capacity: u64,
    /// Row-utilization-table entries live across vaults (gauge).
    pub rut_entries: u64,
    /// Conflict-table entries live across vaults (gauge).
    pub ct_entries: u64,
    /// Bank accesses that hit an open row.
    pub row_hits: u64,
    /// Bank accesses that activated an idle bank.
    pub row_misses: u64,
    /// Bank accesses that displaced another row (conflicts).
    pub row_conflicts: u64,
    /// Demand accesses served by the prefetch buffers.
    pub buffer_hits: u64,
    /// Whole rows prefetched.
    pub prefetches: u64,
    /// Prefetched rows referenced by at least one demand read before
    /// leaving the buffer (accuracy numerator; `pf_useful / prefetches`).
    #[serde(default)]
    pub pf_useful: u64,
    /// Prefetched rows evicted, invalidated, or drained without ever
    /// serving a demand read (wasted-fetch counter).
    #[serde(default)]
    pub pf_unused_evictions: u64,
    /// Mean demand-read memory latency so far (`amat_mem` accumulator).
    pub amat_mem_mean: f64,
    /// Demand reads with a complete traced lifecycle.
    pub traced_reads: u64,
    /// Total cycles across all stages of those reads (reconciles with
    /// `amat_mem_mean * traced_reads` on merge-free workloads).
    pub traced_cycles: u64,
    /// Scheduler iterations executed (event engine: per wake).
    pub wake_ticks: u64,
    /// Cycles the event engine skipped without ticking.
    pub cycles_skipped: u64,
    /// Host wall-clock nanoseconds the self-profiler has attributed so
    /// far (0 when profiling is off — a *host* clock, not sim time).
    #[serde(default)]
    pub host_profile_ns: u64,
    /// Event-engine wakes whose tick made no forward progress so far
    /// (0 when profiling is off or under the polling engine).
    #[serde(default)]
    pub spurious_wakes: u64,
    /// Worst per-row activation count inside any refresh window so far
    /// (max across vaults — the RowHammer exposure gauge).
    #[serde(default)]
    pub worst_row_window_acts: u64,
    /// TRR-style neighbor refreshes injected by the rowguard mitigation.
    #[serde(default)]
    pub rowguard_mitigations: u64,
    /// Cubes in the pool (1 on pre-topology machines).
    #[serde(default)]
    pub cubes: u64,
    /// Requests + responses currently crossing the inter-cube
    /// interconnect (gauge; 0 on single-cube machines).
    #[serde(default)]
    pub cube_link_inflight: u64,
    /// Per-cube host-queue depths (gauge; rendered as one `;`-joined
    /// CSV cell so the column count stays fixed across cube counts).
    #[serde(default)]
    pub cube_host_queue: Vec<u64>,
}

impl MetricsSample {
    /// The CSV header: the serialized field names, in declaration order.
    pub(crate) fn csv_header() -> String {
        csv_line(&Self::default(), |(name, _)| name.clone())
    }

    /// One CSV row, one cell per serialized field: integers as they
    /// are, floats with three decimals, a sequence as one `;`-joined
    /// cell so the column count stays fixed across cube counts.
    pub(crate) fn csv_row(&self) -> String {
        csv_line(self, |(_, value)| csv_cell(value))
    }
}

/// Joins one cell per field of `sample`'s serialized map with commas.
fn csv_line(sample: &MetricsSample, cell: impl Fn(&(String, Value)) -> String) -> String {
    let value = sample.to_value();
    let fields = value.as_map().unwrap_or_default();
    fields.iter().map(cell).collect::<Vec<_>>().join(",")
}

fn csv_cell(value: &Value) -> String {
    match value {
        Value::U64(x) => x.to_string(),
        Value::F64(x) => format!("{x:.3}"),
        Value::Seq(items) => items.iter().map(csv_cell).collect::<Vec<_>>().join(";"),
        other => unreachable!("MetricsSample has no {other:?} field"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_is_derived_from_the_serialized_fields() {
        let names: Vec<String> = MetricsSample::default()
            .to_value()
            .as_map()
            .unwrap()
            .iter()
            .map(|(name, _)| name.clone())
            .collect();
        let header = MetricsSample::csv_header();
        assert_eq!(header.split(',').collect::<Vec<_>>(), names);
        assert!(header.starts_with("schema,cycle,retired,"));
        assert!(header.ends_with(",cubes,cube_link_inflight,cube_host_queue"));

        let s = MetricsSample {
            cycle: 500,
            amat_mem_mean: 211.5,
            cubes: 3,
            cube_host_queue: vec![4, 0, 7],
            ..MetricsSample::default()
        };
        let row = s.csv_row();
        let cells: Vec<&str> = row.split(',').collect();
        assert_eq!(cells.len(), names.len());
        let cell = |name: &str| cells[names.iter().position(|n| n == name).unwrap()];
        assert_eq!(cell("cycle"), "500");
        assert_eq!(cell("amat_mem_mean"), "211.500");
        assert_eq!(cell("cube_host_queue"), "4;0;7");
    }

    #[test]
    fn jsonl_round_trip() {
        let s = MetricsSample {
            schema: METRICS_SCHEMA_VERSION,
            cycle: 4096,
            retired: 1000,
            amat_mem_mean: 211.5,
            traced_reads: 7,
            traced_cycles: 1480,
            ..MetricsSample::default()
        };
        let line = serde_json::to_string(&s).unwrap();
        let back: MetricsSample = serde_json::from_str(&line).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn format_by_extension() {
        assert_eq!(
            MetricsFormat::for_path(Path::new("out.csv")),
            MetricsFormat::Csv
        );
        assert_eq!(
            MetricsFormat::for_path(Path::new("out.CSV")),
            MetricsFormat::Csv
        );
        assert_eq!(
            MetricsFormat::for_path(Path::new("out.jsonl")),
            MetricsFormat::Jsonl
        );
        assert_eq!(
            MetricsFormat::for_path(Path::new("metrics")),
            MetricsFormat::Jsonl
        );
    }
}
