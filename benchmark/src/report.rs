//! Metric names and units, the statistics over repetitions, the result
//! digest, and the report: a table for people, then one JSON line.

use camps::metrics::RunResult;
use serde::value::Value;

/// End-to-end metrics (`--trace 0`), as named in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), as named in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("core.mem_idle_tick_ns", "ns"),
    ("core.mem_idle_floor_share", "fraction"),
    ("core.steps", "count"),
    ("core.cycles_per_step", "cycles"),
    ("core.spurious_wake_ratio", "fraction"),
    ("core.backoff_engagements", "count"),
    ("core.wake_scan_share", "fraction"),
    ("core.step_ns_p50", "ns"),
    ("core.step_ns_p99", "ns"),
    ("core.step_ns_p999", "ns"),
    ("core.step_timing_overhead", "x"),
    ("core.self_share", "fraction"),
    ("cpu.self_share", "fraction"),
    ("cache.self_share", "fraction"),
    ("link.self_share", "fraction"),
    ("link.cube_fabric_share", "fraction"),
    ("vault.self_share", "fraction"),
    ("vault.issue_scan_share", "fraction"),
    ("vault.refresh_scan_share", "fraction"),
    ("vault.resp_pop_share", "fraction"),
    ("vault.wb_engine_share", "fraction"),
    ("dram.self_share", "fraction"),
    ("prefetch.self_share", "fraction"),
    ("prefetch.buffer_serve_share", "fraction"),
    ("obs.attributed_ratio", "fraction"),
    ("obs.profile_overhead", "x"),
    ("core.system_new_ms", "ms"),
    ("cache.warmup_ns_per_instr", "ns/instr"),
    ("workloads.trace_build_ms", "ms"),
    ("workloads.ns_per_op", "ns/op"),
    ("core.sweep_job_wall_p50_s", "s"),
    ("core.sweep_job_wall_p80_s", "s"),
    ("core.sweep_thread_util", "fraction"),
    ("core.sim_cycles", "cycles"),
    ("cpu.ipc_geomean", "instr/cycle"),
    ("cpu.load_stall_frac", "fraction"),
    ("cpu.rejections", "count"),
    ("vault.row_hit_rate", "fraction"),
    ("vault.row_conflict_rate", "fraction"),
    ("vault.queue_rejects", "count"),
    ("vault.amat_mem_cycles", "cycles"),
    ("dram.activations_demand", "count"),
    ("dram.activations_prefetch", "count"),
    ("dram.activations_writeback", "count"),
    ("dram.worst_row_window_acts", "count"),
    ("prefetch.issued", "count"),
    ("prefetch.accuracy", "fraction"),
    ("prefetch.buffer_hit_frac", "fraction"),
    ("bench.host_ref_ms", "ms"),
];

/// Runs attempted and runs that failed (a simulator error, or a digest
/// that differs from the workload's first run).
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one attempt; a failure is reported on stderr.
    pub fn record<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        outcome
            .inspect_err(|e| {
                self.failed += 1;
                eprintln!("benchmark: run failed: {e}");
            })
            .ok()
    }
}

/// The digests every run of one workload must share.
#[derive(Debug, Default)]
pub struct DigestCheck {
    first: Option<u64>,
}

impl DigestCheck {
    /// Counts `digest` as a failed run when it differs from the first.
    pub fn check(&mut self, tally: &mut Tally, what: &str, digest: u64) {
        let first = *self.first.get_or_insert(digest);
        if digest != first {
            tally.failed += 1;
            eprintln!("benchmark: {what}: digest {digest:016x} differs from {first:016x}");
        }
    }

    pub fn value(&self) -> Option<u64> {
        self.first
    }
}

/// FNV-1a over the serialized result, with the host-time profile and the
/// stage histograms (present only on observed runs) cleared. Equal
/// digests mean equal simulated statistics.
pub fn digest(result: &RunResult) -> u64 {
    let mut r = result.clone();
    r.profile = None;
    r.stage_latency = None;
    let text = serde_json::to_string(&r).expect("a RunResult always serializes");
    fnv1a(text.as_bytes(), FNV_OFFSET)
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

pub fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` of `values` (0 for none).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One measured metric and the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// Everything one invocation measured.
pub struct Report {
    pub workload: &'static str,
    pub tally: Tally,
    /// The workload's result digest, when any run completed.
    pub digest: Option<u64>,
    /// Whether the polling engine (the reference) reproduced the result.
    pub reference_ok: bool,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// No run failed, the reference matched, and every metric of `table`
    /// was measured as a finite number.
    pub fn correct(&self, table: &[(&'static str, &'static str)]) -> bool {
        self.tally.failed == 0
            && self.reference_ok
            && self.digest.is_some()
            && table.iter().all(|&(name, _)| {
                self.metrics
                    .iter()
                    .any(|m| m.name == name && m.value.is_finite())
            })
    }

    /// The table for people, one metric a line in `table` order.
    pub fn render_table(&self, table: &[(&'static str, &'static str)]) -> String {
        let mut out = format!(
            "workload {}: {} runs, {} failed, digest {}, polling reference {}\n",
            self.workload,
            self.tally.attempted,
            self.tally.failed,
            self.digest.map_or("none".into(), |d| format!("{d:016x}")),
            if self.reference_ok {
                "matches"
            } else {
                "FAILED"
            },
        );
        for &(name, unit) in table {
            if let Some(m) = self.metrics.iter().find(|m| m.name == name) {
                out.push_str(&format!(
                    "  {name:<30} {:>16.6} {unit:<12} n={}\n",
                    m.value, m.samples
                ));
            }
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed`, and every
    /// metric of `table` with its unit.
    pub fn render_json(&self, table: &[(&'static str, &'static str)]) -> String {
        let metrics = table
            .iter()
            .filter_map(|&(name, unit)| {
                let m = self.metrics.iter().find(|m| m.name == name)?;
                Some((
                    name.to_string(),
                    Value::Map(vec![
                        ("value".into(), Value::F64(m.value)),
                        ("unit".into(), Value::Str(unit.into())),
                    ]),
                ))
            })
            .collect();
        let line = Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct(table))),
            ("attempted".into(), Value::U64(self.tally.attempted)),
            ("failed".into(), Value::U64(self.tally.failed)),
            ("metrics".into(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).expect("a Value always serializes")
    }
}
