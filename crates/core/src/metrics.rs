//! Per-run results and figure-level aggregation helpers.

use camps_cpu::core_model::CoreStats;
use camps_obs::{ProfileSummary, StageBreakdown};
use camps_prefetch::SchemeKind;
use camps_stats::summary::geomean;
use camps_stats::AmplificationReport;
use camps_types::clock::Cycle;
use camps_types::config::SystemConfig;
use camps_vault::VaultStats;
use serde::{Deserialize, Serialize};

/// Everything measured in one (mix, scheme) simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// The prefetching scheme that ran.
    pub scheme: SchemeKind,
    /// Workload id (Table II).
    pub mix_id: String,
    /// Per-core IPC at each core's own completion point.
    pub ipc: Vec<f64>,
    /// Benchmark name per core.
    pub core_names: Vec<String>,
    /// Per-core pipeline statistics.
    pub core_stats: Vec<CoreStats>,
    /// Merged vault statistics (conflicts, prefetches, energy events…).
    pub vaults: VaultStats,
    /// Mean demand-load latency including cache hits, CPU cycles.
    pub amat_all: f64,
    /// Mean main-memory read latency (L3 misses only), CPU cycles —
    /// the AMAT of Figure 8.
    pub amat_mem: f64,
    /// Detailed-simulation length in CPU cycles.
    pub cycles: Cycle,
    /// Total HMC energy (dynamic + background) in nanojoules.
    pub energy_nj: f64,
    /// Per-stage demand-read latency breakdown; present only when the
    /// run had observability installed (`None` otherwise, and absent
    /// from older serialized results).
    #[serde(default)]
    pub stage_latency: Option<StageBreakdown>,
    /// RowHammer activation-amplification summary (absent from results
    /// serialized before the adversarial workload layer existed).
    #[serde(default)]
    pub amplification: Option<AmplificationReport>,
    /// Host-side self-profile: per-component wall-clock attribution and
    /// wake/dispatch accounting. Present only when the run had profiling
    /// enabled; host wall time, so *not* deterministic across runs —
    /// clear it before byte-comparing results.
    #[serde(default)]
    pub profile: Option<ProfileSummary>,
}

impl RunResult {
    /// Prices the vault energy counters with the run's configuration.
    #[must_use]
    pub fn with_energy(mut self, cfg: &SystemConfig) -> Self {
        self.energy_nj =
            self.vaults
                .energy
                .total_nj(&cfg.energy, self.cycles, cfg.hmc.vaults, cfg.cpu.freq_hz);
        self
    }

    /// The paper's per-workload performance metric (§5.1): geometric mean
    /// of the eight cores' IPCs.
    #[must_use]
    pub fn geomean_ipc(&self) -> f64 {
        geomean(&self.ipc).unwrap_or(0.0)
    }

    /// Row-buffer conflict rate (Figure 6), 0 when no bank traffic.
    #[must_use]
    pub fn conflict_rate(&self) -> f64 {
        self.vaults.conflict_rate().unwrap_or(0.0)
    }

    /// Prefetch accuracy (Figure 7), 0 when nothing was prefetched.
    #[must_use]
    pub fn prefetch_accuracy(&self) -> f64 {
        self.vaults.prefetch_accuracy().unwrap_or(0.0)
    }
}

impl RunResult {
    /// A human-readable multi-line summary (examples, logs, quick looks).
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== {} under {} ==", self.mix_id, self.scheme);
        let _ = writeln!(out, "cycles           : {}", self.cycles);
        let _ = writeln!(out, "geomean IPC      : {:.3}", self.geomean_ipc());
        for (name, ipc) in self.core_names.iter().zip(&self.ipc) {
            let _ = writeln!(out, "  {name:>10}: IPC {ipc:.3}");
        }
        let _ = writeln!(
            out,
            "conflict rate    : {:.1}%",
            self.conflict_rate() * 100.0
        );
        let _ = writeln!(
            out,
            "prefetches       : {} ({:.1}% referenced)",
            self.vaults.prefetches,
            self.prefetch_accuracy() * 100.0
        );
        let _ = writeln!(out, "buffer hits      : {}", self.vaults.buffer_hits);
        let _ = writeln!(out, "memory AMAT      : {:.1} cycles", self.amat_mem);
        let _ = writeln!(out, "HMC energy       : {:.3} mJ", self.energy_nj / 1e6);
        out
    }
}

/// Normalized-speedup entry for one (mix, scheme) cell of Figure 5.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpeedupCell {
    /// Workload id.
    pub mix_id: String,
    /// Scheme.
    pub scheme: SchemeKind,
    /// `geomean_ipc(scheme) / geomean_ipc(BASE)` for the same mix.
    pub speedup: f64,
}

/// Builds Figure 5's table: per-mix speedups of every scheme normalized to
/// BASE on the same mix, plus the geometric-mean AVG row the paper quotes
/// (+17.9 % for CAMPS-MOD over BASE, +8.7 % over MMD).
///
/// `results` may hold any set of runs; mixes without a BASE run are
/// skipped.
#[must_use]
pub fn speedup_table(results: &[RunResult]) -> Vec<SpeedupCell> {
    let mut cells = Vec::new();
    let mixes: Vec<&str> = {
        let mut seen = Vec::new();
        for r in results {
            if !seen.contains(&r.mix_id.as_str()) {
                seen.push(r.mix_id.as_str());
            }
        }
        seen
    };
    for mix in mixes {
        let Some(base) = results
            .iter()
            .find(|r| r.mix_id == mix && r.scheme == SchemeKind::Base)
        else {
            continue;
        };
        let base_perf = base.geomean_ipc();
        if base_perf <= 0.0 {
            continue;
        }
        for r in results.iter().filter(|r| r.mix_id == mix) {
            cells.push(SpeedupCell {
                mix_id: mix.to_string(),
                scheme: r.scheme,
                speedup: r.geomean_ipc() / base_perf,
            });
        }
    }
    cells
}

/// Geometric mean of a scheme's speedups across mixes (the AVG bar of
/// Figure 5). `None` if the scheme has no cells.
#[must_use]
pub fn average_speedup(cells: &[SpeedupCell], scheme: SchemeKind) -> Option<f64> {
    let v: Vec<f64> = cells
        .iter()
        .filter(|c| c.scheme == scheme)
        .map(|c| c.speedup)
        .collect();
    geomean(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(mix: &str, scheme: SchemeKind, ipc: f64) -> RunResult {
        RunResult {
            scheme,
            mix_id: mix.to_string(),
            ipc: vec![ipc; 8],
            core_names: vec![String::new(); 8],
            core_stats: vec![CoreStats::default(); 8],
            vaults: VaultStats::new(),
            amat_all: 0.0,
            amat_mem: 0.0,
            cycles: 1,
            energy_nj: 0.0,
            stage_latency: None,
            amplification: None,
            profile: None,
        }
    }

    #[test]
    fn summary_mentions_the_key_numbers() {
        let mut r = result("HM1", SchemeKind::CampsMod, 1.5);
        r.core_names = vec!["lbm".into(); 8];
        let s = r.summary();
        assert!(s.contains("HM1"));
        assert!(s.contains("CAMPS-MOD"));
        assert!(s.contains("lbm"));
        assert!(s.contains("1.500"));
    }

    #[test]
    fn geomean_ipc_of_uniform_cores() {
        let r = result("HM1", SchemeKind::Base, 1.5);
        assert!((r.geomean_ipc() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn speedups_normalize_to_base() {
        let results = vec![
            result("HM1", SchemeKind::Base, 1.0),
            result("HM1", SchemeKind::CampsMod, 1.25),
            result("LM1", SchemeKind::Base, 2.0),
            result("LM1", SchemeKind::CampsMod, 2.2),
        ];
        let cells = speedup_table(&results);
        let get = |mix: &str, s: SchemeKind| {
            cells
                .iter()
                .find(|c| c.mix_id == mix && c.scheme == s)
                .map(|c| c.speedup)
                .unwrap()
        };
        assert!((get("HM1", SchemeKind::Base) - 1.0).abs() < 1e-12);
        assert!((get("HM1", SchemeKind::CampsMod) - 1.25).abs() < 1e-12);
        assert!((get("LM1", SchemeKind::CampsMod) - 1.1).abs() < 1e-12);
    }

    #[test]
    fn average_speedup_is_geomean_over_mixes() {
        let results = vec![
            result("HM1", SchemeKind::Base, 1.0),
            result("HM1", SchemeKind::CampsMod, 1.21),
            result("LM1", SchemeKind::Base, 1.0),
            result("LM1", SchemeKind::CampsMod, 1.0),
        ];
        let cells = speedup_table(&results);
        let avg = average_speedup(&cells, SchemeKind::CampsMod).unwrap();
        assert!((avg - 1.1).abs() < 1e-9); // gm(1.21, 1.0) = 1.1
    }

    #[test]
    fn mix_without_base_is_skipped() {
        let results = vec![result("MX1", SchemeKind::CampsMod, 1.5)];
        assert!(speedup_table(&results).is_empty());
        assert!(average_speedup(&[], SchemeKind::Base).is_none());
    }
}
