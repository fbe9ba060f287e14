//! The paper's Figures 5–9, our ablations and the adversarial and
//! multi-cube studies, as one table of data.
//!
//! `EXPERIMENTS` is the registry. Each figure names its columns, its
//! per-cell value, how its AVG row folds a column, and the paper's numbers
//! it is compared against; each ablation names its configuration
//! variants; each study names its workloads, seed, run length and
//! configuration passes, and checks its results before it writes its
//! `BENCH_<name>.json` report. One table builder, one claim formatter,
//! one ablation printer and one study runner serve them all; the
//! `experiments` bench target only passes the names to [`run`]:
//!
//! ```text
//! cargo bench -p camps-bench --bench experiments [-- NAME…]
//! ```

use crate::driver::{bench_length, journaled_matrix, workspace_root, write_csv, FIGURE_SEED};
use crate::table::{bar_chart, TableWriter};
use camps::experiment::{RunLength, Workload};
use camps::metrics::RunResult;
use camps_prefetch::SchemeKind;
use camps_stats::{geomean, mean};
use camps_types::addr::MappingScheme;
use camps_types::config::{PagePolicy, SchedulerKind, SystemConfig};
use camps_workloads::{AttackKind, ALL_MIXES};
use serde::Serialize;
use std::fmt::Display;

use SchemeKind::{Base, BaseHit, Camps, CampsMod, Mmd, Nopf};

/// One table, ablation or study, selectable by name.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Experiment {
    Figure(Figure),
    Ablation(Ablation),
    Study(Study),
}

impl Experiment {
    /// The selection name: the CSV stem under `target/experiments/`, or
    /// the `<name>` of a study's `BENCH_<name>.json`.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Self::Figure(f) => f.name,
            Self::Ablation(a) => a.name,
            Self::Study(s) => s.name,
        }
    }
}

/// How a figure computes one cell from a (mix, scheme) run.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Value {
    /// A metric of the run alone.
    Run(fn(&RunResult) -> f64),
    /// A metric of the run against the same mix's BASE run.
    VsBase(fn(&RunResult, &RunResult) -> f64),
}

/// How the AVG row folds a column.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Avg {
    /// Geometric mean, each value floored at 1e-9 so a zero cell (a
    /// conflict-free mix) does not void the row.
    Geomean,
    Mean,
}

/// What a claim compares a scheme's AVG against.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Form {
    /// `(avg / versus − 1) · 100`, printed as a signed percentage.
    Ratio(SchemeKind),
    /// `avg − versus`, printed as signed points.
    Points(SchemeKind),
    /// The AVG itself, signed when the paper's value is.
    Absolute,
}

/// One of the paper's numbers, checked against a figure's AVG row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Claim {
    /// Text before the colon, padded to align the figure's claims.
    label: &'static str,
    scheme: SchemeKind,
    form: Form,
    /// Text between the measured number and `(paper: …)`: the unit and
    /// its spacing.
    unit: &'static str,
    /// The paper's value, as the paper states it.
    paper: &'static str,
}

const fn claim(
    label: &'static str,
    scheme: SchemeKind,
    form: Form,
    unit: &'static str,
    paper: &'static str,
) -> Claim {
    Claim {
        label,
        scheme,
        form,
        unit,
        paper,
    }
}

/// One of the paper's per-mix × scheme figures.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Figure {
    name: &'static str,
    /// Printed above the table.
    title: &'static str,
    /// The table's columns.
    schemes: &'static [SchemeKind],
    /// Decimal places of the printed table.
    precision: usize,
    value: Value,
    avg: Avg,
    /// Echo the AVG row as a bar chart with this unit.
    bars: Option<&'static str>,
    claims: &'static [Claim],
    /// A long-form CSV, one row per cell, in place of the table's.
    long_csv: Option<(&'static str, CellRow)>,
}

/// Renders one figure cell as a CSV row.
type CellRow = fn(&Cell<'_>) -> String;

/// A configuration run under one scheme, labelled for its table row.
type Variant = (String, SystemConfig, SchemeKind);

/// The mixes ablations run on, one per intensity class (HM1, LM1, MX1),
/// to keep sweeps affordable while covering the spectrum.
const ABLATION_MIXES: [Workload; 3] = [
    Workload::Mix(ALL_MIXES[0]),
    Workload::Mix(ALL_MIXES[4]),
    Workload::Mix(ALL_MIXES[8]),
];

/// A sweep of configuration variants over [`ABLATION_MIXES`], reported
/// as geomean IPC.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ablation {
    name: &'static str,
    /// Printed after `Ablation: `.
    title: &'static str,
    /// Builds the variants, in row order.
    variants: fn() -> Vec<Variant>,
}

/// A study with its own workloads, seed and run length: one journaled
/// matrix per configuration pass, each under every scheme, checked and
/// written to `BENCH_<name>.json` at the workspace root. The study's
/// run length is its own; `CAMPS_BENCH_SCALE` does not change it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Study {
    name: &'static str,
    seed: u64,
    len: RunLength,
    passes: &'static [Pass],
    /// Checks each pass's results and builds the report; `Err` names
    /// the check that failed.
    report: fn(&[PassResults]) -> Result<serde::value::Value, String>,
}

/// One configuration pass of a study: its label in the journal log, its
/// edit to the Table I machine, and the workloads it runs.
type Pass = (&'static str, fn(&mut SystemConfig), &'static [Workload]);

/// A pass's machine and its results, workload-major.
type PassResults = (SystemConfig, Vec<RunResult>);

/// One figure cell.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cell<'a> {
    mix: &'static str,
    scheme: SchemeKind,
    value: f64,
    run: &'a RunResult,
    /// The same mix's BASE run, if there is one.
    base: Option<&'a RunResult>,
}

/// A figure evaluated over a result matrix.
#[derive(Debug)]
pub(crate) struct FigureTable<'a> {
    /// Every present cell, mix-major in Table II order.
    cells: Vec<Cell<'a>>,
    /// The AVG row, one entry per column.
    avg: Vec<Option<f64>>,
    /// The printable table, AVG row included.
    table: TableWriter,
}

impl Figure {
    /// Builds the per-mix × scheme table over `results`. A cell is absent
    /// when its run, or the BASE run a [`Value::VsBase`] needs, is.
    fn tabulate<'a>(&self, results: &'a [RunResult]) -> FigureTable<'a> {
        let find =
            |mix: &str, s: SchemeKind| results.iter().find(|r| r.mix_id == mix && r.scheme == s);
        let headers: Vec<&str> = self.schemes.iter().map(|s| s.name()).collect();
        let mut table = TableWriter::new(&headers, self.precision);
        let mut cells = Vec::new();
        for mix in &ALL_MIXES {
            let base = find(mix.id, Base);
            let row = self
                .schemes
                .iter()
                .map(|&scheme| {
                    let run = find(mix.id, scheme)?;
                    let value = match self.value {
                        Value::Run(f) => f(run),
                        Value::VsBase(f) => f(run, base?),
                    };
                    cells.push(Cell {
                        mix: mix.id,
                        scheme,
                        value,
                        run,
                        base,
                    });
                    Some(value)
                })
                .collect();
            table.row(mix.id, row);
        }
        let avg: Vec<Option<f64>> = self
            .schemes
            .iter()
            .map(|&s| {
                let column = cells.iter().filter(|c| c.scheme == s).map(|c| c.value);
                match self.avg {
                    Avg::Geomean => geomean(&column.map(|v| v.max(1e-9)).collect::<Vec<_>>()),
                    Avg::Mean => mean(&column.collect::<Vec<_>>()),
                }
            })
            .collect();
        table.row("AVG", avg.clone());
        FigureTable { cells, avg, table }
    }

    /// The printed comparison line of `claim`, given the AVG row.
    ///
    /// # Panics
    /// Panics if the claim names a scheme that is not a column.
    fn claim_line(&self, claim: &Claim, avg: &[Option<f64>]) -> String {
        let of = |s: SchemeKind| {
            let i = self.schemes.iter().position(|&c| c == s);
            avg[i.unwrap_or_else(|| panic!("{}: {s} is not a column", self.name))]
        };
        let measured = match claim.form {
            Form::Ratio(vs) => of(claim.scheme)
                .zip(of(vs))
                .map(|(a, b)| format!("{:+.1}", (a / b - 1.0) * 100.0)),
            Form::Points(vs) => of(claim.scheme)
                .zip(of(vs))
                .map(|(a, b)| format!("{:+.1}", a - b)),
            Form::Absolute if claim.paper.starts_with(['+', '-']) => {
                of(claim.scheme).map(|a| format!("{a:+.1}"))
            }
            Form::Absolute => of(claim.scheme).map(|a| format!("{a:.1}")),
        };
        match measured {
            Some(m) => format!("{}: {m}{}(paper: {})", claim.label, claim.unit, claim.paper),
            None => format!("{}: n/a (paper: {})", claim.label, claim.paper),
        }
    }

    /// Prints the table, the bar chart and the claims, and writes the CSV.
    fn report(&self, results: &[RunResult]) {
        let FigureTable { cells, avg, table } = self.tabulate(results);
        println!("{}\n", self.title);
        println!("{}", table.render());
        if let Some(unit) = self.bars {
            let bars: Vec<(String, f64)> = self
                .schemes
                .iter()
                .zip(&avg)
                .filter_map(|(s, v)| v.map(|v| (s.name().to_string(), v)))
                .collect();
            println!("{}", bar_chart(&bars, 40, unit));
        }
        for claim in self.claims {
            println!("{}", self.claim_line(claim, &avg));
        }
        match self.long_csv {
            Some((header, row)) => {
                let rows: Vec<String> = cells.iter().map(row).collect();
                write_csv(self.name, header, &rows)
            }
            None => write_csv(self.name, &table.csv_header(), &table.csv_rows()),
        };
    }
}

impl Ablation {
    /// Runs each variant over [`ABLATION_MIXES`] at `len`, prints the
    /// geomean-IPC table and writes the CSV. Each variant is one matrix
    /// on the shared journal, whose key includes the config hash, so
    /// variants never share cells and an interrupted ablation resumes at
    /// the first cell it had not journaled.
    fn report(&self, len: &RunLength) -> Result<(), String> {
        let mut rows = Vec::new();
        for (label, cfg, scheme) in (self.variants)() {
            let results =
                journaled_matrix(&cfg, &ABLATION_MIXES, &[scheme], len, FIGURE_SEED, &label)?;
            let ipcs: Vec<f64> = results.iter().map(RunResult::geomean_ipc).collect();
            rows.push((label, ipcs));
        }
        let w = rows.iter().map(|(label, _)| label.len()).max().unwrap_or(0);
        println!("Ablation: {}\n", self.title);
        let mixes = ABLATION_MIXES.map(|w| w.id());
        let mut header = format!("{:>w$}", "");
        for mix in mixes {
            header.push_str(&format!("  {mix:>8}"));
        }
        println!("{header}");
        let mut csv = Vec::new();
        for (label, ipcs) in &rows {
            let mut line = format!("{label:>w$}");
            let mut row = label.clone();
            for ipc in ipcs {
                line.push_str(&format!("  {ipc:>8.3}"));
                row.push_str(&format!(",{ipc}"));
            }
            println!("{line}");
            csv.push(row);
        }
        write_csv(self.name, &format!("variant,{}", mixes.join(",")), &csv);
        Ok(())
    }
}

impl Study {
    /// Runs every pass, then checks the results and writes the report.
    fn report(&self) -> Result<(), String> {
        let mut done = Vec::new();
        for (label, edit, workloads) in self.passes {
            let mut cfg = SystemConfig::paper_default();
            edit(&mut cfg);
            let label = format!("{} / {label}", self.name);
            let all = &SchemeKind::ALL;
            let results = journaled_matrix(&cfg, workloads, all, &self.len, self.seed, &label)?;
            done.push((cfg, results));
        }
        let report = (self.report)(&done).map_err(|e| format!("{}: {e}", self.name))?;
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())? + "\n";
        print!("{json}");
        let path = workspace_root().join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// `x` as printed to 4 decimals, the precision of the study reports.
fn round4(x: f64) -> f64 {
    format!("{x:.4}").parse().unwrap_or(x)
}

/// The attack runs' fixed horizon, about ten refresh windows at the
/// paper's tREFI. Attack streams starve the cores, so the cycle cap ends
/// each run; amplification is a ratio of activation counts over it.
const ATTACK_LEN: RunLength = RunLength {
    warmup_instructions: 2_000,
    instructions: u64::MAX,
    max_cycles: 250_000,
};

/// Every attack, the double-sided hammer (the ranked stream) first.
const ATTACKS: [Workload; 4] = [
    Workload::Attack(AttackKind::HammerDouble),
    Workload::Attack(AttackKind::HammerSingle),
    Workload::Attack(AttackKind::ConflictThrash),
    Workload::Attack(AttackKind::BufferPollution),
];

/// One high- and one low-intensity mix: enough to expose the cube
/// fabric's effect on both traffic classes while keeping the multi-cube
/// matrix affordable in CI.
const HM1_LM1: [Workload; 2] = [Workload::Mix(ALL_MIXES[0]), Workload::Mix(ALL_MIXES[4])];

/// `BENCH_adversarial.json`.
#[derive(Serialize)]
struct AdversarialReport {
    benchmark: &'static str,
    horizon_cycles: u64,
    entries: Vec<AttackEntry>,
    /// Amplification on the double-sided stream, highest first.
    hammer_ranking: Vec<Ranked>,
    mitigation: Vec<Mitigated>,
}

#[derive(Serialize)]
struct AttackEntry {
    attack: String,
    scheme: &'static str,
    hammer_amplification: f64,
    worst_row_window_acts: u64,
    demand_activations: u64,
    prefetch_activations: u64,
    writeback_activations: u64,
    refreshes: u64,
    geomean_ipc: f64,
    cycles: u64,
}

#[derive(Serialize)]
struct Ranked {
    scheme: &'static str,
    hammer_amplification: f64,
}

/// `completed`: the run reached the horizon without tripping the
/// watchdog.
#[derive(Serialize)]
struct Mitigated {
    scheme: &'static str,
    mitigations: u64,
    worst_row_window_acts: u64,
    cycles: u64,
    completed: bool,
}

/// Ranks the schemes by worst-case RowHammer amplification: a
/// prefetcher that echoes aggressor activations hands the attacker extra
/// hammers for free (ρHammer, PAPERS.md). Fails unless every
/// amplification report is well-formed, CAMPS amplifies the
/// double-sided stream beyond NOPF, and the mitigation fires under every
/// scheme, never while it is off.
fn adversarial_report(passes: &[PassResults]) -> Result<serde::value::Value, String> {
    let [(_, attacks), (_, mitigated)] = passes else {
        return Err(format!("expected 2 passes, got {}", passes.len()));
    };
    let mut entries = Vec::new();
    let mut ranking = Vec::new();
    for r in attacks {
        let what = format!("{} under {}", r.mix_id, r.scheme);
        let a = r
            .amplification
            .as_ref()
            .ok_or(format!("{what}: no amplification report"))?;
        let ratio = a.total_activations() as f64 / a.demand_activations.max(1) as f64;
        if a.demand_activations == 0
            || (a.hammer_amplification - ratio).abs() > 1e-9
            || a.worst_row_window_acts == 0
            || a.mitigations != 0
        {
            return Err(format!("malformed report for {what}: {a:?}"));
        }
        if r.mix_id == AttackKind::HammerDouble.as_str() {
            ranking.push((r.scheme, a.hammer_amplification));
        }
        entries.push(AttackEntry {
            attack: r.mix_id.clone(),
            scheme: r.scheme.name(),
            hammer_amplification: round4(a.hammer_amplification),
            worst_row_window_acts: a.worst_row_window_acts,
            demand_activations: a.demand_activations,
            prefetch_activations: a.prefetch_activations,
            writeback_activations: a.writeback_activations,
            refreshes: a.refreshes,
            geomean_ipc: round4(r.geomean_ipc()),
            cycles: r.cycles,
        });
    }
    ranking.sort_by(|a, b| b.1.total_cmp(&a.1));
    let amp_of = |s| ranking.iter().find(|r| r.0 == s).map_or(f64::NAN, |r| r.1);
    let (camps, nopf) = (amp_of(Camps), amp_of(Nopf));
    // A missing scheme reads NaN, which fails the comparison too.
    if camps.partial_cmp(&nopf) != Some(std::cmp::Ordering::Greater) {
        return Err(format!(
            "CAMPS must amplify hammer-double beyond NOPF (CAMPS {camps:.4}, NOPF {nopf:.4})"
        ));
    }
    let mitigation = mitigated.iter().map(|r| match r.vaults.mitigations.get() {
        0 => Err(format!("mitigation never fired under {}", r.scheme)),
        mitigations => Ok(Mitigated {
            scheme: r.scheme.name(),
            mitigations,
            worst_row_window_acts: r.vaults.worst_row_window_acts,
            cycles: r.cycles,
            completed: true,
        }),
    });
    Ok(AdversarialReport {
        benchmark: "adversarial",
        horizon_cycles: ATTACK_LEN.max_cycles,
        entries,
        hammer_ranking: ranking
            .into_iter()
            .map(|(s, amp)| Ranked {
                scheme: s.name(),
                hammer_amplification: round4(amp),
            })
            .collect(),
        mitigation: mitigation.collect::<Result<_, _>>()?,
    }
    .to_value())
}

/// `BENCH_multicube.json`: per pool, each scheme's geomean IPC across
/// the mixes and its speedup over the same pool's NOPF, which isolates
/// the prefetcher's contribution from the fabric's added latency.
#[derive(Serialize)]
struct MulticubeReport {
    benchmark: &'static str,
    pools: Vec<Pool>,
}

#[derive(Serialize)]
struct Pool {
    cubes: u32,
    topology: &'static str,
    schemes: Vec<PoolScheme>,
}

#[derive(Serialize)]
struct PoolScheme {
    scheme: &'static str,
    geomean_ipc: f64,
    speedup_vs_nopf: f64,
}

/// How each scheme's speedup decays as requests pick up inter-cube hops.
fn multicube_report(passes: &[PassResults]) -> Result<serde::value::Value, String> {
    let mut pools = Vec::new();
    for (cfg, results) in passes {
        let cubes = cfg.topology.cubes;
        let ipc = |scheme| {
            let runs = results.iter().filter(|r| r.scheme == scheme);
            let ipcs: Vec<f64> = runs.map(RunResult::geomean_ipc).collect();
            geomean(&ipcs).ok_or(format!("{cubes} cube(s): no positive IPC under {scheme}"))
        };
        let nopf = ipc(Nopf)?;
        let mut schemes = Vec::new();
        for scheme in SchemeKind::ALL {
            let ipc = ipc(scheme)?;
            schemes.push(PoolScheme {
                scheme: scheme.name(),
                geomean_ipc: round4(ipc),
                speedup_vs_nopf: round4(ipc / nopf),
            });
        }
        pools.push(Pool {
            cubes,
            topology: cfg.topology.kind.name(),
            schemes,
        });
    }
    Ok(MulticubeReport {
        benchmark: "multicube-scaling",
        pools,
    }
    .to_value())
}

/// Memory stall cycles per load: the effective AMAT the pipeline sees.
///
/// With a deep out-of-order core the *mean* completed-read latency
/// undersells an oversubscribed prefetcher: BASE serves most reads from
/// its buffer at 22 cycles while its wasted row transfers destroy
/// throughput, which the core experiences as ROB-head stall time. Fig. 8
/// therefore reports the latency the pipeline pays per load, and keeps
/// the raw mean read latency in its CSV.
fn effective_amat(r: &RunResult) -> f64 {
    let stalls: u64 = r.core_stats.iter().map(|s| s.load_stall_cycles.get()).sum();
    let loads: u64 = r.core_stats.iter().map(|s| s.loads.get()).sum();
    stalls as f64 / loads.max(1) as f64
}

/// Table I with one edit per level, each level run under each of
/// `schemes`. With one scheme a row is labelled by its level alone,
/// otherwise `<level> / <scheme>`.
fn levels<L: Display, T: Copy>(
    levels: impl IntoIterator<Item = (L, T)>,
    schemes: &[SchemeKind],
    edit: fn(&mut SystemConfig, T),
) -> Vec<Variant> {
    let mut out = Vec::new();
    for (name, level) in levels {
        for &scheme in schemes {
            let mut cfg = SystemConfig::paper_default();
            edit(&mut cfg, level);
            let label = match schemes {
                [_] => name.to_string(),
                _ => format!("{name} / {}", scheme.name()),
            };
            out.push((label, cfg, scheme));
        }
    }
    out
}

use Form::{Absolute, Points, Ratio};

/// Every experiment, in the order a run with no names regenerates them.
#[rustfmt::skip] // one claim per line, as a table
pub(crate) const EXPERIMENTS: [Experiment; 18] = [
    // Paper: CAMPS-MOD outperforms BASE by 17.9 %, BASE-HIT by 16.8 % and
    // MMD by 8.7 % on average; HM mixes gain most.
    Experiment::Figure(Figure {
        name: "fig5_speedup",
        title: "Figure 5: normalized speedup over BASE (higher is better)",
        schemes: &SchemeKind::PAPER,
        precision: 3,
        value: Value::VsBase(|r, base| r.geomean_ipc() / base.geomean_ipc()),
        avg: Avg::Geomean,
        bars: Some("×"),
        claims: &[
            claim("CAMPS-MOD vs BASE    ", CampsMod, Ratio(Base), "%  ", "+17.9%"),
            claim("CAMPS-MOD vs BASE-HIT", CampsMod, Ratio(BaseHit), "%  ", "+16.8%"),
            claim("CAMPS-MOD vs MMD     ", CampsMod, Ratio(Mmd), "%  ", "+8.7%"),
        ],
        long_csv: None,
    }),
    // BASE is excluded, as in the paper: it precharges after copying
    // every opened row, so it has no row-buffer conflicts by construction.
    Experiment::Figure(Figure {
        name: "fig6_conflicts",
        title: "Figure 6: row-buffer conflict rate, % of bank accesses (lower is better)\n\
                (BASE omitted: it precharges after every row copy — zero conflicts)",
        schemes: &[BaseHit, Mmd, Camps, CampsMod],
        precision: 2,
        value: Value::Run(|r| r.conflict_rate() * 100.0),
        avg: Avg::Geomean,
        bars: None,
        claims: &[
            claim("CAMPS-MOD vs BASE-HIT", CampsMod, Ratio(BaseHit), "% conflicts ", "-16.3%"),
            claim("CAMPS-MOD vs MMD     ", CampsMod, Ratio(Mmd), "% conflicts ", "-13.6%"),
        ],
        long_csv: None,
    }),
    // Plain CAMPS landing slightly below MMD is what motivated the §3.2
    // buffer management.
    Experiment::Figure(Figure {
        name: "fig7_accuracy",
        title: "Figure 7: prefetching accuracy, % of prefetched rows referenced",
        schemes: &SchemeKind::PAPER,
        precision: 1,
        value: Value::Run(|r| r.prefetch_accuracy() * 100.0),
        avg: Avg::Mean,
        bars: None,
        claims: &[
            claim("CAMPS-MOD average    ", CampsMod, Absolute, "%  ", "70.5%"),
            claim("  vs BASE            ", CampsMod, Points(Base), " points ", "+33.3"),
            claim("  vs BASE-HIT        ", CampsMod, Points(BaseHit), " points ", "+28.4"),
            claim("  vs MMD             ", CampsMod, Points(Mmd), " points ", "+4.1"),
            claim("  CAMPS vs MMD       ", Camps, Points(Mmd), " points ", "-1.5"),
        ],
        long_csv: None,
    }),
    // The metric is `effective_amat`, not the mean read latency.
    Experiment::Figure(Figure {
        name: "fig8_amat",
        title: "Figure 8: effective AMAT reduction vs BASE, % (higher is better)\n\
                (memory stall cycles per load; see EXPERIMENTS.md for the metric)",
        schemes: &[Mmd, CampsMod],
        precision: 1,
        value: Value::VsBase(|r, base| (1.0 - effective_amat(r) / effective_amat(base)) * 100.0),
        avg: Avg::Mean,
        bars: None,
        claims: &[
            claim("CAMPS-MOD vs BASE", CampsMod, Absolute, "%  ", "+26%"),
            claim("CAMPS-MOD vs MMD ", CampsMod, Points(Mmd), " points  ", "+16.3"),
        ],
        long_csv: Some((
            "mix,scheme,effective_amat_reduction_pct,mean_read_latency,base_mean_read_latency",
            |c| {
                let base = c.base.expect("a BASE-relative cell has a BASE run");
                format!(
                    "{},{},{:.3},{:.3},{:.3}",
                    c.mix,
                    c.scheme.name(),
                    c.value,
                    c.run.amat_mem,
                    base.amat_mem
                )
            },
        )),
    }),
    // Paper: "mainly due to fewer activation and precharge operations"
    // (and, in BASE's case, the wasted whole-row transfers).
    Experiment::Figure(Figure {
        name: "fig9_energy",
        title: "Figure 9: HMC energy normalized to BASE (lower is better)",
        schemes: &[Base, Mmd, CampsMod],
        precision: 3,
        value: Value::VsBase(|r, base| r.energy_nj / base.energy_nj),
        avg: Avg::Geomean,
        bars: None,
        claims: &[
            claim("MMD vs BASE      ", Mmd, Ratio(Base), "%  ", "-6.0%"),
            claim("CAMPS-MOD vs BASE", CampsMod, Ratio(Base), "%  ", "-8.5%"),
        ],
        long_csv: None,
    }),
    // §3.1 uses 4: the break-even point where a whole-row transfer costs
    // the vault's TSV bus as much as the blocks already served.
    Experiment::Ablation(Ablation {
        name: "ablate_threshold",
        title: "RUT utilization threshold (CAMPS-MOD geomean IPC)",
        variants: || {
            levels(
                [1u32, 2, 3, 4, 6, 8].map(|t| (format!("threshold={t}"), t)),
                &[CampsMod],
                |c, t| c.prefetch.rut_threshold = t,
            )
        },
    }),
    // §3.1 uses 32: too small and conflict-prone rows age out before they
    // return; too large only costs area (20 bits per entry).
    Experiment::Ablation(Ablation {
        name: "ablate_ct_size",
        title: "Conflict Table entries per vault (CAMPS-MOD geomean IPC)",
        variants: || {
            levels(
                [8u32, 16, 32, 64, 128].map(|n| (format!("ct={n}"), n)),
                &[CampsMod],
                |c, n| c.prefetch.ct_entries = n,
            )
        },
    }),
    // Table I uses 16 KB = 16 rows per vault.
    Experiment::Ablation(Ablation {
        name: "ablate_buffer_size",
        title: "prefetch-buffer rows per vault (CAMPS-MOD geomean IPC)",
        variants: || {
            levels(
                [4u32, 8, 16, 32, 64].map(|n| (format!("{n} KB ({n} rows)"), n)),
                &[CampsMod],
                |c, n| c.prefetch.entries = n,
            )
        },
    }),
    // LRU (CAMPS) against the §3.2 utilization + recency policy
    // (CAMPS-MOD): how much of CAMPS-MOD's gain is buffer management.
    Experiment::Ablation(Ablation {
        name: "ablate_replacement",
        title: "buffer replacement policy (geomean IPC)",
        variants: || {
            let mut out = Vec::new();
            for entries in [8u32, 16, 32] {
                for (name, scheme) in [("LRU", Camps), ("util+recency", CampsMod)] {
                    let label = format!("{entries} rows / {name}");
                    out.extend(levels([(label, entries)], &[scheme], |c, n| {
                        c.prefetch.entries = n;
                    }));
                }
            }
            out
        },
    }),
    Experiment::Ablation(Ablation {
        name: "ablate_scheduler",
        title: "memory scheduler (geomean IPC)",
        variants: || {
            levels(
                [
                    ("FR-FCFS", SchedulerKind::FrFcfs),
                    ("FCFS", SchedulerKind::Fcfs),
                ],
                &[Nopf, CampsMod],
                |c, s| c.vault.scheduler = s,
            )
        },
    }),
    // Closed page removes conflicts at the price of row locality: the
    // trade CAMPS makes selectively, row by row.
    Experiment::Ablation(Ablation {
        name: "ablate_page_policy",
        title: "page policy (geomean IPC)",
        variants: || {
            levels(
                [("open", PagePolicy::Open), ("closed", PagePolicy::Closed)],
                &[Nopf, CampsMod],
                |c, p| c.vault.page_policy = p,
            )
        },
    }),
    Experiment::Ablation(Ablation {
        name: "ablate_mapping",
        title: "address mapping (geomean IPC)",
        variants: || {
            levels(
                MappingScheme::ALL.map(|m| (m, m)),
                &[Nopf, CampsMod],
                |c, m| c.hmc.mapping = m,
            )
        },
    }),
    // tREFI = 7.8 µs at 800 MHz; 0 turns refresh off.
    Experiment::Ablation(Ablation {
        name: "ablate_refresh",
        title: "all-bank refresh (geomean IPC)",
        variants: || {
            levels(
                [("refresh on", 6240u64), ("refresh off", 0)],
                &[Nopf, CampsMod],
                |c, t| c.dram.t_refi = t,
            )
        },
    }),
    // §2.4's counter-design: push every prefetched block to the LLC. If
    // the paper's argument holds, pushing should not win.
    Experiment::Ablation(Ablation {
        name: "ablate_push_llc",
        title: "§2.4 — keep prefetches memory-side vs push to LLC (geomean IPC)",
        variants: || {
            levels(
                [("memory-side buffer", false), ("push to LLC", true)],
                &[Base, CampsMod],
                |c, push| c.prefetch.push_to_llc = push,
            )
        },
    }),
    // A core-side next-line prefetcher under the memory-side schemes, as
    // studied by Ahn et al. [13].
    Experiment::Ablation(Ablation {
        name: "ablate_two_level",
        title: "two-level prefetching (geomean IPC)",
        variants: || {
            levels(
                [
                    ("no core pf", (false, 0u32)),
                    ("core pf d=1", (true, 1)),
                    ("core pf d=2", (true, 2)),
                ],
                &[Nopf, CampsMod],
                |c, (enable, degree)| {
                    c.core_prefetch.enable = enable;
                    c.core_prefetch.degree = degree.max(1);
                },
            )
        },
    }),
    // Idle links sleep and pay a re-training penalty on the next packet
    // (Ahn et al. [13]): tail latency traded for link energy.
    Experiment::Ablation(Ablation {
        name: "ablate_link_power",
        title: "link power management (geomean IPC)",
        variants: || {
            levels(
                [
                    ("always on", (0u64, 0u64)),
                    ("sleep 1k / wake 150", (1_000, 150)),
                    ("sleep 200 / wake 450", (200, 450)),
                ],
                &[Nopf, CampsMod],
                |c, (idle, wake)| {
                    c.link.sleep_after_idle = idle;
                    c.link.wake_cycles = wake;
                },
            )
        },
    }),
    // Not in the paper: every scheme under RowHammer-style attack
    // streams, ranked by activation amplification; then the double-sided
    // hammer with the TRR-style mitigation on. A saturated bank reaches
    // ~6 ACTs per aggressor row per refresh window, so a threshold of 3
    // fires within the horizon (the default 64 never would).
    Experiment::Study(Study {
        name: "adversarial",
        seed: 0xA11CE,
        len: ATTACK_LEN,
        passes: &[
            ("attacks", |_| {}, &ATTACKS),
            ("mitigation on", |c| { c.rowguard.enable_mitigation = true; c.rowguard.threshold = 3 }, &[ATTACKS[0]]),
        ],
        report: adversarial_report,
    }),
    // Not in the paper, which evaluates one cube: the scheme matrix on
    // chained pools of 1, 2 and 4 cubes.
    Experiment::Study(Study {
        name: "multicube",
        seed: 0xC0BE5,
        len: RunLength::tiny(),
        passes: &[
            ("1 cube(s)", |c| c.topology.cubes = 1, &HM1_LM1),
            ("2 cube(s)", |c| c.topology.cubes = 2, &HM1_LM1),
            ("4 cube(s)", |c| c.topology.cubes = 4, &HM1_LM1),
        ],
        report: multicube_report,
    }),
];

/// Resolves command-line names to experiments, in registry order. No
/// names selects everything; the `--bench` flag cargo passes to
/// `harness = false` targets is ignored. An unknown name is an error
/// that lists the valid ones.
fn select(args: &[String]) -> Result<Vec<Experiment>, String> {
    let names: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--bench")
        .collect();
    if let Some(bad) = names
        .iter()
        .find(|n| !EXPERIMENTS.iter().any(|e| e.name() == **n))
    {
        let valid: Vec<&str> = EXPERIMENTS.iter().map(Experiment::name).collect();
        return Err(format!(
            "unknown experiment `{bad}`; valid names: {}",
            valid.join(", ")
        ));
    }
    Ok(EXPERIMENTS
        .into_iter()
        .filter(|e| names.is_empty() || names.contains(&e.name()))
        .collect())
}

/// Runs the experiments `args` names (every one when it names none), in
/// registry order, at the `CAMPS_BENCH_SCALE` run length. The figures
/// share one journaled result matrix, fetched once.
///
/// # Errors
/// An unknown name (with the list of valid ones) or scale, before
/// anything runs; a quarantined job; a study check that failed.
pub fn run(args: &[String]) -> Result<(), String> {
    let selected = select(args)?;
    let len = bench_length()?;
    // Figures 5–9 all read one journaled matrix: the Table II mixes
    // under every scheme on the Table I machine.
    let figures = if selected.iter().any(|e| matches!(e, Experiment::Figure(_))) {
        let cfg = SystemConfig::paper_default();
        journaled_matrix(
            &cfg,
            &ALL_MIXES,
            &SchemeKind::ALL,
            &len,
            FIGURE_SEED,
            "figures",
        )?
    } else {
        Vec::new()
    };
    for e in selected {
        match e {
            Experiment::Figure(f) => f.report(&figures),
            Experiment::Ablation(a) => a.report(&len)?,
            Experiment::Study(s) => s.report()?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use camps_stats::AmplificationReport;

    fn args(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| (*s).to_string()).collect()
    }

    fn names(selected: &[Experiment]) -> Vec<&'static str> {
        selected.iter().map(Experiment::name).collect()
    }

    /// The names are the CSV stems EXPERIMENTS.md and downstream scripts
    /// read and the study report names, in run order: Figures 5–9, the
    /// ablations, then the studies.
    #[test]
    fn names_are_unique_csv_stems() {
        let all: Vec<&str> = EXPERIMENTS.iter().map(Experiment::name).collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate name in {all:?}");
        assert_eq!(
            all,
            [
                "fig5_speedup",
                "fig6_conflicts",
                "fig7_accuracy",
                "fig8_amat",
                "fig9_energy",
                "ablate_threshold",
                "ablate_ct_size",
                "ablate_buffer_size",
                "ablate_replacement",
                "ablate_scheduler",
                "ablate_page_policy",
                "ablate_mapping",
                "ablate_refresh",
                "ablate_push_llc",
                "ablate_two_level",
                "ablate_link_power",
                "adversarial",
                "multicube",
            ]
        );
    }

    #[test]
    fn selection_keeps_registry_order_and_ignores_bench_flag() {
        assert_eq!(names(&select(&args(&["--bench"])).unwrap()).len(), 18);
        let picked = select(&args(&["ablate_mapping", "fig6_conflicts", "--bench"])).unwrap();
        assert_eq!(names(&picked), ["fig6_conflicts", "ablate_mapping"]);
        let twice = select(&args(&["fig5_speedup", "fig5_speedup"])).unwrap();
        assert_eq!(names(&twice), ["fig5_speedup"]);
    }

    #[test]
    fn unknown_name_lists_the_valid_ones() {
        let err = select(&args(&["fig5_speedup", "fig10"])).unwrap_err();
        assert!(err.contains("`fig10`"), "{err}");
        for e in &EXPERIMENTS {
            assert!(err.contains(e.name()), "{err} lacks {}", e.name());
        }
    }

    #[test]
    fn every_claim_compares_columns_of_its_figure() {
        for e in &EXPERIMENTS {
            let Experiment::Figure(f) = e else { continue };
            assert!(!f.claims.is_empty(), "{} has no claims", f.name);
            for c in f.claims {
                let versus = match c.form {
                    Form::Ratio(s) | Form::Points(s) => Some(s),
                    Form::Absolute => None,
                };
                for s in std::iter::once(c.scheme).chain(versus) {
                    assert!(f.schemes.contains(&s), "{}: {} names {s}", f.name, c.label);
                }
            }
        }
    }

    #[test]
    fn ablation_variants_are_labelled_uniquely() {
        for e in &EXPERIMENTS {
            let Experiment::Ablation(a) = e else { continue };
            let labels: Vec<String> = (a.variants)().into_iter().map(|v| v.0).collect();
            let mut sorted = labels.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), labels.len(), "{}: {labels:?}", a.name);
        }
    }

    fn result(mix: &str, scheme: SchemeKind, ipc: f64) -> RunResult {
        RunResult {
            scheme,
            mix_id: mix.to_string(),
            ipc: vec![ipc; 2],
            core_names: vec![String::new(); 2],
            core_stats: Vec::new(),
            vaults: camps_vault::VaultStats::new(),
            amat_all: 0.0,
            amat_mem: 0.0,
            cycles: 1,
            energy_nj: 0.0,
            stage_latency: None,
            amplification: None,
            profile: None,
        }
    }

    /// Adversarial results where CAMPS amplifies hammer-double to
    /// `camps_amp` % against NOPF's 100 and each mitigation-on run fires
    /// `fired` TRRs.
    fn adversarial_results(camps_amp: u64, fired: u64) -> Vec<PassResults> {
        let pass = |workloads: &[Workload], fired| {
            let runs = workloads.iter().flat_map(|w| {
                SchemeKind::ALL.map(|s| {
                    let mut r = result(w.id(), s, 0.01);
                    let writebacks = if s == Camps { camps_amp - 100 } else { 0 };
                    let a = AmplificationReport::from_counts(100, 0, writebacks, 5, 0, 1);
                    r.amplification = Some(a);
                    r.vaults.mitigations.add(fired);
                    r
                })
            });
            (SystemConfig::paper_default(), runs.collect())
        };
        vec![pass(&ATTACKS, 0), pass(&ATTACKS[..1], fired)]
    }

    #[test]
    fn adversarial_checks_fail_the_study() {
        let report = adversarial_report(&adversarial_results(126, 7)).unwrap();
        let report = serde_json::to_string(&report).unwrap();
        assert!(report.contains("\"hammer_amplification\":1.26"), "{report}");
        let err = adversarial_report(&adversarial_results(100, 7)).unwrap_err();
        assert!(err.contains("CAMPS must amplify"), "{err}");
        let err = adversarial_report(&adversarial_results(126, 0)).unwrap_err();
        assert!(err.contains("mitigation never fired"), "{err}");
        let mut trr_while_off = adversarial_results(126, 7);
        let report = trr_while_off[0].1[0].amplification.as_mut().unwrap();
        report.mitigations = 1;
        let err = adversarial_report(&trr_while_off).unwrap_err();
        assert!(err.contains("malformed report"), "{err}");
    }

    /// Fig. 5's table and claims over a two-mix matrix, checked by hand.
    #[test]
    fn table_normalizes_to_base_and_claims_format() {
        let Experiment::Figure(fig5) = EXPERIMENTS[0] else {
            unreachable!()
        };
        let results = vec![
            result("HM1", Base, 1.0),
            result("HM1", Mmd, 2.0),
            result("HM1", CampsMod, 2.0),
            result("LM1", Base, 2.0),
            result("LM1", Mmd, 2.0),
            result("LM1", CampsMod, 4.0),
        ];
        let t = fig5.tabulate(&results);
        // BASE-HIT and CAMPS never ran: their cells and AVGs are absent.
        assert_eq!(t.cells.len(), 6);
        let col = |s| fig5.schemes.iter().position(|&c| c == s).unwrap();
        assert_eq!(t.avg[col(Base)], Some(1.0));
        assert_eq!(t.avg[col(BaseHit)], None);
        assert!((t.avg[col(Mmd)].unwrap() - 2f64.sqrt()).abs() < 1e-12);
        assert!((t.avg[col(CampsMod)].unwrap() - 2.0).abs() < 1e-12);
        let lines: Vec<String> = fig5
            .claims
            .iter()
            .map(|c| fig5.claim_line(c, &t.avg))
            .collect();
        assert_eq!(
            lines,
            [
                "CAMPS-MOD vs BASE    : +100.0%  (paper: +17.9%)",
                "CAMPS-MOD vs BASE-HIT: n/a (paper: +16.8%)",
                "CAMPS-MOD vs MMD     : +41.4%  (paper: +8.7%)",
            ]
        );
    }
}
