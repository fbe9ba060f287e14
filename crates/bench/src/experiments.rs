//! The paper's Figures 5–9 and our ablations, as one table of data.
//!
//! `EXPERIMENTS` is the registry. Each figure names its columns, its
//! per-cell value, how its AVG row folds a column, and the paper's numbers
//! it is compared against; each ablation names its configuration
//! variants. One table builder, one claim formatter and one ablation
//! printer serve them all; the `experiments` bench target only passes the
//! names to [`run`]:
//!
//! ```text
//! cargo bench -p camps-bench --bench experiments [-- NAME…]
//! ```

use crate::driver::{ablation_sweep, figure_results, write_csv, Variant, ABLATION_MIXES};
use crate::table::{bar_chart, TableWriter};
use camps::metrics::RunResult;
use camps_prefetch::SchemeKind;
use camps_stats::{geomean, mean};
use camps_types::addr::MappingScheme;
use camps_types::config::{PagePolicy, SchedulerKind, SystemConfig};
use camps_workloads::ALL_MIXES;
use std::fmt::Display;

use SchemeKind::{Base, BaseHit, Camps, CampsMod, Mmd, Nopf};

/// One table or ablation, selectable by name.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Experiment {
    Figure(Figure),
    Ablation(Ablation),
}

impl Experiment {
    /// The selection name, which is also the CSV stem under
    /// `target/experiments/`.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Self::Figure(f) => f.name,
            Self::Ablation(a) => a.name,
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
    /// Runs the variants, prints the geomean-IPC table and writes the CSV.
    fn report(&self) {
        let rows = ablation_sweep(&(self.variants)(), &ABLATION_MIXES);
        let w = rows.iter().map(|(label, _)| label.len()).max().unwrap_or(0);
        println!("Ablation: {}\n", self.title);
        let mut header = format!("{:>w$}", "");
        for mix in ABLATION_MIXES {
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
        write_csv(
            self.name,
            &format!("variant,{}", ABLATION_MIXES.join(",")),
            &csv,
        );
    }
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
pub(crate) const EXPERIMENTS: [Experiment; 16] = [
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
/// registry order. The figures share one journaled result matrix,
/// fetched once.
///
/// # Errors
/// An unknown name, with the list of valid ones; nothing runs.
pub fn run(args: &[String]) -> Result<(), String> {
    let mut results: Option<Vec<RunResult>> = None;
    for e in select(args)? {
        match e {
            Experiment::Figure(f) => f.report(results.get_or_insert_with(figure_results)),
            Experiment::Ablation(a) => a.report(),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| (*s).to_string()).collect()
    }

    fn names(selected: &[Experiment]) -> Vec<&'static str> {
        selected.iter().map(Experiment::name).collect()
    }

    /// The names are the CSV stems EXPERIMENTS.md and downstream scripts
    /// read, in run order: Figures 5–9, then the ablations.
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
            ]
        );
    }

    #[test]
    fn selection_keeps_registry_order_and_ignores_bench_flag() {
        assert_eq!(names(&select(&args(&["--bench"])).unwrap()).len(), 16);
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
