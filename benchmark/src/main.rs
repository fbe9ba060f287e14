//! `benchmark` — the repository benchmark for the CAMPS simulator.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload hm1 --seed 11 --seconds 15 --trace 0
//! ```
//!
//! Runs one workload (see `BENCHMARK.json` and README.md) through the
//! simulator's public library API for about `--seconds` seconds.
//! `--trace 0` reports the end-to-end metrics from plain repetitions;
//! `--trace 1` reports the per-layer metrics from separate traced
//! passes. Every run's result digest must match the workload's first
//! one, and the polling engine must reproduce the event engine's result.
//! Stdout carries a table (name, value, unit, sample count) and, as its
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. The exit code is 0 only when the output is correct.

mod measure;
mod probe;
mod report;
mod workload;

use report::{Report, Tally, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 11;
    let mut seconds = 15.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Measures one workload and builds its report.
fn run(args: &Args) -> Report {
    let work = args.workload.work(args.seed);
    let mut tally = Tally::default();
    let measured = if args.trace {
        measure::per_layer(&work, args.seconds, &mut tally)
    } else {
        measure::end_to_end(&work, args.seconds, &mut tally)
    };
    Report {
        workload: args.workload.name(),
        tally,
        digest: measured.digest,
        reference_ok: measured.reference_ok,
        metrics: measured.metrics,
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!("usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let report = run(&args);
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    print!("{}", report.render_table(table));
    println!("{}", report.render_json(table));
    if report.correct(table) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::value::{lookup, Value};

    fn definition() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    /// The `name` of every entry of the definition's list `key`.
    fn names(def: &Value, key: &str) -> Vec<String> {
        let Some(Value::Seq(items)) = lookup(def.as_map().expect("an object"), key) else {
            panic!("BENCHMARK.json has no list `{key}`");
        };
        items
            .iter()
            .map(|item| {
                let entry = item.as_map().expect("entries are objects");
                lookup(entry, "name")
                    .and_then(Value::as_str)
                    .expect("entries are named")
                    .to_string()
            })
            .collect()
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn args(workload: Workload, trace: bool) -> Args {
        Args {
            workload,
            seed: 11,
            seconds: 0.01,
            trace,
        }
    }

    #[test]
    fn names_match_the_definition() {
        let def = definition();
        let workloads: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names(&def, "workloads"), workloads);
        let end_to_end: Vec<_> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names(&def, "end_to_end"), end_to_end);
        let per_layer: Vec<_> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names(&def, "per_layer"), per_layer);
        for name in workloads.iter().chain(&end_to_end).chain(&per_layer) {
            assert!(well_formed(name), "malformed name `{name}`");
        }
    }

    #[test]
    fn every_workload_reports_every_metric_correctly() {
        for workload in Workload::ALL {
            for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                let report = run(&args(workload, trace));
                assert!(
                    report.correct(table),
                    "{} --trace {}: {}",
                    workload.name(),
                    u8::from(trace),
                    report.render_table(table)
                );
                assert_eq!(report.metrics.len(), table.len(), "{}", workload.name());
                let line = report.render_json(table);
                let parsed: Value = serde_json::from_str(&line).expect("the result line is JSON");
                let metrics = lookup(parsed.as_map().unwrap(), "metrics").unwrap();
                assert_eq!(metrics.as_map().unwrap().len(), table.len());
            }
        }
    }

    #[test]
    fn miniature_runs_repeat_their_digests() {
        for workload in Workload::ALL {
            let a = run(&args(workload, false));
            let b = run(&args(workload, false));
            assert!(a.digest.is_some(), "{}", workload.name());
            assert_eq!(a.digest, b.digest, "{}", workload.name());
        }
    }

    #[test]
    fn the_seed_changes_the_inputs() {
        let digest = |seed| {
            run(&Args {
                seed,
                ..args(Workload::Hm1, false)
            })
            .digest
        };
        assert_ne!(digest(11), digest(12));
    }

    #[test]
    fn bad_arguments_are_refused() {
        let parse = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "hm1", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "hm1", "--seconds"]).is_err());
        assert!(parse(&["--seed", "1"]).is_err());
        let ok = parse(&["--workload", "fig5-matrix", "--seed", "12", "--trace", "1"]).unwrap();
        assert_eq!(
            (ok.workload, ok.seed, ok.trace),
            (Workload::Fig5Matrix, 12, true)
        );
    }
}
