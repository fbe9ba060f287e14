//! Shared experiment driver for the paper's tables and figures, and the
//! helpers the bench binaries share.
//!
//! [`experiments`] holds Figures 5–9 and the ablations as data; the
//! `experiments` bench target (`harness = false`) runs any of them by
//! name, prints each paper-style table to stdout and drops its CSV under
//! `target/experiments/` so EXPERIMENTS.md numbers are regenerable.
//! Tables I and II keep their own bench targets.
//!
//! Scale is controlled by the `CAMPS_BENCH_SCALE` environment variable:
//! `quick` (default; minutes for the full set), `standard`, or
//! `thorough`.

#![warn(missing_docs)]

pub mod driver;
pub mod experiments;
pub mod table;

pub use driver::{experiments_dir, write_csv};

/// Reads a number from a committed baseline file such as
/// `ci/perf_baseline.json`: the value of `key`, or, with `workload` set,
/// the value of `key` in the entry `{"workload": "<workload>", "<key>": …}`.
/// Matching is textual; the format is ours.
#[must_use]
pub fn baseline_value(text: &str, workload: Option<&str>, key: &str) -> Option<f64> {
    let needle = match workload {
        Some(w) => format!("\"workload\": \"{w}\", \"{key}\": "),
        None => format!("\"{key}\": "),
    };
    let at = text.find(&needle)? + needle.len();
    let rest = &text[at..];
    let end = rest.find(['}', ','])?;
    rest[..end].trim().parse().ok()
}

/// The `--out FILE | --check FILE` command line every bench binary takes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// Where the `BENCH_*.json` report goes.
    pub out: String,
    /// The committed baseline to gate against, if any.
    pub check: Option<String>,
}

impl BenchArgs {
    /// Parses the arguments after the program name; `default_out` is the
    /// report path without `--out`.
    ///
    /// # Errors
    /// A flag without its file, or an unknown option.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        default_out: &str,
    ) -> Result<Self, String> {
        let mut parsed = Self {
            out: default_out.to_string(),
            check: None,
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--out" => parsed.out = it.next().ok_or("--out needs a file")?,
                "--check" => parsed.check = Some(it.next().ok_or("--check needs a baseline file")?),
                other => {
                    return Err(format!(
                        "unknown option `{other}` (try --out FILE | --check FILE)"
                    ))
                }
            }
        }
        Ok(parsed)
    }
}

/// Reads the committed baseline file at `path`.
///
/// # Errors
/// The file cannot be read.
pub fn read_baseline(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))
}

/// Gates a bench binary's total wall time against the `key` ceiling
/// (seconds) of the baseline file at `path`: a runaway guard, not a
/// performance benchmark.
///
/// # Errors
/// The baseline is unreadable, lacks `key`, or `elapsed_secs` exceeds it.
pub fn check_wall_ceiling(path: &str, key: &str, elapsed_secs: f64) -> Result<(), String> {
    let text = read_baseline(path)?;
    let ceiling =
        baseline_value(&text, None, key).ok_or_else(|| format!("baseline {path} has no {key}"))?;
    println!("total wall time {elapsed_secs:.1}s, ceiling {ceiling:.1}s");
    if elapsed_secs > ceiling {
        return Err("wall time exceeded the committed ceiling".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{baseline_value, BenchArgs};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn bench_args_parse_out_and_check() {
        let none = BenchArgs::parse(args(&[]), "BENCH_x.json").unwrap();
        assert_eq!(none.out, "BENCH_x.json");
        assert_eq!(none.check, None);
        let both = BenchArgs::parse(args(&["--check", "b.json", "--out", "o.json"]), "x").unwrap();
        assert_eq!(both.out, "o.json");
        assert_eq!(both.check.as_deref(), Some("b.json"));
        assert_eq!(
            BenchArgs::parse(args(&["--out"]), "x").unwrap_err(),
            "--out needs a file"
        );
        assert!(BenchArgs::parse(args(&["--fast"]), "x")
            .unwrap_err()
            .contains("`--fast`"));
    }

    /// Every key a `--check` gate reads from the committed baseline.
    #[test]
    fn committed_baseline_has_every_gated_key() {
        let text = include_str!("../../../ci/perf_baseline.json");
        for key in ["adversarial_ceiling", "multicube_ceiling"] {
            let v = baseline_value(text, None, key);
            assert!(v.is_some_and(|v| v > 0.0), "{key}: {v:?}");
        }
        for (workload, key) in [
            ("idle-heavy", "event_over_polling"),
            ("HM1", "obs_over_plain"),
        ] {
            let v = baseline_value(text, Some(workload), key);
            assert!(v.is_some_and(|v| v > 0.0), "{workload}/{key}: {v:?}");
        }
        assert_eq!(baseline_value(text, None, "no_such_key"), None);
        assert_eq!(baseline_value(text, Some("LM1"), "obs_over_plain"), None);
    }
}
