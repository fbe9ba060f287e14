//! Shared experiment driver for the per-figure bench targets.
//!
//! Every table and figure of the paper has a `[[bench]]` target (with
//! `harness = false`) in this crate; each target calls into this library
//! to run the needed (mix × scheme) matrix, print a paper-style table to
//! stdout, and drop a CSV under `target/experiments/` so EXPERIMENTS.md
//! numbers are regenerable.
//!
//! Scale is controlled by the `CAMPS_BENCH_SCALE` environment variable:
//! `quick` (default; minutes for the full set), `standard`, or
//! `thorough`.

#![warn(missing_docs)]

pub mod driver;
pub mod table;

pub use driver::{
    ablation_sweep, bench_length, experiments_dir, figure_results, write_csv, ABLATION_MIXES,
    FIGURE_SEED,
};
pub use table::{bar_chart, TableWriter};

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

#[cfg(test)]
mod tests {
    use super::baseline_value;

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
