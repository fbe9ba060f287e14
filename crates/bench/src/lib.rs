//! Shared experiment driver for the paper's tables and figures.
//!
//! [`experiments`] holds Figures 5–9, the ablations and the
//! `adversarial` and `multicube` studies as data; the `experiments` bench
//! target (`harness = false`) runs any of them by name. A figure or
//! ablation prints its paper-style table to stdout and drops its CSV
//! under `target/experiments/`, so EXPERIMENTS.md numbers are
//! regenerable; a study checks its results and rewrites its
//! `BENCH_<name>.json` at the workspace root. Tables I and II keep their
//! own bench targets.
//!
//! The figures' and ablations' scale is the `CAMPS_BENCH_SCALE`
//! environment variable: `tiny`, `quick` (default; minutes for the full
//! set), `standard`, or `thorough`. An unknown name is an error. The
//! studies run at their own fixed lengths.

#![warn(missing_docs)]

pub mod driver;
pub mod experiments;
pub mod table;

pub use driver::{experiments_dir, write_csv};
