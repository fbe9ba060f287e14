//! `camps-sim` — umbrella crate for the CAMPS reproduction.
//!
//! Reproduces *CAMPS: Conflict-Aware Memory-Side Prefetching Scheme for
//! Hybrid Memory Cube* (Rafique & Zhu, ICPP 2018) as a full-system
//! simulator: trace-driven cores, a three-level cache hierarchy, and a
//! cycle-level HMC model (serial links, crossbar, 32 vault controllers
//! with FR-FCFS scheduling and per-vault prefetch engines).
//!
//! This crate re-exports the workspace's public API; depend on it to get
//! everything, or on the individual `camps-*` crates for narrower
//! dependencies. Start with [`camps::experiment::run_mix`] and the
//! `examples/` directory.
//!
//! ```no_run
//! use camps_sim::prelude::*;
//!
//! fn main() -> Result<(), SimError> {
//!     let cfg = SystemConfig::paper_default();
//!     let mix = Mix::by_id("HM1").unwrap();
//!     let result = run_mix(&cfg, mix, SchemeKind::CampsMod, &RunLength::quick(), 42)?;
//!     println!("geomean IPC: {:.3}", result.geomean_ipc());
//!     Ok(())
//! }
//! ```

#![warn(missing_docs)]

pub use camps;
pub use camps_cache;
pub use camps_cpu;
pub use camps_dram;
pub use camps_link;
pub use camps_obs;
pub use camps_prefetch;
pub use camps_stats;
pub use camps_types;
pub use camps_vault;
pub use camps_workloads;

/// The names most programs need, in one import.
pub mod prelude {
    pub use camps::experiment::{run_mix, RunLength};
    pub use camps::metrics::{average_speedup, speedup_table, RunResult};
    pub use camps::system::System;
    pub use camps_prefetch::SchemeKind;
    pub use camps_types::config::SystemConfig;
    pub use camps_types::{IntegrityError, SimError, TraceError};
    pub use camps_workloads::{Mix, MixClass, ALL_MIXES};
}
