//! CAMPS full-system simulator and experiment runner — the crate users
//! depend on.
//!
//! ```no_run
//! use camps::experiment::{run_mix, RunLength};
//! use camps_prefetch::SchemeKind;
//! use camps_types::{SimError, SystemConfig};
//! use camps_workloads::Mix;
//!
//! fn main() -> Result<(), SimError> {
//!     let cfg = SystemConfig::paper_default();
//!     let mix = Mix::by_id("HM1").unwrap();
//!     let result = run_mix(&cfg, mix, SchemeKind::CampsMod, &RunLength::quick(), 42)?;
//!     println!("{}: geomean IPC {:.3}", mix.id, result.geomean_ipc());
//!     Ok(())
//! }
//! ```
//!
//! * [`hmc`] — the cube: serial links + crossbar + 32 vault controllers,
//! * [`system`] — cores + caches + cube wired together; the cycle loop,
//! * [`audit`] — request-lifetime conservation checking,
//! * [`metrics`] — per-run results ([`metrics::RunResult`]),
//! * [`experiment`] — the run driver ([`RunSpec`]: warmup or resume,
//!   checkpoints, deadline, observers),
//! * [`checkpoint`] — checkpoint/restore of a mid-flight run: the
//!   verified snapshot format the driver writes and resumes from,
//! * [`sweep`] — the resilient parallel sweep supervisor: fault-isolated
//!   jobs, quarantine, resume from leftover checkpoints, a crash-safe
//!   journal, partial results.
//!
//! Every entry point returns [`Result`](camps_types::SimError)-typed
//! errors: invalid configs, malformed traces, integrity violations, and
//! watchdog trips surface as values, never panics.

#![warn(missing_docs)]

pub mod audit;
pub mod checkpoint;
pub mod experiment;
pub mod hmc;
pub mod metrics;
pub mod sweep;
pub mod system;
pub mod topology;

pub use audit::RequestAuditor;
pub use checkpoint::{read_snapshot, write_snapshot};
pub use experiment::{run_mix, Run, RunLength, RunSpec};
pub use hmc::HmcDevice;
pub use metrics::RunResult;
pub use sweep::{run_sweep, JobOutcome, JobRecord, SweepPolicy, SweepReport, SweepRun};
pub use system::{Engine, System};
pub use topology::Topology;
