//! Statistics framework for the CAMPS simulator.
//!
//! Every simulated component accumulates its own counters; at the end of a
//! run they are folded into serializable summaries that the experiment
//! harness turns into the paper's tables and figures.
//!
//! * [`counter`] — event counters and hit/total ratios,
//! * [`amplification`] — RowHammer activation-amplification reports for
//!   the adversarial workload layer,
//! * [`audit`] — per-vault request-conservation ledgers for the request
//!   auditor,
//! * [`histogram`] — log₂ latency histograms,
//! * [`running`] — streaming mean/variance (Welford) and min/max,
//! * [`summary`] — aggregation helpers: arithmetic/geometric means,
//!   normalization against a baseline.

#![warn(missing_docs)]

pub mod amplification;
pub mod audit;
pub mod counter;
pub mod histogram;
pub mod running;
pub mod summary;

pub use amplification::AmplificationReport;
pub use audit::{AuditLedger, VaultAudit};
pub use counter::{Counter, Ratio};
pub use histogram::Log2Histogram;
pub use running::Running;
pub use summary::{geomean, mean, normalize_to, percent_change, NormalizeError};
