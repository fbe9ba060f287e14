//! Workload substrate: synthetic SPEC CPU2006-like trace generators and
//! the eight-core multiprogrammed mixes of Table II.
//!
//! Substitution note (DESIGN.md §5): SPEC CPU2006 binaries/traces are
//! proprietary, so each of the 15 benchmarks the paper uses gets a
//! documented [`profile::BenchProfile`] — memory-op fraction, access
//! pattern mix (sequential streams / strides / pointer-chase / hot-set
//! reuse), and working-set size — chosen to match its published memory
//! character. The profiles are validated by tests that measure each
//! generator's L3 MPKI through the real cache hierarchy and check the
//! paper's HM (MPKI ≥ 20) / LM (1 ≤ MPKI < 20) classification.

#![warn(missing_docs)]

pub mod adversarial;
pub mod generator;
pub mod mixes;
pub mod profile;
mod seed;
pub mod spec;

pub use adversarial::{AdversarialSpec, AdversarialTrace, AttackKind, WorkloadError};
pub use generator::SpecTrace;
pub use mixes::{Mix, MixClass, ALL_MIXES};
pub use profile::{BenchProfile, MemClass, PatternWeights};
pub use spec::{profile_for, BENCHMARKS};
