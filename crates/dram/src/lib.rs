//! DRAM substrate for the CAMPS HMC simulator.
//!
//! Models one DRAM bank as a timing state machine (DRAMSim-style "ready-at"
//! timestamps rather than per-cycle FSM ticks) driven by [`DramCmd`]s, the
//! vault-level activation window (tRRD/tFAW), and per-operation energy
//! accounting.
//!
//! All timing values inside this crate are **CPU cycles**; the conversion
//! from memory-bus cycles (DDR3-1600, Table I) happens once in
//! [`TimingCpu::from_config`].

#![warn(missing_docs)]

pub mod bank;
pub mod energy;
pub mod rowguard;
pub mod timing;
pub mod window;

pub use bank::{AccessCategory, Bank, Cause, DramCmd};
pub use energy::EnergyCounters;
pub use rowguard::RowGuard;
pub use timing::TimingCpu;
pub use window::ActWindow;
