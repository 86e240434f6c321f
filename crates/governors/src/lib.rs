//! # governors — Linux-like cpufreq and cpuidle policies
//!
//! Re-implementations of the power-management policies the paper evaluates
//! (§2.1): the static **performance** cpufreq governor, the dynamic
//! **ondemand** governor with its utilization sampling and configurable
//! invocation period, and the **menu** and **ladder** cpuidle governors
//! that pick sleep states for idle cores.
//!
//! The governors are pure decision logic: the OS layer (`oskernel`)
//! samples utilization, invokes them on their schedule, charges their
//! invocation overhead to a core, and applies their decisions through the
//! cpufreq/cpuidle driver models.
//!
//! ## Example
//!
//! ```
//! use governors::{CpufreqGovernor, Ondemand};
//! use cpusim::PStateTable;
//! use desim::{SimDuration, SimTime};
//!
//! let table = PStateTable::i7_like();
//! let mut ond = Ondemand::with_period(SimDuration::from_ms(10));
//! // 90 % utilization exceeds the up-threshold: jump to P0.
//! let t = ond.target(SimTime::ZERO, 0.9, table.deepest(), &table);
//! assert_eq!(t, table.fastest());
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod cpufreq;
pub mod cpuidle;

pub use cpufreq::{CpufreqGovernor, Ondemand, Performance};
pub use cpuidle::{CpuidleGovernor, Ladder, Menu, PollIdle};
