//! # cpusim — processor performance/sleep-state and power model
//!
//! Models the processor of Table 1 in the NCAP paper: a 4-core chip with
//! 15 P-states (0.65 V/0.8 GHz … 1.2 V/3.1 GHz), three sleep states
//! (C1/C3/C6 with 2/10/22 µs exit latency), realistic V/F transition
//! sequencing (6.25 mV/µs voltage ramp, 5 µs PLL-relock halt — paper
//! Figure 1), and a McPAT-style analytic power model calibrated to the
//! paper's endpoints (12–80 W processor power across P-states; C1 static
//! 1.92–7.11 W; C3 static 1.64 W at 0.6 V; C6 ≈ 0 W).
//!
//! The central type is [`Core`]: a passive state machine that the OS layer
//! (`oskernel`) drives. It tracks frequency changes *with* their halt
//! windows, executes work measured in cycles at the momentary frequency,
//! and integrates energy by power mode so experiments can report both
//! totals and per-state breakdowns.
//!
//! ## Example
//!
//! ```
//! use cpusim::{Core, CoreId, PStateTable, PowerModel, PowerTable};
//! use desim::SimTime;
//!
//! let table = PStateTable::i7_like();
//! let deepest = table.deepest();
//! let power = PowerTable::new(&PowerModel::i7_like(), &table);
//! let mut core = Core::new(CoreId(0), table, power, deepest);
//! let eta = core.begin_job(SimTime::ZERO, 8_000.0).unwrap();
//! assert!(eta > SimTime::ZERO); // 8000 cycles at 0.8 GHz = 10 us
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod core_model;
pub mod cstate;
pub mod energy;
pub mod power;
pub mod pstate;
pub mod transition;

pub use core_model::{Core, CoreError, CoreId, CoreStateKind};
pub use cstate::CState;
pub use energy::{EnergyMeter, PowerMode};
pub use power::{PowerModel, PowerTable};
pub use pstate::{PState, PStateId, PStateTable};
pub use transition::{transition_plan, TransitionPlan, VfTracePoint};
