//! # oskernel — a simplified Linux-like kernel for one simulated node
//!
//! Models the software layers the paper's evaluation exercises (§2, §5):
//!
//! * **interrupt path** — NIC IRQ delivery to core 0, waking it from a
//!   C-state if needed; the ISR reads the ICR over PCIe, applies NCAP
//!   driver actions, and schedules the receive SoftIRQ;
//! * **network stack** — per-packet RX/TX SoftIRQ processing costs,
//!   pinned to core 0 as on a single-queue NIC ("one core processes
//!   received network packets while another core can process requests");
//! * **scheduler** — a run queue of [`Work`] items dispatched to idle
//!   cores, waking sleeping cores on demand;
//! * **cpufreq** — chip-wide P-state application through the governors,
//!   with per-transition PLL-halt penalties and job rescheduling;
//! * **cpuidle** — the `cpu_idle_loop`: on an empty run queue the menu
//!   (or ladder) governor picks a C-state, with the MWAIT/MONITOR cost
//!   charged on wake-up;
//! * **applications** — the [`ServerApp`] trait: requests arrive from the
//!   stack, execute CPU/IO phase plans, and emit multi-frame responses.
//!
//! The [`Kernel`] is driven by [`NodeEvent`]s and appends to a lent
//! [`Effects`] buffer (events to schedule on this node plus frames
//! leaving on the wire); the `cluster` crate owns the event loop, that
//! buffer and the switch.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod app;
pub mod config;
pub mod kernel;
pub mod work;

pub use app::{AppPhase, AppPlan, RequestInfo, ServerApp};
pub use bypass::{BypassConfig, Datapath};
pub use config::{KernelConfig, OverloadConfig, ShedPolicy};
pub use kernel::{Effects, Kernel, KernelStats, NodeEvent};
pub use work::{CoreSet, Pick, RunQueue, WakePass, Work, WorkKind};
