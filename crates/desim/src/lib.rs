//! # desim — deterministic discrete-event simulation engine
//!
//! This crate is the foundation of the NCAP reproduction: a minimal,
//! fully deterministic discrete-event simulation (DES) kernel. Every other
//! crate in the workspace (CPU, NIC, network, kernel, applications) is a
//! passive state machine driven by events scheduled through this engine.
//!
//! Determinism is a hard requirement: a simulation run must be a pure
//! function of its configuration and seed so experiments are reproducible
//! and debuggable. Two mechanisms guarantee it:
//!
//! * [`EventQueue`] orders events by `(time, insertion sequence)`, so
//!   simultaneous events always fire in the order they were scheduled.
//!   It is a timing wheel of 64 ns slots for the next 131 µs and a
//!   binary heap for later events, both over one slab of pending events,
//!   checked operation by operation against a naive model in
//!   `tests/differential.rs`.
//! * [`SplitMix64`] provides a tiny, dependency-free deterministic RNG for
//!   internal jitter; workload-level randomness uses seeded `rand` RNGs in
//!   higher layers.
//!
//! ## Example
//!
//! ```
//! use desim::{EventQueue, SimTime, SimDuration};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(SimTime::ZERO + SimDuration::from_us(5), "second");
//! q.push(SimTime::ZERO, "first");
//! assert_eq!(q.pop().map(|(_, e)| e), Some("first"));
//! assert_eq!(q.pop().map(|(_, e)| e), Some("second"));
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod config;
pub mod profiler;
pub mod queue;
pub mod rng;
pub mod runner;
pub mod time;
pub mod timer;

pub use config::ConfigError;
pub use profiler::{ClassStats, Profile, PROFILE_BUCKETS};
pub use queue::EventQueue;
pub use rng::SplitMix64;
pub use runner::{EventHandler, RunOutcome, Simulation};
pub use time::{SimDuration, SimTime};
pub use timer::TimerSlot;
