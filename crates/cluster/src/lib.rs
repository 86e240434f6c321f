//! # cluster — node assembly, policies, and the experiment runner
//!
//! This crate wires every substrate into the paper's evaluation setup
//! (§5): a four-node star — one OLDI server and three open-loop burst
//! clients on a 10 GbE switch — run under one of the seven power
//! management policies of §6:
//!
//! | policy      | cpufreq        | cpuidle | NCAP                |
//! |-------------|----------------|---------|---------------------|
//! | `perf`      | performance    | poll    | –                   |
//! | `ond`       | ondemand 10 ms | poll    | –                   |
//! | `perf.idle` | performance    | menu    | –                   |
//! | `ond.idle`  | ondemand 10 ms | menu    | –                   |
//! | `ncap.sw`   | ondemand 10 ms | menu    | software (driver)   |
//! | `ncap.cons` | ondemand 10 ms | menu    | hardware, FCONS = 5 |
//! | `ncap.aggr` | ondemand 10 ms | menu    | hardware, FCONS = 1 |
//!
//! [`run_experiment`] runs one configuration to completion and returns
//! latency percentiles, energy (total and per mode), and optional
//! bandwidth/frequency traces; [`run_experiments_parallel`] fans a batch
//! out across OS threads (each simulation is single-threaded and
//! deterministic for its seed).
//!
//! [`ExperimentConfig::with_fleet`] swaps the single server for a fleet:
//! N backend servers behind an L4 load balancer
//! ([`fleetsim::LoadBalancer`]) whose dispatch policy and optional
//! cluster-level power coordinator come from [`FleetConfig`].
//!
//! ## Example
//!
//! ```
//! use cluster::{AppKind, ExperimentConfig, Policy, run_experiment};
//! use desim::SimDuration;
//!
//! let cfg = ExperimentConfig::new(AppKind::Memcached, Policy::NcapCons, 30_000.0)
//!     .with_durations(SimDuration::from_ms(20), SimDuration::from_ms(50));
//! let result = run_experiment(&cfg);
//! assert!(result.completed > 0);
//! assert!(result.energy_j > 0.0);
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod chaos;
pub mod config;
pub mod policy;
pub mod runner;
pub mod sim;
pub mod trace;
pub mod watchdog;

pub use chaos::SeedVerdict;
pub use config::{AppKind, BackgroundTraffic, ExperimentConfig};
pub use fleetsim::{
    BackendState, BackendSummary, CoordinatorConfig, DispatchPolicy, DomainFaultSpec,
    DomainSchedule, FailureMode, FailureSchedule, FailureSpec, FleetConfig, FleetSummary,
    HealthConfig, DEFAULT_DOMAIN_FAULT_SEED, DEFAULT_FLEET_FAULT_SEED,
};
pub use netsim::{DomainImpairment, FaultConfig, RetxConfig, DEFAULT_FAULT_SEED};
pub use oskernel::{Datapath, OverloadConfig, ShedPolicy};
pub use policy::Policy;
pub use runner::{
    build_cluster, run_experiment, run_experiments_on, run_experiments_parallel,
    try_run_experiment, ExperimentResult,
};
pub use sim::{ClusterEvent, ClusterSim, FaultSummary};
pub use trace::{TraceConfig, Traces};
pub use watchdog::{InvariantKind, InvariantViolation, Watchdog, WatchdogConfig, WatchdogMode};
