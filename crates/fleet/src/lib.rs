//! # fleet — L4 load balancing and cluster-level power coordination
//!
//! NCAP (the paper) manages power on a *single* OLDI server, but its
//! target workloads run as fleets behind a load balancer, where the
//! biggest energy lever is *which* server a packet wakes. This crate adds
//! that layer on top of the per-node simulators:
//!
//! * [`LoadBalancer`] — a simulated L4 (NAT-mode) load-balancer node.
//!   It owns a VIP, receives client request frames from the switch,
//!   picks a backend with a pluggable deterministic [`DispatchPolicy`],
//!   rewrites the frame (`src → VIP`, `dst → backend`) and forwards it.
//!   Backend responses return to the VIP and are rewritten back to the
//!   originating client, so the LB observes both directions and can keep
//!   exact per-backend in-flight counts from its own forward/response
//!   accounting — no backend cooperation required, exactly like a real
//!   L4 middlebox.
//! * [`DispatchPolicy`] — round-robin, least-outstanding (join the
//!   shortest queue over the LB's own in-flight counts), and power-aware
//!   packing (concentrate load on the lowest-numbered backends so the
//!   rest stay idle long enough to sink into deep C-states — the
//!   fleet-level analogue of NCAP's packet-context awareness).
//! * [`FleetCoordinator`] — an ondemand-style epoch controller above
//!   dispatch: it estimates fleet load from the LB's request counter and
//!   parks whole backends when few are needed (draining their in-flight
//!   work first), unparking them when load returns. Park/unpark
//!   transitions take configurable latencies and their energy is
//!   accounted with the existing [`cpusim::EnergyMeter`] model.
//! * [`FailureSchedule`] / [`HealthConfig`] — deterministic machine-level
//!   failures (fail-stop, fail-slow, hang) and the LB's health prober:
//!   active probes with K-strike ejection and reinstatement, passive
//!   ejection on consecutive request timeouts, and conntrack failover
//!   that re-pins retransmissions away from dead backends.
//!
//! The crate is deliberately independent of `cluster` (which depends on
//! it): everything here is plain deterministic state driven by the
//! simulation's event handler. Same seed ⇒ byte-identical behaviour.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod config;
pub mod coordinator;
pub mod faults;
pub mod lb;
pub mod metrics;

pub use config::{CoordinatorConfig, DispatchPolicy, FleetConfig, MAX_BACKENDS};
pub use coordinator::{FleetAction, FleetCoordinator};
pub use faults::{
    DomainFaultSpec, DomainSchedule, FailureMode, FailureSchedule, FailureSpec, HealthConfig,
    DEFAULT_DOMAIN_FAULT_SEED, DEFAULT_FLEET_FAULT_SEED,
};
pub use lb::{
    BackendState, BackendSummary, FleetSummary, LbLedger, LbResponse, LoadBalancer, ProbeOutcome,
    TransitionError,
};
