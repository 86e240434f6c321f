//! The four benchmark workloads. Every one is memcached with open-loop
//! clients, so the simulated load never depends on host speed, and every
//! one stays below saturation so each offered request completes.

use cluster::{
    AppKind, CoordinatorConfig, Datapath, DispatchPolicy, ExperimentConfig, FailureSchedule,
    FleetConfig, Policy, WatchdogConfig,
};
use desim::{SimDuration, SimTime};

/// One named simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SingleBursty,
    Fleet64Pack,
    Fleet64Bypass,
    Fleet16Failover,
}

/// Load-free tail of every full run: clients stop offering requests this
/// long before the horizon, so each request offered in the measured
/// window can finish before it.
const DRAIN: SimDuration = SimDuration::from_ms(20);

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SingleBursty,
        Workload::Fleet64Pack,
        Workload::Fleet64Bypass,
        Workload::Fleet16Failover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SingleBursty => "single_bursty",
            Workload::Fleet64Pack => "fleet64_pack",
            Workload::Fleet64Bypass => "fleet64_bypass",
            Workload::Fleet16Failover => "fleet16_failover",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Digest of the full run's result at seed 1 (not in smoke mode). A
    /// change that keeps it did not change what is simulated.
    pub fn pinned_digest(self) -> u64 {
        match self {
            Workload::SingleBursty => 0x51b7_238f_f82d_d05f,
            Workload::Fleet64Pack => 0x927f_c1e3_0e1d_7a02,
            Workload::Fleet64Bypass => 0xa3cc_5a63_a330_b5d8,
            Workload::Fleet16Failover => 0xaa56_2fe3_47fc_299c,
        }
    }

    /// The configuration of a full run at `seed`; `smoke` shrinks the
    /// horizon to a few simulated milliseconds.
    pub fn config(self, seed: u64, smoke: bool) -> ExperimentConfig {
        let warmup = SimDuration::from_ms(if smoke { 10 } else { 100 });
        let measure = SimDuration::from_ms(match (self, smoke) {
            (_, true) => 30,
            (Workload::SingleBursty, false) => 8_000,
            (_, false) => 900,
        });
        let (policy, load_rps) = match self {
            Workload::SingleBursty => (Policy::NcapCons, 35_000.0),
            Workload::Fleet64Pack => (Policy::NcapCons, 384_000.0),
            Workload::Fleet64Bypass => (Policy::OndIdle, 384_000.0),
            Workload::Fleet16Failover => (Policy::NcapCons, 240_000.0),
        };
        let cfg = ExperimentConfig::new(AppKind::Memcached, policy, load_rps)
            .with_durations(warmup, measure)
            .with_drain(DRAIN)
            .with_seed(seed)
            .with_watchdog(WatchdogConfig::default().collecting());
        // Sized for 120 k rps per backend at half utilisation: at 384 k rps
        // the coordinator keeps 7 of 64 backends active.
        let coordinator = CoordinatorConfig::new(120_000.0).with_util_target(0.5);
        match self {
            // The three clients' 200-request bursts sometimes coincide;
            // 600 frames overrun the 82574's default 256-descriptor ring
            // and lose about 0.3% of requests, so the ring is deepened.
            Workload::SingleBursty => cfg.with_rx_ring(1024),
            Workload::Fleet64Pack => cfg.with_poisson().with_fleet(
                FleetConfig::new(64, DispatchPolicy::Packing).with_coordinator(coordinator),
            ),
            Workload::Fleet64Bypass => cfg
                .with_poisson()
                .with_datapath(Datapath::Bypass)
                .with_poll_cores(1)
                .with_fleet(
                    FleetConfig::new(64, DispatchPolicy::LeastOutstanding)
                        .with_coordinator(coordinator),
                ),
            Workload::Fleet16Failover => {
                // Two fail-stops in [w + m/4, w + m/2), each back after
                // m/4. The runner arms retransmission and the prober.
                let start = SimTime::ZERO + warmup;
                let stops = FailureSchedule::seeded_stops(
                    seed,
                    16,
                    2,
                    start + measure / 4,
                    start + measure / 2,
                    Some(measure / 4),
                );
                cfg.with_poisson().with_fleet(
                    FleetConfig::new(16, DispatchPolicy::LeastOutstanding).with_faults(stops),
                )
            }
        }
    }

    /// The full-run configuration with a 1 µs measured window: building
    /// the cluster and simulating the warmup, i.e. everything a full run
    /// does before measurement starts. Failures stay scheduled after the
    /// horizon, so the same reliability layers are armed.
    pub fn setup_config(self, seed: u64, smoke: bool) -> ExperimentConfig {
        let mut cfg = self.config(seed, smoke);
        cfg.measure = SimDuration::from_us(1);
        cfg.drain = SimDuration::ZERO;
        cfg
    }
}
