//! Building and running experiments.

use crate::config::{AppKind, ExperimentConfig};
use crate::policy::Policy;
use crate::sim::{ClusterEvent, ClusterSim, FaultSummary};
use crate::trace::Traces;
use crate::watchdog::{InvariantViolation, Watchdog, WatchdogMode};
use cpusim::EnergyMeter;
use desim::{ConfigError, SimTime, Simulation};
use fleetsim::FleetSummary;
use ncap::{EnhancedDriver, SoftwareNcap};
use netsim::NodeId;
use nicsim::{Nic, NicConfig};
use oldi_apps::{ApacheApp, ClientConfig, MemcachedApp, OpenLoopClient, Workload};
use oskernel::{Kernel, KernelConfig, ServerApp};
use simstats::LatencySummary;

/// Everything one experiment produces.
#[derive(Debug)]
pub struct ExperimentResult {
    /// The policy that ran.
    pub policy: Policy,
    /// The application that ran.
    pub app: AppKind,
    /// Offered load (requests/second across all clients).
    pub load_rps: f64,
    /// Response-time summary over the measured window.
    pub latency: LatencySummary,
    /// Measured-window processor energy, per mode.
    pub energy: EnergyMeter,
    /// Measured-window processor energy, joules.
    pub energy_j: f64,
    /// Measured-window energy attributable to busy-poll cores, joules
    /// (summed across all servers; zero on the interrupt-driven
    /// datapaths). The flat worst-case cost of the bypass datapath.
    pub poll_energy_j: f64,
    /// Requests offered during the measured window.
    pub offered: u64,
    /// Requests completed during the measured window.
    pub completed: u64,
    /// NCAP proactive interrupts observed (whole run, all servers).
    pub wake_markers: usize,
    /// RX-ring drops at the server NICs (whole run, all servers).
    pub rx_drops: u64,
    /// Length of the measured window.
    pub measure: desim::SimDuration,
    /// Optional traces.
    pub traces: Option<Traces>,
    /// Structured event trace (when [`ExperimentConfig::event_trace`] was
    /// set: by [`ExperimentConfig::with_event_trace`], or by the `NCAP_TRACE`
    /// environment variable when [`ExperimentConfig::new`] built it).
    pub sim_trace: Option<simtrace::TraceData>,
    /// Server kernel operational counters (whole run), summed field by
    /// field over all servers.
    pub kernel_stats: oskernel::KernelStats,
    /// Fault-injection and recovery accounting, plus the request
    /// ledger's counters (only those are non-zero when the fault
    /// subsystem is off).
    pub faults: FaultSummary,
    /// Requests the server rejected with a 503 (whole run, all servers).
    pub rejected: u64,
    /// High-water mark of the server run queue (memory proxy).
    pub max_queue_depth: usize,
    /// Invariant checks the watchdog performed.
    pub watchdog_checks: u64,
    /// Invariant violations the watchdog recorded (empty on a healthy
    /// run; populated instead of panicking when the watchdog runs in
    /// [`WatchdogMode::Collect`]).
    pub invariant_violations: Vec<InvariantViolation>,
    /// Fleet summary (LB dispatch accounting, per-backend states and
    /// energy, park/unpark counts) when the run used a fleet topology
    /// ([`ExperimentConfig::with_fleet`]); `None` otherwise.
    pub fleet: Option<FleetSummary>,
    /// Total simulator events dispatched over the run. Deterministic
    /// (part of the byte-identity contract); the sim-throughput bench
    /// divides it by wall time to get events/second.
    pub events_processed: u64,
    /// Per-stage end-to-end latency attribution over the measured
    /// window, tail-conditioned at p99 of total latency. `None` when
    /// [`ExperimentConfig::breakdown`] is off. Collection is a pure
    /// observer: every other field is bit-identical with it on or off.
    pub breakdown: Option<simstats::LatencyBreakdown>,
    /// Wall-clock self-profile of the simulator run, when
    /// [`ExperimentConfig::profile`] was set. Host-dependent; outside
    /// the determinism contract.
    pub self_profile: Option<desim::Profile>,
}

impl ExperimentResult {
    /// Average processor power over the measured window, watts.
    #[must_use]
    pub fn avg_power_w(&self) -> f64 {
        self.energy_j / self.measure.as_secs_f64()
    }

    /// Fraction of offered requests completed in the window (values just
    /// below 1.0 are normal: responses in flight at the horizon).
    #[must_use]
    pub fn goodput(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.completed as f64 / self.offered as f64
        }
    }
}

fn build_app(cfg: &ExperimentConfig) -> Box<dyn ServerApp + Send> {
    match cfg.app {
        AppKind::Apache => Box::new(ApacheApp::new(cfg.seed ^ 0xA9AC)),
        AppKind::Memcached => Box::new(MemcachedApp::new(cfg.seed ^ 0x3E3C)),
    }
}

/// Builds the server kernel for an experiment configuration.
#[must_use]
pub fn build_server(cfg: &ExperimentConfig, server_id: NodeId) -> Kernel {
    let table = cpusim::PStateTable::i7_like();
    let ncap_cfg = |policy: Policy| cfg.ncap_override.clone().or_else(|| policy.ncap_config());
    let mut nic_config = if cfg.policy.uses_ncap_hardware() {
        NicConfig::i82574_like()
            .with_ncap(ncap_cfg(cfg.policy).expect("hardware NCAP policy has a config"))
    } else {
        NicConfig::i82574_like()
    };
    nic_config.toe = cfg.toe;
    if cfg.nic_queues > 1 {
        nic_config = nic_config.with_queues(cfg.nic_queues);
    }
    if let Some(descriptors) = cfg.rx_ring_override {
        nic_config.rx_ring = descriptors;
    }
    let mut kernel_cfg =
        KernelConfig::server_defaults().with_initial_pstate(cfg.policy.initial_pstate(&table));
    if cfg.per_core_boost {
        kernel_cfg = kernel_cfg.with_per_core_boost();
    }
    if cfg.faults.retx.enabled {
        // Retransmitted requests must not be served twice: turn on the
        // server's duplicate suppression and response replay.
        kernel_cfg = kernel_cfg.with_reliability();
    }
    kernel_cfg = kernel_cfg.with_datapath(cfg.datapath);
    kernel_cfg.poll_cores = cfg.poll_cores;
    kernel_cfg = kernel_cfg.with_overload(cfg.overload);
    let cores = kernel_cfg.cores as usize;
    let cpuidle: Box<dyn governors::CpuidleGovernor + Send> =
        if cfg.use_ladder && cfg.policy.uses_cstates() {
            Box::new(governors::Ladder::new(cores))
        } else {
            cfg.policy.cpuidle(cores)
        };
    let mut kernel = Kernel::new(
        kernel_cfg,
        server_id,
        Nic::new(nic_config),
        cfg.policy.cpufreq(cfg.ondemand_period),
        cpuidle,
        build_app(cfg),
    );
    if cfg.policy.uses_ncap_hardware() {
        kernel = kernel.with_ncap_driver(EnhancedDriver::new(
            ncap_cfg(cfg.policy).expect("checked above"),
            &table,
        ));
    }
    if cfg.policy == Policy::NcapSw {
        kernel = kernel.with_software_ncap(SoftwareNcap::new(
            ncap_cfg(cfg.policy).expect("ncap.sw has a config"),
            &table,
        ));
    }
    kernel
}

/// Builds the request generators. `target` is where requests go (the
/// server, or the VIP in a fleet topology); `base` is the first client
/// node id (client ids follow the servers and the VIP, if any).
fn build_clients(
    cfg: &ExperimentConfig,
    target: NodeId,
    base: u16,
) -> (Vec<OpenLoopClient>, Vec<bool>) {
    let period = cfg.burst_period();
    let mut clients = Vec::new();
    let mut background = Vec::new();
    for i in 0..cfg.clients {
        let me = NodeId(base + i as u16);
        let seed = cfg.seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64);
        let mut cc = match cfg.app {
            AppKind::Apache => ClientConfig::apache(me, target, cfg.burst_size, period, seed),
            AppKind::Memcached => ClientConfig::memcached(me, target, cfg.burst_size, period, seed),
        };
        if cfg.poisson {
            cc = cc.with_poisson();
        }
        if let Some(d) = cfg.deadline {
            cc = cc.with_deadline(d);
        }
        if let Some((at, new_load)) = cfg.load_step {
            cc = cc.with_step(desim::SimTime::ZERO + at, cfg.burst_period_at(new_load));
        }
        clients.push(OpenLoopClient::new(cc));
        background.push(false);
    }
    if let Some(bg) = cfg.background {
        let me = NodeId(base + cfg.clients as u16);
        let bg_period =
            desim::SimDuration::from_secs_f64(f64::from(bg.burst_size) / bg.rate.max(1.0));
        let cc = ClientConfig::apache(me, target, bg.burst_size, bg_period, cfg.seed ^ 0xB6)
            .with_workload(Workload::Bulk);
        clients.push(OpenLoopClient::new(cc));
        background.push(true);
    }
    (clients, background)
}

/// Runs one experiment to its horizon and collects the results.
///
/// Deterministic: equal configurations (including seed) produce equal
/// results.
///
/// # Errors
///
/// Returns the [`ConfigError`] from [`ExperimentConfig::validate`] when
/// the configuration is statically invalid.
///
/// # Panics
///
/// Panics when the watchdog runs in [`WatchdogMode::Fail`] (the default)
/// and recorded an invariant violation.
pub fn try_run_experiment(cfg: &ExperimentConfig) -> Result<ExperimentResult, ConfigError> {
    cfg.validate()?;
    let cfg = &armed(cfg);
    // Event tracing wraps the run: the tracer is thread-local and each
    // experiment runs wholly on one thread, so parallel batches trace
    // independently. Tracing never feeds back into the simulation, so
    // results are identical with it on or off.
    if let Some(tc) = cfg.event_trace {
        simtrace::install(tc);
    }
    let (cluster, initial) = assemble(cfg);
    let horizon = SimTime::ZERO + cfg.horizon();
    let mut sim = Simulation::new(cluster);
    if cfg.profile {
        sim.enable_profiling();
    }
    for (t, e) in initial {
        sim.queue_mut().push(t, e);
    }
    sim.run_until(horizon);
    let self_profile = sim.profile();
    let sim_trace = simtrace::uninstall();
    let events_processed = sim.events_processed();
    let now = sim.now();
    let cluster = sim.handler_mut();
    cluster.finalize(now);
    let energy = cluster.measured_energy();
    let latency = LatencySummary::from_histogram(cluster.measured_latencies());
    let (watchdog_checks, invariant_violations) = cluster
        .watchdog()
        .map_or((0, Vec::new()), |w| (w.checks(), w.violations().to_vec()));
    if cfg.watchdog.mode == WatchdogMode::Fail && !invariant_violations.is_empty() {
        let report: Vec<String> = invariant_violations
            .iter()
            .map(ToString::to_string)
            .collect();
        panic!(
            "watchdog recorded {} invariant violation(s):\n{}",
            report.len(),
            report.join("\n")
        );
    }
    // Per-backend energy: whole-run meters scaled by the measured-window
    // share (the warmup is uniform across backends).
    let measure_frac = cfg.measure.as_secs_f64() / cfg.horizon().as_secs_f64();
    // Busy-poll core energy (bypass datapath): the price of spinning in
    // C0 at max P-state regardless of load, attributed like the fleet
    // backend meters (whole-run scaled by the measured-window share).
    // (Folded from +0.0 explicitly: the std float `Sum` identity is
    // -0.0, which would leak into the pinned Debug render.)
    let poll_energy_j: f64 = cluster.servers().iter().fold(0.0, |acc, srv| {
        let p = srv.poll_core_count();
        srv.cores()[..p]
            .iter()
            .fold(acc, |a, c| a + c.energy().total_joules())
    }) * measure_frac;
    let fleet = cluster.fleet_summary().map(|mut s| {
        for (b, srv) in s.backends.iter_mut().zip(cluster.servers()) {
            let mut m = EnergyMeter::new();
            for c in srv.cores() {
                m.merge(c.energy());
            }
            m.merge(srv.uncore_energy());
            b.energy_j = m.total_joules() * measure_frac;
        }
        s
    });
    let servers = cluster.servers();
    let kernel_stats = cluster.kernel_stats();
    let result = ExperimentResult {
        policy: cfg.policy,
        app: cfg.app,
        load_rps: cfg.load_rps,
        latency,
        energy_j: energy.total_joules(),
        poll_energy_j,
        energy,
        offered: cluster.offered_measured(),
        completed: cluster.completed_measured(),
        wake_markers: servers.iter().map(|s| s.wake_marker_times().len()).sum(),
        rx_drops: servers.iter().map(|s| s.nic().rx_drops()).sum(),
        measure: cfg.measure,
        traces: None,
        sim_trace,
        kernel_stats,
        faults: cluster.fault_summary(),
        rejected: kernel_stats.rejected,
        max_queue_depth: servers
            .iter()
            .map(oskernel::Kernel::max_run_queue_depth)
            .max()
            .unwrap_or(0),
        watchdog_checks,
        invariant_violations,
        fleet,
        events_processed,
        breakdown: cfg
            .breakdown
            .then(|| cluster.latency_breakdown(cfg.breakdown_tail)),
        self_profile,
    };
    let traces = sim.into_handler().into_traces();
    Ok(ExperimentResult { traces, ..result })
}

/// Builds the cluster [`try_run_experiment`] would run for `cfg`, with
/// its initial events seeded, for callers that drive the simulation
/// themselves (to inspect state mid-run or at the horizon). Push the
/// events into a [`Simulation`] and run it to `cfg.horizon()`.
///
/// # Errors
///
/// Returns the [`ConfigError`] from [`ExperimentConfig::validate`] when
/// the configuration is statically invalid.
pub fn build_cluster(
    cfg: &ExperimentConfig,
) -> Result<(ClusterSim, Vec<(SimTime, ClusterEvent)>), ConfigError> {
    cfg.validate()?;
    Ok(assemble(&armed(cfg)))
}

/// `cfg` with the reliability layer armed where the run needs it.
///
/// Machine failures are only survivable through the end-to-end
/// reliability layer: retransmissions are what re-pin a dead backend's
/// requests somewhere healthy. Arm it when a failure schedule is present
/// and the caller did not configure retransmissions — before server
/// construction, because `build_server` keys the server's duplicate
/// suppression off the same flag.
fn armed(cfg: &ExperimentConfig) -> ExperimentConfig {
    let mut cfg = cfg.clone();
    if cfg
        .fleet
        .as_ref()
        .is_some_and(|f| f.faults.enabled() || f.domains.enabled())
        && !cfg.faults.retx.enabled
    {
        cfg.faults.retx = netsim::RetxConfig::standard();
    }
    cfg
}

/// Builds the cluster for an armed, validated `cfg` and seeds its initial
/// events.
fn assemble(cfg: &ExperimentConfig) -> (ClusterSim, Vec<(SimTime, ClusterEvent)>) {
    // Node layout: servers first (0..n), then the VIP (fleet runs only),
    // then the clients. Without a fleet this reduces to the historical
    // single-server layout (server 0, clients from 1).
    let n_servers = cfg.fleet.as_ref().map_or(1, |f| f.backends);
    let (target, client_base) = if cfg.fleet.is_some() {
        (NodeId(n_servers as u16), (n_servers + 1) as u16)
    } else {
        (NodeId(0), 1)
    };
    let servers: Vec<Kernel> = (0..n_servers)
        .map(|i| build_server(cfg, NodeId(i as u16)))
        .collect();
    let (clients, background) = build_clients(cfg, target, client_base);
    let mut cluster = ClusterSim::new(servers, clients, background, cfg.trace)
        .expect("a validated config assembles")
        .with_fault_injection(cfg.faults)
        .with_watchdog(Watchdog::new(cfg.watchdog))
        .with_breakdown(cfg.breakdown);
    if let Some(fleet) = &cfg.fleet {
        cluster = cluster.with_fleet(target, fleet);
    }
    // The drain window (ZERO by default) stops client generation early so
    // in-flight work settles before the quiescence check at the horizon.
    let load_end = SimTime::ZERO + cfg.horizon() - cfg.drain;
    let initial = cluster.initial_events(cfg.warmup, load_end);
    (cluster, initial)
}

/// [`try_run_experiment`] for statically valid configurations.
///
/// # Panics
///
/// Panics if `cfg` fails [`ExperimentConfig::validate`], or on an
/// invariant violation under [`WatchdogMode::Fail`].
#[must_use]
pub fn run_experiment(cfg: &ExperimentConfig) -> ExperimentResult {
    match try_run_experiment(cfg) {
        Ok(result) => result,
        Err(e) => panic!("experiment config must validate: {e}"),
    }
}

/// Runs a batch of experiments across OS threads (each simulation is
/// single-threaded and deterministic). Results come back in input order.
#[must_use]
pub fn run_experiments_parallel(configs: &[ExperimentConfig]) -> Vec<ExperimentResult> {
    let threads = std::thread::available_parallelism()
        .map_or(4, std::num::NonZero::get)
        .min(configs.len().max(1));
    run_experiments_on(configs, threads)
}

/// [`run_experiments_parallel`] with an explicit worker-thread count.
/// Results are identical whatever `threads` is — each experiment is a
/// pure function of its config, and results return in input order.
///
/// # Panics
///
/// Panics if `threads` is zero.
#[must_use]
pub fn run_experiments_on(configs: &[ExperimentConfig], threads: usize) -> Vec<ExperimentResult> {
    assert!(threads > 0, "at least one worker thread");
    let mut results: Vec<Option<ExperimentResult>> = Vec::new();
    results.resize_with(configs.len(), || None);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results_mx = std::sync::Mutex::new(&mut results);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= configs.len() {
                    break;
                }
                let r = run_experiment(&configs[i]);
                results_mx.lock().expect("no panics hold the lock")[i] = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index was filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimDuration;

    fn quick(app: AppKind, policy: Policy, load: f64) -> ExperimentConfig {
        ExperimentConfig::new(app, policy, load)
            .with_durations(SimDuration::from_ms(20), SimDuration::from_ms(60))
    }

    #[test]
    fn memcached_perf_completes_requests() {
        let r = run_experiment(&quick(AppKind::Memcached, Policy::Perf, 30_000.0));
        assert!(r.offered > 1_000, "offered {}", r.offered);
        assert!(r.goodput() > 0.95, "goodput {}", r.goodput());
        assert!(r.latency.p95 > 0);
        assert!(r.energy_j > 0.0);
        assert_eq!(r.rx_drops, 0);
    }

    #[test]
    fn apache_perf_completes_requests() {
        let r = run_experiment(&quick(AppKind::Apache, Policy::Perf, 24_000.0));
        assert!(r.goodput() > 0.9, "goodput {}", r.goodput());
        // Apache's disk phase pushes the mean well above a millisecond at
        // burst arrival.
        assert!(r.latency.mean > 300_000.0, "mean {}", r.latency.mean);
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let cfg = quick(AppKind::Memcached, Policy::NcapCons, 35_000.0);
        let a = run_experiment(&cfg);
        let b = run_experiment(&cfg);
        assert_eq!(a.latency.p95, b.latency.p95);
        assert_eq!(a.completed, b.completed);
        assert!((a.energy_j - b.energy_j).abs() < 1e-12);
    }

    #[test]
    fn idle_policy_saves_energy_vs_perf() {
        let perf = run_experiment(&quick(AppKind::Apache, Policy::Perf, 24_000.0));
        let idle = run_experiment(&quick(AppKind::Apache, Policy::PerfIdle, 24_000.0));
        assert!(
            idle.energy_j < perf.energy_j * 0.8,
            "perf.idle {} vs perf {}",
            idle.energy_j,
            perf.energy_j
        );
    }

    #[test]
    fn ncap_uses_proactive_interrupts() {
        let r = run_experiment(&quick(AppKind::Apache, Policy::NcapCons, 24_000.0));
        assert!(r.wake_markers > 0, "NCAP never fired");
    }

    #[test]
    fn parallel_runner_preserves_order() {
        let cfgs = vec![
            quick(AppKind::Memcached, Policy::Perf, 20_000.0),
            quick(AppKind::Memcached, Policy::PerfIdle, 20_000.0),
        ];
        let rs = run_experiments_parallel(&cfgs);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].policy, Policy::Perf);
        assert_eq!(rs[1].policy, Policy::PerfIdle);
        // And matches serial runs exactly.
        let serial = run_experiment(&cfgs[0]);
        assert_eq!(serial.latency.p95, rs[0].latency.p95);
    }
}
