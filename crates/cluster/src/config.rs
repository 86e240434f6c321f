//! Experiment configuration.

use crate::policy::Policy;
use crate::trace::TraceConfig;
use crate::watchdog::WatchdogConfig;
use desim::{ConfigError, SimDuration};
use fleetsim::FleetConfig;
use netsim::FaultConfig;
use oskernel::{Datapath, OverloadConfig};
use std::fmt::Display;
use std::str::FromStr;

/// Which OLDI application the server runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// The IO-intensive web server (paper's Apache).
    Apache,
    /// The memory-bound key-value store (paper's Memcached).
    Memcached,
}

impl AppKind {
    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Apache => "apache",
            AppKind::Memcached => "memcached",
        }
    }

    /// Parses a display name (`apache`, `memcached`).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] listing the accepted names.
    pub fn parse(s: &str) -> Result<Self, ConfigError> {
        [AppKind::Apache, AppKind::Memcached]
            .into_iter()
            .find(|a| a.name() == s)
            .ok_or_else(|| {
                ConfigError::new(
                    "app",
                    format!("unknown app `{s}` (expected apache|memcached)"),
                )
            })
    }

    /// The paper's three evaluated load levels (requests/second):
    /// 24/45/66 K for Apache, 35/127/138 K for Memcached (§6).
    #[must_use]
    pub fn paper_loads(self) -> [f64; 3] {
        match self {
            AppKind::Apache => [24_000.0, 45_000.0, 66_000.0],
            AppKind::Memcached => [35_000.0, 127_000.0, 138_000.0],
        }
    }

    /// The load points (requests/second) of the `perf` latency–load
    /// sweep that places the SLA at the curve's knee (§6). They include
    /// the three [`paper_loads`](Self::paper_loads).
    #[must_use]
    pub fn sla_loads(self) -> [f64; 9] {
        match self {
            AppKind::Apache => [
                12_000.0, 24_000.0, 36_000.0, 45_000.0, 54_000.0, 60_000.0, 66_000.0, 72_000.0,
                78_000.0,
            ],
            AppKind::Memcached => [
                20_000.0, 35_000.0, 60_000.0, 90_000.0, 110_000.0, 127_000.0, 138_000.0, 150_000.0,
                165_000.0,
            ],
        }
    }
}

impl core::fmt::Display for AppKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Non-latency-critical side traffic for the context-awareness ablation
/// (paper §4.1's motivation: off-line analytics streams must not trigger
/// performance boosts): bulk data frames with no request token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackgroundTraffic {
    /// Frames per second.
    pub rate: f64,
    /// Frames per burst.
    pub burst_size: u32,
}

/// One experiment: app × policy × load (+ knobs).
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Server application.
    pub app: AppKind,
    /// Power-management policy.
    pub policy: Policy,
    /// Total offered load across all clients, requests/second.
    pub load_rps: f64,
    /// Number of client nodes (paper: 3).
    pub clients: usize,
    /// Requests per client burst.
    pub burst_size: u32,
    /// Warmup discarded from measurements.
    pub warmup: SimDuration,
    /// Measured interval after warmup.
    pub measure: SimDuration,
    /// Drain window at the tail of the run: clients stop generating load
    /// this long before the horizon so in-flight work can settle. ZERO
    /// (the default) keeps clients generating to the end — byte-identical
    /// to builds without the knob. Chaos scenarios pair a non-zero drain
    /// with [`WatchdogConfig::expect_quiescence`].
    pub drain: SimDuration,
    /// Master seed; every derived RNG hangs off it.
    pub seed: u64,
    /// Ondemand invocation period (paper default 10 ms; Figure 2 sweeps
    /// it down to 1 ms).
    pub ondemand_period: SimDuration,
    /// Optional NCAP config override (ablations); `None` uses the
    /// policy's own.
    pub ncap_override: Option<ncap::NcapConfig>,
    /// Optional bandwidth/frequency tracing.
    pub trace: Option<TraceConfig>,
    /// Optional structured event tracing: install a `simtrace` tracer
    /// for the run and attach the collected [`simtrace::TraceData`] to
    /// the result (Perfetto/CSV export). [`ExperimentConfig::new`] sets
    /// the default tracer when the `NCAP_TRACE` environment variable is
    /// set (the bench/CI smoke harness); the runner reads this field
    /// alone, so `None` always means untraced.
    pub event_trace: Option<simtrace::TracerConfig>,
    /// Optional background traffic from an extra client.
    pub background: Option<BackgroundTraffic>,
    /// Enable the paper's §7 per-core boost extension (multi-queue NICs).
    pub per_core_boost: bool,
    /// Use the ladder cpuidle governor instead of menu (paper §2.1
    /// describes both; menu is the Linux default the paper evaluates).
    pub use_ladder: bool,
    /// Optional load step: from this offset into the run, clients switch
    /// to the new total offered load (requests/second).
    pub load_step: Option<(SimDuration, f64)>,
    /// Put a TCP offload engine on the server NIC (§7 discussion).
    pub toe: bool,
    /// RSS receive queues on the server NIC (1 = the paper's evaluated
    /// single-queue 82574; >1 activates the §7 multi-queue extension).
    pub nic_queues: usize,
    /// Smooth Poisson arrivals instead of periodic bursts (burstiness
    /// ablation; same offered rate).
    pub poisson: bool,
    /// Network fault injection (lossy/jittery links) and the end-to-end
    /// retransmission layer. [`FaultConfig::none`] (the default) is inert:
    /// the fabric stays lossless and results are bit-identical to builds
    /// without the fault subsystem.
    pub faults: FaultConfig,
    /// Overrides the server NIC RX-ring depth (descriptor count). `None`
    /// keeps the 82574-like default; small values force RX-overrun drops
    /// under bursts (the overflow-recovery scenario).
    pub rx_ring_override: Option<usize>,
    /// Server-side overload protection: queue capacities and the
    /// admission/shedding policy. [`OverloadConfig::off`] (the default)
    /// is inert and byte-identical to builds without the subsystem.
    pub overload: OverloadConfig,
    /// Optional end-to-end deadline clients stamp on every request
    /// (meaningful under [`oskernel::ShedPolicy::Deadline`]).
    pub deadline: Option<SimDuration>,
    /// Runtime invariant watchdog (period and violation handling). The
    /// runner always installs it; [`WatchdogConfig::default`] fails the
    /// run on any violation.
    pub watchdog: WatchdogConfig,
    /// Optional fleet topology: front `FleetConfig::backends` servers
    /// with an L4 load balancer (clients address the VIP) and, when the
    /// embedded coordinator is set, park/unpark backends with load.
    pub fleet: Option<FleetConfig>,
    /// Collect the full-population per-stage latency breakdown
    /// ([`ExperimentResult::breakdown`](crate::runner::ExperimentResult)).
    /// The path stamps are written regardless, so on vs off is
    /// bit-identical on simulated results; off only skips the
    /// client-side accumulation.
    pub breakdown: bool,
    /// Percentile the breakdown's tail view conditions on.
    pub breakdown_tail: f64,
    /// Enable the simulator's wall-clock self-profiler for this run
    /// ([`ExperimentResult::self_profile`](crate::runner::ExperimentResult)).
    /// Host-dependent readings, outside the determinism contract; never
    /// changes a simulated result.
    pub profile: bool,
    /// Which network datapath the servers run: the interrupt-driven
    /// kernel stack (default, observer-effect-free), DPDK-style busy-poll
    /// bypass, or the kernel stack with the NCAP engine offloaded to the
    /// NIC.
    pub datapath: Datapath,
    /// Busy-poll cores per server ([`Datapath::Bypass`] only).
    pub poll_cores: u8,
}

/// `true` when the `NCAP_TRACE` environment variable requests event
/// tracing for every experiment (used by the bench/CI smoke harness).
fn env_trace_enabled() -> bool {
    static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var("NCAP_TRACE").is_ok_and(|v| !v.is_empty() && v != "0"))
}

impl ExperimentConfig {
    /// A standard paper-setup experiment: 3 clients, 200-request bursts
    /// (§5: "e.g., 200 requests per burst"), 100 ms warmup, 400 ms
    /// measurement.
    #[must_use]
    pub fn new(app: AppKind, policy: Policy, load_rps: f64) -> Self {
        ExperimentConfig {
            app,
            policy,
            load_rps,
            clients: 3,
            burst_size: 200,
            warmup: SimDuration::from_ms(100),
            measure: SimDuration::from_ms(400),
            drain: SimDuration::ZERO,
            seed: DEFAULT_SEED,
            ondemand_period: SimDuration::from_ms(10),
            ncap_override: None,
            trace: None,
            event_trace: env_trace_enabled().then(simtrace::TracerConfig::default),
            background: None,
            per_core_boost: false,
            use_ladder: false,
            load_step: None,
            toe: false,
            nic_queues: 1,
            poisson: false,
            faults: FaultConfig::none(),
            rx_ring_override: None,
            overload: OverloadConfig::off(),
            deadline: None,
            watchdog: WatchdogConfig::default(),
            fleet: None,
            breakdown: true,
            breakdown_tail: 99.0,
            profile: false,
            datapath: Datapath::Kernel,
            poll_cores: 1,
        }
    }

    /// Selects the network datapath (builder style).
    #[must_use]
    pub fn with_datapath(mut self, datapath: Datapath) -> Self {
        self.datapath = datapath;
        self
    }

    /// Sets the busy-poll core count for [`Datapath::Bypass`] (builder
    /// style; default 1).
    #[must_use]
    pub fn with_poll_cores(mut self, n: u8) -> Self {
        self.poll_cores = n;
        self
    }

    /// Enables or disables per-stage breakdown collection (builder
    /// style; on by default).
    #[must_use]
    pub fn with_breakdown(mut self, enabled: bool) -> Self {
        self.breakdown = enabled;
        self
    }

    /// Sets the percentile the breakdown's tail view conditions on
    /// (builder style; 99.0 by default).
    #[must_use]
    pub fn with_breakdown_tail(mut self, percentile: f64) -> Self {
        self.breakdown_tail = percentile;
        self
    }

    /// Turns on the wall-clock self-profiler for this run (builder
    /// style; off by default).
    #[must_use]
    pub fn with_profile(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Overrides warmup and measurement durations (builder style).
    #[must_use]
    pub fn with_durations(mut self, warmup: SimDuration, measure: SimDuration) -> Self {
        self.warmup = warmup;
        self.measure = measure;
        self
    }

    /// Overrides the seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the ondemand invocation period (builder style).
    #[must_use]
    pub fn with_ondemand_period(mut self, period: SimDuration) -> Self {
        self.ondemand_period = period;
        self
    }

    /// Overrides the NCAP configuration (builder style).
    #[must_use]
    pub fn with_ncap_override(mut self, cfg: ncap::NcapConfig) -> Self {
        self.ncap_override = Some(cfg);
        self
    }

    /// Enables tracing (builder style).
    #[must_use]
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Enables structured event tracing (builder style).
    #[must_use]
    pub fn with_event_trace(mut self, config: simtrace::TracerConfig) -> Self {
        self.event_trace = Some(config);
        self
    }

    /// Adds background traffic (builder style).
    #[must_use]
    pub fn with_background(mut self, bg: BackgroundTraffic) -> Self {
        self.background = Some(bg);
        self
    }

    /// Enables per-core boost (builder style, §7 extension).
    #[must_use]
    pub fn with_per_core_boost(mut self) -> Self {
        self.per_core_boost = true;
        self
    }

    /// Swaps the cpuidle governor to ladder (builder style).
    #[must_use]
    pub fn with_ladder(mut self) -> Self {
        self.use_ladder = true;
        self
    }

    /// Schedules a sudden load change at `at` into the run (builder
    /// style) — the paper's §1 motivating scenario.
    #[must_use]
    pub fn with_load_step(mut self, at: SimDuration, new_load_rps: f64) -> Self {
        self.load_step = Some((at, new_load_rps));
        self
    }

    /// Puts a TCP offload engine on the server NIC (builder style, §7).
    #[must_use]
    pub fn with_toe(mut self) -> Self {
        self.toe = true;
        self
    }

    /// Gives the server NIC `queues` RSS queues (builder style, §7;
    /// [`validate`](Self::validate) rejects zero).
    #[must_use]
    pub fn with_nic_queues(mut self, queues: usize) -> Self {
        self.nic_queues = queues;
        self
    }

    /// Injects network faults (builder style). A config with
    /// [`RetxConfig`](netsim::RetxConfig) enabled also turns on the
    /// client retransmission timers and the server's duplicate
    /// suppression.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Overrides the server NIC's RX-ring depth (builder style;
    /// [`validate`](Self::validate) rejects zero).
    #[must_use]
    pub fn with_rx_ring(mut self, descriptors: usize) -> Self {
        self.rx_ring_override = Some(descriptors);
        self
    }

    /// Switches clients to smooth Poisson arrivals (builder style).
    #[must_use]
    pub fn with_poisson(mut self) -> Self {
        self.poisson = true;
        self
    }

    /// Configures server-side overload protection (builder style).
    #[must_use]
    pub fn with_overload(mut self, overload: OverloadConfig) -> Self {
        self.overload = overload;
        self
    }

    /// Stamps every client request with an end-to-end deadline (builder
    /// style).
    #[must_use]
    pub fn with_deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Overrides the watchdog configuration (builder style).
    #[must_use]
    pub fn with_watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Sets the tail drain window (builder style): clients stop
    /// generating this long before the horizon.
    #[must_use]
    pub fn with_drain(mut self, drain: SimDuration) -> Self {
        self.drain = drain;
        self
    }

    /// Fronts the servers with an L4 load balancer (builder style): the
    /// run gets `fleet.backends` server nodes behind one VIP, and
    /// clients address the VIP instead of a server.
    #[must_use]
    pub fn with_fleet(mut self, fleet: FleetConfig) -> Self {
        self.fleet = Some(fleet);
        self
    }

    /// Per-client burst period that realizes `load_rps` across all
    /// clients. Callers should [`validate`](Self::validate) first; with a
    /// non-positive load the result is meaningless (but does not panic).
    #[must_use]
    pub fn burst_period(&self) -> SimDuration {
        self.burst_period_at(self.load_rps)
    }

    /// Per-client burst period that realizes `rps` across all clients
    /// (the base load, or a load step's). [`validate`](Self::validate)
    /// rejects a load whose period rounds to zero.
    #[must_use]
    pub fn burst_period_at(&self, rps: f64) -> SimDuration {
        let per_client = rps / (self.clients.max(1)) as f64;
        SimDuration::from_secs_f64(f64::from(self.burst_size) / per_client.max(f64::MIN_POSITIVE))
    }

    /// End of the simulated interval (warmup + measurement).
    #[must_use]
    pub fn horizon(&self) -> SimDuration {
        self.warmup + self.measure
    }

    /// Validates the experiment configuration, including the embedded
    /// [`FaultConfig`].
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.load_rps <= 0.0 || !self.load_rps.is_finite() {
            return Err(ConfigError::new(
                "load_rps",
                format!(
                    "offered load must be positive and finite, got {}",
                    self.load_rps
                ),
            ));
        }
        if let Some((_, rps)) = self.load_step {
            if rps <= 0.0 || !rps.is_finite() {
                return Err(ConfigError::new(
                    "load_step",
                    format!("the stepped load must be positive and finite, got {rps}"),
                ));
            }
        }
        if self.clients == 0 {
            return Err(ConfigError::new("clients", "at least one client required"));
        }
        if self.burst_size == 0 {
            return Err(ConfigError::new(
                "burst_size",
                "bursts must carry at least one request",
            ));
        }
        // A period that rounds to 0 ns fires every burst at one instant,
        // and the event queue grows until memory runs out.
        let loads = [("load_rps", self.load_rps)]
            .into_iter()
            .chain(self.load_step.map(|(_, rps)| ("load_step", rps)));
        for (field, rps) in loads {
            if self.burst_period_at(rps).is_zero() {
                return Err(ConfigError::new(
                    field,
                    format!(
                        "{rps:e} rps over {} clients in bursts of {} leaves a burst period \
                         under 1 ns",
                        self.clients, self.burst_size
                    ),
                ));
            }
        }
        if self.nic_queues == 0 {
            return Err(ConfigError::new(
                "nic_queues",
                "a NIC needs at least one queue",
            ));
        }
        if self.rx_ring_override == Some(0) {
            return Err(ConfigError::new(
                "rx_ring_override",
                "an RX ring needs at least one descriptor",
            ));
        }
        if self.measure.is_zero() {
            return Err(ConfigError::new(
                "measure",
                "the measured window must be positive",
            ));
        }
        let horizon = self.warmup.as_nanos().checked_add(self.measure.as_nanos());
        if horizon.is_none_or(|ns| ns > MAX_HORIZON.as_nanos()) {
            return Err(ConfigError::new(
                "horizon",
                format!(
                    "warmup {} + measure {} must not exceed {MAX_HORIZON} of simulated time",
                    self.warmup, self.measure
                ),
            ));
        }
        if self.drain >= self.horizon() {
            return Err(ConfigError::new(
                "drain",
                format!(
                    "drain window {} must leave room for load before the horizon {}",
                    self.drain,
                    self.horizon()
                ),
            ));
        }
        match self.datapath {
            Datapath::Bypass => {
                if self.policy.is_ncap() {
                    return Err(ConfigError::new(
                        "datapath",
                        format!(
                            "policy {} needs the interrupt path; bypass has none \
                             (use --datapath offload for on-NIC NCAP)",
                            self.policy
                        ),
                    ));
                }
                // The runner builds 4-core servers (Table 1); at least
                // one core must stay on the application side.
                if self.poll_cores == 0 || self.poll_cores >= 4 {
                    return Err(ConfigError::new(
                        "poll_cores",
                        format!(
                            "busy-poll cores must be in 1..4 on a 4-core server, got {}",
                            self.poll_cores
                        ),
                    ));
                }
            }
            Datapath::Offload => {
                if !self.policy.uses_ncap_hardware() {
                    return Err(ConfigError::new(
                        "datapath",
                        format!(
                            "offload runs the NCAP engine on the NIC: policy {} has no \
                             NCAP hardware to offload",
                            self.policy
                        ),
                    ));
                }
            }
            Datapath::Kernel => {}
        }
        if !(0.0..100.0).contains(&self.breakdown_tail) {
            return Err(ConfigError::new(
                "breakdown_tail",
                format!(
                    "the tail percentile must be in [0, 100), got {}",
                    self.breakdown_tail
                ),
            ));
        }
        if self.trace.is_some_and(|t| t.window.is_zero()) {
            return Err(ConfigError::new(
                "trace",
                "the figure-trace window must be positive",
            ));
        }
        if let Some(t) = &self.event_trace {
            if t.capacity == 0 || t.window_ns == 0 {
                return Err(ConfigError::new(
                    "event_trace",
                    "the event ring and the metrics window must be positive",
                ));
            }
        }
        if let Some(ncap) = &self.ncap_override {
            ncap.validate()?;
        }
        self.faults.validate()?;
        if let Some(fleet) = &self.fleet {
            fleet.validate()?;
        }
        Ok(())
    }
}

/// The longest simulated run [`ExperimentConfig::validate`] accepts:
/// one hour. The longest in-tree run simulates 8.1 s, and a horizon
/// near the clock's end would never finish.
pub const MAX_HORIZON: SimDuration = SimDuration::from_secs(3600);

/// The default master seed: "NCAP" in ASCII.
pub const DEFAULT_SEED: u64 = 0x4E43_4150;

/// The next token of a command line or scenario-file record, or an error
/// naming `field` when the input ends first.
///
/// # Errors
///
/// Returns a [`ConfigError`] for `field` if `it` is exhausted.
pub fn token<'a>(
    field: &'static str,
    it: &mut impl Iterator<Item = &'a str>,
) -> Result<&'a str, ConfigError> {
    it.next()
        .ok_or_else(|| ConfigError::new(field, "missing value"))
}

/// The next token parsed as a `T`: the one text-to-value conversion that
/// `ncap` flags and chaos scenario files share.
///
/// # Errors
///
/// Returns a [`ConfigError`] for `field` if `it` is exhausted or the
/// token does not parse.
pub fn value<'a, T: FromStr>(
    field: &'static str,
    it: &mut impl Iterator<Item = &'a str>,
) -> Result<T, ConfigError>
where
    T::Err: Display,
{
    let text = token(field, it)?;
    text.parse()
        .map_err(|e| ConfigError::new(field, format!("cannot parse {text:?}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_period_matches_load() {
        let cfg = ExperimentConfig::new(AppKind::Apache, Policy::Perf, 24_000.0);
        // 3 clients × 200 req / period = 24 K rps → period = 25 ms.
        assert_eq!(cfg.burst_period(), SimDuration::from_ms(25));
        // Paper §5: periods range from ~1.3 to ~20 ms depending on load;
        // with 200-request bursts our loads land in 4.3–25 ms.
        for app in [AppKind::Apache, AppKind::Memcached] {
            for load in app.paper_loads() {
                let p = ExperimentConfig::new(app, Policy::Perf, load).burst_period();
                assert!(p >= SimDuration::from_ms(1), "{app} {load}: {p}");
                assert!(p <= SimDuration::from_ms(25), "{app} {load}: {p}");
            }
        }
    }

    #[test]
    fn horizon_sums() {
        let cfg = ExperimentConfig::new(AppKind::Apache, Policy::Perf, 10_000.0)
            .with_durations(SimDuration::from_ms(10), SimDuration::from_ms(30));
        assert_eq!(cfg.horizon(), SimDuration::from_ms(40));
    }

    #[test]
    fn sla_loads_cover_paper_points() {
        for app in [AppKind::Apache, AppKind::Memcached] {
            for p in app.paper_loads() {
                assert!(app.sla_loads().contains(&p), "missing {app} paper load {p}");
            }
        }
    }

    #[test]
    fn app_names_parse_back() {
        for app in [AppKind::Apache, AppKind::Memcached] {
            assert_eq!(AppKind::parse(app.name()), Ok(app));
        }
        let err = AppKind::parse("nginx").unwrap_err();
        assert_eq!(err.field, "app");
        assert!(err.reason.contains("apache|memcached"), "{err}");
    }

    #[test]
    fn paper_load_levels() {
        assert_eq!(AppKind::Apache.paper_loads()[2], 66_000.0);
        assert_eq!(AppKind::Memcached.paper_loads()[2], 138_000.0);
    }

    #[test]
    fn builders_chain() {
        let cfg = ExperimentConfig::new(AppKind::Memcached, Policy::NcapAggr, 35_000.0)
            .with_seed(9)
            .with_ondemand_period(SimDuration::from_ms(1))
            .with_faults(FaultConfig::lossy(0.01, 7))
            .with_rx_ring(32);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.ondemand_period, SimDuration::from_ms(1));
        assert_eq!(cfg.faults.loss, 0.01);
        assert_eq!(cfg.rx_ring_override, Some(32));
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn defaults_are_faultless_and_valid() {
        let cfg = ExperimentConfig::new(AppKind::Apache, Policy::Perf, 24_000.0);
        assert!(cfg.faults.is_off());
        assert_eq!(cfg.rx_ring_override, None);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_names_offending_fields() {
        let base = ExperimentConfig::new(AppKind::Apache, Policy::Perf, 24_000.0);
        let mut c = base.clone();
        c.load_rps = 0.0;
        assert_eq!(c.validate().unwrap_err().field, "load_rps");
        let mut c = base.clone();
        c.clients = 0;
        assert_eq!(c.validate().unwrap_err().field, "clients");
        let c = base.clone().with_nic_queues(0);
        assert_eq!(c.validate().unwrap_err().field, "nic_queues");
        let c = base.clone().with_rx_ring(0);
        assert_eq!(c.validate().unwrap_err().field, "rx_ring_override");
        let c = base
            .clone()
            .with_durations(SimDuration::from_ms(5), SimDuration::ZERO);
        assert_eq!(c.validate().unwrap_err().field, "measure");
        let c = base
            .clone()
            .with_durations(SimDuration::from_nanos(u64::MAX), SimDuration::from_ms(1));
        assert_eq!(c.validate().unwrap_err().field, "horizon");
        let c = base
            .clone()
            .with_durations(SimDuration::ZERO, MAX_HORIZON + SimDuration::from_nanos(1));
        assert_eq!(c.validate().unwrap_err().field, "horizon");
        let c = base.clone().with_durations(SimDuration::ZERO, MAX_HORIZON);
        assert!(c.validate().is_ok());
        for rps in [0.0, -5.0, f64::NAN, f64::INFINITY, 1e308] {
            let c = base.clone().with_load_step(SimDuration::from_ms(1), rps);
            assert_eq!(c.validate().unwrap_err().field, "load_step", "{rps}");
        }
        let c = base.clone().with_breakdown_tail(100.0);
        assert_eq!(c.validate().unwrap_err().field, "breakdown_tail");
        let mut c = base.clone();
        c.event_trace = Some(simtrace::TracerConfig {
            window_ns: 0,
            ..simtrace::TracerConfig::default()
        });
        assert_eq!(c.validate().unwrap_err().field, "event_trace");
        let c = base.clone().with_trace(TraceConfig {
            window: SimDuration::ZERO,
        });
        assert_eq!(c.validate().unwrap_err().field, "trace");
        let c = base
            .clone()
            .with_ncap_override(ncap::NcapConfig::paper_defaults().with_fcons(0));
        assert_eq!(c.validate().unwrap_err().field, "fcons");
        let inverted = ncap::NcapConfig::paper_defaults().with_thresholds(5e3, 35e3, 5e6);
        let c = base.clone().with_ncap_override(inverted);
        assert_eq!(c.validate().unwrap_err().field, "rlt_rps");
        let mut bad_faults = FaultConfig::lossy(0.01, 1);
        bad_faults.loss = 1.5;
        let c = base.with_faults(bad_faults);
        assert_eq!(c.validate().unwrap_err().field, "loss");
    }

    /// A load whose per-client burst period rounds to 0 ns would fire
    /// every burst at one instant; the largest load with a 1 ns period
    /// is still accepted.
    #[test]
    fn load_is_bounded_by_the_burst_period() {
        let base = ExperimentConfig::new(AppKind::Memcached, Policy::Perf, 24_000.0);
        for rps in [1e308, f64::MAX] {
            let mut c = base.clone();
            c.load_rps = rps;
            assert_eq!(c.validate().unwrap_err().field, "load_rps", "{rps}");
        }
        // 3 clients × 200-request bursts every 1 ns.
        let mut c = base.clone();
        c.load_rps = 3.0 * 200.0 * 1e9;
        assert_eq!(c.burst_period(), SimDuration::from_nanos(1));
        assert!(c.validate().is_ok());
        c.load_rps *= 4.0;
        assert!(c.burst_period().is_zero());
        assert_eq!(c.validate().unwrap_err().field, "load_rps");
    }

    #[test]
    fn fleet_config_is_validated_too() {
        let base = ExperimentConfig::new(AppKind::Memcached, Policy::Perf, 10_000.0);
        let good = base
            .clone()
            .with_fleet(FleetConfig::new(4, fleetsim::DispatchPolicy::Packing));
        assert!(good.validate().is_ok());
        let bad = base.with_fleet(FleetConfig::new(0, fleetsim::DispatchPolicy::RoundRobin));
        assert_eq!(bad.validate().unwrap_err().field, "backends");
    }
}
