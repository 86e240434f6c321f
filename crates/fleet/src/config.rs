//! Fleet topology and coordinator configuration.

use crate::faults::{DomainSchedule, FailureSchedule, HealthConfig};
use desim::{ConfigError, SimDuration};

/// How the load balancer picks a backend for a new request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DispatchPolicy {
    /// Cycle through the in-rotation backends in index order.
    #[default]
    RoundRobin,
    /// Join the shortest queue: the in-rotation backend with the fewest
    /// requests the LB has forwarded but not yet seen answered (ties go
    /// to the lowest index). The count is the LB's own ledger — exactly
    /// what a real L4 balancer can observe without backend cooperation.
    LeastOutstanding,
    /// Power-aware packing: fill the lowest-numbered backend until its
    /// outstanding count reaches the spill threshold, then the next one,
    /// so high-numbered backends see no traffic and sink into deep
    /// C-states (or get parked by the coordinator). Falls back to
    /// least-outstanding once every backend is at the threshold.
    Packing,
}

impl DispatchPolicy {
    /// All policies, in display order.
    pub const ALL: [DispatchPolicy; 3] = [
        DispatchPolicy::RoundRobin,
        DispatchPolicy::LeastOutstanding,
        DispatchPolicy::Packing,
    ];

    /// CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DispatchPolicy::RoundRobin => "rr",
            DispatchPolicy::LeastOutstanding => "jsq",
            DispatchPolicy::Packing => "pack",
        }
    }

    /// Parses a CLI name (`rr`, `jsq`, `pack`).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] listing the accepted names.
    pub fn parse(s: &str) -> Result<Self, ConfigError> {
        Self::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| {
                ConfigError::new(
                    "dispatch",
                    format!("unknown dispatch policy `{s}` (expected rr|jsq|pack)"),
                )
            })
    }
}

impl core::fmt::Display for DispatchPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// The largest fleet [`FleetConfig::validate`] accepts: 16× the
/// 64-backend scenarios, and far inside the `u16` node-id space the
/// backends share with the VIP and the clients.
pub const MAX_BACKENDS: usize = 1024;

/// Fleet topology: backend count, dispatch policy, LB service time, and
/// the optional power coordinator.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of backend servers behind the VIP.
    pub backends: usize,
    /// Dispatch policy for new requests.
    pub dispatch: DispatchPolicy,
    /// [`DispatchPolicy::Packing`] spill threshold: a backend accepts new
    /// requests while its outstanding count is below this.
    pub pack_spill: usize,
    /// Per-frame forwarding latency through the LB (lookup + rewrite).
    /// Modelled as a fixed service delay on top of switch transit.
    pub lb_latency: SimDuration,
    /// The fleet power coordinator; `None` keeps every backend in
    /// rotation for the whole run.
    pub coordinator: Option<CoordinatorConfig>,
    /// Scheduled backend failures; empty (the default) is completely
    /// inert.
    pub faults: FailureSchedule,
    /// Scheduled correlated failure domains (rack/switch-level partition
    /// or brownout windows); empty (the default) is completely inert.
    pub domains: DomainSchedule,
    /// LB health-prober policy. `None` arms the standard policy when a
    /// failure schedule is present (see
    /// [`effective_health`](Self::effective_health)) and nothing
    /// otherwise, keeping failure-free runs byte-identical.
    pub health: Option<HealthConfig>,
    /// Test-only hook: deliberately mis-count the LB's `failed_over`
    /// ledger column so the chaos campaign's conservation oracle has a
    /// known bug to catch and shrink. Never set outside tests.
    #[doc(hidden)]
    pub ledger_skew_for_test: bool,
}

impl FleetConfig {
    /// A fleet of `backends` servers under `dispatch`, no coordinator.
    #[must_use]
    pub fn new(backends: usize, dispatch: DispatchPolicy) -> Self {
        FleetConfig {
            backends,
            dispatch,
            pack_spill: 32,
            lb_latency: SimDuration::from_us(2),
            coordinator: None,
            faults: FailureSchedule::none(),
            domains: DomainSchedule::none(),
            health: None,
            ledger_skew_for_test: false,
        }
    }

    /// Overrides the packing spill threshold (builder style).
    #[must_use]
    pub fn with_pack_spill(mut self, spill: usize) -> Self {
        self.pack_spill = spill;
        self
    }

    /// Enables the fleet power coordinator (builder style).
    #[must_use]
    pub fn with_coordinator(mut self, coordinator: CoordinatorConfig) -> Self {
        self.coordinator = Some(coordinator);
        self
    }

    /// Schedules backend failures (builder style).
    #[must_use]
    pub fn with_faults(mut self, faults: FailureSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// Schedules correlated failure-domain windows (builder style).
    #[must_use]
    pub fn with_domains(mut self, domains: DomainSchedule) -> Self {
        self.domains = domains;
        self
    }

    /// Arms the LB health prober explicitly (builder style).
    #[must_use]
    pub fn with_health(mut self, health: HealthConfig) -> Self {
        self.health = Some(health);
        self
    }

    /// Arms the deliberate `failed_over` ledger mis-count (test-only; see
    /// the field doc).
    #[doc(hidden)]
    #[must_use]
    pub fn with_ledger_skew_for_test(mut self) -> Self {
        self.ledger_skew_for_test = true;
        self
    }

    /// The health-prober policy actually in force: an explicit
    /// [`with_health`](Self::with_health) wins; otherwise the standard
    /// policy is armed exactly when failures are scheduled, so a
    /// failure-free fleet runs with no prober at all.
    #[must_use]
    pub fn effective_health(&self) -> Option<HealthConfig> {
        match self.health {
            Some(h) => Some(h),
            None if self.faults.enabled() || self.domains.enabled() => {
                Some(HealthConfig::standard())
            }
            None => None,
        }
    }

    /// Validates the fleet configuration (including the coordinator's).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.backends == 0 {
            return Err(ConfigError::new(
                "backends",
                "a fleet needs at least one backend",
            ));
        }
        if self.backends > MAX_BACKENDS {
            return Err(ConfigError::new(
                "backends",
                format!(
                    "{} backends exceed the limit of {MAX_BACKENDS}",
                    self.backends
                ),
            ));
        }
        if self.pack_spill == 0 {
            return Err(ConfigError::new(
                "pack_spill",
                "the packing threshold must admit at least one request",
            ));
        }
        self.faults.validate(self.backends)?;
        self.domains.validate(self.backends)?;
        if let Some(h) = &self.health {
            h.validate()?;
        }
        if let Some(c) = &self.coordinator {
            c.validate()?;
            if c.min_active > self.backends {
                return Err(ConfigError::new(
                    "min_active",
                    format!(
                        "cannot keep {} backends active in a fleet of {}",
                        c.min_active, self.backends
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// The fleet power coordinator: an ondemand-style epoch controller that
/// sizes the active backend set to the observed load.
///
/// Every [`epoch`](Self::epoch) it computes a load estimate (EMA of the
/// LB's request arrival rate) and a target active count
/// `ceil(rate / (per_backend_rps × util_target))`, clamped to
/// `[min_active, backends]`. Excess backends are drained (no new
/// dispatch; pinned retransmissions still flow) and parked once their
/// in-flight work completes; missing capacity is restored by unparking,
/// lowest index first. Transitions take [`park_latency`] /
/// [`unpark_latency`](Self::unpark_latency) and draw
/// [`park_power_w`] / [`unpark_power_w`](Self::unpark_power_w),
/// accounted on the coordinator's own [`cpusim::EnergyMeter`].
///
/// [`park_latency`]: Self::park_latency
/// [`park_power_w`]: Self::park_power_w
#[derive(Debug, Clone, PartialEq)]
pub struct CoordinatorConfig {
    /// Evaluation period (ondemand-style; the per-node governor default
    /// is 10 ms and the coordinator mirrors it).
    pub epoch: SimDuration,
    /// Capacity estimate: requests/second one backend serves at its
    /// saturation knee.
    pub per_backend_rps: f64,
    /// Sizing headroom: backends are provisioned so each runs at this
    /// fraction of `per_backend_rps`.
    pub util_target: f64,
    /// Lower bound on the committed (active + unparking) backend count.
    pub min_active: usize,
    /// Consecutive low-load epochs required before parking (hysteresis
    /// against burst-scale flapping).
    pub park_patience: u32,
    /// Drain-complete → parked transition latency.
    pub park_latency: SimDuration,
    /// Parked → active transition latency (resume is slower than
    /// suspend, as with S-state exits).
    pub unpark_latency: SimDuration,
    /// Power drawn during the park transition.
    pub park_power_w: f64,
    /// Power drawn during the unpark transition.
    pub unpark_power_w: f64,
    /// EMA smoothing factor for the arrival-rate estimate, in `(0, 1]`
    /// (1 = no smoothing).
    pub ema_alpha: f64,
}

impl CoordinatorConfig {
    /// A coordinator sized for backends that saturate at
    /// `per_backend_rps`, with the default epoch and transition costs.
    #[must_use]
    pub fn new(per_backend_rps: f64) -> Self {
        CoordinatorConfig {
            epoch: SimDuration::from_ms(10),
            per_backend_rps,
            util_target: 0.6,
            min_active: 1,
            park_patience: 2,
            park_latency: SimDuration::from_ms(1),
            unpark_latency: SimDuration::from_ms(2),
            park_power_w: 4.0,
            unpark_power_w: 9.0,
            ema_alpha: 0.5,
        }
    }

    /// Overrides the evaluation epoch (builder style).
    #[must_use]
    pub fn with_epoch(mut self, epoch: SimDuration) -> Self {
        self.epoch = epoch;
        self
    }

    /// Overrides the sizing headroom (builder style).
    #[must_use]
    pub fn with_util_target(mut self, util: f64) -> Self {
        self.util_target = util;
        self
    }

    /// Overrides the minimum committed backend count (builder style).
    #[must_use]
    pub fn with_min_active(mut self, min_active: usize) -> Self {
        self.min_active = min_active;
        self
    }

    /// Overrides the park hysteresis (builder style).
    #[must_use]
    pub fn with_park_patience(mut self, epochs: u32) -> Self {
        self.park_patience = epochs;
        self
    }

    /// Validates the coordinator configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.epoch.is_zero() {
            return Err(ConfigError::new("epoch", "the epoch must be positive"));
        }
        if self.per_backend_rps <= 0.0 || !self.per_backend_rps.is_finite() {
            return Err(ConfigError::new(
                "per_backend_rps",
                format!(
                    "backend capacity must be positive and finite, got {}",
                    self.per_backend_rps
                ),
            ));
        }
        if !(self.util_target > 0.0 && self.util_target <= 1.0) {
            return Err(ConfigError::new(
                "util_target",
                format!(
                    "utilization target must be in (0, 1], got {}",
                    self.util_target
                ),
            ));
        }
        if self.min_active == 0 {
            return Err(ConfigError::new(
                "min_active",
                "at least one backend must stay active",
            ));
        }
        if self.park_patience == 0 {
            return Err(ConfigError::new(
                "park_patience",
                "parking requires at least one observation epoch",
            ));
        }
        if !(self.ema_alpha > 0.0 && self.ema_alpha <= 1.0) {
            return Err(ConfigError::new(
                "ema_alpha",
                format!("EMA factor must be in (0, 1], got {}", self.ema_alpha),
            ));
        }
        if !(self.park_power_w >= 0.0 && self.park_power_w.is_finite()) {
            return Err(ConfigError::new(
                "park_power_w",
                "transition power must be finite and non-negative",
            ));
        }
        if !(self.unpark_power_w >= 0.0 && self.unpark_power_w.is_finite()) {
            return Err(ConfigError::new(
                "unpark_power_w",
                "transition power must be finite and non-negative",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_names_roundtrip() {
        for p in DispatchPolicy::ALL {
            assert_eq!(DispatchPolicy::parse(p.name()), Ok(p));
            assert_eq!(p.to_string(), p.name());
        }
        let err = DispatchPolicy::parse("p2c").unwrap_err();
        assert_eq!(err.field, "dispatch");
        assert!(err.reason.contains("rr|jsq|pack"), "{err}");
    }

    #[test]
    fn fleet_defaults_validate() {
        for p in DispatchPolicy::ALL {
            for n in 1..=8 {
                assert!(FleetConfig::new(n, p).validate().is_ok());
            }
        }
    }

    #[test]
    fn fleet_validation_names_offending_fields() {
        let err = |c: FleetConfig| c.validate().unwrap_err().field;
        assert_eq!(
            err(FleetConfig::new(0, DispatchPolicy::RoundRobin)),
            "backends"
        );
        assert!(FleetConfig::new(MAX_BACKENDS, DispatchPolicy::RoundRobin)
            .validate()
            .is_ok());
        for n in [MAX_BACKENDS + 1, 10_000_000, usize::MAX] {
            assert_eq!(
                err(FleetConfig::new(n, DispatchPolicy::RoundRobin)),
                "backends"
            );
        }
        assert_eq!(
            err(FleetConfig::new(2, DispatchPolicy::Packing).with_pack_spill(0)),
            "pack_spill"
        );
        let over_min = FleetConfig::new(2, DispatchPolicy::RoundRobin)
            .with_coordinator(CoordinatorConfig::new(100_000.0).with_min_active(3));
        assert_eq!(err(over_min), "min_active");
    }

    #[test]
    fn health_arms_exactly_when_failures_are_scheduled() {
        use crate::faults::{FailureMode, FailureSpec};
        use desim::SimTime;
        let quiet = FleetConfig::new(4, DispatchPolicy::RoundRobin);
        assert_eq!(quiet.effective_health(), None, "no faults, no prober");
        let faulty = quiet
            .clone()
            .with_faults(FailureSchedule::none().with_failure(FailureSpec {
                backend: 1,
                at: SimTime::from_ms(50),
                mode: FailureMode::Stop,
                restart_after: None,
            }));
        assert_eq!(
            faulty.effective_health(),
            Some(HealthConfig::standard()),
            "a failure schedule arms the standard prober"
        );
        assert!(faulty.validate().is_ok());
        let explicit = quiet.with_health(HealthConfig::standard().with_eject_after(7));
        assert_eq!(explicit.effective_health().unwrap().eject_after, 7);
        // An out-of-range failure target is caught by fleet validation.
        let oob = FleetConfig::new(1, DispatchPolicy::RoundRobin).with_faults(
            FailureSchedule::none().with_failure(FailureSpec {
                backend: 1,
                at: SimTime::from_ms(1),
                mode: FailureMode::Stop,
                restart_after: None,
            }),
        );
        assert_eq!(oob.validate().unwrap_err().field, "faults.backend");
    }

    #[test]
    fn domain_schedule_arms_health_and_is_validated() {
        use crate::faults::DomainFaultSpec;
        use desim::SimTime;
        use netsim::DomainImpairment;
        let spec = DomainFaultSpec {
            backends: vec![0, 1],
            at: SimTime::from_ms(10),
            duration: SimDuration::from_ms(5),
            impairment: DomainImpairment::Partition,
        };
        let cfg = FleetConfig::new(4, DispatchPolicy::LeastOutstanding)
            .with_domains(DomainSchedule::none().with_domain(spec.clone()));
        assert!(cfg.validate().is_ok());
        assert_eq!(
            cfg.effective_health(),
            Some(HealthConfig::standard()),
            "a domain schedule arms the standard prober"
        );
        // Out-of-range members are caught by fleet validation.
        let oob = FleetConfig::new(2, DispatchPolicy::RoundRobin).with_domains(
            DomainSchedule::none().with_domain(DomainFaultSpec {
                backends: vec![3],
                ..spec
            }),
        );
        assert_eq!(oob.validate().unwrap_err().field, "domains.backends");
        // The skew hook defaults off and never affects validation.
        let skewed = FleetConfig::new(2, DispatchPolicy::RoundRobin).with_ledger_skew_for_test();
        assert!(skewed.ledger_skew_for_test);
        assert!(skewed.validate().is_ok());
        assert!(!FleetConfig::new(2, DispatchPolicy::RoundRobin).ledger_skew_for_test);
    }

    #[test]
    fn coordinator_validation_names_offending_fields() {
        let base = CoordinatorConfig::new(100_000.0);
        assert!(base.validate().is_ok());
        let err = |c: CoordinatorConfig| c.validate().unwrap_err().field;
        assert_eq!(err(base.clone().with_epoch(SimDuration::ZERO)), "epoch");
        assert_eq!(err(CoordinatorConfig::new(0.0)), "per_backend_rps");
        assert_eq!(err(CoordinatorConfig::new(f64::NAN)), "per_backend_rps");
        assert_eq!(err(base.clone().with_util_target(0.0)), "util_target");
        assert_eq!(err(base.clone().with_util_target(1.5)), "util_target");
        assert_eq!(err(base.clone().with_min_active(0)), "min_active");
        assert_eq!(err(base.clone().with_park_patience(0)), "park_patience");
        let mut bad = base.clone();
        bad.ema_alpha = 0.0;
        assert_eq!(err(bad), "ema_alpha");
        let mut bad = base.clone();
        bad.park_power_w = f64::INFINITY;
        assert_eq!(err(bad), "park_power_w");
        let mut bad = base;
        bad.unpark_power_w = -1.0;
        assert_eq!(err(bad), "unpark_power_w");
    }
}
