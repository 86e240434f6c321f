//! Deterministic backend failure schedules and health-prober policy.
//!
//! Link-level faults (`netsim::FaultConfig`) impair *frames*; this module
//! impairs *machines*. A [`FailureSchedule`] names which backends fail,
//! when, how ([`FailureMode`]), and whether they restart. The cluster
//! harness turns each spec into simulation events; the load balancer
//! never sees the schedule — it only learns about failures the way a real
//! L4 balancer does, through its health prober and request timeouts
//! ([`HealthConfig`]).
//!
//! Determinism: explicit schedules are plain data. The seeded constructor
//! ([`FailureSchedule::seeded_stops`]) derives one [`SplitMix64`] stream
//! per backend from the seed and the backend index, so adding or removing
//! one backend's failure never shifts another's draw.
//!
//! Observer effect: an empty schedule ([`FailureSchedule::none`], the
//! default) is completely inert — no RNG streams are created, no
//! failure or probe events are scheduled, and every pinned run stays
//! byte-identical.

use desim::{ConfigError, SimDuration, SimTime, SplitMix64};
use netsim::DomainImpairment;

/// How a failed backend misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailureMode {
    /// Fail-stop: the machine crashes. Frames to and from it are dropped;
    /// all queued and in-flight work is lost (and accounted — never
    /// silent). Health probes time out, so the active prober detects it.
    #[default]
    Stop,
    /// Fail-slow: the machine keeps serving but every request takes a
    /// multiple of its normal service time
    /// ([`FailureSchedule::slow_factor`]). Probes still succeed (an L4
    /// health check measures liveness, not latency).
    Slow,
    /// Hang: the machine admits requests but never responds. Probes
    /// succeed — the TCP handshake still completes — so only passive
    /// ejection (consecutive request timeouts) can detect it.
    Hang,
}

impl FailureMode {
    /// CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FailureMode::Stop => "stop",
            FailureMode::Slow => "slow",
            FailureMode::Hang => "hang",
        }
    }

    /// Parses a CLI name (`stop`, `slow`, `hang`).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] listing the accepted names.
    pub fn parse(s: &str) -> Result<Self, ConfigError> {
        [FailureMode::Stop, FailureMode::Slow, FailureMode::Hang]
            .into_iter()
            .find(|m| m.name() == s)
            .ok_or_else(|| {
                ConfigError::new(
                    "faults.mode",
                    format!("unknown failure mode `{s}` (expected stop|slow|hang)"),
                )
            })
    }

    /// Whether a dead-simple L4 health probe against a backend in this
    /// failure mode succeeds. Only a full crash refuses the handshake;
    /// slow and hung backends still accept connections.
    #[must_use]
    pub fn probe_succeeds(self) -> bool {
        !matches!(self, FailureMode::Stop)
    }
}

impl core::fmt::Display for FailureMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// One scheduled backend failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureSpec {
    /// Index of the backend that fails.
    pub backend: usize,
    /// Failure instant.
    pub at: SimTime,
    /// How the backend misbehaves from [`at`](Self::at).
    pub mode: FailureMode,
    /// When set, the backend recovers (restarts healthy) this long after
    /// failing; `None` keeps it down for the rest of the run.
    pub restart_after: Option<SimDuration>,
}

/// Default seed for seeded failure schedules.
pub const DEFAULT_FLEET_FAULT_SEED: u64 = 0xF1EE_7DEA_D5EE_D001;

/// The per-run backend failure schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureSchedule {
    /// The scheduled failures, in the order they were added.
    pub specs: Vec<FailureSpec>,
    /// Service-time multiplier applied by [`FailureMode::Slow`] backends
    /// (must be ≥ 1).
    pub slow_factor: f64,
}

impl FailureSchedule {
    /// No failures: the schedule is completely inert.
    #[must_use]
    pub fn none() -> Self {
        FailureSchedule {
            specs: Vec::new(),
            slow_factor: 8.0,
        }
    }

    /// Whether any failure is scheduled.
    #[must_use]
    pub fn enabled(&self) -> bool {
        !self.specs.is_empty()
    }

    /// Adds one failure (builder style).
    #[must_use]
    pub fn with_failure(mut self, spec: FailureSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Overrides the fail-slow service-time multiplier (builder style).
    #[must_use]
    pub fn with_slow_factor(mut self, factor: f64) -> Self {
        self.slow_factor = factor;
        self
    }

    /// A seeded schedule fail-stopping `count` of `backends` machines at
    /// times drawn uniformly in `[window_start, window_end)`. Each
    /// backend owns its own [`SplitMix64`] stream derived from `seed`
    /// and its index; the `count` backends with the smallest draws crash.
    /// Equal seeds yield equal schedules regardless of call order.
    #[must_use]
    pub fn seeded_stops(
        seed: u64,
        backends: usize,
        count: usize,
        window_start: SimTime,
        window_end: SimTime,
        restart_after: Option<SimDuration>,
    ) -> Self {
        let span = window_end
            .as_nanos()
            .saturating_sub(window_start.as_nanos())
            .max(1);
        let mut draws: Vec<(u64, usize)> = (0..backends)
            .map(|i| {
                let mut stream = SplitMix64::new(
                    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(i as u64 + 1),
                );
                (stream.next_below(span), i)
            })
            .collect();
        draws.sort_unstable();
        let mut specs: Vec<FailureSpec> = draws
            .into_iter()
            .take(count.min(backends))
            .map(|(offset, backend)| FailureSpec {
                backend,
                at: window_start + SimDuration::from_nanos(offset),
                mode: FailureMode::Stop,
                restart_after,
            })
            .collect();
        specs.sort_unstable_by_key(|s| (s.at, s.backend));
        FailureSchedule {
            specs,
            slow_factor: 8.0,
        }
    }

    /// Validates the schedule against a fleet of `backends` machines.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first offending field.
    pub fn validate(&self, backends: usize) -> Result<(), ConfigError> {
        for spec in &self.specs {
            if spec.backend >= backends {
                return Err(ConfigError::new(
                    "faults.backend",
                    format!(
                        "failure targets backend {} but the fleet has {backends}",
                        spec.backend
                    ),
                ));
            }
            if let Some(d) = spec.restart_after {
                if d.is_zero() {
                    return Err(ConfigError::new(
                        "faults.restart_after",
                        "a restart takes a positive amount of time",
                    ));
                }
            }
        }
        if !(self.slow_factor >= 1.0 && self.slow_factor.is_finite()) {
            return Err(ConfigError::new(
                "faults.slow_factor",
                format!(
                    "the fail-slow multiplier must be finite and ≥ 1, got {}",
                    self.slow_factor
                ),
            ));
        }
        Ok(())
    }
}

impl Default for FailureSchedule {
    fn default() -> Self {
        FailureSchedule::none()
    }
}

/// One correlated fault window: a failure domain (the backends sharing a
/// rack or top-of-rack switch) whose members all suffer the same
/// link-level impairment for the duration of the window.
///
/// The cluster harness opens the window at [`at`](Self::at) by installing
/// the impairment on the fabric switch for every member's node and closes
/// it [`duration`](Self::duration) later. Members are backend *indices*;
/// the harness maps them to node ids.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainFaultSpec {
    /// Backend indices in the domain.
    pub backends: Vec<usize>,
    /// Window-open instant.
    pub at: SimTime,
    /// Window length; the domain heals at `at + duration`.
    pub duration: SimDuration,
    /// Impairment applied to every member while the window is open.
    pub impairment: DomainImpairment,
}

impl DomainFaultSpec {
    /// Window-close instant.
    #[must_use]
    pub fn heals_at(&self) -> SimTime {
        self.at + self.duration
    }
}

/// Default seed for domain-fault brownout RNG streams.
pub const DEFAULT_DOMAIN_FAULT_SEED: u64 = 0xD03A_17D0_3A17;

/// The per-run correlated failure-domain schedule.
///
/// Like [`FailureSchedule`], an empty schedule (the default) is
/// completely inert: no switch-side layer is installed, no events are
/// scheduled, and pinned fault-free runs stay byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainSchedule {
    /// The scheduled fault windows, in the order they were added.
    pub domains: Vec<DomainFaultSpec>,
    /// Seed for the switch-side brownout RNG streams.
    pub seed: u64,
}

impl DomainSchedule {
    /// No domain faults: the schedule is completely inert.
    #[must_use]
    pub fn none() -> Self {
        DomainSchedule {
            domains: Vec::new(),
            seed: DEFAULT_DOMAIN_FAULT_SEED,
        }
    }

    /// Whether any fault window is scheduled.
    #[must_use]
    pub fn enabled(&self) -> bool {
        !self.domains.is_empty()
    }

    /// The largest extra latency any scheduled brownout adds to one hop
    /// (zero without brownouts), for [`netsim::FaultConfig::linger`].
    #[must_use]
    pub fn max_jitter(&self) -> SimDuration {
        self.domains
            .iter()
            .map(|d| match d.impairment {
                DomainImpairment::Brownout { jitter, .. } => jitter,
                DomainImpairment::Partition => SimDuration::ZERO,
            })
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Adds one fault window (builder style).
    #[must_use]
    pub fn with_domain(mut self, spec: DomainFaultSpec) -> Self {
        self.domains.push(spec);
        self
    }

    /// Overrides the brownout RNG seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the schedule against a fleet of `backends` machines:
    /// every domain must be non-empty, in range, duplicate-free, with a
    /// positive window and a valid impairment, and two windows sharing a
    /// backend must not overlap in time (healing one would otherwise
    /// clear the other's impairment).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first offending field.
    pub fn validate(&self, backends: usize) -> Result<(), ConfigError> {
        for spec in &self.domains {
            if spec.backends.is_empty() {
                return Err(ConfigError::new(
                    "domains.backends",
                    "a failure domain needs at least one member",
                ));
            }
            for (i, &b) in spec.backends.iter().enumerate() {
                if b >= backends {
                    return Err(ConfigError::new(
                        "domains.backends",
                        format!("domain member {b} is out of range for a fleet of {backends}"),
                    ));
                }
                if spec.backends[..i].contains(&b) {
                    return Err(ConfigError::new(
                        "domains.backends",
                        format!("backend {b} appears twice in one domain"),
                    ));
                }
            }
            if spec.duration.is_zero() {
                return Err(ConfigError::new(
                    "domains.duration",
                    "a fault window must be open for a positive time",
                ));
            }
            spec.impairment.validate()?;
        }
        for (i, a) in self.domains.iter().enumerate() {
            for b in &self.domains[i + 1..] {
                let share = a.backends.iter().any(|m| b.backends.contains(m));
                let overlap = a.at < b.heals_at() && b.at < a.heals_at();
                if share && overlap {
                    return Err(ConfigError::new(
                        "domains.overlap",
                        "two fault windows on the same backend overlap in time",
                    ));
                }
            }
        }
        Ok(())
    }
}

impl Default for DomainSchedule {
    fn default() -> Self {
        DomainSchedule::none()
    }
}

/// Consecutive request timeouts before the LB passively ejects a
/// backend.
pub const PASSIVE_EJECT_AFTER: u32 = 5;

/// The LB health prober's policy.
///
/// Active path: every [`interval`](Self::interval) the LB probes every
/// backend that is not parked (or mid-park). [`eject_after`](Self::eject_after)
/// consecutive probe failures mark the backend
/// [`Failed`](crate::BackendState::Failed);
/// [`rejoin_after`](Self::rejoin_after) consecutive successes reinstate a
/// failed or ejected backend. Passive path:
/// [`PASSIVE_EJECT_AFTER`] consecutive request timeouts (retransmission timers firing against the backend's pin) mark
/// it [`Ejected`](crate::BackendState::Ejected) — the only detector that
/// catches a hung backend, whose probes still succeed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// Active probe period.
    pub interval: SimDuration,
    /// Consecutive probe failures before a backend is marked failed.
    pub eject_after: u32,
    /// Consecutive probe successes before a failed/ejected backend is
    /// reinstated.
    pub rejoin_after: u32,
}

impl HealthConfig {
    /// Default prober policy: 1 ms probes, 3-strike ejection, 2-strike
    /// reinstatement.
    #[must_use]
    pub fn standard() -> Self {
        HealthConfig {
            interval: SimDuration::from_ms(1),
            eject_after: 3,
            rejoin_after: 2,
        }
    }

    /// Overrides the probe period (builder style).
    #[must_use]
    pub fn with_interval(mut self, interval: SimDuration) -> Self {
        self.interval = interval;
        self
    }

    /// Overrides the ejection threshold (builder style).
    #[must_use]
    pub fn with_eject_after(mut self, probes: u32) -> Self {
        self.eject_after = probes;
        self
    }

    /// Overrides the reinstatement threshold (builder style).
    #[must_use]
    pub fn with_rejoin_after(mut self, probes: u32) -> Self {
        self.rejoin_after = probes;
        self
    }

    /// Validates the prober policy.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.interval.is_zero() {
            return Err(ConfigError::new(
                "health.interval",
                "the probe period must be positive",
            ));
        }
        if self.eject_after == 0 {
            return Err(ConfigError::new(
                "health.eject_after",
                "ejection requires at least one failed probe",
            ));
        }
        if self.rejoin_after == 0 {
            return Err(ConfigError::new(
                "health.rejoin_after",
                "reinstatement requires at least one successful probe",
            ));
        }
        Ok(())
    }
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names_roundtrip() {
        for m in [FailureMode::Stop, FailureMode::Slow, FailureMode::Hang] {
            assert_eq!(FailureMode::parse(m.name()), Ok(m));
            assert_eq!(m.to_string(), m.name());
        }
        let err = FailureMode::parse("explode").unwrap_err();
        assert_eq!(err.field, "faults.mode");
        assert!(err.reason.contains("stop|slow|hang"), "{err}");
        assert!(!FailureMode::Stop.probe_succeeds());
        assert!(FailureMode::Slow.probe_succeeds());
        assert!(FailureMode::Hang.probe_succeeds());
    }

    #[test]
    fn empty_schedule_is_inert_and_valid() {
        let s = FailureSchedule::none();
        assert!(!s.enabled());
        assert!(s.validate(0).is_ok());
        assert_eq!(s, FailureSchedule::default());
    }

    #[test]
    fn seeded_stops_are_deterministic_and_per_backend_stable() {
        let window = (SimTime::from_ms(100), SimTime::from_ms(200));
        let a = FailureSchedule::seeded_stops(7, 64, 4, window.0, window.1, None);
        let b = FailureSchedule::seeded_stops(7, 64, 4, window.0, window.1, None);
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.specs.len(), 4);
        for s in &a.specs {
            assert!(s.at >= window.0 && s.at < window.1);
            assert_eq!(s.mode, FailureMode::Stop);
        }
        let c = FailureSchedule::seeded_stops(8, 64, 4, window.0, window.1, None);
        assert_ne!(a, c, "different seed, different schedule");
        // A crashing backend's draw only depends on its own stream: the
        // 4-crash schedule is a prefix-by-draw of the 8-crash one.
        let wide = FailureSchedule::seeded_stops(7, 64, 8, window.0, window.1, None);
        for s in &a.specs {
            assert!(wide.specs.contains(s));
        }
    }

    #[test]
    fn schedule_validation_names_offending_fields() {
        let oob = FailureSchedule::none().with_failure(FailureSpec {
            backend: 4,
            at: SimTime::from_ms(1),
            mode: FailureMode::Stop,
            restart_after: None,
        });
        assert_eq!(oob.validate(4).unwrap_err().field, "faults.backend");
        assert!(oob.validate(5).is_ok());
        let zero_restart = FailureSchedule::none().with_failure(FailureSpec {
            backend: 0,
            at: SimTime::from_ms(1),
            mode: FailureMode::Stop,
            restart_after: Some(SimDuration::ZERO),
        });
        assert_eq!(
            zero_restart.validate(1).unwrap_err().field,
            "faults.restart_after"
        );
        let bad_slow = FailureSchedule::none().with_slow_factor(0.5);
        assert_eq!(
            bad_slow.validate(1).unwrap_err().field,
            "faults.slow_factor"
        );
    }

    #[test]
    fn domain_schedule_validation_names_offending_fields() {
        let spec = |backends: Vec<usize>, at_ms: u64, dur_ms: u64| DomainFaultSpec {
            backends,
            at: SimTime::from_ms(at_ms),
            duration: SimDuration::from_ms(dur_ms),
            impairment: DomainImpairment::Partition,
        };
        let empty = DomainSchedule::none();
        assert!(!empty.enabled());
        assert!(empty.validate(0).is_ok());
        assert_eq!(empty, DomainSchedule::default());

        let ok = DomainSchedule::none()
            .with_domain(spec(vec![0, 1], 10, 5))
            .with_domain(spec(vec![1, 2], 20, 5));
        assert!(ok.enabled());
        assert!(ok.validate(3).is_ok());
        assert_eq!(ok.domains[0].heals_at(), SimTime::from_ms(15));

        let err = |s: &DomainSchedule, n: usize| s.validate(n).unwrap_err().field;
        let no_members = DomainSchedule::none().with_domain(spec(vec![], 1, 1));
        assert_eq!(err(&no_members, 4), "domains.backends");
        let oob = DomainSchedule::none().with_domain(spec(vec![4], 1, 1));
        assert_eq!(err(&oob, 4), "domains.backends");
        let dup = DomainSchedule::none().with_domain(spec(vec![1, 1], 1, 1));
        assert_eq!(err(&dup, 4), "domains.backends");
        let zero = DomainSchedule::none().with_domain(spec(vec![1], 1, 0));
        assert_eq!(err(&zero, 4), "domains.duration");
        let bad_imp = DomainSchedule::none().with_domain(DomainFaultSpec {
            impairment: DomainImpairment::Brownout {
                loss: 2.0,
                jitter: SimDuration::ZERO,
            },
            ..spec(vec![1], 1, 1)
        });
        assert_eq!(err(&bad_imp, 4), "domain.loss");
        // Overlapping windows sharing a backend are rejected; disjoint
        // members may overlap freely.
        let clash = DomainSchedule::none()
            .with_domain(spec(vec![0, 1], 10, 10))
            .with_domain(spec(vec![1], 15, 10));
        assert_eq!(err(&clash, 4), "domains.overlap");
        let disjoint = DomainSchedule::none()
            .with_domain(spec(vec![0, 1], 10, 10))
            .with_domain(spec(vec![2, 3], 15, 10));
        assert!(disjoint.validate(4).is_ok());
    }

    /// Each backend's crash draw is a pure function of `(seed, index)`:
    /// raising the crash count or growing the fleet never moves another
    /// backend's crash time, and no backend is ever crashed twice.
    #[test]
    fn prop_seeded_stops_order_independent_and_collision_free() {
        use check::{ensure, ensure_eq, Check};
        Check::new("seeded_stops_order_independent").run(
            |rng, size| {
                let backends = check::gen::usize_in(rng, 1, 2 + size.min(62));
                let count = check::gen::usize_in(rng, 0, backends + 2);
                (check::gen::u64_in(rng, 0, u64::MAX - 1), backends, count)
            },
            |&(seed, backends, count)| {
                let (start, end) = (SimTime::from_ms(10), SimTime::from_ms(40));
                let s = FailureSchedule::seeded_stops(seed, backends, count, start, end, None);
                ensure_eq!(s.specs.len(), count.min(backends));
                ensure!(s.validate(backends).is_ok(), "generated schedule invalid");
                let mut seen = std::collections::HashSet::new();
                for spec in &s.specs {
                    ensure!(
                        seen.insert(spec.backend),
                        "backend {} crashed twice",
                        spec.backend
                    );
                    ensure!(
                        spec.at >= start && spec.at < end,
                        "crash at {:?} outside the window",
                        spec.at
                    );
                }
                // Order-independence inside one fleet: the k-crash
                // schedule is a subset of the all-crash schedule.
                let all = FailureSchedule::seeded_stops(seed, backends, backends, start, end, None);
                for spec in &s.specs {
                    ensure!(all.specs.contains(spec), "raising count moved a draw");
                }
                // Growing the fleet never shifts an existing backend's
                // draw either (each index owns its own stream).
                let grown = FailureSchedule::seeded_stops(
                    seed,
                    backends + 8,
                    backends + 8,
                    start,
                    end,
                    None,
                );
                for spec in &all.specs {
                    ensure!(grown.specs.contains(spec), "growing the fleet moved a draw");
                }
                Ok(())
            },
        );
    }

    #[test]
    fn health_validation_names_offending_fields() {
        let base = HealthConfig::standard();
        assert!(base.validate().is_ok());
        let err = |c: HealthConfig| c.validate().unwrap_err().field;
        assert_eq!(
            err(base.with_interval(SimDuration::ZERO)),
            "health.interval"
        );
        assert_eq!(err(base.with_eject_after(0)), "health.eject_after");
        assert_eq!(err(base.with_rejoin_after(0)), "health.rejoin_after");
    }
}
