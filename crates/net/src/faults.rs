//! Deterministic network fault injection.
//!
//! The fabric model is lossless by default, which is faithful to the
//! paper's evaluation but leaves NCAP's packet-context machinery untested
//! against the impairments real datacenter links exhibit: drops, CRC
//! corruption, reordering and latency jitter. This module provides a
//! seeded impairment layer that the [`Switch`](crate::Switch) applies per
//! directed link, plus the retransmission-policy knobs the cluster
//! harness uses to recover from injected (and NIC ring-overflow) drops.
//!
//! Determinism: every `(src, dst)` pair owns its own [`SplitMix64`]
//! stream, derived from [`FaultConfig::seed`] and the pair's node ids.
//! The simulation is single-threaded and frames traverse a pair's stream
//! in a deterministic order, so same-seed runs draw identical verdicts —
//! fault-injected runs stay byte-identical, including under the parallel
//! experiment runner.
//!
//! Observer effect: with [`FaultConfig::none`] (the default) the layer is
//! completely inert — no RNG streams are created, no verdicts drawn, no
//! timers armed and no trace metrics emitted, so enabling the *code path*
//! without enabling faults cannot perturb pinned outputs.

use desim::{ConfigError, SimDuration, SplitMix64};

use crate::packet::NodeId;

/// Retransmission policy for the client-side reliability layer.
///
/// The harness arms one retransmission timer per issued request. When it
/// fires before the response completes, the request frame is resent and
/// the timeout doubles (classic exponential RTO backoff) up to
/// [`rto_max`](Self::rto_max); after [`max_retries`](Self::max_retries)
/// unanswered attempts the request is reported *lost* with a reason
/// rather than silently vanishing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetxConfig {
    /// Master switch: when `false` no timers are armed at all.
    pub enabled: bool,
    /// Initial retransmission timeout (first attempt).
    pub rto_initial: SimDuration,
    /// Upper bound the exponential backoff saturates at.
    pub rto_max: SimDuration,
    /// Retransmission attempts before a request is declared lost.
    pub max_retries: u32,
}

impl RetxConfig {
    /// Reliability disabled: no timers, no retransmissions.
    #[must_use]
    pub fn disabled() -> Self {
        RetxConfig {
            enabled: false,
            rto_initial: SimDuration::ZERO,
            rto_max: SimDuration::ZERO,
            max_retries: 0,
        }
    }

    /// Default reliability policy: 5 ms initial RTO, doubling to a 40 ms
    /// cap, at most 8 retransmissions. The initial RTO sits above typical
    /// burst queueing delay at the simulated loads; the occasional
    /// spurious retransmit (e.g. slow responses while a cold server ramps
    /// its P-state during warmup) is absorbed harmlessly by the server's
    /// duplicate suppression.
    #[must_use]
    pub fn standard() -> Self {
        RetxConfig {
            enabled: true,
            rto_initial: SimDuration::from_ms(5),
            rto_max: SimDuration::from_ms(40),
            max_retries: 8,
        }
    }

    /// RTO for the `attempt`-th (0-based) retransmission: the initial
    /// timeout doubled per attempt, saturating at [`rto_max`](Self::rto_max).
    #[must_use]
    pub fn rto_for(&self, attempt: u32) -> SimDuration {
        let base = self.rto_initial.as_nanos();
        let scaled = base.saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX));
        SimDuration::from_nanos(scaled).min(self.rto_max)
    }

    /// How long after its first copy a request can still be resent: the
    /// sum of every RTO up to and including the one that declares it lost
    /// (275 ms for [`standard`](Self::standard)); zero when disabled.
    #[must_use]
    pub fn give_up_span(&self) -> SimDuration {
        if !self.enabled {
            return SimDuration::ZERO;
        }
        (0..=self.max_retries).map(|a| self.rto_for(a)).sum()
    }
}

impl Default for RetxConfig {
    fn default() -> Self {
        RetxConfig::disabled()
    }
}

/// Network impairment and recovery configuration.
///
/// Probabilities are per-frame and independent; `jitter` adds a uniform
/// extra delay in `[0, jitter]` to every delivered frame, and a frame
/// selected for reordering is additionally held back by `reorder_delay`
/// so it lands behind later-sent traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Per-frame probability the frame is dropped in transit.
    pub loss: f64,
    /// Per-frame probability the frame is corrupted (dropped by the
    /// receiver's FCS check — indistinguishable from loss end-to-end, but
    /// counted separately).
    pub corrupt: f64,
    /// Per-frame probability the frame is delayed by `reorder_delay`.
    pub reorder: f64,
    /// Maximum uniform extra latency added per delivered frame.
    pub jitter: SimDuration,
    /// Hold-back applied to frames selected for reordering.
    pub reorder_delay: SimDuration,
    /// Seed for the per-link impairment RNG streams.
    pub seed: u64,
    /// Client-side retransmission policy.
    pub retx: RetxConfig,
}

/// Default seed for fault-injection RNG streams.
pub const DEFAULT_FAULT_SEED: u64 = 0xFA17_5EED;

impl FaultConfig {
    /// No impairment and no reliability layer — the inert default.
    #[must_use]
    pub fn none() -> Self {
        FaultConfig {
            loss: 0.0,
            corrupt: 0.0,
            reorder: 0.0,
            jitter: SimDuration::ZERO,
            reorder_delay: SimDuration::ZERO,
            seed: DEFAULT_FAULT_SEED,
            retx: RetxConfig::disabled(),
        }
    }

    /// Uniform random loss at rate `loss` with the standard
    /// retransmission policy — the common experiment entry point.
    #[must_use]
    pub fn lossy(loss: f64, seed: u64) -> Self {
        FaultConfig {
            loss,
            seed,
            retx: RetxConfig::standard(),
            ..FaultConfig::none()
        }
    }

    /// Sets the jitter bound (builder-style).
    #[must_use]
    pub fn with_jitter(mut self, jitter: SimDuration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Sets the retransmission policy (builder-style).
    #[must_use]
    pub fn with_retx(mut self, retx: RetxConfig) -> Self {
        self.retx = retx;
        self
    }

    /// `true` when any impairment dimension is active.
    #[must_use]
    pub fn impairs(&self) -> bool {
        self.loss > 0.0
            || self.corrupt > 0.0
            || self.reorder > 0.0
            || self.jitter > SimDuration::ZERO
    }

    /// How long a request-keyed table must keep a resolved entry after
    /// it first saw the request, so that no later copy of the request or
    /// its response can miss it: the retransmission give-up span plus,
    /// for each direction of a round trip, the largest extra delay the
    /// impairments can add to one hop (`jitter + reorder_delay`, plus the
    /// largest correlated-domain jitter `domain_jitter`).
    ///
    /// The client sends its last copy `give_up_span - rto_for(max_retries)`
    /// after the first (235 ms of 275 ms for the standard policy), so the
    /// final RTO and the impairment margin cover the spread in transit
    /// times. Zero for an unarmed, unimpaired run: nothing follows a
    /// request's final segment there.
    #[must_use]
    pub fn linger(&self, domain_jitter: SimDuration) -> SimDuration {
        self.retx.give_up_span() + (self.jitter + self.reorder_delay + domain_jitter) * 2
    }

    /// `true` when the whole subsystem is inert (no impairment and no
    /// reliability layer) — the observer-effect-free state.
    #[must_use]
    pub fn is_off(&self) -> bool {
        !self.impairs() && !self.retx.enabled
    }

    /// Validates probability ranges and retransmission constants.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (field, p) in [
            ("loss", self.loss),
            ("corrupt", self.corrupt),
            ("reorder", self.reorder),
        ] {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(ConfigError::new(
                    field,
                    format!("probability must be in [0, 1], got {p}"),
                ));
            }
        }
        if self.reorder > 0.0 && self.reorder_delay == SimDuration::ZERO {
            return Err(ConfigError::new(
                "reorder_delay",
                "must be positive when reordering is enabled",
            ));
        }
        if self.retx.enabled {
            if self.retx.rto_initial == SimDuration::ZERO {
                return Err(ConfigError::new(
                    "rto_initial",
                    "must be positive when retransmission is enabled",
                ));
            }
            if self.retx.rto_max < self.retx.rto_initial {
                return Err(ConfigError::new("rto_max", "must be at least rto_initial"));
            }
            if self.retx.max_retries == 0 {
                return Err(ConfigError::new(
                    "max_retries",
                    "must be at least 1 when retransmission is enabled",
                ));
            }
        }
        Ok(())
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// Correlated link-level impairment applied to every member of a failure
/// domain (a rack or switch grouping) at once.
///
/// Unlike the per-link [`FaultConfig`] dimensions, a domain impairment is
/// *scoped in time and topology*: the cluster harness installs it on the
/// switch when the domain's fault window opens and removes it when the
/// window closes, and it affects every frame whose source or destination
/// is a member node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DomainImpairment {
    /// Hard partition: every frame to or from a member is dropped.
    Partition,
    /// Brownout: frames touching a member suffer extra loss and uniform
    /// latency jitter in `[0, jitter]`, on top of any per-link faults.
    Brownout {
        /// Per-frame drop probability while the brownout is active.
        loss: f64,
        /// Maximum extra latency per delivered frame.
        jitter: SimDuration,
    },
}

impl DomainImpairment {
    /// Short stable name for logs and scenario files.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            DomainImpairment::Partition => "partition",
            DomainImpairment::Brownout { .. } => "brownout",
        }
    }

    /// Validates probability ranges.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if let DomainImpairment::Brownout { loss, .. } = self {
            if !(0.0..=1.0).contains(loss) || !loss.is_finite() {
                return Err(ConfigError::new(
                    "domain.loss",
                    format!("brownout loss must be in [0, 1], got {loss}"),
                ));
            }
        }
        Ok(())
    }
}

/// Counters for domain-fault activity, kept separate from [`FaultStats`]
/// so per-link and correlated impairments stay individually auditable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DomainFaultStats {
    /// Frames dropped because an endpoint was partitioned.
    pub partition_drops: u64,
    /// Frames dropped by a brownout's extra loss.
    pub brownout_drops: u64,
    /// Frames delivered with non-zero brownout jitter.
    pub brownout_delayed: u64,
}

impl DomainFaultStats {
    /// Total frames removed from the wire by domain faults.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.partition_drops + self.brownout_drops
    }
}

/// Why an injected fault removed a frame from the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropKind {
    /// Dropped in transit (congestion/loss model).
    Loss,
    /// Delivered with a bad FCS and discarded by the receiver.
    Corrupt,
}

/// Verdict for one frame traversing an impaired link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultVerdict {
    /// Deliver, with this much extra latency (jitter + reorder hold-back).
    Deliver {
        /// Extra delay added on top of the fault-free arrival time.
        extra_delay: SimDuration,
    },
    /// Drop the frame.
    Drop(DropKind),
}

/// Counters for injected faults — the "injected-fault log" that trace
/// exports and experiment results are validated against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Frames dropped by the loss model.
    pub losses: u64,
    /// Frames dropped as corrupted.
    pub corruptions: u64,
    /// Frames held back for reordering.
    pub reorders: u64,
    /// Frames delivered with non-zero jitter.
    pub jittered: u64,
}

impl FaultStats {
    /// Total frames removed from the wire by injection.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.losses + self.corruptions
    }
}

/// Per-directed-link impairment state: one RNG stream per `(src, dst)`.
#[derive(Debug)]
pub struct LinkFaults {
    rng: SplitMix64,
}

impl LinkFaults {
    /// Builds the stream for link `src → dst` under `seed`. The stream
    /// seed mixes both endpoints so each direction of each pair is
    /// independent.
    #[must_use]
    pub fn new(seed: u64, src: NodeId, dst: NodeId) -> Self {
        let mixed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(src.0) << 16)
            .wrapping_add(u64::from(dst.0) + 1);
        LinkFaults {
            rng: SplitMix64::new(mixed),
        }
    }

    /// Draws the verdict for the next frame on this link. Draw order is
    /// fixed (loss, corrupt, reorder, jitter) and each dimension draws
    /// only when enabled, so a given config replays identically.
    pub fn judge(&mut self, cfg: &FaultConfig, stats: &mut FaultStats) -> FaultVerdict {
        if cfg.loss > 0.0 && self.rng.next_f64() < cfg.loss {
            stats.losses += 1;
            return FaultVerdict::Drop(DropKind::Loss);
        }
        if cfg.corrupt > 0.0 && self.rng.next_f64() < cfg.corrupt {
            stats.corruptions += 1;
            return FaultVerdict::Drop(DropKind::Corrupt);
        }
        let mut extra = SimDuration::ZERO;
        if cfg.reorder > 0.0 && self.rng.next_f64() < cfg.reorder {
            stats.reorders += 1;
            extra += cfg.reorder_delay;
        }
        if cfg.jitter > SimDuration::ZERO {
            let j = cfg.jitter.mul_f64(self.rng.next_f64());
            if j > SimDuration::ZERO {
                stats.jittered += 1;
                extra += j;
            }
        }
        FaultVerdict::Deliver { extra_delay: extra }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linger_covers_the_give_up_span_and_two_hops_of_impairment() {
        assert_eq!(
            RetxConfig::standard().give_up_span(),
            SimDuration::from_ms(275)
        );
        assert_eq!(RetxConfig::disabled().give_up_span(), SimDuration::ZERO);
        assert_eq!(
            FaultConfig::none().linger(SimDuration::ZERO),
            SimDuration::ZERO
        );
        let cfg = FaultConfig {
            reorder: 0.1,
            reorder_delay: SimDuration::from_us(50),
            ..FaultConfig::lossy(0.01, 1).with_jitter(SimDuration::from_us(20))
        };
        assert_eq!(
            cfg.linger(SimDuration::from_us(30)),
            SimDuration::from_us(275_000 + 2 * (20 + 50 + 30))
        );
    }

    #[test]
    fn none_is_inert() {
        let cfg = FaultConfig::none();
        assert!(cfg.is_off());
        assert!(!cfg.impairs());
        assert!(cfg.validate().is_ok());
        assert_eq!(FaultConfig::default(), cfg);
    }

    #[test]
    fn lossy_enables_retx() {
        let cfg = FaultConfig::lossy(0.01, 7);
        assert!(cfg.impairs());
        assert!(!cfg.is_off());
        assert!(cfg.retx.enabled);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_fields() {
        assert_eq!(
            FaultConfig::lossy(1.5, 1).validate().unwrap_err().field,
            "loss"
        );
        let mut cfg = FaultConfig::lossy(0.01, 1);
        cfg.retx.rto_initial = SimDuration::ZERO;
        assert_eq!(cfg.validate().unwrap_err().field, "rto_initial");
        let mut cfg = FaultConfig::lossy(0.01, 1);
        cfg.retx.rto_max = SimDuration::from_nanos(1);
        assert_eq!(cfg.validate().unwrap_err().field, "rto_max");
        let mut cfg = FaultConfig::lossy(0.01, 1);
        cfg.retx.max_retries = 0;
        assert_eq!(cfg.validate().unwrap_err().field, "max_retries");
        let mut cfg = FaultConfig::none();
        cfg.reorder = 0.1;
        assert_eq!(cfg.validate().unwrap_err().field, "reorder_delay");
    }

    #[test]
    fn domain_impairment_validates_and_names() {
        assert!(DomainImpairment::Partition.validate().is_ok());
        assert_eq!(DomainImpairment::Partition.name(), "partition");
        let ok = DomainImpairment::Brownout {
            loss: 0.2,
            jitter: SimDuration::from_us(30),
        };
        assert!(ok.validate().is_ok());
        assert_eq!(ok.name(), "brownout");
        let bad = DomainImpairment::Brownout {
            loss: 1.2,
            jitter: SimDuration::ZERO,
        };
        assert_eq!(bad.validate().unwrap_err().field, "domain.loss");
        let nan = DomainImpairment::Brownout {
            loss: f64::NAN,
            jitter: SimDuration::ZERO,
        };
        assert!(nan.validate().is_err());
    }

    #[test]
    fn rto_backoff_doubles_and_caps() {
        let retx = RetxConfig::standard();
        assert_eq!(retx.rto_for(0), SimDuration::from_ms(5));
        assert_eq!(retx.rto_for(1), SimDuration::from_ms(10));
        assert_eq!(retx.rto_for(2), SimDuration::from_ms(20));
        assert_eq!(retx.rto_for(3), SimDuration::from_ms(40));
        // Saturates at the cap, even for huge attempt counts.
        assert_eq!(retx.rto_for(10), SimDuration::from_ms(40));
        assert_eq!(retx.rto_for(63), SimDuration::from_ms(40));
        assert_eq!(retx.rto_for(64), SimDuration::from_ms(40));
    }

    #[test]
    fn same_seed_same_verdicts() {
        let cfg = FaultConfig::lossy(0.2, 42).with_jitter(SimDuration::from_us(3));
        let run = || {
            let mut lf = LinkFaults::new(cfg.seed, NodeId(0), NodeId(1));
            let mut stats = FaultStats::default();
            let verdicts: Vec<_> = (0..500).map(|_| lf.judge(&cfg, &mut stats)).collect();
            (verdicts, stats)
        };
        assert_eq!(run(), run());
        let (_, stats) = run();
        assert!(stats.losses > 50, "expected ~100 losses, got {stats:?}");
        assert!(stats.jittered > 0);
        assert_eq!(stats.corruptions, 0);
    }

    #[test]
    fn directions_draw_independent_streams() {
        let cfg = FaultConfig::lossy(0.5, 9);
        let mut stats = FaultStats::default();
        let a: Vec<_> = {
            let mut lf = LinkFaults::new(cfg.seed, NodeId(0), NodeId(1));
            (0..64).map(|_| lf.judge(&cfg, &mut stats)).collect()
        };
        let b: Vec<_> = {
            let mut lf = LinkFaults::new(cfg.seed, NodeId(1), NodeId(0));
            (0..64).map(|_| lf.judge(&cfg, &mut stats)).collect()
        };
        assert_ne!(a, b, "reverse direction should have its own stream");
    }
}
