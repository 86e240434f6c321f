//! cpufreq governors: mapping utilization to P-states.
//!
//! Of Linux's policies the paper uses the static performance policy and
//! the dynamic ondemand policy (paper §2.1, citing Pallipadi &
//! Starikovskiy). Ondemand samples utilization every invocation period —
//! hard-coded to a 10 ms minimum in mainline Linux; the paper recompiled
//! the kernel to explore 1 ms periods (Figure 2), so the period here is a
//! constructor parameter.

use cpusim::{PStateId, PStateTable};
use desim::{SimDuration, SimTime};

/// A P-state selection policy, invoked by the kernel's cpufreq core.
pub trait CpufreqGovernor {
    /// Chooses the target P-state given the utilization observed over the
    /// last sampling window (`0.0..=1.0`, the max across cores of the
    /// shared frequency domain).
    fn target(
        &mut self,
        now: SimTime,
        utilization: f64,
        current: PStateId,
        table: &PStateTable,
    ) -> PStateId;

    /// Invocation period for dynamic governors; `None` for static ones
    /// (the kernel then applies them once and never ticks them).
    fn period(&self) -> Option<SimDuration> {
        None
    }

    /// Governor name, as it would appear in
    /// `/sys/devices/system/cpu/cpufreq/scaling_governor`.
    fn name(&self) -> &'static str;
}

/// Always runs at P0 — the paper's `perf` baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Performance;

impl CpufreqGovernor for Performance {
    fn target(&mut self, _: SimTime, _: f64, _: PStateId, table: &PStateTable) -> PStateId {
        table.fastest()
    }

    fn name(&self) -> &'static str {
        "performance"
    }
}

/// The dynamic ondemand governor.
///
/// Algorithm (per the Linux implementation the paper describes): every
/// sampling period, look at the utilization of the busiest core in the
/// frequency domain. If it exceeds `up_threshold` (80 %), jump straight
/// to the maximum frequency. Otherwise pick the lowest frequency that
/// would have kept utilization at the threshold:
/// `f_next = f_max × load / up_threshold`.
#[derive(Debug, Clone, PartialEq)]
pub struct Ondemand {
    period: SimDuration,
    up_threshold: f64,
    invocations: u64,
}

impl Ondemand {
    /// Linux's hard-coded minimum sampling period (paper §2.1).
    pub const LINUX_MIN_PERIOD: SimDuration = SimDuration::from_ms(10);
    /// Default up-threshold (Linux default is 80 %).
    pub const DEFAULT_UP_THRESHOLD: f64 = 0.80;

    /// Ondemand at the Linux-default 10 ms period.
    #[must_use]
    pub fn new() -> Self {
        Ondemand::with_period(Self::LINUX_MIN_PERIOD)
    }

    /// Ondemand with a custom invocation period (the paper recompiled the
    /// kernel to try 1 ms — Figure 2).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[must_use]
    pub fn with_period(period: SimDuration) -> Self {
        assert!(!period.is_zero(), "invocation period must be positive");
        Ondemand {
            period,
            up_threshold: Self::DEFAULT_UP_THRESHOLD,
            invocations: 0,
        }
    }

    /// Overrides the up-threshold (fraction in `(0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if outside `(0, 1]`.
    #[must_use]
    pub fn up_threshold(mut self, t: f64) -> Self {
        assert!(t > 0.0 && t <= 1.0, "threshold must be in (0, 1]");
        self.up_threshold = t;
        self
    }

    /// Times the governor has been invoked.
    #[must_use]
    pub fn invocations(&self) -> u64 {
        self.invocations
    }
}

impl Default for Ondemand {
    fn default() -> Self {
        Ondemand::new()
    }
}

impl CpufreqGovernor for Ondemand {
    fn target(
        &mut self,
        now: SimTime,
        utilization: f64,
        _current: PStateId,
        table: &PStateTable,
    ) -> PStateId {
        self.invocations += 1;
        let u = utilization.clamp(0.0, 1.0);
        let target = if u > self.up_threshold {
            table.fastest()
        } else {
            table.for_freq_fraction(u / self.up_threshold)
        };
        if simtrace::is_enabled() {
            let t = now.as_nanos();
            simtrace::complete(
                "governors",
                "ondemand_decision",
                t,
                0,
                &[simtrace::arg("util", u), simtrace::arg("pstate", target.0)],
            );
            simtrace::metric_add("governors", "ondemand_decisions", t, 1.0);
        }
        target
    }

    fn period(&self) -> Option<SimDuration> {
        Some(self.period)
    }

    fn name(&self) -> &'static str {
        "ondemand"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PStateTable {
        PStateTable::i7_like()
    }

    #[test]
    fn performance_always_p0() {
        let t = table();
        let mut g = Performance;
        for u in [0.0, 0.5, 1.0] {
            assert_eq!(g.target(SimTime::ZERO, u, t.deepest(), &t), t.fastest());
        }
        assert_eq!(g.period(), None);
        assert_eq!(g.name(), "performance");
    }

    #[test]
    fn ondemand_jumps_to_max_above_threshold() {
        let t = table();
        let mut g = Ondemand::new();
        assert_eq!(g.target(SimTime::ZERO, 0.81, t.deepest(), &t), t.fastest());
        assert_eq!(g.target(SimTime::ZERO, 1.0, t.deepest(), &t), t.fastest());
    }

    #[test]
    fn ondemand_scales_proportionally_below_threshold() {
        let t = table();
        let mut g = Ondemand::new();
        // At 40 % load with an 80 % threshold, target f = f_max / 2.
        let p = g.target(SimTime::ZERO, 0.4, t.fastest(), &t);
        assert!(t.freq_hz(p) >= 1_550_000_000);
        assert!(p > t.fastest(), "should not stay at max");
        // Zero load goes to the deepest state.
        assert_eq!(g.target(SimTime::ZERO, 0.0, t.fastest(), &t), t.deepest());
    }

    #[test]
    fn ondemand_default_period_is_10ms() {
        let g = Ondemand::new();
        assert_eq!(g.period(), Some(SimDuration::from_ms(10)));
        assert_eq!(g.name(), "ondemand");
    }

    #[test]
    fn ondemand_counts_invocations() {
        let t = table();
        let mut g = Ondemand::with_period(SimDuration::from_ms(1));
        for _ in 0..5 {
            g.target(SimTime::ZERO, 0.5, t.fastest(), &t);
        }
        assert_eq!(g.invocations(), 5);
    }

    #[test]
    fn ondemand_monotone_in_utilization() {
        let t = table();
        let mut g = Ondemand::new();
        let mut last = t.deepest();
        for i in 0..=20 {
            let u = i as f64 / 20.0;
            let p = g.target(SimTime::ZERO, u, t.fastest(), &t);
            assert!(p <= last, "higher load must not pick deeper state");
            last = p;
        }
    }

    #[test]
    #[should_panic(expected = "invocation period must be positive")]
    fn zero_period_rejected() {
        let _ = Ondemand::with_period(SimDuration::ZERO);
    }
}
