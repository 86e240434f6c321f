//! NCAP configuration: the DecisionEngine thresholds and timers.
//!
//! Paper §6 fixes the threshold values after characterising Memcached and
//! Apache: RHT = 35 K requests/s, RLT = 5 K requests/s, TLT = 5 Mbit/s,
//! CIT = 500 µs. The MITT expires every 40–100 µs (§4.3) and the
//! low-activity window before the first `IT_LOW` is 1 ms. `FCONS` sets
//! how many back-to-back `IT_LOW` interrupts walk the frequency to its
//! minimum: 1 for `ncap.aggr`, 5 for `ncap.cons`.

use desim::{ConfigError, SimDuration};

/// How long one `IT_HIGH` suspends the ondemand governor: one
/// invocation period (§4.3).
pub const ONDEMAND_SUSPEND: SimDuration = SimDuration::from_ms(10);

/// Tunable parameters of the NCAP hardware and driver.
#[derive(Debug, Clone, PartialEq)]
pub struct NcapConfig {
    /// Request-rate high threshold (requests/second): above it, post
    /// `IT_HIGH` unless already at maximum frequency.
    pub rht_rps: f64,
    /// Request-rate low threshold (requests/second).
    pub rlt_rps: f64,
    /// Transmit-rate low threshold (bits/second).
    pub tlt_bps: f64,
    /// Core idle-time threshold: a request arriving after this much
    /// interrupt silence triggers an immediate `IT_RX` wake-up.
    pub cit: SimDuration,
    /// How long rates must stay below RLT/TLT before the first `IT_LOW`.
    pub low_activity_window: SimDuration,
    /// Back-to-back `IT_LOW` interrupts needed to reach minimum frequency.
    pub fcons: u8,
    /// Master Interrupt Throttling Timer period (40–100 µs per §4.3).
    pub mitt_period: SimDuration,
    /// `true` (the paper's design): only template-matching frames count
    /// toward `ReqRate`. `false` models the naive strawman of §4.1 that
    /// reacts to the rate of *any* received packets.
    pub context_aware: bool,
}

impl NcapConfig {
    /// The paper's evaluated configuration (§6), with `FCONS = 5`
    /// (`ncap.cons`). Use [`aggressive`](Self::aggressive) for
    /// `ncap.aggr`.
    #[must_use]
    pub fn paper_defaults() -> Self {
        NcapConfig {
            rht_rps: 35_000.0,
            rlt_rps: 5_000.0,
            tlt_bps: 5_000_000.0,
            cit: SimDuration::from_us(500),
            low_activity_window: SimDuration::from_ms(1),
            fcons: 5,
            mitt_period: SimDuration::from_us(50),
            context_aware: true,
        }
    }

    /// `ncap.cons`: conservative frequency descent (FCONS = 5).
    #[must_use]
    pub fn conservative() -> Self {
        Self::paper_defaults()
    }

    /// `ncap.aggr`: aggressive frequency descent (FCONS = 1).
    #[must_use]
    pub fn aggressive() -> Self {
        NcapConfig {
            fcons: 1,
            ..Self::paper_defaults()
        }
    }

    /// Builder-style override of FCONS ([`validate`](Self::validate)
    /// rejects zero).
    #[must_use]
    pub fn with_fcons(mut self, fcons: u8) -> Self {
        self.fcons = fcons;
        self
    }

    /// Builder-style override of the MITT period
    /// ([`validate`](Self::validate) rejects zero).
    #[must_use]
    pub fn with_mitt_period(mut self, period: SimDuration) -> Self {
        self.mitt_period = period;
        self
    }

    /// Builder-style override of the rate thresholds.
    #[must_use]
    pub fn with_thresholds(mut self, rht_rps: f64, rlt_rps: f64, tlt_bps: f64) -> Self {
        self.rht_rps = rht_rps;
        self.rlt_rps = rlt_rps;
        self.tlt_bps = tlt_bps;
        self
    }

    /// Builder-style override of CIT.
    #[must_use]
    pub fn with_cit(mut self, cit: SimDuration) -> Self {
        self.cit = cit;
        self
    }

    /// Builder-style switch to the naive any-packet-rate trigger
    /// (the §4.1 strawman, for the context-awareness ablation).
    #[must_use]
    pub fn naive_trigger(mut self) -> Self {
        self.context_aware = false;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.rlt_rps > self.rht_rps {
            return Err(ConfigError::new(
                "rlt_rps",
                format!(
                    "RLT ({}) must not exceed RHT ({})",
                    self.rlt_rps, self.rht_rps
                ),
            ));
        }
        if self.fcons == 0 {
            return Err(ConfigError::new("fcons", "FCONS must be at least 1"));
        }
        if self.mitt_period.is_zero() {
            return Err(ConfigError::new(
                "mitt_period",
                "MITT period must be positive",
            ));
        }
        if self.mitt_period > self.low_activity_window {
            return Err(ConfigError::new(
                "mitt_period",
                "MITT period must not exceed the low-activity window",
            ));
        }
        Ok(())
    }
}

impl Default for NcapConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values() {
        let c = NcapConfig::paper_defaults();
        assert_eq!(c.rht_rps, 35_000.0);
        assert_eq!(c.rlt_rps, 5_000.0);
        assert_eq!(c.tlt_bps, 5_000_000.0);
        assert_eq!(c.cit, SimDuration::from_us(500));
        assert_eq!(c.low_activity_window, SimDuration::from_ms(1));
        assert_eq!(c.fcons, 5);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn aggressive_vs_conservative() {
        assert_eq!(NcapConfig::aggressive().fcons, 1);
        assert_eq!(NcapConfig::conservative().fcons, 5);
    }

    #[test]
    fn mitt_period_in_paper_range() {
        let c = NcapConfig::paper_defaults();
        assert!(c.mitt_period >= SimDuration::from_us(40));
        assert!(c.mitt_period <= SimDuration::from_us(100));
    }

    #[test]
    fn builders_compose() {
        let c = NcapConfig::paper_defaults()
            .with_fcons(3)
            .with_mitt_period(SimDuration::from_us(40))
            .with_thresholds(50_000.0, 1_000.0, 1e6)
            .with_cit(SimDuration::from_us(200));
        assert_eq!(c.fcons, 3);
        assert_eq!(c.mitt_period, SimDuration::from_us(40));
        assert_eq!(c.rht_rps, 50_000.0);
        assert_eq!(c.cit, SimDuration::from_us(200));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_inverted_thresholds() {
        let c = NcapConfig::paper_defaults().with_thresholds(1_000.0, 5_000.0, 1e6);
        assert_eq!(c.validate().unwrap_err().field, "rlt_rps");
    }

    #[test]
    fn validation_catches_oversized_mitt() {
        let mut c = NcapConfig::paper_defaults();
        c.mitt_period = SimDuration::from_ms(2);
        assert_eq!(c.validate().unwrap_err().field, "mitt_period");
    }

    #[test]
    fn validation_catches_zero_fcons_and_mitt() {
        // Builders no longer panic; validate() reports the field instead.
        let c = NcapConfig::paper_defaults().with_fcons(0);
        assert_eq!(c.validate().unwrap_err().field, "fcons");
        let c = NcapConfig::paper_defaults().with_mitt_period(SimDuration::ZERO);
        assert_eq!(c.validate().unwrap_err().field, "mitt_period");
    }
}
