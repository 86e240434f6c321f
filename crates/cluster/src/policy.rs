//! The seven evaluated power-management policies.

use cpusim::{PStateId, PStateTable};
use desim::{ConfigError, SimDuration};
use governors::{CpufreqGovernor, CpuidleGovernor, Menu, Ondemand, Performance, PollIdle};
use ncap::{EnhancedDriver, NcapConfig, SoftwareNcap};

/// A named combination of cpufreq/cpuidle governors and NCAP variant
/// (paper §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// `perf`: performance governor, C-states disabled.
    Perf,
    /// `ond`: ondemand governor, C-states disabled.
    Ond,
    /// `perf.idle`: performance + menu.
    PerfIdle,
    /// `ond.idle`: ondemand + menu.
    OndIdle,
    /// `ncap.sw`: software NCAP atop ond.idle.
    NcapSw,
    /// `ncap.cons`: hardware NCAP, FCONS = 5, atop ond.idle.
    NcapCons,
    /// `ncap.aggr`: hardware NCAP, FCONS = 1, atop ond.idle.
    NcapAggr,
}

impl Policy {
    /// All seven policies, in the paper's presentation order.
    pub const ALL: [Policy; 7] = [
        Policy::Perf,
        Policy::Ond,
        Policy::PerfIdle,
        Policy::OndIdle,
        Policy::NcapSw,
        Policy::NcapCons,
        Policy::NcapAggr,
    ];

    /// The paper's name for the policy.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Policy::Perf => "perf",
            Policy::Ond => "ond",
            Policy::PerfIdle => "perf.idle",
            Policy::OndIdle => "ond.idle",
            Policy::NcapSw => "ncap.sw",
            Policy::NcapCons => "ncap.cons",
            Policy::NcapAggr => "ncap.aggr",
        }
    }

    /// Parses the paper's name for a policy.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] listing the accepted names.
    pub fn parse(s: &str) -> Result<Self, ConfigError> {
        Policy::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Policy::ALL.iter().map(|p| p.name()).collect();
                ConfigError::new(
                    "policy",
                    format!("unknown policy `{s}` (expected {})", names.join("|")),
                )
            })
    }

    /// `true` for the three NCAP variants.
    #[must_use]
    pub fn is_ncap(self) -> bool {
        matches!(self, Policy::NcapSw | Policy::NcapCons | Policy::NcapAggr)
    }

    /// `true` when the policy uses hardware NCAP in the NIC.
    #[must_use]
    pub fn uses_ncap_hardware(self) -> bool {
        matches!(self, Policy::NcapCons | Policy::NcapAggr)
    }

    /// `true` when C-states are available (menu governor active).
    #[must_use]
    pub fn uses_cstates(self) -> bool {
        !matches!(self, Policy::Perf | Policy::Ond)
    }

    /// `true` when the dynamic ondemand governor drives P-states.
    #[must_use]
    pub fn uses_ondemand(self) -> bool {
        !matches!(self, Policy::Perf | Policy::PerfIdle)
    }

    /// The NCAP configuration for this policy, if any.
    #[must_use]
    pub fn ncap_config(self) -> Option<NcapConfig> {
        match self {
            Policy::NcapSw => Some(NcapConfig::paper_defaults()),
            Policy::NcapCons => Some(NcapConfig::conservative()),
            Policy::NcapAggr => Some(NcapConfig::aggressive()),
            _ => None,
        }
    }

    /// Builds the cpufreq governor (with the given ondemand period).
    #[must_use]
    pub fn cpufreq(self, ondemand_period: SimDuration) -> Box<dyn CpufreqGovernor + Send> {
        if self.uses_ondemand() {
            Box::new(Ondemand::with_period(ondemand_period))
        } else {
            Box::new(Performance)
        }
    }

    /// Builds the cpuidle governor for `cores` cores.
    #[must_use]
    pub fn cpuidle(self, cores: usize) -> Box<dyn CpuidleGovernor + Send> {
        if self.uses_cstates() {
            Box::new(Menu::new(cores))
        } else {
            Box::new(PollIdle)
        }
    }

    /// The NCAP-enhanced driver, for hardware NCAP policies.
    #[must_use]
    pub fn ncap_driver(self, table: &PStateTable) -> Option<EnhancedDriver> {
        if self.uses_ncap_hardware() {
            Some(EnhancedDriver::new(
                self.ncap_config().expect("hardware policies have a config"),
                table,
            ))
        } else {
            None
        }
    }

    /// The software NCAP block, for `ncap.sw`.
    #[must_use]
    pub fn software_ncap(self, table: &PStateTable) -> Option<SoftwareNcap> {
        if self == Policy::NcapSw {
            Some(SoftwareNcap::new(NcapConfig::paper_defaults(), table))
        } else {
            None
        }
    }

    /// The P-state the server boots in under this policy. Performance
    /// policies start at P0; dynamic ones start at the deepest state and
    /// must earn their way up.
    #[must_use]
    pub fn initial_pstate(self, table: &PStateTable) -> PStateId {
        if self.uses_ondemand() {
            table.deepest()
        } else {
            table.fastest()
        }
    }
}

impl core::fmt::Display for Policy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper() {
        let names: Vec<&str> = Policy::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            [
                "perf",
                "ond",
                "perf.idle",
                "ond.idle",
                "ncap.sw",
                "ncap.cons",
                "ncap.aggr"
            ]
        );
    }

    #[test]
    fn names_parse_back() {
        for p in Policy::ALL {
            assert_eq!(Policy::parse(p.name()), Ok(p));
        }
        let err = Policy::parse("turbo").unwrap_err();
        assert_eq!(err.field, "policy");
        assert!(err.reason.contains("perf|ond|perf.idle"), "{err}");
    }

    #[test]
    fn governor_composition() {
        assert_eq!(
            Policy::Perf.cpufreq(SimDuration::from_ms(10)).name(),
            "performance"
        );
        assert_eq!(
            Policy::OndIdle.cpufreq(SimDuration::from_ms(10)).name(),
            "ondemand"
        );
        assert_eq!(Policy::Perf.cpuidle(4).name(), "poll");
        assert_eq!(Policy::NcapCons.cpuidle(4).name(), "menu");
    }

    #[test]
    fn ncap_variants() {
        assert!(!Policy::OndIdle.is_ncap());
        assert!(Policy::NcapSw.is_ncap());
        assert!(!Policy::NcapSw.uses_ncap_hardware());
        assert!(Policy::NcapAggr.uses_ncap_hardware());
        assert_eq!(Policy::NcapCons.ncap_config().unwrap().fcons, 5);
        assert_eq!(Policy::NcapAggr.ncap_config().unwrap().fcons, 1);
        assert!(Policy::Perf.ncap_config().is_none());
    }

    #[test]
    fn drivers_only_for_matching_variants() {
        let t = PStateTable::i7_like();
        assert!(Policy::NcapCons.ncap_driver(&t).is_some());
        assert!(Policy::NcapSw.ncap_driver(&t).is_none());
        assert!(Policy::NcapSw.software_ncap(&t).is_some());
        assert!(Policy::NcapCons.software_ncap(&t).is_none());
        assert!(Policy::OndIdle.ncap_driver(&t).is_none());
    }

    #[test]
    fn initial_pstates() {
        let t = PStateTable::i7_like();
        assert_eq!(Policy::Perf.initial_pstate(&t), t.fastest());
        assert_eq!(Policy::PerfIdle.initial_pstate(&t), t.fastest());
        assert_eq!(Policy::OndIdle.initial_pstate(&t), t.deepest());
        assert_eq!(Policy::NcapAggr.initial_pstate(&t), t.deepest());
    }
}
