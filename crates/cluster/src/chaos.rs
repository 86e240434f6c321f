//! Deterministic chaos campaigns: seeded scenario generation, the
//! end-of-run oracle, and an automatic shrinker.
//!
//! A chaos *scenario* is a complete description of one adversarial run:
//! a fleet topology, an offered load (possibly with a flash-crowd step),
//! per-backend failure events (crash/slow/hang with restarts), and
//! correlated failure-domain windows (rack-level partitions and
//! brownouts). [`ChaosScenario::generate`] draws all of it from a single
//! seed — same seed, same scenario, same simulation, byte-identical
//! verdict — and every generated scenario passes the same typed
//! validation as hand-written configs.
//!
//! The *oracle* ([`judge`]) asserts what must survive any composition of
//! the generated faults: the watchdog's invariants stay silent (the
//! scenario runs with [`WatchdogConfig::expecting_quiescence`], so
//! end-of-run leaks are violations too), the end-to-end ledger balances
//! (`issued == completed + rejected`, nothing lost, nothing in flight
//! after the drain window), and the LB ledger closes without orphans.
//!
//! When a seed fails, [`shrink`] greedily minimizes the scenario — drop
//! fault events, shrink domain memberships, strip the flash crowd and
//! coordinator — re-running the simulation after each candidate edit and
//! keeping it only if the failure persists. The result serializes to a
//! replayable scenario file ([`ChaosScenario::to_file_string`] /
//! [`ChaosScenario::from_file_str`]) consumed by `ncap chaos --scenario`.

use crate::config::{token, value, AppKind, ExperimentConfig};
use crate::policy::Policy;
use crate::runner::{run_experiment, run_experiments_on, ExperimentResult};
use crate::watchdog::WatchdogConfig;
use desim::{ConfigError, SimDuration, SimTime, SplitMix64};
use fleetsim::{
    CoordinatorConfig, DispatchPolicy, DomainFaultSpec, DomainSchedule, FailureMode,
    FailureSchedule, FailureSpec, FleetConfig,
};
use netsim::{DomainImpairment, RetxConfig};
use oskernel::Datapath;

/// Policies the generator draws from. Chaos exercises the recovery
/// machinery, not the power model, so one representative from each
/// family (static, ondemand+idle, NCAP) is enough.
const POLICY_POOL: [Policy; 3] = [Policy::Perf, Policy::OndIdle, Policy::NcapCons];

/// One complete chaos scenario. Plain data: convertible to an
/// [`ExperimentConfig`] (forward) and a scenario file (round-trip).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosScenario {
    /// The seed this scenario was generated from (also the simulation's
    /// master seed, so scenario and run randomness are pinned together).
    pub seed: u64,
    /// Power-management policy under test.
    pub policy: Policy,
    /// Backend count. Backend 0 is never targeted by generated faults so
    /// the fleet always retains one healthy server — without that floor,
    /// total-blackout scenarios fail quiescence vacuously.
    pub backends: usize,
    /// LB dispatch policy.
    pub dispatch: DispatchPolicy,
    /// Whether the fleet power coordinator (park/unpark) runs.
    pub coordinator: bool,
    /// Offered load, requests/second across all clients.
    pub load_rps: f64,
    /// Smooth Poisson arrivals instead of periodic bursts.
    pub poisson: bool,
    /// Warmup before the measured window.
    pub warmup: SimDuration,
    /// Measured window.
    pub measure: SimDuration,
    /// Tail drain: clients stop this long before the horizon so the
    /// quiescence oracle judges a settled system.
    pub drain: SimDuration,
    /// Per-backend failure events.
    pub crashes: Vec<FailureSpec>,
    /// Correlated failure-domain windows.
    pub domains: Vec<DomainFaultSpec>,
    /// Flash crowd: from this offset, clients switch to the new load.
    pub flash_crowd: Option<(SimDuration, f64)>,
    /// Replays the deliberately planted LB ledger bug
    /// ([`FleetConfig::ledger_skew_for_test`]). Never drawn by the
    /// generator; carried in scenario files so a shrunken repro of the
    /// planted bug replays exactly.
    pub ledger_skew: bool,
    /// Backend network datapath. The generator pairs it with the policy
    /// so every drawn scenario is valid: NCAP policies get kernel or
    /// offload, non-NCAP policies get kernel or bypass.
    pub datapath: Datapath,
    /// Busy-poll cores per backend ([`Datapath::Bypass`] only).
    pub poll_cores: u8,
}

impl ChaosScenario {
    /// Draws a complete scenario from `seed`. Deterministic and always
    /// valid: [`validate`](Self::validate) holds for every seed.
    #[must_use]
    pub fn generate(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0xC4A0_5CA0_5EED_0001);
        let backends = 2 + rng.next_below(4) as usize; // 2..=5
        let policy = POLICY_POOL[rng.next_below(POLICY_POOL.len() as u64) as usize];
        let dispatch = DispatchPolicy::ALL[rng.next_below(3) as usize];
        let coordinator = rng.next_below(4) == 0;
        let load_rps = rng.next_f64_in(6_000.0, 16_000.0);
        let poisson = rng.next_below(2) == 0;

        // Fault windows live in [4 ms, 30 ms]; load stops at 37 ms and
        // the drain runs to the 62 ms horizon, leaving every injected
        // fault ≥ 7 ms of faulted load plus ≥ 25 ms of recovery room.
        let warmup = SimDuration::from_ms(2);
        let measure = SimDuration::from_ms(60);
        let drain = SimDuration::from_ms(25);
        let window = |rng: &mut SplitMix64| {
            SimTime::ZERO + SimDuration::from_us(4_000 + rng.next_below(22_000))
        };

        // Crash/slow/hang events hit distinct backends drawn from
        // 1..backends (backend 0 stays clean, see field doc).
        let mut crash_pool: Vec<usize> = (1..backends).collect();
        let crash_count = (rng.next_below(3) as usize).min(crash_pool.len());
        let mut crashes = Vec::new();
        for _ in 0..crash_count {
            let pick = rng.next_below(crash_pool.len() as u64) as usize;
            let backend = crash_pool.swap_remove(pick);
            let mode = match rng.next_below(4) {
                0 | 1 => FailureMode::Stop,
                2 => FailureMode::Slow,
                _ => FailureMode::Hang,
            };
            crashes.push(FailureSpec {
                backend,
                at: window(&mut rng),
                mode,
                restart_after: Some(SimDuration::from_ms(2 + rng.next_below(5))),
            });
        }

        // Domain windows take disjoint member sets (also from
        // 1..backends), so two windows never share a backend and the
        // schedule's overlap validation holds by construction.
        let mut domain_pool: Vec<usize> = (1..backends).collect();
        let domain_count = (rng.next_below(3) as usize).min(domain_pool.len());
        let mut domains = Vec::new();
        for _ in 0..domain_count {
            if domain_pool.is_empty() {
                break;
            }
            let width = (1 + rng.next_below(2) as usize).min(domain_pool.len());
            let mut members = Vec::new();
            for _ in 0..width {
                let pick = rng.next_below(domain_pool.len() as u64) as usize;
                members.push(domain_pool.swap_remove(pick));
            }
            members.sort_unstable();
            let impairment = if rng.next_below(2) == 0 {
                DomainImpairment::Partition
            } else {
                DomainImpairment::Brownout {
                    loss: rng.next_f64_in(0.05, 0.45),
                    jitter: SimDuration::from_us(rng.next_below(200)),
                }
            };
            domains.push(DomainFaultSpec {
                backends: members,
                at: window(&mut rng),
                duration: SimDuration::from_ms(2 + rng.next_below(4)),
                impairment,
            });
        }

        let flash_crowd = (rng.next_below(2) == 0).then(|| {
            let at = SimDuration::from_us(15_000 + rng.next_below(10_000));
            (at, load_rps * 1.4)
        });

        // Datapath draw rides at the end so it never perturbs the fault
        // schedule a pre-datapath seed produced. Half the campaign keeps
        // the kernel stack; the rest takes whichever rival stack the
        // drawn policy permits (bypass forbids NCAP, offload demands
        // NCAP hardware).
        let datapath = if rng.next_below(2) == 0 {
            Datapath::Kernel
        } else if policy.uses_ncap_hardware() {
            Datapath::Offload
        } else {
            Datapath::Bypass
        };
        let poll_cores = 1 + rng.next_below(2) as u8; // 1..=2 of 4 cores

        ChaosScenario {
            seed,
            policy,
            backends,
            dispatch,
            coordinator,
            load_rps,
            poisson,
            warmup,
            measure,
            drain,
            crashes,
            domains,
            flash_crowd,
            ledger_skew: false,
            datapath,
            poll_cores,
        }
    }

    /// Number of discrete fault events (crashes + domain windows) — the
    /// quantity the shrinker minimizes.
    #[must_use]
    pub fn fault_events(&self) -> usize {
        self.crashes.len() + self.domains.len()
    }

    /// Builds the runnable experiment. The watchdog collects (a chaos
    /// failure is a verdict, not a panic) and demands quiescence; the
    /// retransmission layer is armed with a fast, patient profile so
    /// recovery — not timer exhaustion — decides the outcome.
    #[must_use]
    pub fn to_config(&self) -> ExperimentConfig {
        let mut fleet =
            FleetConfig::new(self.backends, self.dispatch).with_faults(FailureSchedule {
                specs: self.crashes.clone(),
                slow_factor: 4.0,
            });
        fleet.domains = DomainSchedule {
            domains: self.domains.clone(),
            seed: self.seed ^ 0xD0_3A17,
        };
        if self.coordinator {
            fleet = fleet.with_coordinator(CoordinatorConfig::new(12_000.0).with_min_active(1));
        }
        if self.ledger_skew {
            fleet = fleet.with_ledger_skew_for_test();
        }
        let mut cfg = ExperimentConfig::new(AppKind::Memcached, self.policy, self.load_rps)
            .with_durations(self.warmup, self.measure)
            .with_drain(self.drain)
            .with_watchdog(
                WatchdogConfig::default()
                    .collecting()
                    .expecting_quiescence(),
            )
            .with_datapath(self.datapath)
            .with_poll_cores(self.poll_cores)
            .with_fleet(fleet);
        cfg.seed = self.seed ^ 0x4E43_4150;
        cfg.burst_size = 8;
        cfg.poisson = self.poisson;
        cfg.faults.retx = RetxConfig {
            enabled: true,
            rto_initial: SimDuration::from_us(800),
            rto_max: SimDuration::from_ms(6),
            max_retries: 32,
        };
        if let Some((at, rps)) = self.flash_crowd {
            cfg = cfg.with_load_step(at, rps);
        }
        cfg
    }

    /// Validates the scenario by validating the experiment it builds.
    ///
    /// # Errors
    ///
    /// Returns the embedded config's [`ConfigError`] naming the first
    /// offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.to_config().validate()
    }

    /// Serializes to the plain `key=value` scenario-file format.
    #[must_use]
    pub fn to_file_string(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        s.push_str("# ncap chaos scenario (replay: ncap chaos --scenario <this file>)\n");
        let _ = writeln!(s, "seed={}", self.seed);
        let _ = writeln!(s, "policy={}", self.policy.name());
        let _ = writeln!(s, "backends={}", self.backends);
        let _ = writeln!(s, "dispatch={}", self.dispatch.name());
        let _ = writeln!(s, "datapath={}", self.datapath.name());
        let _ = writeln!(s, "poll_cores={}", self.poll_cores);
        let _ = writeln!(s, "coordinator={}", u8::from(self.coordinator));
        let _ = writeln!(s, "load_rps={}", self.load_rps);
        let _ = writeln!(s, "poisson={}", u8::from(self.poisson));
        let _ = writeln!(s, "warmup_ns={}", self.warmup.as_nanos());
        let _ = writeln!(s, "measure_ns={}", self.measure.as_nanos());
        let _ = writeln!(s, "drain_ns={}", self.drain.as_nanos());
        if let Some((at, rps)) = self.flash_crowd {
            let _ = writeln!(s, "flash={},{}", at.as_nanos(), rps);
        }
        for c in &self.crashes {
            let restart = c
                .restart_after
                .map_or_else(|| "never".to_string(), |d| d.as_nanos().to_string());
            let _ = writeln!(
                s,
                "crash={},{},{},{restart}",
                c.backend,
                c.mode.name(),
                c.at.as_nanos()
            );
        }
        for d in &self.domains {
            let members = d
                .backends
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("+");
            match d.impairment {
                DomainImpairment::Partition => {
                    let _ = writeln!(
                        s,
                        "domain={},{},partition,{members}",
                        d.at.as_nanos(),
                        d.duration.as_nanos()
                    );
                }
                DomainImpairment::Brownout { loss, jitter } => {
                    let _ = writeln!(
                        s,
                        "domain={},{},brownout,{loss},{},{members}",
                        d.at.as_nanos(),
                        d.duration.as_nanos(),
                        jitter.as_nanos()
                    );
                }
            }
        }
        if self.ledger_skew {
            s.push_str("ledger_skew=1\n");
        }
        s
    }

    /// Parses the scenario-file format written by
    /// [`to_file_string`](Self::to_file_string).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending line/field; the
    /// parsed scenario is also re-validated end to end.
    pub fn from_file_str(text: &str) -> Result<Self, ConfigError> {
        let mut sc = ChaosScenario {
            seed: 0,
            policy: Policy::Perf,
            backends: 0,
            dispatch: DispatchPolicy::RoundRobin,
            coordinator: false,
            load_rps: 0.0,
            poisson: false,
            warmup: SimDuration::ZERO,
            measure: SimDuration::ZERO,
            drain: SimDuration::ZERO,
            crashes: Vec::new(),
            domains: Vec::new(),
            flash_crowd: None,
            ledger_skew: false,
            datapath: Datapath::Kernel,
            poll_cores: 1,
        };
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            sc.apply_line(line).map_err(|e| {
                ConfigError::new(e.field, format!("line {}: {}", lineno + 1, e.reason))
            })?;
        }
        sc.validate()?;
        Ok(sc)
    }

    /// Applies one `key=value[,value…]` line of a scenario file.
    fn apply_line(&mut self, line: &str) -> Result<(), ConfigError> {
        let (key, values) = line.split_once('=').ok_or_else(|| {
            ConfigError::new("scenario", format!("expected key=value, got {line:?}"))
        })?;
        let it = &mut values.split(',');
        // Name enum errors after the scenario key, like every other error.
        let named = |field| move |e: ConfigError| ConfigError::new(field, e.reason);
        match key {
            "seed" => self.seed = value("scenario.seed", it)?,
            "policy" => {
                const F: &str = "scenario.policy";
                self.policy = Policy::parse(token(F, it)?).map_err(named(F))?;
            }
            "backends" => self.backends = value("scenario.backends", it)?,
            "dispatch" => {
                const F: &str = "scenario.dispatch";
                self.dispatch = DispatchPolicy::parse(token(F, it)?).map_err(named(F))?;
            }
            "datapath" => {
                const F: &str = "scenario.datapath";
                self.datapath = Datapath::parse(token(F, it)?).map_err(named(F))?;
            }
            "poll_cores" => self.poll_cores = value("scenario.poll_cores", it)?,
            "coordinator" => self.coordinator = flag("scenario.coordinator", it)?,
            "poisson" => self.poisson = flag("scenario.poisson", it)?,
            "ledger_skew" => self.ledger_skew = flag("scenario.ledger_skew", it)?,
            "load_rps" => self.load_rps = value("scenario.load_rps", it)?,
            "warmup_ns" => self.warmup = SimDuration::from_nanos(value("scenario.warmup_ns", it)?),
            "measure_ns" => {
                self.measure = SimDuration::from_nanos(value("scenario.measure_ns", it)?);
            }
            "drain_ns" => self.drain = SimDuration::from_nanos(value("scenario.drain_ns", it)?),
            "flash" => {
                const F: &str = "scenario.flash";
                self.flash_crowd = Some((SimDuration::from_nanos(value(F, it)?), value(F, it)?));
            }
            "crash" => {
                const F: &str = "scenario.crash";
                let backend = value(F, it)?;
                let mode = FailureMode::parse(token(F, it)?).map_err(named(F))?;
                let at = SimTime::from_nanos(value(F, it)?);
                let restart_after = match token(F, it)? {
                    "never" => None,
                    ns => Some(SimDuration::from_nanos(value(F, &mut std::iter::once(ns))?)),
                };
                self.crashes.push(FailureSpec {
                    backend,
                    at,
                    mode,
                    restart_after,
                });
            }
            "domain" => {
                const F: &str = "scenario.domain";
                let at = SimTime::from_nanos(value(F, it)?);
                let duration = SimDuration::from_nanos(value(F, it)?);
                let impairment = match token(F, it)? {
                    "partition" => DomainImpairment::Partition,
                    "brownout" => DomainImpairment::Brownout {
                        loss: value(F, it)?,
                        jitter: SimDuration::from_nanos(value(F, it)?),
                    },
                    other => {
                        return Err(ConfigError::new(
                            F,
                            format!("unknown impairment {other:?} (expected partition|brownout)"),
                        ));
                    }
                };
                let mut backends = Vec::new();
                for m in token(F, it)?.split('+') {
                    backends.push(value(F, &mut std::iter::once(m))?);
                }
                self.domains.push(DomainFaultSpec {
                    backends,
                    at,
                    duration,
                    impairment,
                });
            }
            _ => {
                return Err(ConfigError::new("scenario", format!("unknown key {key:?}")));
            }
        }
        match it.next() {
            None => Ok(()),
            Some(extra) => Err(ConfigError::new(
                "scenario",
                format!("unexpected value {extra:?} after {key}"),
            )),
        }
    }
}

/// The next token as a scenario-file boolean: exactly `0` or `1`, the
/// spellings [`ChaosScenario::to_file_string`] writes.
fn flag<'a>(
    field: &'static str,
    it: &mut impl Iterator<Item = &'a str>,
) -> Result<bool, ConfigError> {
    match token(field, it)? {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(ConfigError::new(
            field,
            format!("expected 0 or 1, got {other:?}"),
        )),
    }
}

/// The chaos oracle: everything that must hold at the end of any
/// scenario run, regardless of which faults were composed. Returns one
/// human-readable line per broken property; empty means the seed passed.
#[must_use]
pub fn judge(result: &ExperimentResult) -> Vec<String> {
    let mut failures: Vec<String> = result
        .invariant_violations
        .iter()
        .map(ToString::to_string)
        .collect();
    let f = &result.faults;
    let resolved = f.completed_total + f.rejected_total + f.lost_requests + f.in_flight;
    if f.issued_total != resolved {
        failures.push(format!(
            "end-to-end ledger: issued {} != completed {} + rejected {} + lost {} + in_flight {}",
            f.issued_total, f.completed_total, f.rejected_total, f.lost_requests, f.in_flight
        ));
    }
    if let Some(fleet) = &result.fleet {
        let closed = fleet.requests_completed + fleet.requests_rejected + fleet.outstanding;
        if fleet.requests_opened != closed {
            failures.push(format!(
                "LB ledger: opened {} != completed {} + rejected {} + outstanding {}",
                fleet.requests_opened,
                fleet.requests_completed,
                fleet.requests_rejected,
                fleet.outstanding
            ));
        }
        if fleet.unmatched_responses > 0 {
            failures.push(format!(
                "{} response(s) matched no conntrack entry",
                fleet.unmatched_responses
            ));
        }
    }
    failures
}

/// One seed's campaign outcome.
#[derive(Debug, Clone)]
pub struct SeedVerdict {
    /// The scenario that ran.
    pub scenario: ChaosScenario,
    /// Oracle failures (empty = passed).
    pub failures: Vec<String>,
    /// Requests completed, for the summary table.
    pub completed: u64,
    /// Failovers the LB performed.
    pub failovers: u64,
}

impl SeedVerdict {
    /// Whether the seed passed the oracle.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs the scenarios for `seeds` (in parallel across `threads`) and
/// judges each. Verdicts return in seed order and are byte-identical
/// whatever `threads` is — each run is a pure function of its scenario.
#[must_use]
pub fn run_campaign(seeds: &[u64], threads: usize) -> Vec<SeedVerdict> {
    let scenarios: Vec<ChaosScenario> = seeds.iter().map(|&s| ChaosScenario::generate(s)).collect();
    run_scenarios(&scenarios, threads)
}

/// [`run_campaign`] over explicit (possibly hand-written or shrunken)
/// scenarios.
#[must_use]
pub fn run_scenarios(scenarios: &[ChaosScenario], threads: usize) -> Vec<SeedVerdict> {
    let configs: Vec<ExperimentConfig> = scenarios.iter().map(ChaosScenario::to_config).collect();
    let results = run_experiments_on(&configs, threads.max(1));
    scenarios
        .iter()
        .zip(&results)
        .map(|(scenario, result)| SeedVerdict {
            scenario: scenario.clone(),
            failures: judge(result),
            completed: result.completed,
            failovers: result.fleet.as_ref().map_or(0, |f| f.failovers),
        })
        .collect()
}

/// Upper bound on shrink re-runs; generated scenarios hold ≤ 4 fault
/// events plus a handful of knobs, so greedy passes converge far below
/// this. The cap only guards hand-written monsters.
const SHRINK_RUN_BUDGET: u32 = 96;

/// Greedily minimizes a failing scenario: repeatedly drop fault events,
/// shrink domain memberships, and strip knobs (flash crowd, coordinator,
/// Poisson arrivals), keeping each edit only if the oracle still fails.
/// Deterministic; returns the smallest still-failing scenario found and
/// the number of verification runs spent.
#[must_use]
pub fn shrink(scenario: &ChaosScenario) -> (ChaosScenario, u32) {
    let runs = std::cell::Cell::new(0u32);
    let still_fails = |cand: &ChaosScenario| {
        if runs.get() >= SHRINK_RUN_BUDGET {
            return false;
        }
        runs.set(runs.get() + 1);
        !judge(&run_experiment(&cand.to_config())).is_empty()
    };
    let mut best = scenario.clone();
    loop {
        let mut improved = false;

        // Pass 1: drop whole fault events, highest index first so
        // removals do not disturb the indices still to be tried.
        for i in (0..best.crashes.len()).rev() {
            let mut cand = best.clone();
            cand.crashes.remove(i);
            if still_fails(&cand) {
                best = cand;
                improved = true;
            }
        }
        for i in (0..best.domains.len()).rev() {
            let mut cand = best.clone();
            cand.domains.remove(i);
            if still_fails(&cand) {
                best = cand;
                improved = true;
            }
        }

        // Pass 2: shrink surviving domain memberships one backend at a
        // time (a window needs at least one member to stay valid).
        for d in 0..best.domains.len() {
            while best.domains[d].backends.len() > 1 {
                let mut cand = best.clone();
                cand.domains[d].backends.pop();
                if still_fails(&cand) {
                    best = cand;
                    improved = true;
                } else {
                    break;
                }
            }
        }

        // Pass 3: strip scenario knobs.
        if best.flash_crowd.is_some() {
            let mut cand = best.clone();
            cand.flash_crowd = None;
            if still_fails(&cand) {
                best = cand;
                improved = true;
            }
        }
        if best.coordinator {
            let mut cand = best.clone();
            cand.coordinator = false;
            if still_fails(&cand) {
                best = cand;
                improved = true;
            }
        }
        if best.poisson {
            let mut cand = best.clone();
            cand.poisson = false;
            if still_fails(&cand) {
                best = cand;
                improved = true;
            }
        }
        if best.datapath != Datapath::Kernel {
            let mut cand = best.clone();
            cand.datapath = Datapath::Kernel;
            if still_fails(&cand) {
                best = cand;
                improved = true;
            }
        }

        if !improved || runs.get() >= SHRINK_RUN_BUDGET {
            return (best, runs.get());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_generated_scenario_validates() {
        for seed in 0..200 {
            let sc = ChaosScenario::generate(seed);
            sc.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(sc.backends >= 2);
            assert!(
                sc.crashes.iter().all(|c| c.backend != 0)
                    && sc.domains.iter().all(|d| !d.backends.contains(&0)),
                "seed {seed}: backend 0 must stay clean"
            );
        }
    }

    #[test]
    fn campaign_seed_space_covers_every_datapath() {
        let mut seen = [false; 3];
        for seed in 0..200 {
            let sc = ChaosScenario::generate(seed);
            match sc.datapath {
                Datapath::Kernel => seen[0] = true,
                Datapath::Bypass => seen[1] = true,
                Datapath::Offload => seen[2] = true,
            }
            // The draw is policy-aware, so every scenario stays valid.
            if sc.datapath == Datapath::Bypass {
                assert!(!sc.policy.is_ncap(), "seed {seed}");
            }
            if sc.datapath == Datapath::Offload {
                assert!(sc.policy.uses_ncap_hardware(), "seed {seed}");
            }
        }
        assert_eq!(
            seen, [true; 3],
            "200 seeds must cover kernel/bypass/offload"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(ChaosScenario::generate(7), ChaosScenario::generate(7));
        // Different seeds land on different scenarios (spot check).
        assert_ne!(ChaosScenario::generate(1), ChaosScenario::generate(2));
    }

    #[test]
    fn scenario_file_round_trips() {
        for seed in [0, 3, 17, 42] {
            let sc = ChaosScenario::generate(seed);
            let text = sc.to_file_string();
            let back = ChaosScenario::from_file_str(&text)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
            assert_eq!(sc, back, "seed {seed} file:\n{text}");
        }
        // The ledger-skew flag survives the trip too.
        let mut sc = ChaosScenario::generate(5);
        sc.ledger_skew = true;
        let back = ChaosScenario::from_file_str(&sc.to_file_string()).expect("parses");
        assert!(back.ledger_skew);
    }

    #[test]
    fn scenario_parse_rejects_garbage_with_typed_errors() {
        for (text, want) in [
            ("nonsense", "scenario"),
            ("policy=warp9", "scenario.policy"),
            ("crash=0,stop,oops,never", "scenario.crash"),
            ("domain=1,2,tsunami,1", "scenario.domain"),
            ("sneed=4", "scenario"),
            ("seed=4,5", "scenario"),
            ("poisson=true", "scenario.poisson"),
            ("coordinator=yes", "scenario.coordinator"),
            ("ledger_skew=2", "scenario.ledger_skew"),
        ] {
            let err = ChaosScenario::from_file_str(text).expect_err(text);
            assert_eq!(err.field, want, "{text}: {err}");
        }
        // A file without a measured window would load and run nothing.
        let text = ChaosScenario::generate(3).to_file_string();
        let windowless: String = text
            .lines()
            .filter(|l| !l.starts_with("measure_ns="))
            .map(|l| format!("{l}\n"))
            .collect();
        let err = ChaosScenario::from_file_str(&windowless).expect_err("no window");
        assert_eq!(err.field, "measure", "{err}");
    }
}
