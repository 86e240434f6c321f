//! Deterministic chaos campaigns: seeded scenario generation, the
//! watchdog's verdict, and an automatic shrinker.
//!
//! A chaos *scenario* is an [`ExperimentConfig`] that describes one
//! adversarial run: a fleet topology, an offered load (possibly with a
//! flash-crowd step), per-backend failure events (crash/slow/hang with
//! restarts), and correlated failure-domain windows (rack-level
//! partitions and brownouts). [`generate`] draws all of it from a single
//! seed — same seed, same config, same simulation, byte-identical verdict
//! — and every generated config passes [`ExperimentConfig::validate`].
//!
//! The verdict is the watchdog's. Every scenario runs it in Collect mode
//! with [`WatchdogConfig::expecting_quiescence`], and its terminal check
//! at the horizon audits the end-to-end ledger, the LB ledger (limbo
//! included), routing, and end-of-run leaks. A seed fails exactly when
//! its run reports an invariant violation.
//!
//! When a seed fails, [`shrink`] greedily minimizes the scenario — drop
//! fault events, shrink domain memberships, strip the flash crowd and
//! coordinator — re-running the simulation after each candidate edit and
//! keeping it only if the failure persists. The result serializes to a
//! replayable scenario file ([`to_file_string`] / [`from_file_str`])
//! consumed by `ncap chaos --scenario`.

use crate::config::{token, value, AppKind, ExperimentConfig, DEFAULT_SEED};
use crate::policy::Policy;
use crate::runner::{run_experiment, run_experiments_on};
use crate::watchdog::WatchdogConfig;
use desim::{ConfigError, SimDuration, SimTime, SplitMix64};
use fleetsim::{
    CoordinatorConfig, DispatchPolicy, DomainFaultSpec, FailureMode, FailureSchedule, FailureSpec,
    FleetConfig,
};
use netsim::{DomainImpairment, RetxConfig};
use oskernel::Datapath;

/// Policies the generator draws from. Chaos exercises the recovery
/// machinery, not the power model, so one representative from each
/// family (static, ondemand+idle, NCAP) is enough.
const POLICY_POOL: [Policy; 3] = [Policy::Perf, Policy::OndIdle, Policy::NcapCons];

/// Mixed into a scenario's seed to seed its fleet's brownout streams.
const DOMAIN_SEED_MIX: u64 = 0xD0_3A17;

/// The settings every scenario shares, which neither the generator draws
/// nor a scenario file spells, with the fleet held apart until the
/// drawn or read fields are in. The watchdog collects (a chaos failure
/// is a verdict, not a panic) and demands quiescence; the
/// retransmission layer is armed with a fast, patient profile so
/// recovery — not timer exhaustion — decides the outcome. Everything a
/// file may omit starts empty: no windows, no load, `perf`, round-robin
/// over no backends, the kernel datapath with one poll core.
fn base(seed: u64) -> (ExperimentConfig, FleetConfig) {
    let mut fleet = FleetConfig::new(0, DispatchPolicy::RoundRobin).with_faults(FailureSchedule {
        specs: Vec::new(),
        slow_factor: 4.0,
    });
    let mut cfg = ExperimentConfig::new(AppKind::Memcached, Policy::Perf, 0.0)
        .with_durations(SimDuration::ZERO, SimDuration::ZERO)
        .with_watchdog(
            WatchdogConfig::default()
                .collecting()
                .expecting_quiescence(),
        );
    cfg.burst_size = 8;
    cfg.faults.retx = RetxConfig {
        enabled: true,
        rto_initial: SimDuration::from_us(800),
        rto_max: SimDuration::from_ms(6),
        max_retries: 32,
    };
    set_seed(&mut cfg, &mut fleet, seed);
    (cfg, fleet)
}

/// Pins the run's master seed and the fleet's brownout streams to the
/// scenario `seed`, so scenario and run randomness move together.
fn set_seed(cfg: &mut ExperimentConfig, fleet: &mut FleetConfig, seed: u64) {
    cfg.seed = seed ^ DEFAULT_SEED;
    fleet.domains.seed = seed ^ DOMAIN_SEED_MIX;
}

/// The seed a scenario was generated from, or the one its file names.
#[must_use]
pub fn scenario_seed(cfg: &ExperimentConfig) -> u64 {
    cfg.seed ^ DEFAULT_SEED
}

/// The power coordinator a scenario arms when it draws one.
fn coordinator() -> CoordinatorConfig {
    CoordinatorConfig::new(12_000.0)
}

/// Draws a complete scenario from `seed`. Deterministic and always
/// valid: [`ExperimentConfig::validate`] holds for every seed.
///
/// Backend 0 is never targeted by a fault, so the fleet always retains
/// one healthy server — without that floor, total-blackout scenarios
/// fail quiescence vacuously. The datapath is paired with the policy so
/// every draw is valid: NCAP policies get kernel or offload, non-NCAP
/// policies get kernel or bypass.
#[must_use]
pub fn generate(seed: u64) -> ExperimentConfig {
    let mut rng = SplitMix64::new(seed ^ 0xC4A0_5CA0_5EED_0001);
    let (mut cfg, mut fleet) = base(seed);
    let backends = 2 + rng.next_below(4) as usize; // 2..=5
    fleet.backends = backends;
    cfg.policy = POLICY_POOL[rng.next_below(POLICY_POOL.len() as u64) as usize];
    fleet.dispatch = DispatchPolicy::ALL[rng.next_below(3) as usize];
    if rng.next_below(4) == 0 {
        fleet.coordinator = Some(coordinator());
    }
    cfg.load_rps = rng.next_f64_in(6_000.0, 16_000.0);
    cfg.poisson = rng.next_below(2) == 0;

    // Fault windows live in [4 ms, 30 ms]; load stops at 37 ms and
    // the drain runs to the 62 ms horizon, leaving every injected
    // fault ≥ 7 ms of faulted load plus ≥ 25 ms of recovery room.
    cfg.warmup = SimDuration::from_ms(2);
    cfg.measure = SimDuration::from_ms(60);
    cfg.drain = SimDuration::from_ms(25);
    let window =
        |rng: &mut SplitMix64| SimTime::ZERO + SimDuration::from_us(4_000 + rng.next_below(22_000));

    // Crash/slow/hang events hit distinct backends drawn from
    // 1..backends (backend 0 stays clean).
    let mut crash_pool: Vec<usize> = (1..backends).collect();
    let crash_count = (rng.next_below(3) as usize).min(crash_pool.len());
    for _ in 0..crash_count {
        let pick = rng.next_below(crash_pool.len() as u64) as usize;
        let backend = crash_pool.swap_remove(pick);
        let mode = match rng.next_below(4) {
            0 | 1 => FailureMode::Stop,
            2 => FailureMode::Slow,
            _ => FailureMode::Hang,
        };
        fleet.faults.specs.push(FailureSpec {
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
        fleet.domains.domains.push(DomainFaultSpec {
            backends: members,
            at: window(&mut rng),
            duration: SimDuration::from_ms(2 + rng.next_below(4)),
            impairment,
        });
    }

    // Flash crowd: from this offset, clients switch to 1.4× the load.
    if rng.next_below(2) == 0 {
        let at = SimDuration::from_us(15_000 + rng.next_below(10_000));
        cfg.load_step = Some((at, cfg.load_rps * 1.4));
    }

    // Datapath draw rides at the end so it never perturbs the fault
    // schedule a pre-datapath seed produced. Half the campaign keeps
    // the kernel stack; the rest takes whichever rival stack the
    // drawn policy permits (bypass forbids NCAP, offload demands
    // NCAP hardware).
    cfg.datapath = if rng.next_below(2) == 0 {
        Datapath::Kernel
    } else if cfg.policy.uses_ncap_hardware() {
        Datapath::Offload
    } else {
        Datapath::Bypass
    };
    cfg.poll_cores = 1 + rng.next_below(2) as u8; // 1..=2 of 4 cores
    cfg.with_fleet(fleet)
}

/// Number of discrete fault events (crashes + domain windows) — the
/// quantity the shrinker minimizes.
#[must_use]
pub fn fault_events(cfg: &ExperimentConfig) -> usize {
    cfg.fleet
        .as_ref()
        .map_or(0, |f| f.faults.specs.len() + f.domains.domains.len())
}

/// Serializes a scenario to the plain `key=value` scenario-file format.
/// A config without a fleet writes `backends=0`, which no reader
/// accepts.
#[must_use]
pub fn to_file_string(cfg: &ExperimentConfig) -> String {
    use std::fmt::Write as _;
    let no_fleet = FleetConfig::new(0, DispatchPolicy::RoundRobin);
    let fleet = cfg.fleet.as_ref().unwrap_or(&no_fleet);
    let mut s = String::new();
    s.push_str("# ncap chaos scenario (replay: ncap chaos --scenario <this file>)\n");
    let _ = writeln!(s, "seed={}", scenario_seed(cfg));
    let _ = writeln!(s, "policy={}", cfg.policy.name());
    let _ = writeln!(s, "backends={}", fleet.backends);
    let _ = writeln!(s, "dispatch={}", fleet.dispatch.name());
    let _ = writeln!(s, "datapath={}", cfg.datapath.name());
    let _ = writeln!(s, "poll_cores={}", cfg.poll_cores);
    let _ = writeln!(s, "coordinator={}", u8::from(fleet.coordinator.is_some()));
    let _ = writeln!(s, "load_rps={}", cfg.load_rps);
    let _ = writeln!(s, "poisson={}", u8::from(cfg.poisson));
    let _ = writeln!(s, "warmup_ns={}", cfg.warmup.as_nanos());
    let _ = writeln!(s, "measure_ns={}", cfg.measure.as_nanos());
    let _ = writeln!(s, "drain_ns={}", cfg.drain.as_nanos());
    if let Some((at, rps)) = cfg.load_step {
        let _ = writeln!(s, "flash={},{}", at.as_nanos(), rps);
    }
    for c in &fleet.faults.specs {
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
    for d in &fleet.domains.domains {
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
    if fleet.ledger_skew_for_test {
        s.push_str("ledger_skew=1\n");
    }
    s
}

/// Parses the scenario-file format written by [`to_file_string`]. A key
/// the file omits keeps its [`base`] value.
///
/// # Errors
///
/// Returns a [`ConfigError`] naming the offending line/field; the parsed
/// config is also validated end to end.
pub fn from_file_str(text: &str) -> Result<ExperimentConfig, ConfigError> {
    let (mut cfg, mut fleet) = base(0);
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        apply_line(&mut cfg, &mut fleet, line)
            .map_err(|e| ConfigError::new(e.field, format!("line {}: {}", lineno + 1, e.reason)))?;
    }
    let cfg = cfg.with_fleet(fleet);
    cfg.validate()?;
    Ok(cfg)
}

/// Applies one `key=value[,value…]` line of a scenario file.
fn apply_line(
    cfg: &mut ExperimentConfig,
    fleet: &mut FleetConfig,
    line: &str,
) -> Result<(), ConfigError> {
    let (key, values) = line
        .split_once('=')
        .ok_or_else(|| ConfigError::new("scenario", format!("expected key=value, got {line:?}")))?;
    let it = &mut values.split(',');
    // Name enum errors after the scenario key, like every other error.
    let named = |field| move |e: ConfigError| ConfigError::new(field, e.reason);
    match key {
        "seed" => set_seed(cfg, fleet, value("scenario.seed", it)?),
        "policy" => {
            const F: &str = "scenario.policy";
            cfg.policy = Policy::parse(token(F, it)?).map_err(named(F))?;
        }
        "backends" => fleet.backends = value("scenario.backends", it)?,
        "dispatch" => {
            const F: &str = "scenario.dispatch";
            fleet.dispatch = DispatchPolicy::parse(token(F, it)?).map_err(named(F))?;
        }
        "datapath" => {
            const F: &str = "scenario.datapath";
            cfg.datapath = Datapath::parse(token(F, it)?).map_err(named(F))?;
        }
        "poll_cores" => cfg.poll_cores = value("scenario.poll_cores", it)?,
        "coordinator" => {
            fleet.coordinator = flag("scenario.coordinator", it)?.then(coordinator);
        }
        "poisson" => cfg.poisson = flag("scenario.poisson", it)?,
        "ledger_skew" => fleet.ledger_skew_for_test = flag("scenario.ledger_skew", it)?,
        "load_rps" => cfg.load_rps = value("scenario.load_rps", it)?,
        "warmup_ns" => cfg.warmup = SimDuration::from_nanos(value("scenario.warmup_ns", it)?),
        "measure_ns" => cfg.measure = SimDuration::from_nanos(value("scenario.measure_ns", it)?),
        "drain_ns" => cfg.drain = SimDuration::from_nanos(value("scenario.drain_ns", it)?),
        "flash" => {
            const F: &str = "scenario.flash";
            cfg.load_step = Some((SimDuration::from_nanos(value(F, it)?), value(F, it)?));
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
            fleet.faults.specs.push(FailureSpec {
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
            fleet.domains.domains.push(DomainFaultSpec {
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

/// The next token as a scenario-file boolean: exactly `0` or `1`, the
/// spellings [`to_file_string`] writes.
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

/// One seed's campaign outcome.
#[derive(Debug, Clone)]
pub struct SeedVerdict {
    /// The scenario that ran.
    pub config: ExperimentConfig,
    /// The run's invariant violations, rendered (empty = passed).
    pub failures: Vec<String>,
    /// Requests completed, for the summary table.
    pub completed: u64,
    /// Failovers the LB performed.
    pub failovers: u64,
}

impl SeedVerdict {
    /// Whether the seed passed: its run reported no invariant violation.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs the scenarios for `seeds` (in parallel across `threads`).
/// Verdicts return in seed order and are byte-identical whatever
/// `threads` is — each run is a pure function of its config.
#[must_use]
pub fn run_campaign(seeds: &[u64], threads: usize) -> Vec<SeedVerdict> {
    let scenarios: Vec<ExperimentConfig> = seeds.iter().map(|&s| generate(s)).collect();
    run_scenarios(&scenarios, threads)
}

/// [`run_campaign`] over explicit (possibly hand-written or shrunken)
/// scenarios.
#[must_use]
pub fn run_scenarios(scenarios: &[ExperimentConfig], threads: usize) -> Vec<SeedVerdict> {
    let results = run_experiments_on(scenarios, threads.max(1));
    scenarios
        .iter()
        .zip(results)
        .map(|(config, result)| SeedVerdict {
            config: config.clone(),
            failures: result
                .invariant_violations
                .iter()
                .map(ToString::to_string)
                .collect(),
            completed: result.completed,
            failovers: result.fleet.as_ref().map_or(0, |f| f.failovers),
        })
        .collect()
}

/// Upper bound on shrink re-runs; generated scenarios hold ≤ 4 fault
/// events plus a handful of knobs, so greedy passes converge far below
/// this. The cap only guards hand-written monsters.
const SHRINK_RUN_BUDGET: u32 = 96;

/// `edit` applied to a scenario's fleet; a config without one is left
/// as it is.
fn on_fleet<R>(edit: impl Fn(&mut FleetConfig) -> R) -> impl Fn(&mut ExperimentConfig) {
    move |cfg| {
        if let Some(fleet) = cfg.fleet.as_mut() {
            edit(fleet);
        }
    }
}

/// Greedily minimizes a failing scenario: repeatedly drop fault events,
/// shrink domain memberships, and strip knobs (flash crowd, coordinator,
/// Poisson arrivals, rival datapath), keeping each edit only if the run
/// still reports a violation. Deterministic; returns the smallest
/// still-failing scenario found and the number of verification runs
/// spent.
#[must_use]
pub fn shrink(scenario: &ExperimentConfig) -> (ExperimentConfig, u32) {
    let runs = std::cell::Cell::new(0u32);
    // Applies `edit` to a copy of `best` and keeps the copy if it still
    // fails.
    let keep = |best: &mut ExperimentConfig, edit: &dyn Fn(&mut ExperimentConfig)| {
        if runs.get() >= SHRINK_RUN_BUDGET {
            return false;
        }
        runs.set(runs.get() + 1);
        let mut cand = best.clone();
        edit(&mut cand);
        let fails = !run_experiment(&cand).invariant_violations.is_empty();
        if fails {
            *best = cand;
        }
        fails
    };
    let mut best = scenario.clone();
    loop {
        let mut improved = false;

        // Pass 1: drop whole fault events, highest index first so
        // removals do not disturb the indices still to be tried.
        let crashes = best.fleet.as_ref().map_or(0, |f| f.faults.specs.len());
        for i in (0..crashes).rev() {
            improved |= keep(&mut best, &on_fleet(|f| f.faults.specs.remove(i)));
        }
        let domains = best.fleet.as_ref().map_or(0, |f| f.domains.domains.len());
        for i in (0..domains).rev() {
            improved |= keep(&mut best, &on_fleet(|f| f.domains.domains.remove(i)));
        }

        // Pass 2: shrink surviving domain memberships one backend at a
        // time (a window needs at least one member to stay valid).
        let domains = best.fleet.as_ref().map_or(0, |f| f.domains.domains.len());
        for d in 0..domains {
            let wide = |c: &ExperimentConfig| {
                c.fleet
                    .as_ref()
                    .is_some_and(|f| f.domains.domains[d].backends.len() > 1)
            };
            while wide(&best) {
                if !keep(
                    &mut best,
                    &on_fleet(|f| f.domains.domains[d].backends.pop()),
                ) {
                    break;
                }
                improved = true;
            }
        }

        // Pass 3: strip scenario knobs.
        if best.load_step.is_some() {
            improved |= keep(&mut best, &|c| c.load_step = None);
        }
        if best.fleet.as_ref().is_some_and(|f| f.coordinator.is_some()) {
            improved |= keep(&mut best, &on_fleet(|f| f.coordinator = None));
        }
        if best.poisson {
            improved |= keep(&mut best, &|c| c.poisson = false);
        }
        if best.datapath != Datapath::Kernel {
            improved |= keep(&mut best, &|c| c.datapath = Datapath::Kernel);
        }

        if !improved || runs.get() >= SHRINK_RUN_BUDGET {
            return (best, runs.get());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `seed`'s scenario file with every `key=` line replaced by `line`.
    fn with_line(seed: u64, key: &str, line: &str) -> String {
        let mut text: String = to_file_string(&generate(seed))
            .lines()
            .filter(|l| !l.starts_with(&format!("{key}=")))
            .map(|l| format!("{l}\n"))
            .collect();
        text.push_str(line);
        text.push('\n');
        text
    }

    #[test]
    fn every_generated_scenario_validates() {
        for seed in 0..200 {
            let cfg = generate(seed);
            cfg.validate()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(scenario_seed(&cfg), seed);
            let fleet = cfg.fleet.as_ref().expect("a scenario runs a fleet");
            assert!(fleet.backends >= 2);
            assert!(
                fleet.faults.specs.iter().all(|c| c.backend != 0)
                    && fleet
                        .domains
                        .domains
                        .iter()
                        .all(|d| !d.backends.contains(&0)),
                "seed {seed}: backend 0 must stay clean"
            );
        }
    }

    #[test]
    fn campaign_seed_space_covers_every_datapath() {
        let mut seen = [false; 3];
        for seed in 0..200 {
            let cfg = generate(seed);
            match cfg.datapath {
                Datapath::Kernel => seen[0] = true,
                Datapath::Bypass => seen[1] = true,
                Datapath::Offload => seen[2] = true,
            }
            // The draw is policy-aware, so every scenario stays valid.
            if cfg.datapath == Datapath::Bypass {
                assert!(!cfg.policy.is_ncap(), "seed {seed}");
            }
            if cfg.datapath == Datapath::Offload {
                assert!(cfg.policy.uses_ncap_hardware(), "seed {seed}");
            }
        }
        assert_eq!(
            seen, [true; 3],
            "200 seeds must cover kernel/bypass/offload"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        // `ExperimentConfig` has no `PartialEq`; its `{:?}` render
        // covers every field.
        assert_eq!(format!("{:?}", generate(7)), format!("{:?}", generate(7)));
        // Different seeds land on different scenarios (spot check).
        assert_ne!(format!("{:?}", generate(1)), format!("{:?}", generate(2)));
    }

    #[test]
    fn scenario_file_round_trips() {
        for seed in [0, 3, 17, 42] {
            let cfg = generate(seed);
            let text = to_file_string(&cfg);
            let back = from_file_str(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
            assert_eq!(
                format!("{cfg:?}"),
                format!("{back:?}"),
                "seed {seed} file:\n{text}"
            );
        }
        // The ledger-skew flag survives the trip too.
        let mut cfg = generate(5);
        cfg.fleet = cfg.fleet.map(FleetConfig::with_ledger_skew_for_test);
        let back = from_file_str(&to_file_string(&cfg)).expect("parses");
        assert!(back.fleet.is_some_and(|f| f.ledger_skew_for_test));
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
            let err = from_file_str(text).expect_err(text);
            assert_eq!(err.field, want, "{text}: {err}");
        }
        // A file without a measured window would load and run nothing.
        let text = to_file_string(&generate(3));
        let windowless: String = text
            .lines()
            .filter(|l| !l.starts_with("measure_ns="))
            .map(|l| format!("{l}\n"))
            .collect();
        let err = from_file_str(&windowless).expect_err("no window");
        assert_eq!(err.field, "measure", "{err}");
    }

    /// A flash crowd to a non-positive or NaN rate is a typed error.
    /// Unchecked, it panics the Poisson sampler, or never ends on
    /// periodic bursts.
    #[test]
    fn flash_crowd_rate_is_validated() {
        for flash in ["flash=1000,0", "flash=1000,NaN"] {
            for poisson in ["poisson=0", "poisson=1"] {
                let text = with_line(3, "flash", flash) + poisson + "\n";
                let err = from_file_str(&text).expect_err(flash);
                assert_eq!(err.field, "load_step", "{flash} {poisson}: {err}");
            }
        }
    }

    /// A horizon past the bound, or past the clock, is a typed error.
    /// Unchecked, the run never ends.
    #[test]
    fn horizon_is_bounded() {
        let max = u64::MAX;
        for line in [format!("warmup_ns={max}"), format!("measure_ns={max}")] {
            let key = line.split_once('=').map_or("", |(k, _)| k);
            let err = from_file_str(&with_line(3, key, &line)).expect_err(&line);
            assert_eq!(err.field, "horizon", "{line}: {err}");
        }
    }
}
