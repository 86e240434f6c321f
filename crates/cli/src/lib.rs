//! # ncap-cli — argument parsing and command execution
//!
//! The library half of the `ncap` binary: a small, dependency-free
//! command-line parser and the command implementations, kept in a library
//! so they are unit-testable.
//!
//! The CLI has no configuration type of its own: `run`, `trace` and
//! `report` write their flags straight into an [`ExperimentConfig`], and
//! every config a command carries has passed
//! [`ExperimentConfig::validate`] at parse time, so a bad flag is a typed
//! [`ConfigError`] and never a panic mid-run.
//!
//! ```text
//! ncap policies
//! ncap run    --app memcached --policy ncap.cons --load 35000 [flags]
//! ncap sweep  --app apache --policies perf,ncap.cons --loads 20000,40000,60000
//! ncap sla    --app memcached
//! ncap trace  --app memcached --policy ncap.cons --load 35000 --out traces/
//! ncap report --app memcached --policy ond.idle --load 20000 [--tail P]
//! ncap chaos  --seeds 200 --shrink --out repros/
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use cluster::config::{token, value};
use cluster::{
    chaos, run_experiment, run_experiments_parallel, try_run_experiment, AppKind,
    CoordinatorConfig, Datapath, DispatchPolicy, ExperimentConfig, FailureMode, FailureSpec,
    FleetConfig, HealthConfig, OverloadConfig, Policy, RetxConfig, ShedPolicy, TraceConfig,
};
use desim::{ConfigError, SimDuration, SimTime};
use simstats::{fmt_ns, sla_curve_table, sla_knee, FleetAggregate, Table};
use std::iter::once;

/// A parsed command line. Every [`ExperimentConfig`] it carries has
/// passed [`ExperimentConfig::validate`].
#[derive(Debug, Clone)]
pub enum Command {
    /// List the seven policies.
    Policies,
    /// Run one experiment.
    Run(ExperimentConfig),
    /// Run a policy × load grid (loads outer, policies inner).
    Sweep(Vec<ExperimentConfig>),
    /// Find the SLA at the knee of the perf latency–load curve (§6): one
    /// config per [`AppKind::sla_loads`] point.
    Sla(Vec<ExperimentConfig>),
    /// Run one experiment with event tracing and export Perfetto/CSV.
    Trace {
        /// The traced experiment.
        cfg: ExperimentConfig,
        /// Directory receiving `trace.json` and `trace.csv`.
        out: String,
    },
    /// Run one experiment and print the per-stage latency attribution.
    Report(ExperimentConfig),
    /// Run a seeded chaos campaign (or replay one scenario file).
    Chaos(ChaosArgs),
    /// Print usage.
    Help,
}

/// Arguments of `ncap chaos`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosArgs {
    /// Number of seeded scenarios to run (seeds `from..from + seeds`).
    pub seeds: u64,
    /// First seed of the campaign.
    pub from: u64,
    /// Worker threads (0 = one per core).
    pub threads: usize,
    /// Minimize failing seeds to their smallest still-failing repro.
    pub shrink: bool,
    /// Replay one scenario file instead of generating from seeds.
    pub scenario: Option<String>,
    /// Directory receiving shrunken repro `.scenario` files.
    pub out: Option<String>,
    /// Force every generated scenario onto one datapath (the generator
    /// otherwise draws it per seed). Policies incompatible with the
    /// forced datapath are coerced to a compatible pool member.
    pub datapath: Option<Datapath>,
    /// Force the busy-poll core count for bypass scenarios.
    pub poll_cores: Option<u8>,
}

impl ChaosArgs {
    /// The campaign: the scenarios of seeds `from..from + seeds`, with the
    /// forced datapath and poll-core count applied.
    pub fn scenarios(&self) -> impl Iterator<Item = ExperimentConfig> + '_ {
        (self.from..self.from.saturating_add(self.seeds)).map(|seed| {
            let mut cfg = chaos::generate(seed);
            cfg.datapath = self.datapath.unwrap_or(cfg.datapath);
            cfg.poll_cores = self.poll_cores.unwrap_or(cfg.poll_cores);
            // A forced datapath may contradict the drawn policy; coerce to
            // a compatible pool member so every scenario still validates.
            match cfg.datapath {
                Datapath::Bypass if cfg.policy.is_ncap() => cfg.policy = Policy::OndIdle,
                Datapath::Offload if !cfg.policy.uses_ncap_hardware() => {
                    cfg.policy = Policy::NcapCons;
                }
                _ => {}
            }
            cfg
        })
    }
}

/// Nanoseconds per microsecond, the unit of `--health-interval` and the
/// `-us` flags.
const US: u64 = 1_000;
/// Nanoseconds per millisecond, the unit of the `-ms` flags.
const MS: u64 = 1_000_000;

/// The value after `flag`, a count of `unit`-nanosecond ticks, as a span.
fn span(
    flag: &'static str,
    unit: u64,
    it: &mut impl Iterator<Item = &'static str>,
) -> Result<SimDuration, ConfigError> {
    let n: u64 = value(flag, it)?;
    n.checked_mul(unit)
        .map(SimDuration::from_nanos)
        .ok_or_else(|| ConfigError::new(flag, format!("{n} overflows the simulated clock")))
}

/// Whole milliseconds in `d`, for display.
fn ms(d: SimDuration) -> u64 {
    d.as_nanos() / MS
}

/// Parses a `--fail-backend` value: `idx@t_ms` or `idx@t_ms:restart_ms`.
/// The failure mode is filled in once every flag is read.
fn fail_backend(v: &'static str) -> Result<FailureSpec, ConfigError> {
    const FLAG: &str = "--fail-backend";
    let (backend, times) = v.split_once('@').ok_or_else(|| {
        ConfigError::new(FLAG, format!("expected idx@t_ms[:restart_ms], got {v:?}"))
    })?;
    let mut times = times.splitn(2, ':').peekable();
    Ok(FailureSpec {
        backend: value(FLAG, &mut once(backend))?,
        at: SimTime::ZERO + span(FLAG, MS, &mut times)?,
        mode: FailureMode::Stop,
        restart_after: match times.peek() {
            Some(_) => Some(span(FLAG, MS, &mut times)?),
            None => None,
        },
    })
}

/// Turns on admission control at the server defaults the first time an
/// overload flag asks for it.
fn overload(c: &mut ExperimentConfig) -> &mut OverloadConfig {
    if c.overload == OverloadConfig::off() {
        c.overload = OverloadConfig::server_defaults();
    }
    &mut c.overload
}

/// The fleet, created (one backend, round-robin) by the first fleet flag.
fn fleet(c: &mut ExperimentConfig) -> &mut FleetConfig {
    c.fleet
        .get_or_insert_with(|| FleetConfig::new(1, DispatchPolicy::RoundRobin))
}

/// The fleet's health prober, armed at its standard policy by the first
/// health flag.
fn health(c: &mut ExperimentConfig) -> &mut HealthConfig {
    fleet(c).health.get_or_insert_with(HealthConfig::standard)
}

/// The error for a flag `cmd` does not take.
fn unknown(cmd: &str, flag: &'static str) -> ConfigError {
    ConfigError::new(flag, format!("not a flag of `ncap {cmd}`"))
}

/// Parses the flags of `run`, `trace` or `report` straight into the
/// experiment they describe, and validates it. Implications that several
/// flags decide together are applied once the whole line is read, so
/// flag order cannot matter. Returns the config and `trace`'s `--out`.
fn parse_experiment(
    cmd: &str,
    it: &mut impl Iterator<Item = &'static str>,
) -> Result<(ExperimentConfig, Option<&'static str>), ConfigError> {
    let mut cfg = ExperimentConfig::new(AppKind::Memcached, Policy::NcapCons, 35_000.0);
    if cmd == "trace" {
        // Traced runs default to a short window: the event ring holds the
        // full stream for tens of simulated milliseconds.
        cfg = cfg
            .with_durations(SimDuration::from_ms(10), SimDuration::from_ms(40))
            .with_trace(TraceConfig::per_ms())
            .with_event_trace(simtrace::TracerConfig::default());
    }
    let mut out = None;
    let mut shed_policy_given = false;
    let mut fail_mode = FailureMode::Stop;
    while let Some(flag) = it.next() {
        let c = &mut cfg;
        match (cmd, flag) {
            (_, "--app") => c.app = AppKind::parse(token(flag, it)?)?,
            (_, "--policy") => c.policy = Policy::parse(token(flag, it)?)?,
            (_, "--load") => c.load_rps = value(flag, it)?,
            (_, "--measure-ms") => c.measure = span(flag, MS, it)?,
            (_, "--warmup-ms") => c.warmup = span(flag, MS, it)?,
            (_, "--seed") => c.seed = value(flag, it)?,
            (_, "--poisson") => c.poisson = true,
            (_, "--queues") => c.nic_queues = value(flag, it)?,
            (_, "--per-core") => c.per_core_boost = true,
            (_, "--toe") => c.toe = true,
            (_, "--loss") => c.faults.loss = value(flag, it)?,
            (_, "--corrupt") => c.faults.corrupt = value(flag, it)?,
            (_, "--reorder") => c.faults.reorder = value(flag, it)?,
            (_, "--jitter-us") => c.faults.jitter = span(flag, US, it)?,
            (_, "--fault-seed") => c.faults.seed = value(flag, it)?,
            (_, "--queue-cap") => overload(c).run_queue_cap = Some(value(flag, it)?),
            (_, "--shed-policy") => {
                overload(c).policy = ShedPolicy::parse(token(flag, it)?)?;
                shed_policy_given = true;
            }
            (_, "--deadline-us") => {
                overload(c);
                c.deadline = Some(span(flag, US, it)?);
            }
            (_, "--servers") => fleet(c).backends = value(flag, it)?,
            (_, "--dispatch") => fleet(c).dispatch = DispatchPolicy::parse(token(flag, it)?)?,
            // Sized against the app's knee once every flag is read.
            (_, "--coordinator") => fleet(c).coordinator = Some(CoordinatorConfig::new(0.0)),
            (_, "--fail-backend") => fleet(c).faults.specs.push(fail_backend(token(flag, it)?)?),
            (_, "--fail-mode") => fail_mode = FailureMode::parse(token(flag, it)?)?,
            (_, "--health-interval") => health(c).interval = span(flag, US, it)?,
            (_, "--health-eject") => health(c).eject_after = value(flag, it)?,
            (_, "--health-rejoin") => health(c).rejoin_after = value(flag, it)?,
            (_, "--datapath") => c.datapath = Datapath::parse(token(flag, it)?)?,
            (_, "--poll-cores") => c.poll_cores = value(flag, it)?,
            ("trace", "--out") => out = Some(token(flag, it)?),
            ("trace", "--window-us") => {
                c.event_trace = Some(simtrace::TracerConfig {
                    window_ns: span(flag, US, it)?.as_nanos(),
                    ..simtrace::TracerConfig::default()
                });
            }
            ("report", "--tail") => c.breakdown_tail = value(flag, it)?,
            ("report", "--profile") => c.profile = true,
            _ => return Err(unknown(cmd, flag)),
        }
    }
    if cfg.faults.impairs() {
        // Any impairment arms retransmission. Reordered frames are held
        // back by a few switch transits so they actually land behind
        // later traffic.
        cfg.faults.reorder_delay = SimDuration::from_us(50);
        cfg.faults.retx = RetxConfig::standard();
    }
    if cfg.deadline.is_some() && !shed_policy_given {
        // Without an explicit policy a client deadline implies
        // deadline-aware shedding — the other policies never look at
        // the stamp.
        cfg.overload.policy = ShedPolicy::Deadline;
    }
    if let Some(fleet) = &mut cfg.fleet {
        if let Some(coordinator) = &mut fleet.coordinator {
            // Nominal per-backend capacity is the app's knee load (§5);
            // the coordinator sizes the active set against it.
            coordinator.per_backend_rps = cfg.app.paper_loads()[2];
        }
        for spec in &mut fleet.faults.specs {
            spec.mode = fail_mode;
        }
    }
    cfg.validate()?;
    Ok((cfg, out))
}

/// The validated policy × load grid of `sweep`, loads outer.
fn grid(
    app: AppKind,
    policies: &[Policy],
    loads: &[f64],
    measure: SimDuration,
) -> Result<Vec<ExperimentConfig>, ConfigError> {
    let configs: Vec<ExperimentConfig> = loads
        .iter()
        .flat_map(|&l| {
            policies.iter().map(move |&p| {
                ExperimentConfig::new(app, p, l).with_durations(SimDuration::from_ms(100), measure)
            })
        })
        .collect();
    configs.iter().try_for_each(ExperimentConfig::validate)?;
    Ok(configs)
}

/// Parses a command line (without the program name). Every experiment
/// the command will run is validated here.
///
/// # Errors
///
/// Returns a [`ConfigError`] naming the flag or config field at fault.
pub fn parse<I: IntoIterator<Item = &'static str>>(args: I) -> Result<Command, ConfigError> {
    let it = &mut args.into_iter();
    let cmd = match it.next() {
        None | Some("help" | "--help" | "-h") => return Ok(Command::Help),
        Some(c) => c,
    };
    match cmd {
        "policies" => Ok(Command::Policies),
        "run" => Ok(Command::Run(parse_experiment(cmd, it)?.0)),
        "report" => Ok(Command::Report(parse_experiment(cmd, it)?.0)),
        "trace" => {
            let (cfg, out) = parse_experiment(cmd, it)?;
            let out = out.ok_or_else(|| ConfigError::new("--out", "trace requires --out"))?;
            Ok(Command::Trace {
                cfg,
                out: out.to_owned(),
            })
        }
        "sweep" | "sla" => {
            let mut app = None;
            let mut policies = Vec::new();
            let mut loads = Vec::new();
            let mut measure = SimDuration::from_ms(300);
            while let Some(flag) = it.next() {
                match (cmd, flag) {
                    (_, "--app") => app = Some(AppKind::parse(token(flag, it)?)?),
                    ("sweep", "--policies") => {
                        for p in token(flag, it)?.split(',') {
                            policies.push(Policy::parse(p)?);
                        }
                    }
                    ("sweep", "--loads") => {
                        for l in token(flag, it)?.split(',') {
                            loads.push(value(flag, &mut once(l))?);
                        }
                    }
                    ("sweep", "--measure-ms") => measure = span(flag, MS, it)?,
                    _ => return Err(unknown(cmd, flag)),
                }
            }
            let app =
                app.ok_or_else(|| ConfigError::new("--app", format!("{cmd} requires --app")))?;
            Ok(if cmd == "sla" {
                let configs: Vec<ExperimentConfig> = app
                    .sla_loads()
                    .iter()
                    .map(|&l| ExperimentConfig::new(app, Policy::Perf, l))
                    .collect();
                configs.iter().try_for_each(ExperimentConfig::validate)?;
                Command::Sla(configs)
            } else {
                if policies.is_empty() {
                    policies = Policy::ALL.to_vec();
                }
                if loads.is_empty() {
                    loads = app.paper_loads().to_vec();
                }
                Command::Sweep(grid(app, &policies, &loads, measure)?)
            })
        }
        "chaos" => {
            let mut a = ChaosArgs {
                seeds: 40,
                from: 1,
                threads: 0,
                shrink: false,
                scenario: None,
                out: None,
                datapath: None,
                poll_cores: None,
            };
            // The last flag given that only a seeded campaign reads.
            let mut campaign_flag = None;
            while let Some(flag) = it.next() {
                if matches!(flag, "--seeds" | "--from" | "--datapath" | "--poll-cores") {
                    campaign_flag = Some(flag);
                }
                match flag {
                    "--seeds" => a.seeds = value(flag, it)?,
                    "--from" => a.from = value(flag, it)?,
                    "--threads" => a.threads = value(flag, it)?,
                    "--shrink" => a.shrink = true,
                    "--scenario" => a.scenario = Some(token(flag, it)?.to_owned()),
                    "--out" => a.out = Some(token(flag, it)?.to_owned()),
                    "--datapath" => a.datapath = Some(Datapath::parse(token(flag, it)?)?),
                    "--poll-cores" => {
                        let n = value(flag, it)?;
                        // The forced count must suit a bypass server, the
                        // only datapath that reads it.
                        ExperimentConfig::new(AppKind::Memcached, Policy::Perf, 1.0)
                            .with_datapath(Datapath::Bypass)
                            .with_poll_cores(n)
                            .validate()?;
                        a.poll_cores = Some(n);
                    }
                    _ => return Err(unknown(cmd, flag)),
                }
            }
            if let (Some(flag), Some(_)) = (campaign_flag, &a.scenario) {
                return Err(ConfigError::new(
                    flag,
                    "a replayed --scenario file fixes its own seed and datapath; \
                     this flag applies only to a seeded campaign",
                ));
            }
            if a.out.is_some() && !a.shrink {
                return Err(ConfigError::new(
                    "--out",
                    "--out is where --shrink writes its repros; it needs --shrink",
                ));
            }
            // A wrapped `from + seeds` would run nothing and pass vacuously.
            if a.seeds == 0 || a.from.checked_add(a.seeds).is_none() {
                return Err(ConfigError::new(
                    "--seeds",
                    format!(
                        "the campaign needs at least one seed, and {} + {} must fit in u64",
                        a.from, a.seeds
                    ),
                ));
            }
            Ok(Command::Chaos(a))
        }
        other => Err(ConfigError::new(
            "command",
            format!("unknown command `{other}`"),
        )),
    }
}

/// Usage text.
pub const USAGE: &str = "\
ncap — reproduce and explore NCAP (HPCA 2017) experiments

USAGE:
  ncap policies
  ncap run   --app apache|memcached --policy <name> --load <rps>
             [--measure-ms N] [--warmup-ms N] [--seed N]
             [--poisson] [--queues N] [--per-core] [--toe]
             [--loss P] [--corrupt P] [--reorder P] [--jitter-us N]
             [--fault-seed N]
             [--queue-cap N] [--shed-policy none|drop-tail|deadline|codel]
             [--deadline-us N]
             [--servers N] [--dispatch rr|jsq|pack] [--coordinator]
             [--fail-backend idx@t_ms[:restart_ms]]... [--fail-mode stop|slow|hang]
             [--health-interval US] [--health-eject K] [--health-rejoin K]
             [--datapath kernel|bypass|offload] [--poll-cores N]
             --datapath picks the server network stack: kernel (default,
             interrupt-driven), bypass (DPDK-style poll-mode rings on N
             dedicated busy-poll cores pinned at max P-state; incompatible
             with NCAP policies), or offload (kernel stack with the NCAP
             decision engine on the NIC; needs ncap.cons|ncap.aggr)
             fault flags inject seeded per-link impairments; any nonzero
             impairment also arms the client retransmission layer
             overload flags arm server admission control (bounded queues
             plus the chosen shedding policy; rejected requests receive a
             503-style response); --deadline-us stamps every request and
             implies --shed-policy deadline unless one is given
             fleet flags put N backend servers behind an L4 load balancer
             (--dispatch picks round-robin, least-outstanding, or
             power-aware packing); --coordinator arms the cluster-level
             power coordinator that parks idle backends with load
             failure flags crash backends mid-run (--fail-backend is
             repeatable; stop refuses probes, slow multiplies service
             time, hang admits but never answers) and arm the LB health
             prober plus retransmission failover; health flags tune the
             prober's period and strike thresholds
  ncap sweep --app apache|memcached [--policies a,b,c] [--loads x,y,z]
             [--measure-ms N]
  ncap sla   --app apache|memcached
             sweeps perf over the app's SLA loads (100 ms warmup, 400 ms
             measured) and prints the latency-load curve and its knee,
             the SLA Figures 7-9 use
  ncap trace --out <dir> [run flags] [--window-us N]
             runs one experiment with structured event tracing and writes
             <dir>/trace.json (Perfetto/chrome://tracing) and
             <dir>/trace.csv (windowed metrics)
  ncap chaos [--seeds N] [--from K] [--threads T] [--shrink]
             [--scenario FILE] [--out DIR]
             [--datapath kernel|bypass|offload] [--poll-cores N]
             runs N deterministic fault scenarios (seeds K..K+N-1), each
             composing correlated failure domains (rack partitions,
             brownouts), backend crash/slow/hang events, flash-crowd load
             steps, and coordinator churn — judged by the invariant
             watchdog, conservation ledgers, and an end-of-run quiescence
             oracle; --shrink minimizes each failing seed to its smallest
             still-failing repro and (with --out) writes a replayable
             .scenario file; --scenario replays one such file instead
             (--seeds, --from, --datapath and --poll-cores then do not apply);
             exits nonzero if any scenario fails; the generator draws a
             datapath per seed — --datapath forces one for the whole
             campaign (coercing incompatible drawn policies)
  ncap report [run flags] [--tail P] [--profile]
             runs one experiment and prints the per-stage latency
             attribution: mean/p50/p99 per stage, each stage's share of
             total latency, the tail-conditioned shares (requests at or
             above the --tail percentile of total latency, default 99),
             and a p50/p99 waterfall; --profile adds the simulator's
             wall-clock self-profile (host-dependent, attribution of
             where the simulator itself spends time)
";

/// Renders an ASCII p50/p99 waterfall of the per-stage attribution: one
/// row per stage that ever contributed, with a solid bar out to the
/// stage's p50 and a light bar on to its p99, all on a shared scale.
fn render_waterfall(b: &simstats::LatencyBreakdown) -> String {
    use std::fmt::Write;
    const WIDTH: f64 = 40.0;
    let max = b
        .stages
        .iter()
        .map(|s| s.hist.percentile(99.0))
        .max()
        .unwrap_or(0);
    let mut out = String::from("waterfall (\u{2588} to p50, \u{2591} on to p99):\n");
    if max == 0 {
        out.push_str("  (no attributed time)\n");
        return out;
    }
    for s in &b.stages {
        let p50 = s.hist.percentile(50.0);
        let p99 = s.hist.percentile(99.0);
        if p99 == 0 {
            continue;
        }
        let cols = |v: u64| ((v as f64 / max as f64) * WIDTH).ceil() as usize;
        let (c50, c99) = (cols(p50), cols(p99).max(cols(p50)));
        let bar = "\u{2588}".repeat(c50) + &"\u{2591}".repeat(c99 - c50);
        let _ = writeln!(
            out,
            "  {:<10} {:<41} p50 {:>8}  p99 {:>8}",
            s.name,
            bar,
            fmt_ns(p50),
            fmt_ns(p99)
        );
    }
    out
}

/// Executes a parsed command, printing to stdout. Returns the process
/// exit code.
#[must_use]
pub fn execute(cmd: Command) -> i32 {
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            0
        }
        Command::Policies => {
            let mut t = Table::new(vec!["policy", "cpufreq", "cpuidle", "NCAP"]);
            for p in Policy::ALL {
                t.row(vec![
                    p.name().to_owned(),
                    if p.uses_ondemand() {
                        "ondemand"
                    } else {
                        "performance"
                    }
                    .to_owned(),
                    if p.uses_cstates() {
                        "menu"
                    } else {
                        "poll (disabled)"
                    }
                    .to_owned(),
                    match p {
                        Policy::NcapSw => "software",
                        Policy::NcapCons => "hardware, FCONS=5",
                        Policy::NcapAggr => "hardware, FCONS=1",
                        _ => "-",
                    }
                    .to_owned(),
                ]);
            }
            println!("{t}");
            0
        }
        Command::Run(cfg) => {
            let r = match try_run_experiment(&cfg) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("invalid configuration: {e}");
                    return 2;
                }
            };
            println!(
                "{} / {} / {} datapath @ {:.0} rps over {} ms:",
                cfg.app,
                cfg.policy,
                cfg.datapath,
                cfg.load_rps,
                ms(cfg.measure)
            );
            println!(
                "  latency  p50 {}  p90 {}  p95 {}  p99 {}  mean {:.1}us",
                fmt_ns(r.latency.p50),
                fmt_ns(r.latency.p90),
                fmt_ns(r.latency.p95),
                fmt_ns(r.latency.p99),
                r.latency.mean / 1e3
            );
            println!(
                "  energy   {:.2} J ({:.1} W average)",
                r.energy_j,
                r.avg_power_w()
            );
            if cfg.datapath.bypasses_kernel() {
                println!(
                    "  polling  {:.2} J burned on dedicated busy-poll cores",
                    r.poll_energy_j
                );
            }
            println!(
                "  traffic  {}/{} requests completed (goodput {:.3}), {} NCAP interrupts, {} drops",
                r.completed,
                r.offered,
                r.goodput(),
                r.wake_markers,
                r.rx_drops
            );
            let f = &r.faults;
            if f.injected_losses
                + f.injected_corruptions
                + f.injected_reorders
                + f.retransmits
                + f.lost_requests
                + f.dup_suppressed
                + f.resp_replays
                > 0
            {
                println!(
                    "  faults   {} frames dropped in fabric ({} loss, {} corrupt), \
                     {} retransmits, {} requests lost, {} dups suppressed, {} replays",
                    f.injected_losses + f.injected_corruptions,
                    f.injected_losses,
                    f.injected_corruptions,
                    f.retransmits,
                    f.lost_requests,
                    f.dup_suppressed,
                    f.resp_replays
                );
            }
            println!(
                "  overload {} requests rejected, max queue depth {}",
                r.rejected, r.max_queue_depth
            );
            println!(
                "  watchdog {} checks, {} violations",
                r.watchdog_checks,
                r.invariant_violations.len()
            );
            for v in &r.invariant_violations {
                println!("    {v}");
            }
            if let Some(fleet) = &r.fleet {
                let energy: Vec<f64> = fleet.backends.iter().map(|b| b.energy_j).collect();
                let assigned: Vec<u64> = fleet.backends.iter().map(|b| b.assigned).collect();
                let agg = FleetAggregate::from_backends(&energy, &assigned);
                println!(
                    "  fleet    {} backends ({}), max share {:.2}, fairness {:.2}, \
                     {} parks / {} unparks ({:.3} J transitions)",
                    agg.backends,
                    fleet.dispatch,
                    agg.max_share,
                    agg.fairness,
                    fleet.parks,
                    fleet.unparks,
                    fleet.transition_energy_j
                );
                if fleet.health_probes > 0 || fleet.failovers > 0 {
                    println!(
                        "  health   {} probes ({} failed), {} ejections, {} rejoins, \
                         {} failovers",
                        fleet.health_probes,
                        fleet.probe_failures,
                        fleet.ejections,
                        fleet.rejoins,
                        fleet.failovers
                    );
                }
            }
            0
        }
        Command::Sweep(configs) => {
            let results = run_experiments_parallel(&configs);
            let mut t = Table::new(vec![
                "load (rps)",
                "policy",
                "p95",
                "p99",
                "energy (J)",
                "goodput",
            ]);
            for r in &results {
                t.row(vec![
                    format!("{:.0}", r.load_rps),
                    r.policy.name().to_owned(),
                    fmt_ns(r.latency.p95),
                    fmt_ns(r.latency.p99),
                    format!("{:.2}", r.energy_j),
                    format!("{:.3}", r.goodput()),
                ]);
            }
            println!("{t}");
            0
        }
        Command::Trace { cfg, out } => {
            let r = run_experiment(&cfg);
            let Some(data) = r.sim_trace else {
                eprintln!("internal error: traced run returned no trace data");
                return 1;
            };
            let dir = std::path::Path::new(&out);
            let json_path = dir.join("trace.json");
            let csv_path = dir.join("trace.csv");
            let written = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&json_path, data.to_chrome_json()))
                .and_then(|()| std::fs::write(&csv_path, data.to_csv(cfg.horizon().as_nanos())));
            if let Err(e) = written {
                eprintln!("cannot write traces under {out}: {e}");
                return 1;
            }
            let comps = data.components_with_spans();
            println!(
                "traced {} / {} @ {:.0} rps over {} ms (+{} ms warmup):",
                cfg.app,
                cfg.policy,
                cfg.load_rps,
                ms(cfg.measure),
                ms(cfg.warmup)
            );
            println!(
                "  events   {} recorded, {} dropped (ring capacity {})",
                data.events.len(),
                data.dropped,
                data.config.capacity
            );
            println!(
                "  spans    from {} components: {}",
                comps.len(),
                comps.join(", ")
            );
            println!(
                "  latency  p95 {}  p99 {}",
                fmt_ns(r.latency.p95),
                fmt_ns(r.latency.p99)
            );
            println!("  wrote    {}", json_path.display());
            println!("  wrote    {}", csv_path.display());
            0
        }
        Command::Report(cfg) => {
            let r = match try_run_experiment(&cfg) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("invalid configuration: {e}");
                    return 2;
                }
            };
            let Some(b) = &r.breakdown else {
                eprintln!("internal error: report run returned no breakdown");
                return 1;
            };
            println!(
                "{} / {} @ {:.0} rps over {} ms — {} requests, mean {}, tail = p{:.0} (\u{2265} {}, {} requests):",
                cfg.app,
                cfg.policy,
                cfg.load_rps,
                ms(cfg.measure),
                b.count,
                fmt_ns(b.total_mean as u64),
                b.tail_percentile,
                fmt_ns(b.tail_threshold_ns),
                b.tail_count
            );
            let mut t = Table::new(vec!["stage", "mean", "p50", "p99", "share", "tail share"]);
            for s in &b.stages {
                t.row(vec![
                    s.name.to_owned(),
                    fmt_ns(s.mean as u64),
                    fmt_ns(s.hist.percentile(50.0)),
                    fmt_ns(s.hist.percentile(99.0)),
                    format!("{:5.1}%", s.share * 100.0),
                    format!("{:5.1}%", s.tail_share * 100.0),
                ]);
            }
            println!("{t}");
            if let Some(dom) = b.tail_dominant() {
                println!(
                    "tail verdict: '{}' dominates above p{:.0} ({:.1}% of tail latency, vs {:.1}% overall)",
                    dom.name,
                    b.tail_percentile,
                    dom.tail_share * 100.0,
                    dom.share * 100.0
                );
            }
            println!("{}", render_waterfall(b));
            if let Some(p) = &r.self_profile {
                println!("simulator self-profile (wall clock, host-dependent):");
                print!("{}", p.render());
            }
            0
        }
        Command::Chaos(a) => {
            let threads = if a.threads == 0 {
                std::thread::available_parallelism().map_or(4, std::num::NonZero::get)
            } else {
                a.threads
            };
            let verdicts = if let Some(path) = &a.scenario {
                let text = match std::fs::read_to_string(path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("cannot read scenario '{path}': {e}");
                        return 2;
                    }
                };
                let cfg = match chaos::from_file_str(&text) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("invalid scenario '{path}': {e}");
                        return 2;
                    }
                };
                let seed = chaos::scenario_seed(&cfg);
                println!("replaying scenario {path} (seed {seed})");
                chaos::run_scenarios(std::slice::from_ref(&cfg), 1)
            } else {
                let scenarios: Vec<ExperimentConfig> = a.scenarios().collect();
                println!(
                    "chaos campaign: seeds {}..={} on {threads} threads",
                    a.from,
                    a.from + a.seeds - 1
                );
                chaos::run_scenarios(&scenarios, threads)
            };
            let mut t = Table::new(vec![
                "seed", "backends", "load", "datapath", "crash", "domain", "flash", "complete",
                "failover", "verdict",
            ]);
            for v in &verdicts {
                let (c, fleet) = (&v.config, v.config.fleet.as_ref());
                t.row(vec![
                    chaos::scenario_seed(c).to_string(),
                    fleet.map_or(0, |f| f.backends).to_string(),
                    format!("{:.0}", c.load_rps),
                    c.datapath.name().to_owned(),
                    fleet.map_or(0, |f| f.faults.specs.len()).to_string(),
                    fleet.map_or(0, |f| f.domains.domains.len()).to_string(),
                    if c.load_step.is_some() { "yes" } else { "-" }.to_owned(),
                    v.completed.to_string(),
                    v.failovers.to_string(),
                    if v.passed() { "ok" } else { "FAIL" }.to_owned(),
                ]);
            }
            println!("{t}");
            let failing: Vec<_> = verdicts.iter().filter(|v| !v.passed()).collect();
            for v in &failing {
                for f in &v.failures {
                    println!("  seed {}: {f}", chaos::scenario_seed(&v.config));
                }
            }
            println!(
                "{} scenarios, {} with fault events, {} failed",
                verdicts.len(),
                verdicts
                    .iter()
                    .filter(|v| chaos::fault_events(&v.config) > 0)
                    .count(),
                failing.len()
            );
            if a.shrink {
                for v in &failing {
                    let seed = chaos::scenario_seed(&v.config);
                    let (shrunk, runs) = chaos::shrink(&v.config);
                    println!(
                        "shrunk seed {seed}: {} -> {} fault events in {runs} runs",
                        chaos::fault_events(&v.config),
                        chaos::fault_events(&shrunk)
                    );
                    if let Some(dir) = &a.out {
                        let path =
                            std::path::Path::new(dir).join(format!("chaos-seed-{seed}.scenario"));
                        let written = std::fs::create_dir_all(dir)
                            .and_then(|()| std::fs::write(&path, chaos::to_file_string(&shrunk)));
                        match written {
                            Ok(()) => println!("  wrote {}", path.display()),
                            Err(e) => eprintln!("  cannot write {}: {e}", path.display()),
                        }
                    } else {
                        print!("{}", chaos::to_file_string(&shrunk));
                    }
                }
            }
            i32::from(!failing.is_empty())
        }
        Command::Sla(configs) => {
            let results = run_experiments_parallel(&configs);
            let curve: Vec<(f64, u64)> = results
                .iter()
                .map(|r| (r.load_rps, r.latency.p95))
                .collect();
            let (knee_rps, sla_ns) = sla_knee(&curve).expect("sla_loads is not empty");
            println!("{}", sla_curve_table(&curve, knee_rps));
            println!(
                "SLA for {}: {} (p95 at the {knee_rps:.0} rps inflection)",
                configs[0].app,
                fmt_ns(sla_ns)
            );
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{FaultConfig, DEFAULT_FAULT_SEED};

    /// Parses a command line written as one string.
    fn line(text: &'static str) -> Result<Command, ConfigError> {
        parse(text.split_whitespace())
    }

    /// The experiment `ncap run <flags>` describes.
    fn run(flags: &'static str) -> ExperimentConfig {
        match parse(once("run").chain(flags.split_whitespace())) {
            Ok(Command::Run(cfg)) => cfg,
            other => panic!("expected run, got {other:?}"),
        }
    }

    /// Every experiment a command would run.
    fn configs(cmd: &Command) -> Vec<ExperimentConfig> {
        match cmd {
            Command::Run(c) | Command::Report(c) | Command::Trace { cfg: c, .. } => vec![c.clone()],
            Command::Sweep(cs) | Command::Sla(cs) => cs.clone(),
            Command::Chaos(a) => a.scenarios().take(4).collect(),
            Command::Policies | Command::Help => Vec::new(),
        }
    }

    /// The `--flag` tokens [`USAGE`] lists under each command; `[run
    /// flags]` lends `trace` and `report` every flag of `run`.
    fn usage_flags() -> Vec<(&'static str, Vec<&'static str>)> {
        let mut out: Vec<(&'static str, Vec<&'static str>)> = Vec::new();
        for text in USAGE.lines() {
            if let Some(rest) = text.strip_prefix("  ncap ") {
                let cmd = rest.split_whitespace().next().expect("command name");
                out.push((cmd, Vec::new()));
            }
            let Some((_, flags)) = out.last_mut() else {
                continue;
            };
            for tok in text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
                if tok.starts_with("--") && !flags.contains(&tok) {
                    flags.push(tok);
                }
            }
        }
        let run_flags = out[1].1.clone();
        assert_eq!(out[1].0, "run");
        for (cmd, flags) in &mut out {
            if matches!(*cmd, "trace" | "report") {
                flags.extend(&run_flags);
            }
        }
        out
    }

    /// A value each flag accepts on its own; switches take none.
    const SAMPLES: &[(&str, &[&str])] = &[
        ("--app", &["memcached", "apache"]),
        ("--policy", &["perf", "ond.idle", "ncap.cons", "ncap.sw"]),
        ("--load", &["30000", "3000"]),
        ("--measure-ms", &["20", "1"]),
        ("--warmup-ms", &["5", "0"]),
        ("--seed", &["7"]),
        ("--poisson", &[]),
        ("--queues", &["4", "1"]),
        ("--per-core", &[]),
        ("--toe", &[]),
        ("--loss", &["0.01", "0"]),
        ("--corrupt", &["0.002"]),
        ("--reorder", &["0.005"]),
        ("--jitter-us", &["20"]),
        ("--fault-seed", &["99"]),
        ("--queue-cap", &["64"]),
        (
            "--shed-policy",
            &["codel", "drop-tail", "droptail", "none", "deadline"],
        ),
        ("--deadline-us", &["2000"]),
        ("--servers", &["4", "1"]),
        ("--dispatch", &["jsq", "rr", "pack"]),
        ("--coordinator", &[]),
        ("--fail-backend", &["0@10", "0@10:5"]),
        ("--fail-mode", &["hang", "slow", "stop"]),
        ("--health-interval", &["500"]),
        ("--health-eject", &["2"]),
        ("--health-rejoin", &["4"]),
        ("--datapath", &["offload", "kernel", "bypass"]),
        ("--poll-cores", &["2", "1"]),
        ("--policies", &["perf,ncap.cons", "ond"]),
        ("--loads", &["10000,20000", "5000"]),
        ("--out", &["target/cli-out"]),
        ("--window-us", &["500"]),
        ("--seeds", &["3", "1"]),
        ("--from", &["7", "0"]),
        ("--threads", &["2", "0"]),
        ("--shrink", &[]),
        ("--scenario", &["repro.scenario"]),
        ("--tail", &["95", "0"]),
        ("--profile", &[]),
    ];

    fn samples(flag: &str) -> &'static [&'static str] {
        SAMPLES
            .iter()
            .find(|(f, _)| *f == flag)
            .unwrap_or_else(|| panic!("USAGE lists {flag} but SAMPLES has no value for it"))
            .1
    }

    /// Flags a command cannot do without, so that the flag under test is
    /// what decides the outcome.
    fn required(cmd: &str) -> &'static [&'static str] {
        match cmd {
            "trace" => &["--out", "target/cli-out"],
            "sweep" | "sla" => &["--app", "memcached"],
            "chaos" => &["--shrink"],
            _ => &[],
        }
    }

    #[test]
    fn every_usage_flag_parses_for_its_command() {
        let usage = usage_flags();
        let names: Vec<&str> = usage.iter().map(|(cmd, _)| *cmd).collect();
        assert_eq!(
            names,
            ["policies", "run", "sweep", "sla", "trace", "chaos", "report"]
        );
        for (cmd, flags) in &usage {
            for &flag in flags {
                let value = samples(flag).first();
                let args: Vec<&'static str> = once(*cmd)
                    .chain(required(cmd).iter().copied())
                    .chain(once(flag))
                    .chain(value.copied())
                    .collect();
                if let Err(e) = parse(args.iter().copied()) {
                    panic!("{args:?} is rejected: {e}");
                }
            }
        }
    }

    /// Boundary and garbage values, offered to every flag.
    const HOSTILE: &[&str] = &[
        "0",
        "1",
        "4",
        "-1",
        "-0",
        "100",
        "101",
        "255",
        "256",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "1e308",
        "nan",
        "inf",
        "",
        "x",
        "--",
        "1@",
        "@5",
        "1@2:",
        "1@2:3:4",
        "0@18446744073709551615",
        "0@1:18446744073709551615",
        ",",
        "1,,2",
        "-5,5",
        "ncap.warp",
    ];

    #[test]
    fn prop_nothing_reachable_from_argv_panics() {
        const COMMANDS: &[&str] = &[
            "run", "trace", "report", "sweep", "sla", "chaos", "policies", "help", "frob",
        ];
        let usage = usage_flags();
        let all: Vec<&'static str> = usage.iter().flat_map(|(_, f)| f.clone()).collect();
        let pick = |rng: &mut check::Rng, from: &[&'static str]| -> &'static str {
            from[rng.next_below(from.len() as u64) as usize]
        };
        check::Check::new("cli_parse_never_panics").cases(8192).run(
            |rng, size| {
                let cmd = pick(rng, COMMANDS);
                let own = usage
                    .iter()
                    .find(|(c, _)| *c == cmd)
                    .map_or(&all, |(_, f)| f);
                let mut args = vec![cmd];
                if rng.next_below(4) != 0 {
                    args.extend(required(cmd));
                }
                for _ in 0..check::gen::len_in(rng, size, 0, 6) {
                    let flag = pick(rng, if own.is_empty() { &all } else { own });
                    args.push(flag);
                    let valid = samples(flag);
                    if !valid.is_empty() {
                        args.push(pick(rng, valid));
                    }
                }
                // Spoil up to two tokens of the otherwise valid line: swap
                // one for a boundary or garbage value or a random number,
                // add a flag of another command, or drop one.
                for _ in 0..rng.next_below(3) {
                    let at = 1 + rng.next_below(args.len() as u64) as usize;
                    let spoilt = match rng.next_below(4) {
                        0 => pick(rng, HOSTILE),
                        1 => {
                            let n = check::gen::u64_scaled(rng, size, 0, u64::MAX);
                            Box::leak(n.to_string().into_boxed_str())
                        }
                        2 => {
                            args.insert(at, pick(rng, &all));
                            continue;
                        }
                        _ => {
                            if at < args.len() {
                                args.remove(at);
                            }
                            continue;
                        }
                    };
                    match args.get_mut(at) {
                        Some(token) => *token = spoilt,
                        None => args.push(spoilt),
                    }
                }
                args
            },
            |args| {
                let Ok(cmd) = parse(args.iter().copied()) else {
                    return Ok(());
                };
                for cfg in configs(&cmd) {
                    cfg.validate()
                        .map_err(|e| format!("{args:?} parsed to an invalid config: {e}"))?;
                }
                Ok(())
            },
        );
    }

    #[test]
    fn parses_help_variants() {
        for text in ["", "help", "--help"] {
            assert!(matches!(line(text).unwrap(), Command::Help));
        }
    }

    #[test]
    fn parses_run_with_flags() {
        let c = run(
            "--app apache --policy ncap.aggr --load 24000 --poisson --queues 4 \
                     --per-core --toe --seed 7",
        );
        assert_eq!(c.app, AppKind::Apache);
        assert_eq!(c.policy, Policy::NcapAggr);
        assert_eq!(c.load_rps, 24_000.0);
        assert!(c.poisson && c.per_core_boost && c.toe);
        assert_eq!(c.nic_queues, 4);
        assert_eq!(c.seed, 7);
    }

    #[test]
    fn parses_datapath_flags() {
        let c = run(
            "--app memcached --policy perf.idle --load 30000 --datapath bypass \
                     --poll-cores 2",
        );
        assert_eq!(c.datapath, Datapath::Bypass);
        assert_eq!(c.poll_cores, 2);
        // Defaults keep the paper's kernel stack.
        let d = run("");
        assert_eq!(d.datapath, Datapath::Kernel);
        assert_eq!(d.poll_cores, 1);
    }

    #[test]
    fn rejects_unknown_datapath() {
        let err = line("run --datapath xdp").unwrap_err();
        assert!(err.reason.contains("kernel|bypass|offload"), "{err}");
    }

    #[test]
    fn rejects_bypass_with_ncap_policy() {
        let err = line("run --policy ncap.cons --datapath bypass").unwrap_err();
        assert!(err.reason.contains("offload"), "{err}");
    }

    #[test]
    fn rejects_bad_poll_core_counts() {
        for text in [
            "run --policy perf --datapath bypass --poll-cores 0",
            "run --policy perf --datapath bypass --poll-cores 4",
            "run --policy perf --datapath bypass --poll-cores 9",
            // Flag order must not matter: datapath after poll-cores.
            "run --poll-cores 0 --datapath bypass --policy perf",
        ] {
            let err = line(text).unwrap_err();
            assert!(err.reason.contains("1..4"), "{err}");
        }
        // On the kernel datapath the knob is inert, not an error.
        assert!(line("run --poll-cores 0").is_ok());
    }

    #[test]
    fn rejects_offload_without_ncap_hardware() {
        let err = line("run --policy ond.idle --datapath offload").unwrap_err();
        assert_eq!(err.field, "datapath");
        assert!(err.reason.contains("no NCAP hardware"), "{err}");
        // The default policy (ncap.cons) offloads fine.
        assert!(line("run --datapath offload").is_ok());
    }

    #[test]
    fn datapath_flags_reach_trace_and_report() {
        let Ok(Command::Trace { cfg, .. }) = line("trace --out d --datapath bypass --policy perf")
        else {
            panic!("expected trace");
        };
        assert_eq!(cfg.datapath, Datapath::Bypass);
        let Ok(Command::Report(r)) = line("report --datapath offload") else {
            panic!("expected report");
        };
        assert_eq!(r.datapath, Datapath::Offload);
    }

    #[test]
    fn parses_sweep_lists() {
        let cmd = line("sweep --app memcached --policies perf,ncap.cons --loads 10000,20000");
        let Ok(Command::Sweep(a)) = cmd else {
            panic!("expected sweep");
        };
        let grid: Vec<(f64, Policy)> = a.iter().map(|c| (c.load_rps, c.policy)).collect();
        assert_eq!(
            grid,
            vec![
                (10_000.0, Policy::Perf),
                (10_000.0, Policy::NcapCons),
                (20_000.0, Policy::Perf),
                (20_000.0, Policy::NcapCons),
            ]
        );
        assert!(a.iter().all(|c| c.measure == SimDuration::from_ms(300)));
    }

    #[test]
    fn sweep_defaults_to_all_policies_and_paper_loads() {
        let Ok(Command::Sweep(a)) = line("sweep --app apache") else {
            panic!("expected sweep");
        };
        let policies: Vec<Policy> = a.iter().take(7).map(|c| c.policy).collect();
        assert_eq!(policies, Policy::ALL.to_vec());
        let loads: Vec<f64> = a.iter().step_by(7).map(|c| c.load_rps).collect();
        assert_eq!(loads, AppKind::Apache.paper_loads().to_vec());
        assert_eq!(a.len(), 21);
    }

    #[test]
    fn sla_sweeps_perf_over_the_shared_sla_loads() {
        for (text, app) in [
            ("sla --app apache", AppKind::Apache),
            ("sla --app memcached", AppKind::Memcached),
        ] {
            let Ok(Command::Sla(cs)) = line(text) else {
                panic!("expected sla");
            };
            let loads: Vec<f64> = cs.iter().map(|c| c.load_rps).collect();
            assert_eq!(loads, app.sla_loads().to_vec(), "{text}");
            let default = ExperimentConfig::new(app, Policy::Perf, 1.0);
            for c in &cs {
                assert_eq!((c.app, c.policy), (app, Policy::Perf), "{text}");
                assert_eq!((c.warmup, c.measure), (default.warmup, default.measure));
            }
        }
    }

    #[test]
    fn parses_fault_flags() {
        let c = run(
            "--app memcached --policy perf --load 30000 --loss 0.01 --corrupt 0.002 \
                     --reorder 0.005 --jitter-us 20 --fault-seed 99",
        );
        assert_eq!(c.faults.loss, 0.01);
        assert_eq!(c.faults.corrupt, 0.002);
        assert_eq!(c.faults.reorder, 0.005);
        assert_eq!(c.faults.jitter, SimDuration::from_us(20));
        assert_eq!(c.faults.seed, 99);
        // An impairment arms retransmission and the reorder hold-back.
        assert!(c.faults.retx.enabled);
        assert_eq!(c.faults.reorder_delay, SimDuration::from_us(50));
        // Defaults keep the fault subsystem fully off.
        let d = run("");
        assert_eq!(d.faults, FaultConfig::none());
        assert_eq!(d.faults.seed, DEFAULT_FAULT_SEED);
    }

    #[test]
    fn parses_overload_flags() {
        let c = run("--app memcached --policy perf --load 30000 --queue-cap 64 \
                     --shed-policy codel --deadline-us 500");
        assert_eq!(c.overload.run_queue_cap, Some(64));
        assert_eq!(c.overload.policy, ShedPolicy::CoDel);
        assert_eq!(c.deadline, Some(SimDuration::from_us(500)));
        // Any overload flag starts from the server defaults.
        assert_eq!(
            run("--shed-policy codel").overload,
            OverloadConfig::server_defaults().with_policy(ShedPolicy::CoDel)
        );
        // Defaults keep admission control fully off.
        let d = run("");
        assert_eq!(d.overload, OverloadConfig::off());
        assert_eq!(d.deadline, None);
    }

    #[test]
    fn deadline_flag_implies_deadline_policy() {
        let cfg = run("--load 30000 --deadline-us 2000");
        assert_eq!(
            cfg.overload,
            OverloadConfig::server_defaults().with_policy(ShedPolicy::Deadline)
        );
        assert_eq!(cfg.deadline, Some(SimDuration::from_us(2_000)));
        // An explicit policy wins over the implication, in either order.
        for flags in [
            "--load 30000 --deadline-us 2000 --shed-policy drop-tail",
            "--load 30000 --shed-policy drop-tail --deadline-us 2000",
        ] {
            assert_eq!(run(flags).overload.policy, ShedPolicy::DropTail);
        }
    }

    #[test]
    fn parses_fleet_flags() {
        let c = run(
            "--app memcached --policy ond.idle --load 40000 --servers 4 \
                     --dispatch pack --coordinator",
        );
        let fleet = c.fleet.expect("fleet configured");
        assert_eq!(fleet.backends, 4);
        assert_eq!(fleet.dispatch, DispatchPolicy::Packing);
        assert_eq!(
            fleet.coordinator,
            Some(CoordinatorConfig::new(AppKind::Memcached.paper_loads()[2]))
        );
        // The coordinator is sized against the app however the flags
        // are ordered.
        let late_app = run("--coordinator --app apache").fleet;
        let coordinator = late_app.and_then(|f| f.coordinator);
        assert_eq!(coordinator.map(|c| c.per_backend_rps), Some(66_000.0));
        // Defaults keep the single-server topology.
        assert!(run("").fleet.is_none());
    }

    #[test]
    fn parses_failure_flags() {
        let c = run(
            "--load 40000 --servers 4 --fail-backend 1@50 --fail-backend 2@60:30 \
                     --fail-mode hang --health-interval 500 --health-eject 2 --health-rejoin 4",
        );
        let fleet = c.fleet.expect("fleet configured");
        assert_eq!(
            fleet.faults.specs,
            vec![
                FailureSpec {
                    backend: 1,
                    at: SimTime::from_ms(50),
                    mode: FailureMode::Hang,
                    restart_after: None,
                },
                FailureSpec {
                    backend: 2,
                    at: SimTime::from_ms(60),
                    mode: FailureMode::Hang,
                    restart_after: Some(SimDuration::from_ms(30)),
                },
            ]
        );
        let h = fleet.health.expect("health configured");
        assert_eq!(h.interval, SimDuration::from_us(500));
        assert_eq!(h.eject_after, 2);
        assert_eq!(h.rejoin_after, 4);
        // --fail-mode applies to every failure, whatever the flag order.
        let early = run("--fail-mode slow --fail-backend 0@10").fleet;
        assert_eq!(
            early.expect("fleet").faults.specs[0].mode,
            FailureMode::Slow
        );
        // A failure schedule alone implies the fleet topology.
        assert!(run("--load 20000 --fail-backend 0@10").fleet.is_some());
        // Defaults keep the failure layer fully off.
        assert!(run("").fleet.is_none());
    }

    #[test]
    fn fail_backend_index_checked_against_servers() {
        // Out of range fails at parse time, not at runtime.
        let err = line("run --load 1000 --servers 2 --fail-backend 2@10").unwrap_err();
        assert_eq!(err.field, "faults.backend", "{err}");
        // The check runs after the whole line is parsed, so flag order
        // does not matter.
        assert!(line("run --load 1000 --fail-backend 3@10 --servers 4").is_ok());
        // An in-range index against the default single server is fine.
        assert!(line("run --load 1000 --fail-backend 0@10").is_ok());
        assert!(line("run --load 1000 --fail-backend 1@10").is_err());
        // trace and report share the same cross-flag check.
        assert!(line("trace --out x --servers 2 --fail-backend 5@10").is_err());
        assert!(line("report --servers 2 --fail-backend 5@10").is_err());
    }

    #[test]
    fn parses_chaos_flags() {
        let Ok(Command::Chaos(a)) = line("chaos") else {
            panic!("expected chaos");
        };
        assert_eq!(a.seeds, 40);
        assert_eq!(a.from, 1);
        assert_eq!(a.threads, 0);
        assert!(!a.shrink);
        assert!(a.scenario.is_none() && a.out.is_none());
        let cmd = line("chaos --seeds 200 --from 7 --threads 2 --shrink --out repros");
        let Ok(Command::Chaos(a)) = cmd else {
            panic!("expected chaos");
        };
        assert_eq!((a.seeds, a.from, a.threads), (200, 7, 2));
        assert!(a.shrink);
        assert_eq!(a.out.as_deref(), Some("repros"));
        let Ok(Command::Chaos(a)) = line("chaos --scenario repro.scenario") else {
            panic!("expected chaos");
        };
        assert_eq!(a.scenario.as_deref(), Some("repro.scenario"));
        assert!(line("chaos --seeds 0").is_err());
        assert!(line("chaos --seeds many").is_err());
        assert!(line("chaos --frob").is_err());
        // The seed range must fit in u64: a wrapped range would run no
        // scenario and pass vacuously.
        let err = line("chaos --from 18446744073709551615 --seeds 2").unwrap_err();
        assert_eq!(err.field, "--seeds", "{err}");
        assert!(line("chaos --from 18446744073709551614 --seeds 1").is_ok());
        let Ok(Command::Chaos(a)) = line("chaos --datapath bypass --poll-cores 2") else {
            panic!("expected chaos");
        };
        assert_eq!(a.datapath, Some(Datapath::Bypass));
        assert_eq!(a.poll_cores, Some(2));
        assert!(line("chaos --datapath warp").is_err());
        assert!(line("chaos --poll-cores 0").is_err());
        assert!(line("chaos --poll-cores 4").is_err());
    }

    #[test]
    fn rejects_unknown_inputs() {
        for text in [
            "frobnicate",
            "run --app nginx",
            "run --policy turbo",
            "run --load",
            "run --load -5",
            "run --loss 1.5",
            "run --loss -0.1",
            "run --corrupt nan",
            "run --queue-cap lots",
            "run --shed-policy yolo",
            "run --deadline-us -3",
            "run --servers 0",
            "run --servers many",
            "run --dispatch random",
            "run --fail-backend 1",
            "run --fail-backend one@50",
            "run --fail-backend 1@50:",
            "run --fail-mode explode",
            "run --health-interval 0",
            "run --health-eject soon",
            "sla",
            "trace",
            "trace --out x --window-us 0",
            "trace --out x --frob",
        ] {
            assert!(line(text).is_err(), "{text}");
        }
        // Each of these used to be accepted and then panic mid-run, or
        // run silently as something else; each names the field at fault.
        for (text, field) in [
            (
                "trace --out x --servers 2 --health-eject 0",
                "health.eject_after",
            ),
            (
                "trace --out x --servers 2 --fail-backend 0@1:0",
                "faults.restart_after",
            ),
            ("trace --out x --measure-ms 0 --warmup-ms 0", "measure"),
            ("sweep --app apache --loads -5", "load_rps"),
            ("run --measure-ms 0 --warmup-ms 5", "measure"),
            ("run --queues 0", "nic_queues"),
            // A replayed file ignores the campaign flags, and --out
            // writes only what --shrink produces.
            ("chaos --scenario x --seeds 4", "--seeds"),
            ("chaos --from 3 --scenario x", "--from"),
            ("chaos --scenario x --datapath bypass", "--datapath"),
            ("chaos --scenario x --poll-cores 2", "--poll-cores"),
            ("chaos --out dir", "--out"),
            ("chaos --scenario x --out dir", "--out"),
        ] {
            let err = line(text).unwrap_err();
            assert_eq!(err.field, field, "{text}: {err}");
        }
    }

    #[test]
    fn parses_trace_with_run_flags() {
        let cmd = line(
            "trace --out traces/demo --app memcached --policy ncap.cons --load 35000 \
                        --seed 3 --window-us 500",
        );
        let Ok(Command::Trace { cfg, out }) = cmd else {
            panic!("expected trace");
        };
        assert_eq!(out, "traces/demo");
        assert_eq!(cfg.event_trace.map(|t| t.window_ns), Some(500_000));
        assert_eq!(cfg.app, AppKind::Memcached);
        assert_eq!(cfg.policy, Policy::NcapCons);
        assert_eq!(cfg.seed, 3);
        // trace defaults to a short window, overridable with run flags.
        assert_eq!(cfg.warmup, SimDuration::from_ms(10));
        assert_eq!(cfg.measure, SimDuration::from_ms(40));
    }

    #[test]
    fn tiny_trace_executes_and_writes_exports() {
        let dir = std::env::temp_dir().join(format!("ncap-trace-test-{}", std::process::id()));
        let out: &'static str = Box::leak(dir.to_str().unwrap().to_owned().into_boxed_str());
        let flags = "--app memcached --policy ncap.cons --load 30000".split_whitespace();
        let Ok(Command::Trace { mut cfg, out }) =
            parse(["trace", "--out", out].into_iter().chain(flags))
        else {
            panic!("expected trace");
        };
        cfg.warmup = SimDuration::from_ms(5);
        cfg.measure = SimDuration::from_ms(15);
        assert_eq!(execute(Command::Trace { cfg, out }), 0);
        let json = std::fs::read_to_string(dir.join("trace.json")).unwrap();
        assert!(json.starts_with('{') && json.contains("\"traceEvents\""));
        let csv = std::fs::read_to_string(dir.join("trace.csv")).unwrap();
        assert!(csv.starts_with("time_ns,"));
        assert!(csv.lines().next().unwrap().contains("cluster.bw_rx"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parses_report_with_run_flags() {
        let cmd = line("report --app memcached --policy ond.idle --load 20000 --tail 95 --profile");
        let Ok(Command::Report(r)) = cmd else {
            panic!("expected report");
        };
        assert_eq!(r.app, AppKind::Memcached);
        assert_eq!(r.policy, Policy::OndIdle);
        assert_eq!(r.breakdown_tail, 95.0);
        assert!(r.profile);
        // Defaults: p99 tail, no self-profile.
        let Ok(Command::Report(d)) = line("report") else {
            panic!("expected report");
        };
        assert_eq!(d.breakdown_tail, 99.0);
        assert!(!d.profile);
        assert!(line("report --tail 101").is_err());
        assert!(line("report --tail wat").is_err());
        assert!(line("report --frob").is_err());
    }

    #[test]
    fn tiny_report_executes() {
        let cmd = line("report --app memcached --policy ond.idle --load 20000 --profile");
        let Ok(Command::Report(mut r)) = cmd else {
            panic!("expected report");
        };
        r.warmup = SimDuration::from_ms(5);
        r.measure = SimDuration::from_ms(15);
        assert_eq!(execute(Command::Report(r)), 0);
    }

    #[test]
    fn waterfall_renders_contributing_stages() {
        let mut c = simstats::BreakdownCollector::new();
        let mut v = [0u32; simstats::STAGE_COUNT];
        v[simstats::breakdown::stage::CPU] = 10_000;
        v[simstats::breakdown::stage::NET_IN] = 2_000;
        c.record(v, 12_000);
        let b = c.finalize(99.0);
        let w = render_waterfall(&b);
        assert!(w.contains("cpu"));
        assert!(w.contains("net_in"));
        assert!(!w.contains("wake"), "zero stages are omitted:\n{w}");
    }

    #[test]
    fn policies_and_help_execute() {
        assert_eq!(execute(Command::Policies), 0);
        assert_eq!(execute(Command::Help), 0);
    }

    /// Runs `ncap run <flags>` shortened to a 5 ms warmup and a 20 ms
    /// measured window, and returns the exit code.
    fn tiny_run(flags: &'static str) -> i32 {
        let mut cfg = run(flags);
        cfg.warmup = SimDuration::from_ms(5);
        cfg.measure = SimDuration::from_ms(20);
        execute(Command::Run(cfg))
    }

    #[test]
    fn tiny_run_executes() {
        let mut cfg = run("--app memcached --policy perf --load 20000");
        cfg.measure = SimDuration::from_ms(30);
        cfg.warmup = SimDuration::from_ms(10);
        assert_eq!(execute(Command::Run(cfg)), 0);
    }

    #[test]
    fn tiny_overloaded_run_executes() {
        let flags = "--app memcached --policy perf --load 150000 --queue-cap 4 \
                     --shed-policy drop-tail";
        assert_eq!(tiny_run(flags), 0);
    }

    #[test]
    fn tiny_fleet_run_executes() {
        let flags = "--app memcached --policy ond.idle --load 30000 --servers 3 --dispatch jsq \
                     --coordinator";
        assert_eq!(tiny_run(flags), 0);
    }

    #[test]
    fn tiny_failover_run_executes() {
        let flags = "--app memcached --policy perf --load 30000 --servers 3 --dispatch jsq \
                     --fail-backend 1@10";
        assert_eq!(tiny_run(flags), 0);
    }

    #[test]
    fn tiny_lossy_run_executes() {
        let flags = "--app memcached --policy perf --load 20000 --loss 0.01 --fault-seed 7";
        assert_eq!(tiny_run(flags), 0);
    }
}
