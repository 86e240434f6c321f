//! The simulator benchmark: host-time cost of simulating four workloads,
//! end to end and split by layer.
//!
//! ```text
//! cargo run --release --example benchmark -- [--workload W] [--seed N]
//!     [--reps N | --seconds S] [--trace 0|1] [--out results.json] [--smoke]
//! cargo run --release --example benchmark -- --compare a.json b.json
//! ```
//!
//! For each workload the benchmark makes one discarded warm-up run, then
//! timed runs with the self-profiler off, each after one timed set-up,
//! and then one traced run with the profiler on. `--reps` sets the number
//! of timed runs; `--seconds` instead keeps them going for that long.
//! `--trace 1` replaces the timed runs and set-ups with one untraced run:
//! it reports only the traced run's metrics.
//! Every run is checked: a clean watchdog, goodput of at least 0.99, and
//! a model digest equal to the first run's. The last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`; a failed check exits with code 1. Several workloads run in
//! one child process each. See README.md for the workloads and metrics.

mod json;
mod layers;
mod lb;
mod stats;
mod workloads;

use cluster::{BackendState, ExperimentConfig, ExperimentResult};
use json::Json;
use stats::Spread;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::Workload;

const USAGE: &str = "usage: benchmark [--workload W] [--seed N] [--reps N | --seconds S] \
[--trace 0|1] [--out FILE] [--smoke]
       benchmark --compare A.json B.json
workloads: single_bursty fleet64_pack fleet64_bypass fleet16_failover (default: all)";

/// An end-to-end metric and the share by which its reported value may get
/// worse before a change counts as a regression.
struct EndToEnd {
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
}

impl EndToEnd {
    /// The reported value: the best of the runs. Host speed moves in
    /// phases that slow every run inside them, which drag the median
    /// along; the best run stays put (README.md has the measurements).
    fn value(&self, s: Spread) -> f64 {
        if self.higher_is_better {
            s.max
        } else {
            s.min
        }
    }
}

const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "sim_s_per_wall_s",
        unit: "s/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.10,
    },
];

/// Lowest share of offered requests a healthy run completes.
const MIN_GOODPUT: f64 = 0.99;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    reps: usize,
    seconds: Option<f64>,
    trace: Option<bool>,
    out: Option<String>,
    smoke: bool,
}

enum Command {
    Run(Args),
    Compare(String, String),
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Command, String> {
    let mut parsed = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        reps: 7,
        seconds: None,
        trace: None,
        out: None,
        smoke: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
                parsed.workloads = vec![w];
            }
            "--seed" => parsed.seed = parse_num(&flag, &value()?)?,
            "--reps" => {
                parsed.reps = parse_num(&flag, &value()?)?;
                if parsed.reps == 0 {
                    return Err("--reps must be at least 1".into());
                }
            }
            "--seconds" => {
                let s: f64 = parse_num(&flag, &value()?)?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--out" => parsed.out = Some(value()?),
            "--smoke" => parsed.smoke = true,
            "--compare" => {
                let a = value()?;
                let b = value()?;
                return Ok(Command::Compare(a, b));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Command::Run(parsed))
}

fn parse_num<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: cannot parse {text:?}"))
}

fn main() -> ExitCode {
    let command = match parse_args(std::env::args().skip(1)) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match command {
        Command::Run(args) => run(&args),
        Command::Compare(a, b) => compare(&a, &b),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One named measurement.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Everything measured on one workload.
struct Report {
    workload: Workload,
    /// Per-run samples of each end-to-end metric, in [`END_TO_END`] order.
    samples: [Vec<f64>; 3],
    /// Per-layer metrics from the traced run (empty without one).
    layers: Vec<Metric>,
    /// What the simulated system did, from the first run.
    model: Vec<Metric>,
    digest: u64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    fn spread(&self, i: usize) -> Option<Spread> {
        (!self.samples[i].is_empty()).then(|| Spread::of(&self.samples[i]))
    }

    fn digest_match(&self, seed: u64, smoke: bool) -> &'static str {
        if seed != 1 || smoke {
            "n/a"
        } else if self.digest == self.workload.pinned_digest() {
            "yes"
        } else {
            "no"
        }
    }
}

/// Runs one experiment, catching a panic as an error.
fn run_once(cfg: &ExperimentConfig) -> Result<(ExperimentResult, Duration), String> {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let start = Instant::now();
        let result = cluster::try_run_experiment(cfg);
        (result, start.elapsed())
    }));
    match outcome {
        Ok((Ok(result), wall)) => Ok((result, wall)),
        Ok((Err(e), _)) => Err(format!("invalid config: {e}")),
        Err(_) => Err("the run panicked".into()),
    }
}

/// FNV-1a of the result's `Debug` render without its host-time fields,
/// as in the 64-backend golden-digest test.
fn digest(result: &mut ExperimentResult) -> u64 {
    result.self_profile = None;
    result.sim_trace = None;
    format!("{result:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Checks one run against the self-checks; returns the requests it
/// counts as failed.
fn check_run(
    label: &str,
    result: &mut ExperimentResult,
    reference: u64,
    problems: &mut Vec<String>,
) -> u64 {
    let mut whole_run_failed = false;
    if let Some(v) = result.invariant_violations.first() {
        problems.push(format!(
            "{label}: watchdog recorded {} violation(s), first: {v}",
            result.invariant_violations.len()
        ));
        whole_run_failed = true;
    }
    let d = digest(result);
    if d != reference {
        problems.push(format!(
            "{label}: digest {d:#018x} differs from the first run's {reference:#018x}"
        ));
        whole_run_failed = true;
    }
    if result.goodput() < MIN_GOODPUT {
        problems.push(format!(
            "{label}: goodput {:.4} below {MIN_GOODPUT}",
            result.goodput()
        ));
    }
    if whole_run_failed {
        result.offered
    } else {
        result.offered.saturating_sub(result.completed)
    }
}

fn model_outputs(r: &ExperimentResult) -> Vec<Metric> {
    let fleet = r.fleet.as_ref();
    vec![
        metric("model.offered", r.offered as f64, "count"),
        metric("model.completed", r.completed as f64, "count"),
        metric("model.goodput", r.goodput(), "ratio"),
        metric("model.p50_us", r.latency.p50 as f64 / 1e3, "us"),
        metric("model.p99_us", r.latency.p99 as f64 / 1e3, "us"),
        metric("model.energy_j", r.energy_j, "J"),
        metric("model.wake_markers", r.wake_markers as f64, "count"),
        metric("model.parks", fleet.map_or(0, |f| f.parks) as f64, "count"),
        metric("model.retransmits", r.faults.retransmits as f64, "count"),
        metric(
            "model.failovers",
            fleet.map_or(0, |f| f.failovers) as f64,
            "count",
        ),
    ]
}

fn bench(w: Workload, args: &Args) -> Result<Report, String> {
    let cfg = w.config(args.seed, args.smoke);
    let setup_cfg = w.setup_config(args.seed, args.smoke);
    let horizon_s = cfg.horizon().as_secs_f64();
    let mut report = Report {
        workload: w,
        samples: [Vec::new(), Vec::new(), Vec::new()],
        layers: Vec::new(),
        model: Vec::new(),
        digest: 0,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    // The first run of the process sets `peak_rss_mb`: later runs reuse a
    // heap the earlier ones fragmented, and their peaks wander with the
    // seed. It also fixes the model outputs and the digest every later
    // run must reproduce. Outside smoke mode it is the discarded warm-up
    // that fills caches and the allocator before timing.
    let (mut first, wall) = run_once(&cfg).map_err(|e| format!("{}: first run: {e}", w.name()))?;
    report.samples[2].push(peak_rss_mb()?);
    report.model = model_outputs(&first);
    report.digest = digest(&mut first);
    if args.smoke {
        let (_, setup) = run_once(&setup_cfg).map_err(|e| format!("{}: set-up: {e}", w.name()))?;
        report.samples[1].push(setup.as_secs_f64());
        record(&mut report, "run 1", &mut first, wall, horizon_s);
    } else {
        drop(first);
        // Each timed run follows one set-up, so both sample the same
        // spread of host conditions. With `--seconds`, pairs continue
        // while one more would still end within the budget. `--trace 1`
        // reports only the traced run's metrics, so it makes a single
        // run without set-up: the warm untraced wall time that the
        // profiler's overhead is measured against.
        let traced_only = args.trace == Some(true);
        let start = Instant::now();
        for run in 1.. {
            let pair = Instant::now();
            if !traced_only {
                let (_, setup) =
                    run_once(&setup_cfg).map_err(|e| format!("{}: set-up: {e}", w.name()))?;
                report.samples[1].push(setup.as_secs_f64());
            }
            match run_once(&cfg) {
                Ok((mut r, wall)) => {
                    record(&mut report, &format!("run {run}"), &mut r, wall, horizon_s);
                }
                Err(e) => report.problems.push(format!("run {run}: {e}")),
            }
            let done = traced_only
                || match args.seconds {
                    Some(s) => (start.elapsed() + pair.elapsed()).as_secs_f64() > s,
                    None => run >= args.reps,
                };
            if done {
                break;
            }
        }
    }
    if args.trace != Some(false) {
        traced_run(&cfg, &mut report)?;
    }
    Ok(report)
}

/// Counts a timed run's requests, checks it and keeps its speed.
fn record(
    report: &mut Report,
    label: &str,
    r: &mut ExperimentResult,
    wall: Duration,
    horizon_s: f64,
) {
    let digest = report.digest;
    report.attempted += r.offered;
    report.failed += check_run(label, r, digest, &mut report.problems);
    report.samples[0].push(horizon_s / wall.as_secs_f64());
}

/// The traced run: the self-profiler on, split by layer, plus the LB
/// driver for fleet workloads.
fn traced_run(cfg: &ExperimentConfig, report: &mut Report) -> Result<(), String> {
    let name = report.workload.name();
    let (mut r, wall) =
        run_once(&cfg.clone().with_profile()).map_err(|e| format!("{name}: traced run: {e}"))?;
    let profile = r
        .self_profile
        .take()
        .ok_or("the traced run returned no profile")?;
    check_run("traced run", &mut r, report.digest, &mut report.problems);
    for (layer, cost) in layers::split(&profile) {
        report.layers.extend([
            metric(format!("{layer}.busy_s"), cost.busy_ns as f64 / 1e9, "s"),
            metric(format!("{layer}.events"), cost.events as f64, "count"),
            metric(format!("{layer}.ns_per_event"), cost.ns_per_event(), "ns"),
        ]);
    }
    let untraced_wall = report
        .spread(0)
        .map_or(f64::NAN, |s| cfg.horizon().as_secs_f64() / s.median);
    let diagnostics = [
        profile.events_per_sec(),
        profile.queue_ns as f64 / profile.wall_ns as f64,
        (wall.as_secs_f64() / untraced_wall - 1.0) * 100.0,
    ];
    for ((name, unit), value) in layers::DIAGNOSTICS.into_iter().zip(diagnostics) {
        report.layers.push(metric(name, value, unit));
    }
    if let Some(fleet) = &r.fleet {
        let parked: Vec<usize> = (0..fleet.backends.len())
            .filter(|&i| fleet.backends[i].state == BackendState::Parked)
            .collect();
        let ns = lb::ns_per_request(fleet.backends.len(), fleet.dispatch, &parked);
        report
            .layers
            .push(metric("fleet.lb_ns_per_request", ns, "ns"));
    }
    Ok(())
}

fn run(args: &Args) -> Result<bool, String> {
    if let [w] = args.workloads[..] {
        let report = bench(w, args)?;
        print_report(&report, args);
        if let Some(path) = &args.out {
            write_results(path, args, vec![report_json(&report, args)])?;
        }
        let correct = report.problems.is_empty();
        println!("{}", result_line(&report, args.trace, correct));
        return Ok(correct);
    }
    run_each(args)
}

fn write_results(path: &str, args: &Args, workloads: Vec<Json>) -> Result<(), String> {
    let doc = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("smoke", Json::Bool(args.smoke)),
        ("workloads", Json::Arr(workloads)),
    ]);
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("writing {path}: {e}"))
}

/// Runs every workload in a child process of its own, so the heap one
/// workload leaves behind cannot raise the next one's `peak_rss_mb`.
/// Prints the children's reports and one result line for all of them,
/// each metric name prefixed by its workload.
fn run_each(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut correct = true;
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut metrics = Vec::new();
    let mut results = Vec::new();
    for w in &args.workloads {
        let mut child = std::process::Command::new(&exe);
        child.args(["--workload", w.name(), "--seed", &args.seed.to_string()]);
        child.args(["--reps", &args.reps.to_string()]);
        if let Some(s) = args.seconds {
            child.args(["--seconds", &s.to_string()]);
        }
        if let Some(t) = args.trace {
            child.args(["--trace", if t { "1" } else { "0" }]);
        }
        if args.smoke {
            child.arg("--smoke");
        }
        let part = args.out.as_ref().map(|out| format!("{out}.{}", w.name()));
        if let Some(part) = &part {
            child.args(["--out", part]);
        }
        let output = child
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("starting {}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let text = stdout.trim_end();
        let (body, last) = text.rsplit_once('\n').unwrap_or(("", text));
        if !body.is_empty() {
            println!("{body}");
        }
        let line = json::parse(last).map_err(|e| format!("{}: no result line: {e}", w.name()))?;
        correct &= output.status.success() && line.get("correct") == Some(&Json::Bool(true));
        let count = |key| line.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        attempted += count("attempted");
        failed += count("failed");
        if let Some(Json::Obj(fields)) = line.get("metrics") {
            for (name, value) in fields {
                metrics.push((format!("{}.{name}", w.name()), value.clone()));
            }
        }
        if let Some(part) = part {
            let text =
                std::fs::read_to_string(&part).map_err(|e| format!("reading {part}: {e}"))?;
            std::fs::remove_file(&part).map_err(|e| format!("removing {part}: {e}"))?;
            let doc = json::parse(&text).map_err(|e| format!("{part}: {e}"))?;
            results.extend(
                doc.get("workloads")
                    .and_then(Json::as_array)
                    .unwrap_or(&[])
                    .iter()
                    .cloned(),
            );
        }
    }
    if let Some(out) = &args.out {
        write_results(out, args, results)?;
    }
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{line}");
    Ok(correct)
}

fn print_report(r: &Report, args: &Args) {
    let name = r.workload.name();
    println!(
        "== {name} (seed {}): {} timed run(s), {} set-up(s)",
        args.seed,
        r.samples[0].len(),
        r.samples[1].len()
    );
    for (i, m) in END_TO_END.iter().enumerate() {
        if let Some(s) = r.spread(i) {
            println!(
                "{name:<17} {:<32} {:>14.6} {:<6} [best of {}; median {:.6}, q1 {:.6}, q3 {:.6}]",
                m.name,
                m.value(s),
                m.unit,
                r.samples[i].len(),
                s.median,
                s.q1,
                s.q3,
            );
        }
    }
    for m in r.model.iter().chain(&r.layers) {
        let value = if m.value.fract() == 0.0 {
            format!("{:.0}", m.value)
        } else {
            format!("{:.6}", m.value)
        };
        println!("{name:<17} {:<32} {value:>14} {}", m.name, m.unit);
    }
    println!("{name:<17} {:<32} {:>#14x}", "model.digest", r.digest);
    println!(
        "{name:<17} {:<32} {:>14}",
        "model.digest_match",
        r.digest_match(args.seed, args.smoke)
    );
    println!("{name:<17} attempted {} failed {}", r.attempted, r.failed);
    for p in &r.problems {
        println!("{name:<17} CHECK FAILED: {p}");
    }
}

fn metrics_json<'a>(metrics: impl IntoIterator<Item = &'a Metric>) -> Json {
    Json::obj(metrics.into_iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.into())),
            ]),
        )
    }))
}

fn report_json(r: &Report, args: &Args) -> Json {
    let end_to_end = Json::obj(END_TO_END.iter().enumerate().map(|(i, m)| {
        (
            m.name,
            Json::obj([
                ("unit", Json::Str(m.unit.into())),
                (
                    "values",
                    Json::Arr(r.samples[i].iter().map(|&v| Json::Num(v)).collect()),
                ),
            ]),
        )
    }));
    Json::obj([
        ("name", Json::Str(r.workload.name().into())),
        ("correct", Json::Bool(r.problems.is_empty())),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        (
            "problems",
            Json::Arr(r.problems.iter().map(|p| Json::Str(p.clone())).collect()),
        ),
        ("end_to_end", end_to_end),
        ("per_layer", metrics_json(&r.layers)),
        ("model", metrics_json(&r.model)),
        ("digest", Json::Str(format!("{:#018x}", r.digest))),
        (
            "digest_match",
            Json::Str(r.digest_match(args.seed, args.smoke).into()),
        ),
    ])
}

/// The last line of standard output. `--trace 0` reports the end-to-end
/// values, `--trace 1` the per-layer metrics listed in `BENCHMARK.json`,
/// and no `--trace` both.
fn result_line(r: &Report, trace: Option<bool>, correct: bool) -> Json {
    let mut metrics = Vec::new();
    if trace != Some(true) {
        for (i, m) in END_TO_END.iter().enumerate() {
            if let Some(s) = r.spread(i) {
                metrics.push(metric(m.name, m.value(s), m.unit));
            }
        }
    }
    for name in layers::result_line_metrics() {
        if let Some(m) = r.layers.iter().find(|m| m.name == name) {
            metrics.push(metric(name, m.value, m.unit));
        }
    }
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("metrics", metrics_json(&metrics)),
    ])
}

/// The `end_to_end` object of each workload in a `--out` file.
fn load_results(path: &str) -> Result<Vec<(String, Json)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no \"workloads\" array"))?;
    workloads
        .iter()
        .map(|w| {
            let name = w.get("name").and_then(Json::as_str);
            let e2e = w.get("end_to_end");
            match (name, e2e) {
                (Some(n), Some(e)) => Ok((n.to_string(), e.clone())),
                _ => Err(format!(
                    "{path}: a workload lacks \"name\" or \"end_to_end\""
                )),
            }
        })
        .collect()
}

fn values(end_to_end: &Json, metric: &str) -> Vec<f64> {
    end_to_end
        .get(metric)
        .and_then(|m| m.get("values"))
        .and_then(Json::as_array)
        .map(|vs| vs.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Prints each workload × end-to-end metric of two `--out` files with a
/// verdict; fails when any is worse.
fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let a = load_results(a_path)?;
    let b = load_results(b_path)?;
    let header = "best | median [q1, q3] spread";
    println!(
        "{:<17} {:<17} {:>52} {:>52} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        format!("A {header}"),
        format!("B {header}"),
        "change",
        "bound"
    );
    let mut any_worse = false;
    for (name, a_e2e) in &a {
        let Some((_, b_e2e)) = b.iter().find(|(n, _)| n == name) else {
            println!("{name:<17} missing from {b_path}");
            continue;
        };
        for m in &END_TO_END {
            let (av, bv) = (values(a_e2e, m.name), values(b_e2e, m.name));
            if av.is_empty() || bv.is_empty() {
                println!("{name:<17} {:<17} no values in both files", m.name);
                continue;
            }
            let (sa, sb) = (Spread::of(&av), Spread::of(&bv));
            let change = (m.value(sb) - m.value(sa)) / m.value(sa);
            let verdict = verdict(m, &av, &bv);
            any_worse |= verdict == "worse";
            let show = |s: Spread| {
                format!(
                    "{:.5} | {:.5} [{:.5}, {:.5}] {:>5.1}%",
                    m.value(s),
                    s.median,
                    s.q1,
                    s.q3,
                    s.width() * 100.0
                )
            };
            println!(
                "{name:<17} {:<17} {:>52} {:>52} {:>+7.2}% {:>5.0}%  {verdict}",
                m.name,
                show(sa),
                show(sb),
                change * 100.0,
                m.bound * 100.0
            );
        }
    }
    Ok(!any_worse)
}

/// better / worse / unchanged by the metric's bound; unresolved when the
/// runs of either side spread, as (q3 − q1) / median, wider than the
/// bound, unless every run of B beats every run of A.
fn verdict(m: &EndToEnd, a: &[f64], b: &[f64]) -> &'static str {
    let (sa, sb) = (Spread::of(a), Spread::of(b));
    let change = (m.value(sb) - m.value(sa)) / m.value(sa);
    let worse_by = if m.higher_is_better { -change } else { change };
    let b_always_better = if m.higher_is_better {
        sb.min > sa.max
    } else {
        sb.max < sa.min
    };
    if sa.width() > m.bound || sb.width() > m.bound {
        if b_always_better {
            "better"
        } else {
            "unresolved"
        }
    } else if worse_by > m.bound {
        "worse"
    } else if worse_by < -m.bound {
        "better"
    } else {
        "unchanged"
    }
}
