//! overhead — what the simulator's always-available observers cost, not
//! a paper figure.
//!
//! Two budgets, each a real on/off pair on one shared workload:
//!
//! * **latency attribution** (DESIGN.md §13): the per-stage request
//!   breakdown, on by default, so its cost is the cost of every run in
//!   the suite — breakdown off vs on, ≤5%;
//! * **health prober** (DESIGN.md §14): what a cautious deployment pays
//!   to keep detection always on — a fault-free fleet with the prober
//!   off vs armed, ≤5%.
//!
//! Overhead is the wall-time ratio on the same simulated workload
//! (events/second would credit the prober for its own probe events).
//! Each variant's wall time is its minimum over interleaved repetitions.
//! The budgets are enforced in full mode only: fast and smoke windows
//! are short enough that scheduler noise can exceed a whole budget. The
//! observer checks hold in every mode: each variant's event count is
//! stable across repetitions, identical with the breakdown off and on,
//! and strictly higher with the prober armed.
//!
//! Run with: `cargo bench -p ncap-bench --bench overhead`

use cluster::{
    run_experiment, AppKind, CoordinatorConfig, DispatchPolicy, ExperimentConfig, FleetConfig,
    HealthConfig, Policy,
};
use desim::SimDuration;
use ncap_bench::{fast_mode, smoke_mode};
use simstats::Table;
use std::time::Instant;

/// Memcached's single-server knee (§5).
const PER_BACKEND_RPS: f64 = 120_000.0;
const BACKENDS: usize = 8;
/// Half the knee per backend: every backend stays busy, so the event
/// stream is dense with the packet and kernel cascades the stage stamps
/// ride on and the probes share the queue with — the worst case for
/// both observers.
const LOAD_RPS: f64 = 0.5 * PER_BACKEND_RPS * BACKENDS as f64;
/// Each observer's budget, in percent of its baseline's wall time.
const BUDGET_PCT: f64 = 5.0;

fn cfg(fleet: FleetConfig) -> ExperimentConfig {
    let (warmup_ms, measure_ms) = if smoke_mode() {
        (2, 5)
    } else if fast_mode() {
        (10, 20)
    } else {
        // A budget divides two wall times, so each run must be long
        // enough that scheduler jitter cannot fake a busted budget.
        (20, 100)
    };
    ExperimentConfig::new(AppKind::Memcached, Policy::NcapCons, LOAD_RPS)
        .with_durations(
            SimDuration::from_ms(warmup_ms),
            SimDuration::from_ms(measure_ms),
        )
        .with_poisson()
        .with_fleet(fleet)
}

fn fleet() -> FleetConfig {
    FleetConfig::new(BACKENDS, DispatchPolicy::LeastOutstanding)
        .with_coordinator(CoordinatorConfig::new(PER_BACKEND_RPS).with_util_target(0.5))
}

/// One variant's measurement.
struct Point {
    events: u64,
    /// Best-of-reps wall seconds (the minimum is the standard noise
    /// filter for a deterministic workload).
    wall_s: f64,
}

/// Runs every variant `reps` times *interleaved* (round 1 of each,
/// round 2 of each, …) and keeps each variant's minimum wall time, so a
/// host-load drift mid-bench penalizes all variants alike instead of
/// whichever happened to run last.
fn measure(variants: &[(&str, ExperimentConfig)], reps: usize) -> Vec<Point> {
    let mut points: Vec<Point> = variants
        .iter()
        .map(|_| Point {
            events: 0,
            wall_s: f64::INFINITY,
        })
        .collect();
    for _ in 0..reps {
        for ((name, cfg), point) in variants.iter().zip(&mut points) {
            let t0 = Instant::now();
            let r = run_experiment(cfg);
            let wall = t0.elapsed().as_secs_f64();
            assert!(
                point.events == 0 || point.events == r.events_processed,
                "{name}: event count drifted across repetitions"
            );
            point.events = r.events_processed;
            point.wall_s = point.wall_s.min(wall);
        }
    }
    points
}

fn main() {
    ncap_bench::header(
        "overhead",
        "the observer budgets (DESIGN.md \u{a7}13, \u{a7}14), not a paper figure",
    );
    let reps = if fast_mode() { 2 } else { 5 };
    println!(
        "({BACKENDS} memcached backends at half-knee, {LOAD_RPS:.0} rps, best of {reps} interleaved reps)\n"
    );

    let variants = [
        ("breakdown off", cfg(fleet()).with_breakdown(false)),
        ("breakdown on, prober off (default)", cfg(fleet())),
        (
            "prober armed, no faults",
            cfg(fleet().with_health(HealthConfig::standard())),
        ),
    ];
    let points = measure(&variants, reps);
    let (off, default, armed) = (&points[0], &points[1], &points[2]);

    // Observer-effect checks: the breakdown must not change what gets
    // simulated; the armed prober adds its own events and nothing else
    // (tests/fleet.rs pins that its client-visible results are equal).
    assert_eq!(
        off.events, default.events,
        "breakdown changed the event stream"
    );
    assert!(
        armed.events > default.events,
        "armed prober recorded no probe events"
    );

    let mut table = Table::new(vec!["variant", "events", "wall (s)"]);
    for ((name, _), p) in variants.iter().zip(&points) {
        table.row(vec![
            (*name).to_string(),
            p.events.to_string(),
            format!("{:.3}", p.wall_s),
        ]);
    }
    println!("{table}");

    let overheads = [
        ("latency attribution", default, off),
        ("health prober", armed, default),
    ]
    .map(|(budget, with, without)| (budget, (with.wall_s / without.wall_s - 1.0) * 100.0));
    for (budget, overhead) in overheads {
        println!("{budget} overhead {overhead:+.1}% (budget \u{2264} {BUDGET_PCT}%)");
    }
    if !fast_mode() {
        for (budget, overhead) in overheads {
            assert!(
                overhead <= BUDGET_PCT,
                "{budget} overhead {overhead:.1}% exceeds the {BUDGET_PCT}% budget"
            );
        }
    }
}
