//! sim-throughput — simulator event throughput (the ROADMAP's tracked
//! perf trajectory, not a paper figure).
//!
//! Two measurements:
//!
//! 1. **End-to-end fleet throughput**: simulated-seconds per wall-second
//!    and events/second for full experiment runs at 1/8/32/64 backends ×
//!    rr/jsq/pack — the number that decides how big a fleet the suite
//!    can afford to sweep.
//! 2. **Queue-level hold model**: the classic priority-queue hold
//!    benchmark (steady-state pop → push at `popped + increment`) with a
//!    pending population and increment mix approximating the 64-backend
//!    fleet scenario — thousands of in-flight events, a blend of
//!    same-instant NIC/kernel cascades, microsecond-scale service
//!    events, and long governor/coordinator timers. It times the event
//!    queue alone, with no model code around it.
//!
//! `scripts/bench_record.sh` runs this target and records the JSON
//! emitted when `NCAP_BENCH_JSON=<path>` is set as `BENCH_6.json`.
//!
//! Run with: `cargo bench -p ncap-bench --bench sim_throughput`

use cluster::{
    run_experiment, AppKind, CoordinatorConfig, DispatchPolicy, ExperimentConfig, FleetConfig,
    Policy,
};
use desim::{EventQueue, SimDuration, SimTime, SplitMix64};
use ncap_bench::{fast_mode, smoke_mode};
use simstats::Table;
use std::time::Instant;

/// Memcached's single-server knee (§5), as in `examples/fleet_sweep.rs`.
const PER_BACKEND_RPS: f64 = 120_000.0;
/// Offered load per backend: half the knee, so every backend stays
/// active (the coordinator has nothing to park) and simulated work
/// scales with fleet size — the throughput bench measures the cost of
/// *simulating N busy backends*, not of an idle parked fleet.
const PER_BACKEND_LOAD_RPS: f64 = 60_000.0;

/// Steady-state pending population for the hold model: the measured
/// peak of the 64-backend full-mode jsq fleet run below
/// (`Profile::peak_pending` reads 245,792 over its 60 ms horizon at
/// 3.84 M rps), rounded to the nearest power of two.
const HOLD_PENDING: usize = 1 << 18;

fn fleet_cfg(backends: usize, dispatch: DispatchPolicy) -> ExperimentConfig {
    let (warmup, measure) = if smoke_mode() {
        (SimDuration::from_ms(2), SimDuration::from_ms(5))
    } else if fast_mode() {
        (SimDuration::from_ms(10), SimDuration::from_ms(20))
    } else {
        (SimDuration::from_ms(20), SimDuration::from_ms(40))
    };
    ExperimentConfig::new(
        AppKind::Memcached,
        Policy::NcapCons,
        PER_BACKEND_LOAD_RPS * backends as f64,
    )
    .with_durations(warmup, measure)
    .with_poisson()
    .with_fleet(
        FleetConfig::new(backends, dispatch)
            .with_coordinator(CoordinatorConfig::new(PER_BACKEND_RPS).with_util_target(0.5)),
    )
}

struct EndToEnd {
    backends: usize,
    dispatch: DispatchPolicy,
    events: u64,
    wall_s: f64,
    sim_s: f64,
}

impl EndToEnd {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s
    }
    fn sim_per_wall(&self) -> f64 {
        self.sim_s / self.wall_s
    }
}

/// Runs one experiment, returning its event count and wall time.
fn timed_run(cfg: &ExperimentConfig) -> (u64, f64) {
    let start = Instant::now();
    let r = run_experiment(cfg);
    let wall = start.elapsed().as_secs_f64();
    (r.events_processed, wall)
}

/// The hold model: pre-fill `pending` events, then `ops` iterations of
/// pop-and-reschedule. The increment mix mirrors the fleet event blend:
/// 30% same-instant (LB forward hops, softirq/NIC cascades), 50% short
/// µs-scale events (wire latency, DMA, service stages), 15% ~1 ms
/// timers (watchdog, coordinator, NCAP CIT), 5% ~10 ms timers (the
/// ondemand governor period) — so the pending population, like the real
/// 64-backend run's, is a dense near-term cluster plus a long sparse
/// timer tail. Returns events/second (one hold op = one pop + one
/// push = counted as one event).
fn hold_model(pending: usize, ops: usize, seed: u64) -> f64 {
    let mut rng = SplitMix64::new(seed);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..pending {
        q.push(SimTime::from_nanos(rng.next_below(1_000_000)), i as u64);
    }
    let start = Instant::now();
    for i in 0..ops {
        let (t, _) = q.pop().expect("queue stays populated");
        let roll = rng.next_below(100);
        let inc = if roll < 30 {
            0
        } else if roll < 80 {
            1 + rng.next_below(4_000)
        } else if roll < 95 {
            500_000 + rng.next_below(1_000_000)
        } else {
            10_000_000 + rng.next_below(1_000_000)
        };
        q.push(SimTime::from_nanos(t.as_nanos() + inc), i as u64);
    }
    let wall = start.elapsed().as_secs_f64();
    std::hint::black_box(&q);
    ops as f64 / wall
}

/// Best-of-`rounds` hold-model throughput (wall-clock noise control; the
/// schedule is identical every round).
fn hold_best(pending: usize, ops: usize, rounds: usize) -> f64 {
    (0..rounds)
        .map(|_| hold_model(pending, ops, 0x4E43_4150))
        .fold(0.0f64, f64::max)
}

/// Minimal JSON string escaping (names here are all plain ASCII, but
/// stay safe).
fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() {
    ncap_bench::header(
        "sim-throughput",
        "the ROADMAP sim-scale trajectory (BENCH_*.json), not a paper figure",
    );
    let mode = if smoke_mode() {
        "smoke"
    } else if fast_mode() {
        "fast"
    } else {
        "full"
    };

    // 1. End-to-end fleet throughput.
    let sizes: &[usize] = if smoke_mode() {
        &[1, 8]
    } else {
        &[1, 8, 32, 64]
    };
    let mut rows = Vec::new();
    for &backends in sizes {
        for dispatch in DispatchPolicy::ALL {
            let cfg = fleet_cfg(backends, dispatch);
            let sim_s = cfg.horizon().as_secs_f64();
            let (events, wall_s) = timed_run(&cfg);
            rows.push(EndToEnd {
                backends,
                dispatch,
                events,
                wall_s,
                sim_s,
            });
        }
    }
    let mut t = Table::new(vec![
        "backends",
        "dispatch",
        "events",
        "wall (s)",
        "sim-s/wall-s",
        "events/s",
    ]);
    for r in &rows {
        t.row(vec![
            format!("{}", r.backends),
            r.dispatch.to_string(),
            format!("{}", r.events),
            format!("{:.3}", r.wall_s),
            format!("{:.4}", r.sim_per_wall()),
            format!("{:.0}", r.events_per_sec()),
        ]);
    }
    println!("{t}");

    // 2. Queue-level hold model at the 64-backend operating point.
    let (ops, rounds) = if smoke_mode() {
        (50_000, 1)
    } else if fast_mode() {
        (1_000_000, 3)
    } else {
        (4_000_000, 5)
    };
    let pending = if smoke_mode() { 512 } else { HOLD_PENDING };
    let hold = hold_best(pending, ops, rounds);
    println!("queue hold model ({pending} pending, {ops} ops): {hold:.0} ev/s");

    // JSON record for scripts/bench_record.sh → BENCH_6.json.
    if let Some(path) = std::env::var_os("NCAP_BENCH_JSON") {
        let mut e2e_rows = Vec::new();
        for r in &rows {
            e2e_rows.push(format!(
                "    {{\"backends\": {}, \"dispatch\": {}, \"events\": {}, \"wall_s\": {:.4}, \
                 \"sim_s_per_wall_s\": {:.4}, \"events_per_sec\": {:.0}}}",
                r.backends,
                json_str(r.dispatch.name()),
                r.events,
                r.wall_s,
                r.sim_per_wall(),
                r.events_per_sec()
            ));
        }
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str("  \"bench\": \"sim_throughput\",\n");
        json.push_str("  \"issue\": 6,\n");
        json.push_str(&format!("  \"mode\": {},\n", json_str(mode)));
        json.push_str("  \"end_to_end\": [\n");
        json.push_str(&e2e_rows.join(",\n"));
        json.push_str("\n  ],\n");
        json.push_str(&format!(
            "  \"queue_hold_64_backend_point\": {{\"pending\": {pending}, \"ops\": {ops}, \
             \"events_per_sec\": {hold:.0}}}\n"
        ));
        json.push_str("}\n");
        match std::fs::write(&path, &json) {
            Ok(()) => println!(
                "(json written to {})",
                std::path::Path::new(&path).display()
            ),
            Err(e) => {
                eprintln!("NCAP_BENCH_JSON: cannot write: {e}");
                std::process::exit(1);
            }
        }
    }
}
