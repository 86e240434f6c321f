//! Self-timed microbenchmarks: the simulator's own performance.
//!
//! Not a paper artifact — these time the components no end-to-end
//! measurement isolates: event-queue ops, packet construction +
//! ReqMonitor inspection, and DecisionEngine window handling. End-to-end
//! simulator speed is the benchmark's `sim_s_per_wall_s`
//! (`BENCHMARK.json`).
//!
//! `harness = false`, no external framework: each case is calibrated to
//! a per-round wall-clock budget, run for several rounds, and the best
//! per-iteration time is reported (the minimum is the usual noise-robust
//! estimator for microbenchmarks). `NCAP_BENCH_FAST` shrinks the budget;
//! `NCAP_BENCH_SMOKE` reduces everything to a single tiny sanity round.

use desim::{EventQueue, SimDuration, SimTime};
use ncap::{NcapConfig, ReqMonitor};
use netsim::http::HttpRequest;
use netsim::packet::{NodeId, Packet};
use netsim::Bytes;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall-clock budget for one measured round.
fn round_budget() -> Duration {
    if ncap_bench::smoke_mode() {
        Duration::from_millis(2)
    } else if ncap_bench::fast_mode() {
        Duration::from_millis(20)
    } else {
        Duration::from_millis(100)
    }
}

/// Calibrates an iteration count to the round budget, then reports the
/// best per-iteration time over several rounds.
fn bench<R>(name: &str, mut f: impl FnMut() -> R) {
    let budget = round_budget();
    let mut iters: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        if t.elapsed() >= budget || iters >= (1 << 30) {
            break;
        }
        iters *= 2;
    }
    let rounds = if ncap_bench::smoke_mode() { 1 } else { 5 };
    let mut best = u64::MAX;
    for _ in 0..rounds {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        best = best.min(t.elapsed().as_nanos() as u64 / iters);
    }
    println!(
        "{name:<36} {per:>10}/iter   ({iters} iters/round, {rounds} rounds)",
        per = simstats::fmt_ns(best)
    );
}

fn main() {
    ncap_bench::header("micro", "no paper section — simulator self-timing");

    // The event queue at two payload sizes. `u64` is the floor: no
    // simulator queue holds events that small. `[u64; 3]` is 24 bytes,
    // the size of the cluster's `ClusterEvent`, whose frames travel as
    // one pointer.
    bench("event_queue_push_pop_1k", || {
        let mut q = EventQueue::with_capacity(1024);
        for i in 0..1_000u64 {
            q.push(SimTime::from_nanos((i * 7919) % 10_000), i);
        }
        let mut sum = 0u64;
        while let Some((_, v)) = q.pop() {
            sum = sum.wrapping_add(v);
        }
        sum
    });
    bench("event_queue_push_pop_1k_24b", || {
        let mut q = EventQueue::with_capacity(1024);
        for i in 0..1_000u64 {
            let event = [i, 0, 0];
            q.push(SimTime::from_nanos((i * 7919) % 10_000), event);
        }
        let mut sum = 0u64;
        while let Some((_, v)) = q.pop() {
            sum = sum.wrapping_add(v[0]);
        }
        sum
    });

    let mut monitor = ReqMonitor::new();
    monitor.program([*b"GE", *b"HE", *b"PO", *b"ge"]);
    let get = Packet::request(NodeId(1), NodeId(0), 1, HttpRequest::get("/x").to_payload());
    let bulk = Packet::new(
        NodeId(1),
        NodeId(0),
        0,
        Bytes::from(vec![0xA5; 1448]),
        netsim::PacketMeta::default(),
    );
    bench("reqmonitor_inspect_match", || {
        black_box(monitor.inspect(black_box(&get)))
    });
    bench("reqmonitor_inspect_miss", || {
        black_box(monitor.inspect(black_box(&bulk)))
    });
    bench("http_request_build", || {
        HttpRequest::get("/doc/123.html").to_payload()
    });

    let mut e = ncap::DecisionEngine::new(NcapConfig::paper_defaults());
    let mut now = SimTime::ZERO;
    let mut req = 0u64;
    bench("decision_engine_mitt_expiry", || {
        now += SimDuration::from_us(50);
        req += 3;
        e.on_mitt_expiry(now, req, req * 1_500)
    });
}
