//! Stage-level request waterfalls: where does a request's time go?
//!
//! Runs `ond.idle` and `ncap.cons` with the server tracing every 50th
//! request. For a few traced requests it prints the server-side waterfall
//! (NIC arrival → stack → app → last TX), then the per-stage means over
//! the *full population* of completed requests (no sampling) from the
//! latency breakdown — making NCAP's hidden-wake-up and boosted-processing
//! effects directly visible. The breakdown's stages tile every request's
//! client-observed latency exactly; the run's watchdog checks that
//! identity for every completion.
//!
//! Run with: `cargo run --release --example request_waterfall`

use cluster::{run_experiment, AppKind, ExperimentConfig, Policy};
use desim::SimDuration;

fn us(d: SimDuration) -> String {
    format!("{:.1}", d.as_nanos() as f64 / 1e3)
}

fn main() {
    for policy in [Policy::OndIdle, Policy::NcapCons] {
        let cfg = ExperimentConfig::new(AppKind::Apache, policy, 24_000.0)
            .with_durations(SimDuration::from_ms(50), SimDuration::from_ms(150))
            .with_request_tracing(50);
        let r = run_experiment(&cfg);
        let b = r
            .breakdown
            .as_ref()
            .expect("the breakdown is on by default");
        let traces = r.server_request_traces.as_deref().unwrap_or_default();
        println!(
            "--- {policy}: {} completed requests, {} traced ---",
            b.count,
            traces.len()
        );
        println!(
            "{:>14}  {:>9}  {:>8}  {:>8}  {:>8}  {:>13}",
            "request", "stack(us)", "app", "(io)", "tx", "residence(us)"
        );
        for t in traces.iter().take(8) {
            println!(
                "{:>14}  {:>9}  {:>8}  {:>8}  {:>8}  {:>13}",
                t.id,
                us(t.stack_done.saturating_since(t.nic_arrival)),
                us(t.app_done.saturating_since(t.stack_done)),
                us(t.io_wait),
                us(t.last_tx.saturating_since(t.app_done)),
                us(t.residence()),
            );
        }
        let mean_us = |name: &str| b.stage(name).map_or(0.0, |s| s.mean / 1e3);
        println!(
            "means: wake {:.1} us, moderation {:.1} us, stack {:.1} us, \
             cpu {:.1} us, io {:.1} us, end-to-end {:.1} us\n",
            mean_us("wake"),
            mean_us("moderation"),
            mean_us("stack"),
            mean_us("cpu"),
            mean_us("io"),
            b.total_mean / 1e3,
        );
    }
    println!(
        "ncap.cons requests spend less time waking (the proactive interrupt\n\
         overlapped packet delivery with the C-state exit) and in app-cpu\n\
         (boosted frequency)."
    );
}
