//! Stage-level request waterfalls: where does a request's time go?
//!
//! Runs `ond.idle` and `ncap.cons` and prints, from the latency
//! breakdown over the *full population* of completed requests (no
//! sampling), one row per stage with a nonzero p99: its mean, its p99 and
//! its share of the tail. The per-stage means follow — making NCAP's
//! hidden-wake-up and boosted-processing effects directly visible. The
//! breakdown's stages tile every request's client-observed latency
//! exactly; the run's watchdog checks that identity for every completion.
//! For a single request's waterfall, see the `latency` track of
//! `ncap trace`.
//!
//! Run with: `cargo run --release --example request_waterfall`

use cluster::{run_experiment, AppKind, ExperimentConfig, Policy};
use desim::SimDuration;

fn main() {
    for policy in [Policy::OndIdle, Policy::NcapCons] {
        let cfg = ExperimentConfig::new(AppKind::Apache, policy, 24_000.0)
            .with_durations(SimDuration::from_ms(50), SimDuration::from_ms(150));
        let r = run_experiment(&cfg);
        let b = r
            .breakdown
            .as_ref()
            .expect("the breakdown is on by default");
        println!(
            "--- {policy}: {} completed requests, tail ≥ {:.1} us ({} requests) ---",
            b.count,
            b.tail_threshold_ns as f64 / 1e3,
            b.tail_count
        );
        println!(
            "{:>10}  {:>9}  {:>9}  {:>10}",
            "stage", "mean(us)", "p99(us)", "tail share"
        );
        for s in &b.stages {
            let p99 = s.hist.percentile(99.0);
            if p99 > 0 {
                println!(
                    "{:>10}  {:>9.1}  {:>9.1}  {:>9.1}%",
                    s.name,
                    s.mean / 1e3,
                    p99 as f64 / 1e3,
                    s.tail_share * 100.0
                );
            }
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
