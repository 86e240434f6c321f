//! Ablation: context-aware vs naive packet-rate triggering (paper §4.1).
//!
//! The paper's motivating comparison: a naive design boosts the processor
//! whenever *any* packet rate is high, so bulk background traffic
//! (off-line analytics, storage streams) and non-latency-critical updates
//! (HTTP PUT) burn energy for nothing. NCAP's ReqMonitor templates ignore
//! them. We run the low Apache load plus a heavy bulk-frame background
//! stream and compare.

use cluster::{run_experiments_parallel, AppKind, BackgroundTraffic, Policy};
use ncap::NcapConfig;
use ncap_bench::{header, standard};
use simstats::{fmt_ns, Table};

fn main() {
    header("ablation_context", "context-aware vs naive trigger (§4.1)");
    let load = AppKind::Apache.paper_loads()[0];
    let bg = BackgroundTraffic {
        rate: 100_000.0, // 100 K bulk frames/s ≈ 1.2 Gbps of analytics traffic
        burst_size: 500,
    };
    let variants: Vec<(&str, cluster::ExperimentConfig)> = vec![
        (
            "context-aware, no background",
            standard(AppKind::Apache, Policy::NcapCons, load),
        ),
        (
            "context-aware + bulk background",
            standard(AppKind::Apache, Policy::NcapCons, load).with_background(bg),
        ),
        (
            "naive trigger + bulk background",
            standard(AppKind::Apache, Policy::NcapCons, load)
                .with_background(bg)
                .with_ncap_override(NcapConfig::paper_defaults().naive_trigger()),
        ),
    ];
    let configs: Vec<_> = variants.iter().map(|(_, c)| c.clone()).collect();
    let results = run_experiments_parallel(&configs);
    let mut t = Table::new(vec!["variant", "p95", "energy (J)", "NCAP interrupts"]);
    for ((name, _), r) in variants.iter().zip(results.iter()) {
        t.row(vec![
            (*name).to_owned(),
            fmt_ns(r.latency.p95),
            format!("{:.2}", r.energy_j),
            r.wake_markers.to_string(),
        ]);
    }
    println!("Apache @ {load:.0} rps (+500-frame bulk bursts at 100 K frames/s):");
    println!("{t}");
    println!("expected: the naive trigger fires on the bulk stream, pinning the");
    println!("processor at P0 and burning energy; the context-aware design ignores it.");
}
