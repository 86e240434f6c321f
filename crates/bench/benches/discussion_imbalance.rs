//! §7 discussion — load imbalance across a multi-server cluster.
//!
//! "A production datacenter consists of hundreds or thousands of servers
//! … there is a significant fraction of underutilized servers even at a
//! high overall load level, and NCAP can achieve energy reduction for
//! such underutilized servers." Four Memcached servers run at 20/40/60/90 %
//! of a fixed 110 K rps anchor near the single-server knee; the
//! cluster-wide overall load is ~52 % of it.
//!
//! Each server is its own single-client experiment with its own seed.
//! Servers that share no client share no link or other simulated state
//! (the switch touches only a frame's source uplink and destination
//! downlink), so the four runs are the four-server cluster, and each
//! server's energy is its run's measured-window energy.

use cluster::{run_experiments_parallel, AppKind, ExperimentConfig, Policy};
use ncap_bench::{header, standard};
use simstats::{fmt_ns, Table};

fn main() {
    header(
        "discussion_imbalance",
        "§7 (underutilized servers in a datacenter)",
    );
    let anchor = 110_000.0;
    let shares = [0.2, 0.4, 0.6, 0.9];
    let policies = [
        Policy::Perf,
        Policy::PerfIdle,
        Policy::NcapCons,
        Policy::NcapAggr,
    ];
    let configs: Vec<ExperimentConfig> = policies
        .iter()
        .flat_map(|&policy| {
            shares.iter().enumerate().map(move |(i, share)| {
                ExperimentConfig {
                    clients: 1,
                    ..standard(AppKind::Memcached, policy, share * anchor)
                }
                .with_seed(42 + i as u64)
            })
        })
        .collect();
    let results = run_experiments_parallel(&configs);

    let servers = ["srv0 (20%)", "srv1 (40%)", "srv2 (60%)", "srv3 (90%)"];
    let mut energy = Table::new([&["policy"], &servers[..], &["total (J)"]].concat());
    let mut p95 = Table::new([&["policy"], &servers[..]].concat());
    let mut perf_total = 0.0;
    for (policy, runs) in policies.iter().zip(results.chunks(shares.len())) {
        assert!(
            runs.iter().all(|r| r.completed > 0),
            "every server must serve traffic"
        );
        let total: f64 = runs.iter().map(|r| r.energy_j).sum();
        if *policy == Policy::Perf {
            perf_total = total;
        }
        let mut cells = vec![policy.name().to_owned()];
        cells.extend(runs.iter().map(|r| format!("{:.2} J", r.energy_j)));
        cells.push(format!("{total:.2} ({:.2}x perf)", total / perf_total));
        energy.row(cells);
        let mut cells = vec![policy.name().to_owned()];
        cells.extend(runs.iter().map(|r| fmt_ns(r.latency.p95)));
        p95.row(cells);
    }
    println!("4 Memcached servers at 20/40/60/90% of {anchor:.0} rps (overall ~52%):");
    println!("measured-window energy per server:");
    println!("{energy}");
    println!("p95 per server:");
    println!("{p95}");
    println!("expected: NCAP's saving concentrates on the underutilized servers");
    println!("(srv0/srv1) while the 90% server converges toward perf — the §7");
    println!("argument for deploying NCAP fleet-wide despite high overall load.");
}
