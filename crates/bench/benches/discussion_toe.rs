//! §7 discussion — NCAP on a TOE-capable NIC.
//!
//! "Because TOEs reduce the load on the processors processing packets, a
//! server employing TOE-capable NICs can sustain a higher rate of network
//! packets … a TOE-enabled NIC holds packets a longer time within the
//! NIC, [so] NCAP has more slack to hide the latency of processor cores
//! transitioning from a sleep or low-performance state."

use cluster::{run_experiments_parallel, AppKind, Policy};
use ncap_bench::{header, standard};
use simstats::{fmt_ns, Table};

fn main() {
    header("discussion_toe", "§7 (NCAP with a TCP offload engine)");
    // Loads around and above the conventional knee: the TOE's extra
    // stack headroom shows up as sustained capacity.
    let loads = [110_000.0, 130_000.0, 150_000.0];
    let mut configs = Vec::new();
    for &load in &loads {
        configs.push(standard(AppKind::Memcached, Policy::NcapCons, load));
        configs.push(standard(AppKind::Memcached, Policy::NcapCons, load).with_toe());
    }
    let results = run_experiments_parallel(&configs);
    let mut t = Table::new(vec!["load (rps)", "NIC", "p95", "goodput", "energy (J)"]);
    for (i, r) in results.iter().enumerate() {
        t.row(vec![
            format!("{:.0}", loads[i / 2]),
            if i % 2 == 0 { "conventional" } else { "TOE" }.to_owned(),
            fmt_ns(r.latency.p95),
            format!("{:.3}", r.goodput()),
            format!("{:.2}", r.energy_j),
        ]);
    }
    println!("Memcached, ncap.cons, at and above the conventional knee:");
    println!("{t}");
    println!("expected: the TOE sustains loads past the conventional knee (stack");
    println!("cycles absorbed on the NIC) and trims busy energy; its extra hold");
    println!("time gives NCAP more overlap to hide wake-ups behind.");
}
