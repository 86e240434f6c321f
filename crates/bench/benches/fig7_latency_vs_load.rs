//! Latency-versus-load curves and the SLA inflection points.
//!
//! The paper (§6, "Figure 7"-style latency/load plot) sweeps load under
//! the `perf` baseline, finds the inflection of the p95 curve, and sets
//! the SLA to the p95 there — 41 ms for Apache and 3 ms for Memcached on
//! their testbed. Absolute values differ on our substrate; the shape
//! (flat, then a knee, then blow-up past saturation) and the max-load
//! ratio between the applications (~2.1×) are the reproduction targets.

use cluster::AppKind;
use ncap_bench::{dump_tsv, find_sla, header};
use simstats::{fmt_ns, sla_curve_table};

fn main() {
    header(
        "fig7_latency_vs_load",
        "latency-load curves / SLA inflection (§6)",
    );
    let mut knees = Vec::new();
    for app in [AppKind::Apache, AppKind::Memcached] {
        let sla = find_sla(app);
        println!("{app}: p95 vs offered load (perf baseline)");
        println!("{}", sla_curve_table(&sla.curve, sla.knee_rps));
        dump_tsv(
            &format!("fig7_{app}"),
            &["load_rps", "p95_ns"],
            &sla.curve
                .iter()
                .map(|&(l, p)| vec![format!("{l:.0}"), p.to_string()])
                .collect::<Vec<_>>(),
        );
        println!(
            "{app}: SLA = {} at knee load {:.0} rps (paper: {} at their testbed scale)\n",
            fmt_ns(sla.sla_ns),
            sla.knee_rps,
            match app {
                AppKind::Apache => "41 ms",
                AppKind::Memcached => "3 ms",
            }
        );
        knees.push((app, sla.knee_rps));
    }
    let ratio = knees[1].1 / knees[0].1;
    println!(
        "max sustained load ratio memcached/apache = {ratio:.2} (paper: ~2.1x, 143K vs 68K rps)"
    );
}
