//! Explore NCAP's tuning space from the command line.
//!
//! Usage:
//!   cargo run --release --example policy_explorer -- [app] [load_rps] [fcons] [cit_us]
//!
//! Defaults: memcached 35000 5 500. Runs the chosen NCAP configuration
//! next to `perf` and `ond.idle` anchors and prints the trade-off. A
//! malformed, invalid or extra argument prints the error and exits with
//! status 2.

use cluster::config::{token, value};
use cluster::{run_experiments_parallel, AppKind, ExperimentConfig, Policy};
use desim::{ConfigError, SimDuration};
use ncap::NcapConfig;

/// Parses the positionals, validates the three experiments and runs
/// them.
fn explore(args: &[String]) -> Result<(), ConfigError> {
    // Missing trailing positionals take their defaults.
    let defaults = ["memcached", "35000", "5", "500"];
    let it = &mut args
        .iter()
        .map(String::as_str)
        .chain(defaults.into_iter().skip(args.len()));
    let app = AppKind::parse(token("app", it)?)?;
    let load: f64 = value("load_rps", it)?;
    let fcons: u8 = value("fcons", it)?;
    let cit_us: u64 = value("cit_us", it)?;
    if let Some(extra) = it.next() {
        return Err(ConfigError::new("args", format!("unexpected {extra:?}")));
    }

    let custom = NcapConfig::paper_defaults()
        .with_fcons(fcons)
        .with_cit(SimDuration::from_us(cit_us));
    let mk = |policy: Policy| {
        ExperimentConfig::new(app, policy, load)
            .with_durations(SimDuration::from_ms(100), SimDuration::from_ms(300))
    };
    let configs = vec![
        mk(Policy::Perf),
        mk(Policy::OndIdle),
        mk(Policy::NcapCons).with_ncap_override(custom),
    ];
    configs.iter().try_for_each(ExperimentConfig::validate)?;
    println!("exploring: {app} @ {load:.0} rps, FCONS={fcons}, CIT={cit_us}us\n");
    let results = run_experiments_parallel(&configs);
    let perf = &results[0];

    for (label, r) in ["perf (anchor)", "ond.idle (anchor)", "ncap (yours)"]
        .iter()
        .zip(results.iter())
    {
        println!(
            "{label:18} p95 {:7.2} ms  p99 {:7.2} ms  energy {:6.2} J  ({:.2}x perf)  wakes {}",
            r.latency.p95 as f64 / 1e6,
            r.latency.p99 as f64 / 1e6,
            r.energy_j,
            r.energy_j / perf.energy_j,
            r.wake_markers,
        );
    }
    let yours = &results[2];
    println!(
        "\nyour configuration: {} of perf's tail latency at {} of its energy",
        format_args!(
            "{:.0}%",
            yours.latency.p95 as f64 / perf.latency.p95 as f64 * 100.0
        ),
        format_args!("{:.0}%", yours.energy_j / perf.energy_j * 100.0),
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = explore(&args) {
        eprintln!("invalid configuration: {e}");
        std::process::exit(2);
    }
}
