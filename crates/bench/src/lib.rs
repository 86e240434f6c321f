//! # ncap-bench — the experiment harness
//!
//! One bench target per table/figure of the paper (see DESIGN.md §5 for
//! the index). Each target is a `harness = false` binary run by
//! `cargo bench -p ncap-bench --bench <id>`, printing the same rows or
//! series the paper reports. This library holds the shared plumbing:
//! standard experiment construction, the SLA-finding sweep (the paper
//! sets the SLA at the 95th-percentile latency of the `perf` baseline at
//! the latency–load curve's inflection point, §6), and result-table
//! rendering.
//!
//! Set `NCAP_BENCH_FAST=1` to shrink simulated durations (~4× faster,
//! noisier percentiles). Set `NCAP_BENCH_SMOKE=1` to shrink them much
//! further still: every target becomes a seconds-long compile-and-run
//! sanity check (see `scripts/bench_smoke.sh`), not a measurement.

use cluster::ExperimentResult;
use cluster::{run_experiment, run_experiments_parallel, AppKind, ExperimentConfig, Policy};
use desim::SimDuration;
use simstats::{fmt_ns, Table};

pub use simstats::pct;

/// `true` when fast mode is requested via `NCAP_BENCH_FAST` (or implied
/// by smoke mode).
#[must_use]
pub fn fast_mode() -> bool {
    smoke_mode() || std::env::var_os("NCAP_BENCH_FAST").is_some_and(|v| v != "0")
}

/// `true` when tiny smoke mode is requested via `NCAP_BENCH_SMOKE`:
/// every target shrinks to a seconds-long compile-and-run sanity check,
/// not a measurement. Numbers printed under smoke mode are meaningless.
#[must_use]
pub fn smoke_mode() -> bool {
    std::env::var_os("NCAP_BENCH_SMOKE").is_some_and(|v| v != "0")
}

/// The standard measurement window pair (warmup, measure).
#[must_use]
pub fn durations() -> (SimDuration, SimDuration) {
    if smoke_mode() {
        (SimDuration::from_ms(5), SimDuration::from_ms(20))
    } else if fast_mode() {
        (SimDuration::from_ms(50), SimDuration::from_ms(150))
    } else {
        (SimDuration::from_ms(100), SimDuration::from_ms(400))
    }
}

/// A standard paper-setup experiment configuration.
#[must_use]
pub fn standard(app: AppKind, policy: Policy, load_rps: f64) -> ExperimentConfig {
    let (warmup, measure) = durations();
    ExperimentConfig::new(app, policy, load_rps).with_durations(warmup, measure)
}

/// The SLA derived from a latency–load sweep of the `perf` baseline.
#[derive(Debug, Clone)]
pub struct SlaResult {
    /// The SLA in nanoseconds (p95 at the inflection load).
    pub sla_ns: u64,
    /// The inflection (knee) load in requests/second.
    pub knee_rps: f64,
    /// The full `(load_rps, p95_ns)` curve.
    pub curve: Vec<(f64, u64)>,
}

/// Load points for the latency–load sweep of each application.
#[must_use]
pub fn sweep_loads(app: AppKind) -> Vec<f64> {
    match app {
        AppKind::Apache => vec![
            12_000.0, 24_000.0, 36_000.0, 45_000.0, 54_000.0, 60_000.0, 66_000.0, 72_000.0,
            78_000.0,
        ],
        AppKind::Memcached => vec![
            20_000.0, 35_000.0, 60_000.0, 90_000.0, 110_000.0, 127_000.0, 138_000.0, 150_000.0,
            165_000.0,
        ],
    }
}

/// Sweeps the `perf` baseline over [`sweep_loads`] and locates the
/// latency–load inflection: the last load whose p95 stays within 2.5× of
/// the low-load baseline (past the knee, queueing makes p95 blow up by
/// integer factors per step). The SLA is the p95 at that knee — the
/// paper's §6 procedure ("the SLA is typically set near the inflexion
/// point of the latency-load curve"). On this substrate the knees land at
/// ~54 K rps (Apache) and ~110 K rps (Memcached) — a 2.0× ratio against
/// the paper's 2.1×.
#[must_use]
pub fn find_sla(app: AppKind) -> SlaResult {
    let loads = sweep_loads(app);
    let configs: Vec<ExperimentConfig> = loads
        .iter()
        .map(|&l| standard(app, Policy::Perf, l))
        .collect();
    let results = run_experiments_parallel(&configs);
    let curve: Vec<(f64, u64)> = loads
        .iter()
        .zip(results.iter())
        .map(|(&l, r)| (l, r.latency.p95))
        .collect();
    let base = curve.first().map_or(1, |&(_, p)| p.max(1));
    let mut knee = curve[0];
    for &(l, p) in &curve {
        if p as f64 <= base as f64 * 2.5 {
            knee = (l, p);
        } else {
            break;
        }
    }
    SlaResult {
        sla_ns: knee.1,
        knee_rps: knee.0,
        curve,
    }
}

/// The three studied load levels, placed relative to this substrate's
/// own capacity the way the paper placed 24/45/66 K rps against its 68 K
/// Apache ceiling: high = the SLA anchor (the inflection load), medium ≈
/// 68 % of it, low ≈ 36 % of it.
#[must_use]
pub fn study_loads(app: AppKind, sla: &SlaResult) -> [f64; 3] {
    let _ = app;
    let knee = sla.knee_rps;
    [(0.36 * knee).round(), (0.68 * knee).round(), knee]
}

/// Runs all seven policies at one (app, load) point, in parallel.
#[must_use]
pub fn run_all_policies(app: AppKind, load: f64) -> Vec<ExperimentResult> {
    let configs: Vec<ExperimentConfig> = Policy::ALL
        .iter()
        .map(|&p| standard(app, p, load))
        .collect();
    run_experiments_parallel(&configs)
}

/// Renders the Figures 8/9 style policy table for one load level:
/// normalized response-time percentiles, SLA verdict, normalized energy.
#[must_use]
pub fn policy_table(results: &[ExperimentResult], sla_ns: u64) -> Table {
    let perf_energy = results
        .iter()
        .find(|r| r.policy == Policy::Perf)
        .map_or(1.0, |r| r.energy_j);
    let mut t = Table::new(vec![
        "policy", "p50/SLA", "p90/SLA", "p95/SLA", "p99/SLA", "SLA", "E/perf", "E (J)", "power",
    ]);
    for r in results {
        let [n50, n90, n95, n99] = r.latency.normalized(sla_ns);
        t.row(vec![
            r.policy.name().to_owned(),
            format!("{n50:.3}"),
            format!("{n90:.3}"),
            format!("{n95:.3}"),
            format!("{n99:.3}"),
            if r.latency.meets_sla(sla_ns) {
                "ok"
            } else {
                "VIOLATED"
            }
            .to_owned(),
            format!("{:.3}", r.energy_j / perf_energy),
            format!("{:.2}", r.energy_j),
            format!("{:.1}W", r.avg_power_w()),
        ]);
    }
    t
}

/// Renders one experiment result as a single summary line.
#[must_use]
pub fn summary_line(r: &ExperimentResult) -> String {
    format!(
        "{:10} load={:>7.0} p95={:>9} energy={:>7.2}J goodput={:.3} wakes={}",
        r.policy.name(),
        r.load_rps,
        fmt_ns(r.latency.p95),
        r.energy_j,
        r.goodput(),
        r.wake_markers
    )
}

/// Runs a single experiment with the standard durations (serial).
#[must_use]
pub fn run_one(app: AppKind, policy: Policy, load: f64) -> ExperimentResult {
    run_experiment(&standard(app, policy, load))
}

/// The full Figures 8/9 reproduction for one application: per-load policy
/// tables (normalized latency distribution + energy), plus the 200 ms
/// BW(Rx)-vs-frequency snapshots for `ond.idle` and `ncap.cons` with the
/// `INT (wake)` markers.
pub fn run_fig89(app: AppKind) {
    let sla = find_sla(app);
    println!(
        "SLA for {app}: p95 = {} at the {:.0} rps inflection (perf baseline)\n",
        fmt_ns(sla.sla_ns),
        sla.knee_rps
    );
    let labels = ["(a) low", "(b) medium", "(c) high"];
    for (label, &load) in labels.iter().zip(study_loads(app, &sla).iter()) {
        println!("--- {label} load: {load:.0} rps ---");
        let results = run_all_policies(app, load);
        println!("{}", policy_table(&results, sla.sla_ns));
    }

    println!("--- 200 ms BW(Rx) vs F snapshots at the low load ---");
    for policy in [Policy::OndIdle, Policy::NcapCons] {
        let cfg =
            standard(app, policy, app.paper_loads()[0]).with_trace(cluster::TraceConfig::per_ms());
        let r = run_experiment(&cfg);
        let traces = r.traces.as_ref().expect("tracing enabled");
        let start_ms = 100u64;
        let window = 200usize;
        let end_ns = (start_ms + window as u64) * 1_000_000;
        let rx = traces.rx.finish_normalized(end_ns);
        let freq = traces.freq.rebin(start_ms * 1_000_000, end_ns, window);
        println!(
            "{policy} (INT(wake) markers: {} in run):",
            traces.wake_markers.len()
        );
        let mut t = Table::new(vec!["t (ms)", "BW(Rx)", "F (GHz)", "INT(wake)"]);
        for i in (0..window).step_by(5) {
            let bin_start = (start_ms + i as u64) * 1_000_000;
            let bin_end = bin_start + 5_000_000;
            let marks = traces
                .wake_markers
                .iter()
                .filter(|m| (bin_start..bin_end).contains(&m.as_nanos()))
                .count();
            t.row(vec![
                format!("{}", start_ms + i as u64),
                format!(
                    "{:.2}",
                    rx.get(start_ms as usize + i).copied().unwrap_or(0.0)
                ),
                format!("{:.2}", freq[i]),
                if marks > 0 {
                    "*".repeat(marks.min(8))
                } else {
                    String::new()
                },
            ]);
        }
        println!("{t}");
    }
}

/// Writes a TSV data file when `NCAP_BENCH_DATA` names a directory —
/// the plot-friendly twin of the printed tables. Silently does nothing
/// when the variable is unset; IO errors are reported, not fatal.
pub fn dump_tsv(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    if let Some(dir) = std::env::var_os("NCAP_BENCH_DATA") {
        dump_tsv_in(std::path::Path::new(&dir), name, headers, rows);
    }
}

/// Writes `dir/name.tsv`, creating `dir` if needed. IO errors are
/// reported, not fatal.
pub fn dump_tsv_in(dir: &std::path::Path, name: &str, headers: &[&str], rows: &[Vec<String>]) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("NCAP_BENCH_DATA: cannot create dir: {e}");
        return;
    }
    let path = dir.join(format!("{name}.tsv"));
    let mut text = headers.join("\t");
    text.push('\n');
    for row in rows {
        text.push_str(&row.join("\t"));
        text.push('\n');
    }
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("NCAP_BENCH_DATA: cannot write {}: {e}", path.display());
    } else {
        println!("(data written to {})", path.display());
    }
}

/// Prints the standard bench header.
pub fn header(id: &str, paper_ref: &str) {
    println!("================================================================");
    println!("{id} — reproduces {paper_ref}");
    println!("================================================================");
    if smoke_mode() {
        println!("(NCAP_BENCH_SMOKE: tiny sanity run, numbers are meaningless)");
    } else if fast_mode() {
        println!("(NCAP_BENCH_FAST: shortened measurement window)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_loads_cover_paper_points() {
        let a = sweep_loads(AppKind::Apache);
        for p in AppKind::Apache.paper_loads() {
            assert!(a.contains(&p), "missing apache paper load {p}");
        }
        let m = sweep_loads(AppKind::Memcached);
        for p in AppKind::Memcached.paper_loads() {
            assert!(m.contains(&p), "missing memcached paper load {p}");
        }
    }

    #[test]
    fn standard_config_uses_paper_setup() {
        let c = standard(AppKind::Apache, Policy::NcapCons, 24_000.0);
        assert_eq!(c.clients, 3);
        assert_eq!(c.burst_size, 200);
    }

    #[test]
    fn policy_table_renders_all_policies() {
        // Use a tiny run so the unit test stays fast.
        let cfg = ExperimentConfig::new(AppKind::Memcached, Policy::Perf, 30_000.0)
            .with_durations(SimDuration::from_ms(10), SimDuration::from_ms(30));
        let r = run_experiment(&cfg);
        let t = policy_table(std::slice::from_ref(&r), r.latency.p95.max(1));
        let text = t.to_string();
        assert!(text.contains("perf"));
        assert!(text.contains("ok"));
    }
}

#[cfg(test)]
mod dump_tests {
    use super::*;

    /// A directory no other test (or concurrent test binary) uses.
    fn unique_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ncap_bench_{tag}_{}", std::process::id()))
    }

    #[test]
    fn dump_writes_tsv() {
        let dir = unique_dir("dump_writes_tsv");
        dump_tsv_in(
            &dir,
            "unit_test",
            &["a", "b"],
            &[vec!["1".into(), "2".into()]],
        );
        let text = std::fs::read_to_string(dir.join("unit_test.tsv")).unwrap();
        assert_eq!(text, "a\tb\n1\t2\n");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn dump_creates_nested_dirs() {
        let root = unique_dir("dump_creates_nested_dirs");
        let dir = root.join("x").join("y");
        dump_tsv_in(&dir, "t", &["h"], &[]);
        assert_eq!(std::fs::read_to_string(dir.join("t.tsv")).unwrap(), "h\n");
        let _ = std::fs::remove_dir_all(root);
    }
}
