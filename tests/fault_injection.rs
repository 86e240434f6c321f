//! Fault-injection validation: graceful degradation under impairment.
//!
//! The fault subsystem threads through every layer — switch impairments,
//! NIC ring overflow, kernel duplicate suppression, cluster
//! retransmission timers — so its guarantees are inherently cross-crate:
//!
//! * determinism: same seed → byte-identical results, lossy or not,
//!   serial or under the parallel runner;
//! * conservation: every issued request completes, is reported lost, or
//!   is still in flight at the horizon — nothing vanishes silently;
//! * recovery: moderate loss and RX-ring overflow are repaired by
//!   retransmission with zero lost requests;
//! * observability: every injected fault and recovery action shows up in
//!   the trace counters, and the exported totals match the result.

use check::{ensure, Check};
use cluster::{
    run_experiment, run_experiments_on, AppKind, ExperimentConfig, FaultConfig, FaultSummary,
    Policy, RetxConfig,
};
use desim::SimDuration;

fn quick(policy: Policy, load: f64) -> ExperimentConfig {
    ExperimentConfig::new(AppKind::Memcached, policy, load)
        .with_durations(SimDuration::from_ms(10), SimDuration::from_ms(40))
}

/// `issued == completed + lost + in_flight`: the reliability layer never
/// loses track of a request.
fn assert_conservation(f: &FaultSummary) {
    assert_eq!(
        f.issued_total,
        f.completed_total + f.lost_requests + f.in_flight,
        "accounting identity violated: {f:?}"
    );
}

#[test]
fn faultless_runs_report_zero_fault_activity() {
    let r = run_experiment(&quick(Policy::Perf, 30_000.0));
    let f = &r.faults;
    // No injected faults, retransmits, losses, suppressions, replays or
    // rejections: only the request ledger's counters move.
    assert_eq!(
        *f,
        FaultSummary {
            issued_total: f.issued_total,
            completed_total: f.completed_total,
            in_flight: f.in_flight,
            ..FaultSummary::default()
        }
    );
    assert!(f.issued_total > 0, "{f:?}");
    assert_conservation(f);
    assert_eq!(r.rx_drops, 0);
}

#[test]
fn lossy_runs_are_deterministic_and_parallel_safe() {
    let cfg = quick(Policy::NcapCons, 30_000.0).with_faults(FaultConfig::lossy(0.01, 0xD15C));
    let a = run_experiment(&cfg);
    let b = run_experiment(&cfg);
    assert!(a.faults.injected_losses > 0, "faults must actually fire");
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.latency.p50, b.latency.p50);
    assert_eq!(a.latency.p95, b.latency.p95);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
    // The parallel runner reproduces the serial results bit-for-bit.
    let batch = run_experiments_on(&[cfg.clone(), cfg], 2);
    for r in &batch {
        assert_eq!(r.faults, a.faults);
        assert_eq!(r.latency.p95, a.latency.p95);
        assert_eq!(r.energy_j.to_bits(), a.energy_j.to_bits());
    }
}

#[test]
fn one_percent_loss_loses_no_requests() {
    let cfg = quick(Policy::NcapCons, 30_000.0).with_faults(FaultConfig::lossy(0.01, 7));
    let r = run_experiment(&cfg);
    let f = &r.faults;
    assert_conservation(f);
    assert!(f.injected_losses > 0, "losses must fire: {f:?}");
    assert!(f.retransmits > 0, "drops must trigger retransmits: {f:?}");
    assert_eq!(f.lost_requests, 0, "1% loss must be fully recovered: {f:?}");
    // Everything not still in flight at the horizon completed.
    assert_eq!(f.completed_total, f.issued_total - f.in_flight);
    assert!(
        f.in_flight < f.issued_total / 20,
        "only a tail of requests may be awaiting retransmission: {f:?}"
    );
}

/// Property: across loss rates in [0, 0.05], the accounting identity
/// holds and recovery keeps goodput high. Cases are few — each one is a
/// full cluster experiment.
#[test]
fn loss_sweep_conserves_requests() {
    Check::new("fault_loss_sweep_conservation").cases(5).run(
        |rng, size| {
            let loss = 0.05 * (size as f64 / 100.0) * rng.next_f64();
            let seed = rng.next_u64();
            (loss, seed)
        },
        |&(loss, seed)| {
            let cfg = ExperimentConfig::new(AppKind::Memcached, Policy::Perf, 20_000.0)
                .with_durations(SimDuration::from_ms(5), SimDuration::from_ms(20))
                .with_faults(FaultConfig::lossy(loss, seed));
            let r = run_experiment(&cfg);
            let f = &r.faults;
            ensure!(
                f.issued_total == f.completed_total + f.lost_requests + f.in_flight,
                "loss {loss}: identity violated: {f:?}"
            );
            ensure!(
                f.completed_total + f.in_flight >= f.issued_total * 99 / 100,
                "loss {loss}: more than 1% of requests lost outright: {f:?}"
            );
            Ok(())
        },
    );
}

#[test]
fn rx_ring_overflow_recovers_via_retransmission() {
    // A shallow RX ring cannot absorb a 200-request burst: the NIC raises
    // RXO, frames drop, and the client-side RTO timers repair the damage.
    // The fabric itself is lossless here — every drop is the NIC's.
    let cfg = quick(Policy::Perf, 30_000.0)
        .with_rx_ring(48)
        .with_faults(FaultConfig::none().with_retx(RetxConfig::standard()));
    let r = run_experiment(&cfg);
    let f = &r.faults;
    assert!(r.rx_drops > 0, "the shallow ring must overflow: {f:?}");
    assert_eq!(f.injected_losses + f.injected_corruptions, 0);
    assert!(f.retransmits > 0, "drops must trigger retransmits: {f:?}");
    assert_conservation(f);
    assert_eq!(
        f.lost_requests, 0,
        "retransmission must recover every overflow drop: {f:?}"
    );
    assert!(
        f.completed_total >= f.issued_total - f.in_flight,
        "recovered goodput: {f:?}"
    );
}

#[test]
fn rx_ring_overflow_without_retransmission_stays_in_flight() {
    // The same shallow ring with nothing armed to repair the drops: every
    // dropped request stays in the ledger as in flight, never vanishing.
    let r = run_experiment(&quick(Policy::Perf, 30_000.0).with_rx_ring(48));
    let f = &r.faults;
    assert!(r.rx_drops > 0, "the shallow ring must overflow: {f:?}");
    assert_eq!(f.retransmits + f.lost_requests, 0, "{f:?}");
    assert_conservation(f);
    assert!(
        f.in_flight >= r.rx_drops,
        "every dropped request stays in flight: {f:?}"
    );
}

#[test]
fn ncap_degrades_gracefully_under_loss() {
    let clean = run_experiment(&quick(Policy::NcapCons, 30_000.0));
    let lossy =
        run_experiment(&quick(Policy::NcapCons, 30_000.0).with_faults(FaultConfig::lossy(0.01, 3)));
    let f = &lossy.faults;
    assert_conservation(f);
    assert_eq!(f.lost_requests, 0, "{f:?}");
    // The server saw retransmitted duplicates and handled them without
    // serving the request twice: suppressed while in flight, or answered
    // from the replay path once done.
    assert!(
        f.dup_suppressed + f.resp_replays > 0,
        "duplicates must reach the reliability layer: {f:?}"
    );
    // NCAP's proactive wakes do not blow up on retransmitted duplicates:
    // the handful of extra frames may add a few markers, not multiply them.
    assert!(
        lossy.wake_markers <= clean.wake_markers * 2 + 10,
        "wake markers {} vs clean {}",
        lossy.wake_markers,
        clean.wake_markers
    );
    // Latency and energy degrade smoothly, not catastrophically. A lost
    // frame costs its victim one RTO (5 ms), which drags the p99 tail but
    // must leave the median and the energy envelope intact.
    assert!(
        lossy.latency.p50 <= clean.latency.p50 * 2,
        "p50 {} vs clean {}",
        lossy.latency.p50,
        clean.latency.p50
    );
    assert!(
        lossy.energy_j <= clean.energy_j * 1.5,
        "energy {} vs clean {}",
        lossy.energy_j,
        clean.energy_j
    );
}

#[test]
fn trace_counters_match_injected_faults_exactly() {
    let cfg = quick(Policy::NcapCons, 30_000.0)
        .with_faults(FaultConfig::lossy(0.01, 11))
        .with_rx_ring(48)
        .with_event_trace(simtrace::TracerConfig::default());
    let r = run_experiment(&cfg);
    let f = &r.faults;
    assert!(f.injected_losses > 0 && f.retransmits > 0, "{f:?}");
    let data = r.sim_trace.as_ref().expect("event trace was enabled");
    let counter =
        |component: &str, name: &str| data.metrics.get(component, name).map_or(0.0, |m| m.value);
    assert_eq!(counter("net", "fault_losses") as u64, f.injected_losses);
    assert_eq!(
        counter("net", "fault_corruptions") as u64,
        f.injected_corruptions
    );
    assert_eq!(counter("cluster", "retransmits") as u64, f.retransmits);
    assert_eq!(counter("cluster", "lost_requests") as u64, f.lost_requests);
    assert_eq!(counter("nic", "rx_drops") as u64, r.rx_drops);
    // The CSV export always has the drop columns, faults or not.
    let horizon_ns = cfg.horizon().as_nanos();
    let csv = data.to_csv(horizon_ns);
    let header = csv.lines().next().expect("csv has a header");
    for col in [
        "nic.rx_drops",
        "net.fault_losses",
        "net.fault_corruptions",
        "cluster.retransmits",
        "cluster.lost_requests",
    ] {
        assert!(header.contains(col), "missing column {col} in {header}");
    }
}

/// Every completed measured request enters the latency breakdown exactly
/// once — even when a retransmitted copy reaches the server after the
/// application finished and the response is replayed.
#[test]
fn lossy_runs_break_down_each_completed_request_once() {
    let mut faults = FaultConfig::none().with_retx(RetxConfig::standard());
    faults.loss = 0.02;
    let cfg = ExperimentConfig::new(AppKind::Apache, Policy::NcapCons, 24_000.0)
        .with_durations(SimDuration::from_ms(5), SimDuration::from_ms(40))
        .with_drain(SimDuration::from_ms(20))
        .with_faults(faults);
    let r = run_experiment(&cfg);
    assert!(
        r.kernel_stats.resp_replays > 0,
        "the run must replay responses"
    );
    let b = r.breakdown.as_ref().expect("breakdown is on by default");
    assert!(r.completed > 0);
    assert_eq!(b.count, r.completed);
}

#[test]
fn jitter_and_reorder_disturb_but_deliver() {
    let mut faults = FaultConfig::none()
        .with_jitter(SimDuration::from_us(20))
        .with_retx(RetxConfig::standard());
    faults.reorder = 0.02;
    faults.reorder_delay = SimDuration::from_us(100);
    let r = run_experiment(&quick(Policy::Perf, 30_000.0).with_faults(faults));
    let f = &r.faults;
    assert_conservation(f);
    assert_eq!(f.injected_losses, 0);
    assert!(f.injected_reorders > 0, "{f:?}");
    assert_eq!(
        f.lost_requests, 0,
        "jitter and reordering never lose frames: {f:?}"
    );
    assert!(r.goodput() > 0.9, "goodput {}", r.goodput());
}
