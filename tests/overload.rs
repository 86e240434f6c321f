//! Overload-protection validation: bounded queues, graceful rejection,
//! and the runtime invariant watchdog.
//!
//! Admission control threads through every layer — clients stamp
//! deadlines, the kernel bounds its run queue and sheds with a 503-style
//! response, the cluster accounts rejections separately from losses, and
//! the watchdog audits liveness/conservation/boundedness as the
//! simulation runs — so its guarantees are inherently cross-crate:
//!
//! * accounting: `issued == completed + lost + rejected + in_flight`
//!   even at 3× capacity — nothing vanishes silently;
//! * bounded latency: requests that ARE admitted see bounded queueing,
//!   so admitted p99 under 3× load stays within 10× of the uncongested
//!   p99 instead of growing with the offered load;
//! * bounded memory: the run queue never exceeds the configured bound;
//! * determinism: same seed → byte-identical results, overloaded or
//!   not, serial, parallel, or with the event tracer attached;
//! * fail-fast: a broken configuration (zero caps, shedding disabled)
//!   surfaces as a structured [`cluster::InvariantViolation`], not a
//!   hang or a panic.

use cluster::{
    run_experiment, run_experiments_on, try_run_experiment, AppKind, ExperimentConfig,
    ExperimentResult, FaultConfig, InvariantKind, OverloadConfig, Policy, RetxConfig, ShedPolicy,
    WatchdogConfig,
};
use desim::SimDuration;

/// Memcached's perf-policy knee sits near 127 krps (§5); treat 120 krps
/// as nominal capacity so 3× is far past saturation.
const NOMINAL_RPS: f64 = 120_000.0;

/// An overloaded run: default server caps, drop-tail shedding, and the
/// reliability layer armed (losslessly) so the conservation identity is
/// tracked end to end.
fn overloaded(multiple: f64) -> ExperimentConfig {
    ExperimentConfig::new(AppKind::Memcached, Policy::Perf, NOMINAL_RPS * multiple)
        .with_durations(SimDuration::from_ms(10), SimDuration::from_ms(30))
        .with_faults(FaultConfig::none().with_retx(RetxConfig::standard()))
        .with_overload(OverloadConfig::server_defaults())
}

/// `issued == completed + lost + rejected + in_flight`.
fn assert_conservation(r: &ExperimentResult) {
    let f = &r.faults;
    assert_eq!(
        f.issued_total,
        f.completed_total + f.lost_requests + f.rejected_total + f.in_flight,
        "accounting identity violated: {f:?}"
    );
}

#[test]
fn overload_at_3x_sheds_but_never_loses_accounting() {
    let r = run_experiment(&overloaded(3.0));
    assert!(r.rejected > 0, "3x load must trigger admission control");
    assert!(r.completed > 0, "admitted requests must still complete");
    assert_eq!(r.rejected, r.faults.rejected_total);
    assert_conservation(&r);
    // The watchdog audited the whole run and found nothing.
    assert!(r.watchdog_checks > 0);
    assert!(
        r.invariant_violations.is_empty(),
        "{:?}",
        r.invariant_violations
    );
}

#[test]
fn run_queue_depth_never_exceeds_the_configured_bound() {
    let cfg = overloaded(3.0);
    let bound = cfg
        .overload
        .queue_bound(1)
        .expect("server defaults bound every queue");
    let r = run_experiment(&cfg);
    assert!(r.rejected > 0, "the bound must actually be exercised");
    assert!(
        r.max_queue_depth <= bound,
        "max depth {} exceeds bound {bound}",
        r.max_queue_depth
    );
}

#[test]
fn admitted_p99_stays_bounded_under_overload() {
    let light = run_experiment(&overloaded(0.5));
    let heavy = run_experiment(&overloaded(3.0));
    assert_eq!(light.rejected, 0, "half load must not shed");
    assert!(heavy.rejected > 0);
    assert!(
        heavy.latency.p99 < light.latency.p99.saturating_mul(10),
        "admitted p99 {} must stay within 10x of the uncongested p99 {}",
        heavy.latency.p99,
        light.latency.p99
    );
}

#[test]
fn overloaded_runs_are_deterministic_and_parallel_safe() {
    let cfg = overloaded(3.0);
    let a = run_experiment(&cfg);
    let b = run_experiment(&cfg);
    assert!(a.rejected > 0);
    assert_eq!(a.rejected, b.rejected);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.latency.p99, b.latency.p99);
    assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
    // The parallel runner reproduces the serial results bit-for-bit.
    for r in &run_experiments_on(&[cfg.clone(), cfg.clone()], 2) {
        assert_eq!(r.rejected, a.rejected);
        assert_eq!(r.completed, a.completed);
        assert_eq!(r.latency.p99, a.latency.p99);
        assert_eq!(r.energy_j.to_bits(), a.energy_j.to_bits());
    }
    // Attaching the event tracer observes without perturbing.
    let traced = run_experiment(&cfg.with_event_trace(simtrace::TracerConfig::default()));
    assert_eq!(traced.rejected, a.rejected);
    assert_eq!(traced.completed, a.completed);
    assert_eq!(traced.latency.p99, a.latency.p99);
    assert_eq!(traced.energy_j.to_bits(), a.energy_j.to_bits());
}

#[test]
fn goodput_is_tracked_separately_from_throughput() {
    let r = run_experiment(&overloaded(3.0));
    // Rejections resolve quickly and are accounted apart from useful
    // work: goodput (completed / offered) must reflect only the latter.
    let f = &r.faults;
    assert!(f.rejected_total > 0);
    assert!(
        f.completed_total + f.rejected_total <= f.issued_total,
        "served split must not exceed what was issued: {f:?}"
    );
    assert!(r.goodput() < 1.0, "3x load cannot achieve full goodput");
}

#[test]
fn rejection_resolves_clients_even_with_reliability_off() {
    // No fault subsystem at all: a 503 must still resolve the request at
    // the client (no latency sample, counted as rejected) instead of
    // leaving it outstanding forever.
    let cfg = ExperimentConfig::new(AppKind::Memcached, Policy::Perf, NOMINAL_RPS * 3.0)
        .with_durations(SimDuration::from_ms(10), SimDuration::from_ms(30))
        .with_overload(OverloadConfig::server_defaults());
    let r = run_experiment(&cfg);
    assert!(r.rejected > 0, "3x load must shed with reliability off too");
    assert_eq!(
        r.rejected, r.faults.rejected_total,
        "client-side and server-side rejection counts must agree"
    );
    assert_conservation(&r);
    assert!(r.invariant_violations.is_empty());
}

#[test]
fn watchdog_runs_and_passes_on_an_unremarkable_run() {
    // No overload flags at all: the watchdog still audits every run.
    let cfg = ExperimentConfig::new(AppKind::Memcached, Policy::NcapCons, 30_000.0)
        .with_durations(SimDuration::from_ms(10), SimDuration::from_ms(30));
    let r = run_experiment(&cfg);
    assert!(r.watchdog_checks > 0, "watchdog must check at least once");
    assert!(r.invariant_violations.is_empty());
    assert_eq!(r.rejected, 0);
}

#[test]
fn broken_config_is_caught_as_a_structured_violation_not_a_hang() {
    // Zero capacity everywhere with shedding disabled: the queues are
    // nominally bounded but nothing enforces the bound. The watchdog
    // (in collecting mode) must report Boundedness violations while the
    // run itself completes normally.
    let ov = OverloadConfig {
        run_queue_cap: Some(0),
        rx_backlog_cap: Some(0),
        tx_backlog_cap: Some(0),
        ..OverloadConfig::off()
    };
    assert_eq!(ov.policy, ShedPolicy::None);
    let cfg = ExperimentConfig::new(AppKind::Memcached, Policy::Perf, NOMINAL_RPS)
        .with_durations(SimDuration::from_ms(5), SimDuration::from_ms(20))
        .with_overload(ov)
        .with_watchdog(WatchdogConfig::default().collecting());
    let r = try_run_experiment(&cfg).expect("a broken overload config still validates");
    assert!(r.watchdog_checks > 0);
    assert!(
        r.invariant_violations
            .iter()
            .any(|v| v.kind == InvariantKind::Boundedness),
        "expected a Boundedness violation, got {:?}",
        r.invariant_violations
    );
    assert_eq!(r.rejected, 0, "shedding is off, nothing may be rejected");
}
