//! Fleet-subsystem validation: the L4 load balancer, its dispatch
//! policies, and the cluster-level power coordinator.
//!
//! The fleet layer threads through every crate — clients address the
//! VIP, the LB rewrites and forwards frames through the switch, backends
//! are full kernels, the coordinator spends transition energy through
//! `cpusim`, and the watchdog audits the LB's conntrack ledger — so its
//! guarantees are inherently cross-crate:
//!
//! * conservation: every request the LB opens is completed, rejected, or
//!   outstanding on exactly one backend (property-tested across fleet
//!   sizes, policies, and seeds);
//! * determinism: same seed → byte-identical results per dispatch
//!   policy — serial, parallel, or with the event tracer attached;
//! * the power story: with the coordinator on at low fleet load, packing
//!   concentrates work so idle backends park, spending strictly less
//!   energy than round-robin while admitted p99 stays within 2×;
//! * the failure story: backends that fail-stop or hang mid-run are
//!   ejected by the LB's health layer, their in-flight requests fail
//!   over to healthy machines through client retransmission, and
//!   goodput recovers — with the conservation ledger intact end to end;
//! * bounded state: the LB's conntrack and the backends' duplicate tables
//!   forget a request its client resolved from its only copy and retire
//!   a resent one after its linger, so at any instant they hold no more
//!   than the requests in flight plus those resent, not every request of
//!   the run.

use check::{ensure, Check};
use cluster::{
    run_experiment, run_experiments_on, AppKind, BackendState, ClusterSim, CoordinatorConfig,
    DispatchPolicy, ExperimentConfig, ExperimentResult, FailureMode, FailureSchedule, FailureSpec,
    FleetConfig, HealthConfig, OverloadConfig, Policy,
};
use desim::{SimDuration, SimTime, Simulation};

/// Memcached's single-server knee sits near 120 krps (§5); the fleet
/// capacity scales with the backend count.
const PER_BACKEND_RPS: f64 = 120_000.0;

/// Smooth Poisson arrivals: bursty clients drop whole 200-request
/// bursts at the horizon (in flight, never completed), which mostly
/// tests burst phasing rather than the LB.
fn fleet_cfg(backends: usize, dispatch: DispatchPolicy, load_rps: f64) -> ExperimentConfig {
    ExperimentConfig::new(AppKind::Memcached, Policy::OndIdle, load_rps)
        .with_durations(SimDuration::from_ms(10), SimDuration::from_ms(30))
        .with_poisson()
        .with_fleet(FleetConfig::new(backends, dispatch))
}

/// Bursty arrivals (the paper's default clients), for the tests where
/// queue buildup is the point.
fn fleet_cfg_bursty(backends: usize, dispatch: DispatchPolicy, load_rps: f64) -> ExperimentConfig {
    ExperimentConfig::new(AppKind::Memcached, Policy::OndIdle, load_rps)
        .with_durations(SimDuration::from_ms(10), SimDuration::from_ms(30))
        .with_fleet(FleetConfig::new(backends, dispatch))
}

/// A bit-exact digest of everything a fleet experiment reports.
fn fingerprint(r: &ExperimentResult) -> impl PartialEq + std::fmt::Debug {
    (
        r.latency.p50,
        r.latency.p95,
        r.latency.p99,
        r.completed,
        r.offered,
        r.energy_j.to_bits(),
        r.rejected,
        format!("{:?}", r.fleet),
    )
}

#[test]
fn every_policy_serves_through_the_lb() {
    for dispatch in DispatchPolicy::ALL {
        let r = run_experiment(&fleet_cfg(3, dispatch, 30_000.0));
        assert!(
            r.goodput() > 0.95,
            "{dispatch}: goodput {} too low",
            r.goodput()
        );
        let fleet = r.fleet.expect("fleet topology reports a summary");
        assert_eq!(fleet.dispatch, dispatch);
        assert!(fleet.requests_opened > 0);
        assert!(fleet.forwarded_frames > 0);
        // Conservation at the horizon: opened requests are completed,
        // rejected, or still outstanding; outstanding sits on backends.
        assert_eq!(
            fleet.requests_opened,
            fleet.requests_completed + fleet.requests_rejected + fleet.outstanding,
            "{dispatch}: {fleet:?}"
        );
        let assigned: u64 = fleet.backends.iter().map(|b| b.assigned).sum();
        assert_eq!(assigned, fleet.requests_opened, "{dispatch}: {fleet:?}");
        assert_eq!(fleet.unmatched_responses, 0);
        // The kernel counters count every backend: each completed request
        // ran at least one application job somewhere in the fleet.
        assert!(
            r.kernel_stats.app_jobs >= fleet.requests_completed,
            "{dispatch}: {} app jobs for {} completed requests",
            r.kernel_stats.app_jobs,
            fleet.requests_completed
        );
    }
}

#[test]
fn round_robin_spreads_least_outstanding_balances_packing_concentrates() {
    let rr = run_experiment(&fleet_cfg(4, DispatchPolicy::RoundRobin, 40_000.0))
        .fleet
        .expect("fleet summary");
    // Bursty arrivals for jsq: a 200-request burst overflows any single
    // backend's queue, so least-outstanding must fan out. (Under smooth
    // low load its tie-break legitimately favors backend 0.)
    let jsq = run_experiment(&fleet_cfg_bursty(
        4,
        DispatchPolicy::LeastOutstanding,
        40_000.0,
    ))
    .fleet
    .expect("fleet summary");
    let pack = run_experiment(&fleet_cfg(4, DispatchPolicy::Packing, 40_000.0))
        .fleet
        .expect("fleet summary");
    // rr: every backend within one request of the mean.
    let rr_assigned: Vec<u64> = rr.backends.iter().map(|b| b.assigned).collect();
    let (min, max) = (
        *rr_assigned.iter().min().expect("4 backends"),
        *rr_assigned.iter().max().expect("4 backends"),
    );
    assert!(max - min <= 1, "round-robin skewed: {rr_assigned:?}");
    // jsq: nothing pathological — every backend sees some share.
    assert!(
        jsq.backends.iter().all(|b| b.assigned > 0),
        "jsq starved a backend: {jsq:?}"
    );
    // pack: the first backend dominates (spill only past the threshold).
    let pack_assigned: Vec<u64> = pack.backends.iter().map(|b| b.assigned).collect();
    assert!(
        pack_assigned[0] > pack.requests_opened / 2,
        "packing did not concentrate: {pack_assigned:?}"
    );
}

#[test]
fn same_seed_is_byte_identical_serial_parallel_and_traced() {
    for dispatch in DispatchPolicy::ALL {
        let cfg = fleet_cfg(2, dispatch, 24_000.0);
        let a = run_experiment(&cfg);
        let b = run_experiment(&cfg);
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "{dispatch}: serial reruns diverged"
        );
        // The parallel runner executes the same pure function per config.
        let batch = run_experiments_on(&[cfg.clone(), cfg.clone()], 2);
        for r in &batch {
            assert_eq!(
                fingerprint(&a),
                fingerprint(r),
                "{dispatch}: parallel run diverged"
            );
        }
        // Event tracing observes without perturbing.
        let traced = run_experiment(&cfg.with_event_trace(simtrace::TracerConfig::default()));
        assert_eq!(
            fingerprint(&a),
            fingerprint(&traced),
            "{dispatch}: traced run diverged"
        );
        assert!(traced.sim_trace.is_some());
    }
}

#[test]
fn coordinated_fleet_is_deterministic_too() {
    let cfg = fleet_cfg(4, DispatchPolicy::Packing, 36_000.0).with_fleet(
        FleetConfig::new(4, DispatchPolicy::Packing)
            .with_coordinator(CoordinatorConfig::new(PER_BACKEND_RPS).with_util_target(0.5)),
    );
    let a = run_experiment(&cfg);
    let b = run_experiment(&cfg);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    let fleet = a.fleet.expect("fleet summary");
    assert!(fleet.parks > 0, "low load must park backends: {fleet:?}");
}

/// Every issued request lands on exactly one backend, whatever the
/// fleet size, dispatch policy, or seed — and the watchdog (armed by
/// default in `WatchdogMode::Fail`) double-checks the LB ledger on
/// every period, so a violation would panic the run.
#[test]
fn prop_requests_dispatch_to_exactly_one_backend() {
    Check::new("fleet_exactly_one_backend").cases(8).run(
        |rng, size| {
            let backends = 1 + (rng.next_u64() as usize) % 5;
            let dispatch = DispatchPolicy::ALL[(rng.next_u64() as usize) % 3];
            let load = 10_000.0 + (size as f64) * 400.0;
            let seed = rng.next_u64();
            (backends, dispatch, load, seed)
        },
        |&(backends, dispatch, load, seed)| {
            let r = run_experiment(&fleet_cfg(backends, dispatch, load).with_seed(seed));
            let fleet = r.fleet.expect("fleet summary");
            let assigned: u64 = fleet.backends.iter().map(|b| b.assigned).sum();
            ensure!(
                assigned == fleet.requests_opened,
                "assigned {assigned} != opened {} ({backends} backends, {dispatch}): {fleet:?}",
                fleet.requests_opened
            );
            ensure!(
                fleet.requests_opened
                    == fleet.requests_completed + fleet.requests_rejected + fleet.outstanding,
                "conservation broke: {fleet:?}"
            );
            ensure!(
                fleet.unmatched_responses == 0,
                "unmatched responses: {fleet:?}"
            );
            Ok(())
        },
    );
}

/// The acceptance scenario: a 4-backend fleet at ~0.15× capacity with
/// the coordinator on. Packing concentrates load so parked backends
/// sleep deep; round-robin keeps every active backend warm. Packing
/// must win on energy outright while admitted p99 stays within 2×.
#[test]
fn packing_beats_round_robin_on_energy_at_low_load() {
    let coordinated =
        |dispatch| {
            ExperimentConfig::new(AppKind::Memcached, Policy::OndIdle, 72_000.0)
                .with_durations(SimDuration::from_ms(40), SimDuration::from_ms(60))
                .with_poisson()
                .with_fleet(FleetConfig::new(4, dispatch).with_coordinator(
                    CoordinatorConfig::new(PER_BACKEND_RPS).with_util_target(0.5),
                ))
        };
    let rr = run_experiment(&coordinated(DispatchPolicy::RoundRobin));
    let pack = run_experiment(&coordinated(DispatchPolicy::Packing));
    assert!(rr.goodput() > 0.95, "rr goodput {}", rr.goodput());
    assert!(pack.goodput() > 0.95, "pack goodput {}", pack.goodput());
    assert!(
        pack.energy_j < rr.energy_j,
        "packing must beat round-robin on fleet energy: pack {} J vs rr {} J",
        pack.energy_j,
        rr.energy_j
    );
    assert!(
        (pack.latency.p99 as f64) <= 2.0 * (rr.latency.p99 as f64),
        "packing p99 {} exceeds 2x round-robin p99 {}",
        pack.latency.p99,
        rr.latency.p99
    );
}

// ---------------------------------------------------------------------------
// Backend failure injection and failover recovery
// ---------------------------------------------------------------------------

/// A fail-stop spec with no restart: the backend crashes at `at` and
/// stays dead to the horizon.
fn crash(backend: usize, at_ms: u64) -> FailureSpec {
    FailureSpec {
        backend,
        at: SimTime::from_ms(at_ms),
        mode: FailureMode::Stop,
        restart_after: None,
    }
}

/// The failover acceptance scenario: two of 64 backends fail-stop
/// mid-run under least-outstanding dispatch with the coordinator on.
/// The coordinator keeps the active set a prefix (it parks highest
/// index first), so backends 0 and 1 are guaranteed to be carrying
/// live work when they die. Every issued request must still resolve
/// (conservation exact, zero silent losses), the prober must eject
/// both corpses, and goodput must recover to within 5% of the
/// fault-free run. The watchdog runs in its default `Fail` mode
/// throughout, so a single dispatch to a dead backend or a ledger
/// imbalance panics the run rather than failing an assertion.
#[test]
fn crashing_two_of_sixty_four_backends_recovers_goodput() {
    let cfg = |faults: FailureSchedule| {
        ExperimentConfig::new(AppKind::Memcached, Policy::NcapCons, 120_000.0)
            .with_durations(SimDuration::from_ms(5), SimDuration::from_ms(40))
            .with_poisson()
            .with_fleet(
                FleetConfig::new(64, DispatchPolicy::LeastOutstanding)
                    .with_coordinator(CoordinatorConfig::new(PER_BACKEND_RPS).with_util_target(0.5))
                    .with_faults(faults),
            )
    };
    let healthy = run_experiment(&cfg(FailureSchedule::none()));
    let wounded = run_experiment(&cfg(FailureSchedule::none()
        .with_failure(crash(0, 15))
        .with_failure(crash(1, 15))));
    assert!(
        wounded.invariant_violations.is_empty(),
        "watchdog violations: {:?}",
        wounded.invariant_violations
    );
    let fleet = wounded.fleet.as_ref().expect("fleet summary");
    // Both corpses were detected by failed probes and taken out of
    // rotation; they stay `Failed` to the horizon (no restart).
    assert!(fleet.health_probes > 0, "prober never ran: {fleet:?}");
    assert!(
        fleet.probe_failures > 0,
        "crash must fail probes: {fleet:?}"
    );
    assert!(fleet.ejections >= 2, "both corpses must eject: {fleet:?}");
    assert_eq!(fleet.backends[0].state, BackendState::Failed);
    assert_eq!(fleet.backends[1].state, BackendState::Failed);
    // Requests orphaned by the crash re-pinned to healthy backends.
    assert!(fleet.failovers > 0, "no failovers recorded: {fleet:?}");
    // The failed-over limbo drains through retransmission well before
    // the horizon, so the plain conservation identity holds again —
    // with every re-pin visible as an extra backend assignment.
    assert_eq!(
        fleet.requests_opened,
        fleet.requests_completed + fleet.requests_rejected + fleet.outstanding,
        "conservation broke: {fleet:?}"
    );
    let assigned: u64 = fleet.backends.iter().map(|b| b.assigned).sum();
    assert_eq!(
        assigned,
        fleet.requests_opened + fleet.failovers,
        "assignment ledger broke: {fleet:?}"
    );
    assert_eq!(fleet.unmatched_responses, 0, "routing leak: {fleet:?}");
    // Zero silent losses at the client: everything issued is completed,
    // rejected, or accounted in flight — nothing exhausted its retries.
    let f = &wounded.faults;
    assert_eq!(f.lost_requests, 0, "silent losses: {f:?}");
    assert_eq!(
        f.issued_total,
        f.completed_total + f.rejected_total + f.in_flight,
        "client accounting identity broke: {f:?}"
    );
    // Goodput dips while the corpses absorb requests, then recovers as
    // ejection redirects new work and retransmission rescues old work.
    assert!(
        wounded.goodput() >= 0.95 * healthy.goodput(),
        "goodput did not recover: wounded {} vs healthy {}",
        wounded.goodput(),
        healthy.goodput()
    );
}

/// The prober observes; it must not perturb. On a fault-free fleet an
/// explicitly armed prober adds its own probe events to the queue but
/// leaves every client-visible result bit-identical to the prober-off
/// run — the configuration whose wall-time cost the `overhead` bench
/// holds to its 5% budget.
#[test]
fn armed_prober_on_a_healthy_fleet_changes_no_result() {
    let cfg = |fleet: FleetConfig| {
        ExperimentConfig::new(AppKind::Memcached, Policy::NcapCons, 480_000.0)
            .with_durations(SimDuration::from_ms(2), SimDuration::from_ms(5))
            .with_poisson()
            .with_fleet(fleet)
    };
    let fleet = || {
        FleetConfig::new(8, DispatchPolicy::LeastOutstanding)
            .with_coordinator(CoordinatorConfig::new(PER_BACKEND_RPS).with_util_target(0.5))
    };
    let off = run_experiment(&cfg(fleet()));
    let armed = run_experiment(&cfg(fleet().with_health(HealthConfig::standard())));
    assert!(off.completed > 0, "nothing completed");
    assert_eq!(off.completed, armed.completed, "prober changed completions");
    assert_eq!(
        off.latency, armed.latency,
        "prober moved the latency summary"
    );
    assert_eq!(
        off.energy_j.to_bits(),
        armed.energy_j.to_bits(),
        "prober changed energy"
    );
    let probes = armed.fleet.as_ref().expect("fleet summary").health_probes;
    assert!(probes > 0, "armed prober never probed");
    assert!(
        armed.events_processed > off.events_processed,
        "probes added no events: {} vs {}",
        armed.events_processed,
        off.events_processed
    );
}

/// A hung backend keeps accepting frames and answering probes — the
/// classic L4 health-check blind spot — so active probing never sees a
/// failure. Detection must come from the passive path: consecutive
/// client retransmission timeouts against the backend eject it.
#[test]
fn hang_is_detected_by_passive_ejection_not_probes() {
    let cfg = ExperimentConfig::new(AppKind::Memcached, Policy::OndIdle, 40_000.0)
        .with_durations(SimDuration::from_ms(5), SimDuration::from_ms(35))
        .with_poisson()
        .with_fleet(FleetConfig::new(4, DispatchPolicy::RoundRobin).with_faults(
            FailureSchedule::none().with_failure(FailureSpec {
                backend: 2,
                at: SimTime::from_ms(10),
                mode: FailureMode::Hang,
                restart_after: None,
            }),
        ));
    let r = run_experiment(&cfg);
    let fleet = r.fleet.as_ref().expect("fleet summary");
    assert!(fleet.health_probes > 0, "prober never ran: {fleet:?}");
    // Probes cannot see a hang: every recorded probe succeeded.
    assert_eq!(
        fleet.probe_failures, 0,
        "a hang must be invisible to active probes: {fleet:?}"
    );
    // Yet the backend was ejected — via the passive timeout path.
    assert!(
        fleet.ejections >= 1,
        "passive ejection must catch the hang: {fleet:?}"
    );
    // Requests stuck on the hung machine failed over and completed.
    assert!(fleet.failovers > 0, "no failovers recorded: {fleet:?}");
    assert_eq!(r.faults.lost_requests, 0, "silent losses: {:?}", r.faults);
    assert_eq!(
        fleet.requests_opened,
        fleet.requests_completed + fleet.requests_rejected + fleet.outstanding,
        "conservation broke: {fleet:?}"
    );
}

/// Failure injection is part of the byte-identity contract: the same
/// seed with the same failure schedule (a crash *with restart*, the
/// most stateful path — ejection, limbo, re-pin, probe-driven rejoin)
/// is identical serially, across the parallel runner, and under the
/// event tracer.
#[test]
fn failover_runs_are_byte_identical_serial_parallel_and_traced() {
    let faults = FailureSchedule::none().with_failure(FailureSpec {
        backend: 1,
        at: SimTime::from_ms(10),
        mode: FailureMode::Stop,
        restart_after: Some(SimDuration::from_ms(10)),
    });
    let cfg = fleet_cfg(4, DispatchPolicy::LeastOutstanding, 40_000.0)
        .with_fleet(FleetConfig::new(4, DispatchPolicy::LeastOutstanding).with_faults(faults));
    let a = run_experiment(&cfg);
    let fleet = a.fleet.as_ref().expect("fleet summary");
    assert!(fleet.ejections >= 1, "crash must eject: {fleet:?}");
    assert!(
        fleet.rejoins >= 1,
        "restarted backend must rejoin rotation: {fleet:?}"
    );
    let b = run_experiment(&cfg);
    assert_eq!(fingerprint(&a), fingerprint(&b), "serial reruns diverged");
    let batch = run_experiments_on(&[cfg.clone(), cfg.clone()], 2);
    for r in &batch {
        assert_eq!(fingerprint(&a), fingerprint(r), "parallel run diverged");
    }
    let traced = run_experiment(&cfg.with_event_trace(simtrace::TracerConfig::default()));
    assert_eq!(fingerprint(&a), fingerprint(&traced), "traced run diverged");
    assert!(traced.sim_trace.is_some());
}

/// Regression for the 503 path through the LB conntrack: a rejection
/// closes the connection (un-pins it) exactly like a completion, so
/// the ledger balances with rejects present and the watchdog — in its
/// default `Fail` mode, auditing every period — stays quiet. Bursty
/// clients against a two-backend fleet with tight admission caps force
/// genuine rejections through the full LB round trip.
#[test]
fn rejected_requests_unpin_and_the_ledger_balances() {
    let cfg = ExperimentConfig::new(AppKind::Memcached, Policy::OndIdle, 300_000.0)
        .with_durations(SimDuration::from_ms(5), SimDuration::from_ms(25))
        .with_overload(OverloadConfig::server_defaults().with_run_queue_cap(48))
        .with_fleet(FleetConfig::new(2, DispatchPolicy::LeastOutstanding));
    let r = run_experiment(&cfg);
    let fleet = r.fleet.as_ref().expect("fleet summary");
    assert!(
        fleet.requests_rejected > 0,
        "overload must produce LB-visible 503s: {fleet:?}"
    );
    assert_eq!(
        fleet.requests_opened,
        fleet.requests_completed + fleet.requests_rejected + fleet.outstanding,
        "conservation broke with rejects: {fleet:?}"
    );
    let assigned: u64 = fleet.backends.iter().map(|b| b.assigned).sum();
    assert_eq!(assigned, fleet.requests_opened, "{fleet:?}");
    assert_eq!(fleet.unmatched_responses, 0, "routing leak: {fleet:?}");
    assert!(r.invariant_violations.is_empty());
}

/// An armed 16-backend failover run (two fail-stops that restart) for two
/// simulated seconds. A request resolved from its only copy is forgotten
/// at once, so at `horizon − (linger + 50 ms)` and at the horizon each
/// request-keyed table, and each TIME_WAIT queue, holds at most the
/// requests still in flight plus those resent. Before that, each held
/// every request of the last linger, and before entries retired at all,
/// every request of the run. The kernels' replay records, which live only
/// until the client resolves their request, number no more than the
/// client's in-flight entries.
#[test]
fn request_keyed_state_is_bounded_by_requests_in_flight_or_resent() {
    let warmup = SimDuration::from_ms(100);
    let measure = SimDuration::from_ms(1_900);
    let start = SimTime::ZERO + warmup;
    let stops = FailureSchedule::seeded_stops(
        1,
        16,
        2,
        start + measure / 4,
        start + measure / 2,
        Some(measure / 4),
    );
    let cfg = ExperimentConfig::new(AppKind::Memcached, Policy::NcapCons, 16_000.0)
        .with_durations(warmup, measure)
        .with_poisson()
        .with_fleet(FleetConfig::new(16, DispatchPolicy::LeastOutstanding).with_faults(stops));
    let (cluster, initial) = cluster::build_cluster(&cfg).expect("valid config");
    // The failure schedule arms the standard retransmission policy; the
    // fabric is unimpaired, so the linger is the give-up span alone.
    assert_eq!(cluster.linger(), SimDuration::from_ms(275));
    let horizon = SimTime::ZERO + cfg.horizon();
    let window = cluster.linger() + SimDuration::from_ms(50);
    let mut sim = Simulation::new(cluster);
    for (t, e) in initial {
        sim.queue_mut().push(t, e);
    }
    let check = |c: &ClusterSim, at: &str| {
        let f = c.fault_summary();
        let bound = c.inflight_requests() as u64 + f.retransmits;
        assert!(
            bound * 100 < f.issued_total,
            "at {at}, the bound must be a small share of the run: {bound} of {}",
            f.issued_total
        );
        for (table, live) in [
            ("LB conntrack", c.conntrack_entries()),
            ("LB TIME_WAIT", c.conntrack_time_wait()),
            ("summed kernel dedup", c.dedup_entries()),
            ("summed kernel TIME_WAIT", c.dedup_time_wait()),
        ] {
            assert!(
                live as u64 <= bound,
                "at {at}, {table}: {live} live entries, but only {} requests are in \
                 flight and {} were resent",
                c.inflight_requests(),
                f.retransmits
            );
        }
        assert!(
            c.replay_records() <= c.inflight_requests(),
            "at {at}, {} replay records outlive their requests ({} in flight, {} duplicate \
             entries)",
            c.replay_records(),
            c.inflight_requests(),
            c.dedup_entries()
        );
    };
    sim.run_until(horizon - window);
    check(sim.handler(), "horizon - window");
    sim.run_until(horizon);
    let now = sim.now();
    sim.handler_mut().finalize(now);
    let c = sim.handler();
    check(c, "the horizon");
    let fleet = c.fleet_summary().expect("fleet summary");
    assert!(fleet.failovers > 0, "the crashes exercised failover");
    let wd = c.watchdog().expect("the runner installs a watchdog");
    assert!(wd.violations().is_empty(), "{:?}", wd.violations());
}
