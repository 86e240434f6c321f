//! Cross-crate integration tests: whole-cluster behaviour.
//!
//! These span `desim` → `netsim` → `nicsim`/`ncap` → `oskernel` →
//! `oldi-apps` → `cluster`, checking emergent properties the unit tests
//! cannot see: end-to-end request round trips, policy orderings, NCAP's
//! proactive behaviour, and accounting conservation.

use cluster::{run_experiment, AppKind, BackgroundTraffic, ExperimentConfig, Policy};
use desim::SimDuration;

mod common;

fn quick(app: AppKind, policy: Policy, load: f64) -> ExperimentConfig {
    ExperimentConfig::new(app, policy, load)
        .with_durations(SimDuration::from_ms(30), SimDuration::from_ms(80))
}

#[test]
fn requests_round_trip_under_every_policy() {
    for policy in Policy::ALL {
        let r = run_experiment(&quick(AppKind::Memcached, policy, 30_000.0));
        assert!(
            r.goodput() > 0.9,
            "{policy}: goodput {} (completed {}/{})",
            r.goodput(),
            r.completed,
            r.offered
        );
        assert_eq!(r.rx_drops, 0, "{policy}: unexpected RX drops");
        assert!(r.latency.p50 > 0, "{policy}: latencies recorded");
    }
}

#[test]
fn latency_ordering_matches_paper_at_low_load() {
    // perf is the latency floor; NCAP-hardware tracks it closely; the
    // ondemand-based conventional policies pay a large burst-reaction
    // penalty (paper §6).
    let perf = run_experiment(&quick(AppKind::Memcached, Policy::Perf, 35_000.0));
    let ncap = run_experiment(&quick(AppKind::Memcached, Policy::NcapCons, 35_000.0));
    let ond_idle = run_experiment(&quick(AppKind::Memcached, Policy::OndIdle, 35_000.0));
    assert!(
        ncap.latency.p95 < ond_idle.latency.p95,
        "ncap p95 {} must beat ond.idle {}",
        ncap.latency.p95,
        ond_idle.latency.p95
    );
    assert!(
        (ncap.latency.p95 as f64) < perf.latency.p95 as f64 * 1.3,
        "ncap p95 {} should track perf {}",
        ncap.latency.p95,
        perf.latency.p95
    );
}

#[test]
fn energy_ordering_matches_paper_at_low_load() {
    // perf > ond > perf.idle ≥ ond.idle, and NCAP saves versus perf
    // (paper Figure 9 middle, low load).
    let e = |p: Policy| run_experiment(&quick(AppKind::Memcached, p, 35_000.0)).energy_j;
    let perf = e(Policy::Perf);
    let ond = e(Policy::Ond);
    let perf_idle = e(Policy::PerfIdle);
    let ond_idle = e(Policy::OndIdle);
    let ncap = e(Policy::NcapAggr);
    assert!(perf > ond, "perf {perf} > ond {ond}");
    assert!(ond > perf_idle, "ond {ond} > perf.idle {perf_idle}");
    assert!(
        perf_idle > ond_idle * 0.95,
        "perf.idle {perf_idle} vs ond.idle {ond_idle}"
    );
    assert!(
        ncap < perf * 0.75,
        "ncap.aggr {ncap} must save ≥25% vs perf {perf}"
    );
}

#[test]
fn ncap_hardware_beats_software_variant() {
    // Paper §6: the hardware implementation has lower response time and
    // lower energy than ncap.sw.
    let hw = run_experiment(&quick(AppKind::Memcached, Policy::NcapCons, 35_000.0));
    let sw = run_experiment(&quick(AppKind::Memcached, Policy::NcapSw, 35_000.0));
    assert!(
        hw.latency.p95 <= sw.latency.p95,
        "hw p95 {} vs sw {}",
        hw.latency.p95,
        sw.latency.p95
    );
    assert!(
        hw.energy_j <= sw.energy_j * 1.02,
        "hw {} vs sw {}",
        hw.energy_j,
        sw.energy_j
    );
}

#[test]
fn ncap_posts_proactive_interrupts_only_when_useful() {
    // At a bursty low load NCAP fires wake/boost interrupts; a saturated
    // server (always busy, always at P0) gives it almost nothing to do
    // (paper §6: "the energy consumption of NCAP eventually converges to
    // perf as the load level increases").
    let low = run_experiment(&quick(AppKind::Memcached, Policy::NcapCons, 35_000.0));
    let high = run_experiment(&quick(AppKind::Memcached, Policy::NcapCons, 140_000.0));
    assert!(low.wake_markers > 5, "low load: NCAP must be active");
    assert!(
        high.wake_markers < low.wake_markers,
        "saturation leaves fewer NCAP opportunities ({} vs {})",
        high.wake_markers,
        low.wake_markers
    );
}

#[test]
fn energy_converges_to_perf_at_saturation() {
    let perf = run_experiment(&quick(AppKind::Memcached, Policy::Perf, 140_000.0));
    let ncap = run_experiment(&quick(AppKind::Memcached, Policy::NcapAggr, 140_000.0));
    let ratio = ncap.energy_j / perf.energy_j;
    assert!(
        (0.93..=1.07).contains(&ratio),
        "at saturation NCAP ≈ perf, got ratio {ratio}"
    );
}

#[test]
fn context_awareness_ignores_background_traffic() {
    let bg = BackgroundTraffic {
        rate: 80_000.0,
        burst_size: 400,
    };
    let aware =
        run_experiment(&quick(AppKind::Apache, Policy::NcapCons, 24_000.0).with_background(bg));
    let naive = run_experiment(
        &quick(AppKind::Apache, Policy::NcapCons, 24_000.0)
            .with_background(bg)
            .with_ncap_override(ncap::NcapConfig::paper_defaults().naive_trigger()),
    );
    assert!(
        naive.energy_j > aware.energy_j,
        "naive trigger must burn more energy: naive {} vs aware {}",
        naive.energy_j,
        aware.energy_j
    );
}

#[test]
fn deterministic_across_serial_and_parallel_runs() {
    let cfgs = vec![
        quick(AppKind::Apache, Policy::NcapAggr, 24_000.0),
        quick(AppKind::Memcached, Policy::OndIdle, 35_000.0),
    ];
    let parallel = cluster::run_experiments_parallel(&cfgs);
    for (cfg, p) in cfgs.iter().zip(parallel.iter()) {
        let serial = run_experiment(cfg);
        assert_eq!(serial.latency.p95, p.latency.p95);
        assert_eq!(serial.completed, p.completed);
        assert!((serial.energy_j - p.energy_j).abs() < 1e-12);
    }
}

#[test]
fn same_config_and_seed_is_byte_identical() {
    // The repo's reproducibility contract: a run is a pure function of
    // (config, seed). The Debug rendering covers every public field of
    // ExperimentResult (floats print with exact round-trip precision),
    // so equal strings mean byte-identical results — across two
    // sequential runs AND across worker-thread counts of the parallel
    // runner (1 thread vs N threads, N > number of jobs included).
    let cfgs = vec![
        quick(AppKind::Memcached, Policy::NcapCons, 35_000.0).with_seed(7),
        quick(AppKind::Apache, Policy::OndIdle, 24_000.0).with_seed(7),
        quick(AppKind::Memcached, Policy::Perf, 90_000.0),
    ];
    let render = |rs: &[cluster::ExperimentResult]| -> Vec<String> {
        rs.iter().map(|r| format!("{r:?}")).collect()
    };

    let first = render(&cfgs.iter().map(run_experiment).collect::<Vec<_>>());
    let second = render(&cfgs.iter().map(run_experiment).collect::<Vec<_>>());
    assert_eq!(first, second, "two sequential runs must be identical");

    let one_thread = render(&cluster::run_experiments_on(&cfgs, 1));
    assert_eq!(
        first, one_thread,
        "1-thread parallel runner must match serial"
    );
    for threads in [2, 8] {
        let n_threads = render(&cluster::run_experiments_on(&cfgs, threads));
        assert_eq!(
            one_thread, n_threads,
            "{threads}-thread parallel runner must match 1-thread"
        );
    }
}

/// The field-digest table of the 64-backend scale scenario below
/// (DESIGN.md §7). A change to event ordering, RNG derivation or result
/// accounting moves the rows it touches: explain every moved row in
/// CHANGES.md, then paste the table the failed check prints.
const GOLDEN: &[(&str, u64)] = &[
    ("policy", 0x11abb5cc1ec7b8d0),
    ("app", 0x47e3ec018bf954bf),
    ("load_rps", 0xb48cdcefa9649de7),
    ("latency", 0x306af84f4b4f8fbd),
    ("energy", 0x11d20b65beab134e),
    ("energy_j", 0x684d17581d1073e2),
    ("poll_energy_j", 0xdfbe5de2404c864e),
    ("offered", 0x5b495dd73ffca4e2),
    ("completed", 0x5f30437790c621e7),
    ("wake_markers", 0x4da39ad0fdcb04d1),
    ("rx_drops", 0x5cf2c40d5779f2a2),
    ("measure", 0x9ce563e1a358a6ce),
    ("traces", 0xac5275f879cfe7dd),
    ("sim_trace", 0x4e86d3123be751a8),
    ("kernel_stats", 0x0978f5604a0d6a0b),
    ("faults", 0x4c5572e532eb368d),
    ("rejected", 0x88e437f1dfc23119),
    ("max_queue_depth", 0xf9abd184a2a1ee40),
    ("watchdog_checks", 0x5d466f1d66b393ad),
    ("invariant_violations", 0x432e96bad331c2c8),
    ("fleet", 0x1384b34e63332498),
    ("events_processed", 0x768b45b17d3f7239),
    ("breakdown", 0x3063edeccc03aea4),
    ("self_profile", 0x321bcf89b69c1517),
];

#[test]
fn fleet_scale_64_backends_is_deterministic_and_pinned() {
    use cluster::{CoordinatorConfig, DispatchPolicy, FleetConfig};

    let mut cfg = ExperimentConfig::new(AppKind::Memcached, Policy::NcapCons, 60_000.0)
        .with_durations(SimDuration::from_ms(5), SimDuration::from_ms(10))
        .with_poisson()
        .with_seed(7)
        .with_fleet(
            FleetConfig::new(64, DispatchPolicy::LeastOutstanding)
                .with_coordinator(CoordinatorConfig::new(120_000.0).with_util_target(0.5)),
        );
    // The reference run is untraced even when `NCAP_TRACE` is set.
    cfg.event_trace = None;
    let render = |r: &cluster::ExperimentResult| format!("{r:?}");

    let mut result = run_experiment(&cfg);
    let serial = render(&result);

    // Parallel runner, several thread counts: byte-identical to serial.
    for threads in [1, 4] {
        let parallel = cluster::run_experiments_on(std::slice::from_ref(&cfg), threads);
        assert_eq!(render(&parallel[0]), serial, "{threads} threads diverged");
    }

    // Structured event tracing on (the tracer `NCAP_TRACE=1` selects, set
    // through the builder because mutating the environment of a threaded
    // test harness is racy): byte-identical once the trace is stripped.
    let mut traced = run_experiment(&cfg.clone().with_event_trace(Default::default()));
    assert!(traced.sim_trace.take().is_some(), "tracer must attach data");
    assert_eq!(render(&traced), serial, "tracing perturbed the run");

    // And the whole scenario is pinned against history, field by field.
    common::assert_pinned(&common::field_table(std::slice::from_ref(&result)), GOLDEN);

    // The pin is sensitive field by field: perturbing one field moves
    // exactly that field's row.
    result.wake_markers += 1;
    let moved = common::moved_fields(&common::field_table(std::slice::from_ref(&result)), GOLDEN);
    assert_eq!(moved, ["wake_markers"]);
}

/// The determinism contract the ISSUE's acceptance criteria demand for
/// the rival stacks: per datapath, serial == parallel == traced runs are
/// byte-identical on the full `Debug` render, and the datapath actually
/// engaged (bypass polls frames, offload still fires NCAP wakes).
#[test]
fn rival_datapaths_are_deterministic_across_runners() {
    use cluster::{Datapath, DispatchPolicy, FleetConfig};

    for (datapath, policy) in [
        (Datapath::Bypass, Policy::OndIdle),
        (Datapath::Offload, Policy::NcapCons),
    ] {
        let mut cfg = ExperimentConfig::new(AppKind::Memcached, policy, 45_000.0)
            .with_durations(SimDuration::from_ms(5), SimDuration::from_ms(10))
            .with_poisson()
            .with_seed(11)
            .with_datapath(datapath)
            .with_poll_cores(2)
            .with_fleet(FleetConfig::new(4, DispatchPolicy::LeastOutstanding));
        // The reference run is untraced even when `NCAP_TRACE` is set.
        cfg.event_trace = None;
        let base = run_experiment(&cfg);
        assert!(base.completed > 0, "{datapath:?}: no requests completed");
        match datapath {
            Datapath::Bypass => {
                assert!(
                    base.kernel_stats.polled_frames > 0,
                    "bypass run never polled a frame"
                );
                assert!(base.poll_energy_j > 0.0, "busy-poll cores must bill energy");
            }
            _ => {
                assert_eq!(base.kernel_stats.polled_frames, 0);
                assert!(
                    base.wake_markers > 0,
                    "offload run should still steer NCAP wakes"
                );
            }
        }
        let serial = format!("{base:?}");

        for threads in [1, 4] {
            let parallel = cluster::run_experiments_on(std::slice::from_ref(&cfg), threads);
            assert_eq!(
                format!("{:?}", parallel[0]),
                serial,
                "{datapath:?}: {threads}-thread runner diverged"
            );
        }

        let mut traced = run_experiment(
            &cfg.clone()
                .with_event_trace(simtrace::TracerConfig::default()),
        );
        assert!(traced.sim_trace.is_some(), "tracer must attach data");
        traced.sim_trace = None;
        assert_eq!(
            format!("{traced:?}"),
            serial,
            "{datapath:?}: tracing perturbed the run"
        );
    }
}

#[test]
fn seeds_change_results_but_not_shape() {
    let a = run_experiment(&quick(AppKind::Memcached, Policy::NcapCons, 35_000.0).with_seed(1));
    let b = run_experiment(&quick(AppKind::Memcached, Policy::NcapCons, 35_000.0).with_seed(2));
    // p95 may collide inside one histogram bucket; the exact mean differs.
    assert_ne!(
        a.latency.mean, b.latency.mean,
        "different seeds should differ"
    );
    let rel = (a.energy_j - b.energy_j).abs() / a.energy_j;
    assert!(
        rel < 0.15,
        "energy should be seed-stable to ~15%, got {rel}"
    );
}

#[test]
fn fcons_trades_energy_for_latency() {
    let cons = run_experiment(&quick(AppKind::Memcached, Policy::NcapCons, 35_000.0));
    let aggr = run_experiment(&quick(AppKind::Memcached, Policy::NcapAggr, 35_000.0));
    assert!(
        aggr.energy_j < cons.energy_j,
        "aggressive descent saves energy: aggr {} vs cons {}",
        aggr.energy_j,
        cons.energy_j
    );
}

#[test]
fn apache_is_slower_and_heavier_than_memcached() {
    // Paper §6: Apache's disk-bound requests have a much longer mean
    // response time (1.7 ms vs 0.6 ms) and a lower maximum load.
    let apache = run_experiment(&quick(AppKind::Apache, Policy::Perf, 24_000.0));
    let memcached = run_experiment(&quick(AppKind::Memcached, Policy::Perf, 24_000.0));
    assert!(
        apache.latency.mean > memcached.latency.mean * 1.5,
        "apache mean {} vs memcached {}",
        apache.latency.mean,
        memcached.latency.mean
    );
}

#[test]
fn traced_runs_capture_bandwidth_and_frequency() {
    let cfg = quick(AppKind::Memcached, Policy::NcapCons, 35_000.0)
        .with_trace(cluster::TraceConfig::per_ms());
    let r = run_experiment(&cfg);
    let traces = r.traces.expect("tracing enabled");
    let rx = traces.rx.finish(110_000_000);
    assert!(rx.iter().sum::<f64>() > 0.0, "RX bytes observed");
    assert!(traces.freq.len() > 50, "frequency sampled");
    assert!(!traces.wake_markers.is_empty(), "NCAP markers recorded");
}

#[test]
fn per_core_boost_saves_energy_without_breaking_latency() {
    // Paper §7: per-core P/C transitions "can further improve the
    // effectiveness of NCAP".
    let chip = run_experiment(&quick(AppKind::Memcached, Policy::NcapCons, 35_000.0));
    let per_core = run_experiment(
        &quick(AppKind::Memcached, Policy::NcapCons, 35_000.0).with_per_core_boost(),
    );
    assert!(
        per_core.energy_j < chip.energy_j,
        "per-core {} must undercut chip-wide {}",
        per_core.energy_j,
        chip.energy_j
    );
    assert!(
        (per_core.latency.p95 as f64) < chip.latency.p95 as f64 * 1.5,
        "per-core p95 {} should stay in range of chip-wide {}",
        per_core.latency.p95,
        chip.latency.p95
    );
}

#[test]
fn overload_sheds_via_rx_ring_drops() {
    // Failure injection: drive the server far past saturation. The RX
    // descriptor ring must shed load (drops) instead of queueing without
    // bound, and the simulation must stay live.
    let mut cfg = quick(AppKind::Memcached, Policy::Perf, 300_000.0)
        .with_durations(SimDuration::from_ms(10), SimDuration::from_ms(40));
    cfg.burst_size = 400;
    let r = run_experiment(&cfg);
    assert!(r.completed > 0, "some requests still complete");
    assert!(
        r.goodput() < 0.9,
        "a 3x-overloaded server cannot sustain goodput, got {}",
        r.goodput()
    );
}

#[test]
fn ladder_governor_is_a_drop_in_replacement() {
    let menu = run_experiment(&quick(AppKind::Memcached, Policy::PerfIdle, 35_000.0));
    let ladder =
        run_experiment(&quick(AppKind::Memcached, Policy::PerfIdle, 35_000.0).with_ladder());
    assert!(ladder.goodput() > 0.9);
    // Ladder climbs to deep states one sleep at a time, so it spends more
    // energy than menu's direct-to-C6 jumps on long inter-burst idles.
    assert!(
        ladder.energy_j > menu.energy_j * 0.9,
        "ladder {} vs menu {}",
        ladder.energy_j,
        menu.energy_j
    );
}

#[test]
fn sudden_load_spike_is_caught_by_ncap() {
    // The paper's §1 motivation: a server at a low load must respond to a
    // sudden rate increase without SLA damage. Model it as a low->high
    // load step by comparing tail latency at the high load for requests
    // arriving into a *cold* (low-load-conditioned) server: NCAP's p99
    // tracks perf far better than ond.idle's.
    let perf = run_experiment(&quick(AppKind::Memcached, Policy::Perf, 90_000.0));
    let ncap = run_experiment(&quick(AppKind::Memcached, Policy::NcapCons, 90_000.0));
    let ond_idle = run_experiment(&quick(AppKind::Memcached, Policy::OndIdle, 90_000.0));
    let ncap_gap = ncap.latency.p99 as f64 / perf.latency.p99 as f64;
    let ond_gap = ond_idle.latency.p99 as f64 / perf.latency.p99 as f64;
    assert!(
        ncap_gap < ond_gap,
        "ncap p99 gap {ncap_gap:.2} must beat ond.idle {ond_gap:.2}"
    );
}

#[test]
fn imbalanced_cluster_serves_all_servers() {
    // §7: servers with unequal load; NCAP saves most on the
    // underutilized ones. Servers that share no client share no simulated
    // state, so each is its own single-client experiment with its own seed.
    let configs: Vec<ExperimentConfig> = [20_000.0, 80_000.0]
        .iter()
        .enumerate()
        .map(|(i, &load)| {
            ExperimentConfig {
                clients: 1,
                ..ExperimentConfig::new(AppKind::Memcached, Policy::NcapCons, load)
                    .with_durations(SimDuration::from_ms(20), SimDuration::from_ms(60))
            }
            .with_seed(7 + i as u64)
        })
        .collect();
    let rs = cluster::run_experiments_parallel(&configs);
    let offered: u64 = rs.iter().map(|r| r.offered).sum();
    let completed: u64 = rs.iter().map(|r| r.completed).sum();
    assert!(completed as f64 > 0.9 * offered as f64, "goodput");
    assert!(rs.iter().all(|r| r.completed > 0), "every server serves");
    assert!(
        rs[0].energy_j < rs[1].energy_j,
        "the lightly-loaded server must consume less: {} vs {} J",
        rs[0].energy_j,
        rs[1].energy_j
    );
}

#[test]
fn multi_queue_nic_preserves_correctness() {
    // The §7 RSS extension: four vectors pinned to four cores must serve
    // the same workload with the same goodput as the single-queue NIC.
    let single = run_experiment(&quick(AppKind::Memcached, Policy::NcapCons, 60_000.0));
    let multi =
        run_experiment(&quick(AppKind::Memcached, Policy::NcapCons, 60_000.0).with_nic_queues(4));
    assert!(
        multi.goodput() > 0.9,
        "multi-queue goodput {}",
        multi.goodput()
    );
    assert_eq!(multi.rx_drops, 0);
    // Spreading the stack across cores cannot be slower at the tail than
    // funnelling everything through core 0 (allow noise).
    assert!(
        (multi.latency.p95 as f64) < single.latency.p95 as f64 * 1.25,
        "multi-queue p95 {} vs single {}",
        multi.latency.p95,
        single.latency.p95
    );
}

#[test]
fn ncap_suspends_ondemand_during_bursts() {
    // Paper §4.3: each IT_HIGH disables the ondemand governor for one
    // invocation period, so under steady bursts the NCAP kernel evaluates
    // ondemand far less often than the plain ond.idle kernel.
    let ond = run_experiment(&quick(AppKind::Memcached, Policy::OndIdle, 35_000.0));
    let ncap = run_experiment(&quick(AppKind::Memcached, Policy::NcapCons, 35_000.0));
    assert!(
        ncap.kernel_stats.governor_ticks < ond.kernel_stats.governor_ticks,
        "suspension must suppress evaluations: ncap {} vs ond.idle {}",
        ncap.kernel_stats.governor_ticks,
        ond.kernel_stats.governor_ticks
    );
    // And the rest of the machinery was exercised.
    assert!(ncap.kernel_stats.isrs > 0);
    assert!(ncap.kernel_stats.softirq_rx > 0);
    assert!(ncap.kernel_stats.core_wakes > 0);
}
