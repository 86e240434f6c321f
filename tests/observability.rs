//! Cross-crate observability tests: the structured event tracer and the
//! metrics registry must be deterministic, observer-effect-free, and
//! consistent with the figure traces.
//!
//! These are the PR's acceptance properties:
//!
//! * same seed → byte-identical Perfetto JSON and CSV exports,
//! * tracing on vs. off → bit-identical `ExperimentResult`s,
//! * both also hold under the parallel runner,
//! * the CSV's `cluster.bw_rx`, `cluster.bw_tx` and `cluster.freq_ghz`
//!   columns equal the `Traces` series they mirror,
//! * spans cover the simulator's major components.

use cluster::{
    run_experiment, run_experiments_on, AppKind, ExperimentConfig, ExperimentResult, Policy,
    TraceConfig,
};
use desim::SimDuration;

const HORIZON_NS: u64 = 40_000_000; // 10 ms warmup + 30 ms measure

fn traced(seed: u64) -> ExperimentConfig {
    ExperimentConfig::new(AppKind::Memcached, Policy::NcapCons, 30_000.0)
        .with_durations(SimDuration::from_ms(10), SimDuration::from_ms(30))
        .with_seed(seed)
        .with_trace(TraceConfig::per_ms())
        .with_event_trace(simtrace::TracerConfig::default())
}

/// The result fields that must not move when tracing toggles; floats are
/// compared bit-for-bit.
fn fingerprint(r: &ExperimentResult) -> (u64, u64, u64, u64, u64, u64, u64, u64, usize, u64) {
    (
        r.latency.p50,
        r.latency.p90,
        r.latency.p95,
        r.latency.p99,
        r.latency.mean.to_bits(),
        r.energy_j.to_bits(),
        r.offered,
        r.completed,
        r.wake_markers,
        r.rx_drops,
    )
}

#[test]
fn same_seed_exports_are_byte_identical() {
    let a = run_experiment(&traced(7)).sim_trace.expect("trace data");
    let b = run_experiment(&traced(7)).sim_trace.expect("trace data");
    assert_eq!(a.to_chrome_json(), b.to_chrome_json());
    assert_eq!(a.to_csv(HORIZON_NS), b.to_csv(HORIZON_NS));
    assert_eq!(a.dropped, b.dropped);
}

#[test]
fn tracing_does_not_perturb_results() {
    let mut off_cfg = traced(11);
    off_cfg.event_trace = None;
    let on = run_experiment(&traced(11));
    let off = run_experiment(&off_cfg);
    assert!(on.sim_trace.is_some() && off.sim_trace.is_none());
    assert_eq!(fingerprint(&on), fingerprint(&off));
    // The figure traces must also be bit-identical.
    let (ton, toff) = (on.traces.expect("traces"), off.traces.expect("traces"));
    assert_eq!(ton.rx.finish(HORIZON_NS), toff.rx.finish(HORIZON_NS));
    assert_eq!(ton.tx.finish(HORIZON_NS), toff.tx.finish(HORIZON_NS));
    let bits = |ts: &simstats::TimeSeries| -> Vec<(u64, u64)> {
        ts.iter().map(|(t, v)| (t, v.to_bits())).collect()
    };
    assert_eq!(bits(&ton.freq), bits(&toff.freq));
    assert_eq!(bits(&ton.util), bits(&toff.util));
    for (a, b) in ton.cstate_share.iter().zip(toff.cstate_share.iter()) {
        assert_eq!(bits(a), bits(b));
    }
}

#[test]
fn parallel_runner_traces_match_serial() {
    let cfgs: Vec<ExperimentConfig> = (0..8).map(|i| traced(100 + i)).collect();
    let parallel = run_experiments_on(&cfgs, 8);
    assert_eq!(parallel.len(), cfgs.len());
    for (cfg, p) in cfgs.iter().zip(&parallel) {
        let s = run_experiment(cfg);
        assert_eq!(fingerprint(&s), fingerprint(p), "seed {}", cfg.seed);
        let (pt, st) = (
            p.sim_trace.as_ref().expect("parallel trace"),
            s.sim_trace.as_ref().expect("serial trace"),
        );
        assert_eq!(
            pt.to_chrome_json(),
            st.to_chrome_json(),
            "seed {}",
            cfg.seed
        );
        assert_eq!(
            pt.to_csv(HORIZON_NS),
            st.to_csv(HORIZON_NS),
            "seed {}",
            cfg.seed
        );
    }
}

#[test]
fn csv_figure_columns_match_traces() {
    let r = run_experiment(&traced(5));
    let traces = r.traces.expect("traces");
    let csv = r.sim_trace.expect("trace data").to_csv(HORIZON_NS);
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().expect("header").split(',').collect();
    let rows: Vec<Vec<f64>> = lines
        .map(|l| l.split(',').map(|v| v.parse().unwrap()).collect())
        .collect();
    let column = |name: &str| -> Vec<f64> {
        let col = header
            .iter()
            .position(|h| *h == name)
            .unwrap_or_else(|| panic!("{name} column"));
        rows.iter().map(|r| r[col]).collect()
    };
    // A gauge column holds the last sample before each window's end,
    // forward-filled from zero.
    let window_ns = HORIZON_NS / rows.len() as u64;
    let freq: Vec<f64> = (1..=rows.len() as u64)
        .map(|w| {
            traces
                .freq
                .iter()
                .take_while(|&(t, _)| t < w * window_ns)
                .last()
                .map_or(0.0, |(_, v)| v)
        })
        .collect();
    for (name, expected) in [
        ("cluster.bw_rx", traces.rx.finish(HORIZON_NS)),
        ("cluster.bw_tx", traces.tx.finish(HORIZON_NS)),
        ("cluster.freq_ghz", freq),
    ] {
        let from_csv = column(name);
        assert_eq!(from_csv.len(), expected.len(), "{name}");
        for (i, (c, e)) in from_csv.iter().zip(&expected).enumerate() {
            assert_eq!(
                c.to_bits(),
                e.to_bits(),
                "{name} window {i}: csv {c} vs traces {e}"
            );
        }
    }
}

#[test]
fn spans_cover_the_major_components() {
    let data = run_experiment(&traced(1)).sim_trace.expect("trace data");
    let comps = data.components_with_spans();
    for required in ["nic", "kernel", "net", "governors", "cpu", "core"] {
        assert!(
            comps.contains(&required),
            "missing spans from {required}: {comps:?}"
        );
    }
    assert!(data.dropped == 0 || data.events.len() == data.config.capacity);
}

// ---- per-stage latency attribution --------------------------------------
//
// The breakdown layer must be a pure observer (on vs off bit-identical on
// simulated results, across runners and topologies) and must satisfy the
// conservation identity: per-request stage durations sum to the
// client-observed latency for *every* completed request.

use check::{ensure, ensure_eq, Check};
use cluster::sim::ClusterSim;
use cluster::{Datapath, DispatchPolicy, FaultConfig, FleetConfig};
use desim::{SimTime, Simulation};

fn with_fleet(cfg: ExperimentConfig) -> ExperimentConfig {
    cfg.with_fleet(FleetConfig::new(2, DispatchPolicy::LeastOutstanding))
}

#[test]
fn breakdown_toggle_is_observer_free() {
    for fleet in [false, true] {
        let base = |seed| {
            let cfg = traced(seed);
            if fleet {
                with_fleet(cfg)
            } else {
                cfg
            }
        };
        // Traced serial runner.
        let on = run_experiment(&base(21));
        let off = run_experiment(&base(21).with_breakdown(false));
        assert!(on.breakdown.is_some() && off.breakdown.is_none());
        assert_eq!(fingerprint(&on), fingerprint(&off), "traced, fleet={fleet}");
        assert!(on.breakdown.as_ref().is_some_and(|b| b.count > 0));
        // Untraced serial runner.
        let mut plain_on = base(22);
        plain_on.event_trace = None;
        plain_on.trace = None;
        let plain_off = plain_on.clone().with_breakdown(false);
        let (pon, poff) = (run_experiment(&plain_on), run_experiment(&plain_off));
        assert_eq!(
            fingerprint(&pon),
            fingerprint(&poff),
            "plain, fleet={fleet}"
        );
        // Parallel runner.
        let cfgs = vec![base(23), base(23).with_breakdown(false)];
        let rs = run_experiments_on(&cfgs, 2);
        assert_eq!(
            fingerprint(&rs[0]),
            fingerprint(&rs[1]),
            "parallel, fleet={fleet}"
        );
    }
}

/// Drives the cluster [`cluster::build_cluster`] assembles, so the
/// breakdown collector and the response tracker stay reachable after the
/// run. The policy rides with the datapath: bypass forbids NCAP, offload
/// demands NCAP hardware.
fn drive_cluster(seed: u64, fleet: bool, lossy: bool, datapath: Datapath) -> ClusterSim {
    let policy = if datapath == Datapath::Bypass {
        Policy::OndIdle
    } else {
        Policy::NcapCons
    };
    let mut cfg = ExperimentConfig::new(AppKind::Memcached, policy, 30_000.0)
        .with_durations(SimDuration::from_ms(5), SimDuration::from_ms(15))
        .with_seed(seed)
        .with_datapath(datapath)
        .with_poll_cores(1 + (seed % 2) as u8);
    if fleet {
        cfg = with_fleet(cfg);
    }
    if lossy {
        cfg = cfg.with_faults(FaultConfig::lossy(0.02, seed ^ 0xFA));
    }
    let (cluster, initial) = cluster::build_cluster(&cfg).expect("valid config");
    let horizon = SimTime::ZERO + cfg.horizon();
    let mut sim = Simulation::new(cluster);
    for (t, e) in initial {
        sim.queue_mut().push(t, e);
    }
    sim.run_until(horizon);
    let now = sim.now();
    sim.handler_mut().finalize(now);
    sim.into_handler()
}

/// The paper's §3 mechanism, reproduced through the attribution layer
/// (EXPERIMENTS.md "tail_breakdown"): at sparse Poisson load nearly
/// every request under `ond.idle` pays the C6 exit latency — wake is a
/// per-request tax, not a tail curiosity — and NCAP's proactive
/// interrupt makes it vanish by overlapping the wake with delivery.
#[test]
fn report_reproduces_wake_shrinkage_claim() {
    let sparse = |policy| {
        ExperimentConfig::new(AppKind::Memcached, policy, 3_000.0)
            .with_durations(SimDuration::from_ms(100), SimDuration::from_ms(400))
            .with_poisson()
            .with_nic_queues(4)
    };
    let ond = run_experiment(&sparse(Policy::OndIdle))
        .breakdown
        .expect("breakdown on by default");
    let ncap = run_experiment(&sparse(Policy::NcapCons))
        .breakdown
        .expect("breakdown on by default");
    let stage = |b: &simstats::LatencyBreakdown, name: &str| {
        b.stage(name).unwrap_or_else(|| panic!("stage {name}")).mean
    };

    // Under ond.idle the wake stage charges most requests a C-state
    // exit (47 us in the paper's setup) and, with moderation holds,
    // makes up a substantial slice of the mean request.
    let (ond_wake, ond_mod) = (stage(&ond, "wake"), stage(&ond, "moderation"));
    assert!(
        ond_wake > 30_000.0,
        "ond.idle wake mean {:.0} ns — sparse requests should pay most \
         of the 47 us C6 exit",
        ond_wake
    );
    let avoidable_share = (ond_wake + ond_mod) / ond.total_mean;
    assert!(
        avoidable_share > 0.2,
        "wake+moderation are {avoidable_share:.2} of the ond.idle mean \
         request — the attribution should expose a substantial PM tax"
    );

    // NCAP's proactive interrupt hides the wake behind delivery and its
    // rate hints keep the frequency up: the wake stage collapses and
    // the end-to-end mean drops with it.
    let ncap_wake = stage(&ncap, "wake");
    assert!(
        ncap_wake < ond_wake / 2.0,
        "ncap.cons wake mean {ncap_wake:.0} ns vs ond.idle {ond_wake:.0} ns \
         — the proactive interrupt should hide most of the exit latency"
    );
    assert!(
        ncap.total_mean < ond.total_mean,
        "ncap.cons mean {:.0} ns should beat ond.idle {:.0} ns at sparse load",
        ncap.total_mean,
        ond.total_mean
    );

    // The tail view is populated and names a dominant stage.
    for b in [&ond, &ncap] {
        assert!(b.count > 0 && b.tail_count > 0);
        assert!(b.tail_dominant().is_some());
        assert_eq!(b.tail_percentile.to_bits(), 99.0f64.to_bits());
    }
}

#[test]
fn stage_sums_equal_client_latency() {
    Check::new("stage_conservation").cases(18).run(
        |rng, _size| (rng.next_u64() >> 32, rng.next_below(3), rng.next_below(3)),
        |&(seed, scenario, dp)| {
            let (fleet, lossy) = match scenario {
                0 => (false, false),
                1 => (true, false),
                _ => (false, true),
            };
            let datapath = [Datapath::Kernel, Datapath::Bypass, Datapath::Offload][dp as usize];
            let c = drive_cluster(seed, fleet, lossy, datapath);
            let collector = c.breakdown_collector();
            let context = format!("fleet={fleet}, lossy={lossy}, datapath={datapath}");
            ensure!(
                !collector.is_empty(),
                "no completions collected ({context})"
            );
            ensure_eq!(collector.len() as u64, c.completed_measured());
            // Every recorded request's stages summed exactly to its
            // client-observed latency.
            ensure!(
                collector.untiled() == 0,
                "{} request(s) whose stage sum != total ({context})",
                collector.untiled()
            );
            // The poll path replaces the interrupt path wholesale, and
            // every request of a run shares one datapath: bypass runs
            // never show moderation, wake or stack time, kernel and
            // offload runs never show poll_wait.
            let b = c.latency_breakdown(99.0);
            let stage = |name: &str| b.stage(name).expect("known stage");
            if datapath == Datapath::Bypass {
                for name in ["moderation", "wake", "stack"] {
                    ensure!(
                        stage(name).hist.max() == 0,
                        "bypass run shows {name} time ({context})"
                    );
                }
                ensure!(
                    stage("poll_wait").mean > 0.0,
                    "bypass run attributed zero poll_wait across {} requests",
                    b.count
                );
            } else {
                ensure!(
                    stage("poll_wait").hist.max() == 0,
                    "{datapath} run shows poll_wait ({context})"
                );
            }
            Ok(())
        },
    );
}
