//! Integration tests at the substrate seams: kernel + NIC + NCAP without
//! the full cluster, and conservation properties of the accounting.

use cluster::{run_experiment, AppKind, ExperimentConfig, Policy};
use cpusim::{CState, Core, CoreId, PStateTable, PowerModel, PowerTable};
use desim::{SimDuration, SimTime};
use ncap::{IcrFlags, NcapConfig};
use netsim::http::HttpRequest;
use netsim::packet::{NodeId, Packet};
use netsim::Bytes;
use nicsim::{Nic, NicConfig};

/// The headline mechanism, at NIC level: a request arriving at a quiet,
/// NCAP-enhanced NIC asserts the IRQ *before* its own DMA completes, so
/// the core's C-state exit overlaps packet delivery (paper §4.3).
#[test]
fn wake_interrupt_precedes_dma_completion() {
    let mut nic = Nic::new(NicConfig::i82574_like().with_ncap(NcapConfig::paper_defaults()));
    nic.start_mitt(SimTime::ZERO);
    let t = SimTime::from_ms(3); // > CIT of silence
    let frame = Packet::request(NodeId(1), NodeId(0), 1, HttpRequest::get("/").to_payload());
    let out = nic.frame_arrived(t, frame);
    assert!(out.immediate_irq, "CIT wake must fire");
    let dma_done = out.dma_complete_at.unwrap();
    // The IRQ fired at t; DMA completes ~15 us later. A C6 exit (22 us) +
    // MWAIT path started at t is substantially hidden behind delivery.
    assert!(dma_done > t + SimDuration::from_us(10));
    // And a conventional NIC in the same situation stays silent until the
    // MITT gates the interrupt.
    let mut plain = Nic::new(NicConfig::i82574_like());
    plain.start_mitt(SimTime::ZERO);
    let frame = Packet::request(NodeId(1), NodeId(0), 2, HttpRequest::get("/").to_payload());
    let out = plain.frame_arrived(t, frame);
    assert!(!out.immediate_irq);
}

/// The overlap quantified end to end: with NCAP, the time between a
/// post-silence request hitting the wire and its response leaving is
/// shorter than under the same stack without NCAP.
#[test]
fn cold_start_latency_is_hidden_by_ncap() {
    // One tiny burst arriving after long idle, measured cold.
    let mk = |policy: Policy| {
        let mut cfg = ExperimentConfig::new(AppKind::Memcached, policy, 6_000.0)
            .with_durations(SimDuration::from_ms(20), SimDuration::from_ms(60));
        cfg.burst_size = 50;
        cfg
    };
    let ncap = run_experiment(&mk(Policy::NcapCons));
    let ond_idle = run_experiment(&mk(Policy::OndIdle));
    assert!(
        ncap.latency.p95 < ond_idle.latency.p95,
        "cold bursts: ncap p95 {} vs ond.idle {}",
        ncap.latency.p95,
        ond_idle.latency.p95
    );
    assert!(ncap.wake_markers > 0, "the CIT/boost path must have fired");
}

/// Energy/time accounting conservation: after finalize, every core's
/// meter covers exactly the simulated horizon.
#[test]
fn core_time_accounting_is_conserved() {
    let cfg = ExperimentConfig::new(AppKind::Apache, Policy::NcapCons, 24_000.0)
        .with_durations(SimDuration::from_ms(20), SimDuration::from_ms(50));
    let horizon = cfg.horizon();
    let server_id = NodeId(0);
    let server = cluster::runner::build_server(&cfg, server_id);
    // Run through the public runner (which finalizes), then check with a
    // fresh identical run at the kernel level.
    drop(server);
    let r = run_experiment(&cfg);
    assert!(r.energy_j > 0.0);
    // The measured window's accounted time must equal cores × measure
    // (plus the uncore track).
    let per_core_expected = cfg.measure;
    let total = r.energy.total_time();
    // 4 cores + 1 uncore track, each covering the measured window.
    assert_eq!(
        total,
        per_core_expected * 5,
        "accounted {total} vs horizon {horizon}"
    );
}

/// A core driven through a realistic sequence bills every nanosecond.
#[test]
fn core_full_lifecycle_accounting() {
    let table = PStateTable::i7_like();
    let power = PowerTable::new(&PowerModel::i7_like(), &table);
    let mut core = Core::new(CoreId(0), table.clone(), power, table.deepest());
    // idle → work → DVFS up mid-job → complete → sleep → wake.
    core.sync(SimTime::from_us(100));
    core.begin_job(SimTime::from_us(100), 1_000_000.0).unwrap();
    core.set_pstate(SimTime::from_us(200), table.fastest())
        .unwrap();
    let eta = core.job_eta(SimTime::from_us(200)).unwrap();
    core.complete_job(eta).unwrap();
    core.enter_sleep(eta, CState::C6).unwrap();
    let ready = core.begin_wake(eta + SimDuration::from_us(500)).unwrap();
    core.sync(ready + SimDuration::from_us(10));
    let end = ready + SimDuration::from_us(10);
    assert_eq!(core.energy().total_time(), end - SimTime::ZERO);
    assert_eq!(core.sleep_entries(CState::C6), 1);
    assert_eq!(core.pstate(), table.fastest());
}

/// ICR causes accumulate across NIC events and drain on a single read,
/// level-triggered, including NCAP bits.
#[test]
fn icr_accumulation_across_subsystems() {
    let mut nic = Nic::new(NicConfig::i82574_like().with_ncap(NcapConfig::paper_defaults()));
    let mut mitt = nic.start_mitt(SimTime::ZERO);
    nic.note_freq_status(false, true);
    // Baseline expiry, then a burst in the next window.
    let (next, _) = nic.mitt_expired(mitt);
    mitt = next;
    for i in 0..12u64 {
        let at = mitt - SimDuration::from_us(30) + SimDuration::from_nanos(i * 900);
        let frame = Packet::request(NodeId(1), NodeId(0), i, HttpRequest::get("/").to_payload());
        let out = nic.frame_arrived(at, frame);
        let done = out.dma_complete_at.unwrap();
        nic.rx_dma_complete(done, out.queue);
    }
    let (_, raised) = nic.mitt_expired(mitt);
    assert_eq!(raised, vec![0]);
    let icr = nic.read_icr(0);
    assert!(icr.contains(IcrFlags::IT_RX), "RX cause present: {icr}");
    assert!(
        icr.contains(IcrFlags::IT_HIGH),
        "boost cause present: {icr}"
    );
    assert!(nic.read_icr(0).is_empty(), "read clears");
}

/// Response segmentation meshes with the client's request ledger across
/// the netsim/cluster seam: a segmented response completes its request
/// only when its final frame arrives, and the latency runs from the
/// request's send instant. (`netsim::tcp`'s reassembly tests cover
/// reordered and duplicated segments.)
#[test]
fn segmentation_and_tracking_agree() {
    use cluster::{build_cluster, ClusterEvent};
    use desim::{EventHandler, EventQueue};
    use netsim::tcp::segment_response;

    let cfg = ExperimentConfig::new(AppKind::Apache, Policy::Perf, 10_000.0)
        .with_durations(SimDuration::ZERO, SimDuration::from_ms(10));
    let (mut sim, _) = build_cluster(&cfg).expect("valid config");
    let mut queue = EventQueue::new();
    let sent_at = SimTime::from_us(50);
    sim.handle(sent_at, ClusterEvent::ClientBurst { idx: 0 }, &mut queue);
    let request = std::iter::from_fn(|| queue.pop())
        .find_map(|(_, e)| match e {
            ClusterEvent::Deliver { frame } => Some(frame),
            _ => None,
        })
        .expect("the burst sends a request");
    let id = request.meta().request_id.expect("latency-critical");
    let issued = sim.fault_summary().issued_total;
    assert!(issued > 0);
    let frames = segment_response(
        request.dst(),
        request.src(),
        id,
        Bytes::from(vec![0u8; 10_000]),
        sent_at,
    );
    assert!(frames.len() > 2);
    let mut t = SimTime::from_us(500);
    for (i, frame) in frames.into_iter().enumerate() {
        assert_eq!(sim.completed_measured(), 0, "segment {i} completed early");
        t += SimDuration::from_us(2);
        sim.handle(t, ClusterEvent::Deliver { frame }, &mut queue);
    }
    assert_eq!(sim.completed_measured(), 1);
    let latency = sim.measured_latencies();
    assert_eq!(
        (latency.count(), latency.max()),
        (1, t.saturating_since(sent_at).as_nanos())
    );
    let f = sim.fault_summary();
    assert_eq!((f.completed_total, f.in_flight), (1, issued - 1), "{f:?}");
}
