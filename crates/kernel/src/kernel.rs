//! The per-node kernel: event handlers tying every substrate together.
//!
//! See the crate docs for the model. The kernel is driven through
//! [`Kernel::handle`]; every handler appends to a caller-owned
//! [`Effects`] — follow-up events for this node plus frames leaving on
//! the wire (which the cluster routes through the switch).

use crate::app::{AppPhase, RequestInfo, ServerApp};
use crate::config::{KernelConfig, ShedPolicy};
use crate::work::{RunQueue, Work, WorkKind};
use cpusim::{
    CState, Core, CoreId, CoreStateKind, EnergyMeter, PStateTable, PowerMode, PowerModel,
};
use desim::{SimTime, TimerSlot};
use governors::{CpufreqGovernor, CpuidleGovernor};
use ncap::{DriverAction, EnhancedDriver, IcrFlags, SoftwareNcap};
use netsim::tcp::segment_response;
use netsim::Bytes;
use netsim::{NodeId, Packet};
use nicsim::Nic;
use std::collections::VecDeque;

/// Events delivered to a node's kernel.
#[derive(Debug, Clone)]
pub enum NodeEvent {
    /// A frame fully arrived from the wire.
    FrameFromWire(Packet),
    /// A queue's head-of-line RX DMA completed.
    RxDmaComplete {
        /// The RSS queue.
        queue: u8,
    },
    /// An AITT/PITT delay-timer deadline (validated by generation).
    ModerationDelay {
        /// The RSS queue.
        queue: u8,
        /// Timer-slot generation from the NIC.
        gen: u64,
    },
    /// The NIC's master interrupt throttling timer expired.
    MittExpired,
    /// A core's current job finished (validated by generation).
    JobDone {
        /// Core index.
        core: u8,
        /// Timer-slot generation.
        gen: u64,
    },
    /// A core finished waking from a C-state (validated by generation).
    WakeDone {
        /// Core index.
        core: u8,
        /// Timer-slot generation.
        gen: u64,
    },
    /// Periodic dynamic cpufreq governor invocation.
    GovernorTick,
    /// The `ncap.sw` 1 ms evaluation timer.
    NcapSwTimer,
    /// An application IO phase (e.g. disk access) completed.
    IoDone {
        /// Kernel-internal request token.
        token: u64,
    },
    /// A frame finished DMA into the NIC and hits the wire now.
    TxWire {
        /// The departing frame.
        frame: Packet,
    },
    /// Bypass datapath: a queue's head-of-line RX DMA completed and the
    /// busy-poll loop (spinning continuously) picks the frame up now.
    PollRx {
        /// The RSS queue.
        queue: u8,
    },
}

impl NodeEvent {
    /// Coarse per-variant label, used by the simulator's wall-clock
    /// self-profiler (`desim::EventHandler::classify`).
    #[must_use]
    pub fn class(&self) -> &'static str {
        match self {
            NodeEvent::FrameFromWire(_) => "node.frame_from_wire",
            NodeEvent::RxDmaComplete { .. } => "node.rx_dma",
            NodeEvent::ModerationDelay { .. } => "node.moderation_delay",
            NodeEvent::MittExpired => "node.mitt",
            NodeEvent::JobDone { .. } => "node.job_done",
            NodeEvent::WakeDone { .. } => "node.wake_done",
            NodeEvent::GovernorTick => "node.governor_tick",
            NodeEvent::NcapSwTimer => "node.ncap_sw_timer",
            NodeEvent::IoDone { .. } => "node.io_done",
            NodeEvent::TxWire { .. } => "node.tx_wire",
            NodeEvent::PollRx { .. } => "node.poll_rx",
        }
    }
}

/// What a handler wants done next. The caller owns one and lends it to
/// every [`Kernel::handle`] call, which only appends; the caller drains
/// it after each call, so the vectors keep their capacity and no event
/// allocates.
#[derive(Debug, Default)]
pub struct Effects {
    /// Events to schedule on this node at absolute instants.
    pub schedule: Vec<(SimTime, NodeEvent)>,
    /// Frames leaving on the wire *now* (cluster routes via the switch).
    pub transmit: Vec<Packet>,
}

impl Effects {
    fn at(&mut self, t: SimTime, e: NodeEvent) {
        self.schedule.push((t, e));
    }
}

struct ReqState {
    info: RequestInfo,
    phases: VecDeque<AppPhase>,
    response_bytes: usize,
    /// Latency-attribution record accumulated while the request is in
    /// flight (measurement sideband; stamped into the final response).
    stages: netsim::StageRecord,
}

/// Everything `emit_response` needs to address, size, and attribute a
/// response — from first-time completion or a reliability-layer replay.
struct Response {
    dst: NodeId,
    request_id: u64,
    bytes: usize,
    sent_at: SimTime,
    stages: netsim::StageRecord,
}

/// Receiver-side duplicate-suppression state for one request id (only
/// tracked when [`KernelConfig::reliable`] is set). `Done` and `Rejected`
/// entries linger in TIME_WAIT (see [`Kernel::set_dedup_linger`]).
#[derive(Debug, Clone, Copy)]
enum DupState {
    /// The request is being processed; duplicates are dropped without
    /// scheduling any application work.
    InFlight {
        /// When this node first saw the request (its linger starts here).
        since: SimTime,
    },
    /// The response (of this size) was already generated; a duplicate
    /// means the client did not receive it all — replay it. Its
    /// attribution record lives in `Kernel::replay_stages`, and only
    /// until the client resolves the request.
    Done {
        /// Size of the generated response body.
        response_bytes: usize,
    },
    /// Admission control rejected the request with a 503. A duplicate
    /// retransmission replays the rejection — the request is never
    /// re-admitted, even if capacity has since freed up, because the
    /// client already observed (or will observe) the rejection.
    Rejected,
}

/// Operational counters of one kernel — the `/proc`-style observability a
/// production deployment would watch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Interrupt service routines executed.
    pub isrs: u64,
    /// Receive SoftIRQ work items processed (one per frame).
    pub softirq_rx: u64,
    /// Transmit-path work items processed (one per frame).
    pub softirq_tx: u64,
    /// Application work items executed.
    pub app_jobs: u64,
    /// Dynamic-governor invocations that actually evaluated (not
    /// suspended by NCAP).
    pub governor_ticks: u64,
    /// Core wake-ups out of C-states.
    pub core_wakes: u64,
    /// Retransmitted requests dropped while the original was still in
    /// flight (no application work scheduled).
    pub dup_suppressed: u64,
    /// Responses replayed for retransmitted requests that had already
    /// completed (the response was lost on the way back).
    pub resp_replays: u64,
    /// Requests refused with a 503-style response by admission control
    /// (first rejection only; replays are counted separately).
    pub rejected: u64,
    /// 503 responses replayed for retransmissions of already-rejected
    /// requests.
    pub reject_replays: u64,
    /// Frames tail-dropped at the RX backlog caps during ISR drain
    /// (recovered by client RTO, like a ring overflow).
    pub backlog_sheds: u64,
    /// TX frames dropped at the run-queue or TX-backlog cap (recovered
    /// by retransmission and response replay).
    pub tx_sheds: u64,
    /// Frames received through the bypass datapath's busy-poll loop
    /// (zero on the interrupt-driven kernel datapath).
    pub polled_frames: u64,
}

impl std::ops::AddAssign for KernelStats {
    /// Field-wise sum, so a fleet's counters add up over its backends.
    fn add_assign(&mut self, o: Self) {
        let KernelStats {
            isrs,
            softirq_rx,
            softirq_tx,
            app_jobs,
            governor_ticks,
            core_wakes,
            dup_suppressed,
            resp_replays,
            rejected,
            reject_replays,
            backlog_sheds,
            tx_sheds,
            polled_frames,
        } = o;
        self.isrs += isrs;
        self.softirq_rx += softirq_rx;
        self.softirq_tx += softirq_tx;
        self.app_jobs += app_jobs;
        self.governor_ticks += governor_ticks;
        self.core_wakes += core_wakes;
        self.dup_suppressed += dup_suppressed;
        self.resp_replays += resp_replays;
        self.rejected += rejected;
        self.reject_replays += reject_replays;
        self.backlog_sheds += backlog_sheds;
        self.tx_sheds += tx_sheds;
        self.polled_frames += polled_frames;
    }
}

/// Deterministic CoDel-style controller state (Controlled Delay, Nichols
/// & Jacobson): once queue sojourn time stays above the target for a full
/// interval, shed one request, then shed again at intervals shrinking
/// with `interval / sqrt(count)` until sojourn drops below target.
#[derive(Debug, Clone, Copy, Default)]
struct CoDelState {
    /// When the sojourn first exceeded the target (plus one interval):
    /// the instant at which shedding may begin.
    first_above: Option<SimTime>,
    /// Next scheduled shed while in the dropping state.
    shed_next: SimTime,
    /// Sheds performed in the current dropping episode.
    count: u32,
    /// Whether the controller is in the dropping state.
    dropping: bool,
}

impl CoDelState {
    fn backoff(interval: desim::SimDuration, count: u32) -> desim::SimDuration {
        desim::SimDuration::from_secs_f64(interval.as_secs_f64() / f64::from(count.max(1)).sqrt())
    }

    /// Feeds one observed sojourn time; returns `true` if this request
    /// should be shed.
    fn should_shed(
        &mut self,
        now: SimTime,
        sojourn: desim::SimDuration,
        target: desim::SimDuration,
        interval: desim::SimDuration,
    ) -> bool {
        if sojourn < target {
            self.first_above = None;
            self.dropping = false;
            self.count = 0;
            return false;
        }
        let Some(first) = self.first_above else {
            self.first_above = Some(now + interval);
            return false;
        };
        if now < first {
            return false;
        }
        if !self.dropping {
            self.dropping = true;
            self.count = self.count.saturating_add(1);
            self.shed_next = now + Self::backoff(interval, self.count);
            return true;
        }
        if now >= self.shed_next {
            self.count = self.count.saturating_add(1);
            self.shed_next += Self::backoff(interval, self.count);
            return true;
        }
        false
    }
}

/// Narrows a nanosecond span to the `u32` attribution fields. Simulated
/// runs are orders of magnitude below the ~4.3 s cap; saturate rather
/// than wrap if one ever is not.
fn ns32(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

/// The kernel of one simulated server node.
pub struct Kernel {
    cfg: KernelConfig,
    node: NodeId,
    table: PStateTable,
    cores: Vec<Core>,
    nic: Nic,
    cpufreq: Box<dyn CpufreqGovernor + Send>,
    cpuidle: Box<dyn CpuidleGovernor + Send>,
    app: Box<dyn ServerApp + Send>,
    ncap_driver: Option<EnhancedDriver>,
    ncap_sw: Option<SoftwareNcap>,

    desired_pstate: cpusim::PStateId,
    menu_disabled: bool,
    ondemand_suspended_until: SimTime,
    last_gov_sample: SimTime,
    last_busy: Vec<desim::SimDuration>,

    run_queue: RunQueue,
    /// Bypass datapath: the userspace RX/TX descriptor ring busy-poll
    /// cores drain. Always empty on the kernel datapath.
    poll_queue: bypass::UserRing<Work>,
    current: Vec<Option<Work>>,
    job_slots: Vec<TimerSlot>,
    wake_slots: Vec<TimerSlot>,
    sleep_since: Vec<SimTime>,
    isr_pending: Vec<bool>,
    /// When each core's in-progress wake will complete (valid while the
    /// matching `wake_slots` entry is armed). Attribution only.
    wake_eta: Vec<SimTime>,
    /// Per NIC queue: the `(begin, done)` window of the C-state wake the
    /// last asserted interrupt had to wait out (both zero when the
    /// servicing core was already awake). Attribution only.
    irq_wake: Vec<(SimTime, SimTime)>,

    power: PowerModel,
    uncore: EnergyMeter,
    uncore_sync: SimTime,

    requests: netsim::IdMap<ReqState>,
    seen: netsim::IdMap<DupState>,
    /// Resolved `seen` entries waiting out their linger.
    seen_wait: netsim::TimeWait,
    /// Attribution records of `Done` requests, so a replayed response
    /// still tiles the client-observed latency (the original-to-replay
    /// gap is charged to `replay_ns`). Measurement sideband: a record is
    /// released when the client resolves its request
    /// ([`Kernel::release_replay`]) or when its `Done` entry retires.
    replay_stages: netsim::IdMap<netsim::StageRecord>,
    next_token: u64,
    tx_backlog: VecDeque<Packet>,
    completed_responses: u64,
    wake_marker_times: Vec<SimTime>,
    stats: KernelStats,

    /// RX-softirq items currently in the run queue, per NIC queue
    /// (overload accounting for the per-RSS backlog cap).
    rx_backlog: Vec<usize>,
    /// TX stack work items currently in the run queue (departures are
    /// capped separately from admissions).
    tx_in_queue: usize,
    /// High-water mark of the run-queue depth (memory proxy).
    max_run_queue: usize,
    codel: CoDelState,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("node", &self.node)
            .field("cores", &self.cores.len())
            .field("cpufreq", &self.cpufreq.name())
            .field("cpuidle", &self.cpuidle.name())
            .field("app", &self.app.name())
            .field("desired_pstate", &self.desired_pstate)
            .field("run_queue", &self.run_queue.len())
            .field("in_flight_requests", &self.requests.len())
            .finish()
    }
}

impl Kernel {
    /// Builds a kernel.
    #[must_use]
    pub fn new(
        cfg: KernelConfig,
        node: NodeId,
        nic: Nic,
        cpufreq: Box<dyn CpufreqGovernor + Send>,
        cpuidle: Box<dyn CpuidleGovernor + Send>,
        app: Box<dyn ServerApp + Send>,
    ) -> Self {
        let table = PStateTable::i7_like();
        let power = PowerModel::i7_like();
        let n = cfg.cores as usize;
        let mut nic = nic;
        let poll_cores = if cfg.datapath.bypasses_kernel() {
            // Hand RX ring ownership to the userspace poll-mode driver;
            // no interrupts, moderation timers or on-NIC inspection.
            nic.set_poll_mode();
            cfg.bypass.poll_cores as usize
        } else {
            0
        };
        let cores = (0..cfg.cores)
            .map(|i| {
                // Busy-poll cores are pinned at the max P-state from boot
                // and never consult the governors.
                let p = if (i as usize) < poll_cores {
                    table.fastest()
                } else {
                    cfg.initial_pstate
                };
                Core::new(CoreId(i), table.clone(), power.clone(), p)
            })
            .collect();
        let isr_pending = vec![false; nic.queue_count()];
        let irq_wake = vec![(SimTime::ZERO, SimTime::ZERO); nic.queue_count()];
        let rx_backlog = vec![0; nic.queue_count()];
        Kernel {
            rx_backlog,
            tx_in_queue: 0,
            max_run_queue: 0,
            codel: CoDelState::default(),
            power,
            uncore: EnergyMeter::new(),
            uncore_sync: SimTime::ZERO,
            desired_pstate: cfg.initial_pstate,
            table,
            cores,
            nic,
            cpufreq,
            cpuidle,
            app,
            ncap_driver: None,
            ncap_sw: None,
            menu_disabled: false,
            ondemand_suspended_until: SimTime::ZERO,
            last_gov_sample: SimTime::ZERO,
            last_busy: vec![desim::SimDuration::ZERO; n],
            run_queue: RunQueue::new(n),
            poll_queue: bypass::UserRing::new(),
            current: std::iter::repeat_with(|| None).take(n).collect(),
            job_slots: vec![TimerSlot::new(); n],
            wake_slots: vec![TimerSlot::new(); n],
            sleep_since: vec![SimTime::ZERO; n],
            wake_eta: vec![SimTime::ZERO; n],
            isr_pending,
            irq_wake,
            requests: netsim::IdMap::default(),
            seen: netsim::IdMap::default(),
            seen_wait: netsim::TimeWait::default(),
            replay_stages: netsim::IdMap::default(),
            next_token: 0,
            tx_backlog: VecDeque::new(),
            completed_responses: 0,
            wake_marker_times: Vec::new(),
            stats: KernelStats::default(),
            node,
            cfg,
        }
    }

    /// Attaches the NCAP-enhanced driver (hardware NCAP policies).
    #[must_use]
    pub fn with_ncap_driver(mut self, driver: EnhancedDriver) -> Self {
        self.ncap_driver = Some(driver);
        self
    }

    /// Attaches the software NCAP implementation (`ncap.sw`).
    #[must_use]
    pub fn with_software_ncap(mut self, sw: SoftwareNcap) -> Self {
        self.ncap_sw = Some(sw);
        self
    }

    /// Lets resolved duplicate-suppression entries retire once `linger`
    /// has passed since this node first saw their request (the cluster
    /// passes [`netsim::FaultConfig::linger`]). Without this call they are
    /// kept for the whole run.
    pub fn set_dedup_linger(&mut self, linger: desim::SimDuration) {
        self.seen_wait.set_linger(linger);
    }

    /// Live duplicate-suppression entries (in flight plus lingering).
    #[must_use]
    pub fn dedup_entries(&self) -> usize {
        self.seen.len()
    }

    /// Replay attribution records still held.
    #[must_use]
    pub fn replay_records(&self) -> usize {
        self.replay_stages.len()
    }

    /// Drops the replay attribution record of `rid`: its client resolved
    /// the request, so no replay of it can be consumed any more. A later
    /// replay still goes out, with an empty record.
    pub fn release_replay(&mut self, rid: u64) {
        self.replay_stages.remove(&rid);
    }

    /// Records that `rid` resolved as `state`: its entry now waits out
    /// its linger, counted from when the request was first seen here.
    fn close_dup(&mut self, now: SimTime, rid: u64, state: DupState) {
        let since = match self.seen.insert(rid, state) {
            Some(DupState::InFlight { since }) => since,
            _ => now,
        };
        self.seen_wait.close(rid, since);
    }

    /// Boots the node: applies the static governor (or schedules the
    /// dynamic one), arms the MITT and the `ncap.sw` timer, and lets idle
    /// cores consult cpuidle.
    pub fn init(&mut self, now: SimTime, fx: &mut Effects) {
        match self.cpufreq.period() {
            None => {
                self.desired_pstate =
                    self.cpufreq
                        .target(now, 0.0, self.cfg.initial_pstate, &self.table);
                self.apply_pstates(now, fx);
            }
            Some(p) => {
                self.last_gov_sample = now;
                fx.at(now + p, NodeEvent::GovernorTick);
                // Write the initial status back so NCAP's mirror is sane.
                self.writeback_freq_status();
            }
        }
        if !self.cfg.datapath.bypasses_kernel() {
            let mitt = self.nic.start_mitt(now);
            fx.at(mitt, NodeEvent::MittExpired);
        }
        if let Some(sw) = &self.ncap_sw {
            fx.at(now + sw.timer_period(), NodeEvent::NcapSwTimer);
        }
        for ci in 0..self.cores.len() {
            if self.cores[ci].is_idle() {
                self.idle_enter(now, ci);
            }
        }
    }

    /// Bills package/uncore power for the interval since the last event,
    /// using the core states that held throughout it (all state changes
    /// happen inside event handlers, so the interval is homogeneous).
    fn sync_uncore(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.uncore_sync);
        if dt.is_zero() {
            return;
        }
        self.uncore_sync = now;
        let mut any_awake = false;
        let mut all_c6 = true;
        for c in &self.cores {
            match c.state_kind() {
                CoreStateKind::Active | CoreStateKind::Waking(_) => {
                    any_awake = true;
                    all_c6 = false;
                }
                CoreStateKind::Asleep(s) => {
                    if s != CState::C6 {
                        all_c6 = false;
                    }
                }
            }
        }
        let w = if any_awake {
            self.power.uncore_active()
        } else if all_c6 {
            self.power.uncore_gated()
        } else {
            self.power.uncore_sleep()
        };
        self.uncore.accumulate(PowerMode::Uncore, w, dt);
    }

    /// Handles one event, appending what follows from it to `fx`. The
    /// single entry point for the event loop.
    pub fn handle(&mut self, now: SimTime, event: NodeEvent, fx: &mut Effects) {
        self.sync_uncore(now);
        match event {
            NodeEvent::FrameFromWire(frame) => self.on_frame_from_wire(now, frame, fx),
            NodeEvent::RxDmaComplete { queue } => {
                if let Some((deadline, gen)) = self.nic.rx_dma_complete(now, queue as usize) {
                    fx.at(deadline, NodeEvent::ModerationDelay { queue, gen });
                }
            }
            NodeEvent::ModerationDelay { queue, gen } => {
                if self.nic.delay_expired(now, queue as usize, gen) {
                    self.deliver_irq(now, queue as usize, fx);
                }
            }
            NodeEvent::MittExpired => self.on_mitt(now, fx),
            NodeEvent::JobDone { core, gen } => self.on_job_done(now, core as usize, gen, fx),
            NodeEvent::WakeDone { core, gen } => self.on_wake_done(now, core as usize, gen, fx),
            NodeEvent::GovernorTick => self.on_governor_tick(now, fx),
            NodeEvent::NcapSwTimer => self.on_sw_timer(now, fx),
            NodeEvent::IoDone { token } => self.advance_request(now, token, fx),
            NodeEvent::TxWire { frame } => self.on_tx_wire(now, frame, fx),
            NodeEvent::PollRx { queue } => self.on_poll_rx(now, queue as usize, fx),
        }
    }

    /// Cores dedicated to busy-polling (the lowest-numbered ones); zero
    /// on the interrupt-driven datapaths.
    #[must_use]
    pub fn poll_core_count(&self) -> usize {
        if self.cfg.datapath.bypasses_kernel() {
            self.cfg.bypass.poll_cores as usize
        } else {
            0
        }
    }

    // ----- RX path -------------------------------------------------------

    fn on_frame_from_wire(&mut self, now: SimTime, mut frame: Packet, fx: &mut Effects) {
        // Attribution anchor: the frame is fully off the wire. Everything
        // until the SoftIRQ drain is NIC-resident time (DMA, moderation
        // hold, interrupt servicing, wake latency).
        frame.meta_mut().stages.arrival = now;
        let out = self.nic.frame_arrived(now, frame);
        if self.cfg.datapath.bypasses_kernel() {
            // Poll mode: no interrupts. The busy-poll loop spins
            // continuously, so it notices the frame the moment its DMA
            // lands in the userspace ring.
            if let Some(t) = out.dma_complete_at {
                fx.at(
                    t,
                    NodeEvent::PollRx {
                        queue: out.queue as u8,
                    },
                );
            }
            return;
        }
        if out.immediate_irq {
            // NCAP CIT rule: a proactive wake-up interrupt.
            self.wake_marker_times.push(now);
            self.deliver_irq(now, out.queue, fx);
        } else if out.overflow_irq {
            // Receiver overrun (RXO): drain the ring immediately — but do
            // NOT record an NCAP wake marker; this is congestion
            // backpressure, not a packet-context decision.
            self.deliver_irq(now, out.queue, fx);
        }
        if let Some(t) = out.dma_complete_at {
            fx.at(
                t,
                NodeEvent::RxDmaComplete {
                    queue: out.queue as u8,
                },
            );
        }
    }

    fn on_mitt(&mut self, now: SimTime, fx: &mut Effects) {
        let (next, raised) = self.nic.mitt_expired(now);
        fx.at(next, NodeEvent::MittExpired);
        for queue in raised {
            self.deliver_irq(now, queue, fx);
        }
        // Opportunistic retry of P-state application for cores that were
        // mid-transition when the last change was requested.
        self.apply_pstates(now, fx);
    }

    /// The core servicing a queue's MSI-X vector: vectors are distributed
    /// round-robin across cores, as irqbalance pins them.
    fn irq_core(&self, queue: usize) -> usize {
        queue % self.cores.len()
    }

    fn deliver_irq(&mut self, now: SimTime, queue: usize, fx: &mut Effects) {
        // Offload datapath: the NCAP decision engine lives on the NIC, so
        // packet-context actions (wakes, boosts, menu gating) apply the
        // moment the vector asserts — before the host ISR is even
        // scheduled, and overlapping any C-state wake it must wait out.
        if self.cfg.datapath.offloads_ncap() {
            let icr = self.nic.read_icr(queue);
            self.apply_ncap_icr(now, icr, fx);
        }
        if self.isr_pending[queue] {
            return; // level-triggered: causes accumulate in the vector
        }
        self.isr_pending[queue] = true;
        if simtrace::is_enabled() {
            let t = now.as_nanos();
            simtrace::instant_args("kernel", "hardirq", t, &[simtrace::arg("queue", queue)]);
            simtrace::metric_add("kernel", "hardirqs", t, 1.0);
        }
        let core = self.irq_core(queue);
        let isr = Work::cycles(self.cfg.isr_cycles, WorkKind::Isr { queue: queue as u8 })
            .on_core(core as u8)
            .queued_at(now);
        // The on-NIC engine already consumed the causes, so an offload
        // ISR skips the PCIe ICR read stall on its critical path.
        let isr = if self.cfg.datapath.offloads_ncap() {
            isr
        } else {
            isr.with_fixed(self.nic.config().icr_read_latency)
        };
        // ISRs are exempt from admission control: at most one per vector
        // is pending (level-triggered dedup above), and dropping one would
        // wedge the queue it services.
        self.run_queue.push_front(isr);
        self.note_queue_depth(now);
        // Attribution: note the wake window this interrupt waits out, so
        // the drain can split NIC hold from C-state wake latency.
        match self.cores[core].state_kind() {
            CoreStateKind::Asleep(_) => {
                self.wake_core(now, core, fx);
                self.irq_wake[queue] = (now, self.wake_eta[core]);
            }
            CoreStateKind::Waking(_) => {
                self.irq_wake[queue] = (now, self.wake_eta[core]);
            }
            CoreStateKind::Active => {
                self.irq_wake[queue] = (SimTime::ZERO, SimTime::ZERO);
            }
        }
        self.try_dispatch(now, fx);
    }

    /// Bypass datapath: a frame's RX DMA landed in the userspace ring and
    /// the busy-poll loop picks it up now. Mirrors the NAPI drain's
    /// backlog accounting, but queues thin userspace RX work on the poll
    /// ring instead of SoftIRQ work on the kernel run queue.
    fn on_poll_rx(&mut self, now: SimTime, queue: usize, fx: &mut Effects) {
        // Advance the DMA machinery (stamps `dma_done`, parks the frame
        // in the ring); poll mode arms no timers and raises no causes.
        let _ = self.nic.rx_dma_complete(now, queue);
        let ov = self.cfg.overload;
        let mut polled = 0u64;
        while let Some(frame) = self.nic.fetch_rx(queue) {
            // The per-RSS backlog cap applies exactly as at the NAPI
            // drain: excess frames are tail-dropped, clients recover via
            // RTO.
            if ov.shedding()
                && ov
                    .rx_backlog_cap
                    .is_some_and(|cap| self.rx_backlog[queue] >= cap)
            {
                self.stats.backlog_sheds += 1;
                if simtrace::is_enabled() {
                    simtrace::metric_add("kernel", "backlog_sheds", now.as_nanos(), 1.0);
                }
                continue;
            }
            self.rx_backlog[queue] += 1;
            self.stats.polled_frames += 1;
            polled += 1;
            self.poll_queue.push(
                Work::cycles(
                    self.cfg.bypass.poll_rx_cycles,
                    WorkKind::PollRx {
                        frame,
                        queue: queue as u8,
                    },
                )
                .queued_at(now),
            );
        }
        if simtrace::is_enabled() && polled > 0 {
            let t = now.as_nanos();
            simtrace::metric_add("kernel", "polled_frames", t, polled as f64);
            simtrace::metric_set("kernel", "poll_ring_depth", t, self.poll_queue.len() as f64);
        }
        self.try_dispatch_poll(now, fx);
    }

    /// Assigns poll-ring descriptors to idle busy-poll cores, in FIFO
    /// order. Poll cores are always awake, so no wake path is needed; a
    /// no-op when the ring is empty (every kernel-datapath call).
    fn try_dispatch_poll(&mut self, now: SimTime, fx: &mut Effects) {
        let p = self.poll_core_count();
        while !self.poll_queue.is_empty() {
            let Some(ci) = (0..p).find(|&ci| self.cores[ci].is_idle()) else {
                break;
            };
            let work = self.poll_queue.pop().expect("ring checked non-empty");
            self.start_work(now, ci, work, fx);
        }
    }

    // ----- scheduler -----------------------------------------------------

    fn wake_core(&mut self, now: SimTime, ci: usize, fx: &mut Effects) {
        if self.wake_slots[ci].is_armed() {
            return; // wake already in progress
        }
        if let Ok(ready) = self.cores[ci].begin_wake(now) {
            self.stats.core_wakes += 1;
            if simtrace::is_enabled() {
                let t = now.as_nanos();
                simtrace::instant_args("kernel", "core_wake", t, &[simtrace::arg("core", ci)]);
                simtrace::metric_add("kernel", "core_wakes", t, 1.0);
            }
            let done = ready + self.cfg.mwait_wake_overhead;
            let gen = self.wake_slots[ci].arm(done);
            self.wake_eta[ci] = done;
            fx.at(
                done,
                NodeEvent::WakeDone {
                    core: ci as u8,
                    gen,
                },
            );
        }
    }

    fn start_work(&mut self, now: SimTime, ci: usize, mut work: Work, fx: &mut Effects) {
        work.started_at = now;
        // §7 per-core boost: a core receiving work during a burst joins
        // the boosted frequency only now, instead of chip-wide at IT_HIGH.
        // Busy-poll cores are already pinned at max and never rejoin.
        if self.cfg.per_core_boost
            && self.menu_disabled
            && ci >= self.poll_core_count()
            && self.cores[ci].goal_pstate() > self.desired_pstate
        {
            let _ = self.cores[ci].set_pstate(now, self.desired_pstate);
        }
        let freq = self.cores[ci].freq_hz() as f64;
        let total = work.cycles as f64 + work.fixed.as_secs_f64() * freq;
        let eta = self.cores[ci]
            .begin_job(now, total)
            .expect("dispatch target must be idle and awake");
        let gen = self.job_slots[ci].arm(eta);
        fx.at(
            eta,
            NodeEvent::JobDone {
                core: ci as u8,
                gen,
            },
        );
        simtrace::span_begin_args(
            "kernel",
            "work",
            now.as_nanos(),
            ci as u32,
            &[simtrace::arg("kind", work.kind.label())],
        );
        self.current[ci] = Some(work);
    }

    fn try_dispatch(&mut self, now: SimTime, fx: &mut Effects) {
        // Assign queue entries to idle cores, respecting affinity,
        // skipping over blocked entries so affinity cannot head-of-line
        // block unrelated work. Non-affine (application) work prefers the
        // highest idle core: core 0 carries the IRQ/SoftIRQ load of the
        // single-queue NIC, and a Linux scheduler keeps application
        // threads off it while others are free. Busy-poll cores (below
        // the floor) take no application work at all.
        let floor = self.poll_core_count();
        while let Some(pick) = self.run_queue.pick(|c| self.cores[c].is_idle(), floor) {
            let work = self.run_queue.pop(pick);
            self.start_work(now, pick.core, work, fx);
        }
        // Wake sleeping cores for whatever remains queued.
        if self.run_queue.is_empty() {
            return;
        }
        let asleep = (0..self.cores.len())
            .filter(|&c| matches!(self.cores[c].state_kind(), CoreStateKind::Asleep(_)))
            .collect();
        let mut pass = self.run_queue.wake_pass(asleep);
        while let Some(ci) = pass.next_core(&self.run_queue) {
            self.wake_core(now, ci, fx);
        }
    }

    fn on_job_done(&mut self, now: SimTime, ci: usize, gen: u64, fx: &mut Effects) {
        if !self.job_slots[ci].fires(gen) {
            return; // superseded by a frequency-change reschedule
        }
        self.cores[ci]
            .complete_job(now)
            .expect("job slot fired without a job");
        let work = self.current[ci].take().expect("current work recorded");
        simtrace::span_end("kernel", "work", now.as_nanos(), ci as u32);
        self.complete_work(now, work, fx);
        self.try_dispatch(now, fx);
        self.try_dispatch_poll(now, fx);
        if self.cores[ci].is_idle() {
            self.idle_enter(now, ci);
        }
    }

    fn on_wake_done(&mut self, now: SimTime, ci: usize, gen: u64, fx: &mut Effects) {
        if !self.wake_slots[ci].fires(gen) {
            return;
        }
        self.cores[ci].sync(now);
        let slept = now.saturating_since(self.sleep_since[ci]);
        self.cpuidle.note_idle_end(ci, now, slept);
        // Chip-wide frequency: the core rejoins at the current goal.
        let _ = self.cores[ci].set_pstate(now, self.desired_pstate);
        self.try_dispatch(now, fx);
        if self.cores[ci].is_idle() {
            self.idle_enter(now, ci);
        }
    }

    fn idle_enter(&mut self, now: SimTime, ci: usize) {
        // Poll-mode stacks have no interrupt to wake a sleeping core:
        // the poll cores spin on the NIC rings, and the worker cores
        // spin-wait on the work queue (blocking would need a kernel
        // wakeup path the bypass datapath deliberately lacks). Every
        // core stays in C0 — the poll cores pinned at max P-state, the
        // workers at whatever P-state ondemand picked — which is the
        // flat worst-case energy bill busy-polling pays at low load.
        if self.cfg.datapath.bypasses_kernel() {
            return;
        }
        // NCAP burst guard: stay in C0. Under the §7 per-core extension
        // the guard covers only the known packet-processing target
        // (core 0); other cores keep their cpuidle autonomy.
        if self.menu_disabled && (!self.cfg.per_core_boost || ci == 0) {
            return;
        }
        if let Some(c) = self.cpuidle.select(ci, now) {
            if self.cores[ci].enter_sleep(now, c).is_ok() {
                self.sleep_since[ci] = now;
            }
        }
    }

    // ----- overload protection -------------------------------------------

    /// Records the run-queue depth high-water mark (the memory proxy)
    /// and the `kernel.queue_depth` gauge.
    fn note_queue_depth(&mut self, now: SimTime) {
        let depth = self.run_queue.len();
        if depth > self.max_run_queue {
            self.max_run_queue = depth;
        }
        if simtrace::is_enabled() {
            simtrace::metric_set("kernel", "queue_depth", now.as_nanos(), depth as f64);
        }
    }

    /// Run-queue depth excluding TX stack work — what admission control
    /// compares against `run_queue_cap` (departures must not starve).
    ///
    /// `tx_in_queue` also counts a TX job from dispatch until its cycles
    /// finish (it left the run queue but still holds its departure
    /// slot), so it can transiently exceed the queued TX count — the
    /// subtraction must saturate or an executing TX job over an empty
    /// queue reads as a huge backlog and sheds every admission.
    fn admit_backlog(&self) -> usize {
        self.run_queue.len().saturating_sub(self.tx_in_queue)
    }

    /// `true` when shedding is armed and the non-TX queue depth is at or
    /// past the admission capacity.
    fn run_queue_full(&self) -> bool {
        let ov = &self.cfg.overload;
        ov.shedding()
            && ov
                .run_queue_cap
                .is_some_and(|cap| self.admit_backlog() >= cap)
    }

    /// Consults the active shed policy at admission time. Returns the
    /// reason to shed this request, or `None` to admit it.
    fn admission_sheds(
        &mut self,
        now: SimTime,
        meta: &netsim::PacketMeta,
        sojourn: desim::SimDuration,
    ) -> Option<&'static str> {
        let ov = self.cfg.overload;
        if !ov.shedding() {
            return None;
        }
        if ov
            .run_queue_cap
            .is_some_and(|cap| self.admit_backlog() >= cap)
        {
            return Some("queue-full");
        }
        match ov.policy {
            ShedPolicy::Deadline => {
                let deadline = meta.deadline.or(ov.default_deadline)?;
                (now.saturating_since(meta.sent_at) >= deadline).then_some("deadline")
            }
            ShedPolicy::CoDel => self
                .codel
                .should_shed(now, sojourn, ov.codel_target, ov.codel_interval)
                .then_some("codel"),
            ShedPolicy::None | ShedPolicy::DropTail => None,
        }
    }

    /// Refuses request `rid` with the cheap 503-style response and
    /// records the outcome so duplicate retransmissions replay it.
    fn reject(
        &mut self,
        now: SimTime,
        dst: NodeId,
        rid: u64,
        sent_at: SimTime,
        reason: &'static str,
        fx: &mut Effects,
    ) {
        self.stats.rejected += 1;
        if self.cfg.reliable {
            self.close_dup(now, rid, DupState::Rejected);
        }
        if simtrace::is_enabled() {
            let t = now.as_nanos();
            simtrace::instant_args(
                "kernel",
                "rejected",
                t,
                &[simtrace::arg("id", rid), simtrace::arg("reason", reason)],
            );
            simtrace::metric_add("kernel", "rejected", t, 1.0);
        }
        // The 503 costs no stack cycles — it goes straight to the NIC,
        // which is the whole point: rejection must stay cheap when the
        // CPUs are the saturated resource.
        let frame = Packet::reject_response(self.node, dst, rid, sent_at);
        self.complete_tx(now, frame, fx);
    }

    // ----- work completion actions ---------------------------------------

    fn complete_work(&mut self, now: SimTime, work: Work, fx: &mut Effects) {
        let enqueued_at = work.enqueued_at;
        match work.kind {
            WorkKind::Isr { queue } => {
                self.stats.isrs += 1;
                self.complete_isr(now, queue as usize, fx);
            }
            WorkKind::SoftIrqRx { frame, queue } => {
                self.stats.softirq_rx += 1;
                let sojourn = now.saturating_since(enqueued_at);
                self.complete_rx(now, &frame, queue as usize, sojourn, fx);
            }
            WorkKind::App { token } => {
                self.stats.app_jobs += 1;
                // Attribution: split this phase into run-queue wait
                // (enqueue → dispatch) and execution (dispatch → done).
                if let Some(state) = self.requests.get_mut(&token) {
                    let started_at = work.started_at;
                    let st = &mut state.stages;
                    st.rq_wait_ns = ns32(
                        u64::from(st.rq_wait_ns)
                            + started_at.as_nanos().saturating_sub(enqueued_at.as_nanos()),
                    );
                    st.cpu_ns = ns32(
                        u64::from(st.cpu_ns) + now.as_nanos().saturating_sub(started_at.as_nanos()),
                    );
                }
                self.advance_request(now, token, fx);
            }
            WorkKind::SoftIrqTx { frame } => {
                self.stats.softirq_tx += 1;
                self.tx_in_queue = self.tx_in_queue.saturating_sub(1);
                self.complete_tx(now, frame, fx);
            }
            WorkKind::PollRx { mut frame, queue } => {
                // Attribution: everything from DMA completion to this
                // instant — ring residency, poll pickup and userspace RX
                // processing — is the `poll_wait` stage. It replaces
                // `moderation + wake + stack` on the bypass path, so the
                // per-request tiling identity still closes.
                {
                    let st = &mut frame.meta_mut().stages;
                    st.poll_wait_ns = ns32(now.as_nanos().saturating_sub(st.dma_done.as_nanos()));
                }
                self.complete_rx(now, &frame, queue as usize, desim::SimDuration::ZERO, fx);
            }
            WorkKind::Overhead => {}
        }
    }

    /// Applies the NCAP flags of a consumed ICR: the IT_HIGH wake marker
    /// and the driver's decision-engine action. On the kernel datapath
    /// this runs in the host ISR; on the offload datapath the on-NIC
    /// engine runs it at interrupt-assert time.
    fn apply_ncap_icr(&mut self, now: SimTime, icr: IcrFlags, fx: &mut Effects) {
        if icr.contains(IcrFlags::IT_HIGH) {
            self.wake_marker_times.push(now);
        }
        if let Some(driver) = self.ncap_driver.as_mut() {
            if icr.contains(IcrFlags::IT_HIGH) || icr.contains(IcrFlags::IT_LOW) {
                let action = driver.handle_interrupt(icr, self.desired_pstate, &self.table);
                self.apply_driver_action(now, action, fx);
            }
        }
    }

    fn complete_isr(&mut self, now: SimTime, queue: usize, fx: &mut Effects) {
        self.isr_pending[queue] = false;
        let icr = self.nic.read_icr(queue);
        if !self.cfg.datapath.offloads_ncap() {
            // Kernel datapath: the host ISR reads the causes and runs the
            // NCAP decision engine. Under offload the on-NIC engine
            // already consumed them at assert time; any flags left here
            // are silently-accumulated IT_RX/IT_TX with no action
            // attached.
            self.apply_ncap_icr(now, icr, fx);
        }
        // NAPI-style drain: one SoftIRQ work item per DMA-completed frame,
        // pinned to the vector's core (RSS keeps a flow's processing
        // local). A TOE-capable NIC absorbs part of the protocol work (§7).
        let sw_cost = self
            .ncap_sw
            .as_ref()
            .map_or(0, |_| ncap::SW_PER_PACKET_CYCLES);
        let stack = (self.cfg.rx_stack_cycles as f64 * self.nic.stack_cycle_factor()) as u64;
        let core = self.irq_core(queue) as u8;
        let ov = self.cfg.overload;
        let mut drained = 0u64;
        let mut shed = 0u64;
        while let Some(mut frame) = self.nic.fetch_rx(queue) {
            drained += 1;
            // Attribution: tile [arrival, drain] into DMA + wake + moderation.
            // The wake share is the overlap of the interrupt's wake window
            // with the frame's residency; the remainder is the moderation /
            // ring hold. Sums are exact by construction.
            {
                let (wake_begin, wake_done) = self.irq_wake[queue];
                let st = &mut frame.meta_mut().stages;
                let arrival = st.arrival.as_nanos();
                let span = now.as_nanos().saturating_sub(arrival);
                let dma = st.dma_done.as_nanos().saturating_sub(arrival).min(span);
                let wake = if wake_done > wake_begin {
                    wake_done
                        .as_nanos()
                        .saturating_sub(wake_begin.max(st.arrival).as_nanos())
                        .min(span - dma)
                } else {
                    0
                };
                st.wake_ns = ns32(wake);
                st.moderation_ns = ns32(span - dma - wake);
            }
            // Per-RSS backlog cap: frames beyond it are tail-dropped at
            // the drain, exactly as if the ring itself had overflowed —
            // clients recover via RTO.
            if ov.shedding()
                && ov
                    .rx_backlog_cap
                    .is_some_and(|cap| self.rx_backlog[queue] >= cap)
            {
                self.stats.backlog_sheds += 1;
                shed += 1;
                continue;
            }
            self.rx_backlog[queue] += 1;
            self.run_queue.push_back(
                Work::cycles(
                    stack + sw_cost,
                    WorkKind::SoftIrqRx {
                        frame,
                        queue: queue as u8,
                    },
                )
                .on_core(core)
                .queued_at(now),
            );
        }
        self.note_queue_depth(now);
        if simtrace::is_enabled() {
            let t = now.as_nanos();
            simtrace::instant_args(
                "kernel",
                "ring_drain",
                t,
                &[
                    simtrace::arg("queue", queue),
                    simtrace::arg("frames", drained),
                ],
            );
            simtrace::metric_add("kernel", "rx_ring_drained", t, drained as f64);
            if shed > 0 {
                simtrace::metric_add("kernel", "backlog_sheds", t, shed as f64);
            }
        }
        self.try_dispatch(now, fx);
    }

    fn complete_rx(
        &mut self,
        now: SimTime,
        frame: &Packet,
        queue: usize,
        sojourn: desim::SimDuration,
        fx: &mut Effects,
    ) {
        self.rx_backlog[queue] = self.rx_backlog[queue].saturating_sub(1);
        if let Some(sw) = self.ncap_sw.as_mut() {
            sw.on_rx_packet(frame);
        }
        let Some(rid) = frame.meta().request_id else {
            return;
        };
        if self.cfg.reliable {
            match self.seen.get(&rid) {
                // The original is still being processed: drop the
                // retransmitted duplicate without any application work —
                // a retransmission must not double-serve a request (or
                // spuriously re-trigger NCAP's request machinery in
                // software).
                Some(DupState::InFlight { .. }) => {
                    self.stats.dup_suppressed += 1;
                    if simtrace::is_enabled() {
                        let t = now.as_nanos();
                        simtrace::instant_args(
                            "kernel",
                            "dup_suppressed",
                            t,
                            &[simtrace::arg("id", rid)],
                        );
                        simtrace::metric_add("kernel", "dup_suppressed", t, 1.0);
                    }
                    return;
                }
                // Already answered: the response (or its tail) was lost —
                // replay it without re-running the application.
                Some(&DupState::Done { response_bytes }) => {
                    self.stats.resp_replays += 1;
                    if simtrace::is_enabled() {
                        let t = now.as_nanos();
                        simtrace::instant_args(
                            "kernel",
                            "resp_replay",
                            t,
                            &[simtrace::arg("id", rid)],
                        );
                        simtrace::metric_add("kernel", "resp_replays", t, 1.0);
                    }
                    // Charge the gap since the original (or previous replay)
                    // response to `replay_ns` so the record still tiles the
                    // latency the client finally observes. A released
                    // record means the client already resolved the request
                    // and will absorb this replay unread.
                    let stages = match self.replay_stages.get_mut(&rid) {
                        Some(st) => {
                            st.replay_ns = ns32(
                                u64::from(st.replay_ns)
                                    + now.as_nanos().saturating_sub(st.app_done.as_nanos()),
                            );
                            st.app_done = now;
                            *st
                        }
                        None => netsim::StageRecord {
                            app_done: now,
                            ..netsim::StageRecord::default()
                        },
                    };
                    self.emit_response(
                        now,
                        Response {
                            dst: frame.src(),
                            request_id: rid,
                            bytes: response_bytes,
                            sent_at: frame.meta().sent_at,
                            stages,
                        },
                        fx,
                    );
                    return;
                }
                // Already rejected: replay the 503 — never re-admit, even
                // if capacity has since freed up, so the client's view of
                // this request stays consistent.
                Some(DupState::Rejected) => {
                    self.stats.reject_replays += 1;
                    if simtrace::is_enabled() {
                        let t = now.as_nanos();
                        simtrace::instant_args(
                            "kernel",
                            "reject_replay",
                            t,
                            &[simtrace::arg("id", rid)],
                        );
                        simtrace::metric_add("kernel", "reject_replays", t, 1.0);
                    }
                    let nack =
                        Packet::reject_response(self.node, frame.src(), rid, frame.meta().sent_at);
                    self.complete_tx(now, nack, fx);
                    return;
                }
                // A fresh request: retire what has waited out its linger
                // as the table grows.
                None => {
                    let (seen, records) = (&mut self.seen, &mut self.replay_stages);
                    self.seen_wait.retire(now, |id| {
                        if !matches!(seen.get(&id), Some(DupState::InFlight { .. })) {
                            seen.remove(&id);
                            records.remove(&id);
                        }
                    });
                }
            }
        }
        let info = RequestInfo {
            id: rid,
            src: frame.src(),
            sent_at: frame.meta().sent_at,
            payload: frame.payload_bytes(),
        };
        let Some(mut plan) = self.app.plan(now, &info) else {
            return;
        };
        if self.cfg.datapath.bypasses_kernel() {
            // Zero-copy service loop: the request payload is handed to
            // the application straight out of the userspace ring, so
            // the serving loop skips the socket-API copies and syscall
            // crossings the kernel-path app cycle budget includes.
            let keep = u64::from(self.cfg.bypass.app_cycle_permille);
            for phase in &mut plan.phases {
                if let AppPhase::Cpu { cycles } = phase {
                    *cycles = *cycles * keep / 1_000;
                }
            }
        }
        // Admission control: shed the request *before* it consumes any
        // application resources. The rejection is observable (503), so
        // clients distinguish it from loss.
        if let Some(reason) = self.admission_sheds(now, &frame.meta(), sojourn) {
            self.reject(now, info.src, rid, info.sent_at, reason, fx);
            return;
        }
        if self.cfg.reliable {
            self.seen.insert(rid, DupState::InFlight { since: now });
        }
        let token = self.next_token;
        self.next_token += 1;
        let mut stages = frame.meta().stages;
        stages.stack_ns = ns32(sojourn.as_nanos());
        self.requests.insert(
            token,
            ReqState {
                info,
                phases: plan.phases.into(),
                response_bytes: plan.response_bytes,
                stages,
            },
        );
        self.advance_request(now, token, fx);
    }

    fn advance_request(&mut self, now: SimTime, token: u64, fx: &mut Effects) {
        let Some(state) = self.requests.get_mut(&token) else {
            return;
        };
        match state.phases.pop_front() {
            Some(AppPhase::Cpu { cycles }) => {
                // A request needing CPU while admission is saturated is
                // aborted with the same 503 a fresh arrival would get —
                // keeping it would let in-flight work breach the queue
                // bound. (The first CPU phase never trips this: admission
                // just verified the queue has room.)
                if self.run_queue_full() {
                    let state = self.requests.remove(&token).expect("fetched above");
                    self.reject(
                        now,
                        state.info.src,
                        state.info.id,
                        state.info.sent_at,
                        "queue-full",
                        fx,
                    );
                    return;
                }
                self.run_queue
                    .push_back(Work::cycles(cycles, WorkKind::App { token }).queued_at(now));
                self.note_queue_depth(now);
                self.try_dispatch(now, fx);
            }
            Some(AppPhase::Io { wait }) => {
                state.stages.io_ns = ns32(u64::from(state.stages.io_ns) + wait.as_nanos());
                fx.at(now + wait, NodeEvent::IoDone { token });
            }
            None => {
                let state = self.requests.remove(&token).expect("present above");
                self.completed_responses += 1;
                let mut stages = state.stages;
                stages.app_done = now;
                if self.cfg.reliable {
                    self.close_dup(
                        now,
                        state.info.id,
                        DupState::Done {
                            response_bytes: state.response_bytes,
                        },
                    );
                    self.replay_stages.insert(state.info.id, stages);
                }
                self.emit_response(
                    now,
                    Response {
                        dst: state.info.src,
                        request_id: state.info.id,
                        bytes: state.response_bytes,
                        sent_at: state.info.sent_at,
                        stages,
                    },
                    fx,
                );
            }
        }
    }

    /// Segments a response body of `response.bytes` into TX stack work.
    /// Shared by first-time completion and reliability-layer replays.
    fn emit_response(&mut self, now: SimTime, response: Response, fx: &mut Effects) {
        let Response {
            dst,
            request_id,
            bytes,
            sent_at,
            stages,
        } = response;
        let body = Bytes::zeroed(bytes);
        let mut frames = segment_response(self.node, dst, request_id, body, sent_at);
        // The attribution record rides the final frame — the one whose
        // arrival completes the request at the client.
        if let Some(last) = frames.last_mut() {
            last.meta_mut().stages = stages;
        }
        let sw_cost = self.ncap_sw.as_ref().map_or(0, |_| ncap::SW_PER_TX_CYCLES);
        let stack = (self.cfg.tx_stack_cycles as f64 * self.nic.stack_cycle_factor()) as u64;
        let ov = self.cfg.overload;
        for frame in frames {
            // Departures have their own allowance; past it the frame is
            // dropped and the client's retransmission triggers a replay.
            if ov.shedding() && ov.tx_backlog_cap.is_some_and(|cap| self.tx_in_queue >= cap) {
                self.stats.tx_sheds += 1;
                if simtrace::is_enabled() {
                    simtrace::metric_add("kernel", "tx_sheds", now.as_nanos(), 1.0);
                }
                continue;
            }
            self.tx_in_queue += 1;
            if self.cfg.datapath.bypasses_kernel() {
                // Doorbell-free userspace TX: a poll core writes the
                // descriptor directly — no softirq hop, no core-0 pin.
                self.poll_queue.push(
                    Work::cycles(
                        self.cfg.bypass.poll_tx_cycles,
                        WorkKind::SoftIrqTx { frame },
                    )
                    .queued_at(now),
                );
            } else {
                self.run_queue.push_back(
                    Work::cycles(stack + sw_cost, WorkKind::SoftIrqTx { frame })
                        .on_core(0)
                        .queued_at(now),
                );
            }
        }
        if self.cfg.datapath.bypasses_kernel() {
            self.try_dispatch_poll(now, fx);
        } else {
            self.note_queue_depth(now);
            self.try_dispatch(now, fx);
        }
    }

    fn complete_tx(&mut self, now: SimTime, frame: Packet, fx: &mut Effects) {
        if let Some(sw) = self.ncap_sw.as_mut() {
            sw.on_tx_packet(frame.wire_len());
        }
        match self.nic.enqueue_tx(now, &frame) {
            Some(out) => fx.at(out.ready_at, NodeEvent::TxWire { frame }),
            None => {
                let ov = &self.cfg.overload;
                if ov.shedding()
                    && ov
                        .tx_backlog_cap
                        .is_some_and(|cap| self.tx_backlog.len() >= cap)
                {
                    self.stats.tx_sheds += 1;
                    if simtrace::is_enabled() {
                        simtrace::metric_add("kernel", "tx_sheds", now.as_nanos(), 1.0);
                    }
                } else {
                    self.tx_backlog.push_back(frame);
                }
            }
        }
    }

    fn on_tx_wire(&mut self, now: SimTime, mut frame: Packet, fx: &mut Effects) {
        self.nic.tx_done(now, frame.wire_len());
        let meta = frame.meta_mut();
        if meta.is_final && !meta.rejected && meta.request_id.is_some() {
            // Attribution: TX stack + NIC serialization, app-done to wire
            // departure of the completing frame.
            let st = &mut meta.stages;
            st.tx_ns = ns32(now.as_nanos().saturating_sub(st.app_done.as_nanos()));
            st.last_tx = now;
        }
        fx.transmit.push(frame);
        while let Some(front) = self.tx_backlog.front() {
            match self.nic.enqueue_tx(now, front) {
                Some(out) => {
                    let frame = self.tx_backlog.pop_front().expect("front exists");
                    fx.at(out.ready_at, NodeEvent::TxWire { frame });
                }
                None => break,
            }
        }
    }

    // ----- power management ----------------------------------------------

    fn on_governor_tick(&mut self, now: SimTime, fx: &mut Effects) {
        let Some(period) = self.cpufreq.period() else {
            return;
        };
        fx.at(now + period, NodeEvent::GovernorTick);
        if now < self.ondemand_suspended_until {
            return; // NCAP suspended the governor for one period
        }
        let elapsed = now.saturating_since(self.last_gov_sample);
        if elapsed.is_zero() {
            return;
        }
        self.last_gov_sample = now;
        let mut util: f64 = 0.0;
        for ci in 0..self.cores.len() {
            self.cores[ci].sync(now);
            let busy = self.cores[ci].busy_time();
            let delta = busy.saturating_sub(self.last_busy[ci]);
            self.last_busy[ci] = busy;
            if ci < self.poll_core_count() {
                // Busy-poll cores are outside governance: their spin must
                // not drag the application cores' frequency up.
                continue;
            }
            util = util.max(delta.as_secs_f64() / elapsed.as_secs_f64());
        }
        self.stats.governor_ticks += 1;
        let target = self
            .cpufreq
            .target(now, util.min(1.0), self.desired_pstate, &self.table);
        if target != self.desired_pstate {
            self.desired_pstate = target;
            self.apply_pstates(now, fx);
        }
        // Synthetic overhead respects the admission cap too — the queue
        // bound must hold for every producer; the governor's decision was
        // already applied above, only its cycle cost is skipped.
        if !self.run_queue_full() {
            self.run_queue.push_back(
                Work::cycles(self.cfg.governor_tick_cycles, WorkKind::Overhead)
                    .on_core(self.overhead_core())
                    .queued_at(now),
            );
            self.note_queue_depth(now);
        }
        self.try_dispatch(now, fx);
    }

    /// The core housekeeping timer work (governor ticks, `ncap.sw`) runs
    /// on: core 0, or the first non-poll core on the bypass datapath —
    /// busy-poll cores do nothing but poll.
    fn overhead_core(&self) -> u8 {
        self.poll_core_count() as u8
    }

    fn on_sw_timer(&mut self, now: SimTime, fx: &mut Effects) {
        let Some(sw) = self.ncap_sw.as_mut() else {
            return;
        };
        fx.at(now + sw.timer_period(), NodeEvent::NcapSwTimer);
        let (cycles, action) = sw.on_timer(now, self.desired_pstate, &self.table);
        if action.set_pstate == Some(self.table.fastest()) {
            self.wake_marker_times.push(now);
        }
        if !self.run_queue_full() {
            self.run_queue.push_back(
                Work::cycles(cycles, WorkKind::Overhead)
                    .on_core(self.overhead_core())
                    .queued_at(now),
            );
            self.note_queue_depth(now);
        }
        if !action.is_noop() {
            self.apply_driver_action(now, action, fx);
        }
        self.try_dispatch(now, fx);
    }

    fn apply_driver_action(&mut self, now: SimTime, action: DriverAction, fx: &mut Effects) {
        // The burst guard must be in place before the boost is applied so
        // the per-core filter in apply_pstates sees it.
        if action.disable_menu {
            self.menu_disabled = true;
        }
        if let Some(p) = action.set_pstate {
            self.desired_pstate = p;
            self.apply_pstates(now, fx);
        }
        if action.disable_menu {
            // Proactively wake the packet-processing core — the paper's
            // "necessary processor cores" (§4): core 0 is on the critical
            // RX path; the scheduler wakes further cores on demand as the
            // burst's work fans out.
            if matches!(self.cores[0].state_kind(), CoreStateKind::Asleep(_)) {
                self.wake_core(now, 0, fx);
            }
        }
        if action.enable_menu {
            self.menu_disabled = false;
            for ci in 0..self.cores.len() {
                if self.cores[ci].is_idle() {
                    self.idle_enter(now, ci);
                }
            }
        }
        if let Some(d) = action.suspend_ondemand {
            let until = now + d;
            if until > self.ondemand_suspended_until {
                self.ondemand_suspended_until = until;
            }
        }
    }

    fn apply_pstates(&mut self, now: SimTime, fx: &mut Effects) {
        for ci in 0..self.cores.len() {
            if ci < self.poll_core_count() {
                continue; // busy-poll cores stay pinned at max P-state
            }
            if !matches!(self.cores[ci].state_kind(), CoreStateKind::Active) {
                continue; // sleeping cores pick up the goal on wake
            }
            if self.cores[ci].goal_pstate() == self.desired_pstate {
                continue;
            }
            // §7 per-core boost: during a burst, raising applies only to
            // the packet-processing core here; other cores are raised on
            // their first dispatch. Descents still apply chip-wide.
            if self.cfg.per_core_boost
                && self.menu_disabled
                && ci != 0
                && self.cores[ci].goal_pstate() > self.desired_pstate
                && !self.cores[ci].has_job()
            {
                continue;
            }
            if self.cores[ci].set_pstate(now, self.desired_pstate).is_ok()
                && self.cores[ci].has_job()
            {
                let eta = self.cores[ci]
                    .job_eta(now)
                    .expect("core has a job in flight");
                let gen = self.job_slots[ci].arm(eta);
                fx.at(
                    eta,
                    NodeEvent::JobDone {
                        core: ci as u8,
                        gen,
                    },
                );
            }
        }
        self.writeback_freq_status();
    }

    fn writeback_freq_status(&mut self) {
        let (at_max, at_min) = EnhancedDriver::freq_status(self.desired_pstate, &self.table);
        self.nic.note_freq_status(at_max, at_min);
        if let Some(sw) = self.ncap_sw.as_mut() {
            sw.note_freq_status(at_max, at_min);
        }
    }

    // ----- introspection ---------------------------------------------------

    /// Flushes energy accounting up to `now` on all cores and the uncore.
    pub fn finalize(&mut self, now: SimTime) {
        self.sync_uncore(now);
        for c in &mut self.cores {
            c.sync(now);
        }
    }

    /// The package/uncore energy meter (mode [`PowerMode::Uncore`]).
    #[must_use]
    pub fn uncore_energy(&self) -> &EnergyMeter {
        &self.uncore
    }

    /// This node's id.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The cores (energy meters, busy time, states).
    #[must_use]
    pub fn cores(&self) -> &[Core] {
        &self.cores
    }

    /// The NIC (counters, NCAP block).
    #[must_use]
    pub fn nic(&self) -> &Nic {
        &self.nic
    }

    /// The P-state table.
    #[must_use]
    pub fn table(&self) -> &PStateTable {
        &self.table
    }

    /// The chip-wide P-state goal.
    #[must_use]
    pub fn desired_pstate(&self) -> cpusim::PStateId {
        self.desired_pstate
    }

    /// Responses fully generated so far.
    #[must_use]
    pub fn completed_responses(&self) -> u64 {
        self.completed_responses
    }

    /// Requests currently in flight inside the application.
    #[must_use]
    pub fn inflight_requests(&self) -> usize {
        self.requests.len()
    }

    /// Pending run-queue depth (diagnostics).
    #[must_use]
    pub fn run_queue_depth(&self) -> usize {
        self.run_queue.len()
    }

    /// High-water mark of the run-queue depth over the whole run — the
    /// memory proxy overload tests bound against the configured capacity.
    #[must_use]
    pub fn max_run_queue_depth(&self) -> usize {
        self.max_run_queue
    }

    /// RX-softirq items currently queued, per NIC queue.
    #[must_use]
    pub fn rx_backlogs(&self) -> &[usize] {
        &self.rx_backlog
    }

    /// TX stack work items currently in the run queue.
    #[must_use]
    pub fn tx_queue_depth(&self) -> usize {
        self.tx_in_queue
    }

    /// Frames parked in the NIC-level TX backlog.
    #[must_use]
    pub fn tx_backlog_depth(&self) -> usize {
        self.tx_backlog.len()
    }

    /// The overload-protection configuration this kernel runs under.
    #[must_use]
    pub fn overload_config(&self) -> &crate::config::OverloadConfig {
        &self.cfg.overload
    }

    /// Instants at which NCAP posted proactive wake/boost interrupts —
    /// the `INT (wake)` markers of Figures 8/9.
    #[must_use]
    pub fn wake_marker_times(&self) -> &[SimTime] {
        &self.wake_marker_times
    }

    /// Whether the menu governor is currently disabled by NCAP.
    #[must_use]
    pub fn menu_disabled(&self) -> bool {
        self.menu_disabled
    }

    /// Operational counters (ISRs, SoftIRQs, wakes, governor ticks).
    #[must_use]
    pub fn stats(&self) -> KernelStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppPhase, AppPlan};
    use crate::config::KernelConfig;
    use desim::SimDuration;
    use governors::{Menu, Ondemand, Performance, PollIdle};
    use netsim::http::HttpRequest;
    use netsim::Bytes;
    use nicsim::NicConfig;

    /// A scripted application: fixed CPU cost, fixed response size.
    struct StubApp {
        cycles: u64,
        response: usize,
        io: Option<SimDuration>,
    }

    impl ServerApp for StubApp {
        fn plan(&mut self, _now: SimTime, req: &RequestInfo) -> Option<AppPlan> {
            if !req.payload.starts_with(b"GET ") {
                return None;
            }
            let mut phases = vec![AppPhase::Cpu {
                cycles: self.cycles,
            }];
            if let Some(wait) = self.io {
                phases.push(AppPhase::Io { wait });
                phases.push(AppPhase::Cpu {
                    cycles: self.cycles,
                });
            }
            Some(AppPlan {
                phases,
                response_bytes: self.response,
            })
        }

        fn name(&self) -> &'static str {
            "stub"
        }
    }

    fn stub_kernel(io: Option<SimDuration>) -> Kernel {
        Kernel::new(
            KernelConfig::server_defaults().with_initial_pstate(cpusim::PStateId(0)),
            NodeId(0),
            Nic::new(NicConfig::i82574_like()),
            Box::new(Performance),
            Box::new(PollIdle),
            Box::new(StubApp {
                cycles: 50_000,
                response: 4_000,
                io,
            }),
        )
    }

    impl Kernel {
        /// [`Kernel::init`] into a fresh buffer, for tests that add
        /// arrivals to the boot effects before draining them.
        pub(crate) fn boot(&mut self, now: SimTime) -> Effects {
            let mut fx = Effects::default();
            self.init(now, &mut fx);
            fx
        }
    }

    /// Drives a kernel to quiescence, collecting transmitted frames.
    pub(super) fn drain(kernel: &mut Kernel, fx: Effects, horizon: SimTime) -> Vec<Packet> {
        let mut queue = desim::EventQueue::new();
        for (t, e) in fx.schedule {
            queue.push(t, e);
        }
        let mut out = fx.transmit;
        out.extend(run_until(kernel, &mut queue, horizon));
        out
    }

    /// Handles `queue`'s events up to `horizon`, collecting transmitted
    /// frames.
    fn run_until(
        kernel: &mut Kernel,
        queue: &mut desim::EventQueue<NodeEvent>,
        horizon: SimTime,
    ) -> Vec<Packet> {
        let mut out = Vec::new();
        // One lent buffer for the whole run, drained after every event,
        // as the cluster's event loop does.
        let mut fx = Effects::default();
        while queue.peek_time().is_some_and(|t| t <= horizon) {
            let (t, e) = queue.pop().expect("peeked");
            kernel.handle(t, e, &mut fx);
            for (te, e) in fx.schedule.drain(..) {
                queue.push(te, e);
            }
            out.append(&mut fx.transmit);
        }
        out
    }

    pub(super) fn get_frame(id: u64) -> Packet {
        Packet::request(
            NodeId(1),
            NodeId(0),
            id,
            HttpRequest::get("/x").to_payload(),
        )
        .sent_at(SimTime::from_us(1))
    }

    #[test]
    fn request_produces_segmented_response() {
        let mut k = stub_kernel(None);
        let fx = k.boot(SimTime::ZERO);
        let mut queue_fx = fx;
        queue_fx
            .schedule
            .push((SimTime::from_us(10), NodeEvent::FrameFromWire(get_frame(7))));
        let frames = drain(&mut k, queue_fx, SimTime::from_ms(5));
        // 4000 B response = 3 MSS frames, same request id, final marked.
        assert_eq!(frames.len(), 3, "got {} frames", frames.len());
        assert!(frames.iter().all(|f| f.meta().request_id == Some(7)));
        assert_eq!(frames.iter().filter(|f| f.meta().is_final).count(), 1);
        assert_eq!(k.completed_responses(), 1);
        assert_eq!(k.inflight_requests(), 0);
    }

    #[test]
    fn io_phase_releases_the_core() {
        let mut k = stub_kernel(Some(SimDuration::from_us(500)));
        let mut fx = k.boot(SimTime::ZERO);
        fx.schedule
            .push((SimTime::from_us(10), NodeEvent::FrameFromWire(get_frame(1))));
        let frames = drain(&mut k, fx, SimTime::from_ms(5));
        assert_eq!(frames.len(), 3);
        // Busy time must be far below elapsed: the disk wait ran with the
        // core released (2 × 50 K cycles at 3.1 GHz ≈ 32 us of CPU).
        k.finalize(SimTime::from_ms(5));
        let busy: SimDuration = k.cores().iter().map(cpusim::Core::busy_time).sum();
        assert!(
            busy < SimDuration::from_us(200),
            "busy {busy} should exclude the IO wait"
        );
    }

    #[test]
    fn non_request_payloads_are_dropped_by_the_app() {
        let mut k = stub_kernel(None);
        let mut fx = k.boot(SimTime::ZERO);
        let bulk = Packet::new(
            NodeId(1),
            NodeId(0),
            0,
            Bytes::from(vec![0xEE; 800]),
            netsim::PacketMeta {
                request_id: Some(9),
                sent_at: SimTime::ZERO,
                seq: 0,
                is_final: true,
                ..netsim::PacketMeta::default()
            },
        );
        fx.schedule
            .push((SimTime::from_us(10), NodeEvent::FrameFromWire(bulk)));
        let frames = drain(&mut k, fx, SimTime::from_ms(2));
        assert!(frames.is_empty());
        assert_eq!(k.completed_responses(), 0);
    }

    #[test]
    fn menu_kernel_sleeps_idle_cores_and_wakes_for_work() {
        let mut k = Kernel::new(
            KernelConfig::server_defaults().with_initial_pstate(cpusim::PStateId(0)),
            NodeId(0),
            Nic::new(NicConfig::i82574_like()),
            Box::new(Performance),
            Box::new(Menu::new(4)),
            Box::new(StubApp {
                cycles: 50_000,
                response: 1_000,
                io: None,
            }),
        );
        let mut fx = k.boot(SimTime::ZERO);
        fx.schedule
            .push((SimTime::from_ms(2), NodeEvent::FrameFromWire(get_frame(1))));
        let frames = drain(&mut k, fx, SimTime::from_ms(4));
        assert_eq!(frames.len(), 1);
        // Cores slept at boot (fresh menu predicts a long idle).
        let entries: u32 = k
            .cores()
            .iter()
            .map(|c| {
                c.sleep_entries(cpusim::CState::C1)
                    + c.sleep_entries(cpusim::CState::C3)
                    + c.sleep_entries(cpusim::CState::C6)
            })
            .sum();
        assert!(entries > 0, "idle cores must have entered sleep states");
    }

    #[test]
    fn ondemand_kernel_raises_frequency_under_load() {
        let table = PStateTable::i7_like();
        let mut k = Kernel::new(
            KernelConfig::server_defaults(), // boots at the deepest state
            NodeId(0),
            Nic::new(NicConfig::i82574_like()),
            Box::new(Ondemand::new()),
            Box::new(PollIdle),
            Box::new(StubApp {
                cycles: 3_000_000, // heavy requests keep cores busy
                response: 1_000,
                io: None,
            }),
        );
        assert_eq!(k.desired_pstate(), table.deepest());
        let mut fx = k.boot(SimTime::ZERO);
        // A stream of heavy requests across the first 50 ms.
        for i in 0..200u64 {
            fx.schedule.push((
                SimTime::from_us(100 + i * 200),
                NodeEvent::FrameFromWire(get_frame(i)),
            ));
        }
        let _ = drain(&mut k, fx, SimTime::from_ms(50));
        assert!(
            k.desired_pstate() < table.deepest(),
            "ondemand must have raised the frequency, still at {}",
            k.desired_pstate()
        );
    }

    #[test]
    fn stats_count_kernel_activity() {
        let mut k = stub_kernel(None);
        let mut fx = k.boot(SimTime::ZERO);
        fx.schedule
            .push((SimTime::from_us(10), NodeEvent::FrameFromWire(get_frame(1))));
        let _ = drain(&mut k, fx, SimTime::from_ms(5));
        let s = k.stats();
        assert!(s.isrs >= 1, "{s:?}");
        assert_eq!(s.softirq_rx, 1, "{s:?}");
        assert_eq!(s.softirq_tx, 3, "one per response frame: {s:?}");
        assert_eq!(s.app_jobs, 1, "{s:?}");
    }

    #[test]
    fn reliable_kernel_suppresses_inflight_duplicates() {
        let mut k = Kernel::new(
            KernelConfig::server_defaults()
                .with_initial_pstate(cpusim::PStateId(0))
                .with_reliability(),
            NodeId(0),
            Nic::new(NicConfig::i82574_like()),
            Box::new(Performance),
            Box::new(PollIdle),
            Box::new(StubApp {
                cycles: 50_000,
                response: 4_000,
                io: Some(SimDuration::from_ms(1)),
            }),
        );
        let mut fx = k.boot(SimTime::ZERO);
        // The duplicate lands while the original is still in its IO
        // phase: it must be dropped without a second app job.
        fx.schedule
            .push((SimTime::from_us(10), NodeEvent::FrameFromWire(get_frame(7))));
        fx.schedule.push((
            SimTime::from_us(600),
            NodeEvent::FrameFromWire(get_frame(7)),
        ));
        let frames = drain(&mut k, fx, SimTime::from_ms(10));
        assert_eq!(frames.len(), 3, "one 3-frame response, not two");
        assert_eq!(k.completed_responses(), 1);
        let s = k.stats();
        assert_eq!(s.dup_suppressed, 1, "{s:?}");
        assert_eq!(s.resp_replays, 0, "{s:?}");
        assert_eq!(s.app_jobs, 2, "two CPU phases of ONE request: {s:?}");
    }

    #[test]
    fn reliable_kernel_replays_completed_responses() {
        let mut k = Kernel::new(
            KernelConfig::server_defaults()
                .with_initial_pstate(cpusim::PStateId(0))
                .with_reliability(),
            NodeId(0),
            Nic::new(NicConfig::i82574_like()),
            Box::new(Performance),
            Box::new(PollIdle),
            Box::new(StubApp {
                cycles: 50_000,
                response: 4_000,
                io: None,
            }),
        );
        let mut fx = k.boot(SimTime::ZERO);
        fx.schedule
            .push((SimTime::from_us(10), NodeEvent::FrameFromWire(get_frame(7))));
        // Retransmit long after the response went out (it was "lost").
        fx.schedule
            .push((SimTime::from_ms(5), NodeEvent::FrameFromWire(get_frame(7))));
        let frames = drain(&mut k, fx, SimTime::from_ms(10));
        assert_eq!(frames.len(), 6, "original + replayed response");
        assert_eq!(
            k.completed_responses(),
            1,
            "a replay is not a new completion"
        );
        let s = k.stats();
        assert_eq!(s.resp_replays, 1, "{s:?}");
        assert_eq!(s.app_jobs, 1, "replay must not re-run the app: {s:?}");
        // Replayed frames carry the same sequence numbers for dedup.
        let seqs: Vec<u32> = frames.iter().map(|f| f.meta().seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 0, 1, 2]);
        // The replay's final frame carries the original record, with the
        // original-to-replay gap charged to `replay_ns`.
        let (original, replay) = (frames[2].meta().stages, frames[5].meta().stages);
        assert_eq!(replay.arrival, original.arrival);
        assert!(replay.replay_ns > 0, "{replay:?}");
        assert_eq!(k.replay_records(), 1, "held until the client resolves");
    }

    /// A replay record lives until the client resolves its request. A
    /// replay after that goes out with an empty record; retiring a `Done`
    /// entry drops a record no client released.
    #[test]
    fn replay_records_live_until_released_or_retired() {
        let mut k = Kernel::new(
            KernelConfig::server_defaults()
                .with_initial_pstate(cpusim::PStateId(0))
                .with_reliability(),
            NodeId(0),
            Nic::new(NicConfig::i82574_like()),
            Box::new(Performance),
            Box::new(PollIdle),
            Box::new(StubApp {
                cycles: 50_000,
                response: 4_000,
                io: None,
            }),
        );
        k.set_dedup_linger(SimDuration::from_ms(20));
        let mut queue = desim::EventQueue::new();
        for (t, e) in k.boot(SimTime::ZERO).schedule {
            queue.push(t, e);
        }
        let arrive = |queue: &mut desim::EventQueue<NodeEvent>, us: u64, id: u64| {
            queue.push(
                SimTime::from_us(us),
                NodeEvent::FrameFromWire(get_frame(id)),
            );
        };
        arrive(&mut queue, 10, 7);
        arrive(&mut queue, 20, 8);
        let _ = run_until(&mut k, &mut queue, SimTime::from_ms(5));
        assert_eq!(k.replay_records(), 2);

        k.release_replay(7);
        assert_eq!(k.replay_records(), 1);
        arrive(&mut queue, 6_000, 7);
        let replay = run_until(&mut k, &mut queue, SimTime::from_ms(10));
        let last = replay.last().expect("the replay went out").meta();
        assert!(last.is_final);
        assert_eq!(last.stages.arrival, SimTime::ZERO, "an empty record");
        assert_eq!(k.stats().resp_replays, 1);

        // Request 9 arrives after 7's and 8's linger: both entries retire,
        // and 8's unreleased record goes with its entry.
        arrive(&mut queue, 30_000, 9);
        let _ = run_until(&mut k, &mut queue, SimTime::from_ms(35));
        assert_eq!((k.dedup_entries(), k.replay_records()), (1, 1));
    }

    /// One `DupState` per request of the last linger sits in the duplicate
    /// table; a field that regrows it regrows the whole table.
    #[test]
    fn dup_state_stays_small() {
        assert!(std::mem::size_of::<DupState>() <= 16);
    }

    /// Every frame in flight is moved through the event queue inside a
    /// `NodeEvent`, and through the run queue inside a `Work`; `Packet`
    /// is one pointer to its boxed frame, so a frame moves as 8 bytes.
    #[test]
    fn packet_stays_small() {
        assert!(std::mem::size_of::<Packet>() <= 8);
    }

    /// A run-queue entry is moved on every push, pick and dispatch; a
    /// field that regrows `Work` regrows every one of those moves.
    #[test]
    fn work_stays_small() {
        assert!(std::mem::size_of::<Work>() <= 56);
    }

    #[test]
    fn resolved_dedup_entries_retire_after_their_linger() {
        let mut k = Kernel::new(
            KernelConfig::server_defaults()
                .with_initial_pstate(cpusim::PStateId(0))
                .with_reliability(),
            NodeId(0),
            Nic::new(NicConfig::i82574_like()),
            Box::new(Performance),
            Box::new(PollIdle),
            Box::new(StubApp {
                cycles: 50_000,
                response: 4_000,
                io: None,
            }),
        );
        k.set_dedup_linger(SimDuration::from_ms(2));
        let mut fx = k.boot(SimTime::ZERO);
        for (at_us, id) in [(10, 7), (1_500, 8), (3_000, 9)] {
            fx.schedule.push((
                SimTime::from_us(at_us),
                NodeEvent::FrameFromWire(get_frame(id)),
            ));
        }
        let _ = drain(&mut k, fx, SimTime::from_ms(10));
        assert_eq!(k.completed_responses(), 3);
        // Request 9's arrival retired 7 (first seen at 10 µs, linger
        // passed); 8 was still inside its linger, and 9 is the newest.
        assert_eq!(k.dedup_entries(), 2);
    }

    #[test]
    fn unreliable_kernel_serves_duplicates_twice() {
        let mut k = stub_kernel(None);
        let mut fx = k.boot(SimTime::ZERO);
        fx.schedule
            .push((SimTime::from_us(10), NodeEvent::FrameFromWire(get_frame(7))));
        fx.schedule
            .push((SimTime::from_ms(5), NodeEvent::FrameFromWire(get_frame(7))));
        let frames = drain(&mut k, fx, SimTime::from_ms(10));
        // Without the reliability layer the old behavior is preserved.
        assert_eq!(frames.len(), 6);
        assert_eq!(k.completed_responses(), 2);
        assert_eq!(k.stats().dup_suppressed, 0);
    }

    #[test]
    fn debug_output_is_informative() {
        let k = stub_kernel(None);
        let dbg = format!("{k:?}");
        assert!(dbg.contains("performance"));
        assert!(dbg.contains("stub"));
    }

    // ----- dispatch order ------------------------------------------------

    /// Queues `work` and runs the dispatcher, as every producer does.
    fn enqueue(k: &mut Kernel, fx: &mut Effects, work: Work) {
        k.run_queue.push_back(work);
        k.try_dispatch(SimTime::ZERO, fx);
    }

    /// A no-op work item, told apart from others by its cycle count.
    fn overhead(id: u64) -> Work {
        Work::cycles(id, WorkKind::Overhead)
    }

    /// The cycle count (the tests' item id) of the work `core` runs.
    fn running(k: &Kernel, core: usize) -> Option<u64> {
        k.current[core].as_ref().map(|w| w.cycles)
    }

    /// Fires the pending `JobDone` of `core`, which dispatches again.
    fn finish_job(k: &mut Kernel, fx: &Effects, core: usize) -> Effects {
        let &(t, ref done) = fx
            .schedule
            .iter()
            .rev()
            .find(|(_, e)| matches!(e, NodeEvent::JobDone { core: c, .. } if *c as usize == core))
            .expect("core has a job in flight");
        let mut next = Effects::default();
        k.handle(t, done.clone(), &mut next);
        next
    }

    #[test]
    fn isr_at_the_front_overtakes_queued_core0_softirq_work() {
        let mut k = stub_kernel(None);
        let mut fx = Effects::default();
        enqueue(&mut k, &mut fx, overhead(1).on_core(0));
        for id in [2, 3] {
            let tx = WorkKind::SoftIrqTx {
                frame: get_frame(id),
            };
            enqueue(&mut k, &mut fx, Work::cycles(id, tx).on_core(0));
        }
        k.deliver_irq(SimTime::ZERO, 0, &mut fx);
        assert_eq!(k.run_queue_depth(), 3, "core 0 is busy: all three wait");
        let fx = finish_job(&mut k, &fx, 0);
        assert!(
            matches!(
                k.current[0].as_ref().map(|w| &w.kind),
                Some(WorkKind::Isr { queue: 0 })
            ),
            "the ISR must run before the SoftIRQ work queued ahead of it"
        );
        finish_job(&mut k, &fx, 0);
        assert_eq!(running(&k, 0), Some(2), "then the SoftIRQ work, in order");
    }

    #[test]
    fn blocked_affine_work_does_not_block_non_affine_work_behind_it() {
        let mut k = stub_kernel(None);
        let mut fx = Effects::default();
        enqueue(&mut k, &mut fx, overhead(1).on_core(1));
        enqueue(&mut k, &mut fx, overhead(2).on_core(1));
        enqueue(&mut k, &mut fx, overhead(3));
        assert_eq!(running(&k, 1), Some(1));
        assert_eq!(
            running(&k, 3),
            Some(3),
            "skips the entry waiting for core 1"
        );
        assert_eq!(k.run_queue_depth(), 1);
    }

    #[test]
    fn non_affine_work_goes_to_the_highest_idle_non_poll_core() {
        let cfg = KernelConfig {
            datapath: bypass::Datapath::Bypass,
            bypass: bypass::BypassConfig::dpdk_like().with_poll_cores(1),
            ..KernelConfig::server_defaults()
        };
        let mut k = Kernel::new(
            cfg,
            NodeId(0),
            Nic::new(NicConfig::i82574_like()),
            Box::new(Performance),
            Box::new(PollIdle),
            Box::new(StubApp {
                cycles: 50_000,
                response: 4_000,
                io: None,
            }),
        );
        let mut fx = Effects::default();
        enqueue(&mut k, &mut fx, overhead(1).on_core(3));
        for id in [2, 3, 4] {
            enqueue(&mut k, &mut fx, overhead(id));
        }
        assert_eq!(running(&k, 2), Some(2), "core 3 is busy: core 2 is highest");
        assert_eq!(running(&k, 1), Some(3));
        assert_eq!(running(&k, 0), None, "the busy-poll core takes no app work");
        assert_eq!(k.run_queue_depth(), 1);
    }
}

#[cfg(test)]
mod overload_tests {
    use super::tests::{drain, get_frame};
    use super::*;
    use crate::app::AppPlan;
    use crate::config::{KernelConfig, OverloadConfig, ShedPolicy};
    use desim::SimDuration;
    use governors::{Menu, Performance, PollIdle};
    use nicsim::{Nic, NicConfig};

    /// An application whose requests park in IO before any CPU phase, so
    /// admitted requests occupy neither a core nor the run queue — the
    /// only queue pressure is the RX softirq backlog itself, which makes
    /// admission outcomes exactly predictable.
    struct IoFirstApp;
    impl ServerApp for IoFirstApp {
        fn plan(&mut self, _now: SimTime, _req: &RequestInfo) -> Option<AppPlan> {
            Some(AppPlan {
                phases: vec![
                    AppPhase::Io {
                        wait: SimDuration::from_ms(1),
                    },
                    AppPhase::Cpu { cycles: 1_000 },
                ],
                response_bytes: 500,
            })
        }
        fn name(&self) -> &'static str {
            "io-first"
        }
    }

    fn shed_kernel(ov: OverloadConfig, reliable: bool, menu: bool) -> Kernel {
        let mut cfg = KernelConfig::server_defaults()
            .with_initial_pstate(cpusim::PStateId(0))
            .with_overload(ov);
        if reliable {
            cfg = cfg.with_reliability();
        }
        let cpuidle: Box<dyn governors::CpuidleGovernor + Send> = if menu {
            Box::new(Menu::new(4))
        } else {
            Box::new(PollIdle)
        };
        Kernel::new(
            cfg,
            NodeId(0),
            Nic::new(NicConfig::i82574_like()),
            Box::new(Performance),
            cpuidle,
            Box::new(IoFirstApp),
        )
    }

    fn burst(fx: &mut Effects, at: SimTime, ids: &[u64]) {
        for &id in ids {
            fx.schedule
                .push((at, NodeEvent::FrameFromWire(get_frame(id))));
        }
    }

    #[test]
    fn batch_exactly_at_capacity_is_fully_admitted() {
        let ov = OverloadConfig::off()
            .with_run_queue_cap(8)
            .with_policy(ShedPolicy::DropTail);
        let mut k = shed_kernel(ov, false, false);
        let mut fx = k.boot(SimTime::ZERO);
        let ids: Vec<u64> = (1..=8).collect();
        burst(&mut fx, SimTime::from_us(10), &ids);
        let frames = drain(&mut k, fx, SimTime::from_ms(5));
        let s = k.stats();
        assert_eq!(s.rejected, 0, "exactly-at-capacity must admit: {s:?}");
        assert_eq!(k.completed_responses(), 8);
        assert!(frames.iter().all(|f| !f.meta().rejected));
    }

    #[test]
    fn one_past_capacity_sheds_exactly_one_with_a_503() {
        // All three caps set so the total memory bound is defined.
        let ov = OverloadConfig {
            rx_backlog_cap: Some(256),
            tx_backlog_cap: Some(4096),
            ..OverloadConfig::off()
                .with_run_queue_cap(8)
                .with_policy(ShedPolicy::DropTail)
        };
        let mut k = shed_kernel(ov, false, false);
        let mut fx = k.boot(SimTime::ZERO);
        let ids: Vec<u64> = (1..=9).collect();
        burst(&mut fx, SimTime::from_us(10), &ids);
        let frames = drain(&mut k, fx, SimTime::from_ms(5));
        let s = k.stats();
        assert_eq!(s.rejected, 1, "{s:?}");
        assert_eq!(k.completed_responses(), 8);
        let rejects: Vec<_> = frames.iter().filter(|f| f.meta().rejected).collect();
        assert_eq!(rejects.len(), 1);
        assert!(rejects[0].meta().is_final);
        assert_eq!(rejects[0].leading_bytes(), Some(*b"50"));
        // The memory proxy respects the configured bound.
        assert!(
            Some(k.max_run_queue_depth()) <= ov.queue_bound(k.nic().queue_count()),
            "depth {} over bound {:?}",
            k.max_run_queue_depth(),
            ov.queue_bound(k.nic().queue_count())
        );
    }

    #[test]
    fn rejection_works_through_a_c_state_wake() {
        // Cores are asleep under the menu governor when the burst lands:
        // the IRQ starts a C-state wake, a second frame arrives mid-wake,
        // and both requests are shed once the woken core drains the ring —
        // the 503 path must work identically from a cold core.
        let ov = OverloadConfig::off()
            .with_run_queue_cap(0)
            .with_policy(ShedPolicy::DropTail);
        let mut k = shed_kernel(ov, false, true);
        let mut fx = k.boot(SimTime::ZERO);
        fx.schedule
            .push((SimTime::from_ms(2), NodeEvent::FrameFromWire(get_frame(1))));
        // mwait_wake_overhead is 25 us: this frame arrives mid-wake.
        fx.schedule.push((
            SimTime::from_ms(2) + SimDuration::from_us(5),
            NodeEvent::FrameFromWire(get_frame(2)),
        ));
        let frames = drain(&mut k, fx, SimTime::from_ms(6));
        let s = k.stats();
        assert!(s.core_wakes >= 1, "the burst must wake a core: {s:?}");
        assert_eq!(s.rejected, 2, "{s:?}");
        assert_eq!(s.app_jobs, 0, "{s:?}");
        assert_eq!(k.completed_responses(), 0);
        assert_eq!(frames.iter().filter(|f| f.meta().rejected).count(), 2);
        assert_eq!(k.run_queue_depth(), 0, "the queue must drain");
    }

    #[test]
    fn duplicate_of_rejected_request_replays_the_503() {
        // The victim leads a burst one past capacity, so admission sheds
        // it while the two fillers behind it are admitted. When the
        // client retransmits the victim later — into a now-empty queue —
        // the kernel must replay the 503, not re-admit the request.
        let ov = OverloadConfig::off()
            .with_run_queue_cap(2)
            .with_policy(ShedPolicy::DropTail);
        let mut k = shed_kernel(ov, true, false);
        let mut fx = k.boot(SimTime::ZERO);
        burst(&mut fx, SimTime::from_us(10), &[99, 1, 2]);
        fx.schedule
            .push((SimTime::from_ms(3), NodeEvent::FrameFromWire(get_frame(99))));
        let frames = drain(&mut k, fx, SimTime::from_ms(6));
        let s = k.stats();
        assert_eq!(s.rejected, 1, "{s:?}");
        assert_eq!(s.reject_replays, 1, "retransmit must replay: {s:?}");
        assert_eq!(s.dup_suppressed, 0, "{s:?}");
        assert_eq!(k.completed_responses(), 2, "both fillers complete");
        assert_eq!(s.app_jobs, 2, "the victim never ran: {s:?}");
        assert_eq!(frames.iter().filter(|f| f.meta().rejected).count(), 2);
    }

    #[test]
    fn zero_deadline_requests_are_always_shed() {
        let ov = OverloadConfig::off().with_policy(ShedPolicy::Deadline);
        let mut k = shed_kernel(ov, false, false);
        let mut fx = k.boot(SimTime::ZERO);
        // Any queueing delay exceeds a zero budget.
        fx.schedule.push((
            SimTime::from_us(10),
            NodeEvent::FrameFromWire(get_frame(1).with_deadline(SimDuration::ZERO)),
        ));
        // An unstamped request (no default deadline either) is exempt.
        fx.schedule.push((
            SimTime::from_us(200),
            NodeEvent::FrameFromWire(get_frame(2)),
        ));
        let frames = drain(&mut k, fx, SimTime::from_ms(5));
        let s = k.stats();
        assert_eq!(s.rejected, 1, "{s:?}");
        assert_eq!(k.completed_responses(), 1);
        let rejected: Vec<_> = frames.iter().filter(|f| f.meta().rejected).collect();
        assert_eq!(rejected.len(), 1);
        assert_eq!(rejected[0].meta().request_id, Some(1));
    }

    #[test]
    fn expired_deadlines_shed_under_the_deadline_policy() {
        let ov = OverloadConfig::off()
            .with_policy(ShedPolicy::Deadline)
            .with_default_deadline(SimDuration::from_us(5));
        let mut k = shed_kernel(ov, false, false);
        let mut fx = k.boot(SimTime::ZERO);
        // get_frame stamps sent_at = 1 us; arriving at 10 us exceeds the
        // 5 us default budget.
        fx.schedule
            .push((SimTime::from_us(10), NodeEvent::FrameFromWire(get_frame(1))));
        // A generous per-request stamp overrides the default and admits.
        fx.schedule.push((
            SimTime::from_us(30),
            NodeEvent::FrameFromWire(get_frame(2).with_deadline(SimDuration::from_ms(10))),
        ));
        let _ = drain(&mut k, fx, SimTime::from_ms(5));
        let s = k.stats();
        assert_eq!(s.rejected, 1, "{s:?}");
        assert_eq!(k.completed_responses(), 1);
    }

    #[test]
    fn codel_controller_sheds_only_after_sustained_sojourn() {
        let target = SimDuration::from_us(500);
        let interval = SimDuration::from_ms(10);
        let mut c = CoDelState::default();
        let t0 = SimTime::from_ms(100);
        // Below target: never sheds, state stays reset.
        assert!(!c.should_shed(t0, SimDuration::from_us(100), target, interval));
        // First excursion above target starts the observation interval.
        assert!(!c.should_shed(t0, SimDuration::from_ms(1), target, interval));
        // Still inside the interval: no shedding yet.
        assert!(!c.should_shed(
            t0 + SimDuration::from_ms(5),
            SimDuration::from_ms(1),
            target,
            interval
        ));
        // A full interval above target: enter the dropping state.
        assert!(c.should_shed(
            t0 + SimDuration::from_ms(10),
            SimDuration::from_ms(1),
            target,
            interval
        ));
        // Next shed only after interval/sqrt(count): a full interval for
        // the first episode (count = 1).
        assert!(!c.should_shed(
            t0 + SimDuration::from_ms(11),
            SimDuration::from_ms(1),
            target,
            interval
        ));
        assert!(!c.should_shed(
            t0 + SimDuration::from_ms(18),
            SimDuration::from_ms(1),
            target,
            interval
        ));
        assert!(c.should_shed(
            t0 + SimDuration::from_ms(20),
            SimDuration::from_ms(1),
            target,
            interval
        ));
        // Sojourn recovering below target resets the controller.
        assert!(!c.should_shed(
            t0 + SimDuration::from_ms(21),
            SimDuration::from_us(100),
            target,
            interval
        ));
        assert!(!c.dropping);
        assert_eq!(c.count, 0);
    }

    #[test]
    fn caps_without_a_policy_enforce_nothing() {
        // The deliberately broken config: capacities set, shedding off.
        // The kernel must not cap anything (the watchdog reports it); in
        // particular nothing is rejected and the queue grows past "cap".
        let ov = OverloadConfig {
            run_queue_cap: Some(0),
            rx_backlog_cap: Some(0),
            tx_backlog_cap: Some(0),
            policy: ShedPolicy::None,
            ..OverloadConfig::off()
        };
        let mut k = shed_kernel(ov, false, false);
        let mut fx = k.boot(SimTime::ZERO);
        let ids: Vec<u64> = (1..=16).collect();
        burst(&mut fx, SimTime::from_us(10), &ids);
        let _ = drain(&mut k, fx, SimTime::from_ms(5));
        let s = k.stats();
        assert_eq!(s.rejected, 0, "{s:?}");
        assert_eq!(s.backlog_sheds, 0, "{s:?}");
        assert_eq!(k.completed_responses(), 16);
        assert!(
            Some(k.max_run_queue_depth()) > ov.queue_bound(k.nic().queue_count()),
            "the unenforced queue must have exceeded the broken bound"
        );
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::app::{AppPhase, AppPlan};
    use crate::config::KernelConfig;
    use desim::SimDuration;
    use governors::{Performance, PollIdle};
    use netsim::http::HttpRequest;
    use nicsim::NicConfig;

    struct OneShotApp;
    impl ServerApp for OneShotApp {
        fn plan(&mut self, _now: SimTime, _req: &RequestInfo) -> Option<AppPlan> {
            Some(AppPlan {
                phases: vec![
                    AppPhase::Cpu { cycles: 30_000 },
                    AppPhase::Io {
                        wait: SimDuration::from_us(150),
                    },
                    AppPhase::Cpu { cycles: 30_000 },
                ],
                response_bytes: 3_000,
            })
        }
        fn name(&self) -> &'static str {
            "oneshot"
        }
    }

    #[test]
    fn response_stages_are_monotone_and_complete() {
        let mut k = Kernel::new(
            KernelConfig::server_defaults().with_initial_pstate(cpusim::PStateId(0)),
            NodeId(0),
            Nic::new(NicConfig::i82574_like()),
            Box::new(Performance),
            Box::new(PollIdle),
            Box::new(OneShotApp),
        );
        let mut fx = k.boot(SimTime::ZERO);
        let frame = Packet::request(NodeId(1), NodeId(0), 42, HttpRequest::get("/").to_payload());
        fx.schedule
            .push((SimTime::from_us(10), NodeEvent::FrameFromWire(frame)));
        let frames = super::tests::drain(&mut k, fx, SimTime::from_ms(10));
        let last = frames
            .iter()
            .map(Packet::meta)
            .find(|m| m.is_final)
            .expect("the response must finish");
        assert_eq!(last.request_id, Some(42));
        let st = last.stages;
        assert_eq!(st.arrival, SimTime::from_us(10));
        assert!(st.dma_done > st.arrival);
        assert!(st.app_done > st.dma_done);
        assert!(st.last_tx > st.app_done);
        assert_eq!(st.io_ns, 150_000);
    }
}
