//! The cluster simulation: one server, N clients, a switch.
//!
//! [`ClusterSim`] implements [`desim::EventHandler`]; the experiment
//! runner seeds it with initial events and drives it to the horizon.
//! Frames travel client → switch → server and back; the server node is a
//! full [`oskernel::Kernel`], clients are open-loop generators plus one
//! request ledger (per the paper's methodology, client-side processing is
//! not modelled — latency is measured when the full response arrives).

use crate::trace::{TraceConfig, Traces};
use crate::watchdog::{AccountingView, Watchdog};
use cpusim::{EnergyMeter, PowerMode};
use desim::{ConfigError, EventHandler, EventQueue, SimDuration, SimTime};
use fleetsim::{
    DomainSchedule, FailureMode, FailureSchedule, FleetAction, FleetConfig, FleetCoordinator,
    FleetSummary, HealthConfig, LoadBalancer,
};
use netsim::{Delivery, FaultConfig, NodeId, Packet, Reassembly, SegmentStatus, Switch};
use oldi_apps::OpenLoopClient;
use oskernel::{Effects, Kernel, NodeEvent};
use simstats::breakdown::{stage, BreakdownCollector, LatencyBreakdown, STAGE_COUNT, STAGE_NAMES};
use simstats::LogHistogram;

/// Clamps a nanosecond duration into the `u32` stage fields (4.29 s cap,
/// far above any request residency the harness simulates).
fn ns32(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

/// Events of the cluster world.
#[derive(Debug, Clone)]
pub enum ClusterEvent {
    /// An event for one server node's kernel.
    Server(NodeId, NodeEvent),
    /// Client `idx` emits its next burst.
    ClientBurst {
        /// Index into the client list.
        idx: usize,
    },
    /// A frame finishes traversing the network and arrives at `dst`.
    Deliver {
        /// The arriving frame.
        frame: Packet,
    },
    /// Retransmission timer for request `id` fires (armed only when the
    /// fault subsystem's reliability layer is enabled).
    RetxCheck {
        /// The request id the timer guards.
        id: u64,
        /// Timer generation: a check whose `attempt` no longer matches
        /// the request's state is stale (a retransmission already
        /// re-armed a newer timer) and is ignored.
        attempt: u32,
    },
    /// Periodic trace sample.
    Sample,
    /// End of warmup: reset measurement baselines.
    StartMeasure,
    /// Periodic invariant check (armed when a watchdog is installed).
    Watchdog,
    /// Fleet coordinator evaluation epoch (armed with a coordinator).
    FleetEpoch,
    /// A backend's park transition completes.
    FleetParkDone {
        /// Backend index.
        backend: usize,
        /// Transition generation (stale generations are ignored).
        gen: u32,
    },
    /// A backend's unpark transition completes.
    FleetUnparkDone {
        /// Backend index.
        backend: usize,
        /// Transition generation (stale generations are ignored).
        gen: u32,
    },
    /// A scheduled machine failure fires: the backend starts misbehaving
    /// per `mode`. The LB is *not* told — it detects the failure through
    /// its prober or request timeouts, like a real balancer.
    BackendFail {
        /// Backend index.
        backend: usize,
        /// How the machine misbehaves from now on.
        mode: FailureMode,
    },
    /// A failed backend restarts healthy (its reinstatement still waits
    /// for the prober's rejoin threshold).
    BackendRestart {
        /// Backend index.
        backend: usize,
    },
    /// The LB's active health-prober tick (armed when a prober is
    /// configured).
    FleetHealth,
    /// A correlated fault window opens: every member of domain `domain`
    /// (an index into the schedule) gets the window's link-level
    /// impairment installed on the fabric switch.
    DomainFail {
        /// Index into the domain schedule.
        domain: usize,
    },
    /// A correlated fault window closes: the domain's members heal.
    DomainHeal {
        /// Index into the domain schedule.
        domain: usize,
    },
}

/// The fleet layer of the cluster: the LB node plus its optional power
/// coordinator.
struct FleetState {
    lb: LoadBalancer,
    coordinator: Option<FleetCoordinator>,
    /// Per-frame forwarding latency through the LB.
    latency: SimDuration,
    /// The prober policy driving the `FleetHealth` tick (`None` disables
    /// the tick entirely — the no-faults fast path schedules nothing).
    health: Option<HealthConfig>,
    /// The machine-failure schedule (drives `BackendFail`/`BackendRestart`
    /// events and the fail-slow multiplier).
    faults: FailureSchedule,
    /// The correlated failure-domain schedule (drives
    /// `DomainFail`/`DomainHeal` events).
    domains: DomainSchedule,
    /// Ground truth: which backends are currently inside an open
    /// *partition* window. Probes to a partitioned backend fail (the
    /// prober's TCP handshake crosses the fabric); brownouts do not
    /// affect probes.
    partitioned: Vec<bool>,
    /// Ground truth: what is actually wrong with each machine right now.
    /// The LB never reads this — probes and timeouts are judged against
    /// it, so detection latency is real (interval × threshold).
    down: Vec<Option<FailureMode>>,
    /// Fault windows currently open (metrics only).
    open_windows: u32,
    /// Metric-emission cursor for the failover counter (only touched
    /// inside `simtrace::is_enabled()` blocks).
    last_failovers: u64,
}

/// Client-side state for one in-flight latency-critical request: the
/// request ledger's row. The entry lives from issue until the request
/// resolves (completed, rejected or lost); a later response frame for it
/// finds no entry and is absorbed.
#[derive(Debug)]
struct InFlight {
    /// The original request frame, kept only while retransmission is
    /// armed; a resend clones it with `sent_at` untouched, so latency
    /// spans every retransmission.
    frame: Option<Packet>,
    /// Retransmissions performed so far (also the live timer generation).
    attempt: u32,
    /// Response reassembly.
    reasm: Reassembly,
    /// Attribution record of the latest final response frame that did not
    /// complete the request: reordering can complete it on a *non-final*
    /// segment. Boxed, as in-order responses never store one.
    stages: Option<Box<netsim::StageRecord>>,
}

/// What a node id is in this cluster.
#[derive(Debug, Clone, Copy)]
enum Role {
    /// Not a server or client (the VIP, or an unattached id).
    Other,
    /// Index into the server list.
    Server(usize),
    /// Index into the client list.
    Client(usize),
}

/// Whole-run fault-injection and recovery accounting.
///
/// The identity `issued == completed + lost + rejected + in_flight`
/// holds at any instant (and at the horizon) on every run: no request
/// vanishes silently — every issued request is served, reported lost,
/// explicitly rejected by admission control, or still in flight, where
/// a request dropped with nothing armed to resend it stays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSummary {
    /// Frames the switch's impairment layer dropped as random loss.
    pub injected_losses: u64,
    /// Frames dropped as corruption (failed FCS at the receiver).
    pub injected_corruptions: u64,
    /// Frames held back for reordering.
    pub injected_reorders: u64,
    /// Request frames the clients retransmitted.
    pub retransmits: u64,
    /// Requests declared lost after exhausting retransmissions.
    pub lost_requests: u64,
    /// Retransmitted duplicates the server suppressed while the original
    /// was still being served.
    pub dup_suppressed: u64,
    /// Responses the server replayed for already-answered requests.
    pub resp_replays: u64,
    /// Latency-critical requests issued over the whole run.
    pub issued_total: u64,
    /// Requests whose response fully reassembled at the client.
    pub completed_total: u64,
    /// Requests the server rejected with a 503 under overload.
    pub rejected_total: u64,
    /// Requests still awaiting a response at the horizon, including any
    /// dropped on the way with no retransmission armed to recover them.
    pub in_flight: u64,
}

/// The simulated four-node (or N-node) cluster.
pub struct ClusterSim {
    servers: Vec<Kernel>,
    clients: Vec<OpenLoopClient>,
    /// Client indices whose traffic is background (not latency-tracked).
    background: Vec<bool>,
    /// Each node's role, indexed by `NodeId`; built once at construction.
    roles: Vec<Role>,
    switch: Switch,
    traces: Option<Traces>,
    sample_period: SimDuration,
    load_end: SimTime,
    measure_start: SimTime,
    measuring: bool,
    energy_baseline: EnergyMeter,
    offered_measured: u64,
    /// Latencies of the requests completed in the measured window (ns).
    latencies: LogHistogram,
    /// Requests rejected with a 503 in the measured window.
    rejected_measured: u64,
    faults: FaultConfig,
    /// The request ledger: latency-critical requests not yet resolved, by
    /// request id.
    inflight: netsim::IdMap<InFlight>,
    /// How long resolved entries of the servers' and the LB's
    /// request-keyed tables linger (set in `initial_events`).
    linger: SimDuration,
    /// Request copies that reached the LB after their client resolved
    /// them and found no conntrack entry: an entry retired too early.
    late_copies: u64,
    retransmits: u64,
    lost_requests: u64,
    issued_total: u64,
    completed_total: u64,
    rejected_total: u64,
    misroutes: u64,
    watchdog: Option<Watchdog>,
    fleet: Option<FleetState>,
    /// The buffer lent to every kernel call. `apply_effects` drains it
    /// after each call, so it keeps its capacity and events allocate
    /// nothing for their effects.
    fx: Effects,
    /// Full-population per-stage latency attribution (measurement
    /// sideband — never consulted by the simulated system).
    breakdown: BreakdownCollector,
    /// Collection gate; the sideband stamps are written regardless, so
    /// on vs off is bit-identical on simulated results.
    collect_breakdown: bool,
    /// Planted bug: a stage whose duration `record_completion` counts
    /// twice.
    #[cfg(test)]
    double_stamp: Option<usize>,
    /// Planted bug: the next completion retires its ledger row without
    /// being counted.
    #[cfg(test)]
    drop_completion: bool,
    /// Planted bug: each replay record is released as its response is
    /// sent instead of when the client resolves the request.
    #[cfg(test)]
    release_at_send: bool,
}

impl std::fmt::Debug for ClusterSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterSim")
            .field("servers", &self.servers)
            .field("clients", &self.clients.len())
            .field("measuring", &self.measuring)
            .finish()
    }
}

impl ClusterSim {
    /// Assembles a cluster of one or more server nodes (a fleet's
    /// backends) and their clients. `background[i]` marks client `i` as
    /// non-latency-critical side traffic.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when `background` and `clients` lengths
    /// differ, or when `servers` is empty.
    pub fn new(
        servers: Vec<Kernel>,
        clients: Vec<OpenLoopClient>,
        background: Vec<bool>,
        trace: Option<TraceConfig>,
    ) -> Result<Self, ConfigError> {
        if clients.len() != background.len() {
            return Err(ConfigError::new(
                "background",
                format!(
                    "flag per client required: {} clients, {} flags",
                    clients.len(),
                    background.len()
                ),
            ));
        }
        if servers.is_empty() {
            return Err(ConfigError::new("servers", "at least one server required"));
        }
        let mut switch = Switch::new(SimDuration::from_nanos(500));
        for srv in &servers {
            switch.attach(srv.node(), netsim::Link::ten_gbe(), netsim::Link::ten_gbe());
        }
        for c in &clients {
            switch.attach(
                c.config().me,
                netsim::Link::ten_gbe(),
                netsim::Link::ten_gbe(),
            );
        }
        let sample_period = trace.map_or(SimDuration::from_ms(1), |t| t.window);
        let nodes = servers
            .iter()
            .map(Kernel::node)
            .chain(clients.iter().map(|c| c.config().me))
            .map(|n| usize::from(n.0) + 1)
            .max()
            .unwrap_or(0);
        let mut roles = vec![Role::Other; nodes];
        for (i, srv) in servers.iter().enumerate() {
            roles[usize::from(srv.node().0)] = Role::Server(i);
        }
        for (i, c) in clients.iter().enumerate() {
            roles[usize::from(c.config().me.0)] = Role::Client(i);
        }
        Ok(ClusterSim {
            servers,
            clients,
            background,
            roles,
            switch,
            traces: trace.map(Traces::new),
            sample_period,
            load_end: SimTime::MAX,
            measure_start: SimTime::ZERO,
            measuring: true,
            energy_baseline: EnergyMeter::new(),
            offered_measured: 0,
            latencies: LogHistogram::new(),
            rejected_measured: 0,
            faults: FaultConfig::none(),
            inflight: netsim::IdMap::default(),
            linger: SimDuration::ZERO,
            late_copies: 0,
            retransmits: 0,
            lost_requests: 0,
            issued_total: 0,
            completed_total: 0,
            rejected_total: 0,
            misroutes: 0,
            watchdog: None,
            fleet: None,
            fx: Effects::default(),
            breakdown: BreakdownCollector::new(),
            collect_breakdown: true,
            #[cfg(test)]
            double_stamp: None,
            #[cfg(test)]
            drop_completion: false,
            #[cfg(test)]
            release_at_send: false,
        })
    }

    /// Enables or disables per-stage latency collection (builder style).
    /// The path stamps are written either way; this only gates the
    /// client-side accumulation, so simulated results are bit-identical.
    #[must_use]
    pub fn with_breakdown(mut self, enabled: bool) -> Self {
        self.collect_breakdown = enabled;
        self
    }

    /// Installs the fault-injection subsystem (builder style): the
    /// switch's impairment layer plus, when the retransmission policy is
    /// enabled, the client-side retransmission timers. An inert
    /// [`FaultConfig::none`] leaves the simulation byte-identical.
    #[must_use]
    pub fn with_fault_injection(mut self, faults: FaultConfig) -> Self {
        self.switch.set_faults(faults);
        self.faults = faults;
        self
    }

    /// Installs the fleet layer (builder style): attaches the LB node
    /// at `vip` to the switch and fronts every server with it. Clients
    /// should address the VIP; the LB dispatches per `cfg` and, when a
    /// coordinator is configured, parks/unparks backends as fleet load
    /// moves.
    #[must_use]
    pub fn with_fleet(mut self, vip: NodeId, cfg: &FleetConfig) -> Self {
        self.switch
            .attach(vip, netsim::Link::ten_gbe(), netsim::Link::ten_gbe());
        let backends: Vec<NodeId> = self.servers.iter().map(Kernel::node).collect();
        let down = vec![None; backends.len()];
        let partitioned = vec![false; backends.len()];
        self.fleet = Some(FleetState {
            lb: LoadBalancer::new(vip, backends, cfg),
            coordinator: cfg.coordinator.clone().map(FleetCoordinator::new),
            latency: cfg.lb_latency,
            health: cfg.effective_health(),
            faults: cfg.faults.clone(),
            domains: cfg.domains.clone(),
            partitioned,
            open_windows: 0,
            down,
            last_failovers: 0,
        });
        self
    }

    /// Installs the runtime invariant watchdog (builder style). The
    /// watchdog is a pure observer — results are byte-identical with it
    /// on or off — and records structured
    /// [`InvariantViolation`](crate::watchdog::InvariantViolation)s.
    #[must_use]
    pub fn with_watchdog(mut self, watchdog: Watchdog) -> Self {
        self.watchdog = Some(watchdog);
        self
    }

    /// Seeds the initial events: kernel boot, staggered client bursts,
    /// warmup boundary and trace sampling. Call once before running.
    pub fn initial_events(
        &mut self,
        warmup: SimDuration,
        load_end: SimTime,
    ) -> Vec<(SimTime, ClusterEvent)> {
        self.load_end = load_end;
        if !warmup.is_zero() {
            self.measuring = false;
        }
        let domain_jitter = self
            .fleet
            .as_ref()
            .map_or(SimDuration::ZERO, |f| f.domains.max_jitter());
        self.install_linger(self.faults.linger(domain_jitter));
        let mut events = Vec::new();
        for si in 0..self.servers.len() {
            let node = self.servers[si].node();
            let mut fx = Effects::default();
            self.servers[si].init(SimTime::ZERO, &mut fx);
            for (t, e) in fx.schedule {
                events.push((t, ClusterEvent::Server(node, e)));
            }
        }
        // Stagger client start offsets so the three independent load
        // generators do not begin phase-locked.
        let n = self.clients.len().max(1) as u64;
        for (i, c) in self.clients.iter().enumerate() {
            let offset = c.config().period.as_nanos() * i as u64 / n;
            events.push((
                SimTime::from_nanos(offset),
                ClusterEvent::ClientBurst { idx: i },
            ));
        }
        if !warmup.is_zero() {
            events.push((SimTime::ZERO + warmup, ClusterEvent::StartMeasure));
        }
        if self.traces.is_some() {
            events.push((SimTime::ZERO + self.sample_period, ClusterEvent::Sample));
        }
        if let Some(wd) = &self.watchdog {
            events.push((SimTime::ZERO + wd.period(), ClusterEvent::Watchdog));
        }
        if let Some(co) = self.fleet.as_ref().and_then(|f| f.coordinator.as_ref()) {
            events.push((SimTime::ZERO + co.epoch_period(), ClusterEvent::FleetEpoch));
        }
        if let Some(fs) = &self.fleet {
            for spec in &fs.faults.specs {
                events.push((
                    spec.at,
                    ClusterEvent::BackendFail {
                        backend: spec.backend,
                        mode: spec.mode,
                    },
                ));
                if let Some(d) = spec.restart_after {
                    events.push((
                        spec.at + d,
                        ClusterEvent::BackendRestart {
                            backend: spec.backend,
                        },
                    ));
                }
            }
            for (i, spec) in fs.domains.domains.iter().enumerate() {
                events.push((spec.at, ClusterEvent::DomainFail { domain: i }));
                events.push((spec.heals_at(), ClusterEvent::DomainHeal { domain: i }));
            }
            if let Some(h) = &fs.health {
                events.push((SimTime::ZERO + h.interval, ClusterEvent::FleetHealth));
            }
        }
        // Pre-register the drop/recovery and overload counters so trace
        // CSV exports always carry the columns, even for runs where no
        // fault fires and nothing is shed.
        if simtrace::is_enabled() {
            for (component, name) in [
                ("nic", "rx_drops"),
                ("net", "fault_losses"),
                ("net", "fault_corruptions"),
                ("net", "fault_reorders"),
                ("cluster", "retransmits"),
                ("cluster", "lost_requests"),
                ("kernel", "rejected"),
                ("watchdog", "checks"),
            ] {
                simtrace::metric_add(component, name, 0, 0.0);
            }
            simtrace::metric_set("kernel", "queue_depth", 0, 0.0);
            simtrace::metric_set("cluster", "goodput", 0, 0.0);
            if let Some(fs) = &self.fleet {
                simtrace::metric_add("fleet", "dispatched", 0, 0.0);
                simtrace::metric_set("fleet", "lb_depth", 0, 0.0);
                simtrace::metric_set("fleet", "parked_backends", 0, 0.0);
                simtrace::metric_set("fleet", "active_backends", 0, 0.0);
                if fs.health.is_some() {
                    for name in [
                        "failovers",
                        "health_probes",
                        "health_fails",
                        "health_ejects",
                        "health_rejoins",
                        "dead_frames",
                    ] {
                        simtrace::metric_add("fleet", name, 0, 0.0);
                    }
                }
                if fs.domains.enabled() {
                    for name in ["partition_drops", "brownout_drops", "brownout_jitter_ns"] {
                        simtrace::metric_add("chaos", name, 0, 0.0);
                    }
                    simtrace::metric_set("chaos", "open_windows", 0, 0.0);
                }
                for i in 0..fs
                    .lb
                    .backend_count()
                    .min(fleetsim::metrics::MAX_TRACKED_BACKENDS)
                {
                    if let Some(name) = fleetsim::metrics::dispatched(i) {
                        simtrace::metric_add("fleet", name, 0, 0.0);
                    }
                    if let Some(name) = fleetsim::metrics::outstanding(i) {
                        simtrace::metric_set("fleet", name, 0, 0.0);
                    }
                    if let Some(name) = fleetsim::metrics::parked_ns(i) {
                        simtrace::metric_add("fleet", name, 0, 0.0);
                    }
                }
            }
        }
        events
    }

    /// Sets how long resolved entries of the servers' duplicate tables and
    /// the LB's conntrack linger before they retire.
    fn install_linger(&mut self, linger: SimDuration) {
        self.linger = linger;
        for s in &mut self.servers {
            s.set_dedup_linger(linger);
        }
        if let Some(fs) = self.fleet.as_mut() {
            fs.lb.set_linger(linger);
        }
    }

    fn route(&mut self, now: SimTime, frame: Packet, queue: &mut EventQueue<ClusterEvent>) {
        let delivery = self
            .switch
            .route(now, frame.src(), frame.dst(), frame.wire_len());
        match delivery {
            Ok(Delivery::Deliver(arrival)) => {
                queue.push(arrival, ClusterEvent::Deliver { frame });
            }
            // The frame vanishes in the fabric; recovery, if any, comes
            // from the retransmission timers.
            Ok(Delivery::Dropped(_)) => {}
            // A frame addressed to a node the switch does not know: drop
            // it and account the misroute — the watchdog surfaces it as a
            // structured Routing violation instead of a panic.
            Err(_) => {
                self.misroutes += 1;
                if simtrace::is_enabled() {
                    simtrace::instant_args(
                        "cluster",
                        "misroute",
                        now.as_nanos(),
                        &[
                            simtrace::arg("src", u64::from(frame.src().0)),
                            simtrace::arg("dst", u64::from(frame.dst().0)),
                        ],
                    );
                }
            }
        }
    }

    /// Hands `event` to server `si`'s kernel in the lent buffer, then
    /// applies what it produced.
    fn run_server(
        &mut self,
        now: SimTime,
        si: usize,
        event: NodeEvent,
        queue: &mut EventQueue<ClusterEvent>,
    ) {
        let mut fx = std::mem::take(&mut self.fx);
        self.servers[si].handle(now, event, &mut fx);
        let node = self.servers[si].node();
        self.apply_effects(now, node, &mut fx, queue);
        self.fx = fx;
    }

    /// Drains `fx`: schedules its events, then routes its frames, in the
    /// order the handler produced them.
    fn apply_effects(
        &mut self,
        now: SimTime,
        node: NodeId,
        fx: &mut Effects,
        queue: &mut EventQueue<ClusterEvent>,
    ) {
        for (t, e) in fx.schedule.drain(..) {
            queue.push(t, ClusterEvent::Server(node, e));
        }
        for frame in fx.transmit.drain(..) {
            #[cfg(test)]
            if self.release_at_send && frame.meta().is_final {
                if let (Some(si), Some(rid)) = (self.server_index(node), frame.meta().request_id) {
                    self.servers[si].release_replay(rid);
                }
            }
            let bytes = frame.wire_len() as f64;
            if let Some(tr) = self.traces.as_mut() {
                tr.tx.add(now.as_nanos(), bytes);
            }
            simtrace::metric_add("cluster", "bw_tx", now.as_nanos(), bytes);
            self.route(now, frame, queue);
        }
    }

    fn on_client_burst(&mut self, now: SimTime, idx: usize, queue: &mut EventQueue<ClusterEvent>) {
        let (frames, next) = self.clients[idx].next_burst(now);
        let is_bg = self.background[idx];
        let armed = self.faults.retx.enabled;
        for frame in frames {
            // Every latency-critical request enters the ledger; background
            // traffic stays best-effort and never does.
            if let Some(id) = frame.meta().request_id.filter(|_| !is_bg) {
                if self.measuring {
                    self.offered_measured += 1;
                }
                self.issued_total += 1;
                self.inflight.insert(
                    id,
                    InFlight {
                        frame: armed.then(|| frame.clone()),
                        attempt: 0,
                        reasm: Reassembly::new(),
                        stages: None,
                    },
                );
                if armed {
                    queue.push(
                        now + self.faults.retx.rto_for(0),
                        ClusterEvent::RetxCheck { id, attempt: 0 },
                    );
                }
            }
            self.route(now, frame, queue);
        }
        if next <= self.load_end {
            queue.push(next, ClusterEvent::ClientBurst { idx });
        }
    }

    fn role(&self, node: NodeId) -> Role {
        self.roles
            .get(usize::from(node.0))
            .copied()
            .unwrap_or(Role::Other)
    }

    fn server_index(&self, node: NodeId) -> Option<usize> {
        match self.role(node) {
            Role::Server(i) => Some(i),
            _ => None,
        }
    }

    fn on_deliver(&mut self, now: SimTime, frame: Packet, queue: &mut EventQueue<ClusterEvent>) {
        if self
            .fleet
            .as_ref()
            .is_some_and(|f| f.lb.vip() == frame.dst())
        {
            self.on_lb_frame(now, frame, queue);
            return;
        }
        if let Some(si) = self.server_index(frame.dst()) {
            // A crashed machine's NIC is dark: frames already in the
            // fabric when it died (or forwarded before the prober caught
            // up) land on the floor. Recovery comes from retransmission
            // failover, never silently.
            if self
                .fleet
                .as_ref()
                .is_some_and(|f| f.down.get(si).copied().flatten() == Some(FailureMode::Stop))
            {
                Self::note_dead_frame(now);
                return;
            }
            let bytes = frame.wire_len() as f64;
            if let Some(tr) = self.traces.as_mut() {
                tr.rx.add(now.as_nanos(), bytes);
            }
            simtrace::metric_add("cluster", "bw_rx", now.as_nanos(), bytes);
            self.run_server(now, si, NodeEvent::FrameFromWire(frame), queue);
        } else {
            self.on_client_response(now, &frame);
        }
    }

    /// Traces a frame that died at (or from) a failed machine. With the
    /// reliability layer armed each resolves via retransmission failover
    /// or an explicit loss, never silently.
    fn note_dead_frame(now: SimTime) {
        if simtrace::is_enabled() {
            simtrace::metric_add("fleet", "dead_frames", now.as_nanos(), 1.0);
        }
    }

    /// The VIP receive path: the LB rewrites and forwards frames after
    /// its per-frame latency. Requests (from clients) pick a backend per
    /// the dispatch policy; responses (from backends) route back to the
    /// originating client and retire the conntrack entry.
    fn on_lb_frame(&mut self, now: SimTime, frame: Packet, queue: &mut EventQueue<ClusterEvent>) {
        let Some(mut fs) = self.fleet.take() else {
            return;
        };
        fs.lb.advance_clock(now);
        let backend = fs.lb.backend_index(frame.src());
        let is_response = backend.is_some();
        let mut slow_extra = SimDuration::ZERO;
        let forward = if let Some(idx) = backend {
            // A crashed machine's responses died with it; a hung machine
            // admits requests but never answers. Either way the frame
            // never reaches the client — the conntrack entry stays open
            // until retransmission failover or loss resolves it.
            if matches!(fs.down[idx], Some(FailureMode::Stop | FailureMode::Hang)) {
                Self::note_dead_frame(now);
                self.fleet = Some(fs);
                return;
            }
            if fs.health.is_some() {
                fs.lb.note_ok(idx);
            }
            let resp = fs.lb.on_response(frame);
            if let Some(drained) = resp.drained {
                if let Some(co) = fs.coordinator.as_mut() {
                    if let Some(action) = co.on_drained(now, &mut fs.lb, drained) {
                        Self::schedule_fleet_action(now, action, queue);
                    }
                }
            }
            if simtrace::is_enabled() {
                let t = now.as_nanos();
                simtrace::metric_set("fleet", "lb_depth", t, fs.lb.outstanding() as f64);
                if let Some(name) = fleetsim::metrics::outstanding(idx) {
                    simtrace::metric_set("fleet", name, t, fs.lb.outstanding_of(idx) as f64);
                }
            }
            resp.forward
        } else {
            if let Some(id) = frame.meta().request_id {
                if !fs.lb.tracks(id)
                    && matches!(self.role(frame.src()), Role::Client(i) if !self.background[i])
                    && !self.inflight.contains_key(&id)
                {
                    self.late_copies += 1;
                }
            }
            let (idx, out) = fs.lb.dispatch(frame);
            // Fail-slow: the machine serves at a multiple of its normal
            // service time. Modelled coarsely as an extra forwarding
            // delay at the network boundary (the LB cannot know backend
            // service times; what matters is that the slow machine's
            // requests take visibly longer and trip client RTOs).
            if fs.down.get(idx).copied().flatten() == Some(FailureMode::Slow) {
                let ns = fs.latency.as_nanos() as f64 * fs.faults.slow_factor;
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                {
                    slow_extra = SimDuration::from_nanos(ns as u64);
                }
            }
            if simtrace::is_enabled() {
                let t = now.as_nanos();
                simtrace::metric_add("fleet", "dispatched", t, 1.0);
                simtrace::metric_set("fleet", "lb_depth", t, fs.lb.outstanding() as f64);
                if let Some(name) = fleetsim::metrics::dispatched(idx) {
                    simtrace::metric_add("fleet", name, t, 1.0);
                }
                if let Some(name) = fleetsim::metrics::outstanding(idx) {
                    simtrace::metric_set("fleet", name, t, fs.lb.outstanding_of(idx) as f64);
                }
                let f = fs.lb.failovers();
                if f > fs.last_failovers {
                    simtrace::metric_add("fleet", "failovers", t, (f - fs.last_failovers) as f64);
                    fs.last_failovers = f;
                }
            }
            Some(out)
        };
        if let Some(mut f) = forward {
            // Attribution: the LB's forwarding hold, per direction. The
            // extra switch hop's transit stays in the net stages.
            let hold = ns32((fs.latency + slow_extra).as_nanos());
            let st = &mut f.meta_mut().stages;
            if is_response {
                st.lb_out_ns = st.lb_out_ns.saturating_add(hold);
            } else {
                st.lb_in_ns = st.lb_in_ns.saturating_add(hold);
            }
            self.route(now + fs.latency + slow_extra, f, queue);
        }
        self.fleet = Some(fs);
    }

    /// Turns a coordinator action into its completion event (and flushes
    /// the parked-time metric an unpark reveals).
    fn schedule_fleet_action(
        now: SimTime,
        action: FleetAction,
        queue: &mut EventQueue<ClusterEvent>,
    ) {
        match action {
            FleetAction::ParkDone { backend, gen, at } => {
                queue.push(at, ClusterEvent::FleetParkDone { backend, gen });
            }
            FleetAction::UnparkDone {
                backend,
                gen,
                at,
                parked_for,
            } => {
                if simtrace::is_enabled() && !parked_for.is_zero() {
                    if let Some(name) = fleetsim::metrics::parked_ns(backend) {
                        simtrace::metric_add("fleet", name, now.as_nanos(), {
                            parked_for.as_nanos() as f64
                        });
                    }
                }
                queue.push(at, ClusterEvent::FleetUnparkDone { backend, gen });
            }
        }
    }

    /// A coordinator epoch: re-estimate fleet load, park or unpark
    /// backends, and re-arm the epoch timer.
    fn on_fleet_epoch(&mut self, now: SimTime, queue: &mut EventQueue<ClusterEvent>) {
        let Some(mut fs) = self.fleet.take() else {
            return;
        };
        if let Some(co) = fs.coordinator.as_mut() {
            for action in co.epoch(now, &mut fs.lb) {
                Self::schedule_fleet_action(now, action, queue);
            }
            queue.push(now + co.epoch_period(), ClusterEvent::FleetEpoch);
            if simtrace::is_enabled() {
                let t = now.as_nanos();
                simtrace::metric_set("fleet", "active_backends", t, fs.lb.committed() as f64);
                simtrace::metric_set("fleet", "parked_backends", t, fs.lb.parked_count() as f64);
            }
        }
        self.fleet = Some(fs);
    }

    /// A park or unpark transition completed (generation-guarded: stale
    /// completions from cancelled transitions are ignored).
    fn on_fleet_transition_done(&mut self, now: SimTime, backend: usize, gen: u32, park: bool) {
        let Some(mut fs) = self.fleet.take() else {
            return;
        };
        if let Some(co) = fs.coordinator.as_mut() {
            let landed = if park {
                co.park_done(now, &mut fs.lb, backend, gen)
            } else {
                co.unpark_done(&mut fs.lb, backend, gen)
            };
            if landed && simtrace::is_enabled() {
                let t = now.as_nanos();
                simtrace::metric_set("fleet", "parked_backends", t, fs.lb.parked_count() as f64);
                simtrace::metric_set("fleet", "active_backends", t, fs.lb.committed() as f64);
            }
        }
        self.fleet = Some(fs);
    }

    /// A scheduled machine failure fires: record ground truth. The LB is
    /// not told — detection rides the prober (crash) or request timeouts
    /// (hang/slow), so detection latency is interval × threshold, like a
    /// real balancer's.
    fn on_backend_fail(&mut self, now: SimTime, backend: usize, mode: FailureMode) {
        if let Some(fs) = self.fleet.as_mut() {
            if let Some(slot) = fs.down.get_mut(backend) {
                *slot = Some(mode);
            }
            if simtrace::is_enabled() {
                simtrace::instant_args(
                    "fleet",
                    "backend_fail",
                    now.as_nanos(),
                    &[simtrace::arg("backend", backend as u64)],
                );
            }
        }
    }

    /// A failed machine restarts healthy. Reinstatement into rotation
    /// still waits for the prober's rejoin threshold.
    fn on_backend_restart(&mut self, now: SimTime, backend: usize) {
        if let Some(fs) = self.fleet.as_mut() {
            if let Some(slot) = fs.down.get_mut(backend) {
                *slot = None;
            }
            if simtrace::is_enabled() {
                simtrace::instant_args(
                    "fleet",
                    "backend_restart",
                    now.as_nanos(),
                    &[simtrace::arg("backend", backend as u64)],
                );
            }
        }
    }

    /// A correlated fault window opens: install the domain's impairment
    /// on the fabric switch for every member node and, for a partition,
    /// record the ground truth the prober is judged against. The LB is
    /// never told directly — like machine failures, domain faults are
    /// detected through probes and request timeouts.
    fn on_domain_fail(&mut self, now: SimTime, domain: usize) {
        let Some(fs) = self.fleet.as_mut() else {
            return;
        };
        let Some(spec) = fs.domains.domains.get(domain) else {
            return;
        };
        let members: Vec<NodeId> = spec
            .backends
            .iter()
            .filter_map(|&b| self.servers.get(b).map(Kernel::node))
            .collect();
        self.switch
            .fail_domain(&members, spec.impairment, fs.domains.seed);
        if matches!(spec.impairment, netsim::DomainImpairment::Partition) {
            for &b in &spec.backends {
                if let Some(slot) = fs.partitioned.get_mut(b) {
                    *slot = true;
                }
            }
        }
        fs.open_windows += 1;
        if simtrace::is_enabled() {
            let t = now.as_nanos();
            simtrace::instant_args(
                "chaos",
                "domain_fail",
                t,
                &[
                    simtrace::arg("domain", domain as u64),
                    simtrace::arg("members", spec.backends.len() as u64),
                ],
            );
            simtrace::metric_set("chaos", "open_windows", t, f64::from(fs.open_windows));
        }
    }

    /// A correlated fault window closes: heal the members on the switch
    /// and clear the partition ground truth (reinstatement into rotation
    /// still waits for the prober's rejoin threshold).
    fn on_domain_heal(&mut self, now: SimTime, domain: usize) {
        let Some(fs) = self.fleet.as_mut() else {
            return;
        };
        let Some(spec) = fs.domains.domains.get(domain) else {
            return;
        };
        let members: Vec<NodeId> = spec
            .backends
            .iter()
            .filter_map(|&b| self.servers.get(b).map(Kernel::node))
            .collect();
        self.switch.heal_domain(&members);
        for &b in &spec.backends {
            if let Some(slot) = fs.partitioned.get_mut(b) {
                *slot = false;
            }
        }
        fs.open_windows = fs.open_windows.saturating_sub(1);
        if simtrace::is_enabled() {
            let t = now.as_nanos();
            simtrace::instant_args(
                "chaos",
                "domain_heal",
                t,
                &[simtrace::arg("domain", domain as u64)],
            );
            simtrace::metric_set("chaos", "open_windows", t, f64::from(fs.open_windows));
        }
    }

    /// The active prober's tick: probe every non-parked backend, judge
    /// the result against the machine's ground-truth state, and let the
    /// LB apply its K-strike ejection/rejoin thresholds. Probes are not
    /// modelled as frames — their bandwidth is negligible next to request
    /// traffic, and the quantity that matters, detection latency
    /// (interval × threshold), is preserved exactly.
    fn on_fleet_health(&mut self, now: SimTime, queue: &mut EventQueue<ClusterEvent>) {
        let Some(mut fs) = self.fleet.take() else {
            return;
        };
        let Some(h) = fs.health else {
            self.fleet = Some(fs);
            return;
        };
        let before = (
            fs.lb.health_probes(),
            fs.lb.probe_failures(),
            fs.lb.ejections(),
            fs.lb.rejoins(),
        );
        for idx in 0..fs.lb.backend_count() {
            if !fs.lb.probeable(idx) {
                continue;
            }
            let ok = fs.down[idx].is_none_or(FailureMode::probe_succeeds) && !fs.partitioned[idx];
            let _ = fs.lb.record_probe(now, idx, ok);
        }
        if simtrace::is_enabled() {
            let t = now.as_nanos();
            let emit = |name: &'static str, prev: u64, cur: u64| {
                if cur > prev {
                    simtrace::metric_add("fleet", name, t, (cur - prev) as f64);
                }
            };
            emit("health_probes", before.0, fs.lb.health_probes());
            emit("health_fails", before.1, fs.lb.probe_failures());
            emit("health_ejects", before.2, fs.lb.ejections());
            emit("health_rejoins", before.3, fs.lb.rejoins());
        }
        queue.push(now + h.interval, ClusterEvent::FleetHealth);
        self.fleet = Some(fs);
    }

    /// Derives the reported per-stage vector from a completing response's
    /// attribution record. The residual stages (`net_in`, `net_out`)
    /// absorb switch/wire transit, so the vector tiles the
    /// client-observed latency exactly: Σ stages == `now - sent_at`.
    fn stage_vector(
        now: SimTime,
        sent_at: SimTime,
        st: &netsim::StageRecord,
    ) -> ([u32; STAGE_COUNT], u64) {
        let sent = sent_at.as_nanos();
        let total = now.as_nanos().saturating_sub(sent);
        let arrival = st.arrival.as_nanos();
        let mut v = [0u32; STAGE_COUNT];
        v[stage::NET_IN] = ns32(
            arrival
                .saturating_sub(sent)
                .saturating_sub(u64::from(st.retx_ns))
                .saturating_sub(u64::from(st.lb_in_ns)),
        );
        v[stage::LB] = st.lb_in_ns.saturating_add(st.lb_out_ns);
        v[stage::DMA] = ns32(st.dma_done.as_nanos().saturating_sub(arrival));
        v[stage::MODERATION] = st.moderation_ns;
        v[stage::WAKE] = st.wake_ns;
        v[stage::STACK] = st.stack_ns;
        v[stage::POLL_WAIT] = st.poll_wait_ns;
        v[stage::RQ_WAIT] = st.rq_wait_ns;
        v[stage::CPU] = st.cpu_ns;
        v[stage::IO] = st.io_ns;
        v[stage::TX] = st.tx_ns;
        v[stage::NET_OUT] = ns32(
            now.as_nanos()
                .saturating_sub(st.last_tx.as_nanos())
                .saturating_sub(u64::from(st.lb_out_ns)),
        );
        v[stage::RETX] = st.retx_ns.saturating_add(st.replay_ns);
        (v, total)
    }

    /// Records one completed request into the breakdown population and,
    /// when tracing, emits per-stage async spans tiling `[sent_at, now]`
    /// in canonical stage order.
    fn record_completion(
        &mut self,
        now: SimTime,
        rid: u64,
        sent_at: SimTime,
        st: &netsim::StageRecord,
    ) {
        if !self.collect_breakdown {
            return;
        }
        let (v, total) = Self::stage_vector(now, sent_at, st);
        #[cfg(test)]
        let v = {
            let mut v = v;
            if let Some(s) = self.double_stamp {
                v[s] = v[s].saturating_mul(2);
            }
            v
        };
        self.breakdown.record(v, total);
        if simtrace::is_enabled() {
            const ORDER: [usize; STAGE_COUNT] = [
                stage::RETX,
                stage::NET_IN,
                stage::LB,
                stage::DMA,
                stage::MODERATION,
                stage::WAKE,
                stage::STACK,
                stage::POLL_WAIT,
                stage::RQ_WAIT,
                stage::CPU,
                stage::IO,
                stage::TX,
                stage::NET_OUT,
            ];
            let mut cursor = sent_at.as_nanos();
            for &i in &ORDER {
                let d = u64::from(v[i]);
                if d == 0 {
                    continue;
                }
                let id = simtrace::async_begin(
                    "latency",
                    STAGE_NAMES[i],
                    cursor,
                    &[simtrace::arg("id", rid)],
                );
                simtrace::async_end("latency", STAGE_NAMES[i], cursor + d, id);
                cursor += d;
            }
        }
    }

    /// The client receive path: response segments feed the request's
    /// reassembler, duplicates (from replays or reordering) are absorbed,
    /// and the request completes exactly once, when every segment has
    /// arrived, timed from its original send. Frames with no ledger row
    /// (resolved, or background traffic) are absorbed too.
    fn on_client_response(&mut self, now: SimTime, frame: &Packet) {
        let meta = frame.meta();
        let Some(rid) = meta.request_id else { return };
        let measured = meta.sent_at >= self.measure_start && self.measuring;
        if meta.rejected {
            // A 503: the server refused the request under overload. The
            // request is *resolved* (no retransmission, no latency
            // sample); a stale replay after resolution is ignored.
            if self.inflight.remove(&rid).is_some() {
                self.rejected_total += 1;
                if measured {
                    self.rejected_measured += 1;
                }
            }
            return;
        }
        let Some(entry) = self.inflight.get_mut(&rid) else {
            return;
        };
        if entry.reasm.on_segment(meta.seq, meta.is_final) != SegmentStatus::Completed {
            if meta.is_final {
                entry.stages = Some(Box::new(meta.stages));
            }
            return;
        }
        // Removing the row cancels the pending timer: the next RetxCheck
        // finds no state and is a no-op.
        let row = self.inflight.remove(&rid);
        if self.faults.retx.enabled {
            self.release_replay(rid, frame.src());
        }
        let stages = if meta.is_final {
            Some(meta.stages)
        } else {
            row.and_then(|e| e.stages).map(|st| *st)
        };
        #[cfg(test)]
        if std::mem::take(&mut self.drop_completion) {
            return;
        }
        self.completed_total += 1;
        if measured {
            let latency = now.saturating_since(meta.sent_at);
            self.latencies.record(latency.as_nanos().max(1));
            if let Some(st) = stages {
                self.record_completion(now, rid, meta.sent_at, &st);
            }
        }
    }

    /// Frees the replay record of `rid`, which its client just resolved,
    /// on the server that served it: the response's source, or in a fleet
    /// the backend the LB's lingering conntrack entry pins. A record held
    /// elsewhere (a failed-over request's first server) retires with its
    /// duplicate-table entry.
    fn release_replay(&mut self, rid: u64, src: NodeId) {
        let served = match &self.fleet {
            Some(fs) => fs.lb.pin_of(rid),
            None => self.server_index(src),
        };
        if let Some(si) = served {
            self.servers[si].release_replay(rid);
        }
    }

    /// A retransmission timer fired: resend the request (with backoff) or
    /// declare it lost after the final attempt.
    fn on_retx_check(
        &mut self,
        now: SimTime,
        id: u64,
        attempt: u32,
        queue: &mut EventQueue<ClusterEvent>,
    ) {
        let Some(state) = self.inflight.get_mut(&id) else {
            return; // Resolved; the timer outlived the request.
        };
        if state.attempt != attempt {
            return; // Stale generation; a newer timer is armed.
        }
        let retx = self.faults.retx;
        if state.attempt >= retx.max_retries {
            // Give up: the request is *reported* lost, never silent. A
            // response arriving later finds no entry and is absorbed.
            self.inflight.remove(&id);
            self.lost_requests += 1;
            if simtrace::is_enabled() {
                let t = now.as_nanos();
                simtrace::instant_args(
                    "cluster",
                    "request_lost",
                    t,
                    &[
                        simtrace::arg("id", id),
                        simtrace::arg("attempts", u64::from(attempt)),
                    ],
                );
                simtrace::metric_add("cluster", "lost_requests", t, 1.0);
            }
            return;
        }
        state.attempt += 1;
        let next_attempt = state.attempt;
        let mut frame = Packet::clone(
            state
                .frame
                .as_ref()
                .expect("a RetxCheck is only armed with the frame copy"),
        );
        // Attribution: the cumulative client-side wait up to this resend.
        // If this copy is the one the server serves, the stamp rides with
        // it; earlier copies carry their own (smaller) stamp.
        frame.meta_mut().stages.retx_ns = ns32(
            now.as_nanos()
                .saturating_sub(frame.meta().sent_at.as_nanos()),
        );
        self.retransmits += 1;
        if simtrace::is_enabled() {
            let t = now.as_nanos();
            simtrace::instant_args(
                "cluster",
                "retransmit",
                t,
                &[
                    simtrace::arg("id", id),
                    simtrace::arg("attempt", u64::from(next_attempt)),
                ],
            );
            simtrace::metric_add("cluster", "retransmits", t, 1.0);
        }
        queue.push(
            now + retx.rto_for(next_attempt),
            ClusterEvent::RetxCheck {
                id,
                attempt: next_attempt,
            },
        );
        // Passive health: an RTO firing against a pinned backend is a
        // strike; enough consecutive strikes eject it — the only detector
        // that catches a hung machine, whose probes still succeed. The
        // resent frame then re-pins to a healthy backend at dispatch.
        if let Some(fs) = self.fleet.as_mut() {
            if let Some(idx) = fs.lb.pinned_backend(id) {
                let _ = fs.lb.note_timeout(idx);
            }
        }
        self.route(now, frame, queue);
    }

    /// Runs the periodic invariant check and re-arms its timer.
    fn on_watchdog(&mut self, now: SimTime, queue: &mut EventQueue<ClusterEvent>) {
        let Some(mut wd) = self.watchdog.take() else {
            return;
        };
        let acc = self.accounting_view();
        let ledger = self.fleet.as_ref().map(|f| f.lb.ledger());
        wd.check(now, &self.servers, &acc, ledger.as_ref());
        queue.push(now + wd.period(), ClusterEvent::Watchdog);
        self.watchdog = Some(wd);
    }

    fn accounting_view(&self) -> AccountingView {
        AccountingView {
            issued: self.issued_total,
            completed: self.completed_total,
            lost: self.lost_requests,
            rejected: self.rejected_total,
            in_flight: self.inflight.len() as u64,
            misroutes: self.misroutes,
            late_copies: self.late_copies,
            untiled: self.breakdown.untiled(),
        }
    }

    fn on_sample(&mut self, now: SimTime, queue: &mut EventQueue<ClusterEvent>) {
        // Traces follow the first server (the paper's single-server study).
        self.servers[0].finalize(now);
        let cores = self.servers[0].cores();
        let freq_ghz = cores[0].freq_hz() as f64 / 1e9;
        let total_busy: SimDuration = cores.iter().map(cpusim::Core::busy_time).sum();
        let modes = Traces::cstate_modes();
        let mut cstate = [SimDuration::ZERO; 3];
        for (i, m) in modes.iter().enumerate() {
            cstate[i] = cores.iter().map(|c| c.energy().time_in(*m)).sum();
        }
        let ncores = cores.len();
        // Goodput (served) vs. throughput (served + rejected): under
        // overload the two series diverge — rejected requests consume
        // almost no server work but still resolve at clients.
        let served = self.latencies.count() as f64;
        let rejected = self.rejected_measured as f64;
        let t = now.as_nanos();
        if let Some(tr) = self.traces.as_mut() {
            tr.sample(now, freq_ghz, total_busy, cstate, ncores);
            tr.goodput.push(t, served);
            tr.throughput.push(t, served + rejected);
        }
        // The one mirror of the figure gauges onto the global tracer, so
        // `ncap trace` CSVs carry the same series as `Traces`.
        if simtrace::is_enabled() {
            simtrace::metric_set("cluster", "freq_ghz", t, freq_ghz);
            simtrace::metric_set("cluster", "busy_ns", t, total_busy.as_nanos() as f64);
            for (name, c) in ["c1_ns", "c3_ns", "c6_ns"].into_iter().zip(cstate) {
                simtrace::metric_set("cluster", name, t, c.as_nanos() as f64);
            }
            simtrace::metric_set("cluster", "goodput", t, served);
            simtrace::metric_set("cluster", "throughput", t, served + rejected);
        }
        queue.push(now + self.sample_period, ClusterEvent::Sample);
    }

    fn on_start_measure(&mut self, now: SimTime) {
        for s in &mut self.servers {
            s.finalize(now);
        }
        self.energy_baseline = self.total_energy_raw();
        self.measure_start = now;
        self.measuring = true;
        self.latencies = LogHistogram::new();
        self.rejected_measured = 0;
        self.offered_measured = 0;
        self.breakdown.reset();
    }

    fn total_energy_raw(&self) -> EnergyMeter {
        let mut total = EnergyMeter::new();
        for s in &self.servers {
            for c in s.cores() {
                total.merge(c.energy());
            }
            total.merge(s.uncore_energy());
        }
        // Park/unpark transition energy is part of the fleet's bill; by
        // folding it into the same meter the warmup-baseline diff stays
        // correct for coordinated runs.
        if let Some(co) = self.fleet.as_ref().and_then(|f| f.coordinator.as_ref()) {
            total.merge(co.energy());
        }
        total
    }

    // ----- results -------------------------------------------------------

    /// Flushes accounting to `now` (call once at the horizon).
    pub fn finalize(&mut self, now: SimTime) {
        for s in &mut self.servers {
            s.finalize(now);
        }
        if let Some(fs) = self.fleet.as_mut() {
            for (idx, parked) in fs.lb.finalize(now) {
                if simtrace::is_enabled() && !parked.is_zero() {
                    if let Some(name) = fleetsim::metrics::parked_ns(idx) {
                        simtrace::metric_add("fleet", name, now.as_nanos(), {
                            parked.as_nanos() as f64
                        });
                    }
                }
            }
        }
        // One terminal invariant check so the horizon state (notably the
        // conservation identity) is always validated, even for runs
        // shorter than the watchdog period.
        if let Some(mut wd) = self.watchdog.take() {
            let acc = self.accounting_view();
            let ledger = self.fleet.as_ref().map(|f| f.lb.ledger());
            wd.check(now, &self.servers, &acc, ledger.as_ref());
            wd.check_quiescence(now, &acc, ledger.as_ref());
            self.watchdog = Some(wd);
        }
        if let Some(tr) = self.traces.as_mut() {
            tr.wake_markers = self.servers[0].wake_marker_times().to_vec();
        }
    }

    /// Whole-run fault-injection and recovery accounting: injected
    /// impairments from the switch, recovery work from the clients and
    /// the server's duplicate-suppression counters.
    #[must_use]
    pub fn fault_summary(&self) -> FaultSummary {
        let fs = self.switch.fault_stats();
        let ks = self.kernel_stats();
        FaultSummary {
            injected_losses: fs.losses,
            injected_corruptions: fs.corruptions,
            injected_reorders: fs.reorders,
            retransmits: self.retransmits,
            lost_requests: self.lost_requests,
            dup_suppressed: ks.dup_suppressed,
            resp_replays: ks.resp_replays,
            issued_total: self.issued_total,
            completed_total: self.completed_total,
            rejected_total: self.rejected_total,
            in_flight: self.inflight.len() as u64,
        }
    }

    /// The fleet summary (dispatch accounting, per-backend states,
    /// park/unpark counts), if the fleet layer is installed. Call after
    /// [`finalize`](Self::finalize) so parked residency is flushed.
    #[must_use]
    pub fn fleet_summary(&self) -> Option<FleetSummary> {
        self.fleet.as_ref().map(|fs| {
            let mut s = fs.lb.summary();
            if let Some(co) = &fs.coordinator {
                s.parks = co.parks();
                s.unparks = co.unparks();
                s.transition_energy_j = co.energy().total_joules();
            }
            s
        })
    }

    /// The installed watchdog (checks performed, recorded violations).
    #[must_use]
    pub fn watchdog(&self) -> Option<&Watchdog> {
        self.watchdog.as_ref()
    }

    /// Latency-critical requests issued and not yet resolved (the request
    /// ledger's size).
    #[must_use]
    pub fn inflight_requests(&self) -> usize {
        self.inflight.len()
    }

    /// Live LB conntrack entries, open plus lingering (zero without a
    /// fleet).
    #[must_use]
    pub fn conntrack_entries(&self) -> usize {
        self.fleet.as_ref().map_or(0, |f| f.lb.conntrack_entries())
    }

    /// Live duplicate-suppression entries summed over the servers.
    #[must_use]
    pub fn dedup_entries(&self) -> usize {
        self.servers.iter().map(Kernel::dedup_entries).sum()
    }

    /// Replay attribution records summed over the servers.
    #[must_use]
    pub fn replay_records(&self) -> usize {
        self.servers.iter().map(Kernel::replay_records).sum()
    }

    /// How long resolved request-keyed entries linger before they retire
    /// ([`FaultConfig::linger`], fixed by
    /// [`initial_events`](Self::initial_events)).
    #[must_use]
    pub fn linger(&self) -> SimDuration {
        self.linger
    }

    /// Energy consumed since the warmup boundary, per mode.
    #[must_use]
    pub fn measured_energy(&self) -> EnergyMeter {
        self.total_energy_raw().diff(&self.energy_baseline)
    }

    /// Measured-window processor energy in joules.
    #[must_use]
    pub fn measured_energy_j(&self) -> f64 {
        self.measured_energy().total_joules()
    }

    /// Busy-mode share of measured energy (diagnostics).
    #[must_use]
    pub fn measured_busy_fraction(&self) -> f64 {
        let e = self.measured_energy();
        if e.total_joules() == 0.0 {
            0.0
        } else {
            e.joules(PowerMode::Busy) / e.total_joules()
        }
    }

    /// Latencies of the requests completed in the measured window
    /// (nanoseconds, from the original send to the full response).
    #[must_use]
    pub fn measured_latencies(&self) -> &LogHistogram {
        &self.latencies
    }

    /// Latency-critical requests completed in the measured window.
    #[must_use]
    pub fn completed_measured(&self) -> u64 {
        self.latencies.count()
    }

    /// The per-stage attribution collector for the measured window
    /// (empty when collection is disabled).
    #[must_use]
    pub fn breakdown_collector(&self) -> &BreakdownCollector {
        &self.breakdown
    }

    /// Condensed per-stage attribution, tail-conditioned at
    /// `tail_percentile` of total latency.
    #[must_use]
    pub fn latency_breakdown(&self, tail_percentile: f64) -> LatencyBreakdown {
        self.breakdown.finalize(tail_percentile)
    }

    /// Latency-critical requests offered during the measured window.
    #[must_use]
    pub fn offered_measured(&self) -> u64 {
        self.offered_measured
    }

    /// All server kernels.
    #[must_use]
    pub fn servers(&self) -> &[Kernel] {
        &self.servers
    }

    /// Every server kernel's counters, summed field by field.
    #[must_use]
    pub fn kernel_stats(&self) -> oskernel::KernelStats {
        let mut sum = oskernel::KernelStats::default();
        for s in &self.servers {
            sum += s.stats();
        }
        sum
    }

    /// The collected traces, if tracing was enabled. The whole-run
    /// totals (wake markers, drop counts) are stamped at
    /// [`finalize`](Self::finalize).
    #[must_use]
    pub fn traces(&self) -> Option<&Traces> {
        self.traces.as_ref()
    }

    /// Consumes the simulation, returning the traces (complete after
    /// [`finalize`](Self::finalize)).
    #[must_use]
    pub fn into_traces(self) -> Option<Traces> {
        self.traces
    }
}

impl EventHandler for ClusterSim {
    type Event = ClusterEvent;

    fn handle(&mut self, now: SimTime, event: ClusterEvent, queue: &mut EventQueue<ClusterEvent>) {
        // Scope trace events to the node whose state this event mutates,
        // so exports get one Perfetto process per node.
        if simtrace::is_enabled() {
            let node = match &event {
                ClusterEvent::Server(node, _) => node.0,
                ClusterEvent::Deliver { frame } => frame.dst().0,
                ClusterEvent::ClientBurst { idx } => self.clients[*idx].config().me.0,
                ClusterEvent::RetxCheck { id, .. } => self
                    .inflight
                    .get(id)
                    .and_then(|s| s.frame.as_ref())
                    .map_or(self.servers[0].node().0, |f| f.src().0),
                ClusterEvent::Sample | ClusterEvent::StartMeasure | ClusterEvent::Watchdog => {
                    self.servers[0].node().0
                }
                ClusterEvent::FleetEpoch
                | ClusterEvent::FleetParkDone { .. }
                | ClusterEvent::FleetUnparkDone { .. }
                | ClusterEvent::FleetHealth => self
                    .fleet
                    .as_ref()
                    .map_or(self.servers[0].node().0, |f| f.lb.vip().0),
                ClusterEvent::BackendFail { backend, .. }
                | ClusterEvent::BackendRestart { backend } => self
                    .servers
                    .get(*backend)
                    .map_or(self.servers[0].node().0, |s| s.node().0),
                ClusterEvent::DomainFail { .. } | ClusterEvent::DomainHeal { .. } => self
                    .fleet
                    .as_ref()
                    .map_or(self.servers[0].node().0, |f| f.lb.vip().0),
            };
            simtrace::set_node(node);
        }
        match event {
            ClusterEvent::Server(node, e) => {
                let si = self.server_index(node).expect("event for a known server");
                self.run_server(now, si, e, queue);
            }
            ClusterEvent::ClientBurst { idx } => self.on_client_burst(now, idx, queue),
            ClusterEvent::Deliver { frame } => self.on_deliver(now, frame, queue),
            ClusterEvent::RetxCheck { id, attempt } => self.on_retx_check(now, id, attempt, queue),
            ClusterEvent::Sample => self.on_sample(now, queue),
            ClusterEvent::StartMeasure => self.on_start_measure(now),
            ClusterEvent::Watchdog => self.on_watchdog(now, queue),
            ClusterEvent::FleetEpoch => self.on_fleet_epoch(now, queue),
            ClusterEvent::FleetParkDone { backend, gen } => {
                self.on_fleet_transition_done(now, backend, gen, true);
            }
            ClusterEvent::FleetUnparkDone { backend, gen } => {
                self.on_fleet_transition_done(now, backend, gen, false);
            }
            ClusterEvent::BackendFail { backend, mode } => self.on_backend_fail(now, backend, mode),
            ClusterEvent::BackendRestart { backend } => self.on_backend_restart(now, backend),
            ClusterEvent::DomainFail { domain } => self.on_domain_fail(now, domain),
            ClusterEvent::DomainHeal { domain } => self.on_domain_heal(now, domain),
            ClusterEvent::FleetHealth => self.on_fleet_health(now, queue),
        }
    }

    fn classify(&self, event: &ClusterEvent) -> &'static str {
        match event {
            ClusterEvent::Server(_, e) => e.class(),
            ClusterEvent::ClientBurst { .. } => "client_burst",
            ClusterEvent::Deliver { .. } => "deliver",
            ClusterEvent::RetxCheck { .. } => "retx_check",
            ClusterEvent::Sample => "sample",
            ClusterEvent::StartMeasure => "start_measure",
            ClusterEvent::Watchdog => "watchdog",
            ClusterEvent::FleetEpoch => "fleet_epoch",
            ClusterEvent::FleetParkDone { .. } => "fleet_park",
            ClusterEvent::FleetUnparkDone { .. } => "fleet_unpark",
            ClusterEvent::BackendFail { .. } => "backend_fail",
            ClusterEvent::BackendRestart { .. } => "backend_restart",
            ClusterEvent::DomainFail { .. } => "domain_fail",
            ClusterEvent::DomainHeal { .. } => "domain_heal",
            ClusterEvent::FleetHealth => "fleet_health",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AppKind, ExperimentConfig};
    use crate::policy::Policy;
    use crate::runner::build_server;
    use desim::Simulation;
    use oldi_apps::ClientConfig;

    fn tiny_cluster(policy: Policy) -> (ClusterSim, Vec<(SimTime, ClusterEvent)>) {
        tiny_cluster_with(policy, FaultConfig::none())
    }

    fn tiny_cluster_with(
        policy: Policy,
        faults: FaultConfig,
    ) -> (ClusterSim, Vec<(SimTime, ClusterEvent)>) {
        let cfg = ExperimentConfig::new(AppKind::Memcached, policy, 10_000.0)
            .with_durations(SimDuration::from_ms(5), SimDuration::from_ms(20));
        let server = build_server(&cfg, NodeId(0));
        let client = oldi_apps::OpenLoopClient::new(ClientConfig::memcached(
            NodeId(1),
            NodeId(0),
            20,
            SimDuration::from_ms(2),
            3,
        ));
        let mut sim = ClusterSim::new(vec![server], vec![client], vec![false], None)
            .expect("one flag per client")
            .with_fault_injection(faults)
            .with_watchdog(Watchdog::new(crate::WatchdogConfig::default().collecting()));
        let initial = sim.initial_events(cfg.warmup, SimTime::from_ms(25));
        (sim, initial)
    }

    /// Runs `cluster` from its initial events to `horizon` and finalizes.
    fn drive(
        (cluster, initial): (ClusterSim, Vec<(SimTime, ClusterEvent)>),
        horizon: SimTime,
    ) -> ClusterSim {
        let mut sim = Simulation::new(cluster);
        for (t, e) in initial {
            sim.queue_mut().push(t, e);
        }
        sim.run_until(horizon);
        let now = sim.now();
        sim.handler_mut().finalize(now);
        sim.into_handler()
    }

    fn run(policy: Policy) -> ClusterSim {
        drive(tiny_cluster(policy), SimTime::from_ms(25))
    }

    /// RTOs far shorter than a round trip declare every request lost
    /// before its served response arrives. The late response is absorbed:
    /// it must not also complete the request, which would break
    /// `issued == completed + lost + rejected + in_flight`.
    #[test]
    fn a_late_response_after_loss_does_not_resolve_the_request_twice() {
        let retx = netsim::RetxConfig {
            enabled: true,
            rto_initial: SimDuration::from_nanos(500),
            rto_max: SimDuration::from_nanos(500),
            max_retries: 1,
        };
        let c = drive(
            tiny_cluster_with(Policy::Perf, FaultConfig::none().with_retx(retx)),
            SimTime::from_ms(25),
        );
        let f = c.fault_summary();
        assert!(f.lost_requests > 100, "{f:?}");
        assert_balanced(&f);
        assert_eq!(f.completed_total, 0, "{f:?}");
        assert_eq!(c.completed_measured(), 0);
        assert_eq!(c.inflight_requests() as u64, f.in_flight);
    }

    /// A lossy fleet run whose reorder hold-back outlasts the first RTO,
    /// so request copies are often still on the wire when their client
    /// resolves the request.
    fn reordering_fleet() -> (ClusterSim, Vec<(SimTime, ClusterEvent)>) {
        let faults = FaultConfig {
            reorder: 0.2,
            reorder_delay: SimDuration::from_ms(6),
            ..FaultConfig::lossy(0.01, 7)
        };
        let cfg = ExperimentConfig::new(AppKind::Memcached, Policy::Perf, 20_000.0)
            .with_durations(SimDuration::from_ms(5), SimDuration::from_ms(60))
            .with_poisson()
            .with_faults(faults)
            .with_watchdog(crate::WatchdogConfig::default().collecting())
            .with_fleet(fleetsim::FleetConfig::new(
                2,
                fleetsim::DispatchPolicy::LeastOutstanding,
            ));
        crate::runner::build_cluster(&cfg).expect("valid config")
    }

    /// Planted bug: with the linger forced to zero, the LB retires a
    /// conntrack entry the moment its request resolves, and copies still
    /// on the wire arrive to find nothing. The `late_copies` detector
    /// must catch it; the computed linger must not trip it.
    #[test]
    fn a_zero_linger_is_caught_as_late_copies() {
        let horizon = SimTime::from_ms(65);
        let control = drive(reordering_fleet(), horizon);
        assert_eq!(
            control.linger(),
            SimDuration::from_ms(275 + 2 * 6),
            "the standard give-up span plus two reorder hold-backs"
        );
        assert!(control.fault_summary().retransmits > 0);
        assert_eq!(control.late_copies, 0);
        let wd = control.watchdog().expect("installed");
        assert!(wd.violations().is_empty(), "{:?}", wd.violations());

        let (mut planted, initial) = reordering_fleet();
        planted.install_linger(SimDuration::ZERO);
        let planted = drive((planted, initial), horizon);
        assert!(planted.late_copies > 0);
        let wd = planted.watchdog().expect("installed");
        assert!(
            wd.violations()
                .iter()
                .any(|v| v.kind == crate::InvariantKind::LateCopies),
            "{:?}",
            wd.violations()
        );
    }

    /// Planted bug: counting one stage twice breaks the per-request
    /// tiling identity of every completion, and the watchdog's
    /// `stage_tiling` check must catch it; the unplanted run must stay
    /// clean.
    #[test]
    fn a_double_stamped_stage_is_caught_as_stage_tiling() {
        let horizon = SimTime::from_ms(65);
        let control = drive(reordering_fleet(), horizon);
        assert!(control.completed_measured() > 0);
        assert_eq!(control.breakdown.untiled(), 0);
        let wd = control.watchdog().expect("installed");
        assert!(wd.violations().is_empty(), "{:?}", wd.violations());

        let (mut planted, initial) = reordering_fleet();
        planted.double_stamp = Some(stage::CPU);
        let planted = drive((planted, initial), horizon);
        assert!(planted.breakdown.untiled() >= planted.completed_measured());
        let wd = planted.watchdog().expect("installed");
        assert!(
            wd.violations()
                .iter()
                .any(|v| v.kind == crate::InvariantKind::StageTiling),
            "{:?}",
            wd.violations()
        );
    }

    fn assert_balanced(f: &FaultSummary) {
        assert_eq!(
            f.issued_total,
            f.completed_total + f.lost_requests + f.rejected_total + f.in_flight,
            "{f:?}"
        );
    }

    /// With retransmission armed, a request completed by the response to
    /// its resent copy is timed from its first send; a 503 resolves its
    /// request with no latency sample, and a stale copy changes nothing.
    #[test]
    fn the_ledger_times_from_the_first_send_and_samples_no_rejection() {
        let retx = FaultConfig::none().with_retx(netsim::RetxConfig::standard());
        let (mut c, _) = tiny_cluster_with(Policy::Perf, retx);
        c.on_start_measure(SimTime::ZERO);
        let sent = SimTime::from_us(100);
        let mut queue = EventQueue::new();
        c.on_client_burst(sent, 0, &mut queue);
        let mut ids: Vec<u64> = c.inflight.keys().copied().collect();
        ids.sort_unstable();
        let (server, client) = (NodeId(0), NodeId(1));
        c.on_retx_check(SimTime::from_ms(2), ids[0], 0, &mut queue);
        assert_eq!(c.retransmits, 1);
        let done = SimTime::from_ms(3);
        let body = netsim::Bytes::from_static(b"VALUE");
        for frame in &netsim::tcp::segment_response(server, client, ids[0], body, sent) {
            c.on_client_response(done, frame);
        }
        let reject = Packet::reject_response(server, client, ids[1], sent);
        c.on_client_response(done, &reject);
        c.on_client_response(done, &reject);
        let latency = c.measured_latencies();
        let from_first_send = done.saturating_since(sent).as_nanos();
        assert_eq!((latency.count(), latency.max()), (1, from_first_send));
        assert_eq!((c.rejected_total, c.rejected_measured), (1, 1));
        assert_balanced(&c.fault_summary());
    }

    /// Planted bug: an unarmed run retires one completed request's ledger
    /// row without counting it. The conservation check runs on every run,
    /// so the watchdog must report it; the unplanted run stays clean.
    #[test]
    fn a_silently_dropped_completion_is_caught_as_conservation() {
        let control = run(Policy::Perf);
        assert!(control.fault_summary().completed_total > 0);
        let wd = control.watchdog().expect("installed");
        assert!(wd.violations().is_empty(), "{:?}", wd.violations());

        let (mut planted, initial) = tiny_cluster(Policy::Perf);
        planted.drop_completion = true;
        let planted = drive((planted, initial), SimTime::from_ms(25));
        let wd = planted.watchdog().expect("installed");
        assert!(
            wd.violations()
                .iter()
                .any(|v| v.kind == crate::InvariantKind::Conservation),
            "{:?}",
            wd.violations()
        );
    }

    /// A lossy single-server run that loses response segments, so the
    /// server replays responses and the client completes requests from
    /// the replays.
    fn replaying_server() -> (ClusterSim, Vec<(SimTime, ClusterEvent)>) {
        let mut faults = FaultConfig::none().with_retx(netsim::RetxConfig::standard());
        faults.loss = 0.02;
        let cfg = ExperimentConfig::new(AppKind::Apache, Policy::NcapCons, 24_000.0)
            .with_durations(SimDuration::from_ms(5), SimDuration::from_ms(40))
            .with_faults(faults)
            .with_watchdog(crate::WatchdogConfig::default().collecting());
        crate::runner::build_cluster(&cfg).expect("valid config")
    }

    /// Planted bug: releasing each replay record when its response is
    /// sent, not when the client resolves the request, sends the
    /// replays a client completes from with an empty record. Their stages
    /// no longer tile the client-observed latency, and the watchdog's
    /// `stage_tiling` check must catch it; the unplanted run stays clean
    /// and keeps no record past its request.
    #[test]
    fn a_replay_record_released_at_send_is_caught_as_stage_tiling() {
        let horizon = SimTime::from_ms(65);
        let control = drive(replaying_server(), horizon);
        assert!(control.servers[0].stats().resp_replays > 0);
        assert_eq!(control.breakdown.untiled(), 0);
        assert!(control.replay_records() <= control.inflight_requests());
        let wd = control.watchdog().expect("installed");
        assert!(wd.violations().is_empty(), "{:?}", wd.violations());

        let (mut planted, initial) = replaying_server();
        planted.release_at_send = true;
        let planted = drive((planted, initial), horizon);
        assert!(planted.breakdown.untiled() > 0);
        let wd = planted.watchdog().expect("installed");
        assert!(
            wd.violations()
                .iter()
                .any(|v| v.kind == crate::InvariantKind::StageTiling),
            "{:?}",
            wd.violations()
        );
    }

    #[test]
    fn direct_cluster_roundtrip() {
        let c = run(Policy::Perf);
        assert!(
            c.completed_measured() > 100,
            "completed {}",
            c.completed_measured()
        );
        assert!(c.measured_energy_j() > 0.0);
        assert!(c.offered_measured() > 0);
        assert!(c.measured_busy_fraction() > 0.0);
    }

    #[test]
    fn warmup_boundary_resets_measurement() {
        let c = run(Policy::Perf);
        // Offered during the measured window only: 20 ms at 10 K rps ≈ 200,
        // far less than the 25 ms total would imply if warmup leaked in.
        assert!(
            c.offered_measured() <= 260,
            "offered {}",
            c.offered_measured()
        );
    }

    #[test]
    fn ncap_cluster_records_wake_markers() {
        let c = run(Policy::NcapCons);
        assert!(!c.servers()[0].wake_marker_times().is_empty());
        assert_eq!(c.servers().len(), 1);
    }

    #[test]
    fn mismatched_background_flags_rejected() {
        let cfg = ExperimentConfig::new(AppKind::Memcached, Policy::Perf, 10_000.0);
        let server = build_server(&cfg, NodeId(0));
        let err = ClusterSim::new(vec![server], Vec::new(), vec![false], None).unwrap_err();
        assert_eq!(err.field, "background");
        assert!(err.reason.contains("flag per client required"), "{err}");
    }

    #[test]
    fn debug_output_mentions_servers() {
        let (c, _) = tiny_cluster(Policy::Perf);
        assert!(format!("{c:?}").contains("servers"));
    }

    /// Every pending event is copied into and out of the event queue's
    /// slab; a field that regrows an event regrows every push and pop.
    #[test]
    fn queued_events_stay_small() {
        assert!(std::mem::size_of::<oskernel::NodeEvent>() <= 16);
        assert!(std::mem::size_of::<ClusterEvent>() <= 24);
    }
}
