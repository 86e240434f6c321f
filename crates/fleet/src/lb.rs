//! The L4 (NAT-mode) load balancer.
//!
//! The LB is a switch-attached node owning a VIP. Clients address every
//! request to the VIP; the LB picks a backend per its
//! [`DispatchPolicy`], rewrites the frame (`src → VIP`, `dst → backend`)
//! and forwards it. Backends therefore answer to the VIP (they respond
//! to the request frame's source, as servers do), and the LB rewrites
//! the response back to the originating client. Observing both
//! directions gives the LB an exact per-backend in-flight ledger — the
//! only state a real L4 middlebox has — which both the
//! least-outstanding policy and the drain logic of the power
//! coordinator run on.
//!
//! Connection tracking is by request id and *pins* a request to its
//! first-chosen backend: retransmitted frames follow the original so the
//! backend's duplicate suppression keeps working, and entries survive
//! resolution so late response replays still find their client. A closed
//! entry lingers in TIME_WAIT ([`LoadBalancer::set_linger`]) until no
//! copy of its request can still arrive, then retires, so the table holds
//! O(requests in flight) entries. Frames without a request id (bulk
//! background traffic) are forwarded through the same dispatch pick but
//! tracked only as frame counts.

use crate::config::{DispatchPolicy, FleetConfig};
use crate::faults::HealthConfig;
use desim::{SimDuration, SimTime};
use netsim::{IdMap, NodeId, Packet, TimeWait};

/// Rotation state of one backend, as the LB and coordinator see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendState {
    /// In rotation: new requests may be dispatched to it.
    Active,
    /// Leaving rotation: no new requests, but pinned retransmissions
    /// still flow; parks once its outstanding count reaches zero.
    Draining,
    /// Drained and mid-transition into the parked state.
    Parking,
    /// Out of rotation, sunk into its deepest sleep.
    Parked,
    /// Mid-transition back into rotation.
    Unparking,
    /// The health prober declared it dead (consecutive probe failures):
    /// out of rotation, its open requests moved to the failed-over limbo
    /// awaiting re-pin. Reinstated by consecutive probe successes.
    Failed,
    /// Passively ejected (consecutive request timeouts): out of rotation
    /// but its outstanding work is still accounted against it — a hung or
    /// slow machine may yet answer. Reinstated by probe successes.
    Ejected,
}

impl BackendState {
    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BackendState::Active => "active",
            BackendState::Draining => "draining",
            BackendState::Parking => "parking",
            BackendState::Parked => "parked",
            BackendState::Unparking => "unparking",
            BackendState::Failed => "failed",
            BackendState::Ejected => "ejected",
        }
    }

    /// Whether the LB may route new or failed-over work here. Parked
    /// backends are healthy (administratively off, not broken).
    #[must_use]
    pub fn is_healthy(self) -> bool {
        !matches!(self, BackendState::Failed | BackendState::Ejected)
    }
}

/// Which backends a fresh frame may be dispatched to
/// ([`LoadBalancer`]'s dispatch pool), as a filter on backend state so
/// that choosing from it allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pool {
    Active,
    Unparking,
    Healthy,
    All,
}

impl Pool {
    fn admits(self, state: BackendState) -> bool {
        match self {
            Pool::Active => state == BackendState::Active,
            Pool::Unparking => state == BackendState::Unparking,
            Pool::Healthy => state.is_healthy(),
            Pool::All => true,
        }
    }
}

/// An illegal backend state transition, refused with context instead of
/// silently corrupting rotation state in release builds (these guards
/// were previously `debug_assert!`s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionError {
    /// The backend whose transition was refused.
    pub backend: usize,
    /// Its state when the transition was attempted.
    pub from: BackendState,
    /// The transition that was attempted.
    pub attempted: &'static str,
}

impl core::fmt::Display for TransitionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "backend {} cannot {} from the {} state",
            self.backend,
            self.attempted,
            self.from.name()
        )
    }
}

impl std::error::Error for TransitionError {}

/// What one health probe against one backend produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// The probe succeeded; nothing changed.
    Ok,
    /// The probe failed but the strike count is below the threshold.
    Strike,
    /// The probe failed and crossed the threshold: the backend was
    /// marked [`BackendState::Failed`] and its requests orphaned.
    Failed,
    /// The probe succeeded and crossed the rejoin threshold: the backend
    /// was reinstated into rotation.
    Rejoined,
}

/// One backend's slot in the LB.
#[derive(Debug, Clone)]
struct Backend {
    node: NodeId,
    state: BackendState,
    /// Transition generation: park/unpark completion callbacks carry the
    /// generation they were scheduled under, so a callback that raced a
    /// state change (e.g. a drain cancelled by a load spike) is stale
    /// and ignored.
    gen: u32,
    /// Requests forwarded but not yet seen answered (completed or
    /// rejected).
    outstanding: u64,
    /// Unique requests assigned.
    assigned: u64,
    /// Frames forwarded (requests, retransmissions, bulk).
    frames: u64,
    completed: u64,
    rejected: u64,
    parked_since: Option<SimTime>,
    parked_total: SimDuration,
    /// Consecutive failed health probes (resets on success).
    probe_fails: u32,
    /// Consecutive successful health probes while failed/ejected.
    probe_oks: u32,
    /// Consecutive request timeouts (resets on any response).
    timeouts: u32,
    /// Whether the backend was parked when it failed: reinstatement then
    /// returns it to the parked state (a restarted machine comes back in
    /// the administrative state it crashed from, not into rotation).
    was_parked: bool,
}

impl Backend {
    fn new(node: NodeId) -> Self {
        Backend {
            node,
            state: BackendState::Active,
            gen: 0,
            outstanding: 0,
            assigned: 0,
            frames: 0,
            completed: 0,
            rejected: 0,
            parked_since: None,
            parked_total: SimDuration::ZERO,
            probe_fails: 0,
            probe_oks: 0,
            timeouts: 0,
            was_parked: false,
        }
    }

    fn in_rotation(&self) -> bool {
        matches!(
            self.state,
            BackendState::Active | BackendState::Draining | BackendState::Unparking
        )
    }
}

/// One conntrack entry: which backend a request was pinned to and which
/// client gets the response. Entries survive resolution (`open = false`)
/// for their linger, so response replays and stale retransmissions keep
/// routing correctly.
/// When the pinned backend is marked failed, open entries enter *limbo*
/// (`limbo = true`): no longer counted against any backend, waiting for
/// the client's retransmission to re-pin them somewhere healthy.
#[derive(Debug, Clone, Copy)]
struct Conn {
    /// Index of the pinned backend, as `u32` so the entry packs into 16
    /// bytes (backends have 16-bit node ids, so any index fits).
    backend: u32,
    client: NodeId,
    open: bool,
    limbo: bool,
    /// When the LB opened the entry (its linger starts here).
    since: SimTime,
}

impl Conn {
    fn pin(idx: usize) -> u32 {
        u32::try_from(idx).expect("backend indices fit in u32")
    }

    fn backend(&self) -> usize {
        self.backend as usize
    }
}

/// What [`LoadBalancer::on_response`] produced.
#[derive(Debug)]
pub struct LbResponse {
    /// The response frame rewritten toward the client, if the LB could
    /// match it to a connection.
    pub forward: Option<Packet>,
    /// Set when this response drained the last outstanding request of a
    /// [`BackendState::Draining`] backend (its index): the coordinator
    /// may now park it.
    pub drained: Option<usize>,
}

/// The LB's conservation ledger, for the cluster watchdog: every request
/// the LB opened is completed, rejected, in the failed-over limbo, or
/// still outstanding — and the per-backend outstanding counts must sum to
/// the fleet total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LbLedger {
    /// Unique requests the LB opened a connection for.
    pub opened: u64,
    /// Requests whose final response passed back through the LB.
    pub completed: u64,
    /// Requests answered with a 503 rejection.
    pub rejected: u64,
    /// Requests forwarded and not yet answered.
    pub outstanding: u64,
    /// Requests orphaned by a failed backend, waiting for a
    /// retransmission to re-pin them (counted against no backend).
    pub failed_over: u64,
    /// Sum of the per-backend outstanding counts (must equal
    /// `outstanding`).
    pub backend_outstanding_sum: u64,
    /// Response frames that matched no connection (routing leak).
    pub unmatched_responses: u64,
    /// Frames carrying live work forwarded to a backend already marked
    /// failed or ejected. Must stay zero; the watchdog audits it.
    pub dead_dispatches: u64,
}

/// Per-backend slice of a [`FleetSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct BackendSummary {
    /// The backend's node id.
    pub node: NodeId,
    /// Rotation state at the horizon.
    pub state: BackendState,
    /// Unique requests assigned.
    pub assigned: u64,
    /// Frames forwarded (requests, retransmissions, bulk).
    pub frames: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests rejected.
    pub rejected: u64,
    /// Requests still outstanding at the horizon.
    pub outstanding: u64,
    /// Total time spent parked.
    pub parked: SimDuration,
    /// Measured-window energy, joules (filled by the experiment runner;
    /// zero when energy attribution is unavailable).
    pub energy_j: f64,
}

/// Whole-run fleet accounting attached to an experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// The dispatch policy that ran.
    pub dispatch: DispatchPolicy,
    /// Unique requests the LB opened.
    pub requests_opened: u64,
    /// Requests completed through the LB.
    pub requests_completed: u64,
    /// Requests rejected through the LB.
    pub requests_rejected: u64,
    /// Requests outstanding at the horizon.
    pub outstanding: u64,
    /// All frames forwarded toward backends.
    pub forwarded_frames: u64,
    /// Retransmitted frames forwarded to their pinned backend.
    pub retx_forwarded: u64,
    /// Frames without a request id (bulk background traffic).
    pub bulk_frames: u64,
    /// Response frames that matched no connection.
    pub unmatched_responses: u64,
    /// Requests re-pinned from a failed/ejected backend to a healthy one.
    pub failovers: u64,
    /// Health probes sent.
    pub health_probes: u64,
    /// Health probes that failed.
    pub probe_failures: u64,
    /// Backends removed from rotation for health (probe-driven failures
    /// plus passive ejections).
    pub ejections: u64,
    /// Failed/ejected backends reinstated into rotation.
    pub rejoins: u64,
    /// Responses dropped because they arrived from a backend the request
    /// had already been failed over away from.
    pub stale_responses: u64,
    /// Backends parked (transitions, whole run).
    pub parks: u64,
    /// Backends unparked (transitions, whole run).
    pub unparks: u64,
    /// Energy spent in park/unpark transitions, joules.
    pub transition_energy_j: f64,
    /// Per-backend breakdown, index-aligned with the fleet topology.
    pub backends: Vec<BackendSummary>,
}

/// The L4 load balancer owning a VIP.
#[derive(Debug)]
pub struct LoadBalancer {
    vip: NodeId,
    dispatch: DispatchPolicy,
    pack_spill: usize,
    health: Option<HealthConfig>,
    backends: Vec<Backend>,
    rr_cursor: usize,
    /// Backend index by `NodeId`, dense over the node-id space.
    index_of: Vec<Option<usize>>,
    conntrack: IdMap<Conn>,
    /// Closed conntrack entries waiting out their linger.
    closed: TimeWait,
    /// The cluster clock, as of the last [`advance_clock`](Self::advance_clock).
    now: SimTime,
    opened: u64,
    completed: u64,
    rejected: u64,
    outstanding: u64,
    failed_over: u64,
    forwarded_frames: u64,
    retx_forwarded: u64,
    bulk_frames: u64,
    unmatched_responses: u64,
    failovers: u64,
    health_probes: u64,
    probe_failures: u64,
    ejections: u64,
    rejoins: u64,
    stale_responses: u64,
    dead_dispatches: u64,
    /// Test-only planted bug (see `FleetConfig::ledger_skew_for_test`).
    ledger_skew: bool,
}

impl LoadBalancer {
    /// Builds the LB for `vip` fronting `backends` (index order is the
    /// packing order).
    #[must_use]
    pub fn new(vip: NodeId, backends: Vec<NodeId>, cfg: &FleetConfig) -> Self {
        let slots = backends.iter().map(|b| usize::from(b.0) + 1).max();
        let mut index_of = vec![None; slots.unwrap_or(0)];
        for (i, b) in backends.iter().enumerate() {
            index_of[usize::from(b.0)] = Some(i);
        }
        LoadBalancer {
            vip,
            dispatch: cfg.dispatch,
            pack_spill: cfg.pack_spill,
            health: cfg.effective_health(),
            backends: backends.into_iter().map(Backend::new).collect(),
            rr_cursor: 0,
            index_of,
            conntrack: IdMap::default(),
            closed: TimeWait::default(),
            now: SimTime::ZERO,
            opened: 0,
            completed: 0,
            rejected: 0,
            outstanding: 0,
            failed_over: 0,
            forwarded_frames: 0,
            retx_forwarded: 0,
            bulk_frames: 0,
            unmatched_responses: 0,
            failovers: 0,
            health_probes: 0,
            probe_failures: 0,
            ejections: 0,
            rejoins: 0,
            stale_responses: 0,
            dead_dispatches: 0,
            ledger_skew: cfg.ledger_skew_for_test,
        }
    }

    /// The VIP this LB answers on.
    #[must_use]
    pub fn vip(&self) -> NodeId {
        self.vip
    }

    /// Number of backends behind the VIP.
    #[must_use]
    pub fn backend_count(&self) -> usize {
        self.backends.len()
    }

    /// Whether `node` is one of this LB's backends (used to tell
    /// backend responses from client requests arriving at the VIP).
    #[must_use]
    pub fn is_backend(&self, node: NodeId) -> bool {
        self.backend_index(node).is_some()
    }

    /// The backend index of `node`, if it is one of this LB's backends.
    #[must_use]
    pub fn backend_index(&self, node: NodeId) -> Option<usize> {
        self.index_of.get(usize::from(node.0)).copied().flatten()
    }

    /// Lets closed conntrack entries retire once `linger` has passed
    /// since the LB opened them (the cluster passes
    /// [`netsim::FaultConfig::linger`]). Without this call they are kept
    /// for the whole run.
    pub fn set_linger(&mut self, linger: SimDuration) {
        self.closed.set_linger(linger);
    }

    /// Advances the LB's clock; call before handing it a frame. Lingers
    /// are measured on this clock.
    pub fn advance_clock(&mut self, now: SimTime) {
        self.now = now;
    }

    /// Whether conntrack holds an entry (open or lingering) for `id`.
    #[must_use]
    pub fn tracks(&self, id: u64) -> bool {
        self.conntrack.contains_key(&id)
    }

    /// Live conntrack entries (open plus lingering).
    #[must_use]
    pub fn conntrack_entries(&self) -> usize {
        self.conntrack.len()
    }

    /// The rotation state of backend `idx`.
    #[must_use]
    pub fn state(&self, idx: usize) -> BackendState {
        self.backends[idx].state
    }

    /// Outstanding requests pinned to backend `idx`.
    #[must_use]
    pub fn outstanding_of(&self, idx: usize) -> u64 {
        self.backends[idx].outstanding
    }

    /// Outstanding requests across the fleet (the LB's queue-depth
    /// gauge).
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        self.outstanding
    }

    /// Unique requests opened so far (the coordinator's load signal).
    #[must_use]
    pub fn requests_opened(&self) -> u64 {
        self.opened
    }

    /// Backends the coordinator can count on: active plus those already
    /// transitioning back into rotation.
    #[must_use]
    pub fn committed(&self) -> usize {
        self.backends
            .iter()
            .filter(|b| matches!(b.state, BackendState::Active | BackendState::Unparking))
            .count()
    }

    /// Backends currently parked.
    #[must_use]
    pub fn parked_count(&self) -> usize {
        self.backends
            .iter()
            .filter(|b| b.state == BackendState::Parked)
            .count()
    }

    /// Whether backend `idx` may receive work (not failed or ejected).
    #[must_use]
    pub fn healthy(&self, idx: usize) -> bool {
        self.backends[idx].state.is_healthy()
    }

    /// Backends not currently failed or ejected (parked ones count: they
    /// are administratively off, not broken).
    #[must_use]
    pub fn healthy_count(&self) -> usize {
        self.backends
            .iter()
            .filter(|b| b.state.is_healthy())
            .count()
    }

    /// Whether the health prober should probe backend `idx`: everything
    /// but a parked (or mid-park) backend, which is administratively off.
    #[must_use]
    pub fn probeable(&self, idx: usize) -> bool {
        !matches!(
            self.backends[idx].state,
            BackendState::Parked | BackendState::Parking
        )
    }

    /// Requests re-pinned away from failed/ejected backends so far.
    #[must_use]
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Active health probes recorded so far.
    #[must_use]
    pub fn health_probes(&self) -> u64 {
        self.health_probes
    }

    /// Failed health probes recorded so far.
    #[must_use]
    pub fn probe_failures(&self) -> u64 {
        self.probe_failures
    }

    /// Backends removed from rotation for health so far (probe-driven
    /// failures plus passive ejections).
    #[must_use]
    pub fn ejections(&self) -> u64 {
        self.ejections
    }

    /// Failed/ejected backends reinstated so far.
    #[must_use]
    pub fn rejoins(&self) -> u64 {
        self.rejoins
    }

    /// The backend an *open* request is currently pinned to (limbo
    /// entries still report the failed pin until re-pinned).
    #[must_use]
    pub fn pinned_backend(&self, id: u64) -> Option<usize> {
        self.conntrack
            .get(&id)
            .filter(|c| c.open)
            .map(Conn::backend)
    }

    /// The backend `id` is pinned to, open or lingering: after the
    /// request resolved, the backend whose final response closed it.
    #[must_use]
    pub fn pin_of(&self, id: u64) -> Option<usize> {
        self.conntrack.get(&id).map(Conn::backend)
    }

    /// The dispatch pool in preference order: active backends, then
    /// unparking ones (about to serve), then any healthy backend, and —
    /// only when every single backend is failed/ejected — the whole
    /// fleet, so traffic is never dropped by the LB itself.
    fn dispatch_pool(&self) -> Pool {
        [Pool::Active, Pool::Unparking, Pool::Healthy]
            .into_iter()
            .find(|pool| self.backends.iter().any(|b| pool.admits(b.state)))
            .unwrap_or(Pool::All)
    }

    /// Picks a backend for a fresh (unpinned) frame from
    /// [`dispatch_pool`](Self::dispatch_pool).
    fn pick(&mut self) -> usize {
        self.pick_from(self.dispatch_pool())
    }

    /// Picks a healthy backend for a failover re-pin; `None` when every
    /// backend is failed/ejected (the stale pin is then kept — the frame
    /// has nowhere better to go and the client will retry). Active and
    /// unparking backends are healthy, so only the whole-fleet pool holds
    /// an unhealthy one.
    fn pick_healthy(&mut self) -> Option<usize> {
        let pool = self.dispatch_pool();
        (pool != Pool::All).then(|| self.pick_from(pool))
    }

    /// Applies the dispatch policy to a non-empty candidate pool, in
    /// index order.
    fn pick_from(&mut self, pool: Pool) -> usize {
        let members = (0..self.backends.len()).filter(|&i| pool.admits(self.backends[i].state));
        match self.dispatch {
            DispatchPolicy::RoundRobin => {
                let nth = self.rr_cursor % members.clone().count();
                self.rr_cursor = self.rr_cursor.wrapping_add(1);
                members.clone().nth(nth).expect("nth < pool size")
            }
            DispatchPolicy::LeastOutstanding => self.least_outstanding(members),
            DispatchPolicy::Packing => members
                .clone()
                .find(|&i| (self.backends[i].outstanding as usize) < self.pack_spill)
                .unwrap_or_else(|| self.least_outstanding(members)),
        }
    }

    fn least_outstanding(&self, pool: impl Iterator<Item = usize>) -> usize {
        pool.min_by_key(|&i| (self.backends[i].outstanding, i))
            .expect("pool is never empty")
    }

    /// Forwards a client frame: picks (or recalls) the backend, rewrites
    /// the frame `src → VIP`, `dst → backend`, and returns both. Fresh
    /// requests open a conntrack entry; retransmissions follow their pin
    /// — unless the pin points at a failed/ejected backend, in which case
    /// the request *fails over*: it is re-pinned to a healthy backend so
    /// the client's retransmission machinery recovers it end to end.
    pub fn dispatch(&mut self, frame: Packet) -> (usize, Packet) {
        self.forwarded_frames += 1;
        let Some(id) = frame.meta().request_id else {
            // Bulk background traffic: no request to track, but it still
            // flows through the dispatch pick so packing concentrates it
            // too.
            self.bulk_frames += 1;
            let idx = self.pick();
            if !self.healthy(idx) {
                self.dead_dispatches += 1;
            }
            self.backends[idx].frames += 1;
            let dst = self.backends[idx].node;
            return (idx, frame.readdress(self.vip, dst));
        };
        if let Some(conn) = self.conntrack.get(&id) {
            // A retransmission (or a duplicate of a resolved request):
            // follow the pin so backend dup-suppression keeps working.
            let (pin, open, limbo) = (conn.backend(), conn.open, conn.limbo);
            let idx = if open && !self.healthy(pin) {
                match self.pick_healthy() {
                    Some(new) => {
                        // Failover: move the pin (and its accounting)
                        // off the dead backend.
                        if limbo {
                            self.failed_over -= 1;
                            self.outstanding += 1;
                        } else {
                            self.backends[pin].outstanding -= 1;
                        }
                        self.backends[new].outstanding += 1;
                        self.backends[new].assigned += 1;
                        self.failovers += 1;
                        if self.ledger_skew {
                            // Deliberately planted test-only bug: a
                            // phantom failed_over entry per failover
                            // breaks the conservation identity the
                            // watchdog audits.
                            self.failed_over += 1;
                        }
                        if let Some(c) = self.conntrack.get_mut(&id) {
                            c.backend = Conn::pin(new);
                            c.limbo = false;
                        }
                        new
                    }
                    None => {
                        // The whole fleet is unhealthy: follow the stale
                        // pin rather than drop. The watchdog will see it.
                        self.dead_dispatches += 1;
                        pin
                    }
                }
            } else {
                pin
            };
            self.retx_forwarded += 1;
            self.backends[idx].frames += 1;
            let dst = self.backends[idx].node;
            return (idx, frame.readdress(self.vip, dst));
        }
        let idx = self.pick();
        if !self.healthy(idx) {
            self.dead_dispatches += 1;
        }
        // Retire what has waited out its linger as the table grows.
        let conntrack = &mut self.conntrack;
        self.closed.retire(self.now, |id| {
            if conntrack.get(&id).is_some_and(|c| !c.open) {
                conntrack.remove(&id);
            }
        });
        self.conntrack.insert(
            id,
            Conn {
                backend: Conn::pin(idx),
                client: frame.src(),
                open: true,
                limbo: false,
                since: self.now,
            },
        );
        self.opened += 1;
        self.outstanding += 1;
        let b = &mut self.backends[idx];
        b.assigned += 1;
        b.frames += 1;
        b.outstanding += 1;
        let dst = b.node;
        (idx, frame.readdress(self.vip, dst))
    }

    /// Handles a backend response arriving at the VIP: closes the ledger
    /// on the final (or rejection) segment and rewrites the frame toward
    /// the originating client. Unmatched responses are dropped and
    /// counted — the watchdog surfaces them as a routing violation.
    pub fn on_response(&mut self, frame: Packet) -> LbResponse {
        let (req_id, is_final, rejected) = {
            let m = frame.meta();
            (m.request_id, m.is_final, m.rejected)
        };
        let matched = req_id.and_then(|id| self.conntrack.get(&id).map(|c| (id, *c)));
        let Some((id, conn)) = matched else {
            self.unmatched_responses += 1;
            return LbResponse {
                forward: None,
                drained: None,
            };
        };
        // A response from a backend this request was already failed over
        // away from (the old machine restarted, or was merely slow): the
        // re-pinned backend owns the request now — drop it.
        if self.backends[conn.backend()].node != frame.src() {
            self.stale_responses += 1;
            return LbResponse {
                forward: None,
                drained: None,
            };
        }
        let client = conn.client;
        let idx = conn.backend();
        let mut drained = None;
        if (is_final || rejected) && conn.open {
            if let Some(c) = self.conntrack.get_mut(&id) {
                c.open = false;
                c.limbo = false;
            }
            self.closed.close(id, conn.since);
            if conn.limbo {
                // A limbo request answered before any retransmission
                // re-pinned it (the "dead" backend was alive after all):
                // settle it straight out of the failed-over pool.
                self.failed_over -= 1;
            } else {
                self.outstanding -= 1;
                self.backends[idx].outstanding -= 1;
            }
            let b = &mut self.backends[idx];
            if rejected {
                b.rejected += 1;
                self.rejected += 1;
            } else {
                b.completed += 1;
                self.completed += 1;
            }
            if b.state == BackendState::Draining && b.outstanding == 0 {
                drained = Some(idx);
            }
        }
        LbResponse {
            forward: Some(frame.readdress(self.vip, client)),
            drained,
        }
    }

    // ----- coordinator transitions ---------------------------------------

    /// Takes backend `idx` out of rotation; it parks once drained.
    /// Returns `true` when its outstanding count is already zero (the
    /// caller may park immediately). Refused unless the backend is
    /// active — in particular a failed/ejected backend cannot drain.
    pub fn begin_drain(&mut self, idx: usize) -> Result<bool, TransitionError> {
        let b = &mut self.backends[idx];
        if b.state != BackendState::Active {
            return Err(TransitionError {
                backend: idx,
                from: b.state,
                attempted: "begin a drain",
            });
        }
        b.state = BackendState::Draining;
        b.gen = b.gen.wrapping_add(1);
        Ok(b.outstanding == 0)
    }

    /// Returns a draining backend to rotation (load came back before the
    /// drain finished). Free: no transition latency or energy.
    pub fn cancel_drain(&mut self, idx: usize) -> Result<(), TransitionError> {
        let b = &mut self.backends[idx];
        if b.state != BackendState::Draining {
            return Err(TransitionError {
                backend: idx,
                from: b.state,
                attempted: "cancel a drain",
            });
        }
        b.state = BackendState::Active;
        b.gen = b.gen.wrapping_add(1);
        Ok(())
    }

    /// Starts the drained → parked transition; returns the generation
    /// the completion callback must present. Refused unless the backend
    /// is draining with zero outstanding work.
    pub fn begin_parking(&mut self, idx: usize) -> Result<u32, TransitionError> {
        let b = &mut self.backends[idx];
        if b.state != BackendState::Draining || b.outstanding != 0 {
            return Err(TransitionError {
                backend: idx,
                from: b.state,
                attempted: "park",
            });
        }
        b.state = BackendState::Parking;
        b.gen = b.gen.wrapping_add(1);
        Ok(b.gen)
    }

    /// Completes a park transition scheduled under `gen`. Stale
    /// generations (the transition was overtaken by a state change) are
    /// ignored. Returns whether the backend is now parked.
    pub fn finish_park(&mut self, now: SimTime, idx: usize, gen: u32) -> bool {
        let b = &mut self.backends[idx];
        if b.state != BackendState::Parking || b.gen != gen {
            return false;
        }
        b.state = BackendState::Parked;
        b.parked_since = Some(now);
        true
    }

    /// Starts the parked → active transition; returns the generation for
    /// the completion callback and the parked residency being flushed.
    /// Refused unless the backend is parked.
    pub fn begin_unpark(
        &mut self,
        now: SimTime,
        idx: usize,
    ) -> Result<(u32, SimDuration), TransitionError> {
        let b = &mut self.backends[idx];
        if b.state != BackendState::Parked {
            return Err(TransitionError {
                backend: idx,
                from: b.state,
                attempted: "unpark",
            });
        }
        let parked_for = b
            .parked_since
            .take()
            .map_or(SimDuration::ZERO, |since| now - since);
        b.parked_total += parked_for;
        b.state = BackendState::Unparking;
        b.gen = b.gen.wrapping_add(1);
        Ok((b.gen, parked_for))
    }

    /// Completes an unpark transition scheduled under `gen`; stale
    /// generations are ignored. Returns whether the backend is now
    /// active.
    pub fn finish_unpark(&mut self, idx: usize, gen: u32) -> bool {
        let b = &mut self.backends[idx];
        if b.state != BackendState::Unparking || b.gen != gen {
            return false;
        }
        b.state = BackendState::Active;
        true
    }

    // ----- failure & health -----------------------------------------------

    /// Marks backend `idx` failed (the prober crossed its strike
    /// threshold). Every open request pinned to it moves to the
    /// failed-over limbo — counted against no backend — awaiting a client
    /// retransmission to re-pin it somewhere healthy. Returns how many
    /// requests were orphaned; a no-op (0) when already failed.
    pub fn mark_failed(&mut self, now: SimTime, idx: usize) -> u64 {
        let b = &mut self.backends[idx];
        if b.state == BackendState::Failed {
            return 0;
        }
        // A parked backend that dies stops accumulating residency and
        // must restart back into the parked state, not into rotation.
        b.was_parked = matches!(b.state, BackendState::Parked | BackendState::Parking);
        if let Some(since) = b.parked_since.take() {
            b.parked_total += now - since;
        }
        b.state = BackendState::Failed;
        b.gen = b.gen.wrapping_add(1);
        b.probe_fails = 0;
        b.probe_oks = 0;
        b.timeouts = 0;
        let pinned = b.outstanding;
        b.outstanding = 0;
        let mut orphaned = 0u64;
        for c in self.conntrack.values_mut() {
            if c.backend() == idx && c.open && !c.limbo {
                c.limbo = true;
                orphaned += 1;
            }
        }
        debug_assert_eq!(pinned, orphaned, "outstanding must match open pins");
        self.failed_over += orphaned;
        self.outstanding -= orphaned;
        orphaned
    }

    /// Passively ejects backend `idx` from rotation (consecutive request
    /// timeouts). Unlike [`mark_failed`](Self::mark_failed) its
    /// outstanding work stays counted against it — a hung or slow machine
    /// may yet answer; retransmissions still fail over away from it.
    /// Returns whether the backend was in rotation to eject.
    pub fn eject(&mut self, idx: usize) -> bool {
        let b = &mut self.backends[idx];
        if !b.in_rotation() {
            return false;
        }
        b.state = BackendState::Ejected;
        b.gen = b.gen.wrapping_add(1);
        b.probe_fails = 0;
        b.probe_oks = 0;
        true
    }

    /// Reinstates a failed/ejected backend — into rotation, or back to
    /// parked if that is where it failed from. Returns whether it was
    /// reinstatable.
    pub fn reinstate(&mut self, now: SimTime, idx: usize) -> bool {
        let b = &mut self.backends[idx];
        if !matches!(b.state, BackendState::Failed | BackendState::Ejected) {
            return false;
        }
        if b.was_parked {
            b.state = BackendState::Parked;
            b.parked_since = Some(now);
        } else {
            b.state = BackendState::Active;
        }
        b.was_parked = false;
        b.gen = b.gen.wrapping_add(1);
        b.probe_fails = 0;
        b.probe_oks = 0;
        b.timeouts = 0;
        true
    }

    /// Records an active health-probe result against backend `idx`,
    /// applying the K-strike ejection and rejoin thresholds. Inert when
    /// no prober is configured (the no-faults fast path).
    pub fn record_probe(&mut self, now: SimTime, idx: usize, ok: bool) -> ProbeOutcome {
        let Some(h) = self.health else {
            return ProbeOutcome::Ok;
        };
        self.health_probes += 1;
        if ok {
            let b = &mut self.backends[idx];
            b.probe_fails = 0;
            if matches!(b.state, BackendState::Failed | BackendState::Ejected) {
                b.probe_oks += 1;
                if b.probe_oks >= h.rejoin_after {
                    self.reinstate(now, idx);
                    self.rejoins += 1;
                    return ProbeOutcome::Rejoined;
                }
            }
            return ProbeOutcome::Ok;
        }
        self.probe_failures += 1;
        let b = &mut self.backends[idx];
        b.probe_oks = 0;
        b.probe_fails += 1;
        if b.probe_fails >= h.eject_after && b.state != BackendState::Failed {
            // An already-ejected backend escalates to failed (its pins
            // enter limbo) without counting as a fresh ejection.
            let newly_out = b.state != BackendState::Ejected;
            self.mark_failed(now, idx);
            if newly_out {
                self.ejections += 1;
            }
            return ProbeOutcome::Failed;
        }
        ProbeOutcome::Strike
    }

    /// Notes a request timeout (an RTO firing) against backend `idx` for
    /// passive health: consecutive timeouts beyond the threshold eject
    /// it. Returns whether this strike ejected the backend. Inert when no
    /// prober is configured.
    pub fn note_timeout(&mut self, idx: usize) -> bool {
        let Some(h) = self.health else {
            return false;
        };
        let b = &mut self.backends[idx];
        if !b.in_rotation() {
            return false;
        }
        b.timeouts += 1;
        if b.timeouts >= h.passive_eject_after {
            self.eject(idx);
            self.ejections += 1;
            return true;
        }
        false
    }

    /// Notes a successful response from backend `idx`, clearing its
    /// passive-timeout strikes.
    pub fn note_ok(&mut self, idx: usize) {
        self.backends[idx].timeouts = 0;
    }

    // ----- results --------------------------------------------------------

    /// Flushes time-based accounting (parked residency) to `now`; call
    /// once at the horizon. Returns the flushed residency per backend
    /// index, for metric emission.
    pub fn finalize(&mut self, now: SimTime) -> Vec<(usize, SimDuration)> {
        let mut flushed = Vec::new();
        for (i, b) in self.backends.iter_mut().enumerate() {
            if let Some(since) = b.parked_since.take() {
                let dur = now - since;
                b.parked_total += dur;
                // Keep the clock running for (hypothetical) post-horizon
                // reads without double counting.
                b.parked_since = Some(now);
                if !dur.is_zero() {
                    flushed.push((i, dur));
                }
            }
        }
        flushed
    }

    /// The conservation ledger for the watchdog.
    #[must_use]
    pub fn ledger(&self) -> LbLedger {
        LbLedger {
            opened: self.opened,
            completed: self.completed,
            rejected: self.rejected,
            outstanding: self.outstanding,
            failed_over: self.failed_over,
            backend_outstanding_sum: self.backends.iter().map(|b| b.outstanding).sum(),
            unmatched_responses: self.unmatched_responses,
            dead_dispatches: self.dead_dispatches,
        }
    }

    /// Whole-run summary. Coordinator counters (parks/unparks/transition
    /// energy) are zero here; the owner merges them in.
    #[must_use]
    pub fn summary(&self) -> FleetSummary {
        FleetSummary {
            dispatch: self.dispatch,
            requests_opened: self.opened,
            requests_completed: self.completed,
            requests_rejected: self.rejected,
            outstanding: self.outstanding,
            forwarded_frames: self.forwarded_frames,
            retx_forwarded: self.retx_forwarded,
            bulk_frames: self.bulk_frames,
            unmatched_responses: self.unmatched_responses,
            failovers: self.failovers,
            health_probes: self.health_probes,
            probe_failures: self.probe_failures,
            ejections: self.ejections,
            rejoins: self.rejoins,
            stale_responses: self.stale_responses,
            parks: 0,
            unparks: 0,
            transition_energy_j: 0.0,
            backends: self
                .backends
                .iter()
                .map(|b| BackendSummary {
                    node: b.node,
                    state: b.state,
                    assigned: b.assigned,
                    frames: b.frames,
                    completed: b.completed,
                    rejected: b.rejected,
                    outstanding: b.outstanding,
                    parked: b.parked_total,
                    energy_j: 0.0,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Bytes;

    fn lb(n: usize, dispatch: DispatchPolicy) -> LoadBalancer {
        let cfg = FleetConfig::new(n, dispatch).with_pack_spill(2);
        let nodes = (0..n).map(|i| NodeId(i as u16)).collect();
        LoadBalancer::new(NodeId(n as u16), nodes, &cfg)
    }

    fn request(client: u16, id: u64) -> Packet {
        Packet::request(
            NodeId(client),
            NodeId(100),
            id,
            Bytes::from_static(b"GET /"),
        )
    }

    fn response(lb: &LoadBalancer, idx: usize, id: u64) -> Packet {
        // Backends answer to the VIP (the request's rewritten source).
        Packet::request(NodeId(idx as u16), lb.vip(), id, Bytes::from_static(b"OK"))
    }

    #[test]
    fn round_robin_cycles_and_nat_rewrites() {
        let mut l = lb(3, DispatchPolicy::RoundRobin);
        for id in 0..6 {
            let (idx, out) = l.dispatch(request(10, id));
            assert_eq!(idx, (id as usize) % 3);
            assert_eq!(out.src(), l.vip());
            assert_eq!(out.dst(), NodeId(idx as u16));
            assert_eq!(out.meta().request_id, Some(id));
        }
        assert_eq!(l.outstanding(), 6);
        assert_eq!(l.ledger().backend_outstanding_sum, 6);
    }

    #[test]
    fn jsq_prefers_least_loaded() {
        let mut l = lb(2, DispatchPolicy::LeastOutstanding);
        let (a, _) = l.dispatch(request(10, 0));
        assert_eq!(a, 0, "tie goes to the lowest index");
        let (b, _) = l.dispatch(request(10, 1));
        assert_eq!(b, 1, "backend 0 now has one outstanding");
        // Complete backend 0's request; the next pick returns there.
        let r = l.on_response(response(&l, 0, 0));
        assert!(r.forward.is_some());
        let (c, _) = l.dispatch(request(10, 2));
        assert_eq!(c, 0);
    }

    #[test]
    fn packing_fills_lowest_then_spills() {
        let mut l = lb(3, DispatchPolicy::Packing); // spill = 2
        let picks: Vec<usize> = (0..5).map(|id| l.dispatch(request(10, id)).0).collect();
        assert_eq!(picks, vec![0, 0, 1, 1, 2]);
        // All at spill: falls back to least-outstanding (backend 2 has 1).
        assert_eq!(l.dispatch(request(10, 5)).0, 2);
    }

    #[test]
    fn responses_route_back_and_close_the_ledger() {
        let mut l = lb(2, DispatchPolicy::RoundRobin);
        let (idx, fwd) = l.dispatch(request(10, 7).sent_at(SimTime::from_us(3)));
        assert_eq!(fwd.meta().sent_at, SimTime::from_us(3), "meta survives NAT");
        let r = l.on_response(response(&l, idx, 7));
        let back = r.forward.expect("matched response");
        assert_eq!(back.src(), l.vip());
        assert_eq!(back.dst(), NodeId(10));
        assert_eq!(l.outstanding(), 0);
        let led = l.ledger();
        assert_eq!(led.completed, 1);
        assert_eq!(led.opened, led.completed + led.rejected + led.outstanding);
    }

    #[test]
    fn retransmissions_follow_the_pin_and_replays_still_route() {
        let mut l = lb(2, DispatchPolicy::RoundRobin);
        let (first, _) = l.dispatch(request(10, 1));
        let (again, _) = l.dispatch(request(10, 1));
        assert_eq!(first, again, "retransmission must follow the pin");
        assert_eq!(l.requests_opened(), 1, "one logical request");
        assert_eq!(l.outstanding(), 1);
        // Resolve, then a replayed response must still reach the client
        // without double-closing the ledger.
        let _ = l.on_response(response(&l, first, 1));
        let replay = l.on_response(response(&l, first, 1));
        assert_eq!(replay.forward.expect("routed").dst(), NodeId(10));
        assert_eq!(l.ledger().completed, 1);
        assert_eq!(l.outstanding(), 0);
        // The lingering entry still names the backend that served it.
        assert_eq!(l.pinned_backend(1), None, "closed");
        assert_eq!(l.pin_of(1), Some(first));
    }

    /// One `(id, Conn)` per request of the last linger sits in conntrack;
    /// a field that regrows it regrows the whole table.
    #[test]
    fn conntrack_entries_stay_small() {
        assert!(std::mem::size_of::<(u64, Conn)>() <= 24);
    }

    #[test]
    fn closed_entries_retire_after_their_linger_and_open_ones_never_do() {
        let mut l = lb(2, DispatchPolicy::RoundRobin);
        l.set_linger(SimDuration::from_ms(10));
        let (first, _) = l.dispatch(request(10, 1));
        let _ = l.dispatch(request(10, 2)); // never answered
        l.advance_clock(SimTime::from_ms(4));
        let _ = l.on_response(response(&l, first, 1));
        // The linger runs from the open, not the close; retirement rides
        // on fresh dispatches.
        l.advance_clock(SimTime::from_ms(9));
        let _ = l.dispatch(request(10, 3));
        assert!(l.tracks(1), "still inside its linger");
        l.advance_clock(SimTime::from_ms(10));
        let _ = l.dispatch(request(10, 4));
        assert!(!l.tracks(1), "closed and past its linger");
        assert!(l.tracks(2), "open entries never retire");
        assert_eq!(l.conntrack_entries(), 3);
        let led = l.ledger();
        assert_eq!(led.opened, led.completed + led.rejected + led.outstanding);
    }

    #[test]
    fn without_a_linger_closed_entries_stay() {
        let mut l = lb(2, DispatchPolicy::RoundRobin);
        let (first, _) = l.dispatch(request(10, 1));
        let _ = l.on_response(response(&l, first, 1));
        l.advance_clock(SimTime::from_ms(60_000));
        let _ = l.dispatch(request(10, 2));
        assert!(l.tracks(1));
    }

    #[test]
    fn backend_index_reads_sparse_node_ids() {
        let cfg = FleetConfig::new(3, DispatchPolicy::RoundRobin);
        let l = LoadBalancer::new(NodeId(1), vec![NodeId(5), NodeId(2), NodeId(9)], &cfg);
        assert_eq!(l.backend_index(NodeId(5)), Some(0));
        assert_eq!(l.backend_index(NodeId(2)), Some(1));
        assert_eq!(l.backend_index(NodeId(9)), Some(2));
        for other in [0, 1, 3, 10, 500] {
            assert_eq!(l.backend_index(NodeId(other)), None);
        }
    }

    #[test]
    fn unmatched_responses_are_counted_not_forwarded() {
        let mut l = lb(2, DispatchPolicy::RoundRobin);
        let r = l.on_response(response(&l, 0, 99));
        assert!(r.forward.is_none());
        assert_eq!(l.ledger().unmatched_responses, 1);
    }

    #[test]
    fn draining_blocks_new_dispatch_but_not_pins() {
        let mut l = lb(2, DispatchPolicy::RoundRobin);
        let (idx, _) = l.dispatch(request(10, 1));
        assert_eq!(idx, 0);
        assert!(!l.begin_drain(0).unwrap(), "still has outstanding work");
        for id in 2..6 {
            assert_eq!(
                l.dispatch(request(10, id)).0,
                1,
                "no new work while draining"
            );
        }
        // The pinned retransmission still flows to backend 0.
        assert_eq!(l.dispatch(request(10, 1)).0, 0);
        // The final response completes the drain.
        let r = l.on_response(response(&l, 0, 1));
        assert_eq!(r.drained, Some(0));
    }

    #[test]
    fn park_unpark_transitions_are_generation_guarded() {
        let mut l = lb(2, DispatchPolicy::RoundRobin);
        assert!(l.begin_drain(1).unwrap(), "idle backend drains instantly");
        let gen = l.begin_parking(1).unwrap();
        // A cancelled-then-reparked backend would bump the generation;
        // the stale callback must not flip the state.
        assert!(!l.finish_park(SimTime::from_ms(1), 1, gen.wrapping_add(1)));
        assert!(l.finish_park(SimTime::from_ms(1), 1, gen));
        assert_eq!(l.state(1), BackendState::Parked);
        assert_eq!(l.parked_count(), 1);
        let (ugen, flushed) = l.begin_unpark(SimTime::from_ms(5), 1).unwrap();
        assert_eq!(flushed, SimDuration::from_ms(4));
        assert!(!l.finish_unpark(1, ugen.wrapping_add(1)));
        assert!(l.finish_unpark(1, ugen));
        assert_eq!(l.state(1), BackendState::Active);
        assert_eq!(l.summary().backends[1].parked, SimDuration::from_ms(4));
    }

    #[test]
    fn no_active_backend_falls_back_without_dropping() {
        let mut l = lb(1, DispatchPolicy::Packing);
        assert!(l.begin_drain(0).unwrap());
        let gen = l.begin_parking(0).unwrap();
        assert!(l.finish_park(SimTime::from_ms(1), 0, gen));
        // Everything is parked; the frame still goes somewhere.
        let (idx, _) = l.dispatch(request(10, 1));
        assert_eq!(idx, 0);
    }

    #[test]
    fn finalize_flushes_parked_residency_once() {
        let mut l = lb(2, DispatchPolicy::RoundRobin);
        assert!(l.begin_drain(1).unwrap());
        let gen = l.begin_parking(1).unwrap();
        assert!(l.finish_park(SimTime::from_ms(2), 1, gen));
        let flushed = l.finalize(SimTime::from_ms(10));
        assert_eq!(flushed, vec![(1, SimDuration::from_ms(8))]);
        // A second finalize at the same instant flushes nothing more.
        assert!(l.finalize(SimTime::from_ms(10)).is_empty());
        assert_eq!(l.summary().backends[1].parked, SimDuration::from_ms(8));
    }

    fn lb_health(n: usize, dispatch: DispatchPolicy) -> LoadBalancer {
        let cfg = FleetConfig::new(n, dispatch)
            .with_pack_spill(2)
            .with_health(HealthConfig::standard());
        let nodes = (0..n).map(|i| NodeId(i as u16)).collect();
        LoadBalancer::new(NodeId(n as u16), nodes, &cfg)
    }

    #[test]
    fn illegal_transitions_are_refused_with_context() {
        let mut l = lb(2, DispatchPolicy::RoundRobin);
        assert!(l.begin_drain(0).unwrap());
        let err = l.begin_drain(0).unwrap_err();
        assert_eq!(
            err,
            TransitionError {
                backend: 0,
                from: BackendState::Draining,
                attempted: "begin a drain",
            }
        );
        assert_eq!(
            err.to_string(),
            "backend 0 cannot begin a drain from the draining state"
        );
        assert!(l.cancel_drain(1).is_err(), "backend 1 is not draining");
        assert!(l.begin_unpark(SimTime::from_ms(1), 1).is_err());
        // A draining backend with outstanding work refuses to park.
        l.cancel_drain(0).unwrap();
        let (idx, _) = l.dispatch(request(10, 1));
        assert!(!l.begin_drain(idx).unwrap());
        assert!(l.begin_parking(idx).is_err());
        assert_eq!(l.state(idx), BackendState::Draining, "state is unharmed");
    }

    #[test]
    fn mark_failed_orphans_pins_and_retx_fails_over() {
        let mut l = lb(2, DispatchPolicy::RoundRobin);
        for id in 0..3 {
            l.dispatch(request(10, id)); // ids 0,2 → b0; id 1 → b1
        }
        assert_eq!(l.outstanding_of(0), 2);
        assert_eq!(l.mark_failed(SimTime::from_ms(1), 0), 2);
        assert_eq!(l.mark_failed(SimTime::from_ms(1), 0), 0, "idempotent");
        assert_eq!(l.state(0), BackendState::Failed);
        let led = l.ledger();
        assert_eq!(led.failed_over, 2);
        assert_eq!(led.outstanding, 1);
        assert_eq!(led.backend_outstanding_sum, 1);
        assert_eq!(
            led.opened,
            led.completed + led.rejected + led.failed_over + led.outstanding
        );
        // Fresh work avoids the failed backend entirely.
        assert_eq!(l.dispatch(request(10, 3)).0, 1);
        // A retransmission of an orphaned id re-pins to the healthy one.
        let (idx, out) = l.dispatch(request(10, 0));
        assert_eq!(idx, 1);
        assert_eq!(out.dst(), NodeId(1));
        let led = l.ledger();
        assert_eq!(led.failed_over, 1);
        assert_eq!(led.outstanding, 3);
        assert_eq!(l.summary().failovers, 1);
        assert_eq!(led.dead_dispatches, 0);
        // The re-pinned backend's answer completes it end to end.
        let r = l.on_response(response(&l, 1, 0));
        assert!(r.forward.is_some());
        let led = l.ledger();
        assert_eq!(led.completed, 1);
        assert_eq!(
            led.opened,
            led.completed + led.rejected + led.failed_over + led.outstanding
        );
    }

    #[test]
    fn ejected_backend_keeps_outstanding_until_failover() {
        let mut l = lb_health(2, DispatchPolicy::RoundRobin);
        l.dispatch(request(10, 0)); // → b0
        for _ in 0..4 {
            assert!(!l.note_timeout(0));
        }
        assert!(l.note_timeout(0), "fifth strike ejects");
        assert_eq!(l.state(0), BackendState::Ejected);
        assert_eq!(l.outstanding_of(0), 1, "ejected keeps its pins");
        assert_eq!(l.ledger().failed_over, 0);
        // The retransmission moves the pin (and its accounting) over.
        assert_eq!(l.dispatch(request(10, 0)).0, 1);
        assert_eq!(l.outstanding_of(0), 0);
        assert_eq!(l.outstanding_of(1), 1);
        assert_eq!(l.summary().failovers, 1);
        assert_eq!(l.summary().ejections, 1);
    }

    #[test]
    fn probe_strikes_cross_eject_and_rejoin_thresholds() {
        let t = SimTime::from_ms(1);
        let mut l = lb_health(2, DispatchPolicy::RoundRobin);
        assert_eq!(l.record_probe(t, 0, false), ProbeOutcome::Strike);
        assert_eq!(l.record_probe(t, 0, true), ProbeOutcome::Ok);
        assert_eq!(l.record_probe(t, 0, false), ProbeOutcome::Strike);
        assert_eq!(l.record_probe(t, 0, false), ProbeOutcome::Strike);
        assert_eq!(
            l.record_probe(t, 0, false),
            ProbeOutcome::Failed,
            "third consecutive failure crosses the threshold"
        );
        assert_eq!(l.state(0), BackendState::Failed);
        assert_eq!(l.record_probe(t, 0, true), ProbeOutcome::Ok);
        assert_eq!(l.record_probe(t, 0, true), ProbeOutcome::Rejoined);
        assert_eq!(l.state(0), BackendState::Active);
        let s = l.summary();
        assert_eq!(s.health_probes, 7);
        assert_eq!(s.probe_failures, 4);
        assert_eq!(s.ejections, 1);
        assert_eq!(s.rejoins, 1);
    }

    #[test]
    fn health_hooks_are_inert_without_a_prober() {
        let mut l = lb(2, DispatchPolicy::RoundRobin);
        let t = SimTime::from_ms(1);
        for _ in 0..10 {
            assert_eq!(l.record_probe(t, 0, false), ProbeOutcome::Ok);
            assert!(!l.note_timeout(0));
        }
        assert_eq!(l.state(0), BackendState::Active);
        assert_eq!(l.summary().health_probes, 0);
    }

    #[test]
    fn rejected_requests_unpin_and_balance_the_ledger() {
        let mut l = lb(2, DispatchPolicy::RoundRobin);
        let (idx, _) = l.dispatch(request(10, 9));
        let rej = Packet::reject_response(NodeId(idx as u16), l.vip(), 9, SimTime::from_us(1));
        let r = l.on_response(rej);
        assert_eq!(r.forward.expect("routed to client").dst(), NodeId(10));
        let led = l.ledger();
        assert_eq!(led.rejected, 1);
        assert_eq!(led.outstanding, 0);
        assert_eq!(led.backend_outstanding_sum, 0);
        assert_eq!(
            led.opened,
            led.completed + led.rejected + led.failed_over + led.outstanding
        );
        // A late retransmission of the rejected id is a replay: it follows
        // the (closed) pin and must not reopen the ledger.
        assert_eq!(l.dispatch(request(10, 9)).0, idx);
        assert_eq!(l.requests_opened(), 1);
        assert_eq!(l.outstanding(), 0);
    }

    #[test]
    fn crash_while_draining_orphans_and_never_signals_drained() {
        let mut l = lb(2, DispatchPolicy::RoundRobin);
        l.dispatch(request(10, 1)); // → b0
        assert!(!l.begin_drain(0).unwrap());
        assert_eq!(l.mark_failed(SimTime::from_ms(1), 0), 1);
        assert_eq!(l.state(0), BackendState::Failed);
        // The failover answer completes the request on backend 1; the dead
        // drain must not emit a park-me signal.
        assert_eq!(l.dispatch(request(10, 1)).0, 1);
        let r = l.on_response(response(&l, 1, 1));
        assert_eq!(r.drained, None);
        let led = l.ledger();
        assert_eq!(led.completed, 1);
        assert_eq!(
            led.opened,
            led.completed + led.rejected + led.failed_over + led.outstanding
        );
    }

    #[test]
    fn crash_while_parked_restarts_into_parked() {
        let mut l = lb(2, DispatchPolicy::RoundRobin);
        assert!(l.begin_drain(1).unwrap());
        let gen = l.begin_parking(1).unwrap();
        assert!(l.finish_park(SimTime::from_ms(1), 1, gen));
        assert_eq!(l.mark_failed(SimTime::from_ms(2), 1), 0, "no pins parked");
        assert_eq!(l.state(1), BackendState::Failed);
        assert!(l.reinstate(SimTime::from_ms(3), 1));
        assert_eq!(
            l.state(1),
            BackendState::Parked,
            "a restarted machine re-enters the state it crashed from"
        );
        // Residency: 1ms→2ms before the crash, 3ms→5ms after the restart.
        let (_, flushed) = l.begin_unpark(SimTime::from_ms(5), 1).unwrap();
        assert_eq!(flushed, SimDuration::from_ms(2));
        assert_eq!(l.summary().backends[1].parked, SimDuration::from_ms(3));
    }

    #[test]
    fn stale_responses_from_the_old_backend_are_dropped() {
        let mut l = lb(2, DispatchPolicy::RoundRobin);
        l.dispatch(request(10, 0)); // → b0
        l.mark_failed(SimTime::from_ms(1), 0);
        assert_eq!(l.dispatch(request(10, 0)).0, 1, "re-pinned");
        // The restarted original backend answers late: dropped, counted.
        let r = l.on_response(response(&l, 0, 0));
        assert!(r.forward.is_none());
        assert_eq!(l.summary().stale_responses, 1);
        assert_eq!(l.ledger().unmatched_responses, 0);
        // The owning backend still completes it.
        assert!(l.on_response(response(&l, 1, 0)).forward.is_some());
        assert_eq!(l.ledger().completed, 1);
    }

    #[test]
    fn limbo_request_answered_by_its_old_backend_settles() {
        let mut l = lb(2, DispatchPolicy::RoundRobin);
        l.dispatch(request(10, 0)); // → b0
        l.mark_failed(SimTime::from_ms(1), 0);
        assert_eq!(l.ledger().failed_over, 1);
        // No retransmission yet: the "dead" backend answers after all
        // (false-positive detection). The pin still matches, so the
        // request settles straight out of limbo.
        let r = l.on_response(response(&l, 0, 0));
        assert!(r.forward.is_some());
        let led = l.ledger();
        assert_eq!(led.failed_over, 0);
        assert_eq!(led.completed, 1);
        assert_eq!(
            led.opened,
            led.completed + led.rejected + led.failed_over + led.outstanding
        );
    }

    #[test]
    fn fully_failed_fleet_counts_dead_dispatches() {
        let mut l = lb(2, DispatchPolicy::RoundRobin);
        let t = SimTime::from_ms(1);
        l.mark_failed(t, 0);
        l.mark_failed(t, 1);
        l.dispatch(request(10, 0));
        assert_eq!(l.ledger().dead_dispatches, 1);
        // With nowhere healthy to re-pin, the retransmission keeps the
        // stale pin and is counted again.
        l.dispatch(request(10, 0));
        assert_eq!(l.ledger().dead_dispatches, 2);
        assert_eq!(l.summary().failovers, 0);
    }

    /// The fault-recovery races the chaos campaign exercises: a crash
    /// landing on an already-ejected backend, and a restart (probe
    /// recovery) racing an administrative drain. Illegal transitions are
    /// typed refusals — never panics, never silent state corruption.
    #[test]
    fn crash_and_restart_races_are_typed_refusals() {
        let cfg =
            FleetConfig::new(3, DispatchPolicy::RoundRobin).with_health(HealthConfig::standard());
        let nodes = (0..3).map(|i| NodeId(i as u16)).collect();
        let mut l = LoadBalancer::new(NodeId(3), nodes, &cfg);
        let t = SimTime::from_ms(1);
        // Passive ejection: enough consecutive RTO strikes.
        for _ in 0..1_000 {
            if l.note_timeout(1) {
                break;
            }
        }
        assert_eq!(l.state(1), BackendState::Ejected);
        // Crash while ejected: escalates to Failed (pins enter limbo);
        // a second crash of a dead machine is a no-op, not a panic.
        l.mark_failed(t, 1);
        assert_eq!(l.state(1), BackendState::Failed);
        assert_eq!(l.mark_failed(SimTime::from_ms(2), 1), 0);
        // Draining or parking the dead backend is refused with the typed
        // error naming the state it was in.
        let err = l.begin_drain(1).unwrap_err();
        assert_eq!((err.backend, err.from), (1, BackendState::Failed));
        let err = l.begin_parking(1).unwrap_err();
        assert_eq!(err.from, BackendState::Failed);
        // Restart while draining: reinstate only applies to
        // failed/ejected backends — a draining one refuses and keeps
        // draining.
        assert!(l.begin_drain(0).is_ok());
        assert!(!l.reinstate(t, 0));
        assert_eq!(l.state(0), BackendState::Draining);
        // And a drain cannot be cancelled on a backend that is not
        // draining.
        let err = l.cancel_drain(2).unwrap_err();
        assert_eq!(err.from, BackendState::Active);
        assert!(err.to_string().contains("cancel a drain"));
    }

    /// Storms of random transitions, dispatches, and responses never
    /// panic and always leave the conservation ledger balanced.
    #[test]
    fn prop_transition_storm_conserves_ledger() {
        use check::{ensure, ensure_eq, Check};
        use desim::SplitMix64;
        Check::new("lb_transition_storm").run(
            |rng, size| {
                let n = check::gen::usize_in(rng, 2, 6);
                let ops = check::gen::len_in(rng, size, 8, 120);
                (check::gen::u64_in(rng, 0, u64::MAX - 1), n, ops)
            },
            |&(seed, n, ops)| {
                let cfg = FleetConfig::new(n, DispatchPolicy::LeastOutstanding)
                    .with_health(HealthConfig::standard());
                let nodes = (0..n).map(|i| NodeId(i as u16)).collect();
                let mut l = LoadBalancer::new(NodeId(n as u16), nodes, &cfg);
                let mut rng = SplitMix64::new(seed);
                let mut next_id = 0u64;
                let mut open: Vec<u64> = Vec::new();
                let mut gens: Vec<Option<u32>> = vec![None; n];
                for step in 0..ops {
                    let t = SimTime::from_us(step as u64 + 1);
                    let idx = rng.next_below(n as u64) as usize;
                    match rng.next_below(12) {
                        0..=3 => {
                            next_id += 1;
                            let _ = l.dispatch(request(50, next_id));
                            open.push(next_id);
                        }
                        4 => {
                            // Answer a random open request from wherever
                            // it is currently pinned.
                            if !open.is_empty() {
                                let id =
                                    open.swap_remove(rng.next_below(open.len() as u64) as usize);
                                if let Some(b) = l.pinned_backend(id) {
                                    let _ = l.on_response(response(&l, b, id));
                                }
                            }
                        }
                        5 => {
                            let _ = l.mark_failed(t, idx);
                        }
                        6 => {
                            let _ = l.reinstate(t, idx);
                        }
                        7 => {
                            if let Err(e) = l.begin_drain(idx) {
                                ensure!(
                                    e.from != BackendState::Active,
                                    "an active backend refused to drain"
                                );
                            }
                        }
                        8 => {
                            let _ = l.cancel_drain(idx);
                        }
                        9 => {
                            if let Ok(gen) = l.begin_parking(idx) {
                                gens[idx] = Some(gen);
                            }
                        }
                        10 => {
                            if let Some(gen) = gens[idx].take() {
                                let _ = l.finish_park(t, idx, gen);
                            }
                        }
                        _ => {
                            let _ = l.note_timeout(idx);
                        }
                    }
                    let led = l.ledger();
                    ensure_eq!(
                        led.opened,
                        led.completed + led.rejected + led.outstanding + led.failed_over
                    );
                    ensure_eq!(led.backend_outstanding_sum, led.outstanding);
                }
                Ok(())
            },
        );
    }

    #[test]
    fn bulk_frames_forward_without_conntrack() {
        let mut l = lb(2, DispatchPolicy::RoundRobin);
        let bulk = Packet::new(
            NodeId(10),
            NodeId(100),
            5,
            Bytes::from_static(b"DATA"),
            netsim::PacketMeta::default(),
        );
        let (_, out) = l.dispatch(bulk);
        assert_eq!(out.src(), l.vip());
        assert_eq!(l.requests_opened(), 0);
        assert_eq!(l.summary().bulk_frames, 1);
        assert_eq!(l.outstanding(), 0);
    }
}
