//! Runtime invariant watchdog.
//!
//! Production clusters pair load shedding with a watchdog that detects
//! the failure modes shedding bugs produce: stalled servers (work queued
//! but nothing making progress), accounting leaks (requests vanishing
//! without being completed, lost, or rejected), and unbounded queues
//! (caps configured but not enforced). [`Watchdog::check`] runs every
//! [`WatchdogConfig::period`] of simulated time, reads the cluster state
//! **without mutating it** — the checks are pure observers, so enabling
//! the watchdog never perturbs a run — and records structured
//! [`InvariantViolation`]s.
//!
//! The deliberately broken configuration (queue capacities set while
//! shedding is disabled) passes static validation — each field is
//! individually meaningful — and is caught here at runtime as a
//! [`InvariantKind::Boundedness`] violation instead of surfacing as a
//! hang or a panic.

use desim::{SimDuration, SimTime};
use fleetsim::LbLedger;
use oskernel::Kernel;

/// Which invariant failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantKind {
    /// A server has queued work but made no progress for two consecutive
    /// check periods while every core sat idle and none was mid-wake.
    Liveness,
    /// The accounting identity
    /// `issued == completed + lost + rejected + in_flight` broke.
    Conservation,
    /// A queue exceeded its configured capacity bound.
    Boundedness,
    /// A frame was addressed to a node the switch does not know.
    Routing,
    /// The run ended with work still outstanding: in-flight requests,
    /// open conntrack entries, or requests declared lost. Only checked
    /// at end of run, and only when the scenario promises a drain window
    /// (see [`WatchdogConfig::expect_quiescence`]).
    Quiescence,
    /// A request copy reached the LB after its client had resolved the
    /// request and found no conntrack entry: a request-keyed table
    /// retired an entry while a copy could still arrive.
    LateCopies,
    /// A completed request's stage durations did not sum exactly to its
    /// client-observed latency: the attribution lost or double-counted
    /// time somewhere on the path.
    StageTiling,
}

impl InvariantKind {
    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            InvariantKind::Liveness => "liveness",
            InvariantKind::Conservation => "conservation",
            InvariantKind::Boundedness => "boundedness",
            InvariantKind::Routing => "routing",
            InvariantKind::Quiescence => "quiescence",
            InvariantKind::LateCopies => "late_copies",
            InvariantKind::StageTiling => "stage_tiling",
        }
    }
}

/// One failed invariant check, with enough context to debug it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// The invariant that failed.
    pub kind: InvariantKind,
    /// Simulated instant of the failing check.
    pub at: SimTime,
    /// Human-readable specifics (queue, observed value, bound, …).
    pub detail: String,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} @ {}] {}", self.kind.name(), self.at, self.detail)
    }
}

/// How the runner reacts to a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WatchdogMode {
    /// Panic at the end of the run if any violation was recorded (the
    /// default: every test runs under the watchdog and fails fast).
    #[default]
    Fail,
    /// Record violations and expose them on the result (used by tests
    /// that *expect* a violation, e.g. the broken-config scenario).
    Collect,
}

/// The watchdog's check period in simulated time.
pub const CHECK_PERIOD: SimDuration = SimDuration::from_ms(1);

/// Watchdog configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WatchdogConfig {
    /// Violation handling.
    pub mode: WatchdogMode,
    /// Check the quiescence invariant at end of run. Off by default:
    /// normal runs legitimately end mid-flight (clients generate load
    /// right up to the horizon). Chaos scenarios schedule a drain window
    /// and turn this on — after the drain, any outstanding work is a
    /// leak, not a race with the horizon.
    pub expect_quiescence: bool,
}

impl WatchdogConfig {
    /// Collect violations instead of failing the run (builder style).
    #[must_use]
    pub fn collecting(mut self) -> Self {
        self.mode = WatchdogMode::Collect;
        self
    }

    /// Demands end-of-run quiescence (builder style). Pair with a drain
    /// window long enough for retransmissions and failovers to settle.
    #[must_use]
    pub fn expecting_quiescence(mut self) -> Self {
        self.expect_quiescence = true;
        self
    }
}

/// Per-server progress snapshot from the previous check, for the
/// liveness invariant.
#[derive(Debug, Clone, Copy, Default)]
struct ServerSnapshot {
    /// Sum of the kernel's work counters (any increase is progress).
    work_done: u64,
    /// Run-queue depth at the previous check.
    queue_depth: usize,
    /// Whether the previous check already saw this server stalled.
    stalled_once: bool,
}

/// The invariant checker. Owned by the cluster simulation; fed pure
/// read-only views of the servers on every `Watchdog` event.
#[derive(Debug, Default)]
pub struct Watchdog {
    config: WatchdogConfig,
    snapshots: Vec<ServerSnapshot>,
    violations: Vec<InvariantViolation>,
    checks: u64,
    seen_misroutes: u64,
    seen_unmatched: u64,
    seen_dead_dispatches: u64,
    seen_late_copies: u64,
    seen_untiled: u64,
}

/// Cluster-level accounting fed into the conservation check, which runs
/// on every view: the request ledger counts every latency-critical
/// request, with or without retransmission.
#[derive(Debug, Clone, Copy, Default)]
pub struct AccountingView {
    /// Latency-critical requests issued.
    pub issued: u64,
    /// Requests fully completed at clients.
    pub completed: u64,
    /// Requests declared lost after exhausting retransmissions.
    pub lost: u64,
    /// Requests rejected by server admission control.
    pub rejected: u64,
    /// Requests still in flight.
    pub in_flight: u64,
    /// Frames that failed switch routing (dropped, not delivered).
    pub misroutes: u64,
    /// Request copies that reached the LB after their client resolved
    /// them and found no conntrack entry.
    pub late_copies: u64,
    /// Completed requests whose stages did not sum to their latency.
    pub untiled: u64,
}

impl Watchdog {
    /// Creates the watchdog.
    #[must_use]
    pub fn new(config: WatchdogConfig) -> Self {
        Watchdog {
            config,
            ..Watchdog::default()
        }
    }

    /// The configured violation handling.
    #[must_use]
    pub fn mode(&self) -> WatchdogMode {
        self.config.mode
    }

    /// Checks performed so far.
    #[must_use]
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Violations recorded so far.
    #[must_use]
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    fn violate(&mut self, kind: InvariantKind, at: SimTime, detail: String) {
        if simtrace::is_enabled() {
            simtrace::instant_args(
                "watchdog",
                "violation",
                at.as_nanos(),
                &[simtrace::arg("kind", kind.name())],
            );
        }
        self.violations
            .push(InvariantViolation { kind, at, detail });
    }

    /// Runs every invariant check against the current cluster state.
    /// Pure observation: neither the servers nor the accounting are
    /// mutated, so a run with the watchdog enabled is byte-identical to
    /// one without.
    pub fn check(
        &mut self,
        now: SimTime,
        servers: &[Kernel],
        accounting: &AccountingView,
        fleet: Option<&LbLedger>,
    ) {
        self.checks += 1;
        if simtrace::is_enabled() {
            simtrace::metric_add("watchdog", "checks", now.as_nanos(), 1.0);
        }
        self.snapshots
            .resize(servers.len(), ServerSnapshot::default());
        for (i, server) in servers.iter().enumerate() {
            self.check_liveness(now, i, server);
            self.check_boundedness(now, i, server);
        }
        self.check_conservation(now, accounting);
        if let Some(ledger) = fleet {
            self.check_fleet(now, ledger);
        }
        // Report each batch of new misroutes once, then track growth.
        if accounting.misroutes > self.seen_misroutes {
            self.violate(
                InvariantKind::Routing,
                now,
                format!(
                    "{} frame(s) addressed to unattached nodes were dropped",
                    accounting.misroutes
                ),
            );
            self.seen_misroutes = accounting.misroutes;
        }
        if accounting.late_copies > self.seen_late_copies {
            self.violate(
                InvariantKind::LateCopies,
                now,
                format!(
                    "{} request copy(ies) reached the LB after their client resolved \
                     them and found no conntrack entry (retired too early)",
                    accounting.late_copies
                ),
            );
            self.seen_late_copies = accounting.late_copies;
        }
        if accounting.untiled > self.seen_untiled {
            self.violate(
                InvariantKind::StageTiling,
                now,
                format!(
                    "{} completed request(s) whose stage durations do not sum \
                     to their client-observed latency",
                    accounting.untiled
                ),
            );
            self.seen_untiled = accounting.untiled;
        }
    }

    /// End-of-run quiescence: after the drain window, no request may be
    /// in flight, lost, stuck in limbo, or open in conntrack — a fault
    /// that was injected and healed must leave no permanent residue.
    /// Called once from `finalize`, never from periodic checks, and only
    /// acts when [`WatchdogConfig::expect_quiescence`] is set.
    pub fn check_quiescence(
        &mut self,
        now: SimTime,
        accounting: &AccountingView,
        fleet: Option<&LbLedger>,
    ) {
        if !self.config.expect_quiescence {
            return;
        }
        if accounting.in_flight > 0 {
            self.violate(
                InvariantKind::Quiescence,
                now,
                format!(
                    "{} request(s) still in flight after the drain window",
                    accounting.in_flight
                ),
            );
        }
        if accounting.lost > 0 {
            self.violate(
                InvariantKind::Quiescence,
                now,
                format!(
                    "{} request(s) declared lost — retransmissions did not recover \
                     from the injected faults",
                    accounting.lost
                ),
            );
        }
        if let Some(ledger) = fleet {
            if ledger.outstanding > 0 {
                self.violate(
                    InvariantKind::Quiescence,
                    now,
                    format!(
                        "LB conntrack still holds {} open request(s) at end of run",
                        ledger.outstanding
                    ),
                );
            }
            if ledger.failed_over > 0 {
                self.violate(
                    InvariantKind::Quiescence,
                    now,
                    format!(
                        "{} request(s) stranded in the failed-over limbo at end of run",
                        ledger.failed_over
                    ),
                );
            }
        }
    }

    /// Liveness: work queued while every core idles (and none is waking)
    /// with zero progress across two consecutive checks means the
    /// scheduler wedged. One stalled period alone is tolerated — a check
    /// can land between a job completing and the queue re-dispatching.
    fn check_liveness(&mut self, now: SimTime, idx: usize, server: &Kernel) {
        let stats = server.stats();
        let work_done = stats.isrs
            + stats.softirq_rx
            + stats.softirq_tx
            + stats.app_jobs
            + stats.governor_ticks;
        let depth = server.run_queue_depth();
        let prev = self.snapshots[idx];
        let progressed = work_done > prev.work_done;
        let cores_engaged = server
            .cores()
            .iter()
            .any(|c| c.has_job() || matches!(c.state_kind(), cpusim::CoreStateKind::Waking(_)));
        let stalled = depth > 0 && prev.queue_depth > 0 && !progressed && !cores_engaged;
        if stalled && prev.stalled_once {
            self.violate(
                InvariantKind::Liveness,
                now,
                format!(
                    "server {}: {} work item(s) queued with all cores idle and no \
                     progress for two consecutive {} periods",
                    server.node().0,
                    depth,
                    CHECK_PERIOD,
                ),
            );
        }
        self.snapshots[idx] = ServerSnapshot {
            work_done,
            queue_depth: depth,
            stalled_once: stalled,
        };
    }

    /// Boundedness: every capped queue must respect its cap. The total
    /// run-queue bound sums the admission cap, the per-queue RX
    /// backlogs plus one in-flight ISR each, and the TX allowance
    /// (see [`OverloadConfig::queue_bound`]).
    fn check_boundedness(&mut self, now: SimTime, _idx: usize, server: &Kernel) {
        let ov = *server.overload_config();
        let nic_queues = server.nic().queue_count();
        if let Some(bound) = ov.queue_bound(nic_queues) {
            let depth = server.run_queue_depth();
            if depth > bound {
                self.violate(
                    InvariantKind::Boundedness,
                    now,
                    format!(
                        "server {}: run queue holds {depth} item(s), bound is {bound} \
                         (caps configured{}; a cap without an enforcing policy is a \
                         misconfiguration)",
                        server.node().0,
                        if ov.shedding() {
                            ""
                        } else {
                            " but shedding is OFF"
                        },
                    ),
                );
            }
        }
        if let Some(cap) = ov.rx_backlog_cap {
            for (q, &backlog) in server.rx_backlogs().iter().enumerate() {
                if backlog > cap {
                    self.violate(
                        InvariantKind::Boundedness,
                        now,
                        format!(
                            "server {}: RX queue {q} backlog {backlog} exceeds cap {cap}",
                            server.node().0
                        ),
                    );
                }
            }
        }
        if let Some(cap) = ov.tx_backlog_cap {
            let queued = server.tx_queue_depth();
            if queued > cap {
                self.violate(
                    InvariantKind::Boundedness,
                    now,
                    format!(
                        "server {}: {queued} TX frame(s) queued exceeds cap {cap}",
                        server.node().0
                    ),
                );
            }
            let backlog = server.tx_backlog_depth();
            if backlog > cap {
                self.violate(
                    InvariantKind::Boundedness,
                    now,
                    format!(
                        "server {}: NIC TX backlog {backlog} exceeds cap {cap}",
                        server.node().0
                    ),
                );
            }
        }
    }

    /// LB-hop conservation: every request the load balancer opened is
    /// completed, rejected, in the failed-over limbo, or outstanding on
    /// exactly one backend, and the per-backend outstanding counts sum
    /// to the conntrack total. A response arriving for an unknown
    /// conntrack entry is a routing violation (reported per batch, like
    /// misroutes), as is any frame of live work dispatched to a backend
    /// already marked failed or ejected.
    fn check_fleet(&mut self, now: SimTime, ledger: &LbLedger) {
        let resolved = ledger.completed + ledger.rejected + ledger.failed_over + ledger.outstanding;
        if ledger.opened != resolved {
            self.violate(
                InvariantKind::Conservation,
                now,
                format!(
                    "LB opened {} != completed {} + rejected {} + failed_over {} \
                     + outstanding {} (= {resolved})",
                    ledger.opened,
                    ledger.completed,
                    ledger.rejected,
                    ledger.failed_over,
                    ledger.outstanding,
                ),
            );
        }
        if ledger.backend_outstanding_sum != ledger.outstanding {
            self.violate(
                InvariantKind::Conservation,
                now,
                format!(
                    "backend outstanding counts sum to {}, conntrack says {}",
                    ledger.backend_outstanding_sum, ledger.outstanding,
                ),
            );
        }
        if ledger.unmatched_responses > self.seen_unmatched {
            self.violate(
                InvariantKind::Routing,
                now,
                format!(
                    "{} backend response(s) matched no conntrack entry at the LB",
                    ledger.unmatched_responses,
                ),
            );
            self.seen_unmatched = ledger.unmatched_responses;
        }
        if ledger.dead_dispatches > self.seen_dead_dispatches {
            self.violate(
                InvariantKind::Routing,
                now,
                format!(
                    "{} frame(s) of live work dispatched to failed/ejected backends",
                    ledger.dead_dispatches,
                ),
            );
            self.seen_dead_dispatches = ledger.dead_dispatches;
        }
    }

    /// Conservation: every issued request is completed, lost, rejected,
    /// or still in flight.
    fn check_conservation(&mut self, now: SimTime, acc: &AccountingView) {
        let resolved = acc.completed + acc.lost + acc.rejected + acc.in_flight;
        if acc.issued != resolved {
            self.violate(
                InvariantKind::Conservation,
                now,
                format!(
                    "issued {} != completed {} + lost {} + rejected {} + in_flight {} \
                     (= {resolved})",
                    acc.issued, acc.completed, acc.lost, acc.rejected, acc.in_flight,
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_identity_checked_on_every_view() {
        let mut w = Watchdog::new(WatchdogConfig::default().collecting());
        let balanced = AccountingView {
            issued: 10,
            completed: 5,
            lost: 2,
            rejected: 2,
            in_flight: 1,
            ..AccountingView::default()
        };
        w.check(SimTime::from_ms(1), &[], &balanced, None);
        assert!(w.violations().is_empty(), "{:?}", w.violations());
        let leaky = AccountingView {
            in_flight: 0,
            ..balanced
        };
        w.check(SimTime::from_ms(2), &[], &leaky, None);
        assert_eq!(w.violations().len(), 1);
        assert_eq!(w.violations()[0].kind, InvariantKind::Conservation);
        assert_eq!(w.checks(), 2);
    }

    #[test]
    fn misroutes_surface_as_routing_violations() {
        let mut w = Watchdog::new(WatchdogConfig::default().collecting());
        let acc = AccountingView {
            misroutes: 2,
            ..AccountingView::default()
        };
        w.check(SimTime::from_ms(1), &[], &acc, None);
        assert_eq!(w.violations().len(), 1);
        assert_eq!(w.violations()[0].kind, InvariantKind::Routing);
        // A repeat check with no new misroutes does not duplicate.
        w.check(SimTime::from_ms(2), &acc_servers(), &acc, None);
        assert_eq!(w.violations().len(), 1);
    }

    fn acc_servers() -> Vec<Kernel> {
        Vec::new()
    }

    #[test]
    fn lb_ledger_conservation_and_unmatched_checked() {
        let mut w = Watchdog::new(WatchdogConfig::default().collecting());
        let acc = AccountingView::default();
        let good = LbLedger {
            opened: 10,
            completed: 6,
            rejected: 1,
            outstanding: 3,
            backend_outstanding_sum: 3,
            ..LbLedger::default()
        };
        w.check(SimTime::from_ms(1), &[], &acc, Some(&good));
        assert!(w.violations().is_empty(), "{:?}", w.violations());

        // A leaked request (opened != resolved) and a desynced backend
        // sum are two distinct conservation violations.
        let leaky = LbLedger {
            opened: 10,
            completed: 6,
            rejected: 1,
            outstanding: 2,
            backend_outstanding_sum: 3,
            ..LbLedger::default()
        };
        w.check(SimTime::from_ms(2), &[], &acc, Some(&leaky));
        assert_eq!(w.violations().len(), 2);
        assert!(w
            .violations()
            .iter()
            .all(|v| v.kind == InvariantKind::Conservation));

        // Unmatched responses surface as a routing violation once per
        // batch, like misroutes.
        let unmatched = LbLedger {
            unmatched_responses: 4,
            ..good
        };
        w.check(SimTime::from_ms(3), &[], &acc, Some(&unmatched));
        w.check(SimTime::from_ms(4), &[], &acc, Some(&unmatched));
        let routing: Vec<_> = w
            .violations()
            .iter()
            .filter(|v| v.kind == InvariantKind::Routing)
            .collect();
        assert_eq!(routing.len(), 1);
        assert!(routing[0].detail.contains("no conntrack entry"));
    }

    #[test]
    fn extended_identity_counts_failed_over_limbo() {
        let mut w = Watchdog::new(WatchdogConfig::default().collecting());
        let acc = AccountingView::default();
        // Two requests orphaned by a crash sit in limbo: the old identity
        // would flag this as a leak; the extended one balances.
        let failing_over = LbLedger {
            opened: 10,
            completed: 5,
            rejected: 1,
            outstanding: 2,
            failed_over: 2,
            backend_outstanding_sum: 2,
            ..LbLedger::default()
        };
        w.check(SimTime::from_ms(1), &[], &acc, Some(&failing_over));
        assert!(w.violations().is_empty(), "{:?}", w.violations());
        // Dropping the limbo count breaks it.
        let leaked = LbLedger {
            failed_over: 1,
            ..failing_over
        };
        w.check(SimTime::from_ms(2), &[], &acc, Some(&leaked));
        assert_eq!(w.violations().len(), 1);
        assert_eq!(w.violations()[0].kind, InvariantKind::Conservation);
        assert!(w.violations()[0].detail.contains("failed_over"));
    }

    #[test]
    fn dead_dispatches_surface_as_routing_violations_once_per_batch() {
        let mut w = Watchdog::new(WatchdogConfig::default().collecting());
        let acc = AccountingView::default();
        let dead = LbLedger {
            opened: 2,
            outstanding: 2,
            backend_outstanding_sum: 2,
            dead_dispatches: 3,
            ..LbLedger::default()
        };
        w.check(SimTime::from_ms(1), &[], &acc, Some(&dead));
        w.check(SimTime::from_ms(2), &[], &acc, Some(&dead));
        let routing: Vec<_> = w
            .violations()
            .iter()
            .filter(|v| v.kind == InvariantKind::Routing)
            .collect();
        assert_eq!(routing.len(), 1, "batched, not repeated");
        assert!(routing[0].detail.contains("failed/ejected"));
    }

    #[test]
    fn violations_format_with_kind_and_time() {
        let v = InvariantViolation {
            kind: InvariantKind::Boundedness,
            at: SimTime::from_ms(3),
            detail: "queue over cap".into(),
        };
        let s = format!("{v}");
        assert!(s.contains("boundedness"), "{s}");
        assert!(s.contains("queue over cap"), "{s}");
    }
}
