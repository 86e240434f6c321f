//! The fleet power coordinator.
//!
//! An ondemand-style epoch controller above dispatch: every epoch it
//! estimates the fleet's arrival rate from the LB's request counter
//! (EMA-smoothed), sizes the active backend set to
//! `ceil(rate / (per_backend_rps × util_target))`, and parks or unparks
//! whole backends to match. Parking is graceful — the backend drains its
//! in-flight work before leaving rotation — and hysteretic (several
//! consecutive low epochs are required), while unparking is immediate,
//! mirroring the asymmetry of the per-node governors: slow to save,
//! fast to serve.
//!
//! Highest-index backends park first and lowest-index backends unpark
//! first, so the active set is always a prefix — the same order the
//! packing dispatch policy fills.
//!
//! The coordinator is health-aware by construction: its committed count
//! ([`LoadBalancer::committed`]) excludes failed and ejected backends, so
//! a mid-run crash shrinks the committed set below target and the next
//! epoch unparks healthy spares to backfill the lost capacity — and the
//! [`MIN_ACTIVE`] floor is always a floor on *healthy* committed backends,
//! never satisfied by dead ones. Transition energy and residency go on
//! the coordinator's own [`EnergyMeter`]: parks as [`PowerMode::Halt`],
//! unparks as [`PowerMode::Wake`], matching how the per-core model
//! attributes its own transitions.

use crate::config::CoordinatorConfig;
use crate::lb::{BackendState, LoadBalancer};
use cpusim::{EnergyMeter, PowerMode};
use desim::{SimDuration, SimTime};

/// Evaluation period: the per-node ondemand governor's default, which
/// the coordinator mirrors.
pub const EPOCH: SimDuration = SimDuration::from_ms(10);
/// Lower bound on the committed (active + unparking) backend count.
pub const MIN_ACTIVE: usize = 1;
/// Consecutive low-load epochs required before parking (hysteresis
/// against burst-scale flapping).
pub const PARK_PATIENCE: u32 = 2;
/// Drain-complete → parked transition latency.
pub const PARK_LATENCY: SimDuration = SimDuration::from_ms(1);
/// Parked → active transition latency (resume is slower than suspend,
/// as with S-state exits).
pub const UNPARK_LATENCY: SimDuration = SimDuration::from_ms(2);
/// Power drawn during the park transition, watts.
pub const PARK_POWER_W: f64 = 4.0;
/// Power drawn during the unpark transition, watts.
pub const UNPARK_POWER_W: f64 = 9.0;
/// EMA smoothing factor for the arrival-rate estimate, in `(0, 1]`
/// (1 = no smoothing).
pub const EMA_ALPHA: f64 = 0.5;

/// A transition the simulation must schedule a completion callback for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetAction {
    /// Backend `backend` finishes its park transition at `at`.
    ParkDone {
        /// Backend index.
        backend: usize,
        /// Transition generation the callback must present.
        gen: u32,
        /// Completion instant.
        at: SimTime,
    },
    /// Backend `backend` finishes its unpark transition at `at`.
    UnparkDone {
        /// Backend index.
        backend: usize,
        /// Transition generation the callback must present.
        gen: u32,
        /// Completion instant.
        at: SimTime,
        /// Parked residency flushed when the transition began (for
        /// metric emission).
        parked_for: SimDuration,
    },
}

/// The epoch controller. Owned next to the [`LoadBalancer`] it steers.
#[derive(Debug)]
pub struct FleetCoordinator {
    cfg: CoordinatorConfig,
    /// EMA of the arrival rate; `None` until the first epoch completes.
    ema_rps: Option<f64>,
    /// LB request counter at the previous epoch.
    last_opened: u64,
    /// Consecutive epochs the target sat below the committed count.
    low_epochs: u32,
    parks: u64,
    unparks: u64,
    energy: EnergyMeter,
}

impl FleetCoordinator {
    /// Creates the coordinator.
    #[must_use]
    pub fn new(cfg: CoordinatorConfig) -> Self {
        FleetCoordinator {
            cfg,
            ema_rps: None,
            last_opened: 0,
            low_epochs: 0,
            parks: 0,
            unparks: 0,
            energy: EnergyMeter::new(),
        }
    }

    /// Park transitions started so far.
    #[must_use]
    pub fn parks(&self) -> u64 {
        self.parks
    }

    /// Unpark transitions started so far.
    #[must_use]
    pub fn unparks(&self) -> u64 {
        self.unparks
    }

    /// Transition energy and residency accounted so far.
    #[must_use]
    pub fn energy(&self) -> &EnergyMeter {
        &self.energy
    }

    /// The current arrival-rate estimate, requests/second.
    #[must_use]
    pub fn estimated_rps(&self) -> f64 {
        self.ema_rps.unwrap_or(0.0)
    }

    /// The active-set size the load estimate calls for.
    #[must_use]
    pub fn target_active(&self, backends: usize) -> usize {
        let capacity = self.cfg.per_backend_rps * self.cfg.util_target;
        let raw = (self.estimated_rps() / capacity).ceil();
        // f64 → usize saturates on the (absurd) upper end; the clamp
        // below is what actually bounds it.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let raw = raw.max(0.0) as usize;
        raw.clamp(MIN_ACTIVE, backends)
    }

    /// Runs one coordination epoch: refreshes the load estimate and
    /// resizes the active set. Returns the transition callbacks to
    /// schedule.
    pub fn epoch(&mut self, now: SimTime, lb: &mut LoadBalancer) -> Vec<FleetAction> {
        let opened = lb.requests_opened();
        let delta = opened.saturating_sub(self.last_opened);
        self.last_opened = opened;
        #[allow(clippy::cast_precision_loss)]
        let rate = delta as f64 / EPOCH.as_secs_f64();
        self.ema_rps = Some(match self.ema_rps {
            None => rate,
            Some(prev) => EMA_ALPHA * rate + (1.0 - EMA_ALPHA) * prev,
        });
        let n = lb.backend_count();
        let target = self.target_active(n);
        let committed = lb.committed();
        let mut actions = Vec::new();
        if target > committed {
            self.low_epochs = 0;
            let mut need = target - committed;
            // Cheapest capacity first: cancel in-progress drains (free,
            // instant), then unpark, lowest index first so the active
            // set stays a prefix.
            for idx in 0..n {
                if need == 0 {
                    break;
                }
                if lb.state(idx) == BackendState::Draining && lb.cancel_drain(idx).is_ok() {
                    need -= 1;
                }
            }
            for idx in 0..n {
                if need == 0 {
                    break;
                }
                if lb.state(idx) == BackendState::Parked {
                    let Ok((gen, parked_for)) = lb.begin_unpark(now, idx) else {
                        continue;
                    };
                    self.unparks += 1;
                    self.energy
                        .accumulate(PowerMode::Wake, UNPARK_POWER_W, UNPARK_LATENCY);
                    actions.push(FleetAction::UnparkDone {
                        backend: idx,
                        gen,
                        at: now + UNPARK_LATENCY,
                        parked_for,
                    });
                    need -= 1;
                }
            }
            // Backends mid-Parking cannot be recalled; they finish the
            // transition and a later epoch unparks them.
        } else if target < committed {
            self.low_epochs += 1;
            if self.low_epochs >= PARK_PATIENCE {
                let mut excess = committed - target;
                // Park highest index first: the mirror of the unpark
                // order, and the backends packing starves anyway.
                for idx in (0..n).rev() {
                    if excess == 0 {
                        break;
                    }
                    if lb.state(idx) == BackendState::Active {
                        let Ok(already_idle) = lb.begin_drain(idx) else {
                            continue;
                        };
                        excess -= 1;
                        if already_idle {
                            actions.extend(self.start_park(now, lb, idx));
                        }
                    }
                }
            }
        } else {
            self.low_epochs = 0;
        }
        actions
    }

    /// A draining backend's last outstanding request resolved: start its
    /// park transition (no-op if the drain was cancelled — or the
    /// backend failed — meanwhile).
    pub fn on_drained(
        &mut self,
        now: SimTime,
        lb: &mut LoadBalancer,
        idx: usize,
    ) -> Option<FleetAction> {
        if lb.state(idx) != BackendState::Draining {
            return None;
        }
        self.start_park(now, lb, idx)
    }

    fn start_park(
        &mut self,
        now: SimTime,
        lb: &mut LoadBalancer,
        idx: usize,
    ) -> Option<FleetAction> {
        let gen = lb.begin_parking(idx).ok()?;
        self.parks += 1;
        self.energy
            .accumulate(PowerMode::Halt, PARK_POWER_W, PARK_LATENCY);
        Some(FleetAction::ParkDone {
            backend: idx,
            gen,
            at: now + PARK_LATENCY,
        })
    }

    /// Completion callback for a park transition. Returns whether the
    /// backend actually parked (stale generations are ignored).
    pub fn park_done(&mut self, now: SimTime, lb: &mut LoadBalancer, idx: usize, gen: u32) -> bool {
        lb.finish_park(now, idx, gen)
    }

    /// Completion callback for an unpark transition. Returns whether the
    /// backend actually re-entered rotation.
    pub fn unpark_done(&mut self, lb: &mut LoadBalancer, idx: usize, gen: u32) -> bool {
        lb.finish_unpark(idx, gen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DispatchPolicy, FleetConfig};
    use netsim::{Bytes, NodeId, Packet};

    fn fleet(n: usize) -> (LoadBalancer, FleetCoordinator) {
        let cfg = FleetConfig::new(n, DispatchPolicy::Packing);
        let nodes = (0..n).map(|i| NodeId(i as u16)).collect();
        let lb = LoadBalancer::new(NodeId(n as u16), nodes, &cfg);
        // 1000 rps per backend at util 1.0: easy arithmetic.
        let co = FleetCoordinator::new(CoordinatorConfig::new(1000.0).with_util_target(1.0));
        (lb, co)
    }

    fn open_requests(lb: &mut LoadBalancer, from: u64, count: u64) {
        for id in from..from + count {
            let _ = lb.dispatch(Packet::request(
                NodeId(50),
                lb.vip(),
                id,
                Bytes::from_static(b"GET /"),
            ));
        }
    }

    #[test]
    fn idle_fleet_parks_down_to_min_active() {
        let (mut lb, mut co) = fleet(4);
        // Zero arrivals: target = MIN_ACTIVE = 1. The first low epoch
        // only counts toward the patience; the second drains three idle
        // backends, which park immediately.
        assert_eq!(PARK_PATIENCE, 2);
        assert!(co.epoch(SimTime::from_ms(10), &mut lb).is_empty());
        assert_eq!(co.parks(), 0, "parking waits out the patience");
        let actions = co.epoch(SimTime::from_ms(20), &mut lb);
        assert_eq!(actions.len(), 3);
        assert_eq!(co.parks(), 3);
        assert_eq!(lb.committed(), 1);
        assert_eq!(lb.state(0), BackendState::Active, "the prefix survives");
        for a in actions {
            let FleetAction::ParkDone { backend, gen, at } = a else {
                panic!("expected parks, got {a:?}");
            };
            assert!(co.park_done(at, &mut lb, backend, gen));
        }
        assert_eq!(lb.parked_count(), 3);
        assert!(co.energy().total_joules() > 0.0, "transitions cost energy");
    }

    #[test]
    fn load_spike_unparks_lowest_index_first() {
        let (mut lb, mut co) = fleet(3);
        // Park everything above the minimum (two quiet epochs).
        for t in [10, 20] {
            for a in co.epoch(SimTime::from_ms(t), &mut lb) {
                if let FleetAction::ParkDone { backend, gen, at } = a {
                    co.park_done(at, &mut lb, backend, gen);
                }
            }
        }
        assert_eq!(lb.parked_count(), 2);
        // 25 requests in one 10 ms epoch = 2500 rps → target 3.
        open_requests(&mut lb, 0, 25);
        let actions = co.epoch(SimTime::from_ms(30), &mut lb);
        // EMA halves the first spike (alpha 0.5): 1250 rps → target 2,
        // so exactly one backend (index 1) unparks.
        assert_eq!(actions.len(), 1);
        let FleetAction::UnparkDone {
            backend, gen, at, ..
        } = actions[0]
        else {
            panic!("expected an unpark, got {:?}", actions[0]);
        };
        assert_eq!(backend, 1, "lowest parked index first");
        assert!(co.unpark_done(&mut lb, backend, gen));
        assert_eq!(lb.state(1), BackendState::Active);
        assert!(at > SimTime::from_ms(30));
        assert_eq!(co.unparks(), 1);
    }

    #[test]
    fn busy_backend_drains_before_parking() {
        let (mut lb, mut co) = fleet(2);
        // Pin one outstanding request to backend 1 (packing spills only
        // past the threshold, so force the pick via JSQ-like ordering:
        // fill backend 0 to the default spill first is overkill — just
        // dispatch to an empty fleet and move the pin by hand).
        open_requests(&mut lb, 0, 1); // lands on backend 0 (packing)
                                      // Make backend 0 the busy one; parking order is highest-first,
                                      // so backend 1 parks instantly and backend 0 stays.
        assert!(co.epoch(SimTime::from_ms(10), &mut lb).is_empty());
        let actions = co.epoch(SimTime::from_ms(20), &mut lb);
        assert_eq!(actions.len(), 1, "idle backend 1 parks immediately");
        // Now drive load to zero with backend 0 still holding work: a
        // later epoch wants to park it but must wait for the drain.
        // (min_active=1 keeps backend 0 active here; use a 2-high fleet
        // target instead: unpark, then re-park while busy.)
        let FleetAction::ParkDone { backend, gen, at } = actions[0] else {
            panic!("expected a park");
        };
        assert_eq!(backend, 1);
        co.park_done(at, &mut lb, backend, gen);

        // Spike load so both backends are wanted, then let it die with
        // outstanding work on backend 1.
        open_requests(&mut lb, 10, 40);
        let actions = co.epoch(SimTime::from_ms(30), &mut lb);
        assert_eq!(actions.len(), 1);
        let FleetAction::UnparkDone { backend, gen, .. } = actions[0] else {
            panic!("expected an unpark");
        };
        co.unpark_done(&mut lb, backend, gen);
        // Pin work to backend 1: backend 0 is at default spill (32)? No —
        // spill defaults to 32 and backend 0 holds 41; packing spills to 1.
        open_requests(&mut lb, 60, 1);
        assert!(lb.outstanding_of(1) > 0);
        // Quiet epochs decay the EMA until the target drops to 1, and
        // the patience runs out one epoch later; backend 1 must then
        // drain before it can park.
        for t in [40, 50] {
            assert!(co.epoch(SimTime::from_ms(t), &mut lb).is_empty());
        }
        assert_eq!(lb.state(1), BackendState::Active);
        let actions = co.epoch(SimTime::from_ms(60), &mut lb);
        assert!(actions.is_empty(), "draining backend parks only when empty");
        assert_eq!(lb.state(1), BackendState::Draining);
        // The drain completes when its response flows back.
        let resp = Packet::request(NodeId(1), lb.vip(), 60, Bytes::from_static(b"OK"));
        let r = lb.on_response(resp);
        assert_eq!(r.drained, Some(1));
        let action = co.on_drained(SimTime::from_ms(61), &mut lb, 1);
        assert!(matches!(
            action,
            Some(FleetAction::ParkDone { backend: 1, .. })
        ));
    }

    #[test]
    fn returning_load_cancels_a_drain_for_free() {
        let (mut lb, mut co) = fleet(2);
        open_requests(&mut lb, 0, 1);
        // Force both backends busy-ish: dispatch pins one to backend 0.
        // Quiet epoch parks backend 1 (idle) — then spike before the
        // *busy* backend finishes draining.
        assert!(co.epoch(SimTime::from_ms(10), &mut lb).is_empty());
        let parks = co.epoch(SimTime::from_ms(20), &mut lb);
        assert_eq!(parks.len(), 1);
        // Backend 0 still active with min_active=1. Now mark it draining
        // via a fabricated two-committed state: unpark 1 first.
        let FleetAction::ParkDone { backend, gen, at } = parks[0] else {
            panic!()
        };
        co.park_done(at, &mut lb, backend, gen);
        open_requests(&mut lb, 10, 40);
        for a in co.epoch(SimTime::from_ms(30), &mut lb) {
            if let FleetAction::UnparkDone { backend, gen, .. } = a {
                co.unpark_done(&mut lb, backend, gen);
            }
        }
        open_requests(&mut lb, 100, 1); // pin work to backend 1
        for t in [40, 50, 60] {
            let none = co.epoch(SimTime::from_ms(t), &mut lb);
            assert!(none.is_empty());
        }
        assert_eq!(lb.state(1), BackendState::Draining);
        let energy_before = co.energy().total_joules();
        // Load returns before the drain completes: the drain cancels,
        // with no transition energy and no callbacks.
        open_requests(&mut lb, 200, 40);
        let actions = co.epoch(SimTime::from_ms(70), &mut lb);
        assert!(actions.is_empty(), "cancelling a drain needs no callback");
        assert_eq!(lb.state(1), BackendState::Active);
        assert_eq!(co.energy().total_joules(), energy_before);
    }

    #[test]
    fn failed_backend_triggers_unpark_backfill() {
        let (mut lb, mut co) = fleet(4);
        // 20 req / 10 ms = 2000 rps → target 2, then 10 more → EMA 1500,
        // still target 2: the second low epoch parks the two idle
        // spares. All 30 requests stay on backend 0, under the spill.
        open_requests(&mut lb, 0, 20);
        assert!(co.epoch(SimTime::from_ms(10), &mut lb).is_empty());
        open_requests(&mut lb, 20, 10);
        for a in co.epoch(SimTime::from_ms(20), &mut lb) {
            if let FleetAction::ParkDone { backend, gen, at } = a {
                co.park_done(at, &mut lb, backend, gen);
            }
        }
        assert_eq!(lb.committed(), 2, "steady state: backends 0-1 serve");
        assert_eq!(lb.parked_count(), 2);
        // Backend 1 crashes: committed drops to 1, below the target of 2,
        // so the next epoch unparks a healthy spare to backfill.
        lb.mark_failed(SimTime::from_ms(21), 1);
        assert_eq!(lb.committed(), 1, "failed backends are not committed");
        open_requests(&mut lb, 300, 20);
        let actions = co.epoch(SimTime::from_ms(30), &mut lb);
        assert_eq!(actions.len(), 1);
        let FleetAction::UnparkDone { backend, gen, .. } = actions[0] else {
            panic!("expected a backfill unpark, got {:?}", actions[0]);
        };
        assert_eq!(backend, 2, "lowest healthy parked index backfills");
        assert!(co.unpark_done(&mut lb, backend, gen));
        assert_eq!(lb.committed(), 2, "capacity restored without backend 1");
        assert_eq!(lb.state(1), BackendState::Failed);
    }

    #[test]
    fn target_tracks_the_ema_not_one_epoch() {
        let (mut lb, mut co) = fleet(8);
        open_requests(&mut lb, 0, 60); // 6000 rps this epoch
        let _ = co.epoch(SimTime::from_ms(10), &mut lb);
        assert_eq!(co.target_active(8), 6);
        // A single silent epoch halves the estimate, not zeroes it.
        let _ = co.epoch(SimTime::from_ms(20), &mut lb);
        assert_eq!(co.target_active(8), 3);
    }
}
