//! The core state machine: execution, DVFS, sleep and energy in one place.
//!
//! A [`Core`] is a passive component the OS layer drives:
//!
//! * work is dispatched as jobs measured in **cycles** and executes at the
//!   momentary frequency, so a P-state change mid-job stretches or
//!   shrinks its completion time;
//! * P-state changes follow the Figure 1 sequencing from
//!   [`transition`](crate::transition): voltage ramp (still executing),
//!   then a PLL-relock halt window in which no progress is made;
//! * sleep entries/exits carry the per-C-state exit latencies;
//! * every nanosecond is billed to an [`EnergyMeter`] mode.
//!
//! The core maintains `last_sync`, a watermark up to which time has been
//! billed; every public operation first synchronizes to `now`. This keeps
//! the model exact under arbitrary interleavings of governor and
//! scheduler actions without a global notion of time inside the crate.

use crate::cstate::CState;
use crate::energy::{EnergyMeter, PowerMode};
use crate::power::PowerTable;
use crate::pstate::{PStateId, PStateTable};
use crate::transition::{transition_plan, TransitionPlan};
use core::fmt;
use desim::{SimDuration, SimTime};

/// Identifies a core within a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(pub u8);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Why a core operation was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreError {
    /// The core is asleep or waking; wake it first.
    Sleeping,
    /// The core already has a job in flight.
    Busy,
    /// A P-state transition is already in progress.
    InTransition,
    /// The operation needs a job but none is assigned.
    NoJob,
    /// The core must be idle (no job) for this operation.
    NotIdle,
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            CoreError::Sleeping => "core is in a sleep state",
            CoreError::Busy => "core already has a job in flight",
            CoreError::InTransition => "a P-state transition is in progress",
            CoreError::NoJob => "no job is assigned to the core",
            CoreError::NotIdle => "core must be idle for this operation",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for CoreError {}

/// Coarse classification of a core's current state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreStateKind {
    /// Awake; may or may not have a job.
    Active,
    /// In a sleep state.
    Asleep(CState),
    /// Transitioning out of sleep; active at the recorded instant.
    Waking(CState),
}

#[derive(Debug, Clone, Copy)]
enum State {
    Active,
    Asleep { c: CState },
    Waking { c: CState, ready: SimTime },
}

/// Duration of `secs` seconds rounded *up* to whole nanoseconds, so a
/// completion event scheduled at `now + dur_ceil(...)` never fires before
/// the final cycle has been billed.
fn dur_ceil(secs: f64) -> SimDuration {
    SimDuration::from_nanos((secs * 1e9).ceil().max(0.0) as u64)
}

#[derive(Debug, Clone, Copy)]
struct Job {
    remaining_cycles: f64,
}

/// A simulated processor core. See the module docs for the model.
#[derive(Debug, Clone)]
pub struct Core {
    id: CoreId,
    table: PStateTable,
    power: PowerTable,
    pstate: PStateId,
    state: State,
    pending: Option<Pending>,
    job: Option<Job>,
    last_sync: SimTime,
    busy: SimDuration,
    energy: EnergyMeter,
    sleep_entries: [u32; 4],
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    target: PStateId,
    halt_start: SimTime,
    effective_at: SimTime,
}

impl Core {
    /// Creates an awake, idle core at `initial` P-state that bills its
    /// time from `power`, a [`PowerTable`] of `table`'s P-states, which
    /// the cores of one chip share.
    #[must_use]
    pub fn new(id: CoreId, table: PStateTable, power: PowerTable, initial: PStateId) -> Self {
        assert!(
            (initial.0 as usize) < table.len(),
            "initial P-state out of range"
        );
        Core {
            id,
            table,
            power,
            pstate: initial,
            state: State::Active,
            pending: None,
            job: None,
            last_sync: SimTime::ZERO,
            busy: SimDuration::ZERO,
            energy: EnergyMeter::new(),
            sleep_entries: [0; 4],
        }
    }

    /// The core's identifier.
    #[must_use]
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// The P-state table this core runs on.
    #[must_use]
    pub fn table(&self) -> &PStateTable {
        &self.table
    }

    /// Current committed P-state (a pending transition has not applied yet).
    #[must_use]
    pub fn pstate(&self) -> PStateId {
        self.pstate
    }

    /// The P-state the core is heading to: the pending target if a
    /// transition is in flight, otherwise the current state. Governors use
    /// this to decide whether a change is needed ("F already at max").
    #[must_use]
    pub fn goal_pstate(&self) -> PStateId {
        self.pending.map_or(self.pstate, |p| p.target)
    }

    /// Current clock frequency in hertz (the committed P-state's).
    #[must_use]
    pub fn freq_hz(&self) -> u64 {
        self.table.freq_hz(self.pstate)
    }

    /// Coarse state classification.
    #[must_use]
    pub fn state_kind(&self) -> CoreStateKind {
        match self.state {
            State::Active => CoreStateKind::Active,
            State::Asleep { c } => CoreStateKind::Asleep(c),
            State::Waking { c, .. } => CoreStateKind::Waking(c),
        }
    }

    /// `true` when awake with no job and no one dispatched work yet.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        matches!(self.state, State::Active) && self.job.is_none()
    }

    /// `true` when a job is currently assigned.
    #[must_use]
    pub fn has_job(&self) -> bool {
        self.job.is_some()
    }

    /// Cumulative time spent with a job assigned (the scheduler's notion
    /// of busy time, which utilization-driven governors sample).
    #[must_use]
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// The energy meter (per-mode joules and residency).
    #[must_use]
    pub fn energy(&self) -> &EnergyMeter {
        &self.energy
    }

    /// Times this core entered sleep state `c`.
    #[must_use]
    pub fn sleep_entries(&self, c: CState) -> u32 {
        self.sleep_entries[c.index()]
    }

    /// Bills time up to `now`. Idempotent; called by every operation.
    pub fn sync(&mut self, now: SimTime) {
        while self.last_sync < now {
            // Apply boundaries that have been reached.
            if let Some(p) = self.pending {
                if self.last_sync >= p.effective_at {
                    self.pstate = p.target;
                    self.pending = None;
                    continue;
                }
            }
            if let State::Waking { ready, .. } = self.state {
                if self.last_sync >= ready {
                    self.state = State::Active;
                    continue;
                }
            }
            // Find the end of the homogeneous segment starting at last_sync.
            let mut seg_end = now;
            if let Some(p) = self.pending {
                for b in [p.halt_start, p.effective_at] {
                    if b > self.last_sync && b < seg_end {
                        seg_end = b;
                    }
                }
            }
            if let State::Waking { ready, .. } = self.state {
                if ready > self.last_sync && ready < seg_end {
                    seg_end = ready;
                }
            }
            let dt = seg_end - self.last_sync;
            self.bill_segment(dt);
            self.last_sync = seg_end;
        }
        // Apply boundaries landing exactly at `now`.
        if let Some(p) = self.pending {
            if self.last_sync >= p.effective_at {
                self.pstate = p.target;
                self.pending = None;
            }
        }
        if let State::Waking { ready, .. } = self.state {
            if self.last_sync >= ready {
                self.state = State::Active;
            }
        }
    }

    fn in_halt(&self) -> bool {
        self.pending
            .is_some_and(|p| self.last_sync >= p.halt_start && self.last_sync < p.effective_at)
    }

    fn bill_segment(&mut self, dt: SimDuration) {
        if dt.is_zero() {
            return;
        }
        match self.state {
            State::Asleep { c } => {
                let mode = match c {
                    CState::C0 => PowerMode::IdleC0,
                    CState::C1 => PowerMode::SleepC1,
                    CState::C3 => PowerMode::SleepC3,
                    CState::C6 => PowerMode::SleepC6,
                };
                let w = self.power.sleep(self.pstate, c);
                self.energy.accumulate(mode, w, dt);
            }
            State::Waking { .. } => {
                let w = self.power.wake(self.pstate);
                self.energy.accumulate(PowerMode::Wake, w, dt);
            }
            State::Active => {
                if self.job.is_some() {
                    self.busy += dt;
                }
                if self.in_halt() {
                    let w = self.power.halt(self.pstate);
                    self.energy.accumulate(PowerMode::Halt, w, dt);
                } else if let Some(job) = self.job.as_mut() {
                    let freq = self.table.freq_hz(self.pstate) as f64;
                    job.remaining_cycles =
                        (job.remaining_cycles - dt.as_secs_f64() * freq).max(0.0);
                    let w = self.power.busy(self.pstate);
                    self.energy.accumulate(PowerMode::Busy, w, dt);
                } else {
                    let w = self.power.c0_idle(self.pstate);
                    self.energy.accumulate(PowerMode::IdleC0, w, dt);
                }
            }
        }
    }

    /// Requests a P-state change at `now`, returning the transition plan.
    ///
    /// A same-state request is a free no-op plan.
    ///
    /// # Errors
    ///
    /// [`CoreError::Sleeping`] if the core is not awake;
    /// [`CoreError::InTransition`] if a change is already in flight.
    pub fn set_pstate(
        &mut self,
        now: SimTime,
        target: PStateId,
    ) -> Result<TransitionPlan, CoreError> {
        self.sync(now);
        if !matches!(self.state, State::Active) {
            return Err(CoreError::Sleeping);
        }
        if self.pending.is_some() {
            return Err(CoreError::InTransition);
        }
        let plan = transition_plan(&self.table, self.pstate, target, now);
        if target != self.pstate {
            self.pending = Some(Pending {
                target,
                halt_start: plan.halt_start,
                effective_at: plan.effective_at,
            });
            if simtrace::is_enabled() {
                let t = now.as_nanos();
                simtrace::instant_args(
                    "cpu",
                    "pstate_transition",
                    t,
                    &[
                        simtrace::arg("core", self.id.0),
                        simtrace::arg("from", self.pstate.0),
                        simtrace::arg("to", target.0),
                        simtrace::arg("effective_ns", plan.effective_at.as_nanos()),
                    ],
                );
                simtrace::metric_add("cpu", "pstate_transitions", t, 1.0);
            }
        }
        Ok(plan)
    }

    /// Dispatches a job of `cycles` cycles, returning its completion time
    /// under the current frequency plan.
    ///
    /// # Errors
    ///
    /// [`CoreError::Sleeping`] if not awake; [`CoreError::Busy`] if a job
    /// is already in flight.
    pub fn begin_job(&mut self, now: SimTime, cycles: f64) -> Result<SimTime, CoreError> {
        self.sync(now);
        if !matches!(self.state, State::Active) {
            return Err(CoreError::Sleeping);
        }
        if self.job.is_some() {
            return Err(CoreError::Busy);
        }
        debug_assert!(cycles >= 0.0, "negative work");
        self.job = Some(Job {
            remaining_cycles: cycles,
        });
        Ok(self.job_eta(now).expect("job was just assigned"))
    }

    /// Completion time of the in-flight job under the current frequency
    /// plan, or `None` when idle. The OS re-queries this after every
    /// P-state change and reschedules its completion event.
    #[must_use]
    pub fn job_eta(&self, now: SimTime) -> Option<SimTime> {
        debug_assert!(now >= self.last_sync, "query before sync watermark");
        let job = self.job.as_ref()?;
        let mut remaining = job.remaining_cycles;
        if remaining <= 0.0 {
            return Some(now);
        }
        let mut t = now;
        let mut freq = self.table.freq_hz(self.pstate) as f64;
        if let Some(p) = self.pending {
            if t < p.halt_start {
                let capacity = (p.halt_start - t).as_secs_f64() * freq;
                if remaining <= capacity {
                    return Some(t + dur_ceil(remaining / freq));
                }
                remaining -= capacity;
            }
            t = t.max(p.effective_at);
            freq = self.table.freq_hz(p.target) as f64;
        }
        Some(t + dur_ceil(remaining / freq))
    }

    /// Marks the in-flight job complete. Call at the instant returned by
    /// [`job_eta`](Self::job_eta).
    ///
    /// # Errors
    ///
    /// [`CoreError::NoJob`] if no job is assigned.
    ///
    /// # Panics
    ///
    /// Debug-asserts the job has in fact exhausted its cycles (within one
    /// cycle of float tolerance) — catching schedulers that forgot to
    /// reschedule after a frequency change.
    pub fn complete_job(&mut self, now: SimTime) -> Result<(), CoreError> {
        self.sync(now);
        let job = self.job.take().ok_or(CoreError::NoJob)?;
        debug_assert!(
            job.remaining_cycles < 1.0,
            "job completed with {} cycles left",
            job.remaining_cycles
        );
        Ok(())
    }

    /// Puts the core into sleep state `c`.
    ///
    /// # Errors
    ///
    /// [`CoreError::Sleeping`] if already asleep, [`CoreError::NotIdle`]
    /// if a job is in flight, [`CoreError::InTransition`] during a
    /// P-state change.
    pub fn enter_sleep(&mut self, now: SimTime, c: CState) -> Result<(), CoreError> {
        self.sync(now);
        if !matches!(self.state, State::Active) {
            return Err(CoreError::Sleeping);
        }
        if self.job.is_some() {
            return Err(CoreError::NotIdle);
        }
        if self.pending.is_some() {
            return Err(CoreError::InTransition);
        }
        self.state = State::Asleep { c };
        self.sleep_entries[c.index()] += 1;
        simtrace::span_begin_args(
            "cpu",
            "sleep",
            now.as_nanos(),
            u32::from(self.id.0),
            &[simtrace::arg("cstate", c.index() as u64 + 1)],
        );
        // One-off transition overhead (context save/restore, cache flush
        // and refill, voltage ramps), billed as wake-path energy.
        let overhead = self.power.transition_energy(self.pstate, c);
        self.energy.add_joules(PowerMode::Wake, overhead);
        Ok(())
    }

    /// Starts waking the core; it becomes active at the returned instant.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotIdle`] if the core is not asleep (waking an awake
    /// core is a logic error in the caller).
    pub fn begin_wake(&mut self, now: SimTime) -> Result<SimTime, CoreError> {
        self.sync(now);
        match self.state {
            State::Asleep { c } => {
                let ready = now + c.exit_latency();
                self.state = State::Waking { c, ready };
                if simtrace::is_enabled() {
                    let t = now.as_nanos();
                    let lane = u32::from(self.id.0);
                    simtrace::span_end("cpu", "sleep", t, lane);
                    simtrace::instant_args(
                        "cpu",
                        "wake",
                        t,
                        &[
                            simtrace::arg("core", self.id.0),
                            simtrace::arg("exit_latency_ns", c.exit_latency().as_nanos()),
                        ],
                    );
                    simtrace::metric_add("cpu", "wakes", t, 1.0);
                }
                Ok(ready)
            }
            State::Waking { ready, .. } => Ok(ready),
            State::Active => Err(CoreError::NotIdle),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::PowerModel;

    fn core_at(p: PStateId) -> Core {
        let table = PStateTable::i7_like();
        let power = PowerTable::new(&PowerModel::i7_like(), &table);
        Core::new(CoreId(0), table, power, p)
    }

    #[test]
    fn job_runs_at_current_frequency() {
        let mut c = core_at(PStateId(0)); // 3.1 GHz
        let eta = c.begin_job(SimTime::ZERO, 3_100_000.0).unwrap();
        assert_eq!(eta, SimTime::from_ms(1));
        c.sync(eta);
        c.complete_job(eta).unwrap();
        assert!(c.is_idle());
        assert_eq!(c.busy_time(), SimDuration::from_ms(1));
    }

    #[test]
    fn slower_pstate_stretches_job() {
        let mut c = core_at(PStateId(14)); // 0.8 GHz
        let eta = c.begin_job(SimTime::ZERO, 800_000.0).unwrap();
        assert_eq!(eta, SimTime::from_ms(1));
    }

    #[test]
    fn pstate_raise_mid_job_shortens_eta() {
        let mut c = core_at(PStateId(14)); // 0.8 GHz
                                           // 8 ms of work at 0.8 GHz.
        let slow_eta = c.begin_job(SimTime::ZERO, 6_400_000.0).unwrap();
        assert_eq!(slow_eta, SimTime::from_ms(8));
        // Raise to P0 at t=1ms: ramp 88 us (running), halt 5 us, then 3.1 GHz.
        let plan = c.set_pstate(SimTime::from_ms(1), PStateId(0)).unwrap();
        let new_eta = c.job_eta(SimTime::from_ms(1)).unwrap();
        assert!(new_eta < slow_eta, "boost must shorten completion");
        assert!(new_eta > plan.effective_at);
        // Run to completion and verify the core accepts it.
        c.sync(new_eta);
        c.complete_job(new_eta).unwrap();
    }

    #[test]
    fn halt_window_freezes_progress() {
        let mut c = core_at(PStateId(0));
        // Lowering halts immediately for 5 us.
        let plan = c.set_pstate(SimTime::ZERO, PStateId(14)).unwrap();
        assert_eq!(plan.halt_start, SimTime::ZERO);
        // A job dispatched during the halt only starts progressing after.
        let eta = c.begin_job(SimTime::ZERO, 800.0).unwrap();
        // 800 cycles at 0.8 GHz = 1 us, after the 5 us halt.
        assert_eq!(eta, SimTime::from_us(6));
    }

    #[test]
    fn transition_commits_pstate() {
        let mut c = core_at(PStateId(0));
        let plan = c.set_pstate(SimTime::ZERO, PStateId(14)).unwrap();
        assert_eq!(c.pstate(), PStateId(0));
        assert_eq!(c.goal_pstate(), PStateId(14));
        c.sync(plan.effective_at);
        assert_eq!(c.pstate(), PStateId(14));
        assert_eq!(c.goal_pstate(), PStateId(14));
    }

    #[test]
    fn overlapping_transitions_are_rejected() {
        let mut c = core_at(PStateId(14));
        c.set_pstate(SimTime::ZERO, PStateId(0)).unwrap();
        assert_eq!(
            c.set_pstate(SimTime::from_us(1), PStateId(7)),
            Err(CoreError::InTransition)
        );
    }

    #[test]
    fn sleep_wake_cycle() {
        let mut c = core_at(PStateId(0));
        c.enter_sleep(SimTime::ZERO, CState::C6).unwrap();
        assert_eq!(c.state_kind(), CoreStateKind::Asleep(CState::C6));
        assert_eq!(c.sleep_entries(CState::C6), 1);
        let ready = c.begin_wake(SimTime::from_ms(1)).unwrap();
        assert_eq!(ready, SimTime::from_ms(1) + CState::C6.exit_latency());
        assert_eq!(c.state_kind(), CoreStateKind::Waking(CState::C6));
        c.sync(ready);
        assert_eq!(c.state_kind(), CoreStateKind::Active);
    }

    #[test]
    fn sleep_requires_idle_awake_untransitioning() {
        let mut c = core_at(PStateId(0));
        c.begin_job(SimTime::ZERO, 1e9).unwrap();
        assert_eq!(
            c.enter_sleep(SimTime::ZERO, CState::C1),
            Err(CoreError::NotIdle)
        );
        let mut c = core_at(PStateId(0));
        c.set_pstate(SimTime::ZERO, PStateId(5)).unwrap();
        assert_eq!(
            c.enter_sleep(SimTime::ZERO, CState::C1),
            Err(CoreError::InTransition)
        );
        let mut c = core_at(PStateId(0));
        c.enter_sleep(SimTime::ZERO, CState::C1).unwrap();
        assert_eq!(
            c.enter_sleep(SimTime::from_us(1), CState::C3),
            Err(CoreError::Sleeping)
        );
    }

    #[test]
    fn operations_on_sleeping_core_fail() {
        let mut c = core_at(PStateId(0));
        c.enter_sleep(SimTime::ZERO, CState::C3).unwrap();
        assert_eq!(
            c.begin_job(SimTime::from_us(1), 100.0),
            Err(CoreError::Sleeping)
        );
        assert_eq!(
            c.set_pstate(SimTime::from_us(1), PStateId(1)),
            Err(CoreError::Sleeping)
        );
    }

    #[test]
    fn double_wake_returns_same_ready() {
        let mut c = core_at(PStateId(0));
        c.enter_sleep(SimTime::ZERO, CState::C3).unwrap();
        let r1 = c.begin_wake(SimTime::from_us(5)).unwrap();
        let r2 = c.begin_wake(SimTime::from_us(6)).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(
            c.begin_wake(SimTime::from_us(50)).unwrap_err(),
            CoreError::NotIdle
        );
    }

    #[test]
    fn energy_attribution_by_mode() {
        let mut c = core_at(PStateId(0));
        // 1 ms busy.
        let eta = c.begin_job(SimTime::ZERO, 3_100_000.0).unwrap();
        c.complete_job(eta).unwrap();
        // 1 ms idle.
        c.sync(SimTime::from_ms(2));
        // 1 ms asleep in C6.
        c.enter_sleep(SimTime::from_ms(2), CState::C6).unwrap();
        c.sync(SimTime::from_ms(3));
        let e = c.energy();
        assert!(e.joules(PowerMode::Busy) > 0.0);
        assert!(e.joules(PowerMode::IdleC0) > 0.0);
        assert_eq!(e.joules(PowerMode::SleepC6), 0.0);
        assert_eq!(e.time_in(PowerMode::SleepC6), SimDuration::from_ms(1));
        // Busy at P0 = 18.75 W per core for 1 ms = 18.75 mJ.
        assert!((e.joules(PowerMode::Busy) - 0.01875).abs() < 1e-9);
        // Idle < busy.
        assert!(e.joules(PowerMode::IdleC0) < e.joules(PowerMode::Busy));
    }

    #[test]
    fn c1_sleep_power_depends_on_entry_pstate() {
        let run = |p: PStateId| {
            let mut c = core_at(p);
            c.enter_sleep(SimTime::ZERO, CState::C1).unwrap();
            c.sync(SimTime::from_ms(1));
            c.energy().joules(PowerMode::SleepC1)
        };
        assert!(run(PStateId(0)) > run(PStateId(14)));
    }

    #[test]
    fn total_time_is_fully_accounted() {
        let mut c = core_at(PStateId(5));
        let eta = c.begin_job(SimTime::ZERO, 1_000_000.0).unwrap();
        c.complete_job(eta).unwrap();
        c.set_pstate(eta, PStateId(0)).unwrap();
        c.sync(SimTime::from_ms(5));
        assert_eq!(c.energy().total_time(), SimDuration::from_ms(5));
    }

    #[test]
    fn busy_counts_job_time_even_during_halt() {
        let mut c = core_at(PStateId(0));
        c.set_pstate(SimTime::ZERO, PStateId(14)).unwrap(); // 5 us halt now
        c.begin_job(SimTime::ZERO, 800.0).unwrap(); // finishes at 6 us
        c.sync(SimTime::from_us(6));
        assert_eq!(c.busy_time(), SimDuration::from_us(6));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::power::PowerModel;
    use check::{ensure, ensure_eq, gen, Check};

    /// Under arbitrary interleavings of dispatch, DVFS, sleep and wake,
    /// every nanosecond of the core's life is billed to exactly one
    /// power mode: accounted time equals elapsed time, always.
    #[test]
    fn prop_time_conservation() {
        Check::new("core_time_conservation").run(
            |rng, size| {
                gen::vec_with(rng, size, 1, 80, |r| {
                    (
                        r.next_below(5) as u8,
                        gen::u64_in(r, 1, 400),
                        r.next_below(15) as u8,
                    )
                })
            },
            |ops| {
                let table = PStateTable::i7_like();
                let power = PowerTable::new(&PowerModel::i7_like(), &table);
                let mut core = Core::new(CoreId(0), table.clone(), power, table.deepest());
                let mut now = SimTime::ZERO;
                let mut eta: Option<SimTime> = None;
                for &(op, dt_us, p) in ops {
                    now += SimDuration::from_us(dt_us);
                    // Retire a finished job exactly at its completion instant.
                    if let Some(t) = eta {
                        if now >= t {
                            core.complete_job(t).expect("job was in flight");
                            eta = None;
                        }
                    }
                    match op {
                        0 => {
                            if let Ok(t) = core.begin_job(now, 1_000.0 + f64::from(p) * 50_000.0) {
                                eta = Some(t);
                            }
                        }
                        1 => {
                            if core.set_pstate(now, PStateId(p)).is_ok() && core.has_job() {
                                eta = core.job_eta(now);
                            }
                        }
                        2 => {
                            let _ = core.enter_sleep(now, CState::C6);
                        }
                        3 => {
                            let _ = core.enter_sleep(now, CState::C1);
                        }
                        _ => {
                            let _ = core.begin_wake(now);
                        }
                    }
                }
                // Let any outstanding job finish, then close the books.
                if let Some(t) = eta {
                    core.complete_job(t.max(now)).expect("job still in flight");
                    now = now.max(t);
                }
                core.sync(now);
                ensure_eq!(
                    core.energy().total_time(),
                    now - SimTime::ZERO,
                    "accounted time must equal elapsed time"
                );
                ensure!(core.energy().total_joules() >= 0.0, "negative energy");
                Ok(())
            },
        );
    }
}
