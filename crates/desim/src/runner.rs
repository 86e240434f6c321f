//! The simulation driver loop.
//!
//! A [`Simulation`] owns an [`EventQueue`] and a user-supplied
//! [`EventHandler`]; it repeatedly pops the earliest event, advances the
//! clock, and lets the handler react (usually by scheduling further events).

use crate::profiler::{Profile, Profiler};
use crate::queue::EventQueue;
use crate::time::SimTime;
use std::time::Instant;

/// The reaction logic of a simulation: consumes events, schedules new ones.
///
/// Implementors are the "world" being simulated. The handler receives the
/// queue so it can schedule follow-up events; it must only schedule at
/// `now` or later (enforced by a debug assertion in the driver).
pub trait EventHandler {
    /// The event alphabet of this world.
    type Event;

    /// Reacts to `event` occurring at instant `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);

    /// Coarse label for `event`, used only by the opt-in wall-clock
    /// self-profiler to group dispatch costs (e.g. by enum variant).
    /// Simulated results never depend on this; the default lumps
    /// everything into one class.
    fn classify(&self, _event: &Self::Event) -> &'static str {
        "event"
    }
}

/// Why a [`Simulation::run_until`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained before the horizon was reached.
    QueueExhausted,
    /// The time horizon was reached with events still pending.
    HorizonReached,
    /// The event budget was exhausted (runaway protection).
    EventBudgetExhausted,
}

/// A discrete-event simulation: clock + queue + handler.
///
/// # Example
///
/// ```
/// use desim::{EventHandler, EventQueue, Simulation, SimTime, SimDuration};
///
/// struct Counter { fired: u32 }
/// impl EventHandler for Counter {
///     type Event = ();
///     fn handle(&mut self, now: SimTime, _e: (), q: &mut EventQueue<()>) {
///         self.fired += 1;
///         if self.fired < 3 {
///             q.push(now + SimDuration::from_us(10), ());
///         }
///     }
/// }
///
/// let mut sim = Simulation::new(Counter { fired: 0 });
/// sim.queue_mut().push(SimTime::ZERO, ());
/// sim.run_until(SimTime::from_ms(1));
/// assert_eq!(sim.handler().fired, 3);
/// assert_eq!(sim.now(), SimTime::from_us(20));
/// ```
pub struct Simulation<H: EventHandler> {
    queue: EventQueue<H::Event>,
    handler: H,
    now: SimTime,
    processed: u64,
    event_budget: u64,
    peak_pending: usize,
    /// Opt-in wall-clock self-profiler (outside the determinism contract).
    profiler: Option<Profiler>,
}

impl<H: EventHandler> Simulation<H> {
    /// Default cap on events per run, guarding against schedule loops.
    pub const DEFAULT_EVENT_BUDGET: u64 = 10_000_000_000;

    /// Creates a simulation at time zero with an empty queue.
    pub fn new(handler: H) -> Self {
        Simulation {
            queue: EventQueue::new(),
            handler,
            now: SimTime::ZERO,
            processed: 0,
            event_budget: Self::DEFAULT_EVENT_BUDGET,
            peak_pending: 0,
            profiler: None,
        }
    }

    /// Turns on the wall-clock self-profiler. Profiling attributes *host*
    /// time to event classes (see [`EventHandler::classify`]) and the
    /// queue's pop path; it reads only `std::time::Instant` and never
    /// changes a simulated result. Readings are host-dependent and
    /// explicitly outside the determinism contract.
    pub fn enable_profiling(&mut self) {
        if self.profiler.is_none() {
            self.profiler = Some(Profiler::new());
        }
    }

    /// A snapshot of the self-profile, if profiling is enabled.
    #[must_use]
    pub fn profile(&self) -> Option<Profile> {
        self.profiler
            .as_ref()
            .map(|p| p.snapshot(self.peak_pending))
    }

    /// Replaces the runaway-protection event budget.
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = budget;
    }

    /// Current simulated instant (time of the last delivered event).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// High-water mark of the pending-event population, sampled at every
    /// pop in [`run_until`](Self::run_until) (counting the popped event),
    /// so the exact peak at dispatch. Sizes the queue's working set; also
    /// reported as [`Profile::peak_pending`].
    #[must_use]
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Shared access to the world.
    #[must_use]
    pub fn handler(&self) -> &H {
        &self.handler
    }

    /// Exclusive access to the world (e.g. to extract results).
    pub fn handler_mut(&mut self) -> &mut H {
        &mut self.handler
    }

    /// Consumes the simulation, returning the world.
    #[must_use]
    pub fn into_handler(self) -> H {
        self.handler
    }

    /// Exclusive access to the queue, e.g. to seed initial events.
    pub fn queue_mut(&mut self) -> &mut EventQueue<H::Event> {
        &mut self.queue
    }

    /// Shared access to the queue.
    #[must_use]
    pub fn queue(&self) -> &EventQueue<H::Event> {
        &self.queue
    }

    /// Runs until the queue drains, the budget is spent, or the next event
    /// would occur strictly after `horizon`. Events **at** the horizon are
    /// delivered. The clock never exceeds the horizon.
    ///
    /// Dispatch pops one event at a time straight from the queue into its
    /// handler, so delivery is strictly by `(time, seq)`: an event a
    /// handler schedules at the current instant runs after every peer
    /// already scheduled there. Each turn is one
    /// [`EventQueue::pop_until`], which checks the horizon and pops in
    /// one scan.
    ///
    /// With the profiler on, each turn reads the clock twice: the stamp
    /// that ends one handler starts the next turn, so the pop and the
    /// loop's own work between handlers count as queue time.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        let mut mark = self.profiler.as_ref().map(|_| Instant::now());
        loop {
            if self.processed >= self.event_budget {
                return RunOutcome::EventBudgetExhausted;
            }
            let Some((time, event)) = self.queue.pop_until(horizon) else {
                if let (Some(p), Some(t0)) = (self.profiler.as_mut(), mark) {
                    p.queue_ns += t0.elapsed().as_nanos() as u64;
                }
                if self.queue.is_empty() {
                    return RunOutcome::QueueExhausted;
                }
                self.now = horizon;
                return RunOutcome::HorizonReached;
            };
            // The population just before this pop, as a peek would see it.
            self.peak_pending = self.peak_pending.max(self.queue.len() + 1);
            self.deliver(time, event, &mut mark);
        }
    }

    /// Runs until the queue is empty (or budget spent).
    pub fn run_to_completion(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }

    /// Delivers exactly one event, if any is pending. Returns its time.
    pub fn step(&mut self) -> Option<SimTime> {
        let (time, event) = self.queue.pop()?;
        self.deliver(time, event, &mut None);
        Some(time)
    }

    /// Advances the clock to `time` and hands `event` to the handler,
    /// timing the dispatch when the profiler is on. `mark` is the stamp
    /// that ended the previous profiled handler (`None` when there is
    /// none): the time since it is charged to the queue, and it becomes
    /// this handler's end.
    #[inline]
    fn deliver(&mut self, time: SimTime, event: H::Event, mark: &mut Option<Instant>) {
        debug_assert!(time >= self.now, "event scheduled in the past");
        self.now = time;
        self.processed += 1;
        if self.profiler.is_some() {
            let class = self.handler.classify(&event);
            let start = Instant::now();
            self.handler.handle(time, event, &mut self.queue);
            let end = Instant::now();
            if let Some(p) = self.profiler.as_mut() {
                p.queue_ns += mark.map_or(0, |m| (start - m).as_nanos() as u64);
                p.record(class, (end - start).as_nanos() as u64);
            }
            *mark = Some(end);
        } else {
            self.handler.handle(time, event, &mut self.queue);
        }
        Self::trace_dispatch(time);
    }

    /// Records one event dispatch on the installed tracer (no-op when
    /// tracing is disabled). The handler runs in zero simulated time, so
    /// the dispatch is a zero-duration complete-span at `time`.
    #[inline]
    fn trace_dispatch(time: SimTime) {
        if simtrace::is_enabled() {
            let t = time.as_nanos();
            simtrace::complete("desim", "dispatch", t, 0, &[]);
            simtrace::metric_add("desim", "events_dispatched", t, 1.0);
        }
    }
}

impl<H: EventHandler + std::fmt::Debug> std::fmt::Debug for Simulation<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("processed", &self.processed)
            .field("pending", &self.queue.len())
            .field("handler", &self.handler)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[derive(Debug)]
    struct Ticker {
        period: SimDuration,
        ticks: Vec<SimTime>,
        limit: usize,
    }

    impl EventHandler for Ticker {
        type Event = ();
        fn handle(&mut self, now: SimTime, _e: (), q: &mut EventQueue<()>) {
            self.ticks.push(now);
            if self.ticks.len() < self.limit {
                q.push(now + self.period, ());
            }
        }
    }

    fn ticker(limit: usize) -> Simulation<Ticker> {
        let mut sim = Simulation::new(Ticker {
            period: SimDuration::from_us(100),
            ticks: Vec::new(),
            limit,
        });
        sim.queue_mut().push(SimTime::ZERO, ());
        sim
    }

    #[test]
    fn runs_to_completion() {
        let mut sim = ticker(5);
        assert_eq!(sim.run_to_completion(), RunOutcome::QueueExhausted);
        assert_eq!(sim.handler().ticks.len(), 5);
        assert_eq!(sim.now(), SimTime::from_us(400));
        assert_eq!(sim.events_processed(), 5);
    }

    #[test]
    fn horizon_is_inclusive_and_clamps_clock() {
        let mut sim = ticker(100);
        let outcome = sim.run_until(SimTime::from_us(250));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        // Ticks at 0, 100, 200 delivered; 300 withheld.
        assert_eq!(sim.handler().ticks.len(), 3);
        assert_eq!(sim.now(), SimTime::from_us(250));
        // Continuing picks up where we left off.
        sim.run_until(SimTime::from_us(300));
        assert_eq!(sim.handler().ticks.len(), 4);
    }

    #[test]
    fn event_budget_stops_runaway() {
        let mut sim = ticker(usize::MAX);
        sim.set_event_budget(10);
        assert_eq!(sim.run_to_completion(), RunOutcome::EventBudgetExhausted);
        assert_eq!(sim.events_processed(), 10);
    }

    #[test]
    fn step_delivers_single_event() {
        let mut sim = ticker(3);
        assert_eq!(sim.step(), Some(SimTime::ZERO));
        assert_eq!(sim.step(), Some(SimTime::from_us(100)));
        assert_eq!(sim.handler().ticks.len(), 2);
    }

    /// A handler that, for each seed event, schedules a follow-up at the
    /// *same* instant. Every follow-up must run after all originally
    /// scheduled peers (FIFO by sequence number).
    #[derive(Debug, Default)]
    struct SameInstant {
        order: Vec<u32>,
    }

    impl EventHandler for SameInstant {
        type Event = u32;
        fn handle(&mut self, now: SimTime, e: u32, q: &mut EventQueue<u32>) {
            self.order.push(e);
            if e < 1_000 {
                q.push(now, e + 1_000);
            }
        }
    }

    #[test]
    fn same_instant_follow_ups_run_after_their_peers() {
        let mut sim = Simulation::new(SameInstant::default());
        for i in 0..300 {
            sim.queue_mut().push(SimTime::from_us(7), i);
        }
        assert_eq!(sim.run_to_completion(), RunOutcome::QueueExhausted);
        let want: Vec<u32> = (0..300).chain(1_000..1_300).collect();
        assert_eq!(sim.handler().order, want);
        assert_eq!(sim.now(), SimTime::from_us(7));
        assert_eq!(sim.events_processed(), 600);
    }

    #[test]
    fn profiling_is_observer_free_and_attributes_events() {
        let run = |profile: bool| {
            let mut sim = ticker(50);
            if profile {
                sim.enable_profiling();
            }
            sim.run_until(SimTime::from_ms(3));
            let p = sim.profile();
            (
                sim.now(),
                sim.events_processed(),
                sim.into_handler().ticks,
                p,
            )
        };
        let (now_on, n_on, ticks_on, profile) = run(true);
        let (now_off, n_off, ticks_off, no_profile) = run(false);
        assert_eq!((now_on, n_on, &ticks_on), (now_off, n_off, &ticks_off));
        assert!(no_profile.is_none());
        let profile = profile.expect("profiling enabled");
        assert_eq!(profile.events, n_on);
        assert_eq!(profile.classes.len(), 1); // default classify
        assert_eq!(profile.classes[0].count, n_on);
        assert!(profile.wall_ns > 0);
        // The ticker keeps exactly one event pending.
        assert_eq!(profile.peak_pending, 1);
    }

    #[test]
    fn horizon_leaves_the_late_event_pending() {
        let mut sim = ticker(100);
        assert_eq!(
            sim.run_until(SimTime::from_us(150)),
            RunOutcome::HorizonReached
        );
        assert_eq!(sim.now(), SimTime::from_us(150));
        assert_eq!(sim.events_processed(), 2);
        // The tick at 200 us was looked at but not consumed.
        assert_eq!(sim.queue().len(), 1);
        assert_eq!(sim.queue().peek_time(), Some(SimTime::from_us(200)));
        assert_eq!(sim.queue().total_popped(), 2);
        // A horizon exactly at the pending event delivers it.
        assert_eq!(
            sim.run_until(SimTime::from_us(200)),
            RunOutcome::HorizonReached
        );
        assert_eq!(sim.handler().ticks.last(), Some(&SimTime::from_us(200)));
        assert_eq!(sim.queue().peek_time(), Some(SimTime::from_us(300)));
    }

    #[test]
    fn empty_queue_is_exhausted_at_once() {
        let mut sim = ticker(1);
        let _ = sim.queue_mut().pop();
        assert_eq!(
            sim.run_until(SimTime::from_ms(1)),
            RunOutcome::QueueExhausted
        );
        assert_eq!(sim.events_processed(), 0);
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(sim.peak_pending(), 0);
    }

    #[test]
    fn event_budget_stops_before_the_horizon() {
        let mut sim = ticker(usize::MAX);
        sim.set_event_budget(4);
        let outcome = sim.run_until(SimTime::from_ms(1));
        assert_eq!(outcome, RunOutcome::EventBudgetExhausted);
        assert_eq!(sim.events_processed(), 4);
        assert_eq!(sim.now(), SimTime::from_us(300));
        // The next tick stays pending for a later run with more budget.
        assert_eq!(sim.queue().peek_time(), Some(SimTime::from_us(400)));
    }

    /// Each event `e` schedules `e % 4` follow-ups at scripted delays, so
    /// the pending population rises and falls over the run.
    #[derive(Debug, Default)]
    struct Script {
        handled: u64,
    }

    impl EventHandler for Script {
        type Event = u64;
        fn handle(&mut self, now: SimTime, e: u64, q: &mut EventQueue<u64>) {
            self.handled += 1;
            if self.handled < 400 {
                for k in 0..e % 4 {
                    let delay = SimDuration::from_nanos((e * 7_919 + k * 131) % 200_000);
                    q.push(now + delay, e * 3 + k + 1);
                }
            }
        }
    }

    /// `peak_pending` is sampled as each event pops; it must read what the
    /// former driver loop read by sampling `len()` after a peek and before
    /// every pop.
    #[test]
    fn peak_pending_matches_peek_then_pop_sampling() {
        let seeds = [
            (SimTime::ZERO, 3),
            (SimTime::from_us(5), 7),
            (SimTime::from_us(5), 2),
        ];
        // The former loop, on the public queue API: the peak and the
        // delivery times up to `horizon`.
        let peek_then_pop = |horizon: SimTime| {
            let (mut world, mut q, mut peak) = (Script::default(), EventQueue::new(), 0);
            for (t, e) in seeds {
                q.push(t, e);
            }
            let mut times = Vec::new();
            while q.peek_time().is_some_and(|t| t <= horizon) {
                peak = peak.max(q.len());
                let (t, e) = q.pop().expect("peeked");
                times.push(t);
                world.handle(t, e, &mut q);
            }
            (peak, times)
        };
        // Stop mid-run, with events still pending.
        let (_, all) = peek_then_pop(SimTime::MAX);
        let horizon = all[all.len() / 2];
        let (peak, times) = peek_then_pop(horizon);

        let mut sim = Simulation::new(Script::default());
        for (t, e) in seeds {
            sim.queue_mut().push(t, e);
        }
        sim.enable_profiling();
        assert_eq!(sim.run_until(horizon), RunOutcome::HorizonReached);
        assert_eq!(sim.events_processed(), times.len() as u64);
        assert!(
            peak > 10,
            "the script should build a population, got {peak}"
        );
        assert_eq!(sim.peak_pending(), peak);
        assert_eq!(sim.profile().map(|p| p.peak_pending), Some(peak));
    }

    #[test]
    fn into_handler_returns_world() {
        let mut sim = ticker(2);
        sim.run_to_completion();
        let world = sim.into_handler();
        assert_eq!(world.ticks.len(), 2);
    }
}
