//! Wall-clock self-profiling for the simulation driver.
//!
//! The profiler attributes *host* time — where the simulator itself
//! spends its wall clock — to event classes supplied by
//! [`EventHandler::classify`](crate::EventHandler::classify), plus the
//! event queue's pop path. It exists to answer questions like "which
//! layer pays for a slower run" that simulated-time instrumentation
//! cannot see.
//!
//! It is explicitly **outside** the determinism contract: readings vary
//! run to run with host load, and enabling it never changes any
//! simulated result (it only reads `std::time::Instant` around the
//! dispatch loop, twice per event). Handler time includes the cost of
//! events the handler pushes while reacting (the queue's insert path);
//! everything between one handler's end and the next one's start — the
//! pop and the driver loop's own work — is accounted separately in
//! [`Profile::queue_ns`]. A change to the queue therefore shows its
//! pop-side cost in `queue_ns` and its push-side cost in handler time.

use std::collections::HashMap;
use std::time::Instant;

/// Number of power-of-two elapsed-time buckets per class.
pub const PROFILE_BUCKETS: usize = 24;

/// Wall-clock statistics for one event class.
#[derive(Debug, Clone)]
pub struct ClassStats {
    /// Class label (from `EventHandler::classify`).
    pub name: &'static str,
    /// Events dispatched.
    pub count: u64,
    /// Total wall time spent in the handler for this class (ns).
    pub elapsed_ns: u64,
    /// Slowest single dispatch (ns).
    pub max_ns: u64,
    /// Power-of-two elapsed-time histogram: bucket `k` counts dispatches
    /// with `elapsed < 2^k` ns (the last bucket absorbs the rest).
    pub buckets: [u64; PROFILE_BUCKETS],
}

impl ClassStats {
    fn new(name: &'static str) -> Self {
        ClassStats {
            name,
            count: 0,
            elapsed_ns: 0,
            max_ns: 0,
            buckets: [0; PROFILE_BUCKETS],
        }
    }

    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.elapsed_ns += ns;
        self.max_ns = self.max_ns.max(ns);
        let bucket = (64 - u64::leading_zeros(ns | 1) as usize).min(PROFILE_BUCKETS - 1);
        self.buckets[bucket] += 1;
    }

    /// Mean wall time per dispatch (ns).
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.elapsed_ns as f64 / self.count as f64
        }
    }
}

/// The profiler attached to a running [`Simulation`](crate::Simulation).
#[derive(Debug, Default)]
pub(crate) struct Profiler {
    classes: Vec<ClassStats>,
    index: HashMap<&'static str, usize>,
    pub(crate) queue_ns: u64,
    events: u64,
    started: Option<Instant>,
}

impl Profiler {
    pub(crate) fn new() -> Self {
        Profiler {
            started: Some(Instant::now()),
            ..Profiler::default()
        }
    }

    pub(crate) fn record(&mut self, class: &'static str, ns: u64) {
        self.events += 1;
        let i = *self.index.entry(class).or_insert_with(|| {
            self.classes.push(ClassStats::new(class));
            self.classes.len() - 1
        });
        self.classes[i].record(ns);
    }

    pub(crate) fn snapshot(&self, peak_pending: usize) -> Profile {
        let mut classes = self.classes.clone();
        classes.sort_by_key(|c| std::cmp::Reverse(c.elapsed_ns));
        Profile {
            handler_ns: classes.iter().map(|c| c.elapsed_ns).sum(),
            queue_ns: self.queue_ns,
            events: self.events,
            peak_pending,
            wall_ns: self.started.map_or(0, |t| {
                t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
            }),
            classes,
        }
    }
}

/// A finished self-profile: per-class handler time plus the queue's
/// pop-path time, sorted by total elapsed descending.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Per-class statistics, heaviest first.
    pub classes: Vec<ClassStats>,
    /// Total wall time inside event handlers (ns).
    pub handler_ns: u64,
    /// Total wall time between handlers (ns): the queue's pop path and
    /// the driver loop's own work. Push time is part of the scheduling
    /// handler's time.
    pub queue_ns: u64,
    /// Events dispatched while profiling.
    pub events: u64,
    /// High-water mark of the pending-event population over the run
    /// ([`Simulation::peak_pending`](crate::Simulation::peak_pending)).
    pub peak_pending: usize,
    /// Wall time since the profiler was enabled (ns).
    pub wall_ns: u64,
}

impl Profile {
    /// Events per wall-clock second over the profiled span.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.events as f64 * 1e9 / self.wall_ns as f64
        }
    }

    /// Renders a fixed-width table of the profile (heaviest class first).
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>12} {:>12} {:>10} {:>10}",
            "class", "count", "elapsed_ms", "mean_ns", "max_ns"
        );
        for c in &self.classes {
            let _ = writeln!(
                out,
                "{:<24} {:>12} {:>12.3} {:>10.1} {:>10}",
                c.name,
                c.count,
                c.elapsed_ns as f64 / 1e6,
                c.mean_ns(),
                c.max_ns
            );
        }
        let _ = writeln!(
            out,
            "{:<24} {:>12} {:>12.3}",
            "queue(pop/peek)",
            "-",
            self.queue_ns as f64 / 1e6
        );
        let _ = writeln!(
            out,
            "total: {} events, peak {} pending, handler {:.3} ms, queue {:.3} ms, \
             wall {:.3} ms ({:.0} ev/s)",
            self.events,
            self.peak_pending,
            self.handler_ns as f64 / 1e6,
            self.queue_ns as f64 / 1e6,
            self.wall_ns as f64 / 1e6,
            self.events_per_sec()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_per_class() {
        let mut p = Profiler::new();
        p.record("a", 100);
        p.record("a", 300);
        p.record("b", 50);
        let s = p.snapshot(0);
        assert_eq!(s.events, 3);
        assert_eq!(s.handler_ns, 450);
        assert_eq!(s.classes[0].name, "a"); // heaviest first
        assert_eq!(s.classes[0].count, 2);
        assert_eq!(s.classes[0].max_ns, 300);
        assert!((s.classes[0].mean_ns() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn buckets_are_log_spaced() {
        let mut c = ClassStats::new("x");
        c.record(0); // bucket 0 (ns|1 == 1)
        c.record(1); // bucket 1? 64-lz(1)=1
        c.record(1024); // 64-lz(1024)=11
        assert_eq!(c.buckets.iter().sum::<u64>(), 3);
        assert_eq!(c.buckets[11], 1);
    }

    #[test]
    fn render_mentions_classes_and_totals() {
        let mut p = Profiler::new();
        p.record("deliver", 1000);
        p.queue_ns = 500;
        let text = p.snapshot(42).render();
        assert!(text.contains("deliver"));
        assert!(text.contains("peak 42 pending"));
        assert!(text.contains("queue(pop/peek)"));
        assert!(text.contains("total: 1 events"));
    }
}
