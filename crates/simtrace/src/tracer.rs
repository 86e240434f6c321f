//! The tracer: a preallocated drop-oldest event ring plus the metrics
//! registry, and the finished [`TraceData`] it exports.

use crate::event::TraceEvent;
use crate::metrics::{Metrics, MetricsSnapshot};

/// Tracer sizing and windowing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracerConfig {
    /// Event-ring capacity; the oldest events are dropped (and counted)
    /// once the ring is full.
    pub capacity: usize,
    /// Counter-metric window in nanoseconds (1 ms matches the figure
    /// traces' `TraceConfig::per_ms`).
    pub window_ns: u64,
}

impl TracerConfig {
    /// Default ring capacity (events). Dispatch spans dominate volume; a
    /// quarter-million events cover ~100 ms of a loaded server.
    pub const DEFAULT_CAPACITY: usize = 1 << 18;
    /// Default counter window: 1 ms.
    pub const DEFAULT_WINDOW_NS: u64 = 1_000_000;

    /// Overrides the ring capacity (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        self.capacity = capacity;
        self
    }
}

impl Default for TracerConfig {
    fn default() -> Self {
        TracerConfig {
            capacity: Self::DEFAULT_CAPACITY,
            window_ns: Self::DEFAULT_WINDOW_NS,
        }
    }
}

/// An active trace collection: event ring + metrics registry + the
/// current node scope. Usually driven through the thread-local helpers in
/// the crate root; owned directly only by tests and special collectors.
#[derive(Debug)]
pub struct Tracer {
    config: TracerConfig,
    ring: Vec<TraceEvent>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
    metrics: Metrics,
    next_async_id: u64,
    node: u16,
}

impl Tracer {
    /// Creates a tracer, preallocating the event ring.
    ///
    /// # Panics
    ///
    /// Panics if the configured capacity or window is zero.
    #[must_use]
    pub fn new(config: TracerConfig) -> Self {
        assert!(config.capacity > 0, "ring capacity must be positive");
        Tracer {
            ring: Vec::with_capacity(config.capacity),
            head: 0,
            dropped: 0,
            metrics: Metrics::new(config.window_ns),
            next_async_id: 0,
            node: 0,
            config,
        }
    }

    /// Sets the node scope stamped onto subsequently recorded events.
    pub fn set_node(&mut self, node: u16) {
        self.node = node;
    }

    /// The current node scope.
    #[must_use]
    pub fn node(&self) -> u16 {
        self.node
    }

    /// Records `event`, stamping the current node scope onto it. Drops
    /// (and counts) the oldest event when the ring is full.
    pub fn record(&mut self, mut event: TraceEvent) {
        event.node = self.node;
        if self.ring.len() < self.config.capacity {
            self.ring.push(event);
        } else {
            self.ring[self.head] = event;
            self.head = (self.head + 1) % self.config.capacity;
            self.dropped += 1;
        }
    }

    /// A fresh async-span correlation id (deterministic, monotonically
    /// increasing, never zero).
    pub fn next_async_id(&mut self) -> u64 {
        self.next_async_id += 1;
        self.next_async_id
    }

    /// The metrics registry.
    pub(crate) fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Events currently held (≤ capacity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when no events are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events dropped to ring overflow.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Finishes collection: events in chronological (insertion) order,
    /// plus a final metrics snapshot.
    #[must_use]
    pub fn into_data(mut self) -> TraceData {
        let metrics = self.metrics.snapshot();
        self.ring.rotate_left(self.head);
        // Don't let a lightly-used ring pin its full preallocation —
        // batch runners keep many TraceData results alive at once.
        self.ring.shrink_to_fit();
        TraceData {
            config: self.config,
            events: self.ring,
            dropped: self.dropped,
            metrics,
        }
    }
}

/// A finished trace: what [`Tracer::into_data`] returns and the exporters
/// consume.
#[derive(Clone, PartialEq)]
pub struct TraceData {
    /// The configuration the trace was collected under.
    pub config: TracerConfig,
    /// Events in insertion order (oldest first; the prefix may have been
    /// dropped — see [`dropped`](Self::dropped)).
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overflow.
    pub dropped: u64,
    /// Final metrics snapshot.
    pub metrics: MetricsSnapshot,
}

impl std::fmt::Debug for TraceData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Compact on purpose: a trace holds up to `capacity` events and
        // would flood any derived debug output.
        f.debug_struct("TraceData")
            .field("events", &self.events.len())
            .field("dropped", &self.dropped)
            .field("metrics", &self.metrics.len())
            .finish()
    }
}

impl TraceData {
    /// Components that recorded at least one span-type event (sync,
    /// async, or complete), sorted and deduplicated.
    #[must_use]
    pub fn components_with_spans(&self) -> Vec<&'static str> {
        use crate::event::EventKind;
        let mut out: Vec<&'static str> = self
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::Begin
                        | EventKind::End
                        | EventKind::Complete { .. }
                        | EventKind::AsyncBegin { .. }
                        | EventKind::AsyncEnd { .. }
                )
            })
            .map(|e| e.component)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Exports the event ring as Chrome trace-event JSON (Perfetto- and
    /// `chrome://tracing`-loadable).
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        crate::chrome::export(self)
    }

    /// Exports the windowed metrics as CSV up to `end_ns` (exclusive);
    /// column layout matches the `stats::TimeSeries` plotting path.
    #[must_use]
    pub fn to_csv(&self, end_ns: u64) -> String {
        crate::csv::export(&self.metrics, end_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::metrics::Metrics;

    fn ev(ts_ns: u64, name: &'static str) -> TraceEvent {
        TraceEvent {
            ts_ns,
            node: 0,
            lane: 0,
            component: "t",
            name,
            kind: EventKind::Instant,
            args: Vec::new(),
        }
    }

    #[test]
    fn ring_drops_oldest_on_overflow() {
        let mut t = Tracer::new(TracerConfig::default().with_capacity(3));
        for (i, n) in ["a", "b", "c", "d", "e"].iter().enumerate() {
            t.record(ev(i as u64, n));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let data = t.into_data();
        let names: Vec<_> = data.events.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["c", "d", "e"]);
        assert_eq!(data.dropped, 2);
    }

    #[test]
    fn node_scope_is_stamped() {
        let mut t = Tracer::new(TracerConfig::default().with_capacity(4));
        t.record(ev(0, "a"));
        t.set_node(2);
        assert_eq!(t.node(), 2);
        t.record(ev(1, "b"));
        let data = t.into_data();
        assert_eq!(data.events[0].node, 0);
        assert_eq!(data.events[1].node, 2);
    }

    #[test]
    fn async_ids_are_monotonic_and_nonzero() {
        let mut t = Tracer::new(TracerConfig::default());
        assert_eq!(t.next_async_id(), 1);
        assert_eq!(t.next_async_id(), 2);
    }

    #[test]
    fn debug_output_is_compact() {
        let mut t = Tracer::new(TracerConfig::default().with_capacity(2));
        t.record(ev(0, "a"));
        assert!(!t.is_empty());
        let s = format!("{:?}", t.into_data());
        assert!(s.contains("events: 1"), "{s}");
        assert!(!s.contains("\"a\""), "{s}");
    }

    #[test]
    fn components_with_spans_filters_instants() {
        let mut t = Tracer::new(TracerConfig::default());
        t.record(ev(0, "point"));
        t.record(TraceEvent {
            kind: EventKind::Complete { dur_ns: 5 },
            component: "spanful",
            ..ev(1, "work")
        });
        let data = t.into_data();
        assert_eq!(data.components_with_spans(), vec!["spanful"]);
    }

    #[test]
    #[should_panic(expected = "ring capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = TracerConfig::default().with_capacity(0);
    }

    /// Counter snapshots are monotonic: however adds are interleaved with
    /// snapshots, each metric's running total never decreases.
    #[test]
    fn prop_counter_snapshots_monotonic() {
        use check::{ensure, gen, Check};
        Check::new("counter_snapshots_monotonic").run(
            |rng, size| {
                gen::vec_with(rng, size, 1, 80, |r| {
                    (
                        r.next_below(3) as usize,        // which counter
                        r.next_below(5_000_000),         // timestamp
                        gen::u64_in(r, 0, 1_000) as f64, // amount
                    )
                })
            },
            |adds| {
                const NAMES: [&str; 3] = ["a", "b", "c"];
                let mut m = Metrics::new(1_000_000);
                let mut last = [0.0f64; 3];
                for &(which, ts, amount) in adds {
                    m.add("t", NAMES[which], ts, amount);
                    let snap = m.snapshot();
                    for (i, name) in NAMES.iter().enumerate() {
                        let v = snap.get("t", name).map_or(0.0, |s| s.value);
                        ensure!(
                            v >= last[i],
                            "counter t.{name} went backwards: {v} < {}",
                            last[i]
                        );
                        let bin_sum: f64 = snap.get("t", name).map_or(0.0, |s| s.bins.iter().sum());
                        ensure!(
                            (bin_sum - v).abs() < 1e-9,
                            "bins {bin_sum} disagree with total {v}"
                        );
                        last[i] = v;
                    }
                }
                Ok(())
            },
        );
    }
}
