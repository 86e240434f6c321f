//! The metrics registry: named counters and gauges, registered on first
//! touch and bumped on hot paths.
//!
//! Counters accumulate a running total plus per-window sums; the window
//! arithmetic (`bins[ts / window] += amount`) is deliberately identical to
//! `simstats::RateTrace::add`, so a counter mirrored from a figure trace
//! exports the same bins bit-for-bit. Gauges keep every `(ts, value)`
//! sample (they are set at sampling cadence, not per packet) plus the
//! last value.

use std::collections::BTreeMap;

/// Whether a metric accumulates (counter) or tracks a level (gauge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically accumulating quantity (bytes, frames, decisions).
    Counter,
    /// A sampled level (frequency, cumulative busy time).
    Gauge,
}

#[derive(Debug, Clone)]
struct MetricData {
    kind: MetricKind,
    /// Counters: running total. Gauges: last set value.
    value: f64,
    /// Counters only: per-window sums, indexed by `ts / window`.
    bins: Vec<f64>,
    /// Gauges only: every `(ts_ns, value)` sample in set order.
    points: Vec<(u64, f64)>,
}

impl MetricData {
    fn new(kind: MetricKind) -> Self {
        MetricData {
            kind,
            value: 0.0,
            bins: Vec::new(),
            points: Vec::new(),
        }
    }
}

/// The registry. One instance lives inside each installed tracer and is
/// written through the crate-root `metric_*` helpers.
#[derive(Debug, Clone)]
pub struct Metrics {
    window_ns: u64,
    map: BTreeMap<(&'static str, &'static str), MetricData>,
}

impl Metrics {
    /// Creates an empty registry with the given counter window.
    ///
    /// # Panics
    ///
    /// Panics if `window_ns` is zero.
    #[must_use]
    pub fn new(window_ns: u64) -> Self {
        assert!(window_ns > 0, "metric window must be positive");
        Metrics {
            window_ns,
            map: BTreeMap::new(),
        }
    }

    fn entry(
        &mut self,
        component: &'static str,
        name: &'static str,
        kind: MetricKind,
    ) -> &mut MetricData {
        let data = self
            .map
            .entry((component, name))
            .or_insert_with(|| MetricData::new(kind));
        debug_assert_eq!(
            data.kind, kind,
            "metric {component}.{name} used as both counter and gauge"
        );
        data
    }

    /// Adds `amount` to the counter at instant `ts_ns` (total + window bin).
    pub fn add(&mut self, component: &'static str, name: &'static str, ts_ns: u64, amount: f64) {
        let window = self.window_ns;
        let data = self.entry(component, name, MetricKind::Counter);
        data.value += amount;
        let idx = (ts_ns / window) as usize;
        if idx >= data.bins.len() {
            data.bins.resize(idx + 1, 0.0);
        }
        data.bins[idx] += amount;
    }

    /// Adds `amount` to the counter's running total only — for call sites
    /// that have no timestamp in scope (pure hardware counters).
    pub fn add_cum(&mut self, component: &'static str, name: &'static str, amount: f64) {
        self.entry(component, name, MetricKind::Counter).value += amount;
    }

    /// Sets the gauge to `value` at instant `ts_ns`.
    pub fn set(&mut self, component: &'static str, name: &'static str, ts_ns: u64, value: f64) {
        let data = self.entry(component, name, MetricKind::Gauge);
        data.value = value;
        data.points.push((ts_ns, value));
    }

    /// Snapshots every metric, sorted by `(component, name)`.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            window_ns: self.window_ns,
            metrics: self
                .map
                .iter()
                .map(|(&(component, name), d)| MetricSnapshot {
                    component,
                    name,
                    kind: d.kind,
                    value: d.value,
                    bins: d.bins.clone(),
                    points: d.points.clone(),
                })
                .collect(),
        }
    }
}

/// One metric's state at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Emitting subsystem.
    pub component: &'static str,
    /// Metric name within the component.
    pub name: &'static str,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// Counters: running total. Gauges: last set value.
    pub value: f64,
    /// Counters: per-window sums (`RateTrace`-compatible).
    pub bins: Vec<f64>,
    /// Gauges: every `(ts_ns, value)` sample.
    pub points: Vec<(u64, f64)>,
}

/// A point-in-time copy of the whole registry.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter window width in nanoseconds.
    pub window_ns: u64,
    metrics: Vec<MetricSnapshot>,
}

impl MetricsSnapshot {
    /// An empty snapshot (used by the disabled-tracing path).
    #[must_use]
    pub fn empty(window_ns: u64) -> Self {
        MetricsSnapshot {
            window_ns,
            metrics: Vec::new(),
        }
    }

    /// Looks up one metric.
    #[must_use]
    pub fn get(&self, component: &str, name: &str) -> Option<&MetricSnapshot> {
        self.metrics
            .iter()
            .find(|m| m.component == component && m.name == name)
    }

    /// Iterates in `(component, name)` order.
    pub fn iter(&self) -> impl Iterator<Item = &MetricSnapshot> {
        self.metrics.iter()
    }

    /// Number of metrics captured.
    #[must_use]
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// `true` when no metrics were captured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Exports the windowed metrics as CSV up to `end_ns` (exclusive).
    #[must_use]
    pub fn export_csv(&self, end_ns: u64) -> String {
        crate::csv::export(self, end_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_totals_and_bins() {
        let mut m = Metrics::new(100);
        m.add("nic", "rx", 10, 1.0);
        m.add("nic", "rx", 99, 2.0);
        m.add("nic", "rx", 250, 4.0);
        m.add_cum("nic", "rx", 8.0);
        let s = m.snapshot();
        let rx = s.get("nic", "rx").unwrap();
        assert_eq!(rx.kind, MetricKind::Counter);
        assert_eq!(rx.value, 15.0);
        assert_eq!(rx.bins, vec![3.0, 0.0, 4.0]);
        assert!(rx.points.is_empty());
    }

    #[test]
    fn gauge_keeps_samples() {
        let mut m = Metrics::new(100);
        m.set("cpu", "freq", 0, 3.1);
        m.set("cpu", "freq", 200, 0.8);
        let s = m.snapshot();
        let f = s.get("cpu", "freq").unwrap();
        assert_eq!(f.kind, MetricKind::Gauge);
        assert_eq!(f.value, 0.8);
        assert_eq!(f.points, vec![(0, 3.1), (200, 0.8)]);
    }

    #[test]
    fn snapshot_is_sorted_and_searchable() {
        let mut m = Metrics::new(100);
        m.add_cum("z", "last", 1.0);
        m.add_cum("a", "first", 1.0);
        let s = m.snapshot();
        let keys: Vec<_> = s.iter().map(|x| (x.component, x.name)).collect();
        assert_eq!(keys, vec![("a", "first"), ("z", "last")]);
        assert!(s.get("a", "first").is_some());
        assert!(s.get("a", "missing").is_none());
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert!(MetricsSnapshot::empty(100).is_empty());
    }

    #[test]
    #[should_panic(expected = "metric window must be positive")]
    fn zero_window_rejected() {
        let _ = Metrics::new(0);
    }
}
