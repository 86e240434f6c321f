//! Compact latency summaries extracted from histograms.

use crate::histogram::LogHistogram;
use crate::table::{fmt_ns, Table};
use core::fmt;

/// The percentile set the paper reports (Figures 8 and 9 left panels),
/// plus mean/max/count, all in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Median response time (ns).
    pub p50: u64,
    /// 90th-percentile response time (ns).
    pub p90: u64,
    /// 95th-percentile response time (ns) — the paper's SLA metric.
    pub p95: u64,
    /// 99th-percentile response time (ns).
    pub p99: u64,
    /// Mean response time (ns).
    pub mean: f64,
    /// Worst observed response time (ns).
    pub max: u64,
    /// Number of completed requests.
    pub count: u64,
}

impl LatencySummary {
    /// Extracts the summary from a histogram of nanosecond latencies.
    ///
    /// # Example
    ///
    /// ```
    /// use simstats::{LatencySummary, LogHistogram};
    /// let mut h = LogHistogram::new();
    /// for v in 1..=100u64 {
    ///     h.record(v * 1_000);
    /// }
    /// let s = LatencySummary::from_histogram(&h);
    /// assert_eq!(s.count, 100);
    /// assert!(s.p95 >= s.p50);
    /// ```
    #[must_use]
    pub fn from_histogram(h: &LogHistogram) -> Self {
        LatencySummary {
            p50: h.percentile(50.0),
            p90: h.percentile(90.0),
            p95: h.percentile(95.0),
            p99: h.percentile(99.0),
            mean: h.mean(),
            max: h.max(),
            count: h.count(),
        }
    }

    /// All four reported percentiles, normalized by `sla_ns`
    /// (the paper normalizes response times to the SLA; values > 1.0
    /// violate it).
    #[must_use]
    pub fn normalized(&self, sla_ns: u64) -> [f64; 4] {
        let n = |v: u64| v as f64 / sla_ns as f64;
        [n(self.p50), n(self.p90), n(self.p95), n(self.p99)]
    }

    /// `true` when the p95 response time meets the SLA.
    #[must_use]
    pub fn meets_sla(&self, sla_ns: u64) -> bool {
        self.p95 <= sla_ns
    }
}

/// How far above the lowest load's p95 a point may sit and still be
/// before the knee: past it, queueing makes p95 grow by integer factors
/// per load step.
const KNEE_FACTOR: f64 = 2.5;

/// The knee of a `(load_rps, p95_ns)` latency–load curve, ordered by
/// load: the last point before the first whose p95 exceeds 2.5× the
/// first point's. The paper sets the SLA at the
/// p95 there (§6: "the SLA is typically set near the inflexion point of
/// the latency-load curve"). `None` for an empty curve.
///
/// # Example
///
/// ```
/// let curve = [(10e3, 100), (20e3, 120), (30e3, 900), (40e3, 200)];
/// assert_eq!(simstats::sla_knee(&curve), Some((20e3, 120)));
/// ```
#[must_use]
pub fn sla_knee(curve: &[(f64, u64)]) -> Option<(f64, u64)> {
    let limit = curve.first()?.1.max(1) as f64 * KNEE_FACTOR;
    curve
        .iter()
        .take_while(|&&(_, p95)| p95 as f64 <= limit)
        .last()
        .copied()
}

/// Renders a latency–load curve as a `load (rps) | p95 | note` table,
/// marking the knee at `knee_rps` and every load past it.
#[must_use]
pub fn sla_curve_table(curve: &[(f64, u64)], knee_rps: f64) -> Table {
    let mut t = Table::new(vec!["load (rps)", "p95", "note"]);
    for &(load, p95) in curve {
        let note = if (load - knee_rps).abs() < 1.0 {
            "<-- inflection (SLA set here)"
        } else if load > knee_rps {
            "past the knee"
        } else {
            ""
        };
        t.row(vec![format!("{load:.0}"), fmt_ns(p95), note.to_owned()]);
    }
    t
}

impl fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1}us p50={:.1}us p90={:.1}us p95={:.1}us p99={:.1}us max={:.1}us",
            self.count,
            self.mean / 1e3,
            self.p50 as f64 / 1e3,
            self.p90 as f64 / 1e3,
            self.p95 as f64 / 1e3,
            self.p99 as f64 / 1e3,
            self.max as f64 / 1e3,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_hist() -> LogHistogram {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1_000);
        }
        h
    }

    #[test]
    fn percentiles_are_ordered() {
        let s = LatencySummary::from_histogram(&uniform_hist());
        assert!(s.p50 <= s.p90);
        assert!(s.p90 <= s.p95);
        assert!(s.p95 <= s.p99);
        assert!(s.p99 <= s.max);
    }

    #[test]
    fn normalization_against_sla() {
        let s = LatencySummary::from_histogram(&uniform_hist());
        let [_, _, p95n, _] = s.normalized(s.p95);
        assert!((p95n - 1.0).abs() < 1e-9);
        assert!(s.meets_sla(s.p95));
        assert!(!s.meets_sla(s.p95 - 1_000));
    }

    #[test]
    fn flat_curve_knees_at_the_last_load() {
        let curve = [(1e3, 1_000), (2e3, 1_100), (3e3, 2_500), (4e3, 1_900)];
        assert_eq!(sla_knee(&curve), Some((4e3, 1_900)));
    }

    #[test]
    fn early_exceedance_knees_at_the_first_load() {
        let curve = [(1e3, 1_000), (2e3, 2_501), (3e3, 1_200)];
        assert_eq!(sla_knee(&curve), Some((1e3, 1_000)));
    }

    #[test]
    fn knee_stops_at_the_first_exceedance_even_if_the_curve_dips_back() {
        let curve = [
            (1e3, 1_000),
            (2e3, 2_000),
            (3e3, 9_000),
            (4e3, 2_400),
            (5e3, 2_450),
        ];
        assert_eq!(sla_knee(&curve), Some((2e3, 2_000)));
    }

    #[test]
    fn knee_of_an_empty_curve_is_none() {
        assert_eq!(sla_knee(&[]), None);
    }

    #[test]
    fn empty_histogram_summary() {
        let s = LatencySummary::from_histogram(&LogHistogram::new());
        assert_eq!(s.count, 0);
        assert_eq!(s.p95, 0);
    }

    #[test]
    fn display_mentions_count() {
        let s = LatencySummary::from_histogram(&uniform_hist());
        assert!(s.to_string().contains("n=1000"));
    }
}
