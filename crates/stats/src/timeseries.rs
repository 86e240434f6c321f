//! Sampled time series and windowed rate traces.
//!
//! The paper's Figures 4, 8(right) and 9(right) plot bandwidth, core
//! utilization and frequency against time. [`TimeSeries`] stores `(t, v)`
//! samples and can re-bin them; [`RateTrace`] accumulates discrete events
//! (bytes, requests) and reports per-window rates.

/// A rejected binning request: the window is empty (`start_ns >= end_ns`)
/// or `bins` is zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinningError {
    /// Requested window start (nanoseconds).
    pub start_ns: u64,
    /// Requested window end (nanoseconds).
    pub end_ns: u64,
    /// Requested bin count.
    pub bins: usize,
}

impl std::fmt::Display for BinningError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid binning request: [{}, {}) ns into {} bins",
            self.start_ns, self.end_ns, self.bins
        )
    }
}

impl std::error::Error for BinningError {}

/// A sequence of `(time_ns, value)` samples.
///
/// # Example
///
/// ```
/// use simstats::TimeSeries;
/// let mut ts = TimeSeries::new("freq_ghz");
/// ts.push(0, 0.8);
/// ts.push(1_000_000, 3.1);
/// assert_eq!(ts.len(), 2);
/// assert_eq!(ts.last_value(), Some(3.1));
/// ```
#[derive(Debug, Clone)]
pub struct TimeSeries {
    name: String,
    times: Vec<u64>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty, named series.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            times: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The series name (used as a column/row header in rendered figures).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample. Times should be non-decreasing; out-of-order
    /// samples are accepted but binning assumes sortedness.
    pub fn push(&mut self, time_ns: u64, value: f64) {
        self.times.push(time_ns);
        self.values.push(value);
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The most recent value, if any.
    #[must_use]
    pub fn last_value(&self) -> Option<f64> {
        self.values.last().copied()
    }

    /// Iterates over `(time_ns, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// Largest sample value, or 0.0 when empty.
    #[must_use]
    pub fn max_value(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// Average of samples falling in `[start, end)` per bin, producing
    /// `bins` equal-width bins. Empty bins carry forward the previous bin's
    /// value (a zero-order hold, matching how a sampled frequency trace
    /// behaves).
    ///
    /// # Panics
    ///
    /// Panics on an empty window (`start_ns >= end_ns`) or zero bin count;
    /// use [`try_rebin`](Self::try_rebin) to handle those as errors.
    #[must_use]
    pub fn rebin(&self, start_ns: u64, end_ns: u64, bins: usize) -> Vec<f64> {
        match self.try_rebin(start_ns, end_ns, bins) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`rebin`](Self::rebin): rejects empty windows
    /// (`start_ns >= end_ns`) and zero bin counts instead of panicking.
    ///
    /// # Errors
    ///
    /// [`BinningError`] when `start_ns >= end_ns` or `bins == 0`.
    pub fn try_rebin(
        &self,
        start_ns: u64,
        end_ns: u64,
        bins: usize,
    ) -> Result<Vec<f64>, BinningError> {
        if end_ns <= start_ns || bins == 0 {
            return Err(BinningError {
                start_ns,
                end_ns,
                bins,
            });
        }
        let width = (end_ns - start_ns) as f64 / bins as f64;
        let mut sums = vec![0.0; bins];
        let mut counts = vec![0u64; bins];
        for (t, v) in self.iter() {
            if t < start_ns || t >= end_ns {
                continue;
            }
            let idx = (((t - start_ns) as f64 / width) as usize).min(bins - 1);
            sums[idx] += v;
            counts[idx] += 1;
        }
        let mut out = vec![0.0; bins];
        let mut hold = 0.0;
        for i in 0..bins {
            if counts[i] > 0 {
                hold = sums[i] / counts[i] as f64;
            }
            out[i] = hold;
        }
        Ok(out)
    }
}

/// Accumulates discrete quantities (bytes, packets, requests) and reports
/// per-window rates — the building block for BW(Rx)/BW(Tx) traces and for
/// normalized bandwidth plots.
///
/// # Example
///
/// ```
/// use simstats::RateTrace;
/// let mut rt = RateTrace::new("rx_bytes", 1_000_000); // 1 ms windows
/// rt.add(500_000, 1500.0);
/// rt.add(1_500_000, 3000.0);
/// let bins = rt.finish(2_000_000);
/// assert_eq!(bins, vec![1500.0, 3000.0]);
/// ```
#[derive(Debug, Clone)]
pub struct RateTrace {
    name: String,
    window_ns: u64,
    bins: Vec<f64>,
}

impl RateTrace {
    /// Creates a trace with fixed window width `window_ns`.
    ///
    /// # Panics
    ///
    /// Panics if `window_ns` is zero.
    #[must_use]
    pub fn new(name: impl Into<String>, window_ns: u64) -> Self {
        assert!(window_ns > 0, "window must be positive");
        RateTrace {
            name: name.into(),
            window_ns,
            bins: Vec::new(),
        }
    }

    /// The trace name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The window width in nanoseconds.
    #[must_use]
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Adds `amount` at instant `time_ns`.
    pub fn add(&mut self, time_ns: u64, amount: f64) {
        let idx = (time_ns / self.window_ns) as usize;
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0.0);
        }
        self.bins[idx] += amount;
    }

    /// Totals per window up to `end_ns` (exclusive), zero-filled.
    #[must_use]
    pub fn finish(&self, end_ns: u64) -> Vec<f64> {
        let n = (end_ns / self.window_ns) as usize;
        let mut out = self.bins.clone();
        out.resize(n.max(out.len()), 0.0);
        out.truncate(n);
        out
    }

    /// Totals per window, normalized so the busiest window is 1.0 (as the
    /// paper normalizes BW(Rx)/BW(Tx) to their maxima).
    #[must_use]
    pub fn finish_normalized(&self, end_ns: u64) -> Vec<f64> {
        let raw = self.finish(end_ns);
        let max = raw.iter().copied().fold(0.0, f64::max);
        if max == 0.0 {
            return raw;
        }
        raw.into_iter().map(|v| v / max).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use check::{ensure, gen, Check};

    #[test]
    fn timeseries_basics() {
        let mut ts = TimeSeries::new("u");
        assert!(ts.is_empty());
        ts.push(10, 1.0);
        ts.push(20, 3.0);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.max_value(), 3.0);
        let pairs: Vec<_> = ts.iter().collect();
        assert_eq!(pairs, vec![(10, 1.0), (20, 3.0)]);
    }

    #[test]
    fn rebin_averages_and_holds() {
        let mut ts = TimeSeries::new("f");
        ts.push(0, 2.0);
        ts.push(10, 4.0);
        // Bin 1 empty, bin 2 has one sample.
        ts.push(250, 6.0);
        let bins = ts.rebin(0, 300, 3);
        assert_eq!(bins, vec![3.0, 3.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "invalid binning request")]
    fn rebin_rejects_empty_range() {
        let _ = TimeSeries::new("x").rebin(10, 10, 3);
    }

    #[test]
    fn try_rebin_reports_bad_requests() {
        let ts = TimeSeries::new("x");
        // Empty window: start == end and start > end.
        assert_eq!(
            ts.try_rebin(10, 10, 3),
            Err(BinningError {
                start_ns: 10,
                end_ns: 10,
                bins: 3
            })
        );
        assert!(ts.try_rebin(20, 10, 3).is_err());
        // Zero bins.
        assert!(ts.try_rebin(0, 100, 0).is_err());
        let err = ts.try_rebin(0, 100, 0).unwrap_err();
        assert!(err.to_string().contains("invalid binning request"));
        // A valid request still works and matches rebin().
        let mut ts = TimeSeries::new("y");
        ts.push(5, 1.0);
        ts.push(15, 3.0);
        assert_eq!(ts.try_rebin(0, 20, 2).unwrap(), ts.rebin(0, 20, 2));
    }

    #[test]
    fn rate_trace_accumulates_by_window() {
        let mut rt = RateTrace::new("rx", 100);
        assert_eq!(rt.name(), "rx");
        assert_eq!(rt.window_ns(), 100);
        rt.add(0, 1.0);
        rt.add(99, 1.0);
        rt.add(100, 5.0);
        assert_eq!(rt.finish(300), vec![2.0, 5.0, 0.0]);
    }

    #[test]
    fn rate_trace_normalization() {
        let mut rt = RateTrace::new("rx", 100);
        rt.add(0, 2.0);
        rt.add(150, 8.0);
        assert_eq!(rt.finish_normalized(200), vec![0.25, 1.0]);
    }

    #[test]
    fn rate_trace_all_zero_normalizes_to_zero() {
        let rt = RateTrace::new("rx", 100);
        assert_eq!(rt.finish_normalized(200), vec![0.0, 0.0]);
    }

    /// Generates `(timestamp, amount)` event pairs for the rate traces.
    fn events(rng: &mut check::Rng, size: usize) -> Vec<(u64, u64)> {
        gen::vec_with(rng, size, 1, 100, |r| {
            (r.next_below(10_000), gen::u64_in(r, 1, 100))
        })
    }

    /// Total mass is conserved by windowing.
    #[test]
    fn prop_rate_mass_conserved() {
        Check::new("rate_trace_mass_conserved").run(events, |evs| {
            let mut rt = RateTrace::new("x", 137);
            let mut total = 0.0;
            for &(t, a) in evs {
                rt.add(t, a as f64);
                total += a as f64;
            }
            let sum: f64 = rt.finish(10_200).iter().sum();
            ensure!((sum - total).abs() < 1e-6, "sum {sum} != total {total}");
            Ok(())
        });
    }

    /// Normalized bins are within [0, 1].
    #[test]
    fn prop_normalized_bounded() {
        Check::new("rate_trace_normalized_bounded").run(events, |evs| {
            let mut rt = RateTrace::new("x", 251);
            for &(t, a) in evs {
                rt.add(t, a as f64);
            }
            for v in rt.finish_normalized(10_200) {
                ensure!((0.0..=1.0).contains(&v), "bin {v} outside [0, 1]");
            }
            Ok(())
        });
    }
}
