//! Log-bucketed histogram with bounded relative error.
//!
//! Values (typically latencies in nanoseconds) are assigned to buckets of
//! geometrically growing width: each power-of-two range is split into
//! `SUBBUCKETS` linear sub-buckets, giving a worst-case relative error of
//! `1 / SUBBUCKETS` (≈1.6 % here) while using O(64 × SUBBUCKETS) memory
//! regardless of value range. This is the same scheme HdrHistogram uses.

const SUBBUCKET_BITS: u32 = 6;
const SUBBUCKETS: u64 = 1 << SUBBUCKET_BITS; // 64 sub-buckets per octave

/// A histogram of `u64` values with ~1.6 % relative bucket error.
///
/// # Example
///
/// ```
/// use simstats::LogHistogram;
/// let mut h = LogHistogram::new();
/// h.record(100);
/// h.record(200);
/// h.record(300);
/// assert_eq!(h.count(), 3);
/// assert!(h.percentile(100.0) >= 300);
/// ```
#[derive(Debug, Clone)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LogHistogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Index of the bucket holding `value`.
    ///
    /// Values below `SUBBUCKETS` get exact unit buckets. Each octave
    /// `[2^k, 2^(k+1))` for `k >= SUBBUCKET_BITS` is split into
    /// `SUBBUCKETS / 2` linear sub-buckets of width `2^(k - SUBBUCKET_BITS + 1)`.
    pub(crate) fn index(value: u64) -> usize {
        if value < SUBBUCKETS {
            return value as usize;
        }
        let k = 63 - u64::from(value.leading_zeros()); // octave, >= SUBBUCKET_BITS
        let shift = k - u64::from(SUBBUCKET_BITS) + 1;
        let sub = value >> shift; // in [SUBBUCKETS/2, SUBBUCKETS)
        let half = SUBBUCKETS / 2;
        (SUBBUCKETS + (k - u64::from(SUBBUCKET_BITS)) * half + (sub - half)) as usize
    }

    /// Representative (upper-bound) value of bucket `idx`.
    pub(crate) fn bucket_high(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < SUBBUCKETS {
            return idx;
        }
        let half = SUBBUCKETS / 2;
        let m = idx - SUBBUCKETS;
        let k = m / half + u64::from(SUBBUCKET_BITS);
        let sub = m % half + half;
        let shift = k - u64::from(SUBBUCKET_BITS) + 1;
        // One below where the next bucket starts, written without
        // `(sub + 1) << shift`, which overflows for the last bucket.
        (sub << shift) | ((1 << shift) - 1)
    }

    /// Smallest value bucket `idx` holds: buckets tile `u64` without gaps,
    /// so it is one past the previous bucket's upper bound.
    pub(crate) fn bucket_low(idx: usize) -> u64 {
        if idx == 0 {
            0
        } else {
            Self::bucket_high(idx - 1) + 1
        }
    }

    /// Records one occurrence of `value`.
    pub fn record(&mut self, value: u64) {
        let idx = Self::index(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records `n` occurrences of `value`.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = Self::index(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += n;
        self.count += n;
        self.sum += u128::from(value) * u128::from(n);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded value, or 0 when empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, or 0 when empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values (exact), or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at or below which `q` percent of recordings fall.
    ///
    /// Exact for the min (q→0) and max (q=100); elsewhere accurate to the
    /// bucket's relative error. `q` is clamped to `[0, 100]`. Returns 0 for
    /// an empty histogram.
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 100.0);
        let rank = ((q / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Clamp the bucket's upper bound into the observed range so
                // extreme percentiles stay exact.
                return Self::bucket_high(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use check::{ensure, ensure_eq, gen, Check};

    #[test]
    fn empty_histogram_is_calm() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..SUBBUCKETS {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(100.0), SUBBUCKETS - 1);
    }

    #[test]
    fn uniform_median_is_close() {
        let mut h = LogHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let p50 = h.percentile(50.0);
        let err = (p50 as f64 - 50_000.0).abs() / 50_000.0;
        assert!(err < 0.04, "median {p50} off by {err}");
    }

    #[test]
    fn record_n_equivalent_to_loop() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record_n(12_345, 10);
        for _ in 0..10 {
            b.record(12_345);
        }
        assert_eq!(a.count(), b.count());
        assert_eq!(a.percentile(50.0), b.percentile(50.0));
        assert_eq!(a.mean(), b.mean());
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn max_percentile_is_exact() {
        let mut h = LogHistogram::new();
        h.record(123_456_789);
        h.record(42);
        assert_eq!(h.percentile(100.0), 123_456_789);
        assert_eq!(h.max(), 123_456_789);
        assert_eq!(h.min(), 42);
    }

    /// Checks one value against the bucket relative-error contract.
    fn bucket_error_within_bound(v: u64) -> check::PropResult {
        let idx = LogHistogram::index(v);
        let high = LogHistogram::bucket_high(idx);
        ensure!(high >= v, "bucket high {high} below value {v}");
        let err = (high - v) as f64 / v as f64;
        ensure!(err <= 1.0 / 32.0, "value {v} high {high} err {err}");
        Ok(())
    }

    /// Any recorded value lands in a bucket whose representative is
    /// within the scheme's relative error.
    #[test]
    fn prop_bucket_error_bound() {
        Check::new("histogram_bucket_error_bound").run(
            |rng, size| gen::u64_scaled(rng, size, 1, u64::MAX / 2),
            |&v| bucket_error_within_bound(v),
        );
    }

    /// Every bucket's bounds map back to it, and the last bucket ends at
    /// `u64::MAX`: the buckets tile the whole range.
    #[test]
    fn bucket_bounds_tile_u64() {
        let last = LogHistogram::index(u64::MAX);
        assert_eq!(LogHistogram::bucket_high(last), u64::MAX);
        for idx in 0..=last {
            let (low, high) = (
                LogHistogram::bucket_low(idx),
                LogHistogram::bucket_high(idx),
            );
            assert!(low <= high, "bucket {idx}: [{low}, {high}]");
            assert_eq!(LogHistogram::index(low), idx);
            assert_eq!(LogHistogram::index(high), idx);
        }
    }

    /// Regression pinned from the pre-port proptest corpus
    /// (`proptest-regressions/histogram.txt` shrank to `v = 64`, the
    /// first value of a fresh power-of-two bucket).
    #[test]
    fn regression_bucket_error_bound_at_64() {
        bucket_error_within_bound(64).unwrap();
    }

    /// Invariant `histogram percentile bounds`: percentiles are monotone
    /// in q and never leave the observed [min, max] range.
    #[test]
    fn prop_percentile_monotone() {
        Check::new("histogram_percentile_monotone").run(
            |rng, size| gen::vec_with(rng, size, 1, 200, |r| gen::u64_in(r, 1, 10_000_000)),
            |values| {
                let mut h = LogHistogram::new();
                for &v in values {
                    h.record(v);
                }
                let mut last = 0;
                for q in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0] {
                    let p = h.percentile(q);
                    ensure!(p >= last, "p{q} = {p} below previous {last}");
                    last = p;
                }
                Ok(())
            },
        );
    }

    /// Percentiles never leave the observed [min, max] range.
    #[test]
    fn prop_percentile_bounded() {
        Check::new("histogram_percentile_bounded").run(
            |rng, size| {
                let values = gen::vec_with(rng, size, 1, 200, |r| gen::u64_in(r, 1, 10_000_000));
                let q = rng.next_f64_in(0.0, 100.0);
                (values, q)
            },
            |(values, q)| {
                let mut h = LogHistogram::new();
                for &v in values {
                    h.record(v);
                }
                let p = h.percentile(*q);
                ensure!(
                    p >= h.min() && p <= h.max(),
                    "p{q} = {p} outside [{}, {}]",
                    h.min(),
                    h.max()
                );
                Ok(())
            },
        );
    }

    /// merge(a, b) has the same percentiles as recording everything
    /// into one histogram.
    #[test]
    fn prop_merge_equivalence() {
        Check::new("histogram_merge_equivalence").run(
            |rng, size| {
                let xs = gen::vec_with(rng, size, 1, 100, |r| gen::u64_in(r, 1, 1_000_000));
                let ys = gen::vec_with(rng, size, 1, 100, |r| gen::u64_in(r, 1, 1_000_000));
                (xs, ys)
            },
            |(xs, ys)| {
                let mut merged = LogHistogram::new();
                let mut single = LogHistogram::new();
                let mut other = LogHistogram::new();
                for &x in xs {
                    merged.record(x);
                    single.record(x);
                }
                for &y in ys {
                    other.record(y);
                    single.record(y);
                }
                merged.merge(&other);
                ensure_eq!(merged.count(), single.count());
                for q in [50.0, 95.0, 99.0] {
                    ensure_eq!(merged.percentile(q), single.percentile(q));
                }
                Ok(())
            },
        );
    }
}
