//! Per-stage latency attribution across the request path.
//!
//! Every completed request carries a per-stage duration vector (stamped
//! along the simulated path; see the `netsim::StageRecord` sideband). The
//! [`BreakdownCollector`] streams the full population — not a sample —
//! into per-stage histograms and per-bucket sums in constant memory, and
//! [`LatencyBreakdown`] condenses it into per-stage histograms, means and
//! shares, plus a *tail-conditioned* view: for requests at or above a
//! percentile threshold of total latency, which stage dominates.
//!
//! The stage vector is a plain `[u32; STAGE_COUNT]` so this crate stays
//! independent of the network/kernel crates that produce it; the indices
//! are named by the [`stage`] constants and [`STAGE_NAMES`].

use crate::histogram::LogHistogram;

/// Number of attributed stages.
pub const STAGE_COUNT: usize = 13;

/// Stage names, indexed by the [`stage`] constants.
pub const STAGE_NAMES: [&str; STAGE_COUNT] = [
    "net_in",     // client → server wire + switch transit (request)
    "lb",         // load-balancer hop hold, both directions
    "dma",        // NIC ring: wire end → DMA completion
    "moderation", // NIC hold: DMA completion → NAPI drain, minus wake overlap
    "wake",       // C-state wake latency overlapping the ring wait
    "stack",      // RX SoftIRQ run-queue sojourn + stack execution
    "poll_wait",  // bypass datapath: DMA completion → userspace pickup + poll RX
    "rq_wait",    // application phases: run-queue wait
    "cpu",        // application phases: on-core execution
    "io",         // application phases: disk/IO wait
    "tx",         // app completion → final frame on the wire
    "net_out",    // server → client wire + switch transit (response)
    "retx",       // client retransmission wait + server response replay
];

/// Named indices into a stage vector.
pub mod stage {
    /// Request-direction network transit.
    pub const NET_IN: usize = 0;
    /// Load-balancer hop (both directions).
    pub const LB: usize = 1;
    /// NIC DMA.
    pub const DMA: usize = 2;
    /// Interrupt-moderation / ring hold.
    pub const MODERATION: usize = 3;
    /// C-state wake latency.
    pub const WAKE: usize = 4;
    /// RX stack processing.
    pub const STACK: usize = 5;
    /// Poll-mode ring residency + userspace RX (replaces
    /// `moderation + wake + stack` on the bypass datapath).
    pub const POLL_WAIT: usize = 6;
    /// Application run-queue wait.
    pub const RQ_WAIT: usize = 7;
    /// Application CPU execution.
    pub const CPU: usize = 8;
    /// Application IO wait.
    pub const IO: usize = 9;
    /// Transmit path.
    pub const TX: usize = 10;
    /// Response-direction network transit.
    pub const NET_OUT: usize = 11;
    /// Retransmission / replay overhead.
    pub const RETX: usize = 12;
}

/// One total-latency bucket of the population: how many requests had a
/// total in it, and what they summed to, in total and per stage.
#[derive(Debug, Clone, Copy, Default)]
struct BucketRow {
    count: u64,
    total: u128,
    stages: [u64; STAGE_COUNT],
}

impl BucketRow {
    fn add(&mut self, other: &BucketRow) {
        self.count += other.count;
        self.total += other.total;
        for (acc, &v) in self.stages.iter_mut().zip(&other.stages) {
            *acc += v;
        }
    }
}

/// Streaming full-population accumulator. Every completed request lands
/// in the per-stage histograms and in one row per total-latency
/// [`LogHistogram`] bucket, so memory stays constant however many
/// requests a run completes: at most `LogHistogram::index(u64::MAX) + 1`
/// rows. Reset at measurement start alongside the latency tracker so
/// warmup requests are excluded.
#[derive(Debug, Clone, Default)]
pub struct BreakdownCollector {
    hists: [LogHistogram; STAGE_COUNT],
    /// Indexed by `LogHistogram::index(total)`, grown on demand.
    rows: Vec<BucketRow>,
    /// Requests whose stages did not sum to their total.
    untiled: u64,
}

impl BreakdownCollector {
    /// An empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed request, counting it as untiled when its
    /// stages do not sum exactly to `total_ns`.
    pub fn record(&mut self, stages: [u32; STAGE_COUNT], total_ns: u64) {
        let idx = LogHistogram::index(total_ns);
        if idx >= self.rows.len() {
            self.rows.resize(idx + 1, BucketRow::default());
        }
        let row = &mut self.rows[idx];
        row.count += 1;
        row.total += u128::from(total_ns);
        let mut sum = 0u64;
        for ((hist, acc), &v) in self.hists.iter_mut().zip(&mut row.stages).zip(&stages) {
            let v = u64::from(v);
            hist.record(v);
            *acc += v;
            sum += v;
        }
        if sum != total_ns {
            self.untiled += 1;
        }
    }

    /// Discards the population collected so far (measurement-window
    /// start). The untiled count survives: a request that failed to tile
    /// is a bug whether or not it was measured.
    pub fn reset(&mut self) {
        *self = BreakdownCollector {
            untiled: self.untiled,
            ..BreakdownCollector::default()
        };
    }

    /// Number of recorded requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.iter().map(|r| r.count as usize).sum()
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.iter().all(|r| r.count == 0)
    }

    /// Requests recorded since construction whose stage durations did not
    /// sum exactly to their total latency. Zero on a correct simulator.
    #[must_use]
    pub fn untiled(&self) -> u64 {
        self.untiled
    }

    /// Condenses the population into per-stage statistics, conditioning
    /// the tail view on totals at or above `tail_percentile` (e.g. 99.0).
    ///
    /// The order statistic at 0-based rank `min(ceil(n·q), n−1)` falls in
    /// one total-latency bucket; the tail is every request in that bucket
    /// or above, and `tail_threshold_ns` is that bucket's lower bound. So
    /// the tail is exactly the requests with `total >= tail_threshold_ns`,
    /// and it may exceed the top `100 − q`% by the ties inside one bucket.
    #[must_use]
    pub fn finalize(&self, tail_percentile: f64) -> LatencyBreakdown {
        let mut all = BucketRow::default();
        for row in &self.rows {
            all.add(row);
        }
        let n = all.count;
        let mut tail_threshold_ns = 0;
        let mut tail = BucketRow::default();
        if n > 0 {
            let q = tail_percentile.clamp(0.0, 100.0) / 100.0;
            let rank = ((n as f64 * q).ceil() as u64).min(n - 1);
            let mut seen = 0;
            let first = self
                .rows
                .iter()
                .position(|r| {
                    seen += r.count;
                    seen > rank
                })
                .expect("rank < n lies in some bucket");
            tail_threshold_ns = LogHistogram::bucket_low(first);
            if tail_threshold_ns > 0 {
                for row in &self.rows[first..] {
                    tail.add(row);
                }
            }
        }

        let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
        let stages = STAGE_NAMES
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let (sum, tail_sum) = (all.stages[i] as f64, tail.stages[i] as f64);
                StageBreakdown {
                    name,
                    mean: ratio(sum, n as f64),
                    share: ratio(sum, all.total as f64),
                    tail_mean: ratio(tail_sum, tail.count as f64),
                    tail_share: ratio(tail_sum, tail.total as f64),
                    hist: self.hists[i].clone(),
                }
            })
            .collect();
        LatencyBreakdown {
            count: n,
            total_mean: ratio(all.total as f64, n as f64),
            tail_percentile,
            tail_threshold_ns,
            tail_count: tail.count,
            stages,
        }
    }
}

/// One stage's slice of the end-to-end latency.
#[derive(Debug, Clone)]
pub struct StageBreakdown {
    /// Stage name (one of [`STAGE_NAMES`]).
    pub name: &'static str,
    /// Mean over *all* completed requests, zeros included (ns).
    pub mean: f64,
    /// This stage's fraction of total latency summed over the population.
    pub share: f64,
    /// Mean over tail requests only (ns).
    pub tail_mean: f64,
    /// This stage's fraction of total latency within the tail.
    pub tail_share: f64,
    /// Full-population distribution of this stage's duration.
    pub hist: LogHistogram,
}

/// Population-level per-stage attribution for one experiment, with a
/// tail-conditioned view ("which stage owns the p99").
#[derive(Debug, Clone)]
pub struct LatencyBreakdown {
    /// Completed requests in the population.
    pub count: u64,
    /// Mean end-to-end latency (ns).
    pub total_mean: f64,
    /// Percentile the tail view is conditioned on (e.g. 99.0).
    pub tail_percentile: f64,
    /// Lower bound (ns) of the total-latency bucket holding the tail
    /// percentile: the tail set is every request with a total at or
    /// above it.
    pub tail_threshold_ns: u64,
    /// Requests at or above the threshold.
    pub tail_count: u64,
    /// Per-stage statistics, indexed like [`STAGE_NAMES`].
    pub stages: Vec<StageBreakdown>,
}

impl LatencyBreakdown {
    /// The stage with the largest tail share, if any time was attributed.
    #[must_use]
    pub fn tail_dominant(&self) -> Option<&StageBreakdown> {
        self.stages
            .iter()
            .max_by(|a, b| a.tail_share.total_cmp(&b.tail_share))
            .filter(|s| s.tail_share > 0.0)
    }

    /// Looks a stage up by name.
    #[must_use]
    pub fn stage(&self, name: &str) -> Option<&StageBreakdown> {
        self.stages.iter().find(|s| s.name == name)
    }
}

/// The row-keeping collector the streaming one replaced, kept as the
/// differential tests' oracle: one `(stage vector, total)` row per
/// request, and an exact order statistic as the tail threshold.
#[cfg(test)]
mod oracle {
    use super::{LatencyBreakdown, StageBreakdown, STAGE_COUNT, STAGE_NAMES};
    use crate::histogram::LogHistogram;

    pub(super) fn finalize(
        samples: &[([u32; STAGE_COUNT], u64)],
        tail_percentile: f64,
    ) -> LatencyBreakdown {
        let n = samples.len();
        let tail_threshold_ns = if n == 0 {
            0
        } else {
            let mut totals: Vec<u64> = samples.iter().map(|&(_, t)| t).collect();
            totals.sort_unstable();
            let q = tail_percentile.clamp(0.0, 100.0) / 100.0;
            let rank = ((n as f64 * q).ceil() as usize).min(n - 1);
            totals[rank]
        };

        let mut hists: Vec<LogHistogram> = (0..STAGE_COUNT).map(|_| LogHistogram::new()).collect();
        let mut sums = [0u64; STAGE_COUNT];
        let mut tail_sums = [0u64; STAGE_COUNT];
        let mut total_sum = 0u64;
        let mut tail_total_sum = 0u64;
        let mut tail_count = 0u64;
        for &(stages, total) in samples {
            total_sum += total;
            let in_tail = total >= tail_threshold_ns && tail_threshold_ns > 0;
            if in_tail {
                tail_count += 1;
                tail_total_sum += total;
            }
            for (i, &v) in stages.iter().enumerate() {
                hists[i].record(u64::from(v));
                sums[i] += u64::from(v);
                if in_tail {
                    tail_sums[i] += u64::from(v);
                }
            }
        }

        let mean_of = |sum: u64, cnt: u64| {
            if cnt == 0 {
                0.0
            } else {
                sum as f64 / cnt as f64
            }
        };
        let share_of = |sum: u64, total: u64| {
            if total == 0 {
                0.0
            } else {
                sum as f64 / total as f64
            }
        };
        let stages = STAGE_NAMES
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let hist = std::mem::take(&mut hists[i]);
                StageBreakdown {
                    name,
                    mean: mean_of(sums[i], n as u64),
                    share: share_of(sums[i], total_sum),
                    tail_mean: mean_of(tail_sums[i], tail_count),
                    tail_share: share_of(tail_sums[i], tail_total_sum),
                    hist,
                }
            })
            .collect();
        LatencyBreakdown {
            count: n as u64,
            total_mean: mean_of(total_sum, n as u64),
            tail_percentile,
            tail_threshold_ns,
            tail_count,
            stages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use check::{ensure, ensure_eq, gen, Check, Rng};

    fn row(vals: [u32; STAGE_COUNT]) -> ([u32; STAGE_COUNT], u64) {
        let total = vals.iter().map(|&v| u64::from(v)).sum();
        (vals, total)
    }

    #[test]
    fn empty_finalize_is_zeroed() {
        let b = BreakdownCollector::new().finalize(99.0);
        assert_eq!(b.count, 0);
        assert_eq!(b.tail_count, 0);
        assert_eq!(b.stages.len(), STAGE_COUNT);
        assert!(b.tail_dominant().is_none());
    }

    #[test]
    fn shares_sum_to_one() {
        let mut c = BreakdownCollector::new();
        for i in 1..=100u32 {
            let mut v = [0u32; STAGE_COUNT];
            v[stage::NET_IN] = i;
            v[stage::CPU] = 2 * i;
            v[stage::WAKE] = i / 2;
            let (v, t) = row(v);
            c.record(v, t);
        }
        let b = c.finalize(99.0);
        let share_sum: f64 = b.stages.iter().map(|s| s.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-9, "share sum {share_sum}");
        let tail_sum: f64 = b.stages.iter().map(|s| s.tail_share).sum();
        assert!((tail_sum - 1.0).abs() < 1e-9, "tail share sum {tail_sum}");
    }

    #[test]
    fn tail_conditioning_picks_the_slow_stage() {
        // Most requests are CPU-dominated; the slowest 1% add a large
        // wake stall. The tail view must flip the dominant stage.
        let mut c = BreakdownCollector::new();
        for i in 0..1000u32 {
            let mut v = [0u32; STAGE_COUNT];
            v[stage::CPU] = 1_000;
            if i >= 990 {
                v[stage::WAKE] = 50_000;
            }
            let (v, t) = row(v);
            c.record(v, t);
        }
        let b = c.finalize(99.0);
        assert!(b.stage("cpu").unwrap().share.max(0.0) > 0.0);
        let dom = b.tail_dominant().expect("tail has mass");
        assert_eq!(dom.name, "wake");
        // The tail starts at the lower bound of 51 000's bucket, which
        // holds exactly the ten stalled requests.
        assert_eq!(b.tail_threshold_ns, 50_176);
        assert_eq!(b.tail_count, 10);
    }

    #[test]
    fn untiled_requests_are_counted_and_survive_reset() {
        let mut c = BreakdownCollector::new();
        let (v, t) = row([7; STAGE_COUNT]);
        c.record(v, t);
        assert_eq!(c.untiled(), 0);
        c.record(v, t + 1);
        c.record(v, t - 1);
        assert_eq!(c.untiled(), 2);
        c.reset();
        assert!(c.is_empty());
        assert_eq!(c.untiled(), 2);
    }

    /// A population drawn to hit the bucketed tail's edge cases: heavy
    /// ties, all-zero requests, and totals spread over many octaves. A
    /// few rows deliberately fail to tile.
    fn population(rng: &mut Rng, size: usize) -> (Vec<([u32; STAGE_COUNT], u64)>, f64) {
        let shape = rng.next_below(4);
        let rows = gen::vec_with(rng, size, 1, 400, |r| {
            let mut v = [0u32; STAGE_COUNT];
            match shape {
                // A handful of distinct vectors: ties everywhere.
                0 => v[r.next_below(3) as usize] = 1_000 * r.next_below(4) as u32,
                // Mostly zeros.
                1 => v[stage::CPU] = if r.next_below(8) == 0 { 70 } else { 0 },
                // Every stage spread across its whole u32 range.
                2 => {
                    for s in &mut v {
                        *s = (r.next_u64() >> (32 + r.next_below(32))) as u32;
                    }
                }
                // Clustered just around one bucket boundary (50 176).
                _ => v[stage::WAKE] = 50_100 + r.next_below(150) as u32,
            }
            let mut total: u64 = v.iter().map(|&x| u64::from(x)).sum();
            if r.next_below(50) == 0 {
                total += 1 + r.next_below(3);
            }
            (v, total)
        });
        let q = [0.0, 50.0, 90.0, 99.0, 99.9, 100.0][rng.next_below(6) as usize];
        (rows, q)
    }

    /// The streaming collector against the row-keeping oracle: every
    /// overall field is bit-identical, and the tail view is the oracle's
    /// widened to the whole bucket that holds its threshold.
    #[test]
    fn prop_streaming_matches_the_row_oracle() {
        Check::new("breakdown_streaming_vs_oracle").run(population, |(rows, q)| {
            let mut c = BreakdownCollector::new();
            for &(v, t) in rows {
                c.record(v, t);
            }
            let got = c.finalize(*q);
            let want = oracle::finalize(rows, *q);
            ensure_eq!(c.len(), rows.len());
            let untiled = rows
                .iter()
                .filter(|(v, t)| v.iter().map(|&x| u64::from(x)).sum::<u64>() != *t)
                .count();
            ensure_eq!(c.untiled(), untiled as u64);

            ensure_eq!(got.count, want.count);
            ensure_eq!(got.total_mean.to_bits(), want.total_mean.to_bits());
            ensure_eq!(
                got.tail_percentile.to_bits(),
                want.tail_percentile.to_bits()
            );
            for (g, w) in got.stages.iter().zip(&want.stages) {
                ensure_eq!(g.name, w.name);
                ensure_eq!(g.mean.to_bits(), w.mean.to_bits());
                ensure_eq!(g.share.to_bits(), w.share.to_bits());
                ensure_eq!(format!("{:?}", g.hist), format!("{:?}", w.hist));
            }

            let exact = want.tail_threshold_ns;
            let low = LogHistogram::bucket_low(LogHistogram::index(exact));
            ensure_eq!(got.tail_threshold_ns, low);
            let below_exact = rows.iter().filter(|&&(_, t)| low <= t && t < exact).count();
            ensure!(got.tail_count >= want.tail_count, "tail shrank");
            ensure_eq!(got.tail_count - want.tail_count, below_exact as u64);

            // The tail is exactly the requests at or above the threshold:
            // the oracle conditioned on that threshold agrees bit for bit.
            let tail: Vec<_> = rows
                .iter()
                .copied()
                .filter(|&(_, t)| t >= low && low > 0)
                .collect();
            let tail_view = oracle::finalize(&tail, 0.0);
            for (i, g) in got.stages.iter().enumerate() {
                let w = &tail_view.stages[i];
                ensure_eq!(g.tail_mean.to_bits(), w.mean.to_bits());
                ensure_eq!(g.tail_share.to_bits(), w.share.to_bits());
            }
            Ok(())
        });
    }

    /// A million totals spread over the whole `u64` range never grow the
    /// row table past one row per histogram bucket.
    #[test]
    fn row_table_is_bounded_by_the_bucket_count() {
        let buckets = LogHistogram::index(u64::MAX) + 1;
        let mut rng = Rng::new(0xB0B);
        let mut c = BreakdownCollector::new();
        for _ in 0..1_000_000 {
            let total = rng.next_u64() >> rng.next_below(64);
            c.record([0; STAGE_COUNT], total);
            assert!(c.rows.len() <= buckets, "{} rows", c.rows.len());
        }
        assert_eq!(c.len(), 1_000_000);
        assert_eq!(c.rows.len(), buckets, "the draw reaches the top bucket");
    }

    #[test]
    fn reset_clears_population() {
        let mut c = BreakdownCollector::new();
        let (v, t) = row([1; STAGE_COUNT]);
        c.record(v, t);
        assert_eq!(c.len(), 1);
        c.reset();
        assert!(c.is_empty());
        assert_eq!(c.finalize(99.0).count, 0);
    }

    #[test]
    fn stage_means_match_population() {
        let stage_vec = |rng: &mut check::Rng, size: usize| {
            gen::vec_with(rng, size, 1, 64, |r| gen::u64_in(r, 0, 12_000))
        };
        Check::new("breakdown_mean_consistency").run(stage_vec, |vals: &Vec<u64>| {
            let mut c = BreakdownCollector::new();
            for &v in vals {
                let mut s = [0u32; STAGE_COUNT];
                s[stage::NET_IN] = v as u32;
                let (s, t) = row(s);
                c.record(s, t);
            }
            let b = c.finalize(99.0);
            ensure_eq!(b.count, vals.len() as u64);
            let expect = vals.iter().sum::<u64>() as f64 / vals.len() as f64;
            ensure!(
                (b.stage("net_in").unwrap().mean - expect).abs() < 1e-6,
                "mean mismatch"
            );
            // Everything was attributed to one stage: its share is 1
            // unless the population sum is zero.
            if vals.iter().any(|&v| v > 0) {
                ensure!(
                    (b.stage("net_in").unwrap().share - 1.0).abs() < 1e-9,
                    "share"
                );
            }
            Ok(())
        });
    }
}
