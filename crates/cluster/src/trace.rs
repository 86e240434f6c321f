//! Bandwidth/frequency/C-state tracing for the paper's figures.
//!
//! Figures 4, 8(right) and 9(right) plot, over a window of a few hundred
//! milliseconds: the server's normalized receive/transmit bandwidth, core
//! utilization, the chip frequency, and (Figure 4(b)) per-C-state
//! residency. [`Traces`] holds those series and is the only place they are
//! recorded: the cluster simulation adds wire bytes to `rx`/`tx` where it
//! counts them and calls [`Traces::sample`] at the sampling period, then
//! mirrors the same values onto the global `simtrace` tracer so
//! `ncap trace` CSVs carry matching columns.

use cpusim::PowerMode;
use desim::{SimDuration, SimTime};
use simstats::{RateTrace, TimeSeries};

/// What to trace and at which granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Bandwidth accumulation window (also the sampling period for
    /// frequency/utilization).
    pub window: SimDuration,
}

impl TraceConfig {
    /// A 1 ms-window trace — enough resolution for the 200 ms snapshots.
    #[must_use]
    pub fn per_ms() -> Self {
        TraceConfig {
            window: SimDuration::from_ms(1),
        }
    }
}

/// The collected series.
#[derive(Debug)]
pub struct Traces {
    /// Wire bytes received by the server per window.
    pub rx: RateTrace,
    /// Wire bytes transmitted by the server per window.
    pub tx: RateTrace,
    /// Core-0 frequency samples (GHz).
    pub freq: TimeSeries,
    /// All-core utilization samples (0..=1).
    pub util: TimeSeries,
    /// Per-window time share in C1/C3/C6 (0..=1 of total core-time).
    pub cstate_share: [TimeSeries; 3],
    /// NCAP proactive-interrupt instants (`INT (wake)` markers).
    pub wake_markers: Vec<SimTime>,
    /// Cumulative served-request samples (goodput: rejected requests
    /// excluded).
    pub goodput: TimeSeries,
    /// Cumulative resolved-request samples (throughput: served +
    /// rejected) — diverges from goodput under overload.
    pub throughput: TimeSeries,
    last_busy: SimDuration,
    last_cstate: [SimDuration; 3],
    last_sample: SimTime,
}

impl Traces {
    /// Creates empty traces with the given window.
    #[must_use]
    pub fn new(config: TraceConfig) -> Self {
        let w = config.window.as_nanos();
        Traces {
            rx: RateTrace::new("bw_rx", w),
            tx: RateTrace::new("bw_tx", w),
            freq: TimeSeries::new("freq_ghz"),
            util: TimeSeries::new("utilization"),
            cstate_share: [
                TimeSeries::new("t_c1"),
                TimeSeries::new("t_c3"),
                TimeSeries::new("t_c6"),
            ],
            wake_markers: Vec::new(),
            goodput: TimeSeries::new("goodput"),
            throughput: TimeSeries::new("throughput"),
            last_busy: SimDuration::ZERO,
            last_cstate: [SimDuration::ZERO; 3],
            last_sample: SimTime::ZERO,
        }
    }

    /// Records one periodic sample from aggregate core statistics.
    pub fn sample(
        &mut self,
        now: SimTime,
        freq_ghz: f64,
        total_busy: SimDuration,
        cstate_time: [SimDuration; 3],
        cores: usize,
    ) {
        let elapsed = now.saturating_since(self.last_sample);
        if !elapsed.is_zero() {
            let denom = elapsed.as_secs_f64() * cores as f64;
            let busy_delta = total_busy.saturating_sub(self.last_busy);
            self.util
                .push(now.as_nanos(), busy_delta.as_secs_f64() / denom);
            for (i, &t) in cstate_time.iter().enumerate() {
                let d = t.saturating_sub(self.last_cstate[i]);
                self.cstate_share[i].push(now.as_nanos(), d.as_secs_f64() / denom);
            }
        }
        self.freq.push(now.as_nanos(), freq_ghz);
        self.last_sample = now;
        self.last_busy = total_busy;
        self.last_cstate = cstate_time;
    }

    /// Per-mode C-state time series name helper.
    #[must_use]
    pub fn cstate_modes() -> [PowerMode; 3] {
        [PowerMode::SleepC1, PowerMode::SleepC3, PowerMode::SleepC6]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_computes_deltas() {
        let mut t = Traces::new(TraceConfig::per_ms());
        t.sample(
            SimTime::ZERO,
            0.8,
            SimDuration::ZERO,
            [SimDuration::ZERO; 3],
            4,
        );
        t.sample(
            SimTime::from_ms(1),
            3.1,
            SimDuration::from_ms(2), // 2 ms busy over 4 core-ms = 50 %
            [
                SimDuration::from_ms(1),
                SimDuration::ZERO,
                SimDuration::from_ms(1),
            ],
            4,
        );
        assert_eq!(t.util.len(), 1);
        let (_, u) = t.util.iter().next().unwrap();
        assert!((u - 0.5).abs() < 1e-9);
        let (_, c1) = t.cstate_share[0].iter().next().unwrap();
        assert!((c1 - 0.25).abs() < 1e-9);
        assert_eq!(t.freq.last_value(), Some(3.1));
    }

    #[test]
    fn rx_tx_traces_accumulate() {
        let mut t = Traces::new(TraceConfig::per_ms());
        t.rx.add(500_000, 1000.0);
        t.tx.add(1_500_000, 2000.0);
        assert_eq!(t.rx.finish(2_000_000), vec![1000.0, 0.0]);
        assert_eq!(t.tx.finish(2_000_000), vec![0.0, 2000.0]);
    }

    #[test]
    fn new_traces_are_empty() {
        let t = Traces::new(TraceConfig::per_ms());
        assert!(t.freq.is_empty());
        assert!(t.util.is_empty());
        assert_eq!(t.rx.finish(1_000_000), vec![0.0]);
    }
}
