//! # simstats — measurement utilities for the NCAP reproduction
//!
//! Latency percentiles, energy summaries, bandwidth/frequency traces and
//! plain-text table rendering used by the experiment harness to regenerate
//! the paper's tables and figures.
//!
//! The core types:
//!
//! * [`LogHistogram`] — a log-bucketed (HDR-style) histogram with bounded
//!   relative error, used for response-time distributions.
//! * [`LatencySummary`] — p50/p90/p95/p99/mean extracted from a histogram.
//! * [`TimeSeries`] and [`RateTrace`] — sampled values and windowed rates
//!   for the BW(Rx)/BW(Tx)/U/F snapshots (paper Figures 4, 8, 9).
//! * [`Table`] — fixed-width text tables for bench output.
//! * [`FleetAggregate`] — joint energy and dispatch-spread figures for
//!   multi-backend (fleet) runs.
//!
//! ## Example
//!
//! ```
//! use simstats::LogHistogram;
//!
//! let mut h = LogHistogram::new();
//! for v in 1..=1000u64 {
//!     h.record(v);
//! }
//! let p50 = h.percentile(50.0);
//! assert!((450..=550).contains(&p50));
//! ```

pub mod breakdown;
pub mod fleet;
pub mod histogram;
pub mod summary;
pub mod table;
pub mod timeseries;

pub use breakdown::{
    BreakdownCollector, LatencyBreakdown, StageBreakdown, STAGE_COUNT, STAGE_NAMES,
};
pub use fleet::{jain_fairness, FleetAggregate};
pub use histogram::LogHistogram;
pub use summary::{sla_curve_table, sla_knee, LatencySummary};
pub use table::{fmt_ns, pct, Table};
pub use timeseries::{BinningError, RateTrace, TimeSeries};
