//! # simtrace — structured event tracing and metrics for the simulator
//!
//! The observability layer of the NCAP reproduction: a typed event tracer
//! (spans, instants, counters keyed by `(component, name)`, recorded into
//! a preallocated drop-oldest ring) plus a metrics registry (named
//! counters/gauges bumped on hot paths, snapshotable at any instant), and
//! two exporters — Chrome trace-event JSON for Perfetto and windowed CSV
//! for the `stats` plotting path.
//!
//! ## The global tracer
//!
//! Instrumentation sites call the free functions below ([`instant`],
//! [`span_begin`], [`metric_add`], …). They are no-ops — a single
//! thread-local boolean branch — until a tracer is [`install`]ed, so
//! always-on instrumentation costs nothing in untraced runs and never
//! mutates simulation state (tracing is observer-effect-free by
//! construction). The tracer is thread-local: each experiment runs wholly
//! on one thread, so parallel experiment batches trace independently.
//!
//! ```
//! use simtrace::{arg, install, uninstall, TracerConfig};
//!
//! install(TracerConfig::default());
//! simtrace::span_begin("kernel", "work", 1_000, 0);
//! simtrace::span_end("kernel", "work", 2_500, 0);
//! simtrace::instant_args("nic", "irq_posted", 2_600, &[arg("queue", 0u64)]);
//! simtrace::metric_add("nic", "rx_bytes", 2_600, 1500.0);
//! let data = uninstall().unwrap();
//! assert_eq!(data.events.len(), 3);
//! assert!(data.to_chrome_json().contains("\"irq_posted\""));
//! ```
//!
//! Timestamps are raw nanoseconds (`SimTime::as_nanos()`): this crate
//! deliberately depends on nothing so that every layer, `desim` included,
//! can be instrumented.

mod chrome;
mod csv;
mod event;
mod metrics;
mod tracer;

pub use event::{arg, Arg, ArgValue, EventKind, TraceEvent};
pub use metrics::{MetricKind, MetricSnapshot, MetricsSnapshot};
pub use tracer::{TraceData, Tracer, TracerConfig};

use std::cell::{Cell, RefCell};

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Installs a fresh tracer on this thread; subsequent recording helpers
/// are live until [`uninstall`].
pub fn install(config: TracerConfig) {
    TRACER.with(|t| *t.borrow_mut() = Some(Tracer::new(config)));
    ENABLED.with(|e| e.set(true));
}

/// Stops tracing on this thread and returns the collected data, if a
/// tracer was installed.
pub fn uninstall() -> Option<TraceData> {
    ENABLED.with(|e| e.set(false));
    TRACER
        .with(|t| t.borrow_mut().take())
        .map(Tracer::into_data)
}

/// `true` while a tracer is installed on this thread. The recording
/// helpers check this themselves; call it only to skip *preparing*
/// expensive arguments.
#[inline]
#[must_use]
pub fn is_enabled() -> bool {
    ENABLED.with(Cell::get)
}

#[inline]
fn with_tracer<R>(f: impl FnOnce(&mut Tracer) -> R) -> Option<R> {
    if !is_enabled() {
        return None;
    }
    TRACER.with(|t| t.borrow_mut().as_mut().map(f))
}

/// Scopes subsequent events/metrics to `node` (stamped onto each event).
#[inline]
pub fn set_node(node: u16) {
    with_tracer(|t| t.set_node(node));
}

#[inline]
fn record(
    component: &'static str,
    name: &'static str,
    ts_ns: u64,
    lane: u32,
    kind: EventKind,
    args: &[Arg],
) {
    with_tracer(|t| {
        t.record(TraceEvent {
            ts_ns,
            node: 0, // stamped by the tracer
            lane,
            component,
            name,
            kind,
            args: args.to_vec(),
        });
    });
}

/// Records a point event.
#[inline]
pub fn instant(component: &'static str, name: &'static str, ts_ns: u64) {
    record(component, name, ts_ns, 0, EventKind::Instant, &[]);
}

/// Records a point event with arguments (see [`arg`]).
#[inline]
pub fn instant_args(component: &'static str, name: &'static str, ts_ns: u64, args: &[Arg]) {
    record(component, name, ts_ns, 0, EventKind::Instant, args);
}

/// Opens a synchronous span on `(component, lane)`.
#[inline]
pub fn span_begin(component: &'static str, name: &'static str, ts_ns: u64, lane: u32) {
    record(component, name, ts_ns, lane, EventKind::Begin, &[]);
}

/// Opens a synchronous span with arguments.
#[inline]
pub fn span_begin_args(
    component: &'static str,
    name: &'static str,
    ts_ns: u64,
    lane: u32,
    args: &[Arg],
) {
    record(component, name, ts_ns, lane, EventKind::Begin, args);
}

/// Closes the innermost synchronous span on `(component, lane)`.
#[inline]
pub fn span_end(component: &'static str, name: &'static str, ts_ns: u64, lane: u32) {
    record(component, name, ts_ns, lane, EventKind::End, &[]);
}

/// Records a self-contained span of `dur_ns` nanoseconds (zero for
/// point-like work such as a governor decision).
#[inline]
pub fn complete(
    component: &'static str,
    name: &'static str,
    ts_ns: u64,
    dur_ns: u64,
    args: &[Arg],
) {
    record(
        component,
        name,
        ts_ns,
        0,
        EventKind::Complete { dur_ns },
        args,
    );
}

/// Opens an async (overlap-safe) span; returns the correlation id to pass
/// to [`async_end`], or 0 when tracing is disabled.
#[inline]
pub fn async_begin(component: &'static str, name: &'static str, ts_ns: u64, args: &[Arg]) -> u64 {
    with_tracer(|t| {
        let id = t.next_async_id();
        t.record(TraceEvent {
            ts_ns,
            node: 0,
            lane: 0,
            component,
            name,
            kind: EventKind::AsyncBegin { id },
            args: args.to_vec(),
        });
        id
    })
    .unwrap_or(0)
}

/// Closes the async span opened by [`async_begin`]. A zero id (disabled
/// tracing at begin time) records nothing.
#[inline]
pub fn async_end(component: &'static str, name: &'static str, ts_ns: u64, id: u64) {
    if id == 0 {
        return;
    }
    record(component, name, ts_ns, 0, EventKind::AsyncEnd { id }, &[]);
}

/// Records a counter-track sample.
#[inline]
pub fn counter(component: &'static str, name: &'static str, ts_ns: u64, value: f64) {
    record(component, name, ts_ns, 0, EventKind::Counter { value }, &[]);
}

/// Adds to a registry counter (running total + window bin at `ts_ns`).
#[inline]
pub fn metric_add(component: &'static str, name: &'static str, ts_ns: u64, amount: f64) {
    with_tracer(|t| t.metrics_mut().add(component, name, ts_ns, amount));
}

/// Adds to a registry counter's running total only (no timestamp in
/// scope at the call site).
#[inline]
pub fn metric_add_cum(component: &'static str, name: &'static str, amount: f64) {
    with_tracer(|t| t.metrics_mut().add_cum(component, name, amount));
}

/// Sets a registry gauge at `ts_ns`.
#[inline]
pub fn metric_set(component: &'static str, name: &'static str, ts_ns: u64, value: f64) {
    with_tracer(|t| t.metrics_mut().set(component, name, ts_ns, value));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_helpers_are_noops() {
        assert!(!is_enabled());
        instant("c", "n", 0);
        span_begin("c", "n", 0, 0);
        span_end("c", "n", 1, 0);
        metric_add("c", "n", 0, 1.0);
        assert_eq!(async_begin("c", "n", 0, &[]), 0);
        async_end("c", "n", 1, 0);
        assert!(uninstall().is_none());
    }

    #[test]
    fn install_record_uninstall_roundtrip() {
        install(TracerConfig::default().with_capacity(16));
        assert!(is_enabled());
        set_node(3);
        instant("nic", "irq", 10);
        complete("core", "rate_eval", 20, 0, &[arg("rps", 1.5f64)]);
        let id = async_begin("net", "transit", 30, &[arg("bytes", 100usize)]);
        assert!(id > 0);
        async_end("net", "transit", 40, id);
        counter("nic", "backlog", 50, 2.0);
        metric_add("nic", "rx", 60, 1500.0);
        metric_add_cum("core", "matches", 1.0);
        metric_set("cpu", "freq", 70, 3.1);
        let data = uninstall().unwrap();
        assert!(!is_enabled());
        assert_eq!(data.events.len(), 5);
        assert!(data.events.iter().all(|e| e.node == 3));
        assert_eq!(data.metrics.len(), 3);
        assert_eq!(data.metrics.get("nic", "rx").unwrap().value, 1500.0);
        // A second install starts clean.
        install(TracerConfig::default().with_capacity(16));
        let clean = uninstall().unwrap();
        assert!(clean.events.is_empty());
        assert_eq!(clean.events.len(), 0);
    }

    #[test]
    fn reinstall_resets_node_scope() {
        install(TracerConfig::default());
        set_node(7);
        install(TracerConfig::default());
        instant("c", "n", 0);
        let data = uninstall().unwrap();
        assert_eq!(data.events[0].node, 0);
    }
}
