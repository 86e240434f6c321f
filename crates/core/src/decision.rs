//! DecisionEngine: turning counter rates into proactive interrupts.
//!
//! Paper §4.3 / Figure 5(c). Two events trigger the engine:
//!
//! 1. **MITT expiry** (every 40–100 µs): compute `ReqRate` and `TxRate`
//!    from the counter deltas. If `ReqRate > RHT` and the processor is
//!    not already at maximum frequency, post `IT_HIGH | IT_RX`. If both
//!    `ReqRate < RLT` and `TxRate < TLT` have held for the low-activity
//!    window (1 ms), post `IT_LOW` — and keep posting one per further
//!    window while activity stays low and the frequency is not yet at
//!    minimum (the FCONS descent).
//! 2. **ReqCnt change** (a latency-critical request arrived): if the
//!    processor has not been interrupted for longer than CIT, the cores
//!    are speculatively in a C-state — post an immediate `IT_RX` so the
//!    target core starts waking while the packet is still being DMA'd.
//!
//! The engine mirrors the processor's frequency extremes (`at_max` /
//! `at_min`) the way the real hardware would: the NCAP driver wrote them
//! back to the NIC after applying each change.

use crate::config::NcapConfig;
use crate::icr::IcrFlags;
use crate::req_monitor::ReqMonitor;
use crate::sysfs::Sysfs;
use crate::tx_counter::TxBytesCounter;
use desim::SimTime;
use netsim::Packet;

/// One MITT-window rate observation (exposed for tests and traces).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateSample {
    /// Latency-critical requests per second over the last window.
    pub req_rate_rps: f64,
    /// Transmitted bits per second over the last window.
    pub tx_rate_bps: f64,
}

/// The rate-threshold decision logic (paper Figure 5(c)).
#[derive(Debug, Clone)]
pub struct DecisionEngine {
    config: NcapConfig,
    prev_req_cnt: u64,
    prev_tx_bytes: u64,
    last_mitt: Option<SimTime>,
    low_since: Option<SimTime>,
    last_low_emit: Option<SimTime>,
    last_interrupt: SimTime,
    freq_at_max: bool,
    freq_at_min: bool,
    last_sample: Option<RateSample>,
    high_posted: u64,
    low_posted: u64,
    wake_posted: u64,
}

impl DecisionEngine {
    /// Creates an engine with the given thresholds.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`NcapConfig::validate`].
    #[must_use]
    pub fn new(config: NcapConfig) -> Self {
        config.validate().expect("invalid NCAP configuration");
        DecisionEngine {
            config,
            prev_req_cnt: 0,
            prev_tx_bytes: 0,
            last_mitt: None,
            low_since: None,
            last_low_emit: None,
            last_interrupt: SimTime::ZERO,
            freq_at_max: false,
            freq_at_min: false,
            last_sample: None,
            high_posted: 0,
            low_posted: 0,
            wake_posted: 0,
        }
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &NcapConfig {
        &self.config
    }

    /// Driver write-back: the processor's frequency extremes after the
    /// last applied change.
    pub fn note_freq_status(&mut self, at_max: bool, at_min: bool) {
        debug_assert!(!(at_max && at_min), "frequency cannot be both extremes");
        self.freq_at_max = at_max;
        self.freq_at_min = at_min;
    }

    /// Records that *any* interrupt was posted to the processor at `now`
    /// (NCAP or ordinary RX/TX moderation) — the CIT silence clock.
    pub fn note_interrupt_posted(&mut self, now: SimTime) {
        self.last_interrupt = now;
    }

    /// A latency-critical request was detected at `now` (ReqCnt changed).
    /// Returns an immediate `IT_RX` if the processor has been quiet
    /// longer than CIT.
    pub fn on_request_detected(&mut self, now: SimTime) -> Option<IcrFlags> {
        if now.saturating_since(self.last_interrupt) > self.config.cit {
            self.wake_posted += 1;
            if simtrace::is_enabled() {
                let t = now.as_nanos();
                simtrace::instant("core", "cit_wake", t);
                simtrace::metric_add("core", "cit_wakes", t, 1.0);
            }
            Some(IcrFlags::IT_RX)
        } else {
            None
        }
    }

    /// MITT expiry at `now` with current counter snapshots. Returns the
    /// interrupt cause to post, if any.
    pub fn on_mitt_expiry(
        &mut self,
        now: SimTime,
        req_cnt: u64,
        tx_bytes: u64,
    ) -> Option<IcrFlags> {
        let elapsed = match self.last_mitt.replace(now) {
            Some(prev) if now > prev => now.saturating_since(prev),
            _ => {
                // First expiry: establish the baseline only.
                self.prev_req_cnt = req_cnt;
                self.prev_tx_bytes = tx_bytes;
                return None;
            }
        };
        let d_req = req_cnt.saturating_sub(self.prev_req_cnt);
        let d_tx = tx_bytes.saturating_sub(self.prev_tx_bytes);
        self.prev_req_cnt = req_cnt;
        self.prev_tx_bytes = tx_bytes;
        let secs = elapsed.as_secs_f64();
        let sample = RateSample {
            req_rate_rps: d_req as f64 / secs,
            tx_rate_bps: d_tx as f64 * 8.0 / secs,
        };
        self.last_sample = Some(sample);
        if simtrace::is_enabled() {
            simtrace::complete(
                "core",
                "rate_eval",
                now.as_nanos(),
                0,
                &[
                    simtrace::arg("req_rps", sample.req_rate_rps),
                    simtrace::arg("tx_bps", sample.tx_rate_bps),
                ],
            );
        }

        if sample.req_rate_rps > self.config.rht_rps {
            // Burst of latency-critical requests.
            self.low_since = None;
            self.last_low_emit = None;
            if !self.freq_at_max {
                self.high_posted += 1;
                simtrace::metric_add("core", "verdict_high", now.as_nanos(), 1.0);
                return Some(IcrFlags::IT_HIGH | IcrFlags::IT_RX);
            }
            return None;
        }

        if sample.req_rate_rps < self.config.rlt_rps && sample.tx_rate_bps < self.config.tlt_bps {
            let since = *self.low_since.get_or_insert(now);
            let anchor = self.last_low_emit.unwrap_or(since);
            if now.saturating_since(anchor) >= self.config.low_activity_window && !self.freq_at_min
            {
                self.last_low_emit = Some(now);
                self.low_posted += 1;
                simtrace::metric_add("core", "verdict_low", now.as_nanos(), 1.0);
                return Some(IcrFlags::IT_LOW);
            }
        } else {
            self.low_since = None;
            self.last_low_emit = None;
        }
        None
    }

    /// The most recent rate observation.
    #[must_use]
    pub fn last_sample(&self) -> Option<RateSample> {
        self.last_sample
    }

    /// Counts of posted (`IT_HIGH`, `IT_LOW`, immediate `IT_RX`) causes.
    #[must_use]
    pub fn posted_counts(&self) -> (u64, u64, u64) {
        (self.high_posted, self.low_posted, self.wake_posted)
    }
}

/// The complete NCAP hardware block embedded in the enhanced NIC:
/// ReqMonitor + TxBytesCounter + DecisionEngine (paper Figure 5(a)).
#[derive(Debug, Clone)]
pub struct NcapHardware {
    monitor: ReqMonitor,
    tx: TxBytesCounter,
    engine: DecisionEngine,
}

impl NcapHardware {
    /// Builds the block and programs the default latency-critical
    /// templates through sysfs, as the driver init subroutine does.
    #[must_use]
    pub fn new(config: NcapConfig) -> Self {
        let mut sysfs = Sysfs::new();
        sysfs.program_default_templates();
        let mut monitor = ReqMonitor::new();
        monitor.program_from_sysfs(&sysfs);
        monitor.set_match_all(!config.context_aware);
        NcapHardware {
            monitor,
            tx: TxBytesCounter::new(),
            engine: DecisionEngine::new(config),
        }
    }

    /// Inspects a received frame; may return an immediate wake interrupt.
    pub fn on_rx_frame(&mut self, now: SimTime, frame: &Packet) -> Option<IcrFlags> {
        if self.monitor.inspect(frame) {
            self.engine.on_request_detected(now)
        } else {
            None
        }
    }

    /// Accounts one transmitted frame.
    pub fn on_tx_frame(&mut self, wire_bytes: usize) {
        self.tx.on_transmit(wire_bytes);
    }

    /// MITT expiry: evaluates rates against the thresholds.
    pub fn on_mitt_expiry(&mut self, now: SimTime) -> Option<IcrFlags> {
        self.engine
            .on_mitt_expiry(now, self.monitor.req_cnt(), self.tx.tx_bytes())
    }

    /// See [`DecisionEngine::note_interrupt_posted`].
    pub fn note_interrupt_posted(&mut self, now: SimTime) {
        self.engine.note_interrupt_posted(now);
    }

    /// See [`DecisionEngine::note_freq_status`].
    pub fn note_freq_status(&mut self, at_max: bool, at_min: bool) {
        self.engine.note_freq_status(at_max, at_min);
    }

    /// The embedded request monitor.
    #[must_use]
    pub fn monitor(&self) -> &ReqMonitor {
        &self.monitor
    }

    /// The embedded transmit counter.
    #[must_use]
    pub fn tx_counter(&self) -> &TxBytesCounter {
        &self.tx
    }

    /// The embedded decision engine.
    #[must_use]
    pub fn engine(&self) -> &DecisionEngine {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use check::{ensure, gen, Check};
    use desim::SimDuration;
    use netsim::http::HttpRequest;
    use netsim::packet::NodeId;

    fn cfg() -> NcapConfig {
        NcapConfig::paper_defaults()
    }

    fn get_frame(id: u64) -> Packet {
        Packet::request(
            NodeId(1),
            NodeId(0),
            id,
            HttpRequest::get("/x").to_payload(),
        )
    }

    #[test]
    fn first_expiry_only_baselines() {
        let mut e = DecisionEngine::new(cfg());
        assert_eq!(e.on_mitt_expiry(SimTime::from_us(50), 100, 0), None);
        assert!(e.last_sample().is_none());
    }

    #[test]
    fn high_rate_posts_it_high_once() {
        let mut e = DecisionEngine::new(cfg());
        e.on_mitt_expiry(SimTime::from_us(50), 0, 0);
        // 10 requests in 50 us = 200 K rps >> RHT.
        let icr = e.on_mitt_expiry(SimTime::from_us(100), 10, 0).unwrap();
        assert!(icr.contains(IcrFlags::IT_HIGH | IcrFlags::IT_RX));
        // Driver set F to max and wrote status back: no more IT_HIGH.
        e.note_freq_status(true, false);
        assert_eq!(e.on_mitt_expiry(SimTime::from_us(150), 20, 0), None);
        assert_eq!(e.posted_counts().0, 1);
    }

    #[test]
    fn low_activity_posts_it_low_after_window() {
        let mut e = DecisionEngine::new(cfg());
        e.note_freq_status(true, false);
        let mut t = SimTime::ZERO;
        let mut first_low = None;
        for _ in 0..60 {
            t += SimDuration::from_us(50);
            if let Some(icr) = e.on_mitt_expiry(t, 0, 0) {
                assert!(icr.contains(IcrFlags::IT_LOW));
                first_low = Some(t);
                break;
            }
        }
        // First IT_LOW arrives once the 1 ms window has elapsed.
        let first_low = first_low.expect("IT_LOW was never posted");
        assert!(first_low >= SimTime::from_ms(1));
        assert!(first_low <= SimTime::from_nanos(1_100_000));
    }

    #[test]
    fn it_low_repeats_each_window_until_min() {
        let mut e = DecisionEngine::new(cfg());
        e.note_freq_status(false, false);
        let mut t = SimTime::ZERO;
        let mut lows = Vec::new();
        for _ in 0..200 {
            t += SimDuration::from_us(50);
            if let Some(icr) = e.on_mitt_expiry(t, 0, 0) {
                if icr.contains(IcrFlags::IT_LOW) {
                    lows.push(t);
                }
            }
        }
        assert!(lows.len() >= 5, "expected repeated IT_LOWs, got {lows:?}");
        // Consecutive IT_LOWs are one window apart.
        for w in lows.windows(2) {
            assert!(w[1].saturating_since(w[0]) >= SimDuration::from_ms(1));
        }
        // Once at minimum frequency, the descent stops.
        e.note_freq_status(false, true);
        for _ in 0..40 {
            t += SimDuration::from_us(50);
            assert_eq!(e.on_mitt_expiry(t, 0, 0), None);
        }
    }

    #[test]
    fn activity_resets_the_low_window() {
        let mut e = DecisionEngine::new(cfg());
        e.note_freq_status(true, false);
        let mut t = SimTime::ZERO;
        let mut req = 0u64;
        let mut tx = 0u64;
        for i in 0..100 {
            t += SimDuration::from_us(50);
            // Every ~0.9 ms, one window of TX traffic above TLT resets it.
            if i % 18 == 17 {
                tx += 10_000; // 10 KB in 50 us = 1.6 Gbps >> TLT
            }
            req += 0; // no requests
            assert_eq!(e.on_mitt_expiry(t, req, tx), None, "at {t}");
        }
    }

    #[test]
    fn cit_wake_on_request_after_silence() {
        let mut e = DecisionEngine::new(cfg());
        e.note_interrupt_posted(SimTime::ZERO);
        // 100 us after an interrupt: inside CIT, no wake.
        assert_eq!(e.on_request_detected(SimTime::from_us(100)), None);
        // 600 us of silence: beyond CIT = 500 us → immediate IT_RX.
        assert_eq!(
            e.on_request_detected(SimTime::from_us(600)),
            Some(IcrFlags::IT_RX)
        );
        assert_eq!(e.posted_counts().2, 1);
    }

    #[test]
    fn hardware_block_end_to_end_burst() {
        let mut hw = NcapHardware::new(cfg());
        hw.note_freq_status(false, false);
        hw.note_interrupt_posted(SimTime::ZERO);
        // Baseline MITT.
        hw.on_mitt_expiry(SimTime::from_us(50));
        // A burst of GETs lands within one MITT window.
        for i in 0..10 {
            let icr = hw.on_rx_frame(SimTime::from_us(60 + i), &get_frame(i));
            assert_eq!(icr, None, "CIT not exceeded: no immediate wake");
        }
        let icr = hw.on_mitt_expiry(SimTime::from_us(100)).unwrap();
        assert!(icr.contains(IcrFlags::IT_HIGH));
        assert_eq!(hw.monitor().req_cnt(), 10);
    }

    #[test]
    fn hardware_block_cit_wake() {
        let mut hw = NcapHardware::new(cfg());
        hw.note_interrupt_posted(SimTime::ZERO);
        let icr = hw.on_rx_frame(SimTime::from_ms(2), &get_frame(1));
        assert_eq!(icr, Some(IcrFlags::IT_RX));
        // A PUT after silence does not wake anything: context-awareness.
        let put = Packet::request(NodeId(1), NodeId(0), 2, HttpRequest::put("/x").to_payload());
        let mut hw2 = NcapHardware::new(cfg());
        hw2.note_interrupt_posted(SimTime::ZERO);
        assert_eq!(hw2.on_rx_frame(SimTime::from_ms(2), &put), None);
    }

    /// Invariant `DecisionEngine hysteresis`: threshold discipline under
    /// arbitrary traffic. IT_HIGH only fires when the window's request
    /// rate exceeds RHT (and F is not at max); IT_LOW never fires within
    /// the low-activity window of the last activity or the last IT_LOW.
    #[test]
    fn prop_threshold_discipline() {
        Check::new("decision_threshold_discipline").run(
            |rng, size| gen::vec_with(rng, size, 10, 120, |r| r.next_below(20)),
            |reqs_per_window| {
                let cfg = NcapConfig::paper_defaults();
                let window_us = 50u64;
                let mut e = DecisionEngine::new(cfg.clone());
                let mut t = SimTime::ZERO;
                let mut req_cnt = 0u64;
                let mut last_active = SimTime::ZERO;
                let mut last_low: Option<SimTime> = None;
                // First expiry baselines.
                e.on_mitt_expiry(t, req_cnt, 0);
                for &n in reqs_per_window {
                    t += SimDuration::from_us(window_us);
                    req_cnt += n;
                    let rate = n as f64 / (window_us as f64 * 1e-6);
                    let out = e.on_mitt_expiry(t, req_cnt, 0);
                    if rate >= cfg.rlt_rps {
                        last_active = t;
                        last_low = None;
                    }
                    if let Some(icr) = out {
                        if icr.contains(IcrFlags::IT_HIGH) {
                            ensure!(rate > cfg.rht_rps, "IT_HIGH at rate {rate}");
                            e.note_freq_status(true, false);
                            last_low = None;
                        }
                        if icr.contains(IcrFlags::IT_LOW) {
                            let anchor = last_low.unwrap_or(last_active).max(last_active);
                            ensure!(
                                t.saturating_since(anchor) >= cfg.low_activity_window,
                                "early IT_LOW at {t}"
                            );
                            e.note_freq_status(false, false);
                            last_low = Some(t);
                        }
                    } else if rate > cfg.rht_rps {
                        // No IT_HIGH above RHT is only legal when already at max.
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn tx_counting_flows_into_rates() {
        let mut hw = NcapHardware::new(cfg());
        hw.note_freq_status(true, false);
        hw.on_mitt_expiry(SimTime::from_us(50));
        hw.on_tx_frame(50_000); // 8 Gbps over 50 us
        hw.on_mitt_expiry(SimTime::from_us(100));
        let s = hw.engine().last_sample().unwrap();
        assert!(s.tx_rate_bps > 5e6, "tx rate {s:?}");
    }
}
