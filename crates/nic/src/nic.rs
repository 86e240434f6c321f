//! The NIC façade: rings + DMA + moderation + (optionally) NCAP.
//!
//! Receive path (paper Figure 3): a frame arriving on the wire consumes
//! an RX descriptor, is DMA'd into an skb in main memory, raises the
//! `IT_RX` cause, and an interrupt is posted at the next MITT expiry.
//! With NCAP configured, the hardware inspects the frame *as it arrives*
//! — before DMA completes — which is exactly how NCAP overlaps the
//! processor wake-up with packet delivery (§4.3): an immediate `IT_RX`
//! (CIT rule) or an `IT_HIGH` (rate rule, at MITT expiry) reaches the
//! processor while the payload is still in flight to memory.

use crate::dma::DmaEngine;
use crate::moderation::{DelayTimers, ModerationTimer};
use crate::ring::DescriptorRing;
use desim::{SimDuration, SimTime, TimerSlot};
use ncap::{IcrFlags, NcapConfig, NcapHardware};
use netsim::Packet;
use std::collections::VecDeque;

/// TX descriptor ring size.
pub const TX_RING: usize = 256;
/// DMA bandwidth between NIC and main memory (bits/s).
pub const DMA_BANDWIDTH_BPS: u64 = 20_000_000_000;
/// Fixed per-frame DMA cost (descriptor fetch + PCIe transactions).
pub const DMA_BASE_LATENCY: SimDuration = SimDuration::from_us(15);
/// Absolute interrupt throttling timer (AITT): max delay from the first
/// pending frame to the interrupt.
pub const AITT: SimDuration = SimDuration::from_us(100);
/// Packet interrupt throttling timer (PITT): packet-silence gap that
/// triggers the interrupt early under light traffic.
pub const PITT: SimDuration = SimDuration::from_us(20);
/// Latency of one ICR read over PCIe (charged by the ISR).
pub const ICR_READ_LATENCY: SimDuration = SimDuration::from_us(2);

/// Fraction of host RX/TX stack cycles a TCP offload engine absorbs
/// (paper §7: a typical full-termination TOE).
pub const TOE_STACK_OFFLOAD: f64 = 0.7;
/// Per-frame hold time inside a TOE NIC (protocol processing on the
/// NIC's own engine) before the DMA to host memory begins.
pub const TOE_HOLD: SimDuration = SimDuration::from_us(10);

/// Static configuration of a NIC instance.
#[derive(Debug, Clone)]
pub struct NicConfig {
    /// RX descriptor ring size.
    pub rx_ring: usize,
    /// Master interrupt throttling timer period.
    pub mitt_period: SimDuration,
    /// NCAP hardware configuration; `None` for a conventional NIC.
    pub ncap: Option<NcapConfig>,
    /// A TCP offload engine terminates parts of the TCP stack on the NIC
    /// ([`TOE_STACK_OFFLOAD`], [`TOE_HOLD`]), cutting the per-packet
    /// cycles the host kernel spends at the cost of holding packets
    /// longer inside the NIC. `false` is a conventional NIC (the paper's
    /// evaluated configuration — TOE is the §7 discussion).
    pub toe: bool,
    /// Number of receive queues with their own MSI-X vectors (RSS).
    /// The paper's evaluated 82574 is single-queue; multi-queue is the
    /// §7 extension where "the target core for packet/request processing
    /// is known".
    pub queues: usize,
}

impl NicConfig {
    /// An Intel 82574GI-like single-queue controller (Table 1) without
    /// NCAP.
    #[must_use]
    pub fn i82574_like() -> Self {
        NicConfig {
            rx_ring: 256,
            mitt_period: SimDuration::from_us(50),
            ncap: None,
            toe: false,
            queues: 1,
        }
    }

    /// The same controller with the NCAP hardware blocks enabled.
    #[must_use]
    pub fn with_ncap(mut self, ncap: NcapConfig) -> Self {
        self.mitt_period = ncap.mitt_period;
        self.ncap = Some(ncap);
        self
    }

    /// Configures `queues` RSS receive queues (§7 extension).
    ///
    /// # Panics
    ///
    /// Panics if `queues` is zero.
    #[must_use]
    pub fn with_queues(mut self, queues: usize) -> Self {
        assert!(queues > 0, "a NIC needs at least one queue");
        self.queues = queues;
        self
    }
}

/// Result of a frame arriving on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxOutcome {
    /// The RSS queue the flow hashed to.
    pub queue: usize,
    /// Completion instant of the DMA into main memory; `None` when the
    /// frame was dropped (RX ring full).
    pub dma_complete_at: Option<SimTime>,
    /// `true` when NCAP posted an immediate wake-up interrupt (CIT rule)
    /// and that queue's IRQ vector was just asserted.
    pub immediate_irq: bool,
    /// `true` when the frame was dropped on a full ring and the receiver
    /// overrun cause ([`IcrFlags::RXO`]) asserted the vector immediately
    /// — overflow backpressure bypasses interrupt moderation so the
    /// driver drains the ring before more traffic is lost.
    pub overflow_irq: bool,
}

/// Result of handing a frame to the TX path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxOutcome {
    /// When the frame has been DMA'd into the NIC and hits the wire.
    pub ready_at: SimTime,
}

/// One RSS receive queue: descriptor ring, pending frames, delay timers
/// and its own MSI-X interrupt vector state.
#[derive(Debug)]
struct RxQueue {
    ring: DescriptorRing,
    in_flight: VecDeque<Packet>,
    pending: VecDeque<Packet>,
    delay: DelayTimers,
    delay_slot: TimerSlot,
    cause: IcrFlags,
    irq_asserted: bool,
    last_irq: Option<SimTime>,
    irqs_posted: u64,
}

impl RxQueue {
    fn new(config: &NicConfig) -> Self {
        RxQueue {
            ring: DescriptorRing::new(config.rx_ring),
            in_flight: VecDeque::new(),
            pending: VecDeque::new(),
            delay: DelayTimers::new(AITT, PITT),
            delay_slot: TimerSlot::new(),
            cause: IcrFlags::EMPTY,
            irq_asserted: false,
            last_irq: None,
            irqs_posted: 0,
        }
    }
}

/// The simulated NIC.
#[derive(Debug)]
pub struct Nic {
    config: NicConfig,
    queues: Vec<RxQueue>,
    tx_ring: DescriptorRing,
    rx_dma: DmaEngine,
    tx_dma: DmaEngine,
    mitt: ModerationTimer,
    ncap: Option<NcapHardware>,
    poll_mode: bool,
    rx_frames: u64,
    tx_frames: u64,
}

impl Nic {
    /// Builds the NIC (and its NCAP block if configured).
    ///
    /// # Panics
    ///
    /// Panics if the configuration requests zero queues.
    #[must_use]
    pub fn new(config: NicConfig) -> Self {
        assert!(config.queues > 0, "a NIC needs at least one queue");
        let ncap = config.ncap.clone().map(NcapHardware::new);
        Nic {
            queues: (0..config.queues).map(|_| RxQueue::new(&config)).collect(),
            tx_ring: DescriptorRing::new(TX_RING),
            rx_dma: DmaEngine::new(DMA_BANDWIDTH_BPS, DMA_BASE_LATENCY),
            tx_dma: DmaEngine::new(DMA_BANDWIDTH_BPS, DMA_BASE_LATENCY),
            mitt: ModerationTimer::new(config.mitt_period),
            ncap,
            poll_mode: false,
            rx_frames: 0,
            tx_frames: 0,
            config,
        }
    }

    /// Hands RX ring ownership to a userspace poll-mode driver: DMA
    /// completions park frames in the ring without raising causes or
    /// arming AITT/PITT/MITT delays, ring overruns drop silently (there
    /// is no interrupt vector to signal RXO on), and on-NIC packet
    /// inspection is skipped — the poll loop sees every frame anyway.
    pub fn set_poll_mode(&mut self) {
        self.poll_mode = true;
    }

    /// `true` when a userspace poll-mode driver owns the RX rings.
    #[must_use]
    pub fn poll_mode(&self) -> bool {
        self.poll_mode
    }

    /// Number of RSS receive queues.
    #[must_use]
    pub fn queue_count(&self) -> usize {
        self.queues.len()
    }

    /// The RSS hash: which queue a flow lands on.
    #[must_use]
    pub fn queue_of(&self, frame: &Packet) -> usize {
        (frame.flow() as usize) % self.queues.len()
    }

    /// The NIC's configuration.
    #[must_use]
    pub fn config(&self) -> &NicConfig {
        &self.config
    }

    /// Arms the MITT; returns the first expiry instant for the event loop.
    pub fn start_mitt(&mut self, now: SimTime) -> SimTime {
        self.mitt.start(now)
    }

    fn assert_irq(&mut self, now: SimTime, queue: usize) -> bool {
        let q = &mut self.queues[queue];
        if q.irq_asserted {
            return false;
        }
        q.irq_asserted = true;
        q.irqs_posted += 1;
        q.last_irq = Some(now);
        q.delay.clear();
        q.delay_slot.disarm();
        if let Some(ncap) = self.ncap.as_mut() {
            ncap.note_interrupt_posted(now);
        }
        if simtrace::is_enabled() {
            let t = now.as_nanos();
            simtrace::instant_args("nic", "irq_posted", t, &[simtrace::arg("queue", queue)]);
            simtrace::metric_add("nic", "irqs_posted", t, 1.0);
        }
        true
    }

    /// A frame fully arrived from the wire at `now`.
    pub fn frame_arrived(&mut self, now: SimTime, frame: Packet) -> RxOutcome {
        let queue = self.queue_of(&frame);
        if !self.queues[queue].ring.try_take() {
            if simtrace::is_enabled() {
                let t = now.as_nanos();
                simtrace::instant_args("nic", "rx_drop", t, &[simtrace::arg("queue", queue)]);
                simtrace::metric_add("nic", "rx_drops", t, 1.0);
            }
            // Receiver overrun. Interrupt mode raises RXO and asserts the
            // vector right away (moderation does not delay overrun
            // notifications); poll mode has no vector, so the overrun is
            // only visible as a drop counter the poll loop reads.
            let posted = if self.poll_mode {
                false
            } else {
                self.queues[queue].cause.insert(IcrFlags::RXO);
                self.assert_irq(now, queue)
            };
            return RxOutcome {
                queue,
                dma_complete_at: None,
                immediate_irq: false,
                overflow_irq: posted,
            };
        }
        self.rx_frames += 1;
        if simtrace::is_enabled() {
            let t = now.as_nanos();
            simtrace::metric_add("nic", "rx_frames", t, 1.0);
            simtrace::metric_add("nic", "rx_wire_bytes", t, frame.wire_len() as f64);
        }
        // NCAP inspects the frame as it is received, before DMA completes.
        // On a multi-queue NIC the immediate wake targets the frame's own
        // vector — §7: "the target core for packet processing is known".
        let mut immediate = false;
        if !self.poll_mode {
            if let Some(ncap) = self.ncap.as_mut() {
                if let Some(flags) = ncap.on_rx_frame(now, &frame) {
                    self.queues[queue].cause.insert(flags);
                    immediate = self.assert_irq(now, queue);
                }
            }
        }
        // A TOE processes the frame on the NIC before the host DMA
        // starts — it holds packets longer inside the NIC, which is
        // exactly the extra slack §7 says NCAP gains for hiding wake-ups.
        let start = if self.config.toe { now + TOE_HOLD } else { now };
        let done = self.rx_dma.transfer(start, frame.frame_len());
        if simtrace::is_enabled() {
            let id = simtrace::async_begin(
                "nic",
                "rx_dma",
                start.as_nanos(),
                &[simtrace::arg("bytes", frame.frame_len())],
            );
            simtrace::async_end("nic", "rx_dma", done.as_nanos(), id);
        }
        // Frames complete DMA in FIFO order per queue (one engine feeds
        // all queues), so each queue's in-flight list pops head-first.
        self.queues[queue].in_flight.push_back(frame);
        RxOutcome {
            queue,
            dma_complete_at: Some(done),
            immediate_irq: immediate,
            overflow_irq: false,
        }
    }

    /// The RX DMA for `queue`'s head-of-line frame finished: the skb is
    /// now in main memory, fetchable by the SoftIRQ, and the queue's RX
    /// cause is raised.
    ///
    /// Returns the `(deadline, generation)` of the re-armed AITT/PITT
    /// delay pair, if the caller needs to (re)schedule a
    /// [`delay_expired`](Self::delay_expired) check — the light-traffic
    /// path that posts the interrupt before the next MITT expiry.
    ///
    /// # Panics
    ///
    /// Panics if no DMA transfer was in flight on that queue (event-loop
    /// bug).
    pub fn rx_dma_complete(&mut self, now: SimTime, queue: usize) -> Option<(SimTime, u64)> {
        let q = &mut self.queues[queue];
        let mut frame = q
            .in_flight
            .pop_front()
            .expect("rx_dma_complete without a transfer in flight");
        // Latency-attribution stamp (measurement sideband only): the frame
        // is now in host memory; everything until the SoftIRQ drain is
        // moderation hold / ring wait, not DMA.
        frame.meta_mut().stages.dma_done = now;
        q.pending.push_back(frame);
        if self.poll_mode {
            // Poll-mode: the frame just sits in the ring until a busy-poll
            // core picks it up. No cause, no delay timer, no interrupt.
            return None;
        }
        q.cause.insert(IcrFlags::IT_RX);
        let deadline = q.delay.on_event(now).max(now);
        let gen = q.delay_slot.arm(deadline);
        Some((deadline, gen))
    }

    /// An armed AITT/PITT deadline on `queue` arrived. Returns `true`
    /// when that queue's IRQ vector was asserted now (causes pending,
    /// MITT rate bound satisfied). Stale generations (superseded by later
    /// frames) are ignored.
    pub fn delay_expired(&mut self, now: SimTime, queue: usize, gen: u64) -> bool {
        {
            let q = &mut self.queues[queue];
            if !q.delay_slot.fires(gen) {
                return false;
            }
            if q.cause.is_empty() {
                return false;
            }
            // The MITT still bounds the interrupt *rate*: if this vector
            // fired more recently than one MITT period ago, leave the
            // causes pending for the next MITT expiry.
            if let Some(last) = q.last_irq {
                if now.saturating_since(last) < self.config.mitt_period {
                    return false;
                }
            }
        }
        self.assert_irq(now, queue)
    }

    /// MITT expiry at `now`. Returns the next expiry instant and the
    /// queues whose IRQ vectors were asserted now (NCAP causes land on
    /// vector 0).
    pub fn mitt_expired(&mut self, now: SimTime) -> (SimTime, Vec<usize>) {
        let next = self.mitt.advance(now);
        if let Some(ncap) = self.ncap.as_mut() {
            if let Some(flags) = ncap.on_mitt_expiry(now) {
                self.queues[0].cause.insert(flags);
            }
        }
        let mut raised = Vec::new();
        for qi in 0..self.queues.len() {
            if !self.queues[qi].cause.is_empty() && self.assert_irq(now, qi) {
                raised.push(qi);
            }
        }
        simtrace::instant_args(
            "nic",
            "mitt_expired",
            now.as_nanos(),
            &[simtrace::arg("raised", raised.len())],
        );
        (next, raised)
    }

    /// The driver's ISR reads (and thereby clears) vector `queue`'s
    /// cause register, deasserting that vector. The PCIe read latency is
    /// in [`NicConfig::icr_read_latency`]; the kernel charges it.
    pub fn read_icr(&mut self, queue: usize) -> IcrFlags {
        let q = &mut self.queues[queue];
        q.irq_asserted = false;
        q.cause.take()
    }

    /// SoftIRQ fetches `queue`'s next DMA-completed frame and replenishes
    /// its descriptor.
    pub fn fetch_rx(&mut self, queue: usize) -> Option<Packet> {
        let q = &mut self.queues[queue];
        let frame = q.pending.pop_front()?;
        q.ring.release();
        Some(frame)
    }

    /// Frames waiting in host memory for the SoftIRQ, across all queues.
    #[must_use]
    pub fn rx_backlog(&self) -> usize {
        self.queues.iter().map(|q| q.pending.len()).sum()
    }

    /// Hands a frame to the TX path. Returns when it reaches the wire,
    /// or `None` when the TX ring is full (caller queues and retries).
    pub fn enqueue_tx(&mut self, now: SimTime, frame: &Packet) -> Option<TxOutcome> {
        if !self.tx_ring.try_take() {
            return None;
        }
        let ready = self.tx_dma.transfer(now, frame.frame_len());
        if simtrace::is_enabled() {
            let id = simtrace::async_begin(
                "nic",
                "tx_dma",
                now.as_nanos(),
                &[simtrace::arg("bytes", frame.frame_len())],
            );
            simtrace::async_end("nic", "tx_dma", ready.as_nanos(), id);
        }
        Some(TxOutcome { ready_at: ready })
    }

    /// The frame hit the wire: release the descriptor, count TX bytes for
    /// NCAP, raise the TX cause.
    pub fn tx_done(&mut self, now: SimTime, wire_bytes: usize) {
        self.tx_ring.release();
        self.tx_frames += 1;
        if simtrace::is_enabled() {
            let t = now.as_nanos();
            simtrace::metric_add("nic", "tx_frames", t, 1.0);
            simtrace::metric_add("nic", "tx_wire_bytes", t, wire_bytes as f64);
        }
        if self.poll_mode {
            // Doorbell-free TX: the poll loop reclaims descriptors in
            // line; no TX-complete cause is raised.
            return;
        }
        // TX causes share vector 0 (the 82574 layout; multi-queue NICs
        // typically keep a combined or separate TX vector — core 0 here).
        self.queues[0].cause.insert(IcrFlags::IT_TX);
        if let Some(ncap) = self.ncap.as_mut() {
            ncap.on_tx_frame(wire_bytes);
        }
    }

    /// Driver write-back of the processor's frequency extremes.
    pub fn note_freq_status(&mut self, at_max: bool, at_min: bool) {
        if let Some(ncap) = self.ncap.as_mut() {
            ncap.note_freq_status(at_max, at_min);
        }
    }

    /// The embedded NCAP hardware, if configured.
    #[must_use]
    pub fn ncap(&self) -> Option<&NcapHardware> {
        self.ncap.as_ref()
    }

    /// The host-stack cycle multiplier this NIC implies: a TOE absorbs
    /// part of the kernel's per-packet protocol work (§7).
    #[must_use]
    pub fn stack_cycle_factor(&self) -> f64 {
        if self.config.toe {
            1.0 - TOE_STACK_OFFLOAD
        } else {
            1.0
        }
    }

    /// Frames accepted from the wire.
    #[must_use]
    pub fn rx_frames(&self) -> u64 {
        self.rx_frames
    }

    /// Frames dropped at the RX rings (all queues).
    #[must_use]
    pub fn rx_drops(&self) -> u64 {
        self.queues.iter().map(|q| q.ring.drops()).sum()
    }

    /// Frames that left on the wire.
    #[must_use]
    pub fn tx_frames(&self) -> u64 {
        self.tx_frames
    }

    /// Interrupts posted to the processor (all vectors).
    #[must_use]
    pub fn irqs_posted(&self) -> u64 {
        self.queues.iter().map(|q| q.irqs_posted).sum()
    }

    /// `true` while vector `queue` is asserted (awaiting an ICR read).
    #[must_use]
    pub fn irq_asserted(&self, queue: usize) -> bool {
        self.queues[queue].irq_asserted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::http::HttpRequest;
    use netsim::packet::NodeId;

    fn get_frame(id: u64) -> Packet {
        Packet::request(NodeId(1), NodeId(0), id, HttpRequest::get("/").to_payload())
    }

    fn plain_nic() -> Nic {
        Nic::new(NicConfig::i82574_like())
    }

    fn ncap_nic() -> Nic {
        Nic::new(NicConfig::i82574_like().with_ncap(NcapConfig::paper_defaults()))
    }

    #[test]
    fn rx_path_is_moderated() {
        let mut nic = plain_nic();
        let first_mitt = nic.start_mitt(SimTime::ZERO);
        let out = nic.frame_arrived(SimTime::from_us(1), get_frame(1));
        let done = out.dma_complete_at.unwrap();
        assert!(done > SimTime::from_us(15));
        assert!(!out.immediate_irq);
        let (deadline, gen) = nic.rx_dma_complete(done, out.queue).expect("delay armed");
        assert!(deadline > done, "PITT defers the IRQ past the completion");
        // If the MITT fires first, it posts the cause.
        if first_mitt <= deadline {
            let (_, raised) = nic.mitt_expired(first_mitt);
            assert_eq!(raised, vec![0], "MITT expiry posts the pending cause");
        } else {
            assert!(nic.delay_expired(deadline, 0, gen));
        }
        assert!(nic.read_icr(0).contains(IcrFlags::IT_RX));
        assert!(!nic.irq_asserted(0));
    }

    #[test]
    fn full_ring_drops() {
        let mut cfg = NicConfig::i82574_like();
        cfg.rx_ring = 2;
        let mut nic = Nic::new(cfg);
        assert!(nic
            .frame_arrived(SimTime::ZERO, get_frame(1))
            .dma_complete_at
            .is_some());
        assert!(nic
            .frame_arrived(SimTime::ZERO, get_frame(2))
            .dma_complete_at
            .is_some());
        let dropped = nic.frame_arrived(SimTime::ZERO, get_frame(3));
        assert!(dropped.dma_complete_at.is_none());
        assert!(
            dropped.overflow_irq,
            "ring overflow must assert the vector immediately"
        );
        assert_eq!(nic.rx_drops(), 1);
        assert_eq!(nic.rx_frames(), 2);
        // The driver sees the overrun cause on the next ICR read; a
        // second overflow while asserted does not double-post.
        let dropped2 = nic.frame_arrived(SimTime::ZERO, get_frame(5));
        assert!(!dropped2.overflow_irq, "vector already asserted");
        assert!(nic.read_icr(0).contains(IcrFlags::RXO));
        assert_eq!(nic.irqs_posted(), 1);
        // Fetching (after its DMA completes) replenishes a descriptor.
        nic.rx_dma_complete(SimTime::from_us(16), 0);
        assert!(nic.fetch_rx(0).is_some());
        assert!(nic
            .frame_arrived(SimTime::ZERO, get_frame(4))
            .dma_complete_at
            .is_some());
    }

    #[test]
    fn ncap_immediate_wake_beats_dma() {
        let mut nic = ncap_nic();
        nic.start_mitt(SimTime::ZERO);
        // Quiet NIC for 2 ms, then a GET arrives: CIT rule fires at
        // frame arrival, before the DMA completes.
        let out = nic.frame_arrived(SimTime::from_ms(2), get_frame(1));
        assert!(out.immediate_irq, "CIT wake must assert the IRQ now");
        let dma_done = out.dma_complete_at.unwrap();
        assert!(
            dma_done > SimTime::from_ms(2),
            "interrupt preceded DMA completion"
        );
        assert!(nic.read_icr(out.queue).contains(IcrFlags::IT_RX));
    }

    #[test]
    fn ncap_burst_raises_it_high_on_mitt() {
        let mut nic = ncap_nic();
        let mut mitt_at = nic.start_mitt(SimTime::ZERO);
        nic.note_freq_status(false, false);
        // Baseline expiry.
        let (next, _) = nic.mitt_expired(mitt_at);
        mitt_at = next;
        // Burst of 10 GETs inside one MITT window (200 K rps).
        for i in 0..10 {
            nic.frame_arrived(
                mitt_at - SimDuration::from_us(20) + SimDuration::from_nanos(i),
                get_frame(i),
            );
        }
        let (_, raised) = nic.mitt_expired(mitt_at);
        assert!(raised.contains(&0));
        let icr = nic.read_icr(0);
        assert!(icr.contains(IcrFlags::IT_HIGH), "got {icr}");
    }

    #[test]
    fn plain_nic_never_raises_ncap_bits() {
        let mut nic = plain_nic();
        let mut at = nic.start_mitt(SimTime::ZERO);
        for i in 0..50 {
            nic.frame_arrived(
                at - SimDuration::from_us(10) + SimDuration::from_nanos(i),
                get_frame(i),
            );
        }
        let (next, raised) = nic.mitt_expired(at);
        at = next;
        let _ = at;
        if !raised.is_empty() {
            let icr = nic.read_icr(0);
            assert!(!icr.contains(IcrFlags::IT_HIGH));
            assert!(!icr.contains(IcrFlags::IT_LOW));
        }
        assert!(nic.ncap().is_none());
    }

    #[test]
    fn tx_path_counts_bytes_for_ncap() {
        let mut nic = ncap_nic();
        let frame = get_frame(1);
        let out = nic.enqueue_tx(SimTime::ZERO, &frame).unwrap();
        assert!(out.ready_at > SimTime::ZERO);
        nic.tx_done(out.ready_at, frame.wire_len());
        assert_eq!(nic.tx_frames(), 1);
        assert_eq!(
            nic.ncap().unwrap().tx_counter().tx_bytes(),
            frame.wire_len() as u64
        );
    }

    #[test]
    fn tx_ring_full_rejects() {
        let mut nic = Nic::new(NicConfig::i82574_like());
        let f = get_frame(1);
        for _ in 0..TX_RING {
            assert!(nic.enqueue_tx(SimTime::ZERO, &f).is_some());
        }
        assert!(nic.enqueue_tx(SimTime::ZERO, &f).is_none());
        nic.tx_done(SimTime::from_us(20), f.wire_len());
        assert!(nic.enqueue_tx(SimTime::from_us(20), &f).is_some());
    }

    #[test]
    fn toe_holds_frames_and_absorbs_stack_cycles() {
        let plain = Nic::new(NicConfig::i82574_like());
        let mut toe_nic = Nic::new(NicConfig {
            toe: true,
            ..NicConfig::i82574_like()
        });
        assert_eq!(plain.stack_cycle_factor(), 1.0);
        assert!((toe_nic.stack_cycle_factor() - 0.3).abs() < 1e-9);
        let out = toe_nic.frame_arrived(SimTime::ZERO, get_frame(1));
        // DMA completion is delayed by the 10 us TOE hold.
        assert!(out.dma_complete_at.unwrap() > SimTime::from_us(25));
    }

    #[test]
    fn irq_line_is_level_triggered() {
        let mut nic = plain_nic();
        let at = nic.start_mitt(SimTime::ZERO);
        let o1 = nic.frame_arrived(SimTime::from_us(1), get_frame(1));
        nic.rx_dma_complete(SimTime::from_us(17), o1.queue);
        let (next, raised1) = nic.mitt_expired(at);
        assert_eq!(raised1, vec![0]);
        // Another cause before the ISR ran: no second posting.
        let o2 = nic.frame_arrived(SimTime::from_us(60), get_frame(2));
        nic.rx_dma_complete(SimTime::from_us(76), o2.queue);
        let (_, raised2) = nic.mitt_expired(next);
        assert!(raised2.is_empty(), "vector already asserted");
        assert_eq!(nic.irqs_posted(), 1);
    }

    #[test]
    fn rss_spreads_flows_and_vectors_are_independent() {
        let mut cfg = NicConfig::i82574_like();
        cfg.queues = 4;
        let mut nic = Nic::new(cfg);
        let at = nic.start_mitt(SimTime::ZERO);
        // Flows 0..8 hash across the four queues.
        let mut seen = std::collections::HashSet::new();
        for flow in 0..8u64 {
            let out = nic.frame_arrived(SimTime::from_us(1), get_frame(flow));
            seen.insert(out.queue);
            nic.rx_dma_complete(out.dma_complete_at.unwrap(), out.queue);
        }
        assert_eq!(seen.len(), 4, "flows must spread across queues");
        let (_, raised) = nic.mitt_expired(at);
        assert_eq!(
            raised.len(),
            4,
            "every queue with causes asserts its vector"
        );
        // Reading one vector leaves the others asserted.
        assert!(nic.read_icr(1).contains(IcrFlags::IT_RX));
        assert!(!nic.irq_asserted(1));
        assert!(nic.irq_asserted(0));
        assert!(nic.irq_asserted(2));
        // Per-queue fetch only returns that queue's frames.
        let f = nic.fetch_rx(1).expect("queue 1 has frames");
        assert_eq!(nic.queue_of(&f), 1);
    }
}
