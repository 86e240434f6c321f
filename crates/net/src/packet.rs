//! TCP/IP-lite packet model.
//!
//! A [`Packet`] models one Ethernet frame carrying a TCP segment. Header
//! layout follows the paper's description of the receive path: the TCP
//! payload (where an OLDI request's method token lives) starts at byte 66
//! of the frame — 14 bytes Ethernet + 20 IPv4 + 20 TCP + 12 TCP options
//! (timestamps). NCAP's ReqMonitor inspects exactly the first two payload
//! bytes (paper §4.1), so the model keeps real payload bytes.
//!
//! Out-of-band [`PacketMeta`] carries measurement bookkeeping (request id,
//! client send time). It is *never* consulted by power-management logic —
//! NCAP sees only bytes, counters and times, as hardware would.

use crate::bytes::Bytes;
use core::fmt;
use desim::{SimDuration, SimTime};

/// Ethernet header bytes (dst MAC, src MAC, ethertype).
pub const ETH_HEADER: usize = 14;
/// IPv4 header bytes (no options).
pub const IPV4_HEADER: usize = 20;
/// TCP header bytes (no options).
pub const TCP_HEADER: usize = 20;
/// TCP option bytes (timestamp + NOPs), as in typical Linux flows.
pub const TCP_OPTIONS: usize = 12;
/// Offset of the first TCP payload byte within the frame. The paper's
/// ReqMonitor compares the two bytes at this offset against its templates.
pub const PAYLOAD_OFFSET: usize = ETH_HEADER + IPV4_HEADER + TCP_HEADER + TCP_OPTIONS;
/// Ethernet MTU: maximum IP datagram size per frame.
pub const MTU: usize = 1500;
/// Maximum TCP payload per segment under this header model.
pub const MSS: usize = MTU - IPV4_HEADER - TCP_HEADER - TCP_OPTIONS;
/// Per-frame wire overhead beyond the frame bytes: preamble + SFD (8),
/// FCS (4) and inter-frame gap (12).
pub const WIRE_OVERHEAD: usize = 24;

/// Identifies a simulated machine in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u16);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Per-request latency attribution, carried in the measurement sideband.
///
/// Stamped incrementally along the request's path — the client's
/// retransmission timer, the load balancer's forwarding hop, the server
/// NIC and kernel — so that by the time the final response frame reaches
/// the client, consecutive anchors and durations *tile* the whole
/// client-observed latency: the per-stage durations sum to it exactly
/// (the conservation identity `tests/observability.rs` enforces). Like
/// every other [`PacketMeta`] field, it is never consulted by simulated
/// logic; simulation results are bit-identical whether anything reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageRecord {
    /// Client-side wait before the served attempt was sent: zero when the
    /// originally transmitted copy was served, the elapsed retransmission
    /// backoff when the server ended up serving a resent copy.
    pub retx_ns: u32,
    /// Load-balancer forwarding hold on the request path.
    pub lb_in_ns: u32,
    /// Load-balancer forwarding hold on the response path.
    pub lb_out_ns: u32,
    /// When the request frame fully arrived at the serving NIC.
    pub arrival: SimTime,
    /// When the request frame's RX DMA into host memory completed.
    pub dma_done: SimTime,
    /// NIC residency after DMA: interrupt-moderation hold, ring wait and
    /// interrupt servicing, minus any C-state wake overlap.
    pub moderation_ns: u32,
    /// C-state wake latency the delivering interrupt waited out.
    pub wake_ns: u32,
    /// Receive SoftIRQ queue wait plus protocol processing.
    pub stack_ns: u32,
    /// Bypass datapath only: ring residency from DMA completion to the
    /// userspace poll pickup, plus poll-mode RX processing. Replaces
    /// `moderation + wake + stack` on the poll path; zero on the kernel
    /// datapath.
    pub poll_wait_ns: u32,
    /// Run-queue wait of the application's CPU phases.
    pub rq_wait_ns: u32,
    /// CPU execution time of the application phases.
    pub cpu_ns: u32,
    /// Application IO (disk) waits.
    pub io_ns: u32,
    /// Server-side replay overhead: for responses that had to be
    /// regenerated after a client retransmission, the gap between the
    /// original response generation and the replay.
    pub replay_ns: u32,
    /// When the application finished the response (or the replay was
    /// emitted) — the anchor the TX stage is measured from.
    pub app_done: SimTime,
    /// TX stage: softirq-tx queueing and processing plus NIC TX DMA and
    /// serialization, up to the final frame hitting the wire.
    pub tx_ns: u32,
    /// When the final response frame left the server on the wire.
    pub last_tx: SimTime,
}

/// Measurement-only sideband attached to packets.
///
/// Fields here exist so the harness can attribute completed responses to
/// the request that caused them without perturbing the simulated system —
/// the same role as the gem5 pseudo-instruction annotations in the paper's
/// methodology (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PacketMeta {
    /// Id of the application-level request this frame belongs to, if any.
    pub request_id: Option<u64>,
    /// When the originating client issued the request.
    pub sent_at: SimTime,
    /// Segment index within the message (0 for single-frame messages).
    /// The reliability layer deduplicates retransmitted frames by
    /// `(request_id, seq)`.
    pub seq: u32,
    /// `true` on the last frame of a message (single-frame messages are
    /// final); clients use this to timestamp response completion.
    pub is_final: bool,
    /// Completion deadline measured from `sent_at`. A request whose
    /// queueing delay has already consumed the whole budget can be shed
    /// by a deadline-aware server. `Some(ZERO)` is an already-expired
    /// deadline; `None` tolerates any delay. On the wire this rides in
    /// the TCP timestamp option (see `wire::encode`).
    pub deadline: Option<SimDuration>,
    /// `true` on 503-style rejection responses: the server declined the
    /// request under overload instead of serving it. Clients count these
    /// as rejected, not completed, and never record their latency.
    pub rejected: bool,
    /// Per-stage latency attribution accumulated along the path.
    pub stages: StageRecord,
}

/// One Ethernet frame carrying a TCP segment.
///
/// A handle of one pointer: the frame itself lives in a box, so moving a
/// `Packet` through an event, a ring or a run-queue entry moves 8 bytes.
#[derive(Clone)]
pub struct Packet(Box<Frame>);

#[derive(Clone)]
struct Frame {
    src: NodeId,
    dst: NodeId,
    flow: u32,
    payload: Bytes,
    meta: PacketMeta,
}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Packet")
            .field("src", &self.0.src)
            .field("dst", &self.0.dst)
            .field("flow", &self.0.flow)
            .field("payload", &self.0.payload)
            .field("meta", &self.0.meta)
            .finish()
    }
}

impl Packet {
    /// Builds a frame from raw parts.
    #[must_use]
    pub fn new(src: NodeId, dst: NodeId, flow: u32, payload: Bytes, meta: PacketMeta) -> Self {
        Packet(Box::new(Frame {
            src,
            dst,
            flow,
            payload,
            meta,
        }))
    }

    /// Convenience constructor for a request frame (client → server).
    #[must_use]
    pub fn request(src: NodeId, dst: NodeId, request_id: u64, payload: Bytes) -> Self {
        Packet::new(
            src,
            dst,
            request_id as u32,
            payload,
            PacketMeta {
                request_id: Some(request_id),
                sent_at: SimTime::ZERO,
                seq: 0,
                is_final: true,
                ..PacketMeta::default()
            },
        )
    }

    /// Builds the cheap 503-style rejection frame a server returns when
    /// admission control sheds a request: a minimal final segment whose
    /// payload is just the status token, so the client learns of the
    /// rejection at one frame's cost instead of waiting out an RTO.
    #[must_use]
    pub fn reject_response(src: NodeId, dst: NodeId, request_id: u64, sent_at: SimTime) -> Self {
        Packet::new(
            src,
            dst,
            request_id as u32,
            Bytes::from_static(b"503"),
            PacketMeta {
                request_id: Some(request_id),
                sent_at,
                seq: 0,
                is_final: true,
                rejected: true,
                ..PacketMeta::default()
            },
        )
    }

    /// Sets the client send timestamp (builder-style).
    #[must_use]
    pub fn sent_at(mut self, t: SimTime) -> Self {
        self.0.meta.sent_at = t;
        self
    }

    /// Rewrites the frame's addressing `src → dst` — the NAT hop a
    /// load balancer performs when forwarding a frame. Payload, flow and
    /// the measurement sideband are untouched, so request identity (and
    /// therefore latency attribution) survives the middlebox.
    #[must_use]
    pub fn readdress(mut self, src: NodeId, dst: NodeId) -> Self {
        self.0.src = src;
        self.0.dst = dst;
        self
    }

    /// Stamps a completion deadline, measured from `sent_at`
    /// (builder-style).
    #[must_use]
    pub fn with_deadline(mut self, deadline: SimDuration) -> Self {
        self.0.meta.deadline = Some(deadline);
        self
    }

    /// Source node.
    #[must_use]
    pub fn src(&self) -> NodeId {
        self.0.src
    }

    /// Destination node.
    #[must_use]
    pub fn dst(&self) -> NodeId {
        self.0.dst
    }

    /// Flow identifier (connection surrogate).
    #[must_use]
    pub fn flow(&self) -> u32 {
        self.0.flow
    }

    /// TCP payload bytes (starting at frame offset [`PAYLOAD_OFFSET`]).
    #[must_use]
    pub fn payload(&self) -> &[u8] {
        &self.0.payload
    }

    /// A zero-copy handle to the payload storage.
    #[must_use]
    pub fn payload_bytes(&self) -> Bytes {
        self.0.payload.clone()
    }

    /// Measurement sideband.
    #[must_use]
    pub fn meta(&self) -> PacketMeta {
        self.0.meta
    }

    /// Mutable access to the measurement sideband — for the attribution
    /// stamps instrumentation layers (client retx timer, load balancer,
    /// server NIC/kernel) write as the frame passes through them. Only
    /// measurement code may use this; simulated logic never reads meta.
    pub fn meta_mut(&mut self) -> &mut PacketMeta {
        &mut self.0.meta
    }

    /// The first two payload bytes — what ReqMonitor's template comparison
    /// reads — or `None` for payloads shorter than two bytes (pure ACKs).
    #[must_use]
    pub fn leading_bytes(&self) -> Option<[u8; 2]> {
        let payload = &self.0.payload;
        if payload.len() >= 2 {
            Some([payload[0], payload[1]])
        } else {
            None
        }
    }

    /// Frame length in bytes: headers + payload.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the payload fits in one segment ([`MSS`]).
    #[must_use]
    pub fn frame_len(&self) -> usize {
        debug_assert!(
            self.0.payload.len() <= MSS,
            "payload exceeds MSS; segment first"
        );
        PAYLOAD_OFFSET + self.0.payload.len()
    }

    /// Bytes occupying the wire, including preamble/FCS/IFG — what the
    /// serialization-delay computation uses. Frames shorter than the
    /// 64-byte Ethernet minimum are padded.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        self.frame_len().max(64) + WIRE_OVERHEAD
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_offset_is_66() {
        // Paper §4.1: "The payload field ... starts from the 66th byte of a
        // received TCP packet."
        assert_eq!(PAYLOAD_OFFSET, 66);
    }

    #[test]
    fn mss_fits_mtu() {
        assert_eq!(MSS + IPV4_HEADER + TCP_HEADER + TCP_OPTIONS, MTU);
    }

    #[test]
    fn leading_bytes_of_get() {
        let p = Packet::request(NodeId(1), NodeId(0), 1, Bytes::from_static(b"GET /x"));
        assert_eq!(p.leading_bytes(), Some(*b"GE"));
    }

    #[test]
    fn leading_bytes_of_short_payload() {
        let ack = Packet::new(NodeId(1), NodeId(0), 0, Bytes::new(), PacketMeta::default());
        assert_eq!(ack.leading_bytes(), None);
    }

    #[test]
    fn frame_and_wire_lengths() {
        let p = Packet::request(NodeId(1), NodeId(0), 1, Bytes::from(vec![0u8; 100]));
        assert_eq!(p.frame_len(), 166);
        assert_eq!(p.wire_len(), 166 + WIRE_OVERHEAD);
        // A header-only frame (66 B) already exceeds the 64 B minimum.
        let ack = Packet::new(NodeId(1), NodeId(0), 0, Bytes::new(), PacketMeta::default());
        assert_eq!(ack.wire_len(), PAYLOAD_OFFSET + WIRE_OVERHEAD);
    }

    #[test]
    fn meta_roundtrip() {
        let p = Packet::request(NodeId(2), NodeId(0), 9, Bytes::from_static(b"GET /"))
            .sent_at(SimTime::from_us(3));
        assert_eq!(p.meta().request_id, Some(9));
        assert_eq!(p.meta().sent_at, SimTime::from_us(3));
        assert_eq!(p.src(), NodeId(2));
        assert_eq!(p.dst(), NodeId(0));
        assert_eq!(p.flow(), 9);
    }

    #[test]
    fn readdress_rewrites_only_addressing() {
        let p = Packet::request(NodeId(9), NodeId(4), 7, Bytes::from_static(b"GET /"))
            .sent_at(SimTime::from_us(11))
            .readdress(NodeId(4), NodeId(0));
        assert_eq!(p.src(), NodeId(4));
        assert_eq!(p.dst(), NodeId(0));
        assert_eq!(p.flow(), 7);
        assert_eq!(p.meta().request_id, Some(7));
        assert_eq!(p.meta().sent_at, SimTime::from_us(11));
        assert_eq!(p.payload(), b"GET /");
    }

    /// The boxed handle renders exactly as the flat struct's derived
    /// `Debug` did, so `{:?}`-based digests of anything holding a frame
    /// stay put.
    #[test]
    fn debug_renders_the_frame_as_a_flat_struct() {
        #[derive(Debug)]
        #[allow(dead_code)] // read only through the derived `Debug`
        struct Packet {
            src: NodeId,
            dst: NodeId,
            flow: u32,
            payload: Bytes,
            meta: PacketMeta,
        }
        let p = super::Packet::request(NodeId(2), NodeId(0), 9, Bytes::from_static(b"GET /"))
            .with_deadline(SimDuration::from_us(5));
        let flat = Packet {
            src: p.src(),
            dst: p.dst(),
            flow: p.flow(),
            payload: p.payload_bytes(),
            meta: p.meta(),
        };
        assert_eq!(format!("{p:?}"), format!("{flat:?}"));
        assert_eq!(format!("{p:#?}"), format!("{flat:#?}"));
    }

    #[test]
    fn node_display() {
        assert_eq!(NodeId(3).to_string(), "node3");
    }

    #[test]
    fn deadline_and_rejection_metadata() {
        let req = Packet::request(NodeId(1), NodeId(0), 4, Bytes::from_static(b"GET /"))
            .with_deadline(SimDuration::from_us(200));
        assert_eq!(req.meta().deadline, Some(SimDuration::from_us(200)));
        assert!(!req.meta().rejected);

        let nack = Packet::reject_response(NodeId(0), NodeId(1), 4, SimTime::from_us(7));
        assert!(nack.meta().rejected);
        assert!(nack.meta().is_final);
        assert_eq!(nack.meta().request_id, Some(4));
        assert_eq!(nack.meta().sent_at, SimTime::from_us(7));
        assert_eq!(nack.leading_bytes(), Some(*b"50"));
        // Cheap on the wire: payload is the bare status token.
        assert_eq!(nack.frame_len(), PAYLOAD_OFFSET + 3);
    }
}
