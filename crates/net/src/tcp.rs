//! TCP-lite: MSS segmentation, sequence tracking and reassembly.
//!
//! By default the fabric is lossless (switched datacenter fabric, no
//! congestion drops at the simulated loads) and nothing here is exercised
//! beyond segmentation: "most responses are larger than the Ethernet
//! maximum transmission unit, and thus several TCP packets constituting a
//! single response are transmitted" (§4.1) — the paper's TxBytesCounter
//! rationale. [`segment_response`] performs that split and stamps each
//! frame with a per-message sequence number.
//!
//! When fault injection is active (see [`crate::faults`]) the sequence
//! numbers carry the reliability layer: [`Reassembly`] tracks which
//! segments of a message have arrived, suppresses retransmitted
//! duplicates, tolerates reordering, and reports completion only once
//! *every* segment through the final one has been received — a lost
//! middle frame can no longer masquerade as a completed response.

use crate::bytes::Bytes;
use crate::packet::{NodeId, Packet, PacketMeta, MSS};
use desim::SimTime;

/// Splits a response body into MSS-sized frames from `src` to `dst`.
///
/// Every produced packet shares the response body's storage (`Bytes`
/// slicing is zero-copy) and carries the same `request_id` so the harness
/// can detect response completion. A zero-length body still produces one
/// (header-only) packet so empty responses remain observable on the wire.
///
/// # Example
///
/// ```
/// use netsim::tcp::segment_response;
/// use netsim::packet::{NodeId, MSS};
/// use netsim::Bytes;
/// use desim::SimTime;
///
/// let body = Bytes::from(vec![0u8; MSS * 2 + 100]);
/// let frames = segment_response(NodeId(0), NodeId(1), 7, body, SimTime::ZERO);
/// assert_eq!(frames.len(), 3);
/// assert_eq!(frames[0].payload().len(), MSS);
/// assert_eq!(frames[2].payload().len(), 100);
/// ```
#[must_use]
pub fn segment_response(
    src: NodeId,
    dst: NodeId,
    request_id: u64,
    body: Bytes,
    sent_at: SimTime,
) -> Vec<Packet> {
    let meta = PacketMeta {
        request_id: Some(request_id),
        sent_at,
        seq: 0,
        is_final: false,
        ..PacketMeta::default()
    };
    if body.is_empty() {
        simtrace::metric_add_cum("net", "tcp_segments", 1.0);
        return vec![Packet::new(
            src,
            dst,
            request_id as u32,
            body,
            PacketMeta {
                is_final: true,
                ..meta
            },
        )];
    }
    let mut frames = Vec::with_capacity(body.len().div_ceil(MSS));
    let mut offset = 0;
    while offset < body.len() {
        let end = (offset + MSS).min(body.len());
        let last = end == body.len();
        frames.push(Packet::new(
            src,
            dst,
            request_id as u32,
            body.slice(offset..end),
            PacketMeta {
                seq: frames.len() as u32,
                is_final: last,
                ..meta
            },
        ));
        offset = end;
    }
    simtrace::metric_add_cum("net", "tcp_segments", frames.len() as f64);
    frames
}

/// Total bytes a response occupies on the wire once segmented (including
/// all per-frame header and wire overhead). Used by bandwidth traces.
#[must_use]
pub fn response_wire_bytes(body_len: usize) -> usize {
    let frames = if body_len == 0 {
        1
    } else {
        body_len.div_ceil(MSS)
    };
    let mut total = 0;
    let mut remaining = body_len;
    for _ in 0..frames {
        let chunk = remaining.min(MSS);
        remaining -= chunk;
        total += (crate::packet::PAYLOAD_OFFSET + chunk).max(64) + crate::packet::WIRE_OVERHEAD;
    }
    total
}

/// Outcome of feeding one segment into a [`Reassembly`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentStatus {
    /// A segment not seen before; the message is still incomplete.
    Fresh,
    /// A retransmitted duplicate (or any segment after completion) — the
    /// receiver should suppress it.
    Duplicate,
    /// This segment completed the message: every sequence number from 0
    /// through the final one has now been received exactly once-or-more.
    Completed,
}

/// Receiver-side reassembly state for one message.
///
/// Tracks received sequence numbers so duplicates are suppressed and
/// out-of-order arrival is tolerated; the message completes only when all
/// segments `0..=final_seq` have arrived. Once complete, every further
/// segment reports [`SegmentStatus::Duplicate`].
///
/// A request that fails over mid-response can be re-served by a different
/// backend with a *different* response length, so segments from two
/// serializations of the same message may interleave here. The latest
/// final segment is authoritative for the message bound (it belongs to
/// the serialization currently being replayed), and completion checks
/// that `0..=final_seq` is covered rather than counting segments —
/// leftovers from a longer, abandoned serialization must not wedge the
/// message open forever.
#[derive(Debug, Default)]
pub struct Reassembly {
    /// Every segment below this sequence number has arrived.
    contiguous: u32,
    /// Segments that arrived past a gap, all above `contiguous` (empty,
    /// and never allocated, while segments arrive in order).
    ahead: Vec<u32>,
    final_seq: Option<u32>,
    done: bool,
}

impl Reassembly {
    /// Empty state: no segments received.
    #[must_use]
    pub fn new() -> Self {
        Reassembly::default()
    }

    /// Feeds one segment, identified by its sequence number and final
    /// flag, and reports what the receiver should do with it.
    pub fn on_segment(&mut self, seq: u32, is_final: bool) -> SegmentStatus {
        if self.done {
            return SegmentStatus::Duplicate;
        }
        let fresh = seq >= self.contiguous && !self.ahead.contains(&seq);
        if seq == self.contiguous {
            self.contiguous += 1;
            while let Some(i) = self.ahead.iter().position(|&s| s == self.contiguous) {
                self.ahead.swap_remove(i);
                self.contiguous += 1;
            }
        } else if fresh {
            self.ahead.push(seq);
        }
        if is_final {
            // Even a repeated seq re-binds the message end: a replay from
            // a failed-over backend may end earlier than the original
            // serialization did, and its final frame is the truth now.
            self.final_seq = Some(seq);
        } else if !fresh {
            return SegmentStatus::Duplicate;
        }
        match self.final_seq {
            Some(last) if self.contiguous > last => {
                self.done = true;
                SegmentStatus::Completed
            }
            _ if fresh => SegmentStatus::Fresh,
            _ => SegmentStatus::Duplicate,
        }
    }

    /// `true` once the message has fully arrived.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use check::{ensure, ensure_eq, Check};

    #[test]
    fn small_body_single_frame() {
        let frames = segment_response(
            NodeId(0),
            NodeId(1),
            1,
            Bytes::from_static(b"hello"),
            SimTime::ZERO,
        );
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].payload(), b"hello");
    }

    #[test]
    fn empty_body_still_produces_frame() {
        let frames = segment_response(NodeId(0), NodeId(1), 1, Bytes::new(), SimTime::ZERO);
        assert_eq!(frames.len(), 1);
        assert!(frames[0].payload().is_empty());
    }

    #[test]
    fn exact_mss_boundary() {
        let frames = segment_response(
            NodeId(0),
            NodeId(1),
            1,
            Bytes::from(vec![1u8; MSS]),
            SimTime::ZERO,
        );
        assert_eq!(frames.len(), 1);
        let frames = segment_response(
            NodeId(0),
            NodeId(1),
            1,
            Bytes::from(vec![1u8; MSS + 1]),
            SimTime::ZERO,
        );
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[1].payload().len(), 1);
    }

    #[test]
    fn all_frames_tagged_with_request() {
        let frames = segment_response(
            NodeId(0),
            NodeId(1),
            42,
            Bytes::from(vec![0u8; MSS * 3]),
            SimTime::from_us(5),
        );
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.meta().request_id, Some(42));
            assert_eq!(f.meta().sent_at, SimTime::from_us(5));
            assert_eq!(f.meta().is_final, i == frames.len() - 1);
        }
    }

    #[test]
    fn segments_carry_sequence_numbers() {
        let frames = segment_response(
            NodeId(0),
            NodeId(1),
            7,
            Bytes::from(vec![0u8; MSS * 2 + 10]),
            SimTime::ZERO,
        );
        let seqs: Vec<u32> = frames.iter().map(|f| f.meta().seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        let empty = segment_response(NodeId(0), NodeId(1), 7, Bytes::new(), SimTime::ZERO);
        assert_eq!(empty[0].meta().seq, 0);
        assert!(empty[0].meta().is_final);
    }

    #[test]
    fn reassembly_in_order() {
        let mut r = Reassembly::new();
        assert_eq!(r.on_segment(0, false), SegmentStatus::Fresh);
        assert_eq!(r.on_segment(1, false), SegmentStatus::Fresh);
        assert_eq!(r.on_segment(2, true), SegmentStatus::Completed);
        assert!(r.is_complete());
    }

    #[test]
    fn reassembly_tolerates_reordering() {
        // Final frame arrives first; completion waits for the hole.
        let mut r = Reassembly::new();
        assert_eq!(r.on_segment(2, true), SegmentStatus::Fresh);
        assert_eq!(r.on_segment(0, false), SegmentStatus::Fresh);
        assert!(!r.is_complete());
        assert_eq!(r.on_segment(1, false), SegmentStatus::Completed);
        assert!(r.is_complete());
    }

    #[test]
    fn reassembly_suppresses_duplicates() {
        let mut r = Reassembly::new();
        assert_eq!(r.on_segment(0, false), SegmentStatus::Fresh);
        assert_eq!(r.on_segment(0, false), SegmentStatus::Duplicate);
        assert_eq!(r.on_segment(1, true), SegmentStatus::Completed);
        // Everything after completion is a duplicate, even unseen seqs
        // (a stale retransmit of an already-answered message).
        assert_eq!(r.on_segment(1, true), SegmentStatus::Duplicate);
        assert_eq!(r.on_segment(0, false), SegmentStatus::Duplicate);
    }

    #[test]
    fn single_frame_message_completes_immediately() {
        let mut r = Reassembly::new();
        assert_eq!(r.on_segment(0, true), SegmentStatus::Completed);
    }

    #[test]
    fn shorter_reserialization_completes_despite_leftover_segments() {
        // Failover re-serve: the original backend's response had >= 2
        // segments and only seq 1 arrived; the re-pinned backend serves
        // the same request as a single-segment response. The stray seq 1
        // must not hold the message open.
        let mut r = Reassembly::new();
        assert_eq!(r.on_segment(1, false), SegmentStatus::Fresh);
        assert_eq!(r.on_segment(0, true), SegmentStatus::Completed);
        assert!(r.is_complete());
    }

    #[test]
    fn duplicate_final_rebinds_message_end() {
        // The original serialization's final (seq 2) arrived but seq 1
        // was lost; the failover backend replays a one-segment response
        // whose seq 0 the client already has. The repeated final frame
        // still re-binds the end and completes the message.
        let mut r = Reassembly::new();
        assert_eq!(r.on_segment(0, false), SegmentStatus::Fresh);
        assert_eq!(r.on_segment(2, true), SegmentStatus::Fresh);
        assert!(!r.is_complete());
        assert_eq!(r.on_segment(0, true), SegmentStatus::Completed);
        assert!(r.is_complete());
        assert_eq!(r.on_segment(0, true), SegmentStatus::Duplicate);
    }

    /// Reassembling segmented payloads recovers the body exactly.
    #[test]
    fn prop_segmentation_roundtrip() {
        Check::new("tcp_segmentation_roundtrip").run(
            |rng, size| check::gen::u64_scaled(rng, size, 0, (MSS * 5) as u64) as usize,
            |&len| {
                let body: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
                let frames = segment_response(
                    NodeId(0),
                    NodeId(1),
                    1,
                    Bytes::from(body.clone()),
                    SimTime::ZERO,
                );
                let mut rebuilt = Vec::new();
                for f in &frames {
                    ensure!(f.payload().len() <= MSS, "segment above MSS");
                    rebuilt.extend_from_slice(f.payload());
                }
                ensure_eq!(rebuilt, body);
                Ok(())
            },
        );
    }

    /// Wire-byte accounting matches the per-frame sum.
    #[test]
    fn prop_wire_bytes_match_frames() {
        Check::new("tcp_wire_bytes_match_frames").run(
            |rng, size| check::gen::u64_scaled(rng, size, 0, (MSS * 5) as u64) as usize,
            |&len| {
                let frames = segment_response(
                    NodeId(0),
                    NodeId(1),
                    1,
                    Bytes::from(vec![0u8; len]),
                    SimTime::ZERO,
                );
                let total: usize = frames.iter().map(Packet::wire_len).sum();
                ensure_eq!(total, response_wire_bytes(len));
                Ok(())
            },
        );
    }
}
