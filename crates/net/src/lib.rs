//! # netsim — network substrate for the NCAP reproduction
//!
//! Models the pieces of a datacenter Ethernet that the paper's evaluation
//! depends on (Table 1: 10 Gbps links, 1 µs latency, TCP/IP encapsulation):
//!
//! * [`packet`] — Ethernet/IPv4/TCP-lite frames. The TCP payload begins at
//!   byte 66 of the frame (14 Ethernet + 20 IP + 20 TCP + 12 options),
//!   exactly the offset NCAP's ReqMonitor inspects (paper §4.1).
//! * [`http`] — HTTP-like and Memcached-like request/response payloads with
//!   the predefined leading method tokens (`GET `, `PUT `, …) that make
//!   requests recognisable from their first payload bytes.
//! * [`tcp`] — MSS segmentation of responses larger than the MTU
//!   (responses usually span several frames — the paper's rationale for
//!   the context-free TxBytesCounter).
//! * [`link`] — serialization + propagation delay with a FIFO egress queue.
//! * [`switch`] — a store-and-forward switch connecting cluster nodes.
//! * [`faults`] — seeded per-link impairment (loss, corruption, reorder,
//!   jitter) plus the retransmission policy used to recover from drops.
//! * [`timewait`] — the TIME_WAIT FIFO that retires resolved entries of
//!   request-keyed tables once no copy of the request can still arrive.
//! * [`bytes`] — the in-tree zero-copy [`Bytes`] buffer the payload types
//!   are built on (no external `bytes` crate: the build is hermetic).
//!
//! All types here are *passive*: they compute sizes and times but schedule
//! nothing. The `cluster` crate turns their outputs into simulation events.
//!
//! ## Example
//!
//! ```
//! use netsim::packet::{NodeId, Packet};
//! use netsim::http::HttpRequest;
//!
//! let req = HttpRequest::get("/index.html").to_payload();
//! let pkt = Packet::request(NodeId(1), NodeId(0), 7, req);
//! assert_eq!(&pkt.payload()[..4], b"GET ");
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod bytes;
pub mod faults;
pub mod http;
pub mod link;
pub mod packet;
pub mod switch;
pub mod tcp;
pub mod timewait;
pub mod wire;

pub use bytes::Bytes;
pub use faults::{
    DomainFaultStats, DomainImpairment, DropKind, FaultConfig, FaultStats, FaultVerdict,
    LinkFaults, RetxConfig, DEFAULT_FAULT_SEED,
};
pub use http::{HttpRequest, MemcachedRequest};
pub use link::Link;
pub use packet::{NodeId, Packet, PacketMeta, StageRecord};
pub use switch::{Delivery, Switch};
pub use tcp::{segment_response, Reassembly, SegmentStatus};
pub use timewait::{IdMap, TimeWait};
