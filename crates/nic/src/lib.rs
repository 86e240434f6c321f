//! # nicsim — the (optionally NCAP-enhanced) network interface card
//!
//! Models an Intel 82574GI-like gigabit controller at the level the paper
//! depends on (§2.2, §4.2):
//!
//! * [`ring`] — RX/TX descriptor rings with capacity-limited occupancy;
//! * [`dma`] — the DMA engine moving frames between NIC and main memory
//!   over PCIe (multiple long-latency transactions per frame);
//! * [`moderation`] — the interrupt throttling timers (two AITTs, two
//!   PITTs, one MITT) that coalesce interrupts, plus the Interrupt Cause
//!   Read register semantics;
//! * [`nic`] — the [`Nic`] façade tying it together and embedding the
//!   NCAP hardware blocks ([`ncap::NcapHardware`]) when configured.
//!
//! Like the rest of the substrate, the NIC is passive: methods return
//! *outcomes* (completion instants, interrupt requests) that the cluster
//! layer turns into simulation events.
//!
//! ## Example
//!
//! ```
//! use nicsim::{Nic, NicConfig};
//! use netsim::packet::{NodeId, Packet};
//! use netsim::http::HttpRequest;
//! use desim::SimTime;
//!
//! let mut nic = Nic::new(NicConfig::i82574_like());
//! let frame = Packet::request(NodeId(1), NodeId(0), 1,
//!     HttpRequest::get("/").to_payload());
//! let outcome = nic.frame_arrived(SimTime::ZERO, frame);
//! assert!(outcome.dma_complete_at.is_some()); // accepted, DMA scheduled
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod dma;
pub mod moderation;
pub mod nic;
pub mod ring;

pub use dma::DmaEngine;
pub use moderation::ModerationTimer;
pub use nic::{
    Nic, NicConfig, RxOutcome, TxOutcome, AITT, DMA_BANDWIDTH_BPS, DMA_BASE_LATENCY,
    ICR_READ_LATENCY, PITT, TOE_HOLD, TOE_STACK_OFFLOAD, TX_RING,
};
pub use ring::DescriptorRing;
