//! # ncap — Network-driven, packet Context-Aware Power management
//!
//! The primary contribution of *"NCAP: Network-Driven, Packet
//! Context-Aware Power Management for Client-Server Architecture"*
//! (Alian et al., HPCA 2017), as a reusable library.
//!
//! NCAP enhances a NIC and its driver so the *network* — not a sampled
//! utilization signal — drives processor power management:
//!
//! * [`ReqMonitor`] inspects the first two TCP-payload bytes of every
//!   received frame (offset 66) against **sysfs-programmable templates**
//!   (`GET `, `get `, …) and counts latency-critical requests (`ReqCnt`);
//! * [`TxBytesCounter`] counts transmitted bytes (`TxCnt`) — responses
//!   span several MTU-sized frames, so no payload context is needed;
//! * [`DecisionEngine`] turns counter rates into proactive interrupts on
//!   each Master Interrupt Throttling Timer (MITT) expiry:
//!   [`IcrFlags::IT_HIGH`] when the request rate crosses RHT and the
//!   processor is not at maximum frequency, [`IcrFlags::IT_LOW`] after a
//!   sustained low-activity window, and an immediate [`IcrFlags::IT_RX`]
//!   when a request arrives after more than CIT of interrupt silence
//!   (the cores are speculatively asleep);
//! * [`EnhancedDriver`] maps those interrupt bits to cpufreq/cpuidle
//!   actions: jump to P0 + disable the menu governor + suspend ondemand
//!   on `IT_HIGH`; step the frequency down by the FCONS schedule and
//!   re-enable menu on `IT_LOW`;
//! * [`SoftwareNcap`] is the paper's `ncap.sw` baseline: the same
//!   algorithm in the SoftIRQ path with a 1 ms kernel timer, paying CPU
//!   cycles for every inspection.
//!
//! The hardware blocks are *pure state machines*: they consume packets
//! and times, and return decisions. The `nicsim` crate embeds them in a
//! NIC model; `oskernel` applies driver actions to cores and governors.
//!
//! ## Example
//!
//! ```
//! use ncap::{NcapConfig, NcapHardware};
//! use netsim::packet::{NodeId, Packet};
//! use netsim::http::HttpRequest;
//! use desim::SimTime;
//!
//! let mut hw = NcapHardware::new(NcapConfig::paper_defaults());
//! let frame = Packet::request(NodeId(1), NodeId(0), 1,
//!     HttpRequest::get("/").to_payload());
//! // After a long silence, the very first request triggers an immediate
//! // IT_RX wake-up interrupt.
//! let icr = hw.on_rx_frame(SimTime::from_ms(5), &frame);
//! assert!(icr.is_some());
//! ```

pub mod config;
pub mod decision;
pub mod driver;
pub mod icr;
pub mod req_monitor;
pub mod software;
pub mod sysfs;
pub mod tx_counter;

pub use config::{NcapConfig, ONDEMAND_SUSPEND};
pub use decision::{DecisionEngine, NcapHardware, RateSample};
pub use driver::{DriverAction, EnhancedDriver};
pub use icr::IcrFlags;
pub use req_monitor::ReqMonitor;
pub use software::{SoftwareNcap, SW_PER_PACKET_CYCLES, SW_PER_TX_CYCLES, SW_TIMER_CYCLES};
pub use sysfs::Sysfs;
pub use tx_counter::TxBytesCounter;
