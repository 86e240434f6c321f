//! Kernel-bypass poll-mode datapath primitives.
//!
//! NCAP optimizes the *interrupt-driven* kernel stack; the rival stack it has
//! to answer is DPDK/XDP-style kernel bypass, where dedicated cores busy-poll
//! userspace descriptor rings and never sleep. This crate holds the pieces of
//! that model that are independent of the kernel simulator:
//!
//! * [`Datapath`] — the three-way stack selector (`kernel`, `bypass`,
//!   `offload`) threaded through `ExperimentConfig`, `KernelConfig` and the
//!   CLI.
//! * [`UserRing`] — a deterministic FIFO descriptor ring with high-water and
//!   throughput accounting, used by the kernel model as the userspace RX/TX
//!   work ring that poll cores drain.
//!
//! The poll-mode semantics themselves (skipping IRQ/NAPI/run-queue stages,
//! pinning poll cores in C0 at max P-state, assert-time NCAP actions for
//! `offload`) and the userspace per-frame cycle costs live in `oskernel`,
//! which consumes these types.

use std::collections::VecDeque;

use desim::ConfigError;

/// Which network datapath a server runs.
///
/// * `Kernel` — the baseline interrupt-driven path: DMA, interrupt
///   moderation, ISR, NAPI drain, SoftIRQ stack, run queue. This is the
///   default and is observer-effect-free: a kernel-datapath run is
///   bit-identical to one built before the datapath switch existed.
/// * `Bypass` — poll mode. Dedicated cores spin on userspace descriptor
///   rings; no interrupts are armed, no moderation timers fire, no SoftIRQ
///   work is queued, and the poll cores are exempt from C/P-state governance
///   (they are billed at active power continuously). Worker cores spin-wait
///   on the work queue too — with no interrupt path there is nothing to wake
///   a sleeping core — so the whole socket stays in C0.
/// * `Offload` — the kernel datapath with the NCAP decision engine running
///   on-NIC: packet-context actions (wakes, P-state boosts, menu gating)
///   apply at interrupt-assert time instead of inside the host ISR, and the
///   ISR no longer stalls on the PCIe ICR read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Datapath {
    /// Interrupt-driven kernel stack (default).
    #[default]
    Kernel,
    /// Busy-poll userspace rings; no interrupt path at all.
    Bypass,
    /// Kernel stack with the NCAP engine on the NIC.
    Offload,
}

impl Datapath {
    /// Every variant, in CLI/display order.
    pub const ALL: [Datapath; 3] = [Datapath::Kernel, Datapath::Bypass, Datapath::Offload];

    /// The CLI token for this datapath (`kernel` / `bypass` / `offload`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Datapath::Kernel => "kernel",
            Datapath::Bypass => "bypass",
            Datapath::Offload => "offload",
        }
    }

    /// Parses a CLI token. Accepts the exact names from [`Datapath::name`].
    pub fn parse(s: &str) -> Result<Self, ConfigError> {
        match s {
            "kernel" => Ok(Datapath::Kernel),
            "bypass" => Ok(Datapath::Bypass),
            "offload" => Ok(Datapath::Offload),
            other => Err(ConfigError::new(
                "datapath",
                format!("unknown datapath `{other}` (expected kernel|bypass|offload)"),
            )),
        }
    }

    /// `true` when RX/TX skip the kernel interrupt path entirely and are
    /// driven by busy-poll cores instead.
    #[must_use]
    pub fn bypasses_kernel(self) -> bool {
        matches!(self, Datapath::Bypass)
    }

    /// `true` when the NCAP decision engine runs on the NIC and steers the
    /// host at interrupt-assert time.
    #[must_use]
    pub fn offloads_ncap(self) -> bool {
        matches!(self, Datapath::Offload)
    }
}

impl std::fmt::Display for Datapath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A deterministic FIFO descriptor ring with occupancy accounting.
///
/// Models the userspace RX/TX ring a poll core spins on: producers (the
/// NIC-facing poll loop, or an application core emitting a response) push
/// descriptors, poll cores pop them in order. Unlike the hardware ring in
/// `nicsim`, this ring is not capacity-bound — backpressure on the bypass
/// path shows up as ring residency (`poll_wait` latency), not drops — but it
/// tracks its high-water mark and total throughput so overload is visible.
#[derive(Debug, Clone, Default)]
pub struct UserRing<T> {
    slots: VecDeque<T>,
    high_water: usize,
    pushed: u64,
    popped: u64,
}

impl<T> UserRing<T> {
    /// An empty ring.
    #[must_use]
    pub fn new() -> Self {
        UserRing {
            slots: VecDeque::new(),
            high_water: 0,
            pushed: 0,
            popped: 0,
        }
    }

    /// Appends a descriptor at the producer end.
    pub fn push(&mut self, item: T) {
        self.slots.push_back(item);
        self.pushed += 1;
        self.high_water = self.high_water.max(self.slots.len());
    }

    /// Pops the oldest descriptor, if any.
    pub fn pop(&mut self) -> Option<T> {
        let item = self.slots.pop_front();
        if item.is_some() {
            self.popped += 1;
        }
        item
    }

    /// Current occupancy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when no descriptors are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Maximum occupancy ever observed.
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Total descriptors ever pushed.
    #[must_use]
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Total descriptors ever popped.
    #[must_use]
    pub fn popped(&self) -> u64 {
        self.popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datapath_parse_round_trips() {
        for dp in Datapath::ALL {
            assert_eq!(Datapath::parse(dp.name()).unwrap(), dp);
            assert_eq!(format!("{dp}"), dp.name());
        }
        let err = Datapath::parse("xdp").unwrap_err();
        assert_eq!(err.field, "datapath");
        assert!(
            err.reason.contains("kernel|bypass|offload"),
            "{}",
            err.reason
        );
    }

    #[test]
    fn datapath_default_is_kernel() {
        assert_eq!(Datapath::default(), Datapath::Kernel);
        assert!(!Datapath::Kernel.bypasses_kernel());
        assert!(!Datapath::Kernel.offloads_ncap());
        assert!(Datapath::Bypass.bypasses_kernel());
        assert!(!Datapath::Bypass.offloads_ncap());
        assert!(!Datapath::Offload.bypasses_kernel());
        assert!(Datapath::Offload.offloads_ncap());
    }

    #[test]
    fn user_ring_is_fifo_with_accounting() {
        let mut ring = UserRing::new();
        assert!(ring.is_empty());
        assert_eq!(ring.pop(), None);
        for i in 0..5 {
            ring.push(i);
        }
        assert_eq!(ring.len(), 5);
        assert_eq!(ring.high_water(), 5);
        assert_eq!(ring.pop(), Some(0));
        assert_eq!(ring.pop(), Some(1));
        ring.push(5);
        assert_eq!(
            ring.high_water(),
            5,
            "high-water keeps the max, not current"
        );
        let rest: Vec<_> = std::iter::from_fn(|| ring.pop()).collect();
        assert_eq!(rest, vec![2, 3, 4, 5]);
        assert_eq!(ring.pushed(), 6);
        assert_eq!(ring.popped(), 6);
    }
}
