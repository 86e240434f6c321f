//! Kernel configuration: per-path CPU costs and platform constants.
//!
//! The cycle costs below size the software layers the way the paper's
//! measurements imply: at the maximum sustained Apache load (~68 K rps on
//! four 3.1 GHz cores) the network stack on core 0 plus application work
//! on the remaining cores saturates the chip, and at the ~2.1×-higher
//! Memcached ceiling the (much lighter) per-request work does the same.

use bypass::Datapath;
use cpusim::PStateId;
use desim::{ConfigError, SimDuration};

/// ISR cost in cycles, excluding the ICR PCIe read (which is charged as
/// a frequency-independent stall, [`nicsim::ICR_READ_LATENCY`]).
pub const ISR_CYCLES: u64 = 3_000;
/// Receive SoftIRQ cost per frame (protocol processing, skb management,
/// socket delivery).
pub const RX_STACK_CYCLES: u64 = 6_000;
/// Transmit path cost per frame (segmentation bookkeeping, qdisc,
/// descriptor setup).
pub const TX_STACK_CYCLES: u64 = 3_000;
/// Cost of one dynamic-governor invocation (timer dispatch, load
/// sampling, cpufreq plumbing).
pub const GOVERNOR_TICK_CYCLES: u64 = 20_000;
/// Extra wake-up penalty for the MWAIT/MONITOR kernel path (§2.1:
/// privileged instructions costing 6–60 µs end to end; the low end
/// applies to the hot path modelled here).
pub const MWAIT_WAKE_OVERHEAD: SimDuration = SimDuration::from_us(25);

/// Cycles a busy-poll core spends to receive one frame in userspace
/// (ring pickup + protocol processing), against the kernel path's
/// `ISR_CYCLES + RX_STACK_CYCLES`: no context switch, no skb
/// allocation, no softirq scheduling.
pub const POLL_RX_CYCLES: u64 = 1_200;
/// Cycles a busy-poll core spends to transmit one response frame in
/// userspace (descriptor write, no doorbell), against `TX_STACK_CYCLES`.
pub const POLL_TX_CYCLES: u64 = 600;
/// Per-mille of the application's kernel-path CPU cycles that the
/// bypass datapath's zero-copy service loop still pays. The payload
/// goes to the application straight out of the userspace ring, so the
/// loop skips the socket-API copies and syscall crossings baked into the
/// kernel-path budget: a 25% discount, conservative against the 2x+
/// per-core gains userspace stacks report for memcached-class
/// workloads, and what pays back the core lost to polling.
pub const APP_CYCLE_PERMILLE: u64 = 750;

/// CoDel target sojourn time ([`ShedPolicy::CoDel`]).
pub const CODEL_TARGET: SimDuration = SimDuration::from_us(500);
/// CoDel observation interval ([`ShedPolicy::CoDel`]).
pub const CODEL_INTERVAL: SimDuration = SimDuration::from_ms(10);

/// Admission policy applied when overload protection is armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// No shedding: queue capacities are *not enforced* and the queues
    /// grow without bound (the pre-overload-protection behaviour). A
    /// config that sets capacities but leaves the policy at `None` is
    /// broken — the runtime watchdog reports it as a boundedness
    /// violation rather than this module silently capping anything.
    #[default]
    None,
    /// Reject new requests whenever the run queue is at capacity.
    DropTail,
    /// Drop-tail, plus reject any request whose elapsed time since the
    /// client stamped it already meets or exceeds its deadline — work
    /// that can no longer be answered in time is not worth admitting.
    /// Unstamped requests are exempt.
    Deadline,
    /// Drop-tail, plus a CoDel-style controller: once queue sojourn time
    /// stays above [`CODEL_TARGET`] for a full [`CODEL_INTERVAL`], shed one
    /// request, then the next after `interval/sqrt(2)`, `interval/sqrt(3)`,
    /// … until sojourn drops back under the target.
    CoDel,
}

impl ShedPolicy {
    /// The CLI spelling of the policy.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ShedPolicy::None => "none",
            ShedPolicy::DropTail => "drop-tail",
            ShedPolicy::Deadline => "deadline",
            ShedPolicy::CoDel => "codel",
        }
    }

    /// Parses the CLI spelling (`droptail` also names drop-tail).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] listing the accepted names.
    pub fn parse(s: &str) -> Result<Self, ConfigError> {
        match s {
            "none" => Ok(ShedPolicy::None),
            "drop-tail" | "droptail" => Ok(ShedPolicy::DropTail),
            "deadline" => Ok(ShedPolicy::Deadline),
            "codel" => Ok(ShedPolicy::CoDel),
            other => Err(ConfigError::new(
                "shed_policy",
                format!("unknown shed policy `{other}` (expected none|drop-tail|deadline|codel)"),
            )),
        }
    }
}

/// Overload protection: queue capacities and the admission policy that
/// enforces them.
///
/// With the default (`off()`) configuration every queue is unbounded and
/// behaviour is bit-identical to a kernel built before this subsystem
/// existed. Capacities only take effect when `policy` is not
/// [`ShedPolicy::None`]; the watchdog checks them either way, which is
/// how a cap-but-no-policy misconfiguration surfaces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadConfig {
    /// Run-queue admission capacity: application/overhead work is only
    /// enqueued while the *non-TX* queue depth is below this. TX work is
    /// a departure, not an arrival — it is bounded separately by
    /// `tx_backlog_cap` so responses keep flowing when admission is
    /// saturated. ISR and RX-softirq entries ride on top (bounded by the
    /// NIC queue count and `rx_backlog_cap`), so the hard bound on total
    /// depth is
    /// `run_queue_cap + queues × (rx_backlog_cap + 1) + tx_backlog_cap`.
    pub run_queue_cap: Option<usize>,
    /// Per-RSS-queue backlog cap: at most this many RX-softirq items per
    /// NIC queue may sit in the run queue; excess frames are tail-dropped
    /// at ISR drain (clients recover via RTO, as for a ring overflow).
    pub rx_backlog_cap: Option<usize>,
    /// TX cap, applied both to queued TX stack work and to the NIC-level
    /// TX backlog: frames past it are dropped and recovered by client
    /// retransmission and response replay.
    pub tx_backlog_cap: Option<usize>,
    /// Which admission policy sheds work when queues fill.
    pub policy: ShedPolicy,
}

impl OverloadConfig {
    /// Overload protection disabled: unbounded queues, legacy behaviour.
    #[must_use]
    pub fn off() -> Self {
        OverloadConfig {
            run_queue_cap: None,
            rx_backlog_cap: None,
            tx_backlog_cap: None,
            policy: ShedPolicy::None,
        }
    }

    /// Production-shaped caps with drop-tail admission: deep enough to
    /// absorb a full client burst, shallow enough that overload rejects
    /// instead of queueing into the millisecond range. The RX backlog cap
    /// deliberately sits *above* the admission cap so sustained overload
    /// surfaces as explicit 503s (the run queue fills and admission
    /// rejects) rather than as silent tail-drops the client can only
    /// discover by retransmission timeout.
    #[must_use]
    pub fn server_defaults() -> Self {
        OverloadConfig {
            run_queue_cap: Some(512),
            rx_backlog_cap: Some(1_024),
            tx_backlog_cap: Some(4_096),
            policy: ShedPolicy::DropTail,
        }
    }

    /// Builder-style run-queue capacity override.
    #[must_use]
    pub fn with_run_queue_cap(mut self, cap: usize) -> Self {
        self.run_queue_cap = Some(cap);
        self
    }

    /// Builder-style admission policy override.
    #[must_use]
    pub fn with_policy(mut self, policy: ShedPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// `true` when an admission policy is active and capacities are
    /// enforced.
    #[must_use]
    pub fn shedding(&self) -> bool {
        self.policy != ShedPolicy::None
    }

    /// The hard bound on total run-queue depth implied by the configured
    /// capacities (admission cap, plus the per-queue RX backlog and one
    /// ISR slot per NIC queue, plus the TX allowance), or `None` if any
    /// capacity is unbounded. The watchdog checks the live depth against
    /// this.
    #[must_use]
    pub fn queue_bound(&self, nic_queues: usize) -> Option<usize> {
        match (self.run_queue_cap, self.rx_backlog_cap, self.tx_backlog_cap) {
            (Some(rq), Some(rx), Some(tx)) => Some(rq + nic_queues * (rx + 1) + tx),
            _ => None,
        }
    }
}

impl Default for OverloadConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// Tunable kernel parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelConfig {
    /// Number of cores (Table 1: 4).
    pub cores: u8,
    /// P-state cores boot in.
    pub initial_pstate: PStateId,
    /// Paper §7 extension (multi-queue NICs): when `true`, an NCAP boost
    /// raises only cores that actually process packets/requests — core 0
    /// immediately, other cores on their first work dispatch — instead of
    /// the whole chip. Idle cores keep polling at their lower voltage.
    pub per_core_boost: bool,
    /// TCP-lite reliability at the receiver: suppress retransmitted
    /// duplicates of in-flight requests and replay responses for
    /// already-answered ones. Enabled by the cluster harness whenever
    /// fault injection is active; the default (`false`) keeps the
    /// lossless-fabric behavior bit-identical.
    pub reliable: bool,
    /// Overload protection: queue capacities and admission policy.
    pub overload: OverloadConfig,
    /// Which network datapath this node runs (interrupt-driven kernel
    /// stack, busy-poll bypass, or kernel stack with on-NIC NCAP).
    pub datapath: Datapath,
    /// Cores dedicated to busy-polling (the lowest-numbered ones),
    /// consulted only when `datapath` is [`Datapath::Bypass`]. They never
    /// sleep, never change P-state, and take no application work.
    pub poll_cores: u8,
}

impl KernelConfig {
    /// The four-core server of Table 1, booting at the deepest P-state
    /// (a dynamic governor raises it on demand).
    #[must_use]
    pub fn server_defaults() -> Self {
        KernelConfig {
            cores: 4,
            initial_pstate: PStateId(14),
            per_core_boost: false,
            reliable: false,
            overload: OverloadConfig::off(),
            datapath: Datapath::Kernel,
            poll_cores: 1,
        }
    }

    /// Builder-style core count override.
    #[must_use]
    pub fn with_cores(mut self, cores: u8) -> Self {
        self.cores = cores;
        self
    }

    /// Builder-style initial P-state override.
    #[must_use]
    pub fn with_initial_pstate(mut self, p: PStateId) -> Self {
        self.initial_pstate = p;
        self
    }

    /// Builder-style enable of the §7 per-core boost extension.
    #[must_use]
    pub fn with_per_core_boost(mut self) -> Self {
        self.per_core_boost = true;
        self
    }

    /// Builder-style enable of receiver-side duplicate suppression and
    /// response replay (the TCP-lite reliability layer).
    #[must_use]
    pub fn with_reliability(mut self) -> Self {
        self.reliable = true;
        self
    }

    /// Builder-style overload-protection override.
    #[must_use]
    pub fn with_overload(mut self, overload: OverloadConfig) -> Self {
        self.overload = overload;
        self
    }

    /// Builder-style datapath selection.
    #[must_use]
    pub fn with_datapath(mut self, datapath: Datapath) -> Self {
        self.datapath = datapath;
        self
    }

    /// Validates field constraints.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores == 0 {
            return Err(ConfigError::new("cores", "a node needs at least one core"));
        }
        if self.datapath.bypasses_kernel() {
            // At least one core must poll, and at least one must remain
            // for application work.
            if self.poll_cores == 0 {
                return Err(ConfigError::new(
                    "poll_cores",
                    "bypass datapath needs at least one busy-poll core",
                ));
            }
            if self.poll_cores >= self.cores {
                return Err(ConfigError::new(
                    "poll_cores",
                    format!(
                        "{} poll cores leave no application cores on a {}-core server",
                        self.poll_cores, self.cores
                    ),
                ));
            }
        }
        Ok(())
    }
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self::server_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table1_shape() {
        let c = KernelConfig::server_defaults();
        assert_eq!(c.cores, 4);
        assert_eq!(c.initial_pstate, PStateId(14));
        assert!(!c.reliable);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builders() {
        let c = KernelConfig::server_defaults()
            .with_cores(2)
            .with_initial_pstate(PStateId(0))
            .with_reliability();
        assert_eq!(c.cores, 2);
        assert_eq!(c.initial_pstate, PStateId(0));
        assert!(c.reliable);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn zero_cores_rejected() {
        let err = KernelConfig::server_defaults()
            .with_cores(0)
            .validate()
            .unwrap_err();
        assert_eq!(err.field, "cores");
        assert!(err.to_string().contains("at least one core"));
    }

    #[test]
    fn bypass_config_validates_core_budget() {
        let bypass = |poll_cores| KernelConfig {
            datapath: Datapath::Bypass,
            poll_cores,
            ..KernelConfig::server_defaults()
        };
        assert!(bypass(1).validate().is_ok());
        assert!(bypass(3).validate().is_ok());
        for n in [0, 4] {
            assert_eq!(bypass(n).validate().unwrap_err().field, "poll_cores");
        }
        // Only the bypass datapath reads the count.
        let kernel = KernelConfig {
            poll_cores: 0,
            ..KernelConfig::server_defaults()
        };
        assert!(kernel.validate().is_ok());
    }

    #[test]
    fn overload_defaults_are_off_and_unbounded() {
        let ov = OverloadConfig::off();
        assert!(!ov.shedding());
        assert_eq!(ov.queue_bound(1), None);
        let armed = OverloadConfig::server_defaults();
        assert!(armed.shedding());
        assert_eq!(armed.queue_bound(1), Some(512 + 1_025 + 4_096));
        assert_eq!(armed.queue_bound(4), Some(512 + 4 * 1_025 + 4_096));
    }

    #[test]
    fn shed_policy_names_roundtrip() {
        for p in [
            ShedPolicy::None,
            ShedPolicy::DropTail,
            ShedPolicy::Deadline,
            ShedPolicy::CoDel,
        ] {
            assert_eq!(ShedPolicy::parse(p.name()), Ok(p));
        }
        assert_eq!(ShedPolicy::parse("droptail"), Ok(ShedPolicy::DropTail));
        let err = ShedPolicy::parse("bogus").unwrap_err();
        assert_eq!(err.field, "shed_policy");
        assert!(
            err.reason.contains("none|drop-tail|deadline|codel"),
            "{err}"
        );
    }

    #[test]
    fn broken_cap_without_policy_passes_static_validation() {
        // Enforcement is the watchdog's job: caps with no shedding policy
        // validate here but trip the runtime boundedness check.
        let ov = OverloadConfig {
            run_queue_cap: Some(0),
            rx_backlog_cap: Some(0),
            tx_backlog_cap: Some(0),
            policy: ShedPolicy::None,
        };
        let cfg = KernelConfig::server_defaults().with_overload(ov);
        assert!(cfg.validate().is_ok());
        assert!(!ov.shedding());
        assert_eq!(ov.queue_bound(1), Some(1));
    }
}
