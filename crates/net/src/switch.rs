//! A store-and-forward Ethernet switch connecting cluster nodes.
//!
//! The evaluation cluster is a star: every node has a full-duplex link to
//! one switch (paper §5 models a four-node cluster on a switched Ethernet).
//! The switch receives a frame completely (store) and then forwards it on
//! the egress port toward its destination (forward), adding a small fixed
//! switching latency. Each direction of each port is an independent
//! [`Link`], so a response burst from the server contends only with other
//! traffic to the same destination.

use crate::faults::{
    DomainFaultStats, DomainImpairment, DropKind, FaultConfig, FaultStats, FaultVerdict, LinkFaults,
};
use crate::link::Link;
use crate::packet::NodeId;
use desim::{SimDuration, SimTime, SplitMix64};
use std::collections::BTreeMap;

/// A star-topology switch with per-port full-duplex links.
///
/// # Example
///
/// ```
/// use netsim::{Switch, Link, packet::NodeId};
/// use desim::{SimTime, SimDuration};
///
/// let mut sw = Switch::new(SimDuration::from_nanos(500));
/// sw.attach(NodeId(0), Link::ten_gbe(), Link::ten_gbe());
/// sw.attach(NodeId(1), Link::ten_gbe(), Link::ten_gbe());
/// let arrival = sw.forward(SimTime::ZERO, NodeId(0), NodeId(1), 1250).unwrap();
/// assert!(arrival > SimTime::from_us(2));
/// ```
#[derive(Debug)]
pub struct Switch {
    switching_latency: SimDuration,
    /// Per node, indexed by `NodeId.0`: (node→switch uplink,
    /// switch→node downlink), `None` where no node is attached.
    ports: Vec<Option<Port>>,
    frames_forwarded: u64,
    /// Impairment layer; `None` keeps the fault-free fast path untouched.
    faults: Option<FaultLayer>,
    /// Correlated failure-domain layer; `None` until the first
    /// [`fail_domain`](Self::fail_domain) call.
    domains: Option<DomainLayer>,
}

/// Per-switch fault-injection state: one RNG stream per directed pair,
/// created lazily so attach order does not matter.
#[derive(Debug)]
struct FaultLayer {
    config: FaultConfig,
    per_pair: BTreeMap<(NodeId, NodeId), LinkFaults>,
    stats: FaultStats,
}

/// Correlated failure-domain state: which nodes are currently impaired
/// and one lazily-created RNG stream per directed pair for brownout
/// draws. Created on the first [`Switch::fail_domain`] call, so a run
/// that never opens a fault window pays nothing.
#[derive(Debug)]
struct DomainLayer {
    seed: u64,
    impaired: BTreeMap<NodeId, DomainImpairment>,
    per_pair: BTreeMap<(NodeId, NodeId), SplitMix64>,
    stats: DomainFaultStats,
}

/// Verdict of the domain layer for one frame.
enum DomainVerdict {
    Deliver { extra_delay: SimDuration },
    DropPartition,
    DropBrownout,
}

impl DomainLayer {
    /// Stream for brownout draws on `src → dst`. A different mix constant
    /// than [`LinkFaults`] keeps domain and per-link streams independent
    /// even under the same seed.
    fn pair_rng(&mut self, src: NodeId, dst: NodeId) -> &mut SplitMix64 {
        let seed = self.seed;
        self.per_pair.entry((src, dst)).or_insert_with(|| {
            let mixed = seed
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .wrapping_add(u64::from(src.0) << 16)
                .wrapping_add(u64::from(dst.0) + 1);
            SplitMix64::new(mixed)
        })
    }

    /// Judges one frame: partition on either endpoint drops it outright;
    /// brownouts draw loss then jitter per impaired endpoint in `(src,
    /// dst)` order from the directed pair's stream.
    fn judge(&mut self, src: NodeId, dst: NodeId) -> DomainVerdict {
        let ends = [
            self.impaired.get(&src).copied(),
            self.impaired.get(&dst).copied(),
        ];
        if ends.iter().all(Option::is_none) {
            return DomainVerdict::Deliver {
                extra_delay: SimDuration::ZERO,
            };
        }
        if ends
            .iter()
            .any(|i| matches!(i, Some(DomainImpairment::Partition)))
        {
            self.stats.partition_drops += 1;
            return DomainVerdict::DropPartition;
        }
        let mut extra = SimDuration::ZERO;
        for imp in ends.into_iter().flatten() {
            let DomainImpairment::Brownout { loss, jitter } = imp else {
                continue;
            };
            if loss > 0.0 && self.pair_rng(src, dst).next_f64() < loss {
                self.stats.brownout_drops += 1;
                return DomainVerdict::DropBrownout;
            }
            if jitter > SimDuration::ZERO {
                let j = jitter.mul_f64(self.pair_rng(src, dst).next_f64());
                if j > SimDuration::ZERO {
                    self.stats.brownout_delayed += 1;
                    extra += j;
                }
            }
        }
        DomainVerdict::Deliver { extra_delay: extra }
    }
}

/// Outcome of [`Switch::route`]: either the frame arrives, or an injected
/// fault removed it from the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Frame fully received by the destination NIC at this instant.
    Deliver(SimTime),
    /// Frame dropped by the impairment layer; the sender's uplink time
    /// was still consumed (serialization happens before the drop).
    Dropped(DropKind),
}

#[derive(Debug)]
struct Port {
    uplink: Link,
    downlink: Link,
}

/// Error returned when forwarding to/from an unattached node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownNode(pub NodeId);

impl core::fmt::Display for UnknownNode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "node {} is not attached to the switch", self.0)
    }
}

impl std::error::Error for UnknownNode {}

impl Switch {
    /// Creates a switch with the given store-and-forward latency.
    #[must_use]
    pub fn new(switching_latency: SimDuration) -> Self {
        Switch {
            switching_latency,
            ports: Vec::new(),
            frames_forwarded: 0,
            faults: None,
            domains: None,
        }
    }

    /// Installs the impairment layer. A config with no active impairment
    /// dimensions leaves the switch fault-free (the retransmission policy
    /// lives in the cluster harness, not here).
    pub fn set_faults(&mut self, config: FaultConfig) {
        self.faults = config.impairs().then(|| FaultLayer {
            config,
            per_pair: BTreeMap::new(),
            stats: FaultStats::default(),
        });
    }

    /// Injected-fault counters ([`FaultStats::default`] when no
    /// impairment layer is installed).
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        self.faults
            .as_ref()
            .map_or_else(FaultStats::default, |f| f.stats)
    }

    /// Opens a correlated fault window: applies `impairment` to every
    /// member node at once, affecting all frames whose source or
    /// destination is a member. The first call installs the domain layer
    /// with `seed` for its brownout RNG streams; later calls reuse the
    /// installed streams so draws stay deterministic across overlapping
    /// windows. Re-failing an already impaired node replaces its
    /// impairment.
    pub fn fail_domain(&mut self, members: &[NodeId], impairment: DomainImpairment, seed: u64) {
        let layer = self.domains.get_or_insert_with(|| DomainLayer {
            seed,
            impaired: BTreeMap::new(),
            per_pair: BTreeMap::new(),
            stats: DomainFaultStats::default(),
        });
        for &node in members {
            layer.impaired.insert(node, impairment);
        }
    }

    /// Closes a fault window: removes any impairment from the member
    /// nodes. Counters and RNG streams persist so a later window on the
    /// same pair continues its stream.
    pub fn heal_domain(&mut self, members: &[NodeId]) {
        if let Some(layer) = self.domains.as_mut() {
            for node in members {
                layer.impaired.remove(node);
            }
        }
    }

    /// `true` while `node` is under a hard partition (health probes to a
    /// partitioned backend cannot succeed).
    #[must_use]
    pub fn is_partitioned(&self, node: NodeId) -> bool {
        self.domains.as_ref().is_some_and(|layer| {
            matches!(layer.impaired.get(&node), Some(DomainImpairment::Partition))
        })
    }

    /// Domain-fault counters ([`DomainFaultStats::default`] when no
    /// domain fault was ever injected).
    #[must_use]
    pub fn domain_stats(&self) -> DomainFaultStats {
        self.domains
            .as_ref()
            .map_or_else(DomainFaultStats::default, |layer| layer.stats)
    }

    /// Attaches `node` with its uplink (node→switch) and downlink
    /// (switch→node). Re-attaching replaces the port.
    pub fn attach(&mut self, node: NodeId, uplink: Link, downlink: Link) {
        let i = usize::from(node.0);
        if i >= self.ports.len() {
            self.ports.resize_with(i + 1, || None);
        }
        self.ports[i] = Some(Port { uplink, downlink });
    }

    /// Number of attached nodes.
    #[must_use]
    pub fn ports(&self) -> usize {
        self.ports.iter().flatten().count()
    }

    fn port(&self, node: NodeId) -> Option<&Port> {
        self.ports.get(usize::from(node.0))?.as_ref()
    }

    /// The attached port of `node`.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownNode`] if `node` is not attached.
    fn port_mut(&mut self, node: NodeId) -> Result<&mut Port, UnknownNode> {
        self.ports
            .get_mut(usize::from(node.0))
            .and_then(Option::as_mut)
            .ok_or(UnknownNode(node))
    }

    /// Total frames forwarded.
    #[must_use]
    pub fn frames_forwarded(&self) -> u64 {
        self.frames_forwarded
    }

    /// Carries a frame of `wire_bytes` from `src` to `dst`, starting at
    /// `now` on the source NIC's egress. Returns the instant the frame is
    /// fully received by the destination NIC.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownNode`] if either endpoint is not attached.
    pub fn forward(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        wire_bytes: usize,
    ) -> Result<SimTime, UnknownNode> {
        self.carry(now, src, dst, wire_bytes)
    }

    /// Fault-free carry: uplink serialization, switching latency,
    /// downlink serialization. Shared by [`forward`](Self::forward) and
    /// the delivered arm of [`route`](Self::route).
    fn carry(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        wire_bytes: usize,
    ) -> Result<SimTime, UnknownNode> {
        // An unknown destination charges no link, as below.
        self.port_mut(dst)?;
        // Node → switch.
        let (_, at_switch) = self.port_mut(src)?.uplink.transmit(now, wire_bytes);
        let ready = at_switch + self.switching_latency;
        // Switch → node.
        let (_, at_dst) = self.port_mut(dst)?.downlink.transmit(ready, wire_bytes);
        self.frames_forwarded += 1;
        if simtrace::is_enabled() {
            let t = now.as_nanos();
            let id =
                simtrace::async_begin("net", "transit", t, &[simtrace::arg("bytes", wire_bytes)]);
            simtrace::async_end("net", "transit", at_dst.as_nanos(), id);
            simtrace::metric_add("net", "frames_forwarded", t, 1.0);
        }
        Ok(at_dst)
    }

    /// Carries a frame like [`forward`](Self::forward), but subject to
    /// the installed impairment layer. Without one (or when the config is
    /// inert) this is exactly `forward` — same timing, same trace events
    /// — so routing through here is observer-effect-free when faults are
    /// off.
    ///
    /// A dropped frame still consumes the sender's uplink (serialization
    /// happens before the drop); a corrupted frame additionally consumes
    /// the downlink, since it reaches the receiver before the FCS check
    /// discards it.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownNode`] if either endpoint is not attached.
    pub fn route(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        wire_bytes: usize,
    ) -> Result<Delivery, UnknownNode> {
        // Domain faults first: a partition or brownout on either endpoint
        // affects the frame regardless of per-link impairments, and its
        // drops count as losses end-to-end (the retransmission layer
        // cannot tell them apart, only the counters can).
        let mut domain_extra = SimDuration::ZERO;
        if let Some(dom) = self.domains.as_mut() {
            match dom.judge(src, dst) {
                DomainVerdict::Deliver { extra_delay } => domain_extra = extra_delay,
                verdict @ (DomainVerdict::DropPartition | DomainVerdict::DropBrownout) => {
                    self.port_mut(dst)?;
                    // The drop still consumes the sender's uplink.
                    let _ = self.port_mut(src)?.uplink.transmit(now, wire_bytes);
                    if simtrace::is_enabled() {
                        let metric = match verdict {
                            DomainVerdict::DropPartition => "partition_drops",
                            _ => "brownout_drops",
                        };
                        simtrace::metric_add("chaos", metric, now.as_nanos(), 1.0);
                    }
                    return Ok(Delivery::Dropped(DropKind::Loss));
                }
            }
        }
        if simtrace::is_enabled() && domain_extra > SimDuration::ZERO {
            simtrace::metric_add(
                "chaos",
                "brownout_jitter_ns",
                now.as_nanos(),
                domain_extra.as_nanos() as f64,
            );
        }
        let Some(layer) = self.faults.as_mut() else {
            let at = self.carry(now, src, dst, wire_bytes)? + domain_extra;
            return Ok(Delivery::Deliver(at));
        };
        let seed = layer.config.seed;
        let before = layer.stats;
        let verdict = layer
            .per_pair
            .entry((src, dst))
            .or_insert_with(|| LinkFaults::new(seed, src, dst))
            .judge(&layer.config, &mut layer.stats);
        let (reordered, jittered) = (
            layer.stats.reorders > before.reorders,
            layer.stats.jittered > before.jittered,
        );
        match verdict {
            FaultVerdict::Deliver { extra_delay } => {
                let at_dst = self.carry(now, src, dst, wire_bytes)? + extra_delay + domain_extra;
                if simtrace::is_enabled() {
                    let t = now.as_nanos();
                    if reordered {
                        simtrace::metric_add("net", "fault_reorders", t, 1.0);
                    }
                    if jittered {
                        simtrace::metric_add(
                            "net",
                            "fault_jitter_ns",
                            t,
                            extra_delay.as_nanos() as f64,
                        );
                    }
                }
                Ok(Delivery::Deliver(at_dst))
            }
            FaultVerdict::Drop(kind) => {
                self.port_mut(dst)?;
                let (_, at_switch) = self.port_mut(src)?.uplink.transmit(now, wire_bytes);
                if kind == DropKind::Corrupt {
                    // The corrupted frame traverses the fabric and is
                    // discarded at the receiver.
                    let ready = at_switch + self.switching_latency;
                    let _ = self.port_mut(dst)?.downlink.transmit(ready, wire_bytes);
                }
                if simtrace::is_enabled() {
                    let t = now.as_nanos();
                    let (name, metric) = match kind {
                        DropKind::Loss => ("fault_loss", "fault_losses"),
                        DropKind::Corrupt => ("fault_corrupt", "fault_corruptions"),
                    };
                    simtrace::instant_args("net", name, t, &[simtrace::arg("bytes", wire_bytes)]);
                    simtrace::metric_add("net", metric, t, 1.0);
                }
                Ok(Delivery::Dropped(kind))
            }
        }
    }

    /// Bytes carried toward `node` so far (downlink utilization).
    #[must_use]
    pub fn bytes_to(&self, node: NodeId) -> Option<u64> {
        self.port(node).map(|p| p.downlink.bytes_carried())
    }

    /// Bytes carried from `node` so far (uplink utilization).
    #[must_use]
    pub fn bytes_from(&self, node: NodeId) -> Option<u64> {
        self.port(node).map(|p| p.uplink.bytes_carried())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_switch() -> Switch {
        let mut sw = Switch::new(SimDuration::from_nanos(500));
        sw.attach(NodeId(0), Link::ten_gbe(), Link::ten_gbe());
        sw.attach(NodeId(1), Link::ten_gbe(), Link::ten_gbe());
        sw
    }

    #[test]
    fn end_to_end_latency_components() {
        let mut sw = two_node_switch();
        // 1250 B at 10 Gbps = 1 us serialization per hop; 1 us propagation
        // per hop; 0.5 us switching.
        let arrival = sw
            .forward(SimTime::ZERO, NodeId(0), NodeId(1), 1250)
            .unwrap();
        assert_eq!(arrival, SimTime::from_nanos(4_500));
    }

    #[test]
    fn unknown_nodes_are_errors() {
        let mut sw = two_node_switch();
        assert_eq!(
            sw.forward(SimTime::ZERO, NodeId(0), NodeId(9), 100),
            Err(UnknownNode(NodeId(9)))
        );
        assert_eq!(
            sw.forward(SimTime::ZERO, NodeId(9), NodeId(0), 100),
            Err(UnknownNode(NodeId(9)))
        );
        assert!(UnknownNode(NodeId(9)).to_string().contains("node9"));
    }

    #[test]
    fn contention_only_on_shared_downlink() {
        let mut sw = Switch::new(SimDuration::ZERO);
        for n in 0..3 {
            sw.attach(NodeId(n), Link::ten_gbe(), Link::ten_gbe());
        }
        // Two sources, one destination: second frame queues on the downlink.
        let a1 = sw
            .forward(SimTime::ZERO, NodeId(0), NodeId(2), 12_500)
            .unwrap();
        let a2 = sw
            .forward(SimTime::ZERO, NodeId(1), NodeId(2), 12_500)
            .unwrap();
        assert!(a2 > a1);
        // Distinct destinations do not contend.
        let mut sw2 = Switch::new(SimDuration::ZERO);
        for n in 0..3 {
            sw2.attach(NodeId(n), Link::ten_gbe(), Link::ten_gbe());
        }
        let b1 = sw2
            .forward(SimTime::ZERO, NodeId(0), NodeId(1), 12_500)
            .unwrap();
        let b2 = sw2
            .forward(SimTime::ZERO, NodeId(2), NodeId(1), 12_500)
            .unwrap();
        let c1 = sw2
            .forward(SimTime::from_ms(1), NodeId(0), NodeId(2), 12_500)
            .unwrap();
        assert!(b2 > b1);
        assert!(c1 < SimTime::from_ms(2));
    }

    #[test]
    fn per_pair_fifo_order_is_preserved() {
        // Frames between one (src, dst) pair arrive in the order sent —
        // TCP's in-order assumption holds on this fabric.
        use check::{ensure, gen, Check};
        Check::new("switch_per_pair_fifo").run(
            |rng, size| {
                gen::vec_with(rng, size, 1, 60, |r| {
                    (gen::usize_in(r, 64, 1_600), r.next_below(5_000))
                })
            },
            |frames| {
                let mut sw = Switch::new(SimDuration::from_nanos(500));
                sw.attach(NodeId(0), Link::ten_gbe(), Link::ten_gbe());
                sw.attach(NodeId(1), Link::ten_gbe(), Link::ten_gbe());
                let mut now = SimTime::ZERO;
                let mut last_arrival = SimTime::ZERO;
                for &(sz, gap) in frames {
                    now += SimDuration::from_nanos(gap);
                    let arrival = sw.forward(now, NodeId(0), NodeId(1), sz).unwrap();
                    ensure!(arrival > now, "arrival after send");
                    ensure!(arrival >= last_arrival, "in-order delivery");
                    last_arrival = arrival;
                }
                Ok(())
            },
        );
    }

    #[test]
    fn route_without_faults_matches_forward() {
        let mut a = two_node_switch();
        let mut b = two_node_switch();
        // Inert config: set_faults must not install a layer.
        b.set_faults(FaultConfig::none());
        for i in 0..20u64 {
            let now = SimTime::from_nanos(i * 700);
            let fwd = a.forward(now, NodeId(0), NodeId(1), 1_000).unwrap();
            let routed = b.route(now, NodeId(0), NodeId(1), 1_000).unwrap();
            assert_eq!(routed, Delivery::Deliver(fwd));
        }
        assert_eq!(b.fault_stats(), FaultStats::default());
        assert_eq!(a.frames_forwarded(), b.frames_forwarded());
    }

    #[test]
    fn route_injects_deterministic_drops() {
        let run = || {
            let mut sw = two_node_switch();
            sw.set_faults(FaultConfig::lossy(0.3, 99));
            let mut outcomes = Vec::new();
            for i in 0..200u64 {
                let now = SimTime::from_nanos(i * 2_000);
                outcomes.push(sw.route(now, NodeId(0), NodeId(1), 800).unwrap());
            }
            (outcomes, sw.fault_stats())
        };
        let (a, stats) = run();
        let (b, _) = run();
        assert_eq!(a, b, "same seed, same verdicts");
        let dropped = a
            .iter()
            .filter(|d| matches!(d, Delivery::Dropped(_)))
            .count() as u64;
        assert_eq!(dropped, stats.dropped());
        assert!(dropped > 20, "~30% of 200 frames should drop");
        assert!(dropped < 120);
    }

    #[test]
    fn jitter_delays_but_delivers() {
        let mut plain = two_node_switch();
        let mut jittery = two_node_switch();
        jittery.set_faults(FaultConfig::lossy(0.0, 5).with_jitter(SimDuration::from_us(10)));
        let mut delayed = 0;
        for i in 0..50u64 {
            let now = SimTime::from_nanos(i * 20_000);
            let base = plain.forward(now, NodeId(0), NodeId(1), 500).unwrap();
            match jittery.route(now, NodeId(0), NodeId(1), 500).unwrap() {
                Delivery::Deliver(at) => {
                    assert!(at >= base);
                    assert!(at <= base + SimDuration::from_us(10));
                    if at > base {
                        delayed += 1;
                    }
                }
                Delivery::Dropped(_) => panic!("loss disabled"),
            }
        }
        assert!(delayed > 0, "jitter should delay some frames");
        assert_eq!(jittery.fault_stats().jittered, delayed);
    }

    #[test]
    fn partition_drops_every_frame_until_healed() {
        let mut sw = two_node_switch();
        assert!(!sw.is_partitioned(NodeId(1)));
        sw.fail_domain(&[NodeId(1)], DomainImpairment::Partition, 7);
        assert!(sw.is_partitioned(NodeId(1)));
        for i in 0..10u64 {
            let now = SimTime::from_nanos(i * 5_000);
            // Both directions die: the member cannot send or receive.
            assert_eq!(
                sw.route(now, NodeId(0), NodeId(1), 500).unwrap(),
                Delivery::Dropped(DropKind::Loss)
            );
            assert_eq!(
                sw.route(now, NodeId(1), NodeId(0), 500).unwrap(),
                Delivery::Dropped(DropKind::Loss)
            );
        }
        assert_eq!(sw.domain_stats().partition_drops, 20);
        sw.heal_domain(&[NodeId(1)]);
        assert!(!sw.is_partitioned(NodeId(1)));
        let healed = sw.route(SimTime::from_ms(1), NodeId(0), NodeId(1), 500);
        assert!(matches!(healed, Ok(Delivery::Deliver(_))));
        assert_eq!(sw.domain_stats().partition_drops, 20);
        // Per-link fault stats stay untouched by domain drops.
        assert_eq!(sw.fault_stats(), FaultStats::default());
    }

    #[test]
    fn brownout_is_deterministic_and_composes_with_link_faults() {
        let imp = DomainImpairment::Brownout {
            loss: 0.3,
            jitter: SimDuration::from_us(5),
        };
        let run = || {
            let mut sw = two_node_switch();
            sw.set_faults(FaultConfig::lossy(0.1, 11));
            sw.fail_domain(&[NodeId(1)], imp, 77);
            let mut outcomes = Vec::new();
            for i in 0..300u64 {
                let now = SimTime::from_nanos(i * 3_000);
                outcomes.push(sw.route(now, NodeId(0), NodeId(1), 600).unwrap());
            }
            (outcomes, sw.domain_stats(), sw.fault_stats())
        };
        let (a, dom, link) = run();
        let (b, _, _) = run();
        assert_eq!(a, b, "same seed, same verdicts");
        assert!(dom.brownout_drops > 30, "~30% brownout loss: {dom:?}");
        assert!(dom.brownout_delayed > 0);
        assert_eq!(dom.partition_drops, 0);
        assert!(link.losses > 0, "per-link loss still active: {link:?}");
        let dropped = a
            .iter()
            .filter(|d| matches!(d, Delivery::Dropped(_)))
            .count() as u64;
        assert_eq!(dropped, dom.dropped() + link.dropped());
    }

    #[test]
    fn unused_domain_layer_is_observer_effect_free() {
        let mut plain = two_node_switch();
        let mut chaotic = two_node_switch();
        // Open and immediately close a window before any traffic: the
        // healed switch must behave exactly like one never touched.
        chaotic.fail_domain(&[NodeId(0)], DomainImpairment::Partition, 3);
        chaotic.heal_domain(&[NodeId(0)]);
        for i in 0..20u64 {
            let now = SimTime::from_nanos(i * 900);
            let a = plain.forward(now, NodeId(0), NodeId(1), 800).unwrap();
            let b = chaotic.route(now, NodeId(0), NodeId(1), 800).unwrap();
            assert_eq!(b, Delivery::Deliver(a));
        }
        assert_eq!(chaotic.domain_stats(), DomainFaultStats::default());
    }

    #[test]
    fn byte_accounting_per_port() {
        let mut sw = two_node_switch();
        sw.forward(SimTime::ZERO, NodeId(0), NodeId(1), 1_000)
            .unwrap();
        assert_eq!(sw.bytes_from(NodeId(0)), Some(1_000));
        assert_eq!(sw.bytes_to(NodeId(1)), Some(1_000));
        assert_eq!(sw.bytes_to(NodeId(0)), Some(0));
        assert_eq!(sw.bytes_to(NodeId(7)), None);
        assert_eq!(sw.frames_forwarded(), 1);
        assert_eq!(sw.ports(), 2);
    }
}
