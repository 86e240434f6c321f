//! Open-loop bursty clients.
//!
//! Paper §5: clients are **open-loop** — they emit requests on their own
//! schedule regardless of outstanding responses — to avoid client-side
//! queueing bias and inter-burst dependencies (the Treadmill pitfalls).
//! To model bursty datacenter traffic, each client "periodically sends a
//! burst of requests" with the period set by the target load level.

use desim::{SimDuration, SimTime, SplitMix64};
use netsim::http::{HttpRequest, MemcachedRequest};
use netsim::{Bytes, NodeId, Packet};

/// The arrival process a client uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Periodic bursts (the paper's §5 model of datacenter traffic).
    Bursty,
    /// Smooth Poisson arrivals at the same offered rate — the contrast
    /// case for the burstiness ablation: NCAP's anticipation has nothing
    /// to anticipate when traffic has no bursts.
    Poisson,
}

/// Which request payloads a client emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// HTTP `GET`s for an Apache-like server.
    ApacheGet,
    /// Memcached `get`s.
    MemcachedGet,
    /// Raw bulk frames with no recognizable request token (off-line
    /// analytics style background traffic).
    Bulk,
}

/// Per-client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// This client's node id.
    pub me: NodeId,
    /// The server to address.
    pub server: NodeId,
    /// Requests per burst.
    pub burst_size: u32,
    /// Time between burst starts.
    pub period: SimDuration,
    /// Payload family.
    pub workload: Workload,
    /// RNG seed (burst jitter, key/path choice).
    pub seed: u64,
    /// Request-id base; clients must use disjoint ranges.
    pub id_base: u64,
    /// Optional load step: from this instant on, bursts use the new
    /// period — the paper's §1 "sudden increase in the rate of requests".
    pub step: Option<(SimTime, SimDuration)>,
    /// The arrival process.
    pub arrival: Arrival,
    /// Optional end-to-end deadline stamped on every request (measured
    /// from the send instant). Servers running the deadline shed policy
    /// reject work that can no longer meet it.
    pub deadline: Option<SimDuration>,
}

impl ClientConfig {
    /// An Apache GET client.
    #[must_use]
    pub fn apache(
        me: NodeId,
        server: NodeId,
        burst_size: u32,
        period: SimDuration,
        seed: u64,
    ) -> Self {
        ClientConfig {
            me,
            server,
            burst_size,
            period,
            workload: Workload::ApacheGet,
            seed,
            id_base: u64::from(me.0) << 40,
            step: None,
            arrival: Arrival::Bursty,
            deadline: None,
        }
    }

    /// A Memcached GET client.
    #[must_use]
    pub fn memcached(
        me: NodeId,
        server: NodeId,
        burst_size: u32,
        period: SimDuration,
        seed: u64,
    ) -> Self {
        ClientConfig {
            workload: Workload::MemcachedGet,
            ..ClientConfig::apache(me, server, burst_size, period, seed)
        }
    }

    /// Overrides the workload (builder style).
    #[must_use]
    pub fn with_workload(mut self, w: Workload) -> Self {
        self.workload = w;
        self
    }

    /// Schedules a load step: after `at`, bursts repeat every
    /// `new_period` (builder style).
    #[must_use]
    pub fn with_step(mut self, at: SimTime, new_period: SimDuration) -> Self {
        self.step = Some((at, new_period));
        self
    }

    /// Switches to smooth Poisson arrivals at the same offered rate
    /// (builder style).
    #[must_use]
    pub fn with_poisson(mut self) -> Self {
        self.arrival = Arrival::Poisson;
        self
    }

    /// Stamps every emitted request with an end-to-end deadline (builder
    /// style).
    #[must_use]
    pub fn with_deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Offered load in requests per second.
    #[must_use]
    pub fn offered_rps(&self) -> f64 {
        f64::from(self.burst_size) / self.period.as_secs_f64()
    }
}

/// An open-loop burst generator.
#[derive(Debug)]
pub struct OpenLoopClient {
    config: ClientConfig,
    rng: SplitMix64,
    next_id: u64,
}

impl OpenLoopClient {
    /// Creates the client.
    #[must_use]
    pub fn new(config: ClientConfig) -> Self {
        let rng = SplitMix64::new(config.seed);
        let next_id = config.id_base;
        OpenLoopClient {
            config,
            rng,
            next_id,
        }
    }

    /// The client's configuration.
    #[must_use]
    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    fn payload(&mut self) -> Bytes {
        match self.config.workload {
            Workload::ApacheGet => {
                let doc = self.rng.next_below(10_000);
                HttpRequest::get(format!("/doc/{doc}.html")).to_payload()
            }
            Workload::MemcachedGet => {
                let key = self.rng.next_below(1_000_000);
                MemcachedRequest::get(format!("user:{key}")).to_payload()
            }
            Workload::Bulk => Bytes::from(vec![0xA5u8; netsim::packet::MSS]),
        }
    }

    /// Emits the traffic due at `now` (a burst, or a single Poisson
    /// arrival). Returns the request frames (to be injected into the
    /// network at `now`) and the next emission instant.
    pub fn next_burst(&mut self, now: SimTime) -> (Vec<Packet>, SimTime) {
        let count = match self.config.arrival {
            Arrival::Bursty => self.config.burst_size,
            Arrival::Poisson => 1,
        };
        let mut frames = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let id = self.next_id;
            self.next_id += 1;
            let payload = self.payload();
            let frame = match self.config.workload {
                Workload::Bulk => Packet::new(
                    self.config.me,
                    self.config.server,
                    id as u32,
                    payload,
                    netsim::PacketMeta::default(),
                ),
                _ => {
                    let mut f = Packet::request(self.config.me, self.config.server, id, payload)
                        .sent_at(now);
                    if let Some(d) = self.config.deadline {
                        f = f.with_deadline(d);
                    }
                    f
                }
            };
            frames.push(frame);
        }
        let period = match self.config.step {
            Some((at, stepped)) if now >= at => stepped,
            _ => self.config.period,
        };
        let gap = match self.config.arrival {
            Arrival::Bursty => {
                // ±5 % period jitter decorrelates the three clients'
                // bursts a little, as independent load generators would be.
                let jitter = self.rng.next_f64_in(0.95, 1.05);
                period.mul_f64(jitter)
            }
            Arrival::Poisson => {
                // Exponential inter-arrival with the same mean rate.
                let mean = period.as_secs_f64() / f64::from(self.config.burst_size);
                desim::SimDuration::from_secs_f64(self.rng.next_exp(mean))
            }
        };
        (frames, now + gap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apache_client() -> OpenLoopClient {
        OpenLoopClient::new(ClientConfig::apache(
            NodeId(1),
            NodeId(0),
            10,
            SimDuration::from_ms(5),
            42,
        ))
    }

    #[test]
    fn burst_has_configured_size_and_valid_payloads() {
        let mut c = apache_client();
        let (frames, next) = c.next_burst(SimTime::from_ms(1));
        assert_eq!(frames.len(), 10);
        for f in &frames {
            assert!(f.payload().starts_with(b"GET "));
            assert_eq!(f.meta().sent_at, SimTime::from_ms(1));
            assert!(f.meta().request_id.is_some());
        }
        let gap = next.saturating_since(SimTime::from_ms(1));
        assert!(gap >= SimDuration::from_ms(4));
        assert!(gap <= SimDuration::from_nanos(5_300_000));
    }

    #[test]
    fn request_ids_are_unique_and_namespaced() {
        let mut a = OpenLoopClient::new(ClientConfig::apache(
            NodeId(1),
            NodeId(0),
            5,
            SimDuration::from_ms(1),
            1,
        ));
        let mut b = OpenLoopClient::new(ClientConfig::apache(
            NodeId(2),
            NodeId(0),
            5,
            SimDuration::from_ms(1),
            1,
        ));
        let (fa, _) = a.next_burst(SimTime::ZERO);
        let (fb, _) = b.next_burst(SimTime::ZERO);
        let mut ids: Vec<u64> = fa
            .iter()
            .chain(fb.iter())
            .map(|f| f.meta().request_id.unwrap())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 10);
    }

    #[test]
    fn offered_rps_math() {
        let cfg = ClientConfig::apache(NodeId(1), NodeId(0), 100, SimDuration::from_ms(5), 1);
        assert!((cfg.offered_rps() - 20_000.0).abs() < 1e-6);
    }

    #[test]
    fn memcached_payloads() {
        let mut c = OpenLoopClient::new(ClientConfig::memcached(
            NodeId(1),
            NodeId(0),
            3,
            SimDuration::from_ms(1),
            9,
        ));
        let (frames, _) = c.next_burst(SimTime::ZERO);
        for f in &frames {
            assert!(f.payload().starts_with(b"get "));
        }
    }

    #[test]
    fn bulk_frames_carry_no_request_id() {
        let mut c = OpenLoopClient::new(
            ClientConfig::apache(NodeId(1), NodeId(0), 2, SimDuration::from_ms(1), 9)
                .with_workload(Workload::Bulk),
        );
        let (frames, _) = c.next_burst(SimTime::ZERO);
        for f in &frames {
            assert_eq!(f.meta().request_id, None);
            assert_eq!(f.leading_bytes(), Some([0xA5, 0xA5]));
        }
    }

    #[test]
    fn poisson_emits_singles_at_matching_rate() {
        let mut c = OpenLoopClient::new(
            ClientConfig::memcached(NodeId(1), NodeId(0), 100, SimDuration::from_ms(10), 5)
                .with_poisson(),
        );
        // Offered rate = 100 / 10 ms = 10 K rps → mean gap 100 us.
        let mut now = SimTime::ZERO;
        let mut total_gap = SimDuration::ZERO;
        let n = 2_000;
        for _ in 0..n {
            let (frames, next) = c.next_burst(now);
            assert_eq!(frames.len(), 1, "Poisson emits one request at a time");
            total_gap += next.saturating_since(now);
            now = next;
        }
        let mean_us = total_gap.as_us_f64() / f64::from(n);
        assert!((80.0..120.0).contains(&mean_us), "mean gap {mean_us} us");
    }

    #[test]
    fn load_step_changes_the_period() {
        let mut c = OpenLoopClient::new(
            ClientConfig::apache(NodeId(1), NodeId(0), 10, SimDuration::from_ms(20), 3)
                .with_step(SimTime::from_ms(50), SimDuration::from_ms(2)),
        );
        let (_, next1) = c.next_burst(SimTime::from_ms(10));
        assert!(next1.saturating_since(SimTime::from_ms(10)) >= SimDuration::from_ms(19));
        let (_, next2) = c.next_burst(SimTime::from_ms(60));
        let gap = next2.saturating_since(SimTime::from_ms(60));
        assert!(
            gap <= SimDuration::from_nanos(2_200_000),
            "stepped gap {gap}"
        );
    }

    #[test]
    fn deadline_is_stamped_on_every_request() {
        let mut c = OpenLoopClient::new(
            ClientConfig::apache(NodeId(1), NodeId(0), 4, SimDuration::from_ms(1), 7)
                .with_deadline(SimDuration::from_us(500)),
        );
        let (frames, _) = c.next_burst(SimTime::from_ms(2));
        for f in &frames {
            assert_eq!(f.meta().deadline, Some(SimDuration::from_us(500)));
        }
    }

    #[test]
    fn deterministic_bursts_per_seed() {
        let mut a = apache_client();
        let mut b = apache_client();
        let (fa, na) = a.next_burst(SimTime::ZERO);
        let (fb, nb) = b.next_burst(SimTime::ZERO);
        assert_eq!(na, nb);
        for (x, y) in fa.iter().zip(fb.iter()) {
            assert_eq!(x.payload(), y.payload());
        }
    }
}
