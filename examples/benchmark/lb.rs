//! Times the load balancer alone through its public API, separating the
//! fleet's per-request cost from the switch and NIC work that
//! `cluster.deliver` mixes it with.

use desim::SimTime;
use fleetsim::{DispatchPolicy, FleetConfig, LoadBalancer};
use netsim::{Bytes, NodeId, Packet};
use std::hint::black_box;
use std::time::Instant;

/// Requests kept in flight, so `dispatch` always sees a non-empty
/// conntrack table and `on_response` closes an entry several requests old.
const IN_FLIGHT: u64 = 8;
/// Requests per repetition; each repetition starts from a fresh LB.
const REQUESTS: u64 = 200_000;
const REPS: usize = 7;

/// Median host time of one `dispatch` plus its `on_response`, in ns, for
/// an LB fronting `backends` with the given policy and the backends at
/// the indices in `parked` parked.
pub fn ns_per_request(backends: usize, dispatch: DispatchPolicy, parked: &[usize]) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut lb = build(backends, dispatch, parked);
            time_requests(&mut lb, NodeId(backends as u16 + 1))
        })
        .collect();
    crate::stats::Spread::of(&samples).median
}

fn build(backends: usize, dispatch: DispatchPolicy, parked: &[usize]) -> LoadBalancer {
    let nodes = (0..backends).map(|i| NodeId(i as u16)).collect();
    let mut lb = LoadBalancer::new(
        NodeId(backends as u16),
        nodes,
        &FleetConfig::new(backends, dispatch),
    );
    for &idx in parked {
        lb.begin_drain(idx).expect("an active backend drains");
        let gen = lb
            .begin_parking(idx)
            .expect("an idle draining backend parks");
        assert!(
            lb.finish_park(SimTime::ZERO, idx, gen),
            "backend {idx} parks"
        );
    }
    lb
}

fn time_requests(lb: &mut LoadBalancer, client: NodeId) -> f64 {
    let payload = Bytes::from_static(b"get key");
    let mut pinned: Vec<NodeId> = (0..IN_FLIGHT)
        .map(|id| send(lb, client, id, &payload))
        .collect();
    let start = Instant::now();
    for id in 0..REQUESTS {
        let slot = (id % IN_FLIGHT) as usize;
        let response = Packet::request(pinned[slot], lb.vip(), id, payload.clone());
        black_box(lb.on_response(response));
        pinned[slot] = send(lb, client, id + IN_FLIGHT, &payload);
    }
    let elapsed = start.elapsed();
    assert_eq!(
        lb.outstanding(),
        IN_FLIGHT,
        "every response closed a request"
    );
    elapsed.as_nanos() as f64 / REQUESTS as f64
}

/// Dispatches request `id` and returns the backend it was pinned to.
fn send(lb: &mut LoadBalancer, client: NodeId, id: u64, payload: &Bytes) -> NodeId {
    let request = Packet::request(client, lb.vip(), id, payload.clone());
    lb.dispatch(request).1.dst()
}
