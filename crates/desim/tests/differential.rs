//! Differential oracle for the event queue.
//!
//! The queue is the determinism keystone: every bit of every experiment
//! result depends on its `(time, seq)` delivery order. These tests check
//! that order against a naive model defined here — an unsorted `Vec` of
//! `(time, seq, event)` popped by a linear min-scan, too slow for a
//! simulator and too simple to get wrong. The same randomized operation
//! stream drives both, and every observable (popped `(time, event)`
//! pairs, `peek_time`, `len`, all four counters and the conservation
//! identity) must match exactly, operation by operation.
//!
//! Coverage includes the adversarial shapes: all-same-instant floods
//! (FIFO by seq alone), far-future outliers, dense ramps, and drain
//! phases, plus `clear` interleavings and bounded same-instant pop runs
//! (the simulation driver's dispatch shape). A fourth regime aims at the
//! queue's timing wheel: delays from the last popped instant that
//! straddle a 64 ns slot and the 131 µs window, unordered pushes into one
//! slot, pushes behind the cursor, `SimTime::MAX`, and horizon-bounded
//! pops (`pop_until`, the driver's one call per event).

use check::{ensure, Check, Rng};
use desim::{EventQueue, SimTime};

/// The queue's near window: 2,048 ring slots of 64 ns each.
const WINDOW_NS: u64 = 2_048 * 64;

/// Delays from the last popped instant that sit on the wheel's edges: a
/// slot's width either side, the window's end either side, and the
/// simulator's 5 ms retransmission timeout.
const EDGE_DELAYS: [u64; 11] = [
    0,
    63,
    64,
    65,
    WINDOW_NS - 65,
    WINDOW_NS - 64,
    WINDOW_NS - 1,
    WINDOW_NS,
    WINDOW_NS + 1,
    WINDOW_NS + 64,
    5_000_000,
];

/// One queue operation, generated from a seeded RNG.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// Push at `base_hint + offset` ns; the event payload is the push
    /// ordinal so FIFO violations are visible in the output stream.
    Push(u64),
    /// Push at the last popped instant plus the (possibly negative)
    /// offset in ns, saturating at both ends of time.
    After(i64),
    Pop,
    /// `pop_until` with the horizon at the last popped instant plus the
    /// given ns; must return `None`, consuming nothing, exactly when the
    /// earliest pending event is later.
    PopUntil(u64),
    /// Pop one event at a time while the minimum is at or before the
    /// current minimum plus the given slack, at most the given count.
    PopRun(u64, usize),
    Clear,
    Peek,
}

/// The reference model of [`EventQueue`]: every pending
/// `(time_ns, seq, event)` in one unsorted `Vec`, with the same counters.
#[derive(Default)]
struct Model {
    pending: Vec<(u64, u64, u64)>,
    next_seq: u64,
    pushed: u64,
    popped: u64,
    cleared: u64,
}

impl Model {
    fn push(&mut self, time: SimTime, event: u64) {
        self.pending.push((time.as_nanos(), self.next_seq, event));
        self.next_seq += 1;
        self.pushed += 1;
    }

    /// Index of the `(time, seq)` minimum, by linear scan. Comparing the
    /// fields by hand, not as tuples, keeps the 20,000-event flood below
    /// fast in unoptimized test builds.
    fn min_index(&self) -> Option<usize> {
        let (first, rest) = self.pending.split_first()?;
        let (mut best, mut key) = (0, (first.0, first.1));
        for (i, &(time, seq, _)) in rest.iter().enumerate() {
            if time < key.0 || (time == key.0 && seq < key.1) {
                (best, key) = (i + 1, (time, seq));
            }
        }
        Some(best)
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.min_index()
            .map(|i| SimTime::from_nanos(self.pending[i].0))
    }

    /// Pops the minimum if it is at or before `bound`.
    fn pop_until(&mut self, bound: SimTime) -> Option<(SimTime, u64)> {
        let i = self.min_index()?;
        if self.pending[i].0 > bound.as_nanos() {
            return None;
        }
        let (time, _, event) = self.pending.swap_remove(i);
        self.popped += 1;
        Some((SimTime::from_nanos(time), event))
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.pop_until(SimTime::MAX)
    }

    fn clear(&mut self) {
        self.cleared += self.pending.len() as u64;
        self.pending.clear();
    }

    fn counters(&self) -> (u64, u64, u64) {
        (self.pushed, self.popped, self.cleared)
    }
}

/// Drives the queue and the model through `ops`, asserting identical
/// observables after every single operation. Returns the number of
/// events popped (for coverage accounting).
fn run_differential(ops: &[Op]) -> Result<u64, String> {
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut model = Model::default();
    let mut ordinal = 0u64;
    let mut popped = 0u64;
    let mut last_pop = 0u64;
    for (step, &op) in ops.iter().enumerate() {
        // Resolve a relative push against the last popped instant.
        let op = match op {
            Op::After(offset) => Op::Push(last_pop.saturating_add_signed(offset)),
            op => op,
        };
        match op {
            Op::Push(t) => {
                let at = SimTime::from_nanos(t);
                queue.push(at, ordinal);
                model.push(at, ordinal);
                ordinal += 1;
            }
            Op::Pop => {
                let a = queue.pop();
                let b = model.pop();
                ensure!(a == b, "step {step}: pop mismatch {a:?} vs {b:?}");
                if let Some((t, _)) = a {
                    (last_pop, popped) = (t.as_nanos(), popped + 1);
                }
            }
            Op::PopUntil(ahead) => {
                let horizon = SimTime::from_nanos(last_pop.saturating_add(ahead));
                let a = queue.pop_until(horizon);
                let b = model.pop_until(horizon);
                ensure!(
                    a == b,
                    "step {step}: pop_until({horizon}) mismatch {a:?} vs {b:?}"
                );
                if let Some((t, _)) = a {
                    (last_pop, popped) = (t.as_nanos(), popped + 1);
                }
            }
            Op::PopRun(slack, max) => {
                let bound = match model.peek_time() {
                    Some(t) => SimTime::from_nanos(t.as_nanos().saturating_add(slack)),
                    None => SimTime::from_nanos(slack),
                };
                for i in 0..max {
                    let Some(b) = model.pop_until(bound) else {
                        break;
                    };
                    let a = queue.pop();
                    ensure!(
                        a == Some(b),
                        "step {step}: pop {i} of run mismatch {a:?} vs {b:?}"
                    );
                    (last_pop, popped) = (b.0.as_nanos(), popped + 1);
                }
            }
            Op::Clear => {
                queue.clear();
                model.clear();
            }
            Op::After(_) => unreachable!("resolved to a push above"),
            Op::Peek => {}
        }
        ensure!(
            queue.peek_time() == model.peek_time(),
            "step {step} ({op:?}): peek {:?} vs {:?}",
            queue.peek_time(),
            model.peek_time()
        );
        ensure!(
            queue.len() == model.pending.len(),
            "step {step}: len {} vs {}",
            queue.len(),
            model.pending.len()
        );
        let counters = (
            queue.total_pushed(),
            queue.total_popped(),
            queue.total_cleared(),
        );
        ensure!(
            counters == model.counters(),
            "step {step}: counters {counters:?} vs {:?}",
            model.counters()
        );
        ensure!(
            queue.total_pushed()
                == queue.total_popped() + queue.total_cleared() + queue.len() as u64,
            "step {step}: conservation identity broken: {queue:?}"
        );
        queue.audit().map_err(|e| format!("step {step}: {e}"))?;
    }
    Ok(popped)
}

/// One of [`EDGE_DELAYS`], as a push offset.
fn edge(rng: &mut Rng) -> i64 {
    EDGE_DELAYS[rng.next_below(EDGE_DELAYS.len() as u64) as usize] as i64
}

/// Generates a mixed op stream biased toward a regime, with a sliding
/// time base so pushed times generally advance like a real simulation.
fn gen_ops(rng: &mut Rng, n: usize, regime: u64) -> Vec<Op> {
    let mut ops = Vec::with_capacity(n);
    let mut base = 0u64;
    for _ in 0..n {
        let roll = rng.next_below(100);
        let op = match regime {
            // Same-instant floods: long runs at one time point.
            0 if roll < 70 => Op::Push(base),
            // Far-future outliers: occasionally fling an event ~hours out.
            1 if roll < 15 => Op::Push(base + 3_600_000_000_000 + rng.next_below(1 << 30)),
            // Dense ramp: mostly pushes with small strides.
            2 if roll < 80 => {
                base += rng.next_below(200);
                Op::Push(base + rng.next_below(10_000))
            }
            // Wheel edges: exact edge delays, unordered pushes into the
            // next few slots, pushes behind the last pop, the end of time
            // and horizon-bounded pops on either side of the window.
            3 if roll < 25 => Op::After(edge(rng)),
            3 if roll < 38 => Op::After(rng.next_below(4 * 64) as i64),
            3 if roll < 43 => Op::After(-(rng.next_below(20_000) as i64)),
            3 if roll < 45 => Op::Push(u64::MAX),
            3 if roll < 60 => Op::PopUntil(rng.next_below(2 * WINDOW_NS)),
            _ if roll < 55 => {
                base += rng.next_below(2_000);
                Op::Push(base + rng.next_below(1_000_000))
            }
            _ if roll < 80 => Op::Pop,
            _ if roll < 90 => Op::PopRun(rng.next_below(2), 1 + rng.next_below(64) as usize),
            _ if roll < 93 => Op::Clear,
            _ => Op::Peek,
        };
        ops.push(op);
    }
    // Drain fully so the final tail is exercised.
    for _ in 0..n {
        ops.push(Op::Pop);
    }
    ops
}

/// The acceptance-criteria run: ≥ 10^5 randomized operations per seed,
/// several explicit seeds, four regimes each.
#[test]
fn queue_matches_naive_model_at_scale() {
    let mut total_ops = 0u64;
    for seed in [1, 0x4E43_4150, 0xDEAD_BEEF, 42] {
        for regime in 0..4 {
            let mut rng = Rng::new(seed ^ (regime << 32));
            let ops = gen_ops(&mut rng, 60_000, regime);
            total_ops += ops.len() as u64;
            if let Err(f) = run_differential(&ops) {
                panic!("seed {seed:#x} regime {regime}: {f}");
            }
        }
    }
    assert!(
        total_ops >= 100_000 * 4,
        "acceptance floor: 10^5 ops per seed, got {total_ops} across 4 seeds"
    );
}

/// Shrinking property-test variant: smaller cases, but when a mismatch
/// ever appears the harness binary-searches a minimal op stream.
#[test]
fn prop_queue_equals_naive_model() {
    Check::new("event_queue_differential").max_size(400).run(
        |rng, size| {
            let regime = rng.next_below(4);
            gen_ops(rng, size.max(1), regime)
        },
        |ops| run_differential(ops).map(|_| ()),
    );
}

/// All-same-instant flood of 20,000 events, drained with bounded pop
/// runs: delivery must stay FIFO and identical.
#[test]
fn same_instant_flood_differential() {
    let mut ops: Vec<Op> = (0..20_000).map(|_| Op::Push(12_345)).collect();
    ops.extend((0..400).map(|_| Op::PopRun(0, 64)));
    ops.extend((0..20_000).map(|_| Op::Pop));
    run_differential(&ops).expect("flood must match the model");
}

/// Alternating near/far pushes with full drains in between: each cycle
/// a dense cluster plus outliers an hour later, then a jump of a
/// simulated day to the next cycle.
#[test]
fn far_future_churn_differential() {
    let mut ops = Vec::new();
    let mut rng = Rng::new(7);
    for cycle in 0u64..50 {
        let day = cycle * 86_400_000_000_000; // one simulated day apart
        for _ in 0..200 {
            ops.push(Op::Push(day + rng.next_below(1_000_000)));
        }
        for _ in 0..10 {
            ops.push(Op::Push(day + 3_600_000_000_000 + rng.next_below(1_000)));
        }
        for _ in 0..210 {
            ops.push(Op::Pop);
        }
    }
    run_differential(&ops).expect("far-future churn must match the model");
}

/// Clear in the middle of a deep queue: counters and subsequent FIFO
/// order (seq not reset) must agree with the model.
#[test]
fn clear_interleaving_differential() {
    let mut ops = Vec::new();
    let mut rng = Rng::new(99);
    for round in 0u64..30 {
        for _ in 0..500 {
            ops.push(Op::Push(round * 1_000_000 + rng.next_below(500_000)));
        }
        ops.push(Op::Clear);
        for _ in 0..50 {
            ops.push(Op::Push(round * 1_000_000 + rng.next_below(500_000)));
        }
        for _ in 0..50 {
            ops.push(Op::Pop);
        }
    }
    run_differential(&ops).expect("clear interleaving must match the model");
}

/// The wheel's edges one by one, each against the model: exact delays
/// either side of a slot's width and of the window's end, pushes out of
/// order into one 64 ns slot, pushes behind the cursor, `SimTime::MAX`,
/// `pop_until` at and either side of the earliest event, and a `clear`
/// with both tiers populated.
#[test]
fn wheel_edges_differential() {
    let mut ops = vec![Op::Push(1_000), Op::Pop];
    // Every edge delay from the last pop, then the same from a pop that
    // sits at the last nanosecond of its slot.
    ops.extend(EDGE_DELAYS.map(|d| Op::After(d as i64)));
    ops.extend((0..EDGE_DELAYS.len()).map(|_| Op::Pop));
    ops.extend([Op::Push(64 * 40 - 1), Op::Pop]);
    ops.extend(EDGE_DELAYS.map(|d| Op::After(d as i64)));
    ops.extend([Op::PopUntil(0), Op::PopUntil(0), Op::PopUntil(1)]);
    ops.extend((0..EDGE_DELAYS.len()).map(|_| Op::Pop));
    // Out of order into one slot, with ties: times ...50, 10, 63, 10, 0, 30
    // past the next slot boundary all land in one 64 ns slot.
    ops.extend([Op::Push(64 * 1_000), Op::Pop]);
    ops.extend([50, 10, 63, 10, 0, 30, 63, 0].map(|d| Op::After(64 + d)));
    ops.extend([Op::PopUntil(64 + 9), Op::PopUntil(64 + 10)]);
    ops.extend((0..8).map(|_| Op::Pop));
    // Behind the cursor, interleaved with the present and the window.
    ops.extend([Op::Push(10_000_000), Op::Pop]);
    ops.extend([-1, 0, -64, -5_000_000, 64, -10_000_000, 0, -1].map(Op::After));
    ops.extend([Op::PopUntil(0), Op::Pop, Op::Pop]);
    ops.extend([-1, 1].map(Op::After));
    ops.extend((0..8).map(|_| Op::Pop));
    // A clear with both tiers and the cursor populated, then both again.
    ops.extend([0, 1, 65, WINDOW_NS as i64, 5_000_000, -7].map(Op::After));
    ops.push(Op::Clear);
    ops.extend([-7, 5_000_000, 65, 0, 0].map(Op::After));
    ops.extend((0..5).map(|_| Op::Pop));
    // The end of time: pushes at and before SimTime::MAX, a pop there,
    // and a push at the start of time behind it.
    ops.extend([Op::Push(u64::MAX), Op::After(0), Op::Push(u64::MAX - 64)]);
    ops.extend([Op::Push(u64::MAX), Op::Pop, Op::PopUntil(u64::MAX)]);
    ops.extend([Op::After(1), Op::After(-1), Op::Push(0), Op::Push(u64::MAX)]);
    ops.extend((0..5).map(|_| Op::Pop));
    let popped = run_differential(&ops).expect("wheel edges must match the model");
    assert!(popped > 40, "the edge script popped only {popped} events");
}
