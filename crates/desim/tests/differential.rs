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
//! (the simulation driver's dispatch shape).

use check::{ensure, Check, Rng};
use desim::{EventQueue, SimTime};

/// One queue operation, generated from a seeded RNG.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// Push at `base_hint + offset` ns; the event payload is the push
    /// ordinal so FIFO violations are visible in the output stream.
    Push(u64),
    Pop,
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
    for (step, &op) in ops.iter().enumerate() {
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
                popped += u64::from(a.is_some());
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
                    popped += 1;
                }
            }
            Op::Clear => {
                queue.clear();
                model.clear();
            }
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
/// several explicit seeds, three regimes each.
#[test]
fn queue_matches_naive_model_at_scale() {
    let mut total_ops = 0u64;
    for seed in [1, 0x4E43_4150, 0xDEAD_BEEF, 42] {
        for regime in 0..3 {
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
            let regime = rng.next_below(3);
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
