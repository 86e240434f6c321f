//! Differential oracle for the kernel run queue.
//!
//! The dispatcher once kept a single `VecDeque<Work>` and, after every
//! job, scanned the whole of it for the first entry an idle core could
//! run, then scanned it again for the sleeping cores to wake. The lane
//! [`RunQueue`] replaced that scan; every simulated event depends on the
//! order it hands work out and wakes cores in. These tests keep the scan
//! as the oracle: one random operation stream drives both queues under
//! random core states and busy-poll floors, and every pick, every popped
//! entry, every wake list and the length must match, step by step.

use check::{ensure, gen, Check, Rng};
use oskernel::{CoreSet, RunQueue, Work, WorkKind};
use std::collections::VecDeque;

/// What a core is doing when the dispatcher looks at it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CoreState {
    Idle,
    Busy,
    Asleep,
    Waking,
}

#[derive(Debug, Clone)]
enum Op {
    PushBack(Option<u8>),
    PushFront(Option<u8>),
    /// Compare the pick without taking it.
    Pick(Vec<CoreState>),
    /// Pick and pop one entry, then compare the wake lists.
    Pop(Vec<CoreState>),
    /// The dispatcher's whole pass: place entries until no idle core
    /// can take one, marking each target busy, then compare the wake
    /// lists.
    Dispatch(Vec<CoreState>),
}

#[derive(Debug, Clone)]
struct Case {
    cores: usize,
    floor: usize,
    ops: Vec<Op>,
}

/// The linear scan the lanes replaced, kept as the reference.
struct ScanQueue(VecDeque<Work>);

impl ScanQueue {
    /// The queue index and target core of the first placeable entry.
    fn pick(&self, states: &[CoreState], floor: usize) -> Option<(usize, usize)> {
        let idle = |c: usize| states[c] == CoreState::Idle;
        for qi in 0..self.0.len() {
            let target = match self.0[qi].affinity {
                Some(c) => {
                    let c = c as usize;
                    idle(c).then_some(c)
                }
                None => (floor..states.len()).rev().find(|&c| idle(c)),
            };
            if let Some(ci) = target {
                return Some((qi, ci));
            }
        }
        None
    }

    fn wake_list(&self, states: &[CoreState]) -> Vec<usize> {
        let asleep = |c: usize| states[c] == CoreState::Asleep;
        let mut wake: Vec<usize> = Vec::new();
        let mut nonaffine = 0usize;
        for w in &self.0 {
            match w.affinity {
                Some(c) => {
                    let c = c as usize;
                    if asleep(c) && !wake.contains(&c) {
                        wake.push(c);
                    }
                }
                None => nonaffine += 1,
            }
        }
        for ci in 0..states.len() {
            if nonaffine == 0 {
                break;
            }
            if asleep(ci) && !wake.contains(&ci) {
                wake.push(ci);
                nonaffine -= 1;
            }
        }
        wake
    }
}

fn lanes_wake_list(rq: &RunQueue, states: &[CoreState]) -> Vec<usize> {
    let asleep: CoreSet = (0..states.len())
        .filter(|&c| states[c] == CoreState::Asleep)
        .collect();
    let mut pass = rq.wake_pass(asleep);
    std::iter::from_fn(|| pass.next_core(rq)).collect()
}

fn work(id: u64, affinity: Option<u8>) -> Work {
    let w = Work::cycles(id, WorkKind::Overhead);
    match affinity {
        Some(c) => w.on_core(c),
        None => w,
    }
}

/// Drives both queues through `case`, comparing every observable after
/// every operation. Work items are told apart by their cycle count.
fn run_differential(case: &Case) -> Result<(), String> {
    let floor = case.floor;
    let mut lanes = RunQueue::new(case.cores);
    let mut scan = ScanQueue(VecDeque::new());
    let mut id = 0u64;
    for (step, op) in case.ops.iter().enumerate() {
        match op {
            Op::PushBack(a) => {
                lanes.push_back(work(id, *a));
                scan.0.push_back(work(id, *a));
                id += 1;
            }
            Op::PushFront(a) => {
                lanes.push_front(work(id, *a));
                scan.0.push_front(work(id, *a));
                id += 1;
            }
            Op::Pick(states) => {
                let a = lanes
                    .pick(|c| states[c] == CoreState::Idle, floor)
                    .map(|p| p.core);
                let b = scan.pick(states, floor).map(|(_, c)| c);
                ensure!(a == b, "step {step}: pick core {a:?} vs {b:?}");
            }
            Op::Pop(states) | Op::Dispatch(states) => {
                let mut states = states.clone();
                loop {
                    let a = lanes.pick(|c| states[c] == CoreState::Idle, floor);
                    let b = scan.pick(&states, floor);
                    let (a, (qi, core)) = match (a, b) {
                        (None, None) => break,
                        (Some(a), Some(b)) => (a, b),
                        (a, b) => return Err(format!("step {step}: pick {a:?} vs {b:?}")),
                    };
                    let wa = lanes.pop(a);
                    let wb = scan.0.remove(qi).expect("index in range");
                    ensure!(
                        (a.core, wa.cycles) == (core, wb.cycles),
                        "step {step}: popped item {} on core {} vs item {} on core {core}",
                        wa.cycles,
                        a.core,
                        wb.cycles
                    );
                    states[core] = CoreState::Busy;
                    if matches!(op, Op::Pop(_)) {
                        break;
                    }
                }
                let wa = lanes_wake_list(&lanes, &states);
                let wb = scan.wake_list(&states);
                ensure!(wa == wb, "step {step}: wake list {wa:?} vs {wb:?}");
            }
        }
        ensure!(
            lanes.len() == scan.0.len() && lanes.is_empty() == scan.0.is_empty(),
            "step {step}: len {} vs {}",
            lanes.len(),
            scan.0.len()
        );
    }
    Ok(())
}

/// Random core states, biased per call toward idle or not so that both
/// long dispatch passes and long wake passes occur.
fn gen_states(rng: &mut Rng, cores: usize) -> Vec<CoreState> {
    let idle_pct = rng.next_below(100);
    (0..cores)
        .map(|_| {
            if rng.next_below(100) < idle_pct {
                CoreState::Idle
            } else {
                [CoreState::Busy, CoreState::Asleep, CoreState::Waking][rng.next_below(3) as usize]
            }
        })
        .collect()
}

fn gen_case(rng: &mut Rng, size: usize) -> Case {
    // Mostly small nodes; sometimes one wider than a bitset word.
    let cores = if rng.next_below(10) == 0 {
        gen::usize_in(rng, 60, 140)
    } else {
        gen::usize_in(rng, 1, 9)
    };
    let floor = gen::usize_in(rng, 0, 3).min(cores);
    let affine_pct = rng.next_below(101);
    let affinity = |rng: &mut Rng| {
        (rng.next_below(100) < affine_pct).then(|| rng.next_below(cores as u64) as u8)
    };
    let n = gen::len_in(rng, size, 1, 600);
    let ops = (0..n)
        .map(|_| match rng.next_below(100) {
            0..=44 => Op::PushBack(affinity(rng)),
            45..=54 => Op::PushFront(affinity(rng)),
            55..=64 => Op::Pick(gen_states(rng, cores)),
            65..=79 => Op::Pop(gen_states(rng, cores)),
            _ => Op::Dispatch(gen_states(rng, cores)),
        })
        .collect();
    Case { cores, floor, ops }
}

#[test]
fn prop_lanes_equal_linear_scan() {
    Check::new("run_queue_differential")
        .cases(256)
        .max_size(600)
        .run(gen_case, run_differential);
}

/// A burst's shape: a long SoftIRQ backlog on core 0 with an ISR pushed
/// in front of it, non-affine application work interleaved behind, and
/// full dispatch passes as cores cycle through busy, idle and asleep.
#[test]
fn bursty_backlog_matches_linear_scan() {
    let mut rng = Rng::new(0x4E43_4150);
    let cores = 4;
    let mut ops = Vec::new();
    for _ in 0..200 {
        for _ in 0..50 {
            ops.push(Op::PushBack(Some(0)));
            if rng.next_below(3) == 0 {
                ops.push(Op::PushBack(None));
            }
        }
        ops.push(Op::PushFront(Some(0)));
        for _ in 0..30 {
            ops.push(Op::Dispatch(gen_states(&mut rng, cores)));
        }
    }
    run_differential(&Case {
        cores,
        floor: 0,
        ops,
    })
    .expect("bursty backlog must match the scan");
}
