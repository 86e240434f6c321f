//! Schedulable units of kernel/application work.

use desim::{SimDuration, SimTime};
use netsim::Packet;
use std::collections::VecDeque;

/// What a [`Work`] item does when it completes.
#[derive(Debug, Clone)]
pub enum WorkKind {
    /// The NIC interrupt service routine for one MSI-X vector: reads the
    /// cause register, applies NCAP driver actions, schedules the receive
    /// SoftIRQ.
    Isr {
        /// The RX queue / vector being serviced.
        queue: u8,
    },
    /// Receive-side network stack processing for one frame.
    SoftIrqRx {
        /// The frame being processed.
        frame: Packet,
        /// The RX queue the frame was drained from, so per-queue backlog
        /// accounting can be released when the work completes.
        queue: u8,
    },
    /// One CPU phase of an in-flight application request.
    App {
        /// The kernel-internal request token.
        token: u64,
    },
    /// Transmit-side network stack processing for one frame.
    SoftIrqTx {
        /// The frame to hand to the NIC.
        frame: Packet,
    },
    /// Poll-mode (bypass datapath) receive processing for one frame: a
    /// busy-poll core picked it out of the userspace ring and runs the
    /// thin userspace stack inline — no ISR, no SoftIRQ.
    PollRx {
        /// The frame being processed.
        frame: Packet,
        /// The RX queue the frame was polled from, for per-queue backlog
        /// accounting.
        queue: u8,
    },
    /// Pure overhead (governor tick, `ncap.sw` timer) with no completion
    /// action.
    Overhead,
}

impl WorkKind {
    /// Short label for traces.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            WorkKind::Isr { .. } => "isr",
            WorkKind::SoftIrqRx { .. } => "softirq-rx",
            WorkKind::App { .. } => "app",
            WorkKind::SoftIrqTx { .. } => "softirq-tx",
            WorkKind::PollRx { .. } => "poll-rx",
            WorkKind::Overhead => "overhead",
        }
    }
}

/// A run-queue entry.
#[derive(Debug, Clone)]
pub struct Work {
    /// Frequency-dependent cost in core cycles.
    pub cycles: u64,
    /// Frequency-independent cost (bus stalls like the PCIe ICR read);
    /// converted to cycles at dispatch frequency.
    pub fixed: SimDuration,
    /// Completion action.
    pub kind: WorkKind,
    /// Core affinity (`Some(0)` for interrupt/stack work on a
    /// single-queue NIC), or any core.
    pub affinity: Option<u8>,
    /// When the item entered the run queue. The CoDel-style shedder uses
    /// this to measure queue sojourn time.
    pub enqueued_at: SimTime,
    /// When a core began executing the item (set at dispatch). Latency
    /// attribution splits run-queue wait from execution with it.
    pub started_at: SimTime,
}

impl Work {
    /// A work item with cycle cost only.
    #[must_use]
    pub fn cycles(cycles: u64, kind: WorkKind) -> Self {
        Work {
            cycles,
            fixed: SimDuration::ZERO,
            kind,
            affinity: None,
            enqueued_at: SimTime::ZERO,
            started_at: SimTime::ZERO,
        }
    }

    /// Pins the work to a core (builder style).
    #[must_use]
    pub fn on_core(mut self, core: u8) -> Self {
        self.affinity = Some(core);
        self
    }

    /// Adds a frequency-independent stall (builder style).
    #[must_use]
    pub fn with_fixed(mut self, fixed: SimDuration) -> Self {
        self.fixed = fixed;
        self
    }

    /// Records when the item entered the run queue (builder style).
    #[must_use]
    pub fn queued_at(mut self, t: SimTime) -> Self {
        self.enqueued_at = t;
        self
    }
}

/// A set of core indices, one bit per core: wide enough for every `u8`
/// core count, and `Copy`, so the dispatcher's wake pass needs no heap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreSet([u64; 4]);

impl CoreSet {
    /// Adds `core` to the set.
    pub fn insert(&mut self, core: usize) {
        self.0[core / 64] |= 1 << (core % 64);
    }

    /// Removes `core` from the set.
    pub fn remove(&mut self, core: usize) {
        self.0[core / 64] &= !(1 << (core % 64));
    }

    /// `true` when `core` is in the set.
    #[must_use]
    pub fn contains(&self, core: usize) -> bool {
        self.0[core / 64] & (1 << (core % 64)) != 0
    }

    /// The lowest core in the set.
    #[must_use]
    pub fn first(&self) -> Option<usize> {
        self.0
            .iter()
            .enumerate()
            .find(|(_, w)| **w != 0)
            .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
    }
}

impl FromIterator<usize> for CoreSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut set = CoreSet::default();
        for core in iter {
            set.insert(core);
        }
        set
    }
}

/// The entry [`RunQueue::pick`] chose and the core it runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pick {
    /// The idle core the work is dispatched to.
    pub core: usize,
    lane: usize,
}

/// The kernel run queue: one FIFO lane per core for work pinned to that
/// core, plus one lane for work any core may run.
///
/// Every entry carries an order key. `push_back` hands out increasing
/// keys and `push_front` decreasing ones, so sorting all entries by key
/// gives the order a single deque would hold them in, and each lane is
/// that order restricted to its affinity. A dispatcher scanning the
/// single deque for the first entry it can place stops at the head of
/// some lane: an affine entry is placeable exactly when its core is
/// idle, a non-affine one exactly when some non-poll core is idle, and
/// both conditions are shared by the whole lane. So the scan's choice is
/// the smallest key among the placeable lane heads, which [`pick`]
/// finds by looking at one head per core instead of at every entry.
///
/// [`pick`]: RunQueue::pick
#[derive(Debug)]
pub struct RunQueue {
    /// `lanes[c]` holds work pinned to core `c`; the last lane holds
    /// non-affine work.
    lanes: Vec<VecDeque<(i64, Work)>>,
    /// Key of the next `push_back`.
    back: i64,
    /// Key of the next `push_front`.
    front: i64,
    len: usize,
}

impl RunQueue {
    /// An empty run queue for a node with `cores` cores.
    #[must_use]
    pub fn new(cores: usize) -> Self {
        RunQueue {
            lanes: std::iter::repeat_with(VecDeque::new)
                .take(cores + 1)
                .collect(),
            back: 0,
            front: -1,
            len: 0,
        }
    }

    /// Queued entries across all lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn lane_of(&self, work: &Work) -> usize {
        work.affinity.map_or(self.lanes.len() - 1, usize::from)
    }

    /// Queues `work` behind every queued entry.
    pub fn push_back(&mut self, work: Work) {
        let lane = self.lane_of(&work);
        self.lanes[lane].push_back((self.back, work));
        self.back += 1;
        self.len += 1;
    }

    /// Queues `work` ahead of every queued entry.
    pub fn push_front(&mut self, work: Work) {
        let lane = self.lane_of(&work);
        self.lanes[lane].push_front((self.front, work));
        self.front -= 1;
        self.len += 1;
    }

    /// The first entry, in queue order, that an idle core can run.
    /// Affine work runs only on its core; non-affine work runs on the
    /// highest idle core at or above `floor` (the busy-poll cores sit
    /// below it). Costs one look at each lane head, however long the
    /// lanes are.
    pub fn pick(&self, idle: impl Fn(usize) -> bool, floor: usize) -> Option<Pick> {
        if self.len == 0 {
            return None;
        }
        let shared = self.lanes.len() - 1;
        let mut best: Option<(i64, Pick)> = None;
        for (core, lane) in self.lanes[..shared].iter().enumerate() {
            if let Some(&(key, _)) = lane.front() {
                if best.is_none_or(|(k, _)| key < k) && idle(core) {
                    best = Some((key, Pick { core, lane: core }));
                }
            }
        }
        if let Some(&(key, _)) = self.lanes[shared].front() {
            if best.is_none_or(|(k, _)| key < k) {
                if let Some(core) = (floor..shared).rev().find(|&c| idle(c)) {
                    best = Some((key, Pick { core, lane: shared }));
                }
            }
        }
        best.map(|(_, pick)| pick)
    }

    /// Removes the entry `pick` chose.
    ///
    /// # Panics
    /// If the queue changed since the pick emptied its lane.
    pub fn pop(&mut self, pick: Pick) -> Work {
        let (_, work) = self.lanes[pick.lane]
            .pop_front()
            .expect("picked lane is non-empty");
        self.len -= 1;
        work
    }

    /// Starts the pass that wakes sleeping cores for queued work; `asleep`
    /// is the set of sleeping cores.
    #[must_use]
    pub fn wake_pass(&self, asleep: CoreSet) -> WakePass {
        WakePass {
            asleep,
            affine_done: false,
            nonaffine: self.lanes[self.lanes.len() - 1].len(),
        }
    }
}

/// The cores to wake for queued work, one at a time: first each sleeping
/// core with work pinned to it, in queue order of that work; then, for
/// each non-affine entry, the lowest sleeping core not yet chosen.
/// Waking a core must not change the queue between steps.
#[derive(Debug, Clone, Copy)]
pub struct WakePass {
    /// Sleeping cores not yet chosen.
    asleep: CoreSet,
    affine_done: bool,
    /// Non-affine entries still owed a core.
    nonaffine: usize,
}

impl WakePass {
    /// The next core to wake, or `None` when the pass is over.
    pub fn next_core(&mut self, rq: &RunQueue) -> Option<usize> {
        if !self.affine_done {
            let shared = rq.lanes.len() - 1;
            let next = rq.lanes[..shared]
                .iter()
                .enumerate()
                .filter(|&(core, _)| self.asleep.contains(core))
                .filter_map(|(core, lane)| lane.front().map(|&(key, _)| (key, core)))
                .min()
                .map(|(_, core)| core);
            match next {
                Some(core) => {
                    self.asleep.remove(core);
                    return Some(core);
                }
                None => self.affine_done = true,
            }
        }
        if self.nonaffine == 0 {
            return None;
        }
        let core = self.asleep.first()?;
        self.asleep.remove(core);
        self.nonaffine -= 1;
        Some(core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes() {
        let w = Work::cycles(100, WorkKind::Overhead)
            .on_core(2)
            .with_fixed(SimDuration::from_us(2));
        assert_eq!(w.cycles, 100);
        assert_eq!(w.affinity, Some(2));
        assert_eq!(w.fixed, SimDuration::from_us(2));
        assert_eq!(w.kind.label(), "overhead");
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            WorkKind::Isr { queue: 0 }.label(),
            WorkKind::Overhead.label(),
            WorkKind::App { token: 0 }.label(),
        ];
        let set: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(set.len(), labels.len());
    }
}
