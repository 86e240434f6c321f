//! The time-ordered event queue at the heart of the simulator.
//!
//! [`EventQueue`] is a priority queue keyed by `(SimTime, sequence)`. The
//! sequence number is a monotonically increasing insertion counter, so two
//! events scheduled for the same instant are delivered in scheduling order.
//! This tie-break is what makes whole-simulation runs bit-reproducible.
//!
//! The heap orders small keys, not events: a `std::collections::BinaryHeap`
//! min-heap of 24-byte `(time, seq, slot)` keys, where `slot` indexes a
//! slab that holds each pending event in place from push to pop. A sift
//! therefore moves 24 bytes per level whatever the event's size (the
//! cluster's events are 192 bytes), and each event is written once and
//! read once. Freed slots go on a free list and are reused before the slab
//! grows, so the slab's length is the peak pending population. O(log n)
//! push and pop, no tuning parameters. `crates/desim/tests/differential.rs`
//! checks the queue operation by operation against a naive linear-scan
//! model.
//!
//! Counters obey the conservation identity
//! `total_pushed == total_popped + total_cleared + len` at every instant.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The heap's handle on one pending event: its delivery order and the
/// slab slot holding it. The comparisons below are *reversed* so a
/// `std::collections::BinaryHeap<Key>` acts as a min-heap.
struct Key {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: the earliest (time, seq) is the heap maximum.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A deterministic future-event list.
///
/// Events of type `E` are scheduled at absolute [`SimTime`] instants and
/// popped in non-decreasing time order, with FIFO delivery among events at
/// the same instant.
///
/// # Example
///
/// ```
/// use desim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_us(1), 'b');
/// q.push(SimTime::from_us(1), 'c'); // same time: FIFO after 'b'
/// q.push(SimTime::ZERO, 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Key>,
    /// Pending events, each at the slot its key names; `None` slots are
    /// listed in `free`.
    slab: Vec<Option<E>>,
    free: Vec<u32>,
    next_seq: u64,
    pushed: u64,
    popped: u64,
    cleared: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` pending events.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            next_seq: 0,
            pushed: 0,
            popped: 0,
            cleared: 0,
        }
    }

    /// Schedules `event` at absolute instant `time`.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` events are pending at once.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed += 1;
        let slot = if let Some(slot) = self.free.pop() {
            self.slab[slot as usize] = Some(event);
            slot
        } else {
            let slot = u32::try_from(self.slab.len()).expect("over u32::MAX pending events");
            self.slab.push(Some(event));
            slot
        };
        self.heap.push(Key { time, seq, slot });
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let key = self.heap.pop()?;
        let event = self.slab[key.slot as usize]
            .take()
            .expect("a pending key names an occupied slot");
        self.free.push(key.slot);
        self.popped += 1;
        Some((key.time, event))
    }

    /// The instant of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever scheduled on this queue.
    #[must_use]
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Total events ever delivered from this queue.
    #[must_use]
    pub fn total_popped(&self) -> u64 {
        self.popped
    }

    /// Total events ever dropped by [`clear`](Self::clear). Together with
    /// the other counters this closes the conservation identity
    /// `total_pushed == total_popped + total_cleared + len`.
    #[must_use]
    pub fn total_cleared(&self) -> u64 {
        self.cleared
    }

    /// Audits the queue's conservation identity
    /// `total_pushed == total_popped + total_cleared + len`. A pure
    /// observation — safe to call at any instant, including mid-run.
    ///
    /// # Errors
    ///
    /// Returns a description of the imbalance if the identity is broken
    /// (which would indicate a bug in the queue itself, not the model).
    pub fn audit(&self) -> Result<(), String> {
        let resolved = self.popped + self.cleared + self.len() as u64;
        if self.pushed == resolved {
            Ok(())
        } else {
            Err(format!(
                "event-queue ledger broken: pushed {} != popped {} + cleared {} + pending {}",
                self.pushed,
                self.popped,
                self.cleared,
                self.len()
            ))
        }
    }

    /// Drops all pending events. The dropped count moves to
    /// [`total_cleared`](Self::total_cleared), so the conservation
    /// identity keeps holding; the sequence counter is untouched (FIFO
    /// ordering stays globally monotonic across a clear).
    pub fn clear(&mut self) {
        self.cleared += self.len() as u64;
        self.heap.clear();
        self.slab.clear();
        self.free.clear();
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("pushed", &self.pushed)
            .field("popped", &self.popped)
            .field("cleared", &self.cleared)
            .field("next_time", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use check::{ensure, gen, Check};

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<u64> = EventQueue::new();
        q.push(SimTime::from_us(30), 3);
        q.push(SimTime::from_us(10), 1);
        q.push(SimTime::from_us(20), 2);
        assert_eq!(q.pop(), Some((SimTime::from_us(10), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_us(20), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_us(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_among_simultaneous_events() {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_us(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().map(|(_, e)| e), Some(i));
        }
    }

    #[test]
    fn counters_track_traffic() {
        let mut q: EventQueue<u64> = EventQueue::new();
        q.push(SimTime::ZERO, 0);
        q.push(SimTime::ZERO, 1);
        let _ = q.pop();
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.total_popped(), 1);
        assert_eq!(q.len(), 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.total_pushed(), 2);
    }

    /// The PR-3/4-style ledger for the queue itself:
    /// `pushed == popped + cleared + pending`, including across `clear`
    /// (which used to leave `len()` and the push/pop counters telling
    /// different stories).
    #[test]
    fn clear_preserves_conservation_identity() {
        let mut q: EventQueue<u64> = EventQueue::new();
        let identity = |q: &EventQueue<u64>| {
            assert_eq!(
                q.total_pushed(),
                q.total_popped() + q.total_cleared() + q.len() as u64,
                "conservation identity violated: {q:?}"
            );
        };
        for i in 0..10 {
            q.push(SimTime::from_us(i), i);
        }
        identity(&q);
        let _ = q.pop();
        let _ = q.pop();
        identity(&q);
        q.clear();
        assert_eq!(q.total_cleared(), 8);
        identity(&q);
        // The queue stays usable after a clear, and the sequence
        // counter keeps FIFO monotonic across it.
        q.push(SimTime::from_us(1), 100);
        q.push(SimTime::from_us(1), 101);
        identity(&q);
        assert_eq!(q.pop(), Some((SimTime::from_us(1), 100)));
        assert_eq!(q.pop(), Some((SimTime::from_us(1), 101)));
        identity(&q);
        q.clear();
        identity(&q);
        assert_eq!(q.total_cleared(), 8);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q: EventQueue<u64> = EventQueue::new();
        q.push(SimTime::from_ms(1), 7);
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(1)));
        assert_eq!(q.len(), 1);
    }

    /// The heap sifts one `Key` per level on every push and pop; a field
    /// that regrows it makes every sift move more.
    #[test]
    fn queue_keys_stay_small() {
        assert!(std::mem::size_of::<Key>() <= 24);
    }

    #[test]
    fn far_future_outliers_pop_in_time_order() {
        let mut q: EventQueue<u64> = EventQueue::new();
        // A dense near-term population plus outliers ten seconds out.
        for i in 0..100 {
            q.push(SimTime::from_nanos(i * 100), i);
        }
        for i in 0..10 {
            q.push(SimTime::from_ms(10_000 + i), 1_000 + i);
        }
        let mut last = SimTime::ZERO;
        let mut seen = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last, "time went backwards at {t}");
            last = t;
            seen += 1;
        }
        assert_eq!(seen, 110);
    }

    #[test]
    fn same_instant_flood_is_fifo() {
        let mut q: EventQueue<u64> = EventQueue::new();
        // Adversarial: thousands of events at one instant, ordered by
        // sequence number alone.
        for i in 0..5_000u64 {
            q.push(SimTime::from_us(3), i);
        }
        for i in 0..5_000u64 {
            assert_eq!(q.pop().map(|(_, e)| e), Some(i));
        }
    }

    #[test]
    fn debug_is_nonempty() {
        let q: EventQueue<u8> = EventQueue::new();
        let rendered = format!("{q:?}");
        assert!(rendered.contains("pending"));
        assert!(rendered.contains("cleared"));
    }

    /// Invariant `event-queue FIFO-tie ordering`: delivery is
    /// non-decreasing in time, and FIFO among events at equal times.
    #[test]
    fn prop_delivery_order() {
        Check::new("event_queue_fifo_tie_ordering").run(
            |rng, size| gen::vec_with(rng, size, 1, 200, |r| r.next_below(1_000)),
            |times| {
                let mut q = EventQueue::new();
                for (idx, &t) in times.iter().enumerate() {
                    q.push(SimTime::ZERO + SimDuration::from_nanos(t), idx);
                }
                let mut last: Option<(SimTime, usize)> = None;
                while let Some((t, idx)) = q.pop() {
                    if let Some((lt, lidx)) = last {
                        ensure!(t >= lt, "time went backwards");
                        if t == lt {
                            ensure!(idx > lidx, "FIFO violated at equal times");
                        }
                    }
                    last = Some((t, idx));
                }
                Ok(())
            },
        );
    }

    /// Interleaved push/pop still respects ordering for pops.
    #[test]
    fn prop_interleaved() {
        Check::new("event_queue_interleaved_ordering")
            .max_size(300)
            .run(
                |rng, size| {
                    gen::vec_with(rng, size, 1, 300, |r| (r.next_below(1_000), gen::bool(r)))
                },
                |ops| {
                    let mut q = EventQueue::new();
                    let mut clock = SimTime::ZERO;
                    for &(t, do_pop) in ops {
                        if do_pop {
                            if let Some((popped_at, ())) = q.pop() {
                                ensure!(
                                    popped_at >= clock
                                        || q.is_empty()
                                        || popped_at <= clock + SimDuration::from_nanos(1_000),
                                    "pop at {popped_at} after clock {clock}"
                                );
                                clock = popped_at.max(clock);
                            }
                        } else {
                            // Schedule only in the present or future of the
                            // popped clock, as a real simulation does.
                            q.push(clock + SimDuration::from_nanos(t), ());
                        }
                    }
                    Ok(())
                },
            );
    }

    /// Freed slots are reused before the slab grows, so over any
    /// push/pop/clear stream the slab never outgrows the largest pending
    /// population seen so far: memory tracks peak pending.
    #[test]
    fn prop_slab_tracks_peak_pending() {
        Check::new("event_queue_slab_reuse").max_size(300).run(
            |rng, size| gen::vec_with(rng, size, 1, 300, |r| r.next_below(100)),
            |ops| {
                let mut q = EventQueue::new();
                let mut peak = 0;
                for (i, &roll) in ops.iter().enumerate() {
                    match roll {
                        0..=54 => q.push(SimTime::from_nanos(roll * 7 % 13), i),
                        55..=97 => {
                            let _ = q.pop();
                        }
                        _ => q.clear(),
                    }
                    peak = peak.max(q.len());
                    ensure!(
                        q.slab.len() <= peak,
                        "slab {} outgrew peak pending {peak}",
                        q.slab.len()
                    );
                    ensure!(
                        q.slab.len() == q.len() + q.free.len(),
                        "slab {} != pending {} + free {}",
                        q.slab.len(),
                        q.len(),
                        q.free.len()
                    );
                }
                Ok(())
            },
        );
    }
}
