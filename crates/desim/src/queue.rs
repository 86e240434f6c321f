//! The time-ordered event queue at the heart of the simulator.
//!
//! [`EventQueue`] is a priority queue keyed by `(SimTime, sequence)`. The
//! sequence number is a monotonically increasing insertion counter, so two
//! events scheduled for the same instant are delivered in scheduling order.
//! This tie-break is what makes whole-simulation runs bit-reproducible.
//!
//! Pending events sit in a slab from push to pop, each with its time and
//! a `next` link. Freed slots are linked into a free list through the same
//! field and reused before the slab grows, so the slab's length is the
//! peak pending population. Two tiers order the slots:
//!
//! * **Near tier: a timing wheel.** A ring of 2,048 slots, each 64 ns of
//!   simulated time wide, covers the 131 µs from the cursor (the instant
//!   of the last pop) onwards. Each slot is a singly linked list threaded
//!   through the slab's `next` links and kept in `(time, seq)` order.
//!   Since `seq` only grows, a push is almost always an append at the
//!   tail, and otherwise a sorted insert among the slot's few entries. An
//!   occupancy bitmap of 32 words finds the next non-empty slot with
//!   `trailing_zeros`. Push and pop are O(1) for events inside the window.
//! * **Far tier: a binary heap** of 24-byte `(time, seq, slot)` keys holds
//!   every event beyond the window and any event pushed behind the cursor.
//!
//! A pop takes the earlier of the near head and the far top, and the
//! cursor moves to the popped instant, never backwards. A far event is
//! never moved into the ring: it pops straight from the heap when its turn
//! comes. DESIGN.md §12 has the delay mix behind the slot width and count.
//! `crates/desim/tests/differential.rs` checks the queue operation by
//! operation against a naive linear-scan model.
//!
//! Counters obey the conservation identity
//! `total_pushed == total_popped + total_cleared + len` at every instant.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulated width of one ring slot: `1 << SLOT_SHIFT` ns = 64 ns.
const SLOT_SHIFT: u32 = 6;
/// Ring slots; the near window spans `SLOTS << SLOT_SHIFT` ns = 131 µs.
const SLOTS: usize = 2048;
/// Words of the ring's occupancy bitmap.
const WORDS: usize = SLOTS / 64;
/// The end of a list.
const NIL: u32 = u32::MAX;

/// The ring slot a time falls in, counted from time zero.
fn tick(time: SimTime) -> u64 {
    time.as_nanos() >> SLOT_SHIFT
}

/// The far heap's handle on one pending event: its delivery order and the
/// slab slot holding it. The comparisons below are *reversed* so a
/// `std::collections::BinaryHeap<Key>` acts as a min-heap.
struct Key {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl Key {
    /// `(time, seq)` as one integer, so ordering two keys is a single
    /// 128-bit compare instead of a branch on the time tie.
    fn order(&self) -> u128 {
        (u128::from(self.time.as_nanos()) << 64) | u128::from(self.seq)
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.order() == other.order()
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
        other.order().cmp(&self.order())
    }
}

/// One slab slot: a pending event and its time, or (`event` is `None`) a
/// free slot. `next` links the slot into its ring list or the free list.
struct Entry<E> {
    time: SimTime,
    next: u32,
    event: Option<E>,
}

/// One ring slot's list of slab slots, meaningful only while the slot's
/// occupancy bit is set.
#[derive(Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
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
    /// Pending events, each at the slot a ring list or a far key names,
    /// and free slots, listed from `free`.
    slab: Vec<Entry<E>>,
    free: u32,
    /// The near tier: the list of each 64 ns slot, indexed by
    /// `tick % SLOTS`, and which of them are non-empty.
    ring: Box<[List; SLOTS]>,
    occupied: [u64; WORDS],
    /// Events in the ring.
    near: usize,
    /// The tick of the last popped instant. Every ring event's tick lies
    /// in `cursor..cursor + SLOTS`.
    cursor: u64,
    /// The far tier.
    far: BinaryHeap<Key>,
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
        let empty = List {
            head: NIL,
            tail: NIL,
        };
        EventQueue {
            slab: Vec::with_capacity(capacity),
            free: NIL,
            ring: Box::new([empty; SLOTS]),
            occupied: [0; WORDS],
            near: 0,
            cursor: 0,
            far: BinaryHeap::new(),
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
    /// Panics if more than `u32::MAX - 1` events are pending at once.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed += 1;
        let entry = Entry {
            time,
            next: NIL,
            event: Some(event),
        };
        let slot = if self.free == NIL {
            let slot = u32::try_from(self.slab.len())
                .ok()
                .filter(|&slot| slot != NIL)
                .expect("over u32::MAX - 1 pending events");
            self.slab.push(entry);
            slot
        } else {
            let slot = self.free;
            let free = &mut self.slab[slot as usize];
            self.free = free.next;
            *free = entry;
            slot
        };
        // Behind the cursor wraps round to a huge distance: far, too.
        if tick(time).wrapping_sub(self.cursor) < SLOTS as u64 {
            self.link(time, slot);
        } else {
            self.far.push(Key { time, seq, slot });
        }
    }

    /// Adds slab slot `slot` to its ring list, after every entry at or
    /// before `time`, so the list stays in `(time, seq)` order.
    fn link(&mut self, time: SimTime, slot: u32) {
        let s = tick(time) as usize % SLOTS;
        let (word, bit) = (s / 64, 1u64 << (s % 64));
        self.near += 1;
        let list = &mut self.ring[s];
        if self.occupied[word] & bit == 0 {
            self.occupied[word] |= bit;
            *list = List {
                head: slot,
                tail: slot,
            };
        } else if self.slab[list.tail as usize].time <= time {
            self.slab[list.tail as usize].next = slot;
            list.tail = slot;
        } else if self.slab[list.head as usize].time > time {
            self.slab[slot as usize].next = list.head;
            list.head = slot;
        } else {
            // Strictly inside: the tail is later than `time`, so the walk
            // stops before the end of the list.
            let mut prev = list.head as usize;
            loop {
                let next = self.slab[prev].next;
                if self.slab[next as usize].time > time {
                    self.slab[slot as usize].next = next;
                    self.slab[prev].next = slot;
                    break;
                }
                prev = next as usize;
            }
        }
    }

    /// The first non-empty ring slot at or after the cursor's, wrapping
    /// round: the slot of the earliest ring event.
    fn first_occupied(&self) -> Option<usize> {
        if self.near == 0 {
            return None;
        }
        let start = self.cursor as usize % SLOTS;
        let first = start / 64;
        let bits = self.occupied[first] & (!0u64 << (start % 64));
        if bits != 0 {
            return Some(first * 64 + bits.trailing_zeros() as usize);
        }
        // The last turn revisits `first` for the slots below `start`,
        // which hold the latest ticks of the window.
        (1..=WORDS).find_map(|i| {
            let word = (first + i) % WORDS;
            let bits = self.occupied[word];
            (bits != 0).then(|| word * 64 + bits.trailing_zeros() as usize)
        })
    }

    /// Where the earliest pending event is: its ring slot (`None` when it
    /// is the far top) and its slab slot.
    ///
    /// A ring event and a far event due at the same instant never need
    /// their `seq` compared: the far one always came first. Had it come
    /// second, its instant would have been inside the window then (the
    /// cursor only moves forwards, and the ring event keeps the instant at
    /// or after the cursor), so it would have gone into the ring too.
    fn front(&self) -> Option<(Option<usize>, u32)> {
        let near = self.first_occupied().map(|s| (s, self.ring[s].head));
        match (near, self.far.peek()) {
            (Some((_, head)), Some(key)) if key.time <= self.slab[head as usize].time => {
                Some((None, key.slot))
            }
            (Some((s, head)), _) => Some((Some(s), head)),
            (None, key) => key.map(|key| (None, key.slot)),
        }
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime::MAX)
    }

    /// Removes and returns the earliest event if it is due at or before
    /// `horizon`. Returns `None`, consuming nothing, when the queue is
    /// empty or its earliest event is later than `horizon`. One scan both
    /// checks the horizon and pops, where [`peek_time`](Self::peek_time)
    /// then [`pop`](Self::pop) would scan twice.
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let (ring_slot, slot) = self.front()?;
        let entry = &mut self.slab[slot as usize];
        let time = entry.time;
        if time > horizon {
            return None;
        }
        let next = std::mem::replace(&mut entry.next, self.free);
        let event = entry
            .event
            .take()
            .expect("a pending link names an occupied slot");
        self.free = slot;
        if let Some(s) = ring_slot {
            self.near -= 1;
            if next == NIL {
                self.occupied[s / 64] &= !(1u64 << (s % 64));
            } else {
                self.ring[s].head = next;
            }
        } else {
            self.far.pop();
        }
        self.cursor = self.cursor.max(tick(time));
        self.popped += 1;
        Some((time, event))
    }

    /// The instant of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.front().map(|(_, slot)| self.slab[slot as usize].time)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.near + self.far.len()
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
        self.slab.clear();
        self.free = NIL;
        self.occupied = [0; WORDS];
        self.near = 0;
        self.far.clear();
    }
}

#[cfg(test)]
impl<E> EventQueue<E> {
    /// Checks the two tiers and the free list against each other: every
    /// slab slot is pending in exactly one list or heap key, or free;
    /// every ring list is in time order, inside the window, in its own
    /// slot, and flagged in the bitmap.
    fn check_structure(&self) -> Result<(), String> {
        let mut seen = vec![false; self.slab.len()];
        let mut visit = |slot: u32, pending: bool| -> Result<(), String> {
            let i = slot as usize;
            if std::mem::replace(&mut seen[i], true) {
                return Err(format!("slot {i} listed twice"));
            }
            if self.slab[i].event.is_some() != pending {
                return Err(format!("slot {i}: occupancy disagrees with its list"));
            }
            Ok(())
        };
        let mut near = 0;
        for s in 0..SLOTS {
            if self.occupied[s / 64] & (1 << (s % 64)) == 0 {
                continue;
            }
            let (mut slot, mut last) = (self.ring[s].head, SimTime::ZERO);
            loop {
                visit(slot, true)?;
                near += 1;
                let entry = &self.slab[slot as usize];
                let t = tick(entry.time);
                if entry.time < last || t % SLOTS as u64 != s as u64 {
                    return Err(format!("ring slot {s}: entry at {} misfiled", entry.time));
                }
                if t.wrapping_sub(self.cursor) >= SLOTS as u64 {
                    return Err(format!("ring slot {s}: {} outside the window", entry.time));
                }
                last = entry.time;
                if entry.next == NIL {
                    break;
                }
                slot = entry.next;
            }
            if slot != self.ring[s].tail {
                return Err(format!("ring slot {s}: tail is not the list's end"));
            }
        }
        if near != self.near {
            return Err(format!("ring holds {near} events, counted {}", self.near));
        }
        for key in &self.far {
            visit(key.slot, true)?;
            if self.slab[key.slot as usize].time != key.time {
                return Err(format!("far key for slot {} has the wrong time", key.slot));
            }
        }
        let (mut free, mut slot) = (0, self.free);
        while slot != NIL {
            visit(slot, false)?;
            free += 1;
            slot = self.slab[slot as usize].next;
        }
        if self.len() + free != self.slab.len() {
            return Err(format!(
                "slab {} != pending {} + free {free}",
                self.slab.len(),
                self.len()
            ));
        }
        Ok(())
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

    /// The far heap sifts one `Key` per level on every push and pop; a field
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
                    q.check_structure()?;
                }
                Ok(())
            },
        );
    }

    /// Pushes whose delays straddle every wheel edge (a slot's width, the
    /// window's end, the cursor itself and behind it), interleaved with
    /// pops and the odd clear: the ring, the far heap and the free list
    /// stay consistent after every operation, and same-instant pops stay
    /// FIFO. (Order in full is the differential oracle's job.)
    #[test]
    fn prop_wheel_structure_holds() {
        const WINDOW: u64 = (SLOTS as u64) << SLOT_SHIFT;
        const DELAYS: [u64; 10] = [
            0,
            1,
            63,
            64,
            65,
            WINDOW - 64,
            WINDOW - 1,
            WINDOW,
            WINDOW + 64,
            5_000_000,
        ];
        Check::new("event_queue_wheel_structure").max_size(400).run(
            |rng, size| gen::vec_with(rng, size, 1, 400, |r| (r.next_below(100), r.next_below(64))),
            |ops| {
                let mut q = EventQueue::new();
                let mut last: Option<(SimTime, usize)> = None;
                for (i, &(roll, jitter)) in ops.iter().enumerate() {
                    let now = last.map_or(SimTime::ZERO, |(t, _)| t);
                    match roll {
                        0..=49 => q.push(
                            now + SimDuration::from_nanos(DELAYS[(roll % 10) as usize] + jitter),
                            i,
                        ),
                        50..=54 => q.push(
                            SimTime::from_nanos(now.as_nanos().saturating_sub(jitter * 97)),
                            i,
                        ),
                        55..=97 => {
                            if let Some((t, e)) = q.pop() {
                                if let Some((lt, le)) = last {
                                    ensure!(t != lt || e > le, "FIFO broken at {t}");
                                }
                                last = Some((t, e));
                            }
                        }
                        _ => q.clear(),
                    }
                    q.check_structure()?;
                }
                Ok(())
            },
        );
    }
}
