//! TIME_WAIT for request-keyed tables.
//!
//! Several layers key state by request id and must keep an entry after
//! the request resolves, because a copy of it (a retransmission, a
//! response replay, a reordered segment) can still arrive and has to find
//! the entry. [`TimeWait`] bounds how long: an entry retires once its
//! *linger* has passed since the owning layer first saw the request,
//! which [`FaultConfig::linger`](crate::FaultConfig::linger) sizes so that
//! no copy can arrive later. Tables then hold O(requests in flight)
//! entries instead of one per request ever issued.
//!
//! The owner [`close`](TimeWait::close)s an entry when it resolves and
//! calls [`retire`](TimeWait::retire) as it inserts new entries; each
//! closed id is queued and popped once, so the cost is O(1) amortised.
//! Open entries are never queued and never retire. An entry no copy can
//! reach any more (its request was resolved from its only copy) is
//! dropped at once instead, and [`cancel`](TimeWait::cancel) takes its id
//! out of the queue.

use desim::{SimDuration, SimTime, SplitMix64};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// A table keyed by a simulation-internal id (request or connection).
///
/// Its hasher is fixed, unlike `HashMap`'s per-process random seed, so
/// the same run lays out its tables, and grows them, identically in
/// every process, and its memory use repeats.
pub type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// The [`IdMap`] hasher: an id hashes to the first output of a
/// [`SplitMix64`] seeded with it, i.e. the SplitMix64 finalizer.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = SplitMix64::new(id).next_u64();
    }
}

/// How far back from the newest close [`TimeWait::cancel`] looks: owners
/// cancel an id a few closes after closing it.
const CANCEL_SCAN: usize = 64;

/// A FIFO of closed request ids waiting out their linger.
///
/// Ids are queued in close order with the instant they may retire. Close
/// order need not match that instant's order, so a queued id can wait
/// behind a later one; it still retires no later than `close + linger`,
/// and never before its own instant.
#[derive(Debug, Clone, Default)]
pub struct TimeWait {
    /// `None` keeps every entry forever (no owner has sized the linger).
    linger: Option<SimDuration>,
    due: VecDeque<(SimTime, u64)>,
}

impl TimeWait {
    /// Sets how long after its first sighting a closed entry retires.
    pub fn set_linger(&mut self, linger: SimDuration) {
        self.linger = Some(linger);
    }

    /// Queues `id`, which the owner just resolved, to retire once the
    /// linger has passed since `first_seen`. A no-op without a linger.
    pub fn close(&mut self, id: u64, first_seen: SimTime) {
        if let Some(linger) = self.linger {
            self.due.push_back((first_seen + linger, id));
        }
    }

    /// Takes `id` out of the queue, if it is among the last
    /// `CANCEL_SCAN` (64) ids closed, and reports whether
    /// it was. An id further back stays queued until its instant; the
    /// owner's `remove` then gets an id it no longer holds.
    pub fn cancel(&mut self, id: u64) -> bool {
        let back = self.due.len();
        let found = self
            .due
            .iter()
            .rev()
            .take(CANCEL_SCAN)
            .position(|&(_, queued)| queued == id);
        found.map(|i| self.due.remove(back - 1 - i)).is_some()
    }

    /// Ids queued to retire.
    #[must_use]
    pub fn len(&self) -> usize {
        self.due.len()
    }

    /// Whether no id is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.due.is_empty()
    }

    /// Hands every queued id whose instant has come by `now` to `remove`,
    /// in close order.
    pub fn retire(&mut self, now: SimTime, mut remove: impl FnMut(u64)) {
        while let Some(&(at, id)) = self.due.front() {
            if at > now {
                break;
            }
            self.due.pop_front();
            remove(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn retired(tw: &mut TimeWait, now: SimTime) -> Vec<u64> {
        let mut out = Vec::new();
        tw.retire(now, |id| out.push(id));
        out
    }

    #[test]
    fn without_a_linger_nothing_is_queued() {
        let mut tw = TimeWait::default();
        tw.close(1, SimTime::ZERO);
        assert!(retired(&mut tw, SimTime::MAX).is_empty());
    }

    #[test]
    fn entries_retire_once_the_linger_has_passed() {
        let mut tw = TimeWait::default();
        tw.set_linger(SimDuration::from_ms(10));
        tw.close(1, SimTime::from_ms(0));
        tw.close(2, SimTime::from_ms(4));
        assert!(retired(&mut tw, SimTime::from_ms(9)).is_empty());
        assert_eq!(retired(&mut tw, SimTime::from_ms(10)), vec![1]);
        assert_eq!(retired(&mut tw, SimTime::from_ms(20)), vec![2]);
        assert!(retired(&mut tw, SimTime::MAX).is_empty());
    }

    #[test]
    fn an_early_instant_waits_behind_a_later_one_but_never_retires_early() {
        let mut tw = TimeWait::default();
        tw.set_linger(SimDuration::from_ms(10));
        // Closed in this order, first seen in the opposite one.
        tw.close(1, SimTime::from_ms(5));
        tw.close(2, SimTime::from_ms(1));
        assert!(retired(&mut tw, SimTime::from_ms(12)).is_empty());
        assert_eq!(retired(&mut tw, SimTime::from_ms(15)), vec![1, 2]);
    }

    #[test]
    fn a_cancelled_id_never_retires_and_the_others_keep_their_order() {
        let mut tw = TimeWait::default();
        tw.set_linger(SimDuration::from_ms(10));
        for id in 1..=3 {
            tw.close(id, SimTime::from_ms(id));
        }
        assert!(tw.cancel(2));
        assert!(!tw.cancel(2), "already gone");
        assert_eq!(tw.len(), 2);
        assert_eq!(retired(&mut tw, SimTime::MAX), vec![1, 3]);
        assert!(tw.is_empty());
    }

    #[test]
    fn cancel_looks_back_only_a_bounded_number_of_closes() {
        let mut tw = TimeWait::default();
        tw.set_linger(SimDuration::from_ms(10));
        let n = CANCEL_SCAN as u64;
        for id in 0..=n {
            tw.close(id, SimTime::ZERO);
        }
        assert!(!tw.cancel(0), "one close too far back");
        assert!(tw.cancel(1));
        assert_eq!(tw.len(), CANCEL_SCAN);
        assert_eq!(retired(&mut tw, SimTime::MAX)[0], 0);
    }

    #[test]
    fn a_zero_linger_retires_at_the_next_call() {
        let mut tw = TimeWait::default();
        tw.set_linger(SimDuration::ZERO);
        tw.close(7, SimTime::from_us(3));
        assert_eq!(retired(&mut tw, SimTime::from_us(3)), vec![7]);
    }
}
