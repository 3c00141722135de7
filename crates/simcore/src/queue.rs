//! The event queue: a binary heap ordered by `(time, sequence)`.
//!
//! Two events scheduled for the same instant pop in the order they were
//! scheduled. This FIFO tie-break is what makes whole-simulation runs
//! reproducible: `BinaryHeap` alone is not stable, and an unstable order
//! among simultaneous events (job arrival vs. poll tick, say) would make
//! results depend on heap internals.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::SimTime;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A stable-order priority queue of timestamped events.
///
/// This type is time-agnostic about "now"; pairing it with a clock is the
/// job of [`crate::Engine`]. It is exposed separately so substrates can be
/// unit-tested against a bare queue.
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue with room for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Inserts `event` at instant `time` and returns the sequence number
    /// assigned to it. Events inserted at equal times pop in insertion
    /// order.
    pub fn push(&mut self, time: SimTime, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { time, seq, event }));
        seq
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.event))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The sequence number the next [`EventQueue::push`] will assign.
    /// Monotone over the queue's lifetime (it survives
    /// [`EventQueue::clear`]); exposed so checkpoints and the
    /// model-based tests can observe it.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The pending events in pop order (`(time, seq)` ascending) — the
    /// canonical form a checkpoint serializes. The queue itself is
    /// untouched.
    pub fn capture_entries(&self) -> Vec<(SimTime, u64, E)>
    where
        E: Clone,
    {
        let mut out: Vec<(SimTime, u64, E)> = self
            .heap
            .iter()
            .map(|Reverse(e)| (e.time, e.seq, e.event.clone()))
            .collect();
        out.sort_by_key(|&(t, s, _)| (t, s));
        out
    }

    /// Rebuilds a queue from a captured entry list and sequence counter.
    /// The entries keep their original sequence numbers, so FIFO order
    /// among equal timestamps survives the round trip; `next_seq` must
    /// be at least one past every restored sequence.
    pub fn restore_entries(next_seq: u64, entries: Vec<(SimTime, u64, E)>) -> Self {
        debug_assert!(
            entries.iter().all(|&(_, s, _)| s < next_seq),
            "restored sequence numbers must precede next_seq"
        );
        let heap = entries
            .into_iter()
            .map(|(time, seq, event)| Reverse(Entry { time, seq, event }))
            .collect();
        EventQueue { heap, next_seq }
    }

    /// Drops all pending events but **keeps the sequence counter**:
    /// events pushed after a `clear` still order after anything pushed
    /// before it, so FIFO tie-breaking at equal timestamps remains stable
    /// across the clear. Resetting `next_seq` here would let a post-clear
    /// push overtake the ordering position of a pre-clear push replayed at
    /// the same instant — a reproducibility hazard. The backing
    /// allocation is also retained for reuse.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), "late");
        q.push(SimTime::from_secs(1), "early");
        q.push(SimTime::from_secs(3), "middle");
        assert_eq!(q.pop().unwrap().1, "early");
        assert_eq!(q.pop().unwrap().1, "middle");
        assert_eq!(q.pop().unwrap().1, "late");
        assert!(q.pop().is_none());
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(7);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn fifo_survives_interleaving_with_other_times() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(2);
        q.push(t, "a");
        q.push(SimTime::from_secs(1), "x");
        q.push(t, "b");
        q.push(t + SimDuration::from_secs(1), "y");
        q.push(t, "c");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["x", "a", "b", "c", "y"]);
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_millis(42), ());
        q.push(SimTime::from_millis(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(7)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(42)));
    }

    #[test]
    fn capture_restore_round_trips() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(2);
        q.push(t, "a");
        q.push(t, "b");
        q.push(SimTime::from_secs(1), "c");
        let entries = q.capture_entries();
        assert_eq!(
            entries.iter().map(|&(_, _, e)| e).collect::<Vec<_>>(),
            vec!["c", "a", "b"],
            "pop order"
        );
        let mut r = EventQueue::restore_entries(q.next_seq(), entries);
        assert_eq!(r.next_seq(), q.next_seq());
        // Sequence numbering continues from where the original left off:
        // a post-restore push at the same instant pops after "b".
        r.push(t, "d");
        let order: Vec<_> = std::iter::from_fn(|| r.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["c", "a", "b", "d"]);
    }

    #[test]
    fn clear_preserves_stable_ordering() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 1);
        q.clear();
        assert!(q.is_empty());
        let t = SimTime::from_secs(1);
        q.push(t, 2);
        q.push(t, 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }
}
