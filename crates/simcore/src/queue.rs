//! The event queue: a monotone radix queue ordered by `(time, sequence)`.
//!
//! Two events scheduled for the same instant pop in the order they were
//! scheduled. This FIFO tie-break is what makes whole-simulation runs
//! reproducible: an unstable order among simultaneous events (job
//! arrival vs. poll tick, say) would make results depend on queue
//! internals.
//!
//! ## How it works
//!
//! A simulation clock never goes backwards, so every push an
//! [`Engine`](crate::Engine) makes is at or after the last pop. A radix
//! queue (Ahuja, Mehlhorn, Orlin & Tarjan, JACM 1990) exploits exactly
//! that. It keeps `last`, the time of the last *refill*, and files each
//! entry by the highest 4-bit digit in which its time differs from
//! `last`:
//!
//! * the **lane** holds the entries whose time equals `last`;
//! * **bucket** `16·p + v` holds the entries whose highest differing
//!   digit is digit `p`, where their own digit is `v`. Every entry in a
//!   lower bucket is earlier than every entry in a higher one.
//!
//! The lane and each bucket are FIFO lists threaded through one slot
//! arena, and each bucket knows its earliest time. A push is an xor, a
//! leading-zeros count and an append. A pop takes the head of the lane.
//! When the lane is empty, the lowest non-empty bucket (found in a
//! bitmap) is refilled: its earliest time becomes `last`, and its
//! entries are re-linked, in order, onto the lane and strictly lower
//! buckets. No other bucket moves: against the new `last`, its entries
//! differ first in the same digit as before. An entry is re-linked at
//! most once per digit, so a pop costs amortized O(digits), and
//! `peek_time` is O(1).
//!
//! ## FIFO by construction
//!
//! An entry's list depends only on its time and `last`, so entries at
//! equal times always share one list. Pushes append, pops take the
//! head, and a refill walks its bucket in order. Equal times
//! therefore stay in insertion order without comparing sequence numbers,
//! and the queue pops exactly in `(time, seq)` order: the order any
//! correct priority queue over that strict total order pops.
//!
//! ## Pushes into the past
//!
//! A bare queue may be pushed an entry earlier than `last`. That push
//! re-files every pending entry against the earlier time, an O(n) slow
//! path that walks each list in order, so FIFO survives it. An
//! `Engine` never takes it: it clamps every schedule to `now`, and `now`
//! is never earlier than `last`.
//!
//! ## Memory
//!
//! Entries live in one arena of slots; a popped entry's slot goes on a
//! free list and the next push reuses it. A refill only re-links slots,
//! so it neither moves nor allocates. The arena thus never holds more
//! slots than the peak pending count, however many events pass through:
//! its capacity is under twice that, or the capacity it was created
//! with if larger. The 257 list heads are a fixed cost.

use crate::time::SimTime;

/// Bits per time digit.
const DIGIT_BITS: u32 = 4;
/// Values per digit.
const RADIX: usize = 1 << DIGIT_BITS;
/// One bucket per (digit position, digit value) of a `u64` time.
const BUCKETS: usize = (u64::BITS / DIGIT_BITS) as usize * RADIX;
/// The lane's index in [`EventQueue::lists`], after the buckets.
const LANE: usize = BUCKETS;
/// The end of a slot list.
const NIL: u32 = u32::MAX;

/// One pending entry, or a free slot.
#[derive(Clone)]
struct Slot<E> {
    time: SimTime,
    seq: u64,
    /// The next slot of the list this one is on (a bucket, the lane or
    /// the free list), or [`NIL`].
    next: u32,
    /// `None` while the slot is free.
    event: Option<E>,
}

/// A FIFO list of slots. `min` is the earliest time appended since the
/// list was last emptied; only buckets read it.
#[derive(Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
    min: u64,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
        min: u64::MAX,
    };
}

/// The bucket an entry at `t` files into when `t > last`: the position
/// of the highest digit in which `t` and `last` differ, and `t`'s value
/// of that digit.
fn bucket_of(t: u64, last: u64) -> usize {
    debug_assert!(t > last);
    let pos = (u64::BITS - 1 - (t ^ last).leading_zeros()) / DIGIT_BITS;
    pos as usize * RADIX + (t >> (pos * DIGIT_BITS)) as usize % RADIX
}

/// A stable-order priority queue of timestamped events.
///
/// This type is time-agnostic about "now"; pairing it with a clock is the
/// job of [`crate::Engine`]. It is exposed separately so substrates can be
/// unit-tested against a bare queue. See the module docs for the layout.
#[derive(Clone)]
pub struct EventQueue<E> {
    /// Every entry, pending or free; lists link them by index.
    slots: Vec<Slot<E>>,
    /// Head of the free-slot list.
    free: u32,
    /// The buckets, each a list of the entries [`bucket_of`] files
    /// there, then the lane: the entries at time `last`.
    lists: Box<[List; BUCKETS + 1]>,
    /// Bit `i` is set exactly when bucket `i` is non-empty.
    occupied: [u64; BUCKETS / 64],
    /// The time of the last refill (or slow-path push), in milliseconds:
    /// no pending entry is earlier.
    last: u64,
    len: usize,
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
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `cap` pending events before
    /// its slot arena reallocates.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            slots: Vec::with_capacity(cap),
            free: NIL,
            lists: Box::new([List::EMPTY; BUCKETS + 1]),
            occupied: [0; BUCKETS / 64],
            last: 0,
            len: 0,
            next_seq: 0,
        }
    }

    /// Inserts `event` at instant `time` and returns the sequence number
    /// assigned to it. Events inserted at equal times pop in insertion
    /// order. O(1), unless `time` is earlier than the last refill (see
    /// the module docs).
    ///
    /// # Panics
    /// Panics when `u32::MAX - 1` events are already pending (slots are
    /// indexed by `u32`).
    pub fn push(&mut self, time: SimTime, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if time.as_millis() < self.last {
            self.rekey(time.as_millis());
        }
        self.insert(time, seq, event);
        self.len += 1;
        seq
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.lists[LANE].head == NIL {
            self.refill()?;
        }
        let i = self.lists[LANE].head;
        let slot = &mut self.slots[i as usize];
        let event = slot.event.take().expect("a listed slot holds an event");
        let next = std::mem::replace(&mut slot.next, self.free);
        self.free = i;
        self.lists[LANE].head = next;
        if next == NIL {
            self.lists[LANE].tail = NIL;
        }
        self.len -= 1;
        Some((slot.time, event))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        match self.lists[LANE].head {
            NIL => Some(SimTime::from_millis(self.lists[self.lowest()?].min)),
            i => Some(self.slots[i as usize].time),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
        let mut out: Vec<(SimTime, u64, E)> = (0..=LANE)
            .flat_map(|l| self.list(l))
            .map(|s| (s.time, s.seq, s.event.clone().expect("listed")))
            .collect();
        out.sort_by_key(|&(t, s, _)| (t, s));
        out
    }

    /// Rebuilds a queue from a captured entry list and sequence counter.
    /// The entries keep their original sequence numbers, so FIFO order
    /// among equal timestamps survives the round trip; `next_seq` must
    /// be at least one past every restored sequence.
    pub fn restore_entries(next_seq: u64, mut entries: Vec<(SimTime, u64, E)>) -> Self {
        debug_assert!(
            entries.iter().all(|&(_, s, _)| s < next_seq),
            "restored sequence numbers must precede next_seq"
        );
        // Filing in `(time, seq)` order puts equal times in sequence
        // order; a captured list is already sorted.
        entries.sort_by_key(|&(t, s, _)| (t, s));
        let mut q = Self::with_capacity(entries.len());
        q.len = entries.len();
        q.next_seq = next_seq;
        for (time, seq, event) in entries {
            q.insert(time, seq, event);
        }
        q
    }

    /// Drops all pending events but **keeps the sequence counter**:
    /// events pushed after a `clear` still order after anything pushed
    /// before it, so FIFO tie-breaking at equal timestamps remains stable
    /// across the clear. Resetting `next_seq` here would let a post-clear
    /// push overtake the ordering position of a pre-clear push replayed at
    /// the same instant — a reproducibility hazard. The slot arena's
    /// allocation is retained for reuse.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free = NIL;
        *self.lists = [List::EMPTY; BUCKETS + 1];
        self.occupied = [0; BUCKETS / 64];
        self.len = 0;
    }

    /// The entries of list `l`, in order.
    fn list(&self, l: usize) -> impl Iterator<Item = &Slot<E>> {
        let mut i = self.lists[l].head;
        std::iter::from_fn(move || {
            let s = self.slots.get(i as usize)?;
            i = s.next;
            Some(s)
        })
    }

    /// Stores an entry in a free slot, or a new one, and files it; `time`
    /// is not before `last`.
    fn insert(&mut self, time: SimTime, seq: u64, event: E) {
        let slot = Slot {
            time,
            seq,
            next: NIL,
            event: Some(event),
        };
        let i = match self.free {
            NIL => {
                let i = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&i| i != NIL)
                    .expect("fewer than u32::MAX pending events");
                self.slots.push(slot);
                i
            }
            i => {
                self.free = std::mem::replace(&mut self.slots[i as usize], slot).next;
                i
            }
        };
        self.file(i);
    }

    /// Appends slot `i`, whose time is not before `last`, to the lane or
    /// its bucket.
    fn file(&mut self, i: u32) {
        let t = self.slots[i as usize].time.as_millis();
        let l = if t == self.last {
            LANE
        } else {
            let b = bucket_of(t, self.last);
            self.occupied[b / 64] |= 1 << (b % 64);
            b
        };
        self.slots[i as usize].next = NIL;
        let list = &mut self.lists[l];
        match list.tail {
            NIL => list.head = i,
            tail => self.slots[tail as usize].next = i,
        }
        list.tail = i;
        list.min = list.min.min(t);
    }

    /// Index of the lowest non-empty bucket, if any.
    fn lowest(&self) -> Option<usize> {
        let (i, w) = self.occupied.iter().enumerate().find(|(_, &w)| w != 0)?;
        Some(i * 64 + w.trailing_zeros() as usize)
    }

    /// Refills the empty lane from the lowest non-empty bucket: its
    /// minimum time becomes `last`, and its entries move, in order, to
    /// the lane and lower buckets. `None` when nothing is pending.
    fn refill(&mut self) -> Option<()> {
        let b = self.lowest()?;
        self.occupied[b / 64] &= !(1 << (b % 64));
        let List { head, min, .. } = std::mem::replace(&mut self.lists[b], List::EMPTY);
        self.last = min;
        self.refile(head);
        Some(())
    }

    /// Files every slot of the list starting at `head` anew, in order.
    fn refile(&mut self, mut i: u32) {
        while i != NIL {
            let next = self.slots[i as usize].next;
            self.file(i);
            i = next;
        }
    }

    /// The slow path of a push earlier than `last`: makes `last` the
    /// earlier time and re-files every pending entry against it. Equal
    /// times share a list and each list is walked in order, so they keep
    /// their order.
    #[cold]
    fn rekey(&mut self, last: u64) {
        let lists = std::mem::replace(&mut *self.lists, [List::EMPTY; BUCKETS + 1]);
        self.occupied = [0; BUCKETS / 64];
        self.last = last;
        for l in lists.iter() {
            self.refile(l.head);
        }
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

    #[test]
    fn push_before_last_pop_keeps_fifo() {
        let mut q = EventQueue::new();
        for (t, e) in [
            (10, "a"),
            (20, "b"),
            (20, "c"),
            (30, "d"),
            (20, "e"),
            (30, "f"),
        ] {
            q.push(SimTime::from_secs(t), e);
        }
        assert_eq!(q.pop(), Some((SimTime::from_secs(10), "a")));
        // Earlier than the last pop: the slow path re-files everything.
        q.push(SimTime::from_secs(5), "x");
        q.push(SimTime::from_secs(20), "g");
        q.push(SimTime::from_secs(5), "y");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["x", "y", "b", "c", "e", "g", "d", "f"]);
    }

    /// A long fill/drain shaped like a streamed trace: ~1,024 far-future
    /// arrivals topped up as they are consumed, near-term timers and
    /// same-instant bursts. Retained slots must stay within twice the
    /// peak pending count, however many events pass through.
    #[test]
    fn retained_capacity_stays_bounded() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % bound
        };
        let mut arrival = 0u64;
        for _ in 0..1_024 {
            arrival += 1 + next(4_000);
            q.push(SimTime::from_millis(arrival), 0);
        }
        let (mut peak_pending, mut peak_retained) = (0, 0);
        for _ in 0..200_000 {
            let (now, kind) = q.pop().expect("the stream never drains");
            let now = now.as_millis();
            match kind {
                // An arrival: top the look-ahead up and start a job.
                0 => {
                    arrival += 1 + next(4_000);
                    q.push(SimTime::from_millis(arrival), 0);
                    q.push(SimTime::from_millis(now + 1 + next(600_000)), 1);
                }
                // A completion frees capacity: a same-instant burst.
                1 => {
                    for _ in 0..next(4) {
                        q.push(SimTime::from_millis(now), 2);
                    }
                    q.push(SimTime::from_millis(now + 1 + next(30_000)), 3);
                }
                _ => {}
            }
            peak_pending = peak_pending.max(q.len());
            peak_retained = peak_retained.max(q.slots.capacity());
        }
        assert!(peak_pending >= 1_024, "the look-ahead stays full");
        assert!(
            peak_retained <= 2 * peak_pending,
            "retained {peak_retained} slots for at most {peak_pending} pending"
        );
    }
}
