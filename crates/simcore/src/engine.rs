//! The simulation engine: clock + event queue + run bookkeeping.
//!
//! The engine intentionally does **not** own the simulated world. A typical
//! driver loop looks like:
//!
//! ```
//! use simcore::{Engine, SimDuration, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { Tick(u32) }
//!
//! let mut engine: Engine<Ev> = Engine::new();
//! engine.schedule_in(SimDuration::from_secs(1), Ev::Tick(0));
//! let mut ticks = 0;
//! while let Some((now, ev)) = engine.pop() {
//!     match ev {
//!         Ev::Tick(n) if n < 3 => {
//!             ticks += 1;
//!             engine.schedule_in(SimDuration::from_secs(1), Ev::Tick(n + 1));
//!         }
//!         Ev::Tick(_) => { ticks += 1; }
//!     }
//!     assert_eq!(now, engine.now());
//! }
//! assert_eq!(ticks, 4);
//! assert_eq!(engine.now(), SimTime::from_secs(4));
//! ```
//!
//! Keeping the world outside the engine sidesteps every borrow conflict
//! between "handle this event" and "schedule follow-up events", and lets
//! each crate in the workspace define its own event enum.

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Counters the engine maintains about a run; cheap enough to keep always.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events delivered through [`Engine::pop`].
    pub delivered: u64,
    /// Events scheduled (including not-yet-delivered ones).
    pub scheduled: u64,
    /// Events dropped because they were scheduled past the horizon.
    pub beyond_horizon: u64,
}

/// The event-queue implementation an [`Engine`] runs on: the binary-heap
/// [`EventQueue`] is the only one.
///
/// The type survives, with its single variant, because configurations
/// carry it (`SchedulerConfig::event_queue`) and external benchmark
/// drivers pass it as the first argument of [`Engine::configured`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum QueueImpl {
    /// The binary-heap [`EventQueue`]: O(log n) push/pop, FIFO among
    /// equal timestamps.
    #[default]
    Heap,
}

/// A full capture of an [`Engine`]'s state, produced by
/// [`Engine::capture_state`] and consumed by [`Engine::restore_state`].
///
/// The entry list is in pop order (`(time, seq)` ascending).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSnapshot<E> {
    /// The clock at capture time.
    pub now: SimTime,
    /// The configured horizon ([`SimTime::MAX`] when unbounded).
    pub horizon: SimTime,
    /// Run counters at capture time.
    pub stats: EngineStats,
    /// The sequence number the next push will assign.
    pub next_seq: u64,
    /// Pending events in pop order.
    pub entries: Vec<(SimTime, u64, E)>,
}

/// Discrete-event simulation engine.
///
/// Generic over the event type `E`; see the module docs for the driver
/// pattern. The clock only moves forward, in the order fixed by the
/// stable `(time, seq)` queue.
///
/// A clone carries the clock, counters and every pending event with its
/// sequence number, so it pops exactly what the original would from
/// there on, independently of it.
#[derive(Clone)]
pub struct Engine<E> {
    now: SimTime,
    queue: EventQueue<E>,
    horizon: SimTime,
    stats: EngineStats,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine at time zero with an unbounded horizon.
    pub fn new() -> Self {
        Engine::configured(QueueImpl::Heap, None, 0)
    }

    /// Creates an engine that silently drops events scheduled at or after
    /// `horizon`. Useful for fixed-length experiments: periodic timers
    /// stop propagating themselves past the end instead of requiring an
    /// explicit cancellation pass.
    pub fn with_horizon(horizon: SimTime) -> Self {
        Engine::configured(QueueImpl::Heap, Some(horizon), 0)
    }

    /// Creates an engine whose event queue has room for `cap` pending
    /// events before reallocating. Drivers that know their workload size
    /// up front (e.g. one arrival per job plus periodic timers) use this
    /// to keep the queue from growing incrementally during the run.
    pub fn with_capacity(cap: usize) -> Self {
        Engine::configured(QueueImpl::Heap, None, cap)
    }

    /// [`Engine::with_horizon`] and [`Engine::with_capacity`] combined.
    pub fn with_horizon_and_capacity(horizon: SimTime, cap: usize) -> Self {
        Engine::configured(QueueImpl::Heap, Some(horizon), cap)
    }

    /// The fully explicit constructor: queue implementation, optional
    /// horizon (`None` = unbounded), and initial queue capacity. The
    /// first parameter can only be [`QueueImpl::Heap`]; it stays because
    /// external benchmark drivers pass `cfg.sched.event_queue` here.
    pub fn configured(queue: QueueImpl, horizon: Option<SimTime>, cap: usize) -> Self {
        let QueueImpl::Heap = queue;
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::with_capacity(cap),
            horizon: horizon.unwrap_or(SimTime::MAX),
            stats: EngineStats::default(),
        }
    }

    /// Current simulated time: the timestamp of the most recently popped
    /// event (or zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The configured horizon ([`SimTime::MAX`] when unbounded).
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Run statistics so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// True when no events are pending.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// Events in the past are clamped to `now` (they will still run, after
    /// the events already pending at `now`); events at or past the horizon
    /// are dropped and counted in [`EngineStats::beyond_horizon`].
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        if at >= self.horizon {
            self.stats.beyond_horizon += 1;
            return;
        }
        self.stats.scheduled += 1;
        self.queue.push(at, event);
    }

    /// Schedules `event` after the relative delay `delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedules `event` to run at the current instant, after everything
    /// already pending at this instant.
    pub fn schedule_now(&mut self, event: E) {
        self.schedule_at(self.now, event);
    }

    /// Pops the earliest event and advances the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (t, e) = self.queue.pop()?;
        debug_assert!(t >= self.now, "event queue went backwards");
        self.now = t;
        self.stats.delivered += 1;
        Some((t, e))
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Drops every pending event (the clock keeps its value).
    ///
    /// Bookkeeping semantics, pinned by regression tests:
    ///
    /// * [`EngineStats::scheduled`] **keeps counting the cleared
    ///   events** — it records how many events were ever accepted by
    ///   `schedule_*`, not how many are still pending or will be
    ///   delivered. After a clear, `scheduled` may permanently exceed
    ///   `delivered` even once the queue drains.
    /// * The underlying [`EventQueue`] keeps its sequence counter, so
    ///   FIFO tie-breaking stays stable across the clear (see
    ///   [`EventQueue::clear`]).
    pub fn clear(&mut self) {
        self.queue.clear();
    }

    /// Captures the engine's complete state — clock, horizon, counters
    /// and pending entries in pop order. The engine is untouched; feeding
    /// the result to [`Engine::restore_state`] yields an engine whose
    /// every future pop and push matches this one's.
    pub fn capture_state(&self) -> EngineSnapshot<E>
    where
        E: Clone,
    {
        EngineSnapshot {
            now: self.now,
            horizon: self.horizon,
            stats: self.stats,
            next_seq: self.queue.next_seq(),
            entries: self.queue.capture_entries(),
        }
    }

    /// Rebuilds an engine from a captured [`EngineSnapshot`].
    pub fn restore_state(snap: EngineSnapshot<E>) -> Self {
        Engine {
            now: snap.now,
            queue: EventQueue::restore_entries(snap.next_seq, snap.entries),
            horizon: snap.horizon,
            stats: snap.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_pops() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_at(SimTime::from_secs(2), 2);
        e.schedule_at(SimTime::from_secs(1), 1);
        assert_eq!(e.now(), SimTime::ZERO);
        assert_eq!(e.pop(), Some((SimTime::from_secs(1), 1)));
        assert_eq!(e.now(), SimTime::from_secs(1));
        assert_eq!(e.pop(), Some((SimTime::from_secs(2), 2)));
        assert_eq!(e.now(), SimTime::from_secs(2));
        assert_eq!(e.pop(), None);
        // Popping from an empty queue leaves the clock alone.
        assert_eq!(e.now(), SimTime::from_secs(2));
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut e: Engine<&str> = Engine::new();
        e.schedule_at(SimTime::from_secs(10), "a");
        e.pop();
        e.schedule_at(SimTime::from_secs(3), "late-scheduled");
        let (t, ev) = e.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(10));
        assert_eq!(ev, "late-scheduled");
    }

    #[test]
    fn horizon_drops_far_events() {
        let mut e: Engine<u8> = Engine::with_horizon(SimTime::from_secs(100));
        e.schedule_at(SimTime::from_secs(99), 1);
        e.schedule_at(SimTime::from_secs(100), 2); // at horizon: dropped
        e.schedule_at(SimTime::from_secs(101), 3);
        assert_eq!(e.pending(), 1);
        assert_eq!(e.stats().beyond_horizon, 2);
        assert_eq!(e.pop(), Some((SimTime::from_secs(99), 1)));
        assert!(e.is_idle());
    }

    #[test]
    fn schedule_now_runs_after_pending_at_same_instant() {
        let mut e: Engine<&str> = Engine::new();
        e.schedule_at(SimTime::from_secs(1), "first");
        e.schedule_at(SimTime::from_secs(1), "second");
        let (_, ev) = e.pop().unwrap();
        assert_eq!(ev, "first");
        e.schedule_now("third");
        assert_eq!(e.pop().unwrap().1, "second");
        assert_eq!(e.pop().unwrap().1, "third");
    }

    #[test]
    fn capture_restore_resumes_identically() {
        let mut e: Engine<u64> =
            Engine::configured(QueueImpl::Heap, Some(SimTime::from_secs(5_000)), 8);
        for i in 0..300u64 {
            e.schedule_at(SimTime::from_millis(i * 37 % 20_000), i);
        }
        for _ in 0..80 {
            e.pop();
        }
        let snap = e.capture_state();
        let mut r = Engine::restore_state(snap.clone());
        assert_eq!(r.now(), e.now());
        assert_eq!(r.horizon(), e.horizon());
        assert_eq!(r.stats(), e.stats());
        assert_eq!(r.pending(), e.pending());
        // Lockstep continuation: schedules and pops stay identical.
        let mut step = 0u64;
        loop {
            let a = e.pop();
            let b = r.pop();
            assert_eq!(a, b);
            let Some((t, _)) = a else { break };
            if step.is_multiple_of(5) {
                e.schedule_at(t + SimDuration::from_millis(step * 11), 10_000 + step);
                r.schedule_at(t + SimDuration::from_millis(step * 11), 10_000 + step);
            }
            step += 1;
        }
        assert_eq!(e.stats(), r.stats());
    }

    #[test]
    fn snapshot_is_a_fixed_point_of_capture() {
        let mut e: Engine<u32> = Engine::new();
        for i in 0..50 {
            e.schedule_at(SimTime::from_millis(i as u64 * 97), i);
        }
        e.pop();
        let snap = e.capture_state();
        let r = Engine::restore_state(snap.clone());
        assert_eq!(r.capture_state(), snap);
    }

    #[test]
    fn stats_count_scheduled_and_delivered() {
        let mut e: Engine<u8> = Engine::new();
        for i in 0..10 {
            e.schedule_in(SimDuration::from_millis(i as u64), i);
        }
        while e.pop().is_some() {}
        assert_eq!(e.stats().scheduled, 10);
        assert_eq!(e.stats().delivered, 10);
    }
}
