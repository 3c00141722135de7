//! Edge-case coverage for `simcore::Engine` beyond the module's unit tests:
//! horizon boundary behaviour, same-timestamp FIFO stability under
//! interleaved scheduling, and `EngineStats` counter accounting across
//! mixed operation sequences.

use simcore::{Engine, EngineStats, SimDuration, SimTime};

#[test]
fn zero_horizon_drops_everything_including_clamped_events() {
    let mut e: Engine<u32> = Engine::with_horizon(SimTime::ZERO);
    e.schedule_at(SimTime::ZERO, 1);
    e.schedule_now(2);
    e.schedule_in(SimDuration::from_secs(5), 3);
    assert!(e.is_idle());
    assert_eq!(e.pop(), None);
    assert_eq!(
        e.stats(),
        EngineStats {
            delivered: 0,
            scheduled: 0,
            beyond_horizon: 3,
        }
    );
}

#[test]
fn horizon_is_exclusive_one_tick_before_is_kept() {
    let h = SimTime::from_millis(1_000);
    let mut e: Engine<&str> = Engine::with_horizon(h);
    e.schedule_at(SimTime::from_millis(999), "kept");
    e.schedule_at(SimTime::from_millis(1_000), "dropped-at");
    e.schedule_at(SimTime::from_millis(1_001), "dropped-past");
    assert_eq!(e.pending(), 1);
    assert_eq!(e.pop(), Some((SimTime::from_millis(999), "kept")));
    assert_eq!(e.stats().beyond_horizon, 2);
}

#[test]
fn clamping_past_events_can_push_them_over_the_horizon() {
    // A past-time event is clamped to `now`; when `now` has already reached
    // the horizon the clamped event must be dropped, not delivered.
    let mut e: Engine<&str> = Engine::with_horizon(SimTime::from_secs(10));
    e.schedule_at(SimTime::from_secs(9), "advance");
    e.pop();
    assert_eq!(e.now(), SimTime::from_secs(9));
    e.schedule_at(SimTime::from_secs(1), "clamped-ok"); // clamps to 9 < 10: kept
    assert_eq!(e.pending(), 1);
    e.pop();
    // Move the clock to exactly one tick before the horizon, then confirm a
    // same-instant reschedule still fits while anything later is dropped.
    e.schedule_at(SimTime::from_millis(9_999), "edge");
    e.pop();
    e.schedule_now("still-fits");
    e.schedule_in(SimDuration::from_millis(1), "at-horizon");
    assert_eq!(e.pending(), 1);
    assert_eq!(e.pop().unwrap().1, "still-fits");
    assert_eq!(e.stats().beyond_horizon, 1);
}

#[test]
fn unbounded_engine_never_counts_horizon_drops() {
    let mut e: Engine<u64> = Engine::new();
    assert_eq!(e.horizon(), SimTime::MAX);
    for i in 0..100u64 {
        e.schedule_at(SimTime::from_secs(i * 1_000_000), i);
    }
    while e.pop().is_some() {}
    assert_eq!(e.stats().beyond_horizon, 0);
    assert_eq!(e.stats().delivered, 100);
}

#[test]
fn same_timestamp_events_pop_in_insertion_order_at_scale() {
    let t = SimTime::from_secs(42);
    let mut e: Engine<usize> = Engine::new();
    // Interleave two instants to make sure stability is per-timestamp, not
    // global insertion order.
    for i in 0..500 {
        e.schedule_at(t, i);
        e.schedule_at(t + SimDuration::from_secs(1), 1_000 + i);
    }
    let mut popped = Vec::with_capacity(1_000);
    while let Some((_, i)) = e.pop() {
        popped.push(i);
    }
    let expected: Vec<usize> = (0..500).chain(1_000..1_500).collect();
    assert_eq!(popped, expected);
}

#[test]
fn schedule_now_during_same_instant_processing_stays_fifo() {
    // While draining instant T, newly scheduled same-instant work must land
    // after everything already pending at T — even when repeated.
    let mut e: Engine<u32> = Engine::new();
    e.schedule_at(SimTime::from_secs(1), 0);
    e.schedule_at(SimTime::from_secs(1), 1);
    let mut order = Vec::new();
    while let Some((_, i)) = e.pop() {
        order.push(i);
        if i < 2 {
            e.schedule_now(i + 10); // 10, 11 queue behind 1 and each other
        }
    }
    assert_eq!(order, vec![0, 1, 10, 11]);
    assert_eq!(
        e.now(),
        SimTime::from_secs(1),
        "clock never left the instant"
    );
}

#[test]
fn stats_balance_scheduled_drops_and_clears() {
    let mut e: Engine<u32> = Engine::with_horizon(SimTime::from_secs(60));
    let mut attempts = 0u64;
    let mut expect_dropped = 0u64;
    for i in 0..50u64 {
        let t = SimTime::from_secs(i * 2); // 0, 2, …, 98: half beyond horizon
        attempts += 1;
        if t >= SimTime::from_secs(60) {
            expect_dropped += 1;
        }
        e.schedule_at(t, i as u32);
    }
    let s = e.stats();
    assert_eq!(s.scheduled + s.beyond_horizon, attempts);
    assert_eq!(s.beyond_horizon, expect_dropped);
    assert_eq!(e.pending() as u64, s.scheduled);

    // Deliver a few, then clear: delivered/scheduled must be preserved and
    // pending events must not leak into `delivered`.
    for _ in 0..5 {
        e.pop().unwrap();
    }
    e.clear();
    assert!(e.is_idle());
    let s = e.stats();
    assert_eq!(s.delivered, 5);
    assert_eq!(s.scheduled + s.beyond_horizon, attempts);
    assert_eq!(e.pop(), None);
    assert_eq!(e.stats().delivered, 5, "pop on empty does not count");
}

#[test]
fn peek_time_tracks_next_delivery() {
    let mut e: Engine<u8> = Engine::new();
    assert_eq!(e.peek_time(), None);
    e.schedule_at(SimTime::from_secs(5), 5);
    e.schedule_at(SimTime::from_secs(3), 3);
    assert_eq!(e.peek_time(), Some(SimTime::from_secs(3)));
    let (t, _) = e.pop().unwrap();
    assert_eq!(t, SimTime::from_secs(3));
    assert_eq!(e.peek_time(), Some(SimTime::from_secs(5)));
    e.pop();
    assert_eq!(e.peek_time(), None);
}

#[test]
fn clear_keeps_scheduled_count_and_sequence_stability() {
    // Pins the documented clear semantics on both layers:
    //
    // 1. `Engine::clear` leaves `stats.scheduled` counting the cleared
    //    events — `scheduled` means "ever accepted", not "pending or
    //    delivered", so it may permanently exceed `delivered`.
    // 2. `EventQueue::clear` keeps `next_seq`, so events pushed after the
    //    clear never overtake the FIFO position of same-instant pushes
    //    made before it.
    let mut e: Engine<&str> = Engine::new();
    e.schedule_at(SimTime::from_secs(1), "a");
    e.schedule_at(SimTime::from_secs(1), "b");
    assert_eq!(e.stats().scheduled, 2);
    e.clear();
    assert!(e.is_idle());
    assert_eq!(
        e.stats().scheduled,
        2,
        "clear must not retroactively un-count cleared events"
    );
    assert_eq!(e.stats().delivered, 0);

    // Reschedule at the same instant: the engine drains fully, yet
    // scheduled stays ahead of delivered by exactly the cleared events.
    e.schedule_at(SimTime::from_secs(1), "c");
    e.schedule_at(SimTime::from_secs(1), "d");
    assert_eq!(e.pop().unwrap().1, "c");
    assert_eq!(e.pop().unwrap().1, "d");
    assert_eq!(e.pop(), None);
    let s = e.stats();
    assert_eq!(s.scheduled, 4);
    assert_eq!(s.delivered, 2);

    // The bare queue: sequence numbers survive the clear.
    let mut q: simcore::EventQueue<u32> = simcore::EventQueue::new();
    let t = SimTime::from_secs(9);
    q.push(t, 0);
    q.push(t, 1);
    q.clear();
    q.push(t, 2);
    q.push(t, 3);
    let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
    assert_eq!(order, vec![2, 3], "post-clear pushes keep insertion order");
}
