//! Model-based harness: the binary-heap [`EventQueue`] must behave exactly
//! like a sorted `Vec` of `(time, seq, payload)` entries.
//!
//! Random operation sequences — pushes (including same-timestamp bursts
//! and far-future events), pops, and `clear`-then-reuse — are driven
//! through the queue and the model in lockstep, asserting at every step
//! that the pops, `peek_time`, `len` and the `next_seq` counter agree.
//! This pins the `(time, seq)` FIFO pop order the whole workspace's
//! determinism guarantee rests on, and the documented `clear` semantics
//! (the sequence counter and FIFO stability survive the clear).

use proptest::prelude::*;
use simcore::{Engine, EventQueue, SimDuration, SimTime};

/// One scripted queue operation. Times are raw milliseconds so the
/// generator can aim bursts at identical instants.
#[derive(Debug, Clone)]
enum Op {
    /// Push at `t` ms; payload is the op index.
    Push(u64),
    /// Push a burst of `n` events at the same instant `t`.
    Burst(u64, u8),
    /// Push one event a year past everything else.
    FarFuture(u64),
    /// Pop once and compare.
    Pop,
    /// Drop everything; the sequence counter must survive.
    Clear,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..50_000).prop_map(Op::Push),
        ((0u64..50_000), (2u8..20)).prop_map(|(t, n)| Op::Burst(t, n)),
        (0u64..1_000).prop_map(Op::FarFuture),
        Just(Op::Pop),
        Just(Op::Clear),
    ]
}

/// The reference: entries kept sorted by `(time, seq)`, popped from the
/// front, with its own sequence counter.
#[derive(Default)]
struct Model {
    entries: Vec<(SimTime, u64, usize)>,
    next_seq: u64,
}

impl Model {
    fn push(&mut self, t: SimTime, payload: usize) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let at = self
            .entries
            .partition_point(|&(et, es, _)| (et, es) < (t, seq));
        self.entries.insert(at, (t, seq, payload));
        seq
    }

    fn pop(&mut self) -> Option<(SimTime, usize)> {
        if self.entries.is_empty() {
            return None;
        }
        let (t, _, p) = self.entries.remove(0);
        Some((t, p))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.entries.first().map(|&(t, _, _)| t)
    }
}

/// Drives the queue and the model through `ops`, asserting lockstep
/// equality of every observable. Returns the number of events popped.
fn run_lockstep(ops: &[Op]) -> usize {
    let mut heap: EventQueue<usize> = EventQueue::new();
    let mut model = Model::default();
    let mut popped = 0usize;
    let push = |heap: &mut EventQueue<usize>, model: &mut Model, t: SimTime, i: usize| {
        assert_eq!(
            heap.push(t, i),
            model.push(t, i),
            "sequence assignment diverged"
        );
    };
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Push(t) => push(&mut heap, &mut model, SimTime::from_millis(t), i),
            Op::Burst(t, n) => {
                for _ in 0..n {
                    push(&mut heap, &mut model, SimTime::from_millis(t), i);
                }
            }
            // A year-ish beyond the 50 s working window.
            Op::FarFuture(t) => push(
                &mut heap,
                &mut model,
                SimTime::from_millis(40_000_000_000 + t),
                i,
            ),
            Op::Pop => {
                let h = heap.pop();
                prop_assert_eq!(h, model.pop(), "pops diverged after op {}", i);
                popped += usize::from(h.is_some());
            }
            Op::Clear => {
                heap.clear();
                model.entries.clear();
                prop_assert!(heap.is_empty());
            }
        }
        prop_assert_eq!(
            heap.len(),
            model.entries.len(),
            "len diverged after op {}",
            i
        );
        prop_assert_eq!(heap.peek_time(), model.peek_time(), "peek diverged");
        prop_assert_eq!(heap.next_seq(), model.next_seq, "next_seq diverged");
    }
    // Drain both to the end: the full residual pop sequences must match.
    loop {
        let h = heap.pop();
        prop_assert_eq!(h, model.pop());
        if h.is_none() {
            break;
        }
        popped += 1;
    }
    popped
}

proptest! {
    /// Random op scripts keep the heap in lockstep with the sorted model.
    #[test]
    fn heap_matches_sorted_model_on_random_scripts(
        ops in prop::collection::vec(op_strategy(), 1..120)
    ) {
        run_lockstep(&ops);
    }

    /// Engine-level check: the engine delivers a schedule in stable
    /// `(time, schedule order)` order, dropping exactly the events at or
    /// past the horizon, and counts both.
    #[test]
    fn engine_delivers_in_stable_time_order(
        times in prop::collection::vec(0u64..100_000, 1..200),
        horizon in 1_000u64..150_000,
    ) {
        let mut engine: Engine<usize> = Engine::with_horizon(SimTime::from_millis(horizon));
        for (i, &t) in times.iter().enumerate() {
            engine.schedule_at(SimTime::from_millis(t), i);
        }
        let mut expected: Vec<(SimTime, usize)> = times
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t < horizon)
            .map(|(i, &t)| (SimTime::from_millis(t), i))
            .collect();
        expected.sort_by_key(|&(t, i)| (t, i));
        let delivered: Vec<_> = std::iter::from_fn(|| engine.pop()).collect();
        prop_assert_eq!(&delivered, &expected);
        let s = engine.stats();
        prop_assert_eq!(s.delivered as usize, expected.len());
        prop_assert_eq!(s.scheduled as usize, expected.len());
        prop_assert_eq!(s.beyond_horizon as usize, times.len() - expected.len());
    }
}

/// Deterministic regression: a clear in the middle of a same-instant burst
/// must leave FIFO positions stable — post-clear pushes may never overtake
/// where a pre-clear push would have sorted.
#[test]
fn clear_then_reuse_keeps_fifo() {
    let ops = vec![
        Op::Burst(5_000, 8),
        Op::Pop,
        Op::Clear,
        Op::Burst(5_000, 8),
        Op::Push(5_000),
        Op::Pop,
        Op::Pop,
    ];
    run_lockstep(&ops);
}

/// `with_capacity(0)` is pinned as a valid, working queue — and pushing
/// far beyond any pre-sized capacity must grow transparently.
#[test]
fn zero_capacity_and_growth_beyond_capacity() {
    let mut heap: EventQueue<u64> = EventQueue::with_capacity(0);
    let mut model = Model::default();
    for i in 0..5_000u64 {
        // Reversed times: every push lands in front of the previous ones.
        let t = SimTime::from_millis(10_000_000 - i * 13);
        assert_eq!(heap.push(t, i), model.push(t, i as usize));
    }
    for _ in 0..5_000 {
        let (t, e) = heap.pop().expect("heap has 5000 events");
        assert_eq!(Some((t, e as usize)), model.pop());
    }
    assert!(heap.pop().is_none());
}

/// Pre-sized queues behave identically to default-sized ones.
#[test]
fn presized_queues_match_default_sized() {
    let mut small: EventQueue<u32> = EventQueue::with_capacity(0);
    let mut big: EventQueue<u32> = EventQueue::with_capacity(16_384);
    for i in 0..2_000u32 {
        let t = SimTime::from_millis((i as u64 * 7_919) % 100_000);
        small.push(t, i);
        big.push(t, i);
    }
    while let Some(a) = small.pop() {
        assert_eq!(Some(a), big.pop());
    }
    assert!(big.is_empty());
}

/// An engine burst interleaved with horizon-dropped far events:
/// `scheduled`/`beyond_horizon` accounting is exact.
#[test]
fn horizon_accounting_is_exact() {
    let h = SimTime::from_secs(60);
    let mut e: Engine<u32> = Engine::with_horizon(h);
    for i in 0..100u32 {
        let t = SimTime::from_secs((i as u64 * 37) % 120);
        e.schedule_at(t, i);
    }
    e.schedule_in(SimDuration::from_secs(1_000), 999);
    let kept = (0..100u64).filter(|i| (i * 37) % 120 < 60).count() as u64;
    let mut last = SimTime::ZERO;
    while let Some((t, _)) = e.pop() {
        assert!(t >= last && t < h);
        last = t;
    }
    let s = e.stats();
    assert_eq!((s.scheduled, s.delivered), (kept, kept));
    assert_eq!(s.beyond_horizon, 101 - kept);
}
