//! Model-based harness at the [`Engine`] level: random scripts run
//! through the engine and through a sorted-`Vec` model of it, compared at
//! every step — every pop, `now`, `peek_time`, `pending` and `stats`.
//!
//! The scripts cover what a simulation does to its engine: schedules in
//! the past (clamped to `now`), `schedule_now` bursts at the current
//! instant, far-future events, schedules dropped at the horizon, and
//! `clear`. Two script steps exercise the copies a run makes of its
//! engine: a `clone()` mid-run, which from then on runs in lockstep with
//! its original, and a `capture_state`/`restore_state` round trip, whose
//! captured entries must equal the model's pending list.

use proptest::prelude::*;
use simcore::{Engine, EngineStats, QueueImpl, SimDuration, SimTime};

/// One scripted engine operation. Times are raw milliseconds.
#[derive(Debug, Clone)]
enum Op {
    /// `schedule_at(t)`, which may lie in the past.
    At(u64),
    /// `schedule_in(d)`.
    In(u64),
    /// A burst of `n` `schedule_now` calls.
    NowBurst(u8),
    /// A burst of `n` schedules at one absolute instant.
    Burst(u64, u8),
    /// `schedule_in` a year or so out: past any horizon the script sets.
    FarFuture(u64),
    /// Pop `n` times.
    Drain(u8),
    /// Drop every pending event.
    Clear,
    /// Clone the engine; the clone follows every later step.
    Fork,
    /// Replace the engine by a restore of its own capture.
    Restore,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..60_000).prop_map(Op::At),
        (0u64..20_000).prop_map(Op::In),
        (1u8..12).prop_map(Op::NowBurst),
        ((0u64..60_000), (2u8..16)).prop_map(|(t, n)| Op::Burst(t, n)),
        (0u64..1_000).prop_map(Op::FarFuture),
        Just(Op::Drain(1)),
        Just(Op::Drain(1)),
        Just(Op::Drain(1)),
        (1u8..40).prop_map(Op::Drain),
        Just(Op::Clear),
        Just(Op::Fork),
        Just(Op::Restore),
    ]
}

/// The reference engine: pending entries kept sorted by `(time, seq)`,
/// with the clamping, horizon and counter rules written out directly.
struct Model {
    now: SimTime,
    horizon: SimTime,
    entries: Vec<(SimTime, u64, usize)>,
    next_seq: u64,
    stats: EngineStats,
}

impl Model {
    fn new(horizon: SimTime) -> Self {
        Model {
            now: SimTime::ZERO,
            horizon,
            entries: Vec::new(),
            next_seq: 0,
            stats: EngineStats::default(),
        }
    }

    fn schedule_at(&mut self, at: SimTime, payload: usize) {
        let at = at.max(self.now);
        if at >= self.horizon {
            self.stats.beyond_horizon += 1;
            return;
        }
        self.stats.scheduled += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        let i = self
            .entries
            .partition_point(|&(t, s, _)| (t, s) < (at, seq));
        self.entries.insert(i, (at, seq, payload));
    }

    fn pop(&mut self) -> Option<(SimTime, usize)> {
        if self.entries.is_empty() {
            return None;
        }
        let (t, _, p) = self.entries.remove(0);
        self.now = t;
        self.stats.delivered += 1;
        Some((t, p))
    }
}

/// Every observable of `e` equals the model's.
fn assert_matches(e: &Engine<usize>, m: &Model, step: usize, who: &str) {
    assert_eq!(e.now(), m.now, "{who}: now diverged after step {step}");
    assert_eq!(e.horizon(), m.horizon, "{who}: horizon diverged");
    assert_eq!(
        e.peek_time(),
        m.entries.first().map(|&(t, _, _)| t),
        "{who}: peek_time diverged after step {step}"
    );
    assert_eq!(e.pending(), m.entries.len(), "{who}: pending diverged");
    assert_eq!(e.is_idle(), m.entries.is_empty(), "{who}: is_idle diverged");
    assert_eq!(
        e.stats(),
        m.stats,
        "{who}: stats diverged after step {step}"
    );
}

/// Drives the engine (and, after a `Fork`, its clone) and the model
/// through `ops`, then drains all of them to the end.
fn run_lockstep(ops: &[Op], horizon: u64, cap: usize) {
    let horizon = SimTime::from_millis(horizon);
    let mut engine: Engine<usize> = Engine::configured(QueueImpl::Heap, Some(horizon), cap);
    let mut model = Model::new(horizon);
    let mut fork: Option<Engine<usize>> = None;
    for (i, op) in ops.iter().enumerate() {
        let mut engines: Vec<&mut Engine<usize>> = vec![&mut engine];
        engines.extend(fork.as_mut());
        match *op {
            Op::At(t) => {
                let at = SimTime::from_millis(t);
                engines.iter_mut().for_each(|e| e.schedule_at(at, i));
                model.schedule_at(at, i);
            }
            Op::In(d) => {
                let d = SimDuration::from_millis(d);
                engines.iter_mut().for_each(|e| e.schedule_in(d, i));
                model.schedule_at(model.now + d, i);
            }
            Op::NowBurst(n) => {
                for k in 0..usize::from(n) {
                    engines.iter_mut().for_each(|e| e.schedule_now(i * 100 + k));
                    model.schedule_at(model.now, i * 100 + k);
                }
            }
            Op::Burst(t, n) => {
                let at = SimTime::from_millis(t);
                for k in 0..usize::from(n) {
                    engines
                        .iter_mut()
                        .for_each(|e| e.schedule_at(at, i * 100 + k));
                    model.schedule_at(at, i * 100 + k);
                }
            }
            Op::FarFuture(t) => {
                let d = SimDuration::from_millis(40_000_000_000 + t);
                engines.iter_mut().for_each(|e| e.schedule_in(d, i));
                model.schedule_at(model.now + d, i);
            }
            Op::Drain(n) => {
                for _ in 0..n {
                    let want = model.pop();
                    for e in engines.iter_mut() {
                        assert_eq!(e.pop(), want, "pops diverged at step {i}");
                    }
                }
            }
            Op::Clear => {
                engines.iter_mut().for_each(|e| e.clear());
                model.entries.clear();
            }
            Op::Fork => fork = Some(engine.clone()),
            Op::Restore => {
                let snap = engine.capture_state();
                assert_eq!(snap.entries, model.entries, "captured entries");
                assert_eq!(snap.next_seq, model.next_seq, "captured next_seq");
                engine = Engine::restore_state(snap);
            }
        }
        assert_matches(&engine, &model, i, "engine");
        if let Some(f) = &fork {
            assert_matches(f, &model, i, "fork");
        }
    }
    loop {
        let want = model.pop();
        assert_eq!(engine.pop(), want, "drain diverged");
        if let Some(f) = fork.as_mut() {
            assert_eq!(f.pop(), want, "fork drain diverged");
        }
        if want.is_none() {
            break;
        }
    }
    assert_eq!(engine.stats(), model.stats);
    assert_eq!(engine.now(), model.now);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random scripts keep the engine, any mid-run clone of it and any
    /// restore of its capture in lockstep with the sorted model.
    #[test]
    fn engine_matches_sorted_model_on_random_scripts(
        ops in prop::collection::vec(op_strategy(), 1..160),
        horizon in 30_000u64..100_000,
        cap in 0usize..2_048,
    ) {
        run_lockstep(&ops, horizon, cap);
    }

    /// The same scripts with an unbounded horizon: far-future events
    /// stay pending and are delivered at the end.
    #[test]
    fn unbounded_engine_matches_sorted_model(
        ops in prop::collection::vec(op_strategy(), 1..160),
    ) {
        run_lockstep(&ops, u64::MAX, 0);
    }
}

/// A fixed script through every operation kind, so the coverage does
/// not depend on what the generator draws.
#[test]
fn every_operation_in_one_script() {
    let ops = vec![
        Op::Burst(5_000, 6),
        Op::At(1_000),
        Op::FarFuture(3),
        Op::Drain(1),
        Op::NowBurst(4),
        Op::At(0),
        Op::Fork,
        Op::Drain(3),
        Op::In(250),
        Op::Restore,
        Op::NowBurst(3),
        Op::Drain(6),
        Op::Clear,
        Op::At(0),
        Op::Burst(70_000, 3),
        Op::In(10),
        Op::Drain(4),
    ];
    run_lockstep(&ops, 60_000, 16);
    run_lockstep(&ops, u64::MAX, 0);
}
