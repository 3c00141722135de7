//! Property-based tests for the simulation engine's core guarantees.

use proptest::prelude::*;
use simcore::dist::{Distribution, Exponential, LogNormal};
use simcore::{Engine, EventQueue, SimRng, SimTime};

proptest! {
    /// The event queue pops in exactly the order of a stable sort by time.
    #[test]
    fn queue_matches_stable_sort(times in prop::collection::vec(0u64..10_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_millis(t), i);
        }
        let mut expected: Vec<(u64, usize)> =
            times.iter().copied().enumerate().map(|(i, t)| (t, i)).collect();
        expected.sort_by_key(|&(t, i)| (t, i)); // stable by construction
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.as_millis(), i));
        }
        prop_assert_eq!(popped, expected);
    }

    /// The engine clock never goes backwards and delivers every event
    /// scheduled before the horizon.
    #[test]
    fn engine_clock_is_monotone(
        times in prop::collection::vec(0u64..100_000, 1..200),
        horizon in 1_000u64..200_000,
    ) {
        let mut e: Engine<usize> = Engine::with_horizon(SimTime::from_millis(horizon));
        let expected = times.iter().filter(|&&t| t < horizon).count();
        for (i, &t) in times.iter().enumerate() {
            e.schedule_at(SimTime::from_millis(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut delivered = 0;
        while let Some((t, _)) = e.pop() {
            prop_assert!(t >= last);
            last = t;
            delivered += 1;
        }
        prop_assert_eq!(delivered, expected);
        prop_assert_eq!(e.stats().delivered as usize, expected);
    }

    /// Every distribution produces finite, in-range samples for any seed.
    #[test]
    fn distributions_produce_finite_samples(seed in any::<u64>()) {
        let mut rng = SimRng::seed_from_u64(seed);
        let e = Exponential::with_mean(100.0);
        let l = LogNormal::with_mean_cv(50.0, 2.0);
        for _ in 0..100 {
            let x = e.sample(&mut rng);
            prop_assert!(x.is_finite() && x >= 0.0);
            let x = l.sample(&mut rng);
            prop_assert!(x.is_finite() && x > 0.0);
        }
    }

    /// `u64_below` is unbiased enough to hit every residue and never
    /// exceeds its bound.
    #[test]
    fn rng_bounds_hold(seed in any::<u64>(), bound in 1u64..1_000) {
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..200 {
            prop_assert!(rng.u64_below(bound) < bound);
        }
    }

    /// Forked streams never reproduce their sibling's output prefix.
    #[test]
    fn forks_diverge(seed in any::<u64>()) {
        let mut parent = SimRng::seed_from_u64(seed);
        let mut a = parent.fork(1);
        let mut b = parent.fork(2);
        let equal = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        prop_assert!(equal < 4, "sibling forks should not track each other");
    }
}
