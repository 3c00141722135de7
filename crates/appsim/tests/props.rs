//! Property-based tests for the application substrate: size-constraint
//! protocol invariants, work conservation, DYNACO state-machine safety.

use appsim::dynaco::{Decision, Dynaco, Observation};
use appsim::speedup::AmdahlOverhead;
use appsim::{Progress, SizeConstraint};
use proptest::prelude::*;
use simcore::SimTime;

fn constraints() -> impl Strategy<Value = SizeConstraint> {
    prop_oneof![
        Just(SizeConstraint::Any),
        Just(SizeConstraint::PowerOfTwo),
        (2u32..6).prop_map(SizeConstraint::MultipleOf),
    ]
}

proptest! {
    /// accept_grow never exceeds the offer, never exceeds max, and
    /// always lands on a constraint-feasible size.
    #[test]
    fn grow_acceptance_is_safe(
        c in constraints(),
        current_raw in 1u32..64,
        offered in 0u32..64,
        max_extra in 0u32..64,
    ) {
        // Derive a feasible current size from the raw value.
        let Some(current) = c.floor(current_raw.max(6)) else { return Ok(()); };
        let max = current + max_extra;
        let accepted = c.accept_grow(current, offered, max);
        prop_assert!(accepted <= offered);
        prop_assert!(current + accepted <= max);
        if accepted > 0 {
            prop_assert!(c.allows(current + accepted), "{c:?} {current}+{accepted}");
        }
    }

    /// accept_shrink never drops below min and always lands feasible.
    #[test]
    fn shrink_acceptance_is_safe(
        c in constraints(),
        current_raw in 1u32..64,
        requested in 0u32..64,
        min_raw in 1u32..64,
    ) {
        // Derive feasible current and min sizes from the raw values.
        let Some(current) = c.floor(current_raw.max(6)) else { return Ok(()); };
        let Some(min) = c.floor(min_raw.min(current).max(1)).filter(|&m| m <= current) else {
            return Ok(());
        };
        let released = c.accept_shrink(current, requested, min);
        prop_assert!(released <= current);
        let new = current - released;
        prop_assert!(new >= min, "{c:?} {current}-{released} < {min}");
        if released > 0 {
            prop_assert!(c.allows(new), "{c:?} landed on infeasible {new}");
        }
    }

    /// A run that resizes at arbitrary instants still completes after a
    /// finite, consistent amount of work: following remaining_time at the
    /// final size always finishes the job.
    #[test]
    fn work_is_conserved(
        sizes in prop::collection::vec(1u32..46, 1..12),
        gaps in prop::collection::vec(1u64..200, 1..12),
    ) {
        let model = AmdahlOverhead::fit(2, 600.0, 32, 240.0);
        let mut p = Progress::start(SimTime::ZERO, 2, 1.0);
        let mut now = SimTime::ZERO;
        for (s, g) in sizes.iter().zip(&gaps) {
            now += simcore::SimDuration::from_secs(*g);
            p.advance(now, &model);
            if p.is_complete() { break; }
            p.resize(now, *s, &model);
        }
        if !p.is_complete() {
            let rem = p.remaining_time(&model).unwrap();
            p.advance(now + rem + simcore::SimDuration::from_millis(1), &model);
        }
        prop_assert!(p.is_complete());
    }

    /// Progress is monotone: advancing time never reduces done().
    #[test]
    fn progress_is_monotone(instants in prop::collection::vec(1u64..5_000, 1..40)) {
        let model = AmdahlOverhead::fit(2, 120.0, 16, 60.0);
        let mut sorted = instants.clone();
        sorted.sort_unstable();
        let mut p = Progress::start(SimTime::ZERO, 4, 1.0);
        let mut last = 0.0;
        for t in sorted {
            p.advance(SimTime::from_millis(t), &model);
            prop_assert!(p.done() >= last);
            last = p.done();
        }
    }

    /// The DYNACO state machine: decisions mid-adaptation are always
    /// declines; committed sizes always respect bounds and constraint.
    #[test]
    fn dynaco_respects_bounds(
        offers in prop::collection::vec((0u32..64, any::<bool>()), 1..40),
    ) {
        let mut d = Dynaco::new(2, 32, SizeConstraint::PowerOfTwo, 2);
        for (value, is_grow) in offers {
            let obs = if is_grow {
                Observation::GrowOffer { offered: value }
            } else {
                Observation::ShrinkRequest { requested: value, mandatory: true }
            };
            let decision = d.decide(obs);
            match decision {
                Decision::Grow { accepted } => {
                    prop_assert!(accepted <= value);
                    d.commit();
                }
                Decision::Shrink { released } => {
                    d.commit();
                    prop_assert!(released <= 32);
                }
                Decision::Decline => {}
            }
            prop_assert!((2..=32).contains(&d.size()));
            prop_assert!(SizeConstraint::PowerOfTwo.allows(d.size()), "size {}", d.size());
        }
    }

    /// Speedup models are positive and finite over the whole size range.
    #[test]
    fn models_are_well_behaved(n0 in 2u32..8, t0 in 50.0f64..2_000.0, factor in 1.5f64..5.0) {
        let n_opt = n0 * 8;
        let tmin = t0 / factor;
        let m = AmdahlOverhead::fit(n0, t0, n_opt, tmin);
        for n in 1..=128 {
            let t = m.exec_time(n);
            prop_assert!(t.is_finite() && t > 0.0);
        }
        // The fitted constraints hold.
        prop_assert!((m.exec_time(n0) - t0).abs() < 1e-6);
        prop_assert!((m.exec_time(n_opt) - tmin).abs() < 1e-6);
    }
}
