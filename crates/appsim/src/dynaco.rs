//! The DYNACO adaptation pipeline: observe → decide → plan → execute.
//!
//! DYNACO (Fig. 2 of the paper) decomposes adaptability into four
//! components: *observe* monitors the environment and raises events;
//! *decide* picks a strategy (here: a target processor count); *plan*
//! produces the list of actions realizing the strategy; *execute* runs
//! the actions synchronized with the application (AFPAC's role for SPMD
//! codes).
//!
//! In the reproduction, the observe component is the MRunner frontend
//! (grow/shrink messages arriving from the scheduler become
//! [`Observation`]s) and the decide component applies the application's
//! [`SizeConstraint`] and bounds. Every plan has the same fixed shape
//! (recruit or release processors, suspend and redistribute, resume),
//! so the simulation world plays plan and execute directly: it charges
//! each step its duration (GRAM interactions overlap execution; the
//! suspend/redistribute step does not) and then [`commit`]s or
//! [`abort`]s the adaptation.
//!
//! [`commit`]: Dynaco::commit
//! [`abort`]: Dynaco::abort

use crate::constraints::SizeConstraint;

/// An event observed by the adaptation framework.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observation {
    /// The scheduler offers up to this many additional processors.
    GrowOffer {
        /// Processors offered.
        offered: u32,
    },
    /// The scheduler asks the application to give up processors.
    ShrinkRequest {
        /// Processors requested back.
        requested: u32,
        /// Mandatory requests must be honoured (PWA reclaims); voluntary
        /// ones are guidelines (Section II-D).
        mandatory: bool,
    },
}

/// The decision taken in response to an observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Accept this many of the offered processors (may be less than
    /// offered; the remainder stays with the scheduler).
    Grow {
        /// Processors accepted.
        accepted: u32,
    },
    /// Release this many processors (may exceed the request when the
    /// size constraint forces a lower feasible size — the surplus is the
    /// "voluntary release" of Section VI-A).
    Shrink {
        /// Processors that will be released.
        released: u32,
    },
    /// No change (offer declined / nothing to give).
    Decline,
}

/// Phase of the adaptation state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Computing normally; adaptations may be decided.
    Steady,
    /// Growing towards the target size.
    Growing {
        /// The size being grown to.
        target: u32,
    },
    /// Shrinking towards the target size.
    Shrinking {
        /// The size being shrunk to.
        target: u32,
    },
}

/// Per-application DYNACO instance: bounds, constraint, current size and
/// adaptation phase.
///
/// ```
/// use appsim::dynaco::{Decision, Dynaco, Observation};
/// use appsim::SizeConstraint;
/// let mut d = Dynaco::new(2, 46, SizeConstraint::Any, 2);
/// let decision = d.decide(Observation::GrowOffer { offered: 10 });
/// assert_eq!(decision, Decision::Grow { accepted: 10 });
/// d.commit();
/// assert_eq!(d.size(), 12);
/// ```
///
/// One adaptation runs at a time (the AFPAC execute component serializes
/// them); observations arriving mid-adaptation are declined, and the
/// MRunner-level protocol guarantees the scheduler sees the decline and
/// keeps the processors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dynaco {
    min: u32,
    max: u32,
    constraint: SizeConstraint,
    size: u32,
    phase: Phase,
}

impl Dynaco {
    /// Creates an instance for an application running at `initial`.
    ///
    /// # Panics
    /// Panics if the bounds are inconsistent or `initial` violates them
    /// or the constraint.
    pub fn new(min: u32, max: u32, constraint: SizeConstraint, initial: u32) -> Self {
        assert!(min >= 1 && min <= max, "bad bounds [{min}, {max}]");
        assert!((min..=max).contains(&initial), "initial outside bounds");
        assert!(constraint.allows(initial), "initial violates constraint");
        Dynaco {
            min,
            max,
            constraint,
            size: initial,
            phase: Phase::Steady,
        }
    }

    /// Current (committed) processor count.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Lower bound.
    pub fn min(&self) -> u32 {
        self.min
    }

    /// Upper bound.
    pub fn max(&self) -> u32 {
        self.max
    }

    /// True while an adaptation is in flight.
    pub fn is_adapting(&self) -> bool {
        self.phase != Phase::Steady
    }

    /// The decide component: maps an observation to a decision and, when
    /// the decision changes the size, enters the corresponding phase.
    pub fn decide(&mut self, obs: Observation) -> Decision {
        if self.is_adapting() {
            // Serialized adaptations: decline anything that arrives while
            // one is in flight.
            return Decision::Decline;
        }
        match obs {
            Observation::GrowOffer { offered } => {
                let accepted = self.constraint.accept_grow(self.size, offered, self.max);
                if accepted == 0 {
                    Decision::Decline
                } else {
                    self.phase = Phase::Growing {
                        target: self.size + accepted,
                    };
                    Decision::Grow { accepted }
                }
            }
            Observation::ShrinkRequest {
                requested,
                mandatory,
            } => {
                let released = self
                    .constraint
                    .accept_shrink(self.size, requested, self.min);
                // A voluntary request may be declined outright; model:
                // decline voluntary shrinks that would push below the
                // current best-efficiency region (simplified to: decline
                // voluntary shrinks of more than half the current size).
                if released == 0 || (!mandatory && released * 2 > self.size) {
                    return Decision::Decline;
                }
                self.phase = Phase::Shrinking {
                    target: self.size - released,
                };
                Decision::Shrink { released }
            }
        }
    }

    /// The execute component reports completion: commit the new size.
    pub fn commit(&mut self) {
        match self.phase {
            Phase::Steady => {}
            Phase::Growing { target } | Phase::Shrinking { target } => {
                self.size = target;
                self.phase = Phase::Steady;
            }
        }
    }

    /// Aborts the in-flight adaptation (e.g. resources vanished); the
    /// size stays at its committed value.
    pub fn abort(&mut self) {
        self.phase = Phase::Steady;
    }

    /// The size constraint this instance enforces.
    pub fn constraint(&self) -> SizeConstraint {
        self.constraint
    }

    /// Rebuilds an instance from captured parts, for checkpoint restore.
    /// Unlike [`Dynaco::new`], the phase is arbitrary (an adaptation may
    /// have been in flight at capture time); the committed size must
    /// still be valid.
    ///
    /// # Panics
    /// Panics under the same validity rules as [`Dynaco::new`].
    pub fn from_parts(
        min: u32,
        max: u32,
        constraint: SizeConstraint,
        size: u32,
        phase: Phase,
    ) -> Self {
        let mut d = Dynaco::new(min, max, constraint, size);
        d.phase = phase;
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gadget(initial: u32) -> Dynaco {
        Dynaco::new(2, 46, SizeConstraint::Any, initial)
    }

    fn ft(initial: u32) -> Dynaco {
        Dynaco::new(2, 32, SizeConstraint::PowerOfTwo, initial)
    }

    #[test]
    fn grow_accept_and_commit() {
        let mut d = gadget(2);
        let dec = d.decide(Observation::GrowOffer { offered: 10 });
        assert_eq!(dec, Decision::Grow { accepted: 10 });
        assert_eq!(d.phase(), Phase::Growing { target: 12 });
        assert_eq!(d.size(), 2, "size commits only after execution");
        d.commit();
        assert_eq!(d.size(), 12);
        assert_eq!(d.phase(), Phase::Steady);
    }

    #[test]
    fn ft_declines_non_power_of_two_offers() {
        let mut d = ft(8);
        assert_eq!(
            d.decide(Observation::GrowOffer { offered: 5 }),
            Decision::Decline
        );
        assert!(!d.is_adapting());
        assert_eq!(
            d.decide(Observation::GrowOffer { offered: 8 }),
            Decision::Grow { accepted: 8 }
        );
    }

    #[test]
    fn mandatory_shrink_is_honoured() {
        let mut d = gadget(20);
        let dec = d.decide(Observation::ShrinkRequest {
            requested: 15,
            mandatory: true,
        });
        assert_eq!(dec, Decision::Shrink { released: 15 });
        assert_eq!(d.phase(), Phase::Shrinking { target: 5 });
        d.commit();
        assert_eq!(d.size(), 5);
    }

    #[test]
    fn mandatory_shrink_stops_at_min() {
        let mut d = gadget(4);
        let dec = d.decide(Observation::ShrinkRequest {
            requested: 10,
            mandatory: true,
        });
        assert_eq!(dec, Decision::Shrink { released: 2 });
        d.commit();
        assert_eq!(d.size(), 2);
        // At min: nothing to give.
        assert_eq!(
            d.decide(Observation::ShrinkRequest {
                requested: 1,
                mandatory: true
            }),
            Decision::Decline
        );
    }

    #[test]
    fn voluntary_large_shrinks_are_declined() {
        let mut d = gadget(20);
        assert_eq!(
            d.decide(Observation::ShrinkRequest {
                requested: 15,
                mandatory: false
            }),
            Decision::Decline
        );
        // Small voluntary shrinks are honoured.
        assert_eq!(
            d.decide(Observation::ShrinkRequest {
                requested: 4,
                mandatory: false
            }),
            Decision::Shrink { released: 4 }
        );
    }

    #[test]
    fn ft_shrink_over_releases_to_power_of_two() {
        let mut d = ft(16);
        let dec = d.decide(Observation::ShrinkRequest {
            requested: 3,
            mandatory: true,
        });
        assert_eq!(
            dec,
            Decision::Shrink { released: 8 },
            "13 is not a power of two; drops to 8"
        );
        d.commit();
        assert_eq!(d.size(), 8);
    }

    #[test]
    fn observations_mid_adaptation_are_declined() {
        let mut d = gadget(2);
        d.decide(Observation::GrowOffer { offered: 4 });
        assert!(d.is_adapting());
        assert_eq!(
            d.decide(Observation::GrowOffer { offered: 4 }),
            Decision::Decline
        );
        assert_eq!(
            d.decide(Observation::ShrinkRequest {
                requested: 1,
                mandatory: true
            }),
            Decision::Decline
        );
        d.commit();
        assert_eq!(d.size(), 6);
        // After commit, new adaptations are accepted again.
        assert_eq!(
            d.decide(Observation::GrowOffer { offered: 1 }),
            Decision::Grow { accepted: 1 }
        );
    }

    #[test]
    fn abort_keeps_committed_size() {
        let mut d = gadget(8);
        d.decide(Observation::GrowOffer { offered: 10 });
        d.abort();
        assert_eq!(d.size(), 8);
        assert_eq!(d.phase(), Phase::Steady);
    }

    #[test]
    fn grow_never_exceeds_max() {
        let mut d = gadget(44);
        assert_eq!(
            d.decide(Observation::GrowOffer { offered: 10 }),
            Decision::Grow { accepted: 2 }
        );
        d.commit();
        assert_eq!(d.size(), 46);
        assert_eq!(
            d.decide(Observation::GrowOffer { offered: 10 }),
            Decision::Decline
        );
    }

    #[test]
    #[should_panic(expected = "initial violates constraint")]
    fn constructor_validates_constraint() {
        Dynaco::new(2, 32, SizeConstraint::PowerOfTwo, 6);
    }

    #[test]
    fn from_parts_round_trips_mid_adaptation() {
        let mut d = ft(8);
        d.decide(Observation::GrowOffer { offered: 8 });
        assert!(d.is_adapting());
        let copy = Dynaco::from_parts(d.min(), d.max(), d.constraint(), d.size(), d.phase());
        assert_eq!(copy, d);
        let mut a = d;
        let mut b = copy;
        a.commit();
        b.commit();
        assert_eq!(a, b);
        assert_eq!(a.size(), 16);
    }
}
