//! Cumulative event counters over time.
//!
//! Figures 7(f) and 8(f) of the paper plot the *activity of the
//! malleability manager*: the cumulative number of grow messages (7f) and
//! of all malleability operations (8f) as a function of time.
//! [`CumulativeCounter`] records event instants and renders that curve.

use simcore::{SimDuration, SimTime};

/// A monotone step function counting events over time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CumulativeCounter {
    /// Sorted instants at which events occurred (duplicates allowed).
    instants: Vec<SimTime>,
}

impl CumulativeCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one event at `t`. Events must be recorded in
    /// non-decreasing time order (the simulation clock guarantees this).
    ///
    /// # Panics
    /// Panics on out-of-order recording.
    pub fn record(&mut self, t: SimTime) {
        if let Some(&last) = self.instants.last() {
            assert!(t >= last, "CumulativeCounter events must be time-ordered");
        }
        self.instants.push(t);
    }

    /// Total number of events recorded.
    pub fn total(&self) -> usize {
        self.instants.len()
    }

    /// True when no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.instants.is_empty()
    }

    /// Number of events at or before `t`.
    pub fn count_at(&self, t: SimTime) -> usize {
        self.instants.partition_point(|&i| i <= t)
    }

    /// Number of events in the half-open window `(from, to]`.
    pub fn count_in(&self, from: SimTime, to: SimTime) -> usize {
        self.count_at(to).saturating_sub(self.count_at(from))
    }

    /// The raw event instants.
    pub fn instants(&self) -> &[SimTime] {
        &self.instants
    }

    /// The cumulative curve sampled on a fixed grid, as `(t, count)`.
    pub fn curve(&self, from: SimTime, to: SimTime, step: SimDuration) -> Vec<(SimTime, usize)> {
        assert!(!step.is_zero(), "curve step must be non-zero");
        let mut out = Vec::new();
        let mut t = from;
        loop {
            out.push((t, self.count_at(t)));
            if t >= to {
                break;
            }
            t = (t + step).min(to);
        }
        out
    }

    /// Merges another counter into this one (e.g. per-cluster counters
    /// into a platform-wide one).
    pub fn merge(&mut self, other: &CumulativeCounter) {
        self.instants.extend_from_slice(&other.instants);
        self.instants.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn counts_accumulate() {
        let mut c = CumulativeCounter::new();
        c.record(s(1));
        c.record(s(1));
        c.record(s(5));
        assert_eq!(c.total(), 3);
        assert_eq!(c.count_at(s(0)), 0);
        assert_eq!(c.count_at(s(1)), 2);
        assert_eq!(c.count_at(s(10)), 3);
        assert_eq!(c.count_in(s(1), s(5)), 1);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_panics() {
        let mut c = CumulativeCounter::new();
        c.record(s(5));
        c.record(s(1));
    }

    #[test]
    fn curve_is_monotone() {
        let mut c = CumulativeCounter::new();
        for i in [1u64, 3, 3, 8, 13] {
            c.record(s(i));
        }
        let curve = c.curve(s(0), s(15), SimDuration::from_secs(5));
        assert_eq!(curve.len(), 4);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        assert_eq!(curve.last().unwrap().1, 5);
    }

    #[test]
    fn merge_interleaves_sorted() {
        let mut a = CumulativeCounter::new();
        a.record(s(1));
        a.record(s(5));
        let mut b = CumulativeCounter::new();
        b.record(s(3));
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.count_at(s(3)), 2);
        // Still usable after merge.
        a.record(s(9));
        assert_eq!(a.total(), 4);
    }
}
