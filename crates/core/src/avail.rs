//! Incremental per-cluster availability index for the placement scan.
//!
//! [`World::scan_queue`](crate::sim) walks the placement queue and runs
//! the configured [`Placement`](crate::placement::Placement) policy per
//! job against the effective availability vector (the KIS snapshot capped
//! by the expansion-threshold headroom). Under overload most of those
//! attempts are doomed — the queue is long precisely because nothing
//! fits — yet each one pays the full policy walk (ranking clusters,
//! consulting the file catalog, copying scratch vectors).
//!
//! The index removes that cost with two cheap aggregates maintained at
//! every effective-availability rebuild:
//!
//! * `max_eff` — the largest single-cluster availability, and
//! * `sum_eff` — the total availability across clusters.
//!
//! A job is *quick-rejected* without running the policy when either
//!
//! * its smallest component minimum exceeds `max_eff` (no cluster can
//!   host any component), or
//! * the sum of its component minimums exceeds `sum_eff` (the platform
//!   as a whole cannot host the job).
//!
//! Both tests are **provably conservative** for every policy honouring
//! the Section V-B placement rule the [`Placement`] trait documents: a
//! component is granted only on a cluster whose availability is at least
//! the component's minimum, and grants deduct from disjoint capacity. A
//! quick-rejected job therefore takes *exactly* the path a `None` from
//! the policy would have taken — placement decisions, retry counters and
//! the whole trajectory are bit-identical with the index on or off (the
//! hot-path differential suite and a registry-wide proptest pin this).
//!
//! The scan rebuilds the index before every placement pass from its
//! vector, which is the KIS snapshot capped by KOALA's headroom, so the
//! index keeps no record of which clusters changed between scans.
//!
//! [`Placement`]: crate::placement::Placement

use crate::placement::PlacementRequest;

/// Availability aggregates over the clusters. See the module docs for
/// the exactness argument.
#[derive(Debug, Clone, Default)]
pub struct AvailIndex {
    /// Largest single-cluster effective availability at the last
    /// [`AvailIndex::rebuild`].
    max_eff: u32,
    /// Total effective availability at the last rebuild.
    sum_eff: u64,
    /// Rebuilds performed (diagnostics).
    rebuilds: u64,
    /// Placement attempts skipped by the quick-reject (diagnostics).
    quick_rejects: u64,
    /// Scans that found no availability at all and refused their whole
    /// queue in one pass (diagnostics).
    blocked_scans: u64,
}

impl AvailIndex {
    /// Recomputes the aggregates from the scan's effective-availability
    /// vector — the exact one the placement policy will see next. Until
    /// the first rebuild the aggregates are zero, so `can_satisfy` is
    /// conservative.
    pub fn rebuild(&mut self, eff: &[u32]) {
        self.max_eff = eff.iter().copied().max().unwrap_or(0);
        self.sum_eff = eff.iter().map(|&a| u64::from(a)).sum();
        self.rebuilds += 1;
    }

    /// Largest single-cluster availability at the last rebuild.
    pub fn max_eff(&self) -> u32 {
        self.max_eff
    }

    /// Total availability at the last rebuild.
    pub fn sum_eff(&self) -> u64 {
        self.sum_eff
    }

    /// Whether `req` could *possibly* be granted against the last
    /// rebuilt availability. `false` guarantees the policy would return
    /// `None`; `true` guarantees nothing (the policy still decides).
    /// Empty requests are trivially satisfiable.
    pub fn can_satisfy(&self, req: &PlacementRequest) -> bool {
        let mut min_need = u32::MAX;
        let mut total_need = 0u64;
        for c in &req.components {
            min_need = min_need.min(c.min);
            total_need += u64::from(c.min);
        }
        self.can_fit(min_need, total_need)
    }

    /// [`AvailIndex::can_satisfy`] from the two numbers it reads off a
    /// request: the smallest component minimum and the sum of all
    /// component minimums. The queue scan computes them from the job
    /// itself, so a refused job never has its request built. A zero
    /// total (no components) always passes.
    pub fn can_fit(&self, min_need: u32, total_need: u64) -> bool {
        total_need == 0 || (min_need <= self.max_eff && total_need <= self.sum_eff)
    }

    /// Records one quick-rejected placement attempt.
    pub fn note_quick_reject(&mut self) {
        self.quick_rejects += 1;
    }

    /// Records one blocked scan: `refused` queued jobs quick-rejected
    /// at once, since the last rebuild left no availability anywhere.
    pub fn note_blocked_scan(&mut self, refused: u64) {
        debug_assert_eq!(self.sum_eff, 0, "a blocked scan needs an empty index");
        self.blocked_scans += 1;
        self.quick_rejects += refused;
    }

    /// Placement attempts skipped so far.
    pub fn quick_rejects(&self) -> u64 {
        self.quick_rejects
    }

    /// Blocked scans so far (each also counts its refused jobs in
    /// [`AvailIndex::quick_rejects`]).
    pub fn blocked_scans(&self) -> u64 {
        self.blocked_scans
    }

    /// Rebuilds performed so far.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Captures the complete index state — aggregates and diagnostic
    /// tallies — for checkpointing. Restoring through
    /// [`AvailIndex::from_state`] reproduces an index whose future
    /// quick-reject decisions are bit-identical to the original's.
    pub fn capture_state(&self) -> AvailIndexState {
        AvailIndexState {
            max_eff: self.max_eff,
            sum_eff: self.sum_eff,
            rebuilds: self.rebuilds,
            quick_rejects: self.quick_rejects,
            blocked_scans: self.blocked_scans,
        }
    }

    /// Reconstructs an index from a captured [`AvailIndex::capture_state`].
    pub fn from_state(s: AvailIndexState) -> Self {
        AvailIndex {
            max_eff: s.max_eff,
            sum_eff: s.sum_eff,
            rebuilds: s.rebuilds,
            quick_rejects: s.quick_rejects,
            blocked_scans: s.blocked_scans,
        }
    }
}

/// The raw internals of an [`AvailIndex`], exposed for checkpointing —
/// the capture/restore seam keeps the index's fields private while
/// letting a snapshot carry the aggregates exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AvailIndexState {
    /// Largest single-cluster availability at the last rebuild.
    pub max_eff: u32,
    /// Total availability at the last rebuild.
    pub sum_eff: u64,
    /// Rebuilds performed so far.
    pub rebuilds: u64,
    /// Placement attempts skipped so far.
    pub quick_rejects: u64,
    /// Blocked scans so far.
    pub blocked_scans: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{ComponentRequest, PlacementRequest};
    use appsim::SizeConstraint;

    fn req(mins: &[u32]) -> PlacementRequest {
        PlacementRequest {
            components: mins
                .iter()
                .map(|&m| ComponentRequest::fixed(m, SizeConstraint::Any))
                .collect(),
            files: Vec::new(),
            flexible: false,
        }
    }

    #[test]
    fn starts_conservative() {
        let idx = AvailIndex::default();
        assert!(!idx.can_satisfy(&req(&[1])), "no rebuild yet: reject");
        assert!(idx.can_satisfy(&req(&[])), "empty request always passes");
    }

    #[test]
    fn rebuild_sets_aggregates() {
        let mut idx = AvailIndex::default();
        idx.rebuild(&[4, 10, 0]);
        assert_eq!(idx.max_eff(), 10);
        assert_eq!(idx.sum_eff(), 14);
        assert_eq!(idx.rebuilds(), 1);
    }

    #[test]
    fn capture_restore_roundtrips_exactly() {
        let mut idx = AvailIndex::default();
        idx.rebuild(&[4, 10, 0]);
        idx.note_quick_reject();
        idx.note_quick_reject();
        let mut blocked = AvailIndex::default();
        blocked.rebuild(&[0, 0, 0]);
        blocked.note_blocked_scan(5);
        assert_eq!((blocked.blocked_scans(), blocked.quick_rejects()), (1, 5));
        assert_eq!(
            AvailIndex::from_state(blocked.capture_state()).blocked_scans(),
            1
        );
        let state = idx.capture_state();
        let copy = AvailIndex::from_state(state.clone());
        assert_eq!(copy.max_eff(), idx.max_eff());
        assert_eq!(copy.sum_eff(), idx.sum_eff());
        assert_eq!(copy.rebuilds(), idx.rebuilds());
        assert_eq!(copy.quick_rejects(), idx.quick_rejects());
        // The restored index behaves identically going forward.
        let mut a = idx;
        let mut b = copy;
        a.rebuild(&[1, 2, 3]);
        b.rebuild(&[1, 2, 3]);
        assert_eq!(a.can_satisfy(&req(&[3])), b.can_satisfy(&req(&[3])));
        assert_eq!(a.capture_state(), b.capture_state());
        let _ = state;
    }

    #[test]
    fn quick_reject_is_exact_on_the_boundary() {
        let mut idx = AvailIndex::default();
        idx.rebuild(&[6, 4]);
        // max_eff = 6, sum_eff = 10.
        assert!(idx.can_satisfy(&req(&[6])), "fits the largest cluster");
        assert!(!idx.can_satisfy(&req(&[7])), "exceeds every cluster");
        assert!(idx.can_satisfy(&req(&[6, 4])), "total exactly fits");
        assert!(!idx.can_satisfy(&req(&[6, 5])), "total exceeds platform");
    }
}
