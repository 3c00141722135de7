//! The KOALA Information Service (KIS).
//!
//! "In order to trigger job management, the scheduler periodically polls
//! the KOALA information service. In doing so, the scheduler is able to
//! take into account dynamically the background load due to other users
//! even if they bypass KOALA." (Section V-B.)
//!
//! The crucial modelling point is that the scheduler acts on a
//! **snapshot**, not on live state: between polls, background jobs may
//! have taken or released nodes, so placement decisions can fail and must
//! be retried — precisely the pathway the paper's placement queue exists
//! for. [`InfoService`] therefore stores the snapshot taken at poll time
//! and hands that out until the next poll.

use simcore::SimTime;

use crate::cluster::Cluster;
use crate::ids::ClusterId;

/// A poll-time snapshot of per-cluster processor availability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfoSnapshot {
    /// When the snapshot was taken.
    pub taken_at: SimTime,
    /// Idle processors per cluster, indexed by [`ClusterId`].
    pub idle: Vec<u32>,
    /// Pool capacity per cluster (total minus withdrawn nodes).
    pub capacity: Vec<u32>,
    /// Processors used by KOALA-managed jobs per cluster.
    pub used_by_koala: Vec<u32>,
    /// Processors used by local/background jobs per cluster.
    pub used_by_local: Vec<u32>,
}

impl InfoSnapshot {
    /// Idle processors of one cluster.
    ///
    /// # Panics
    /// Panics when `c` is outside the snapshot — cluster count is fixed
    /// at construction, so an out-of-range id is a caller bug.
    pub fn idle_of(&self, c: ClusterId) -> u32 {
        *self.idle.get(c.index()).unwrap_or_else(|| {
            panic!(
                "cluster {c:?} outside a snapshot of {} clusters",
                self.idle.len()
            )
        })
    }

    /// Capacity of one cluster.
    ///
    /// # Panics
    /// Panics when `c` is outside the snapshot — cluster count is fixed
    /// at construction, so an out-of-range id is a caller bug.
    pub fn capacity_of(&self, c: ClusterId) -> u32 {
        *self.capacity.get(c.index()).unwrap_or_else(|| {
            panic!(
                "cluster {c:?} outside a snapshot of {} clusters",
                self.capacity.len()
            )
        })
    }

    /// Total idle processors across the system.
    pub fn total_idle(&self) -> u32 {
        self.idle.iter().sum()
    }

    /// Total capacity across the system.
    pub fn total_capacity(&self) -> u32 {
        self.capacity.iter().sum()
    }

    /// Cluster ids sorted by descending idle count (ties by ascending
    /// id, keeping Worst-Fit deterministic).
    pub fn clusters_by_idle_desc(&self) -> Vec<ClusterId> {
        let mut ids: Vec<ClusterId> = (0..self.idle.len()).map(|i| ClusterId(i as u16)).collect();
        ids.sort_by_key(|c| (std::cmp::Reverse(self.idle[c.index()]), c.0));
        ids
    }
}

/// The information service: takes and caches snapshots, optionally
/// delivering them with a propagation lag.
///
/// With a nonzero [`lag`](InfoService::with_lag), a poll taken at `t`
/// only becomes the visible snapshot once a later poll happens at
/// `t + lag` or beyond — the scheduler then always places against a view
/// at least `lag` behind the true world (quantized up to the poll
/// period, since promotion happens at poll times). This is the
/// first-class "staleness" scenario axis.
#[derive(Debug, Clone, Default)]
pub struct InfoService {
    /// The snapshot the scheduler is allowed to see.
    visible: Option<InfoSnapshot>,
    /// Snapshots recorded but still in flight (taken less than `lag`
    /// ago at the last poll). Oldest first; drained into `visible` as
    /// they mature.
    in_flight: std::collections::VecDeque<InfoSnapshot>,
    /// Minimum age a snapshot must reach before becoming visible.
    lag: simcore::SimDuration,
    polls: u64,
    /// The snapshot the last promotion displaced, kept so the next poll
    /// refills its vectors instead of allocating fresh ones. Scratch
    /// only: never read, never captured.
    spare: Option<InfoSnapshot>,
}

impl InfoService {
    /// Creates a service with no snapshot yet and zero propagation lag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a service whose snapshots become visible only `lag` after
    /// they are taken.
    pub fn with_lag(lag: simcore::SimDuration) -> Self {
        InfoService {
            lag,
            ..Self::default()
        }
    }

    /// The configured propagation lag.
    pub fn lag(&self) -> simcore::SimDuration {
        self.lag
    }

    /// Polls the processor information providers: records a fresh
    /// snapshot of every cluster, then promotes the newest recorded
    /// snapshot that is at least [`lag`](InfoService::lag) old.
    pub fn poll<'a>(&mut self, now: SimTime, clusters: impl Iterator<Item = &'a Cluster>) {
        let mut snap = self.spare.take().unwrap_or_else(|| InfoSnapshot {
            taken_at: now,
            idle: Vec::new(),
            capacity: Vec::new(),
            used_by_koala: Vec::new(),
            used_by_local: Vec::new(),
        });
        snap.taken_at = now;
        snap.idle.clear();
        snap.capacity.clear();
        snap.used_by_koala.clear();
        snap.used_by_local.clear();
        for c in clusters {
            snap.idle.push(c.idle());
            snap.capacity.push(c.capacity());
            snap.used_by_koala.push(c.used_by_koala());
            snap.used_by_local.push(c.used_by_local());
        }
        self.in_flight.push_back(snap);
        while let Some(front) = self.in_flight.front() {
            if now.saturating_since(front.taken_at) >= self.lag {
                let matured = self.in_flight.pop_front();
                self.spare = std::mem::replace(&mut self.visible, matured);
            } else {
                break;
            }
        }
        self.polls += 1;
    }

    /// The latest *visible* snapshot, if any poll has matured. With zero
    /// lag this is the snapshot of the most recent poll.
    pub fn snapshot(&self) -> Option<&InfoSnapshot> {
        self.visible.as_ref()
    }

    /// Number of polls performed.
    pub fn polls(&self) -> u64 {
        self.polls
    }

    /// Age of the currently visible snapshot at `now`; `None` when no
    /// poll has matured yet. Callers deciding whether a view is usable
    /// should prefer [`InfoService::staleness_or_max`], which makes the
    /// never-polled case explicit instead of easy to drop with `?`.
    pub fn staleness(&self, now: SimTime) -> Option<simcore::SimDuration> {
        self.visible
            .as_ref()
            .map(|s| now.saturating_since(s.taken_at))
    }

    /// Captures the service's dynamic state — the visible snapshot, the
    /// in-flight queue (oldest first) and the poll counter — for
    /// checkpointing. The lag is configuration, not state.
    pub fn capture_state(&self) -> InfoState {
        InfoState {
            visible: self.visible.clone(),
            in_flight: self.in_flight.iter().cloned().collect(),
            polls: self.polls,
        }
    }

    /// Overwrites the service's dynamic state with a captured one (the
    /// lag keeps its configured value).
    pub fn restore_state(&mut self, state: InfoState) {
        self.visible = state.visible;
        self.in_flight = state.in_flight.into();
        self.polls = state.polls;
    }

    /// Age of the currently visible snapshot at `now`, with a view that
    /// has never been refreshed reported as [`SimDuration::MAX`]
    /// ("maximally stale") — never as fresh. Placement code must refuse
    /// to act (or force a refresh) on a maximally stale view.
    ///
    /// [`SimDuration::MAX`]: simcore::SimDuration::MAX
    pub fn staleness_or_max(&self, now: SimTime) -> simcore::SimDuration {
        self.staleness(now).unwrap_or(simcore::SimDuration::MAX)
    }
}

/// A full capture of an [`InfoService`]'s dynamic state (minus the
/// configured lag).
#[derive(Debug, Clone, PartialEq)]
pub struct InfoState {
    /// The snapshot the scheduler currently sees, if any.
    pub visible: Option<InfoSnapshot>,
    /// Recorded-but-immature snapshots, oldest first.
    pub in_flight: Vec<InfoSnapshot>,
    /// Polls performed so far.
    pub polls: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{AllocOwner, ClusterSpec};

    fn cluster(name: &str, nodes: u32) -> Cluster {
        Cluster::new(ClusterSpec::new(name, nodes, "GbE"))
    }

    #[test]
    fn snapshot_captures_poll_time_state() {
        let mut a = cluster("a", 10);
        let b = cluster("b", 20);
        a.allocate(AllocOwner::Koala(1), 4).unwrap();
        let mut kis = InfoService::new();
        kis.poll(SimTime::from_secs(5), [&a, &b].into_iter());
        let s = kis.snapshot().unwrap();
        assert_eq!(s.taken_at, SimTime::from_secs(5));
        assert_eq!(s.idle_of(ClusterId(0)), 6);
        assert_eq!(s.idle_of(ClusterId(1)), 20);
        assert_eq!(s.total_idle(), 26);
        assert_eq!(s.used_by_koala[0], 4);
    }

    #[test]
    fn snapshot_is_stale_not_live() {
        let mut a = cluster("a", 10);
        let mut kis = InfoService::new();
        kis.poll(SimTime::ZERO, [&a].into_iter());
        // Background job takes nodes *after* the poll.
        a.allocate(AllocOwner::Local(1), 8).unwrap();
        let s = kis.snapshot().unwrap();
        assert_eq!(
            s.idle_of(ClusterId(0)),
            10,
            "snapshot must not see the new job"
        );
        assert_eq!(a.idle(), 2, "live state did change");
    }

    #[test]
    fn staleness_grows_until_next_poll() {
        let a = cluster("a", 4);
        let mut kis = InfoService::new();
        assert_eq!(kis.staleness(SimTime::from_secs(1)), None);
        kis.poll(SimTime::from_secs(10), [&a].into_iter());
        assert_eq!(
            kis.staleness(SimTime::from_secs(25)),
            Some(simcore::SimDuration::from_secs(15))
        );
        kis.poll(SimTime::from_secs(30), [&a].into_iter());
        assert_eq!(
            kis.staleness(SimTime::from_secs(30)),
            Some(simcore::SimDuration::ZERO)
        );
        assert_eq!(kis.polls(), 2);
    }

    #[test]
    fn never_polled_view_is_maximally_stale() {
        let kis = InfoService::new();
        assert_eq!(kis.staleness(SimTime::from_secs(99)), None);
        assert_eq!(
            kis.staleness_or_max(SimTime::from_secs(99)),
            simcore::SimDuration::MAX,
            "a never-polled KIS must read as maximally stale, not fresh"
        );
        assert!(kis.snapshot().is_none());
    }

    #[test]
    fn lagged_snapshots_mature_at_later_polls() {
        let mut a = cluster("a", 10);
        let mut kis = InfoService::with_lag(simcore::SimDuration::from_secs(30));
        kis.poll(SimTime::ZERO, [&a].into_iter());
        // Taken but not yet visible: the view is still maximally stale.
        assert!(kis.snapshot().is_none());
        assert_eq!(
            kis.staleness_or_max(SimTime::from_secs(10)),
            simcore::SimDuration::MAX
        );
        a.allocate(AllocOwner::Local(1), 8).unwrap();
        kis.poll(SimTime::from_secs(40), [&a].into_iter());
        // The matured snapshot is the one taken at t = 0: it lags the
        // true world (which now has only 2 idle nodes).
        let s = kis.snapshot().unwrap();
        assert_eq!(s.taken_at, SimTime::ZERO);
        assert_eq!(s.idle_of(ClusterId(0)), 10);
        assert_eq!(
            kis.staleness(SimTime::from_secs(40)),
            Some(simcore::SimDuration::from_secs(40))
        );
        // The next poll promotes the t = 40 snapshot (70 - 40 >= 30).
        kis.poll(SimTime::from_secs(70), [&a].into_iter());
        assert_eq!(kis.snapshot().unwrap().taken_at, SimTime::from_secs(40));
        assert_eq!(kis.snapshot().unwrap().idle_of(ClusterId(0)), 2);
        assert_eq!(kis.polls(), 3);
    }

    #[test]
    fn worst_fit_ordering_breaks_ties_by_id() {
        let a = cluster("a", 10);
        let b = cluster("b", 30);
        let c = cluster("c", 10);
        let mut kis = InfoService::new();
        kis.poll(SimTime::ZERO, [&a, &b, &c].into_iter());
        let order = kis.snapshot().unwrap().clusters_by_idle_desc();
        assert_eq!(order, vec![ClusterId(1), ClusterId(0), ClusterId(2)]);
    }
}
