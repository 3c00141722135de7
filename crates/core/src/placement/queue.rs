//! The placement queue (Section IV-A of the paper).
//!
//! "If a placement try fails, KOALA places the job at the tail of a
//! placement queue. This queue holds all the jobs that have not yet been
//! successfully placed. The scheduler regularly scans this queue from
//! head to tail to see whether any job is able to be placed. For each job
//! in the queue we record its number of placement tries, and when this
//! number exceeds a certain threshold value, the submission of that job
//! fails."

use crate::ids::JobId;

/// FIFO placement queue with per-job retry counts.
#[derive(Debug, Clone, Default)]
pub struct PlacementQueue {
    entries: Vec<(JobId, u32)>,
    total_tries: u64,
    failed_submissions: u64,
}

impl PlacementQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a newly submitted (or bounced) job at the tail.
    pub fn push_back(&mut self, job: JobId) {
        debug_assert!(!self.contains(job), "job queued twice");
        self.entries.push((job, 0));
    }

    /// Jobs in head-to-tail order (the scan order).
    pub fn scan_order(&self) -> Vec<JobId> {
        self.entries.iter().map(|&(j, _)| j).collect()
    }

    /// The job at the head, if any.
    pub fn head(&self) -> Option<JobId> {
        self.entries.first().map(|&(j, _)| j)
    }

    /// Number of queued jobs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no job is waiting.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `job` is queued.
    pub fn contains(&self, job: JobId) -> bool {
        self.entries.iter().any(|&(j, _)| j == job)
    }

    /// Current retry count of a queued job.
    pub fn tries(&self, job: JobId) -> Option<u32> {
        self.entries
            .iter()
            .find(|&&(j, _)| j == job)
            .map(|&(_, t)| t)
    }

    /// Removes a successfully placed job.
    pub fn remove(&mut self, job: JobId) -> bool {
        let before = self.entries.len();
        self.entries.retain(|&(j, _)| j != job);
        before != self.entries.len()
    }

    /// Records a failed placement try. Returns `true` when the job's
    /// tries now exceed `threshold` — the caller must fail the
    /// submission (the job is removed from the queue).
    ///
    /// The claim-failure paths call this right after re-queueing the job
    /// at the tail, so the search runs tail first. The queue scan counts
    /// its own failures in place, on the detached queue.
    pub fn record_failed_try(&mut self, job: JobId, threshold: u32) -> bool {
        self.total_tries += 1;
        let Some(at) = self.entries.iter().rposition(|&(j, _)| j == job) else {
            return false;
        };
        self.entries[at].1 += 1;
        if self.entries[at].1 > threshold {
            self.failed_submissions += 1;
            self.entries.remove(at);
            true
        } else {
            false
        }
    }

    /// Takes the whole queue out for one head-to-tail scan, leaving an
    /// empty queue behind until [`PlacementQueue::reattach`]. The scan
    /// walks the entries in place, so it needs no copy of the scan order
    /// and no search per visited job.
    pub(crate) fn detach(&mut self) -> QueueWalk {
        QueueWalk {
            queue: std::mem::take(self),
            read: 0,
            kept: 0,
            visiting: false,
        }
    }

    /// Puts a finished walk back: the survivors, in order, with their
    /// retry counts, and the walk's tries and failed submissions added to
    /// the lifetime tallies. Entries the walk did not reach stay queued
    /// behind the survivors.
    pub(crate) fn reattach(&mut self, walk: QueueWalk) {
        debug_assert!(
            self.entries.is_empty() && self.total_tries == 0 && self.failed_submissions == 0,
            "the placement queue changed during a scan"
        );
        let QueueWalk {
            mut queue,
            read,
            kept,
            ..
        } = walk;
        queue.entries.drain(kept..read);
        *self = queue;
    }

    /// Total failed placement tries across all jobs (for reports).
    pub fn total_tries(&self) -> u64 {
        self.total_tries
    }

    /// Number of submissions failed by the threshold.
    pub fn failed_submissions(&self) -> u64 {
        self.failed_submissions
    }

    /// Captures the complete queue state — entries with their per-job
    /// retry counts plus the lifetime tallies — for checkpointing.
    pub fn capture_state(&self) -> PlacementQueueState {
        PlacementQueueState {
            entries: self.entries.clone(),
            total_tries: self.total_tries,
            failed_submissions: self.failed_submissions,
        }
    }

    /// Reconstructs a queue from a captured
    /// [`PlacementQueue::capture_state`], preserving FIFO order and the
    /// retry count of every entry.
    pub fn from_state(s: PlacementQueueState) -> Self {
        PlacementQueue {
            entries: s.entries,
            total_tries: s.total_tries,
            failed_submissions: s.failed_submissions,
        }
    }
}

/// A [`PlacementQueue`] detached for one scan (see
/// [`PlacementQueue::detach`]).
///
/// [`QueueWalk::visit`] steps through the jobs head to tail. A visited
/// entry stays queued unless the scan drops it with
/// [`QueueWalk::remove_current`] (placed) or
/// [`QueueWalk::fail_current`] (the retry threshold failed it).
/// Survivors are compacted towards the head as the walk goes, so every
/// visit, rejected or not, costs O(1).
#[derive(Debug)]
pub(crate) struct QueueWalk {
    /// The detached queue; `entries[..kept]` are the survivors so far
    /// and `entries[read..]` the jobs not yet visited.
    queue: PlacementQueue,
    read: usize,
    kept: usize,
    /// Whether the last visited entry is still the current one (not yet
    /// removed or failed).
    visiting: bool,
}

impl QueueWalk {
    /// Visits the next queued job. It stays queued unless the caller
    /// removes or fails it before the next visit.
    pub(crate) fn visit(&mut self) -> Option<JobId> {
        let entry = *self.queue.entries.get(self.read)?;
        self.read += 1;
        self.queue.entries[self.kept] = entry;
        self.kept += 1;
        self.visiting = true;
        Some(entry.0)
    }

    /// Drops the current job from the queue (it was placed).
    pub(crate) fn remove_current(&mut self) {
        debug_assert!(self.visiting, "no current entry to remove");
        self.visiting = false;
        self.kept -= 1;
    }

    /// Records a failed placement try for the current job, like
    /// [`PlacementQueue::record_failed_try`]: returns `true` when its
    /// tries now exceed `threshold`, in which case the job has left the
    /// queue and the caller must fail the submission.
    pub(crate) fn fail_current(&mut self, threshold: u32) -> bool {
        debug_assert!(self.visiting, "no current entry to fail");
        self.visiting = false;
        self.queue.total_tries += 1;
        let tries = &mut self.queue.entries[self.kept - 1].1;
        *tries += 1;
        if *tries > threshold {
            self.queue.failed_submissions += 1;
            self.kept -= 1;
            true
        } else {
            false
        }
    }

    /// Records one failed try for every job not yet visited, in one
    /// pass: the state [`QueueWalk::visit`] plus
    /// [`QueueWalk::fail_current`] per job would leave. `failed` is
    /// cleared, then receives, in queue order, the jobs whose tries now
    /// exceed `threshold`; they have left the queue and the caller must
    /// fail their submissions. Returns the number of jobs tried.
    pub(crate) fn fail_rest(&mut self, threshold: u32, failed: &mut Vec<JobId>) -> usize {
        self.visiting = false;
        failed.clear();
        let entries = &mut self.queue.entries;
        let tried = entries.len() - self.read;
        for at in self.read..entries.len() {
            let (job, tries) = entries[at];
            if tries + 1 > threshold {
                failed.push(job);
            } else {
                entries[self.kept] = (job, tries + 1);
                self.kept += 1;
            }
        }
        self.read = entries.len();
        self.queue.total_tries += tried as u64;
        self.queue.failed_submissions += failed.len() as u64;
        tried
    }
}

/// The raw internals of a [`PlacementQueue`], exposed for checkpointing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementQueueState {
    /// Queued jobs in head-to-tail order with their retry counts.
    pub entries: Vec<(JobId, u32)>,
    /// Total failed placement tries across all jobs.
    pub total_tries: u64,
    /// Submissions failed by the retry threshold.
    pub failed_submissions: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_is_preserved() {
        let mut q = PlacementQueue::new();
        q.push_back(JobId(1));
        q.push_back(JobId(2));
        q.push_back(JobId(3));
        assert_eq!(q.scan_order(), vec![JobId(1), JobId(2), JobId(3)]);
        assert_eq!(q.head(), Some(JobId(1)));
        q.remove(JobId(2));
        assert_eq!(q.scan_order(), vec![JobId(1), JobId(3)]);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn tries_accumulate_until_threshold() {
        let mut q = PlacementQueue::new();
        q.push_back(JobId(7));
        assert!(!q.record_failed_try(JobId(7), 3));
        assert!(!q.record_failed_try(JobId(7), 3));
        assert!(!q.record_failed_try(JobId(7), 3));
        assert_eq!(q.tries(JobId(7)), Some(3));
        // The fourth failure exceeds threshold 3: submission fails.
        assert!(q.record_failed_try(JobId(7), 3));
        assert!(!q.contains(JobId(7)));
        assert_eq!(q.failed_submissions(), 1);
        assert_eq!(q.total_tries(), 4);
    }

    #[test]
    fn failed_try_on_unknown_job_is_ignored() {
        let mut q = PlacementQueue::new();
        assert!(!q.record_failed_try(JobId(9), 0));
        assert_eq!(q.failed_submissions(), 0);
    }

    #[test]
    fn capture_restore_preserves_order_and_tries() {
        let mut q = PlacementQueue::new();
        q.push_back(JobId(1));
        q.push_back(JobId(2));
        q.record_failed_try(JobId(1), 10);
        q.record_failed_try(JobId(1), 10);
        q.record_failed_try(JobId(2), 10);
        let copy = PlacementQueue::from_state(q.capture_state());
        assert_eq!(copy.scan_order(), q.scan_order());
        assert_eq!(copy.tries(JobId(1)), Some(2));
        assert_eq!(copy.tries(JobId(2)), Some(1));
        assert_eq!(copy.total_tries(), 3);
        assert_eq!(copy.failed_submissions(), 0);
        // Future threshold decisions match the original exactly.
        let mut a = q;
        let mut b = copy;
        assert_eq!(
            a.record_failed_try(JobId(1), 2),
            b.record_failed_try(JobId(1), 2)
        );
        assert_eq!(a.failed_submissions(), b.failed_submissions());
        assert_eq!(a.capture_state(), b.capture_state());
    }

    #[test]
    fn remove_reports_presence() {
        let mut q = PlacementQueue::new();
        q.push_back(JobId(1));
        assert!(q.remove(JobId(1)));
        assert!(!q.remove(JobId(1)));
        assert!(q.is_empty());
    }

    #[test]
    fn walk_compacts_survivors_in_order() {
        let mut q = PlacementQueue::new();
        for j in 1..=6 {
            q.push_back(JobId(j));
        }
        let mut walk = q.detach();
        assert!(q.is_empty(), "the scan holds the entries");
        while let Some(j) = walk.visit() {
            match j.0 {
                2 | 5 => walk.remove_current(),
                3 => assert!(walk.fail_current(0), "threshold 0 fails at once"),
                4 => assert!(!walk.fail_current(10)),
                _ => {}
            }
        }
        q.reattach(walk);
        assert_eq!(q.scan_order(), vec![JobId(1), JobId(4), JobId(6)]);
        assert_eq!(q.tries(JobId(4)), Some(1));
        assert_eq!(q.total_tries(), 2);
        assert_eq!(q.failed_submissions(), 1);
    }

    #[test]
    fn unvisited_entries_stay_queued_behind_the_survivors() {
        let mut q = PlacementQueue::new();
        for j in 1..=4 {
            q.push_back(JobId(j));
        }
        let mut walk = q.detach();
        walk.visit();
        walk.remove_current();
        walk.visit();
        q.reattach(walk);
        assert_eq!(q.scan_order(), vec![JobId(2), JobId(3), JobId(4)]);
    }

    proptest::proptest! {
        /// A walk leaves exactly the state the snapshot-and-search scan
        /// left: visit a copy of the scan order, `remove` placed jobs and
        /// `record_failed_try` rejected ones.
        #[test]
        fn walk_matches_the_snapshot_scan(
            pushed in 0usize..24,
            rounds in proptest::collection::vec(
                proptest::collection::vec(0u8..3, 24..25),
                1..6,
            ),
            threshold in 0u32..4,
        ) {
            let mut walked = PlacementQueue::new();
            for j in 0..pushed as u32 {
                walked.push_back(JobId(j));
            }
            let mut searched = walked.clone();
            for decisions in &rounds {
                let order = searched.scan_order();
                for (&id, &d) in order.iter().zip(decisions) {
                    match d {
                        0 => {}
                        1 => {
                            searched.remove(id);
                        }
                        _ => {
                            searched.record_failed_try(id, threshold);
                        }
                    }
                }
                let mut walk = walked.detach();
                let mut i = 0;
                while let Some(_id) = walk.visit() {
                    match decisions[i] {
                        0 => {}
                        1 => walk.remove_current(),
                        _ => {
                            walk.fail_current(threshold);
                        }
                    }
                    i += 1;
                }
                walked.reattach(walk);
                proptest::prop_assert_eq!(walked.capture_state(), searched.capture_state());
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]
        /// The one-pass bump of a blocked scan leaves exactly the state a
        /// `visit` + `fail_current` per job leaves, and fails the same
        /// jobs in the same order — also after a partly decided walk
        /// and with tries already spread across the queue.
        #[test]
        fn fail_rest_matches_visit_and_fail(
            pushed in 0usize..24,
            warmup in proptest::collection::vec(
                proptest::collection::vec(0u8..3, 24..25),
                0..4,
            ),
            decided in 0usize..24,
            decisions in proptest::collection::vec(0u8..3, 24..25),
            threshold in 0u32..5,
        ) {
            // Random tries (and some removals) before the pass.
            let mut queue = PlacementQueue::new();
            for j in 0..pushed as u32 {
                queue.push_back(JobId(j));
            }
            for round in &warmup {
                for (id, &d) in queue.scan_order().iter().zip(round) {
                    match d {
                        0 => {}
                        1 => {
                            queue.record_failed_try(*id, 6);
                        }
                        _ => {
                            queue.record_failed_try(*id, threshold + 3);
                        }
                    }
                }
            }
            // The first `decided` jobs are placed, kept or failed one by
            // one; the rest get one failed try each.
            let decide = |walk: &mut QueueWalk, i: usize| match decisions[i] {
                0 => {}
                1 => walk.remove_current(),
                _ => {
                    walk.fail_current(threshold);
                }
            };
            let mut stepped = queue.clone();
            let mut step_failed = Vec::new();
            let mut walk = stepped.detach();
            let mut i = 0;
            while let Some(id) = walk.visit() {
                if i < decided {
                    decide(&mut walk, i);
                } else if walk.fail_current(threshold) {
                    step_failed.push(id);
                }
                i += 1;
            }
            stepped.reattach(walk);

            let queued = queue.len();
            let mut passed = queue;
            let mut pass_failed = vec![JobId(u32::MAX)];
            let mut walk = passed.detach();
            let mut i = 0;
            while i < decided && walk.visit().is_some() {
                decide(&mut walk, i);
                i += 1;
            }
            let tried = walk.fail_rest(threshold, &mut pass_failed);
            passed.reattach(walk);

            proptest::prop_assert_eq!(tried, queued - i);
            proptest::prop_assert_eq!(&pass_failed, &step_failed);
            proptest::prop_assert_eq!(passed.capture_state(), stepped.capture_state());
        }
    }
}
