//! SGE-like local resource manager.
//!
//! Each DAS-3 cluster runs the Sun Grid Engine as its local resource
//! manager, "configured to run applications on the nodes in an exclusive
//! fashion, i.e., in space-shared mode" (Section VI-B). Local users
//! submit directly to SGE, *bypassing* KOALA — the paper's motivation for
//! making the scheduler poll the information service rather than trust
//! its own bookkeeping.
//!
//! The model here is deliberately simple (plain FIFO, no backfilling):
//! the experiments only need background jobs to occupy nodes for
//! stochastic periods, and a FIFO queue is SGE's default behaviour for a
//! single queue without priority tweaks.

use std::collections::VecDeque;

use simcore::{SimDuration, SimTime};

use crate::cluster::{AllocOwner, Cluster};
use crate::ids::AllocId;

/// Identifier of a local (background) job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocalJobId(pub u64);

/// A local job: fixed size, fixed service demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalJob {
    /// LRM-local identifier.
    pub id: LocalJobId,
    /// Nodes requested.
    pub size: u32,
    /// Service time once started.
    pub duration: SimDuration,
    /// Submission instant (for queue-wait statistics).
    pub submitted: SimTime,
}

/// What happened to a submitted local job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Started immediately; the caller should schedule its completion.
    Started(AllocId),
    /// Queued behind insufficient free nodes.
    Queued,
    /// Rejected: requests more nodes than the cluster will ever have.
    Impossible,
}

/// The local resource manager wrapping one [`Cluster`].
///
/// KOALA's claims go straight to the cluster (the scheduler holds a
/// mutable reference); local jobs go through this queue. Only the LRM
/// starts queued local jobs, which it does in FIFO order whenever nodes
/// free up ([`Lrm::start_queued`]).
#[derive(Debug, Clone)]
pub struct Lrm {
    cluster: Cluster,
    queue: VecDeque<LocalJob>,
}

impl Lrm {
    /// Wraps a cluster.
    pub fn new(cluster: Cluster) -> Self {
        Lrm {
            cluster,
            queue: VecDeque::new(),
        }
    }

    /// Immutable access to the underlying cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Mutable access to the underlying cluster (used by the multicluster
    /// scheduler for its own claims — the "KOALA bypasses the local
    /// queue" pathway; in reality KOALA submits through GRAM to SGE, but
    /// it only does so after checking idle counts, so its requests do not
    /// queue).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Number of queued (not yet started) local jobs.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Submits a local job. FIFO without backfilling: if anything is
    /// already queued, new arrivals queue behind it even if they would
    /// fit right now.
    pub fn submit_local(&mut self, job: LocalJob) -> SubmitOutcome {
        if job.size > self.cluster.spec().nodes {
            return SubmitOutcome::Impossible;
        }
        if self.queue.is_empty() && self.cluster.idle() >= job.size {
            let alloc = self
                .cluster
                .allocate(AllocOwner::Local(job.id.0), job.size)
                .expect("idle checked");
            SubmitOutcome::Started(alloc)
        } else {
            self.queue.push_back(job);
            SubmitOutcome::Queued
        }
    }

    /// Starts queued local jobs that now fit, in strict FIFO order
    /// (stops at the first job that does not fit). Returns the started
    /// jobs with their allocations; the caller schedules completions.
    pub fn start_queued(&mut self) -> Vec<(LocalJob, AllocId)> {
        let mut started = Vec::new();
        while let Some(head) = self.queue.front() {
            if self.cluster.idle() < head.size {
                break;
            }
            let job = self.queue.pop_front().expect("front checked");
            let alloc = self
                .cluster
                .allocate(AllocOwner::Local(job.id.0), job.size)
                .expect("idle checked");
            started.push((job, alloc));
        }
        started
    }

    /// Completes a local job: releases its allocation.
    pub fn complete_local(&mut self, alloc: AllocId) -> u32 {
        self.cluster
            .release(alloc)
            .expect("completion of live local job")
    }

    /// Captures the LRM's dynamic state (its queue in FIFO order), for
    /// checkpointing. The wrapped
    /// cluster captures separately via [`Cluster::capture_state`].
    pub fn capture_state(&self) -> LrmState {
        LrmState {
            queue: self.queue.iter().copied().collect(),
        }
    }

    /// Overwrites the LRM's dynamic state with a captured one (the
    /// wrapped cluster restores separately).
    pub fn restore_state(&mut self, state: LrmState) {
        self.queue = state.queue.into();
    }
}

/// A full capture of an [`Lrm`]'s dynamic state (minus the wrapped
/// cluster, which has its own [`crate::ClusterState`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LrmState {
    /// Queued local jobs in FIFO order.
    pub queue: Vec<LocalJob>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;

    fn lrm(nodes: u32) -> Lrm {
        Lrm::new(Cluster::new(ClusterSpec::new("t", nodes, "GbE")))
    }

    fn job(id: u64, size: u32) -> LocalJob {
        LocalJob {
            id: LocalJobId(id),
            size,
            duration: SimDuration::from_secs(60),
            submitted: SimTime::ZERO,
        }
    }

    #[test]
    fn starts_immediately_when_room() {
        let mut l = lrm(8);
        let j = job(0, 4);
        match l.submit_local(j) {
            SubmitOutcome::Started(a) => {
                assert_eq!(l.cluster().alloc_size(a), Some(4));
                assert_eq!(l.cluster().used_by_local(), 4);
            }
            other => panic!("expected start, got {other:?}"),
        }
    }

    #[test]
    fn queues_when_full_and_fifo_restarts() {
        let mut l = lrm(8);
        let j1 = job(0, 6);
        let a1 = match l.submit_local(j1) {
            SubmitOutcome::Started(a) => a,
            _ => panic!(),
        };
        let j2 = job(1, 4);
        assert_eq!(l.submit_local(j2), SubmitOutcome::Queued);
        let j3 = job(2, 2); // would fit, but FIFO forbids overtaking
        assert_eq!(l.submit_local(j3), SubmitOutcome::Queued);
        assert_eq!(l.queued(), 2);
        assert!(l.start_queued().is_empty(), "nothing fits while j1 holds 6");
        l.complete_local(a1);
        let started = l.start_queued();
        assert_eq!(started.len(), 2, "j2 then j3 fit after release");
        assert_eq!(started[0].0.id, j2.id);
        assert_eq!(started[1].0.id, j3.id);
        assert_eq!(l.queued(), 0);
    }

    #[test]
    fn fifo_head_blocks_smaller_followers() {
        let mut l = lrm(8);
        let big = job(0, 7);
        let a = match l.submit_local(big) {
            SubmitOutcome::Started(a) => a,
            _ => panic!(),
        };
        let head = job(1, 8); // cannot fit until cluster fully empty
        let small = job(2, 1); // fits now, but must wait behind head
        l.submit_local(head);
        l.submit_local(small);
        assert!(l.start_queued().is_empty());
        l.complete_local(a);
        let started = l.start_queued();
        assert_eq!(started.len(), 1, "only head starts; it fills the cluster");
        assert_eq!(started[0].0.size, 8);
    }

    #[test]
    fn impossible_jobs_are_rejected() {
        let mut l = lrm(4);
        let j = job(0, 5);
        assert_eq!(l.submit_local(j), SubmitOutcome::Impossible);
        assert_eq!(l.queued(), 0);
    }

    #[test]
    fn completion_releases_the_allocation() {
        let mut l = lrm(4);
        let j = job(0, 2);
        let a = match l.submit_local(j) {
            SubmitOutcome::Started(a) => a,
            _ => panic!(),
        };
        assert_eq!(l.complete_local(a), 2);
        assert_eq!(l.cluster().used_by_local(), 0);
    }
}
