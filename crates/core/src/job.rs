//! Runtime state of one KOALA-managed job inside the simulation world.

use appsim::speedup::AmdahlOverhead;
use appsim::{JobSpec, Progress};
use multicluster::{AllocId, ClusterId};
use simcore::{Generation, SimTime};

use crate::ids::JobId;
use crate::runner::MRunner;

/// Lifecycle phase of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Waiting in the placement queue.
    Queued,
    /// Placed with claiming postponed: input files are staging and the
    /// processors are not yet held (deferred claiming).
    Staging,
    /// Placed; initial GRAM submission in flight.
    Starting,
    /// Executing (for malleable jobs this includes the overlapped parts
    /// of grow/shrink protocols; see [`crate::runner::MRunner::busy`]).
    Running,
    /// Suspended for reconfiguration (data redistribution).
    Reconfiguring,
    /// Finished successfully.
    Completed,
    /// Submission failed (placement-retry threshold exceeded).
    Failed,
}

/// One job: specification plus all runtime state the world tracks.
#[derive(Debug, Clone)]
pub struct Job {
    /// Identifier (workload index).
    pub id: JobId,
    /// The immutable specification.
    pub spec: JobSpec,
    /// Submission instant.
    pub submitted: SimTime,
    /// Current phase.
    pub phase: JobPhase,
    /// Execution site (set at placement; malleable jobs never migrate).
    pub cluster: Option<ClusterId>,
    /// Live allocation handle (the first/primary component).
    pub alloc: Option<AllocId>,
    /// Further components of a co-allocated job (cluster + allocation),
    /// beyond the primary one.
    pub extra_allocs: Vec<(ClusterId, AllocId)>,
    /// The MRunner protocol state (malleable jobs only).
    pub runner: Option<MRunner>,
    /// Work-progress accounting (set when execution starts).
    pub progress: Option<Progress>,
    /// Invalidation stamp for this job's scheduled events.
    pub gen: Generation,
    /// Cached speedup model (avoids re-deriving from the spec in hot
    /// paths).
    pub model: AmdahlOverhead,
    /// When execution started.
    pub started: Option<SimTime>,
    /// Whether the job's application-initiated grow has already fired
    /// (it fires at most once).
    pub initiative_fired: bool,
    /// The decided-but-unclaimed placement of a deferred-claiming job.
    pub pending_claim: Option<Vec<(ClusterId, u32)>>,
    /// When the in-flight release batch was sent (the orphaned-allocation
    /// sweep reclaims releases stuck past the grace window after the
    /// release message exhausted its retries).
    pub release_since: Option<SimTime>,
}

impl Job {
    /// Creates a queued job from its spec.
    pub fn new(id: JobId, spec: JobSpec, submitted: SimTime) -> Self {
        let model = spec.kind.model();
        Job {
            id,
            spec,
            submitted,
            phase: JobPhase::Queued,
            cluster: None,
            alloc: None,
            extra_allocs: Vec::new(),
            runner: None,
            progress: None,
            gen: Generation::new(),
            model,
            started: None,
            initiative_fired: false,
            pending_claim: None,
            release_since: None,
        }
    }

    /// True when the malleability manager may send this job grow/shrink
    /// requests right now: it is a malleable job, executing, with no
    /// operation already in flight.
    pub fn eligible_for_malleability(&self) -> bool {
        self.phase == JobPhase::Running && self.runner.as_ref().is_some_and(|r| !r.busy())
    }

    /// True when the job has reached a terminal phase.
    pub fn is_terminal(&self) -> bool {
        matches!(self.phase, JobPhase::Completed | JobPhase::Failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use appsim::dynaco::Dynaco;
    use appsim::{AppKind, SizeConstraint};

    fn job(malleable: bool) -> Job {
        let spec = if malleable {
            JobSpec::paper_malleable(AppKind::Gadget2)
        } else {
            JobSpec::rigid(AppKind::Ft, 2)
        };
        Job::new(JobId(0), spec, SimTime::ZERO)
    }

    /// The slab holds one `Job` per live job; its spec is most of it
    /// (see `appsim`'s `job_records_stay_compact`).
    #[test]
    fn job_record_stays_compact() {
        let size = std::mem::size_of::<Job>();
        assert!(size <= 320, "Job is {size} B");
    }

    #[test]
    fn fresh_job_is_queued_and_ineligible() {
        let j = job(true);
        assert_eq!(j.phase, JobPhase::Queued);
        assert!(!j.eligible_for_malleability());
        assert!(!j.is_terminal());
    }

    #[test]
    fn running_malleable_with_idle_runner_is_eligible() {
        let mut j = job(true);
        j.phase = JobPhase::Running;
        j.runner = Some(MRunner::new(Dynaco::new(2, 46, SizeConstraint::Any, 2), 2));
        assert!(j.eligible_for_malleability());
        // A busy runner suspends eligibility.
        j.runner.as_mut().unwrap().offer_grow(4);
        assert!(!j.eligible_for_malleability());
    }

    #[test]
    fn rigid_jobs_are_never_eligible() {
        let mut j = job(false);
        j.phase = JobPhase::Running;
        assert!(!j.eligible_for_malleability());
    }

    #[test]
    fn terminal_phases() {
        let mut j = job(true);
        j.phase = JobPhase::Completed;
        assert!(j.is_terminal());
        j.phase = JobPhase::Failed;
        assert!(j.is_terminal());
    }
}
