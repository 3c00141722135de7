//! The observation stream: one typed event per lifecycle transition.
//!
//! A running [`World`](crate::World) reports each transition through one
//! call that hands an [`Obs`] to the run's collector and then to the
//! caller's sink, if one is attached with
//! [`World::with_sink`](crate::World::with_sink) — in every report mode
//! and intake. An `Obs` is `Copy` and carries ids and numbers only, so
//! building one allocates nothing. It serializes (externally tagged) for
//! JSON-lines export.

use multicluster::ClusterId;

use crate::ids::JobId;

/// One lifecycle observation. The instant travels beside it (a sink is
/// called as `sink(now, &obs)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum Obs {
    /// A workload job reached the placement queue.
    Arrive {
        /// The job.
        job: JobId,
    },
    /// The placement policy placed the job: `procs` processors in
    /// `components` components, the first on `cluster`. A job that must
    /// stage files under deferred claiming is observed twice: when its
    /// placement is decided and again when its claim commits.
    Place {
        /// The job.
        job: JobId,
        /// Cluster of the first component.
        cluster: ClusterId,
        /// Processors over all components.
        procs: u32,
        /// Number of components.
        components: u32,
    },
    /// The placement-retry threshold dropped the job (terminal).
    PlacementFailed {
        /// The job.
        job: JobId,
    },
    /// The job's GRAM batch runs: it starts executing.
    Start {
        /// The job.
        job: JobId,
        /// Processors it starts on.
        size: u32,
    },
    /// An accepted grow: `accepted` of `offered` processors (a
    /// scheduler offer or the application's own request).
    Grow {
        /// The job.
        job: JobId,
        /// Processors the job took.
        accepted: u32,
        /// Processors offered.
        offered: u32,
    },
    /// An accepted mandatory shrink: `released` of `requested`
    /// processors.
    Shrink {
        /// The job.
        job: JobId,
        /// Processors the job gives up.
        released: u32,
        /// Processors requested.
        requested: u32,
    },
    /// The job resumed at `size` after a grow (`grow`) or shrink
    /// reconfiguration.
    Resume {
        /// The job.
        job: JobId,
        /// Processors after the reconfiguration.
        size: u32,
        /// Whether the reconfiguration was a grow.
        grow: bool,
    },
    /// The job ran to completion (terminal).
    Complete {
        /// The job.
        job: JobId,
    },
    /// The start submission ran out of retries: the job gave up its
    /// allocation and went back to the queue.
    CtrlRequeue {
        /// The job.
        job: JobId,
    },
    /// The grow-stub submission ran out of retries: the grow was
    /// aborted and its `stubs` processors returned.
    CtrlAbortGrow {
        /// The job.
        job: JobId,
        /// Stub processors returned.
        stubs: u32,
    },
    /// A reconfiguration sync ran out of retries and completed locally.
    CtrlForceSync {
        /// The job.
        job: JobId,
        /// Whether it was a grow sync.
        grow: bool,
    },
    /// A release batch ran out of retries; the orphan sweep reclaims it.
    CtrlReleaseLost {
        /// The job.
        job: JobId,
    },
    /// The orphan sweep reclaimed the processors of a lost release.
    CtrlReclaim {
        /// The job.
        job: JobId,
    },
    /// The job's input staging began: `transfers` flows to its cluster.
    Stage {
        /// The job.
        job: JobId,
        /// Transfers opened.
        transfers: u32,
    },
    /// A node withdrawal of `nodes` nodes was requested on `cluster`.
    Withdraw {
        /// The cluster.
        cluster: ClusterId,
        /// Nodes requested.
        nodes: u32,
    },
    /// The autoscaler restored `nodes` nodes to `cluster`.
    ScaleUp {
        /// The cluster.
        cluster: ClusterId,
        /// Nodes restored.
        nodes: u32,
    },
    /// The autoscaler withdrew `nodes` free nodes from `cluster`.
    ScaleDown {
        /// The cluster.
        cluster: ClusterId,
        /// Nodes withdrawn.
        nodes: u32,
    },
    /// `nodes` nodes of `cluster` crashed; each KOALA job that lost
    /// nodes is then [`Obs::Killed`] or [`Obs::Requeue`]d.
    Crash {
        /// The cluster.
        cluster: ClusterId,
        /// Nodes taken down.
        nodes: u32,
    },
    /// A crash killed the job (terminal).
    Killed {
        /// The job.
        job: JobId,
    },
    /// A crash sent the job back to the placement queue.
    Requeue {
        /// The job.
        job: JobId,
    },
}

impl Obs {
    /// Every kind's name, indexed by [`Obs::kind`].
    pub const NAMES: [&'static str; 20] = [
        "arrive",
        "place",
        "placement_failed",
        "start",
        "grow",
        "shrink",
        "resume",
        "complete",
        "ctrl_requeue",
        "ctrl_abort_grow",
        "ctrl_force_sync",
        "ctrl_release_lost",
        "ctrl_reclaim",
        "stage",
        "withdraw",
        "scale_up",
        "scale_down",
        "crash",
        "killed",
        "requeue",
    ];

    /// The variant's index into [`Obs::NAMES`] (declaration order), for
    /// fixed per-kind tallies.
    pub fn kind(&self) -> usize {
        match self {
            Obs::Arrive { .. } => 0,
            Obs::Place { .. } => 1,
            Obs::PlacementFailed { .. } => 2,
            Obs::Start { .. } => 3,
            Obs::Grow { .. } => 4,
            Obs::Shrink { .. } => 5,
            Obs::Resume { .. } => 6,
            Obs::Complete { .. } => 7,
            Obs::CtrlRequeue { .. } => 8,
            Obs::CtrlAbortGrow { .. } => 9,
            Obs::CtrlForceSync { .. } => 10,
            Obs::CtrlReleaseLost { .. } => 11,
            Obs::CtrlReclaim { .. } => 12,
            Obs::Stage { .. } => 13,
            Obs::Withdraw { .. } => 14,
            Obs::ScaleUp { .. } => 15,
            Obs::ScaleDown { .. } => 16,
            Obs::Crash { .. } => 17,
            Obs::Killed { .. } => 18,
            Obs::Requeue { .. } => 19,
        }
    }

    /// The job the event concerns; `None` for cluster-level events.
    pub fn job(&self) -> Option<JobId> {
        match *self {
            Obs::Arrive { job }
            | Obs::Place { job, .. }
            | Obs::PlacementFailed { job }
            | Obs::Start { job, .. }
            | Obs::Grow { job, .. }
            | Obs::Shrink { job, .. }
            | Obs::Resume { job, .. }
            | Obs::Complete { job }
            | Obs::CtrlRequeue { job }
            | Obs::CtrlAbortGrow { job, .. }
            | Obs::CtrlForceSync { job, .. }
            | Obs::CtrlReleaseLost { job }
            | Obs::CtrlReclaim { job, .. }
            | Obs::Stage { job, .. }
            | Obs::Killed { job, .. }
            | Obs::Requeue { job, .. } => Some(job),
            Obs::Withdraw { .. }
            | Obs::ScaleUp { .. }
            | Obs::ScaleDown { .. }
            | Obs::Crash { .. } => None,
        }
    }
}
