//! # koala — the KOALA multicluster scheduler with malleability support
//!
//! This crate is the reproduction of the paper's contribution: the KOALA
//! grid scheduler (Mohamed & Epema) extended with support for malleable
//! applications via the DYNACO framework (Buisson et al.), as published
//! in *Scheduling Malleable Applications in Multicluster Systems*
//! (IEEE CLUSTER 2007).
//!
//! The pieces map one-to-one onto the paper:
//!
//! * [`policy`] — the open scheduling-policy API: the object-safe
//!   [`policy::Placement`] / [`policy::Malleability`] traits and the
//!   [`policy::PolicyRegistry`] mapping string names to constructors.
//!   Adding a policy is a trait impl plus a registry entry — nothing in
//!   the simulation core dispatches on concrete policy types.
//! * [`placement`] — KOALA's placement policies (Section IV-A) as named
//!   implementors: Worst Fit, Close-to-Files, Cluster Minimization,
//!   Flexible Cluster Minimization (plus a First-Fit baseline); and the
//!   placement queue with its retry threshold.
//! * [`malleability`] — the malleability manager (Section V): the
//!   **PRA**/**PWA** job-management approaches and the **FPSMA**/**EGS**
//!   malleability-management policies, plus the equipartition, folding
//!   and greedy-grow/lazy-shrink baselines.
//! * [`autoscaler`] — the elasticity layer's decision policies: the
//!   object-safe [`autoscaler::Autoscaler`] trait and the closed
//!   [`autoscaler::by_name`] table of its `none`/`threshold`/`queue_depth`
//!   built-ins.
//! * [`scenario`] — the composable [`scenario::ScenarioBuilder`]:
//!   experiments assembled declaratively, with policies selected by
//!   registry name; the paper presets are thin wrappers over it.
//! * [`runner`] — the Malleable Runner (MRunner): drives a malleable
//!   application as a collection of size-1 GRAM jobs, overlapping GRAM
//!   interactions with execution (Section V-A).
//! * [`sim`] — the simulation world tying the scheduler to the
//!   `multicluster` and `appsim` substrates; event definitions and
//!   handlers.
//! * [`run()`] — the one run entry point: a [`Run`] of
//!   `(configuration × seed)` cells, eager or streamed, each reported as
//!   a [`SummaryReport`] or as a [`RunReport`] (that summary plus the
//!   per-job detail), warm-forked when the configuration asks for it.
//! * [`parallel`] — the work-stealing cell runner behind [`run()`],
//!   with deterministic, sequential-identical merged output.
//! * [`config`] — scheduler and experiment configuration, including every
//!   constant the paper leaves unspecified (with justifications).
//! * [`report`] — per-run and multi-seed reports feeding the figure
//!   binaries.
//!
//! ## Quick start
//!
//! ```
//! use koala::scenario::Scenario;
//! use koala::{Run, RunReport};
//! use appsim::workload::WorkloadSpec;
//!
//! // Fig. 7, EGS/Wm cell, one seed, scaled down to 30 jobs for the doctest.
//! let scenario = Scenario::builder()
//!     .malleability("egs")
//!     .workload(WorkloadSpec::wm())
//!     .jobs(30)
//!     .seed(1)
//!     .build()
//!     .unwrap();
//! let reports: Vec<RunReport> = koala::run(&Run::cell(scenario.config())).unwrap();
//! let report = &reports[0];
//! assert_eq!(report.jobs.len(), 30);
//! assert!(report.jobs.completion_ratio() > 0.99);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod autoscaler;
pub mod avail;
pub mod config;
pub mod malleability;
pub mod obs;
pub mod parallel;
pub mod placement;
pub mod policy;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod sim;
pub mod snapshot;

mod ids;
mod job;
mod run;

pub use autoscaler::{
    Autoscaler, AutoscalerError, ClusterObservation, NoScaler, QueueDepthScaler, ScaleDecision,
    ThresholdScaler,
};
pub use config::{
    Approach, ClaimingPolicy, ConfigError, ElasticityConfig, ExperimentConfig, ReportConfig,
    SchedulerConfig, UniformTopology, WarmFork,
};
pub use ids::JobId;
pub use job::{Job, JobPhase};
pub use obs::Obs;
pub use policy::{Malleability, Placement, PolicyError, PolicyRegistry};
pub use report::{MultiReport, MultiSummary, ReportMode, RunReport, SummaryReport};
pub use run::{run, run_stream_summary, try_run_stream_summary, Report, Run};
pub use scenario::{Scenario, ScenarioBuilder, Topology, WorkloadChoice};
pub use sim::{
    engine_for, fork_summary, resume_summary, warm_snapshot_seeded, World, DEFAULT_LOOKAHEAD,
};
pub use snapshot::{Snapshot, SnapshotError};
