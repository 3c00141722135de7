//! The simulation world: KOALA + substrates + event handlers.
//!
//! The world composes the scheduler (placement, queue, malleability
//! manager), the multicluster substrate (clusters, LRMs, KIS, GRAM
//! timing) and the application substrate (DYNACO runners, progress
//! accounting) under a single deterministic event loop.
//!
//! ## Event flows (mirroring Section V of the paper)
//!
//! **Initial placement** — `Arrival` enqueues the job and scans the
//! queue; a successful placement allocates processors (the claim can fail
//! if the KIS snapshot was stale — the job bounces back to the queue) and
//! schedules `StartHeld` after the GRAM batch-submission latency; the job
//! then starts computing and a generation-stamped `Completion` is
//! scheduled from its speedup model.
//!
//! **Grow** — the malleability manager (triggered by freed capacity or by
//! a KIS poll that shows *new* availability) runs the policy; accepted
//! offers immediately extend the cluster allocation (stubs occupy nodes
//! from submission), and `GrowHeld` fires once the stubs run. Only then
//! does the application suspend (`SyncDone` after recruit + redistribute
//! cost) and resume at the new size — GRAM interaction overlaps
//! execution, exactly as the MRunner is designed to do.
//!
//! **Shrink** (PWA) — when the first queued job cannot be placed, the
//! manager mandatorily shrinks running jobs. The application suspends,
//! redistributes, resumes at the smaller size, and only after the
//! `shrunk` feedback are the GRAM jobs released (`ShrinkReleased`), which
//! is when the processors actually free up and the waiting job can place.
//!
//! **Background load** — local jobs enter each cluster's LRM directly,
//! bypassing KOALA; the scheduler only learns about them at the next KIS
//! poll.
//!
//! **Data staging** (network layer on) — a successful placement opens
//! one network flow per input file missing at the destination
//! (`TransferStart`); concurrent flows share links max-min fairly, and
//! every flow start/finish re-estimates the others' completions
//! (generation-stamped `TransferDone`, stale estimates dropped). The
//! GRAM submission — or the deferred claim — fires only when the last
//! transfer lands, so data movement genuinely delays job starts.

use std::borrow::Cow;
use std::collections::VecDeque;

use appsim::dynaco::Dynaco;
use appsim::generate::JobStream;
use appsim::workload::SubmittedJob;
use appsim::JobClass;
use multicluster::{
    das3, AllocId, AllocOwner, ClusterId, FailureStream, FileCatalog, InfoService, LocalJob,
    Multicluster, SubmitOutcome,
};
use simcore::{Engine, Generation, SimDuration, SimRng, SimTime};

use crate::autoscaler::{self, Autoscaler};
use crate::avail::AvailIndex;
use crate::config::{Approach, ClaimingPolicy, ExperimentConfig};
use crate::ids::JobId;
use crate::job::{Job, JobPhase};
use crate::malleability::RunningView;
use crate::obs::Obs;
use crate::placement::{ComponentRequest, PlacementQueue, PlacementRequest};
use crate::policy::{Malleability, Placement, PolicyRegistry};
use crate::report::{Collector, DetailCollector, ReportMode, RunReport, SummaryReport};
use crate::run::Report;
use crate::runner::MRunner;

mod codec;
mod ctrl;
mod elastic;
mod intake;
mod jobs;
mod net;

pub use codec::{fork_summary, resume_summary, warm_snapshot_seeded};
pub use ctrl::CtrlOp;
use ctrl::CtrlPlane;
use intake::Intake;
pub use intake::DEFAULT_LOOKAHEAD;
use jobs::JobSlab;
use net::NetRuntime;

/// The flat event type of the whole simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ev {
    /// A workload job arrives (payload: workload index = job id).
    Arrival(u32),
    /// Group arrival: `count` workload jobs with consecutive ids starting
    /// at `first`, fanned out in ascending id order. Nothing schedules it;
    /// the variant stays because external benchmark drivers match `Ev`
    /// exhaustively.
    ArrivalBatch {
        /// First job id of the same-instant run.
        first: u32,
        /// Number of jobs in the run.
        count: u32,
    },
    /// Periodic placement-queue scan.
    QueueScan,
    /// Periodic KIS poll (also triggers job management, Section V-B).
    KisPoll,
    /// Initial GRAM batch is running: the job starts executing.
    StartHeld {
        /// The job.
        job: JobId,
        /// Validity stamp.
        gen: Generation,
    },
    /// Grow stubs are running: recruit and redistribute.
    GrowHeld {
        /// The job.
        job: JobId,
        /// Validity stamp.
        gen: Generation,
    },
    /// Reconfiguration synchronization finished: resume at the new size.
    SyncDone {
        /// The job.
        job: JobId,
        /// Validity stamp.
        gen: Generation,
        /// Whether this was a grow or a shrink sync.
        grow: bool,
    },
    /// GRAM jobs released after a shrink: processors are free.
    ShrinkReleased {
        /// The job.
        job: JobId,
        /// Validity stamp.
        gen: Generation,
        /// Processors freed.
        count: u32,
    },
    /// A job's work is complete.
    Completion {
        /// The job.
        job: JobId,
        /// Validity stamp.
        gen: Generation,
    },
    /// A background (local) job arrives at a cluster.
    BgArrival {
        /// The cluster.
        cluster: ClusterId,
    },
    /// A background job finishes.
    BgComplete {
        /// The cluster.
        cluster: ClusterId,
        /// Its allocation.
        alloc: AllocId,
    },
    /// Part of a cluster is withdrawn from the pool (maintenance or
    /// failure) — the availability variation that motivates malleability
    /// in the paper's introduction. Free nodes are taken first; if the
    /// withdrawal cannot be satisfied, running malleable jobs are
    /// mandatorily shrunk and the event retries until the target is met
    /// or nothing more can be reclaimed.
    NodeWithdraw {
        /// The cluster losing nodes.
        cluster: ClusterId,
        /// Nodes still to withdraw.
        count: u32,
    },
    /// A deferred claim fires: staging is nearly done, take the
    /// processors now (or bounce back to the queue).
    Claim {
        /// The job.
        job: JobId,
        /// Validity stamp.
        gen: Generation,
    },
    /// A job's application-initiated grow request fires (its progress
    /// crossed the configured phase boundary).
    AppGrowRequest {
        /// The job.
        job: JobId,
        /// Validity stamp.
        gen: Generation,
    },
    /// Withdrawn nodes return to the pool.
    NodeRestore {
        /// The cluster regaining nodes.
        cluster: ClusterId,
        /// Nodes to restore.
        count: u32,
    },
    /// Periodic monitoring sample: per-cluster utilization and the
    /// placement-queue depth flow into the report's streaming
    /// accumulators (see [`crate::config::ElasticityConfig`]).
    MonitorSample,
    /// Periodic autoscaling cycle: the configured
    /// [`crate::autoscaler::Autoscaler`] observes every cluster and
    /// schedules [`Ev::AutoscaleApply`] for each non-`Hold` decision.
    AutoscaleCycle,
    /// An autoscale decision lands after the propagation delay — the
    /// world the scaler observed may have moved on, which is exactly the
    /// staleness the elasticity experiments quantify.
    AutoscaleApply {
        /// The cluster being resized.
        cluster: ClusterId,
        /// Grow (repair down nodes) or shrink (withdraw free nodes).
        grow: bool,
        /// Nodes to add or remove.
        count: u32,
    },
    /// Seeded node failure: up to `count` nodes crash on `cluster` and
    /// come back `repair_after` later via [`Ev::NodeRestore`]. Jobs on
    /// the crashed nodes are re-queued or killed per
    /// [`multicluster::FailurePolicy`].
    NodeCrash {
        /// The cluster losing nodes.
        cluster: ClusterId,
        /// Nodes crashing (saturates at the live pool).
        count: u32,
        /// Delay until the taken nodes rejoin the pool.
        repair_after: SimDuration,
    },
    /// A control-plane deadline expired: if the operation it guards is
    /// still pending, the message was (presumed) lost — re-send with
    /// capped exponential backoff, or apply the per-operation give-up
    /// policy once the attempt budget is exhausted. Only scheduled when
    /// [`ControlPlaneFaults`](multicluster::ControlPlaneFaults) are enabled.
    CtrlTimeout {
        /// The job whose control operation is guarded.
        job: JobId,
        /// Validity stamp (a bumped generation orphans the deadline).
        gen: Generation,
        /// The guarded operation.
        op: CtrlOp,
        /// Zero-based attempt index of the send this deadline guards.
        attempt: u32,
    },
    /// Periodic orphaned-allocation sweep: reclaims release batches
    /// stuck past the grace window after their release message exhausted
    /// its retries, so lost releases never leak processors. Only
    /// scheduled when [control-plane faults](multicluster::ControlPlaneFaults)
    /// are enabled.
    OrphanSweep,
    /// A placed job begins staging: one network transfer opens per
    /// input file with no replica at the destination cluster. Only
    /// scheduled when the contended-network layer is configured
    /// ([`crate::config::NetworkConfig`]) — without it the event never
    /// exists and trajectories are untouched.
    TransferStart {
        /// The job whose input files are staged.
        job: JobId,
        /// Validity stamp.
        gen: Generation,
    },
    /// A network transfer's estimated completion fires. Every
    /// fair-share recomputation (another transfer starting or
    /// finishing) bumps the flow's own generation and schedules a
    /// fresh estimate, so only the latest stamp applies — stale
    /// estimates are dropped by [`multicluster::FlowNet::complete`].
    TransferDone {
        /// The flow id within the world's [`multicluster::FlowNet`].
        transfer: u64,
        /// The flow-generation stamp of this estimate.
        gen: u64,
    },
}

/// A caller's observation sink, borrowed for the world's lifetime (see
/// [`World::with_sink`]).
type SinkRef<'a> = &'a mut (dyn FnMut(SimTime, &Obs) + 'a);

/// The simulation world. Construct with [`World::new`], drive with
/// [`World::run_to_end`] (or run configurations through
/// [`crate::run()`]).
///
/// The world **borrows** its configuration: a run no longer clones the
/// `ExperimentConfig` (or an explicit trace, which can be an arbitrarily
/// large job list) — important for multi-seed sweeps, where
/// [`crate::parallel`] shares one configuration across worker threads.
pub struct World<'a> {
    cfg: &'a ExperimentConfig,
    /// The seed this run executes under (usually `cfg.seed`; sweeps
    /// override it per cell without cloning the configuration).
    seed: u64,
    policies: Policies,
    mc: Multicluster,
    kis: InfoService,
    files: Option<FileCatalog>,
    intake: Intake<'a>,
    jobs: JobSlab,
    queue: PlacementQueue,
    /// The measurement sink: a full job-table/step-series collector, or
    /// the memory-bounded streaming one ([`ReportMode`]). Strictly
    /// passive — the simulation trajectory is identical either way.
    collect: Collector,
    grow_messages: u64,
    shrink_messages: u64,
    bg_rng: SimRng,
    /// `cfg.background`'s local-job draw with its duration law prebuilt.
    bg_jobs: multicluster::LocalJobSampler,
    /// Per-cluster processors in the shrink pipeline (decided but not yet
    /// freed) — stops PWA from over-shrinking while releases are in
    /// flight.
    pending_release: Vec<u32>,
    /// Per-cluster idle level already offered to (or declined by) running
    /// jobs. The malleability manager only offers *newly available*
    /// processors — the paper's `growValue` is "the number of processors
    /// to be allocated on behalf of malleable jobs", i.e. the processors
    /// that just became available, not the whole idle pool. Idle capacity
    /// present at the start of the run is never offered (jobs start at
    /// their initial sizes and ratchet up from released processors),
    /// which is what keeps utilization in the paper's 40–120 processor
    /// band on a 272-node system.
    idle_baseline: Vec<u32>,
    next_bg_local: u64,
    /// The seeded node-failure stream (`None` without a failure spec).
    /// A pure function of its fork of the master seed: it never reads
    /// simulation state, so failure times are identical across report
    /// modes and thread counts.
    failures: Option<FailureStream>,
    /// The control-plane fault layer (`None` without a fault spec).
    ctrl: Option<CtrlPlane>,
    /// The contended-network layer (`None` without a network config —
    /// the default — making the whole layer strictly passive).
    net: Option<NetRuntime>,
    /// The caller's observation sink ([`World::with_sink`]). Borrowed,
    /// not world state: copies, forks and snapshots never carry it.
    sink: Option<SinkRef<'a>>,
    scratch: Scratch,
    /// Availability index (see [`crate::avail`]): the scan's
    /// effective-availability aggregates quick-reject placement attempts
    /// no policy could satisfy. Consulted only when
    /// [`SchedulerConfig::avail_index`](crate::config::SchedulerConfig)
    /// is on; rebuilt by every scan either way, so the on/off
    /// trajectories cannot drift apart structurally.
    avail_idx: AvailIndex,
    /// Whether [`World::bootstrap`] has run: [`World::run_to_end`]
    /// bootstraps a fresh world and resumes a started one.
    started: bool,
    /// `(total capacity, cap)` of the last [`World::koala_headroom`] call: the
    /// cap's float product and floor are redone only when the platform's
    /// capacity changed since. `(0, 0)` is exact for every share.
    koala_cap_memo: (u32, u32),
    /// True while [`World::on_node_crash`] cleans up its victims — the
    /// one window in which a job that still looks Running may have lost
    /// its whole allocation (see [`World::malleable_running_on`]).
    crash_cleanup: bool,
}

/// The policies a world drives, resolved once by name against the
/// global registries — the simulation core never dispatches on concrete
/// policy types, so new policies plug in by name without touching this
/// module. Policies are stateless, so a fresh resolution is
/// interchangeable with any earlier one.
struct Policies {
    placement: Box<dyn Placement>,
    malleability: Box<dyn Malleability>,
    /// `None` when the configuration selects the `none` scaler, so
    /// inelastic runs pay nothing.
    autoscaler: Option<Box<dyn Autoscaler>>,
}

/// Reusable buffers of the scheduling hot path. Each is detached from
/// the world for the duration of one call and re-attached after,
/// keeping its capacity, so steady-state scans, grows and shrinks
/// allocate nothing. Not world state: forks start with fresh ones.
#[derive(Default)]
struct Scratch {
    /// [`World::scan_queue`]'s live and budget-capped availability, the
    /// placement policy's all-or-nothing copy, and the request placed.
    avail: Vec<u32>,
    eff: Vec<u32>,
    place: Vec<u32>,
    req: PlacementRequest,
    /// [`World::running_views_into`]'s output: the grow and shrink
    /// procedures' policy input.
    views: Vec<RunningView>,
    /// The `(cluster, allocation, size)` components one placement
    /// claims ([`World::claim`]).
    claims: Vec<(ClusterId, AllocId, u32)>,
    /// The jobs a blocked scan's retry pass failed.
    failed: Vec<JobId>,
}

impl<'a> World<'a> {
    /// Builds the world: DAS-3, the generated workload, and all
    /// bookkeeping. All randomness forks from `cfg.seed`.
    pub fn new(cfg: &'a ExperimentConfig) -> Self {
        Self::for_seed(cfg, cfg.seed)
    }

    /// Builds the world for an explicit `seed`, ignoring `cfg.seed` —
    /// the per-cell entry point of multi-seed sweeps, which would
    /// otherwise have to clone the whole configuration (including any
    /// explicit trace) just to restamp the seed.
    ///
    /// # Panics
    /// Panics when the configured policy names do not resolve against
    /// [`PolicyRegistry::global`] (run through [`crate::run()`], which
    /// validates first, for a `Result`-shaped path).
    pub fn for_seed(cfg: &'a ExperimentConfig, seed: u64) -> Self {
        Self::for_seed_with_mode(cfg, seed, ReportMode::Full)
    }

    /// [`World::for_seed`] in memory-bounded summary mode: the run
    /// collects the summary's streaming accumulators only (no job table,
    /// no step series, no trace) and finishes as a [`SummaryReport`]. Warmup
    /// trimming and reservoir capacity come from `cfg.report`.
    pub fn for_seed_summarized(cfg: &'a ExperimentConfig, seed: u64) -> Self {
        Self::for_seed_with_mode(cfg, seed, ReportMode::Summarized)
    }

    pub(crate) fn for_seed_with_mode(
        cfg: &'a ExperimentConfig,
        seed: u64,
        mode: ReportMode,
    ) -> Self {
        Self::assemble(cfg, seed, |mut wl_rng, mc| {
            let workload: Cow<'a, [SubmittedJob]> = match (&cfg.trace, &cfg.generator) {
                (Some(trace), _) => Cow::Borrowed(trace.as_slice()),
                (None, Some(name)) => {
                    // The eager generator path: materialize the named
                    // source's stream (small runs; million-job streams go
                    // through `for_stream_summarized`).
                    let src = appsim::generate::WorkloadRegistry::global()
                        .source(name)
                        .unwrap_or_else(|e| panic!("invalid experiment configuration: {e}"));
                    Cow::Owned(src.generate(seed, cfg.workload.jobs as u64))
                }
                (None, None) => Cow::Owned(cfg.workload.generate(&mut wl_rng)),
            };
            let jobs: Vec<Job> = workload
                .iter()
                .enumerate()
                .map(|(i, s)| Job::new(JobId(i as u32), s.spec.clone(), s.at))
                .collect();
            let detail = (mode == ReportMode::Full).then(|| {
                DetailCollector::new(
                    workload.iter().map(|s| {
                        (
                            s.spec.kind.label().to_string(),
                            s.spec.class.is_malleable(),
                            s.at,
                        )
                    }),
                    mc.len(),
                )
            });
            let mut collect = Collector::new(seed, &cfg.report, detail);
            collect.register_upfront(workload.iter().map(|s| s.at));
            let intake = Intake::Fixed {
                workload,
                arrivals_seen: 0,
            };
            (intake, JobSlab::fixed(jobs), collect)
        })
    }

    /// Builds a **streaming** world: jobs are pulled incrementally from
    /// `stream` through a bounded look-ahead `window` (at most that many
    /// arrivals are scheduled ahead of simulated time) and retired from
    /// memory at their terminal phase — live memory is bounded by the
    /// in-flight job count, not the trace length. Streaming worlds are
    /// summarized-only: a full report would have to materialize per-job
    /// records, defeating the bound.
    pub fn for_stream_summarized(
        cfg: &'a ExperimentConfig,
        seed: u64,
        stream: &'a mut (dyn JobStream + 'a),
        window: usize,
    ) -> Self {
        Self::assemble(cfg, seed, |_wl_rng, _mc| {
            let intake = Intake::Stream {
                src: stream,
                pending: VecDeque::with_capacity(window.max(1)),
                window: window.max(1),
                next_id: 0,
                last_at: SimTime::ZERO,
                exhausted: false,
            };
            let collect = Collector::new(seed, &cfg.report, None);
            (intake, JobSlab::streaming(), collect)
        })
    }

    /// The one construction path: forks the master RNG (labels 1–4:
    /// workload, background, failures, control-plane faults), builds the
    /// topology, lets `intake` turn the workload stream and the topology
    /// into the intake, slab and collector, and sets up every subsystem
    /// the configuration enables.
    fn assemble(
        cfg: &'a ExperimentConfig,
        seed: u64,
        intake: impl FnOnce(SimRng, &Multicluster) -> (Intake<'a>, JobSlab, Collector),
    ) -> Self {
        let mut master = SimRng::seed_from_u64(seed);
        let wl_rng = master.fork(1);
        let bg_rng = master.fork(2);
        let failure_rng = master.fork(3);
        let fault_rng = master.fork(4);
        let mc = topology_for(cfg);
        let (intake, jobs, collect) = intake(wl_rng, &mc);
        let n_clusters = mc.len();
        let failures = cfg
            .elasticity
            .failures
            .as_ref()
            .map(|spec| FailureStream::new(spec.clone(), n_clusters as u16, failure_rng));
        let (net, files) = NetRuntime::new(cfg, n_clusters).unzip();
        World {
            cfg,
            seed,
            policies: resolve_policies(cfg),
            kis: InfoService::with_lag(cfg.elasticity.kis_lag),
            files,
            intake,
            jobs,
            queue: PlacementQueue::new(),
            collect,
            grow_messages: 0,
            shrink_messages: 0,
            bg_rng,
            bg_jobs: cfg.background.job_sampler(),
            pending_release: vec![0; n_clusters],
            idle_baseline: mc.clusters().map(|c| c.idle()).collect(),
            next_bg_local: 0,
            failures,
            ctrl: CtrlPlane::new(cfg, n_clusters, fault_rng),
            net,
            sink: None,
            scratch: Scratch::default(),
            avail_idx: AvailIndex::default(),
            started: false,
            koala_cap_memo: (0, 0),
            crash_cleanup: false,
            mc,
        }
    }

    /// The availability index's current state — aggregates and skip
    /// tallies (see [`crate::avail`]). Diagnostic surface; the
    /// index itself is maintained whether or not the scan consults it.
    pub fn avail_index(&self) -> &AvailIndex {
        &self.avail_idx
    }

    /// Installs a file catalog (for Close-to-Files experiments).
    pub fn with_files(mut self, files: FileCatalog) -> Self {
        self.files = Some(files);
        self
    }

    /// Attaches `sink`, which sees every lifecycle [`Obs`] the
    /// collector sees, at its instant — in every report mode and intake.
    /// The sink is passive: the trajectory and the report are the same
    /// with or without it.
    pub fn with_sink(mut self, sink: &'a mut (dyn FnMut(SimTime, &Obs) + 'a)) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Direct access to the multicluster state (tests and examples).
    pub fn multicluster(&self) -> &Multicluster {
        &self.mc
    }

    /// Job phases (tests).
    ///
    /// # Panics
    /// Panics for a retired job of a streaming world (fixed-intake
    /// worlds keep terminal jobs in place).
    pub fn job_phase(&self, id: JobId) -> JobPhase {
        self.jobs.get(id).expect("job retired").phase
    }

    /// High-water mark of concurrently live jobs — the streaming
    /// intake's bounded-memory witness (fixed intakes materialize the
    /// whole workload, so this equals the job count there).
    pub fn peak_live_jobs(&self) -> usize {
        self.jobs.peak_live()
    }

    /// Schedules the initial events.
    pub fn bootstrap(&mut self, engine: &mut Engine<Ev>) {
        self.started = true;
        // KIS poll first so the first arrivals see a snapshot.
        engine.schedule_at(SimTime::ZERO, Ev::KisPoll);
        self.schedule_arrivals(engine);
        engine.schedule_in(self.cfg.sched.queue_scan_period, Ev::QueueScan);
        if self.cfg.background.is_active() {
            for c in 0..self.mc.len() {
                self.schedule_bg_arrival(engine, ClusterId(c as u16));
            }
        }
        self.bootstrap_elasticity(engine);
        if self.ctrl.is_some() {
            engine.schedule_in(self.cfg.sched.retry.orphan_sweep_period, Ev::OrphanSweep);
        }
    }

    /// True when every KOALA job has reached a terminal state.
    pub fn done(&self) -> bool {
        self.intake.all_arrived() && self.queue.is_empty() && self.jobs.live() == 0
    }

    /// Runs the event loop until every job is terminal (or the engine
    /// drains or hits its horizon) and returns the report `R` — a
    /// [`SummaryReport`], or a [`RunReport`] when the world collects the
    /// per-job detail.
    ///
    /// A fresh world is bootstrapped first, and the loop pops one event
    /// before its first [`World::done`] check. A started world — a warmed
    /// prefix, a fork, a restored snapshot — checks `done()` first: a
    /// prefix that already completed broke out of its own loop the moment
    /// `done()` turned true, and pumping again would deliver one extra
    /// event the uninterrupted run never saw.
    ///
    /// # Panics
    /// Panics when `R` is [`RunReport`] and the world runs summarized.
    pub fn run_to_end<R: Report>(mut self, engine: &mut Engine<Ev>) -> R {
        if !self.started {
            self.bootstrap(engine);
            self.pump(engine);
        } else if !self.done() {
            self.pump(engine);
        }
        R::finish(self, engine)
    }

    /// The shared inner event loop: pops and handles events until the
    /// world is done or the engine drains.
    fn pump(&mut self, engine: &mut Engine<Ev>) {
        while let Some((_t, ev)) = engine.pop() {
            self.handle(engine, ev);
            if self.done() {
                break;
            }
        }
    }

    /// Runs the event loop until the next pending event would fire at
    /// or after `until` (that boundary event stays queued, so it
    /// replays identically in every fork), the world completes, or the
    /// engine drains. [`World::bootstrap`] must have been called.
    ///
    /// This is the warmup half of the warm-fork pipeline: run the
    /// shared prefix here, then fork per policy cell — by in-memory copy
    /// in [`crate::run()`]'s warm groups, or through bytes
    /// with [`World::snapshot`] and [`World::fork_with`].
    pub fn run_until(&mut self, engine: &mut Engine<Ev>, until: SimTime) {
        while engine.peek_time().is_some_and(|t| t < until) {
            let (_t, ev) = engine.pop().expect("peeked event pops");
            self.handle(engine, ev);
            if self.done() {
                break;
            }
        }
    }

    /// Re-resolves the placement and malleability policies by registry
    /// name, replacing the ones resolved from the configuration at
    /// construction. Policies are stateless (everything they decide
    /// from lives in the world), so a mid-run swap is exactly the
    /// semantics of a warm fork: the prefix ran under the old pair, the
    /// tail runs under the new.
    ///
    /// This is the *cold* arm of the warm-fork pipeline — the reference
    /// trajectory a snapshot-based fork must reproduce byte-for-byte.
    pub fn use_policies(
        &mut self,
        placement: &str,
        malleability: &str,
    ) -> Result<(), crate::policy::PolicyError> {
        let registry = PolicyRegistry::global();
        self.policies.placement = registry.placement(placement)?;
        self.policies.malleability = registry.malleability(malleability)?;
        Ok(())
    }

    /// Forks this warmed world into policy cell `cfg` by copying it in
    /// memory: all state is cloned, the placement, malleability and
    /// autoscaling policies are resolved by name from `cfg`, and a
    /// borrowed trace is re-borrowed from `cfg`. The copy continues
    /// independently of `self` — it is the in-memory twin of a
    /// [`World::snapshot`] → [`World::fork_with`] round trip, without
    /// the byte codec or a fingerprint check.
    ///
    /// The caller guarantees that `cfg` differs from the world's own
    /// configuration in `name` and the policy pair only; the warm
    /// grouping of [`crate::run()`] is that check.
    ///
    /// # Panics
    /// Panics for a streaming world (a job stream cannot be copied) and
    /// when `cfg` names an unknown policy.
    pub(crate) fn fork_clone<'b>(&self, cfg: &'b ExperimentConfig) -> World<'b> {
        let Intake::Fixed {
            workload,
            arrivals_seen,
        } = &self.intake
        else {
            panic!("a streaming world cannot be forked");
        };
        World {
            cfg,
            seed: self.seed,
            policies: resolve_policies(cfg),
            mc: self.mc.clone(),
            kis: self.kis.clone(),
            files: self.files.clone(),
            intake: Intake::Fixed {
                workload: cell_workload(cfg, workload),
                arrivals_seen: *arrivals_seen,
            },
            jobs: self.jobs.clone(),
            queue: self.queue.clone(),
            collect: self.collect.clone(),
            grow_messages: self.grow_messages,
            shrink_messages: self.shrink_messages,
            bg_rng: self.bg_rng.clone(),
            bg_jobs: cfg.background.job_sampler(),
            pending_release: self.pending_release.clone(),
            idle_baseline: self.idle_baseline.clone(),
            next_bg_local: self.next_bg_local,
            failures: self.failures.clone(),
            ctrl: self.ctrl.clone(),
            net: self.net.clone(),
            sink: None,
            scratch: Scratch::default(),
            avail_idx: self.avail_idx.clone(),
            started: self.started,
            koala_cap_memo: (0, 0),
            crash_cleanup: false,
        }
    }

    /// Handles one event.
    pub fn handle(&mut self, engine: &mut Engine<Ev>, ev: Ev) {
        match ev {
            Ev::Arrival(i) => self.on_arrival(engine, JobId(i)),
            // Never scheduled (see the variant); kept so the match stays
            // total for drivers that name every variant.
            Ev::ArrivalBatch { first, count } => {
                (first..first + count).for_each(|i| self.on_arrival(engine, JobId(i)))
            }
            Ev::QueueScan => {
                self.scan_queue(engine);
                if !self.done() {
                    engine.schedule_in(self.cfg.sched.queue_scan_period, Ev::QueueScan);
                }
            }
            Ev::KisPoll => self.on_kis_poll(engine),
            Ev::StartHeld { job, gen } => self.on_start_held(engine, job, gen),
            Ev::GrowHeld { job, gen } => self.on_grow_held(engine, job, gen),
            Ev::SyncDone { job, gen, grow } => self.on_sync_done(engine, job, gen, grow),
            Ev::ShrinkReleased { job, gen, count } => {
                self.on_shrink_released(engine, job, gen, count)
            }
            Ev::Completion { job, gen } => self.on_completion(engine, job, gen),
            Ev::BgArrival { cluster } => self.on_bg_arrival(engine, cluster),
            Ev::BgComplete { cluster, alloc } => self.on_bg_complete(engine, cluster, alloc),
            Ev::Claim { job, gen } => self.on_claim(engine, job, gen),
            Ev::AppGrowRequest { job, gen } => self.on_app_grow_request(engine, job, gen),
            Ev::NodeWithdraw { cluster, count } => self.on_node_withdraw(engine, cluster, count),
            Ev::NodeRestore { cluster, count } => self.on_node_restore(engine, cluster, count),
            Ev::MonitorSample => self.on_monitor_sample(engine),
            Ev::AutoscaleCycle => self.on_autoscale_cycle(engine),
            Ev::AutoscaleApply {
                cluster,
                grow,
                count,
            } => self.on_autoscale_apply(engine, cluster, grow, count),
            Ev::NodeCrash {
                cluster,
                count,
                repair_after,
            } => self.on_node_crash(engine, cluster, count, repair_after),
            Ev::CtrlTimeout {
                job,
                gen,
                op,
                attempt,
            } => self.on_ctrl_timeout(engine, job, gen, op, attempt),
            Ev::OrphanSweep => self.on_orphan_sweep(engine),
            Ev::TransferStart { job, gen } => self.on_transfer_start(engine, job, gen),
            Ev::TransferDone { transfer, gen } => self.on_transfer_done(engine, transfer, gen),
        }
        debug_assert!(
            self.mc.check_invariants().is_ok(),
            "cluster invariant broken"
        );
    }

    fn on_arrival(&mut self, engine: &mut Engine<Ev>, id: JobId) {
        self.admit(engine, id);
        debug_assert!(self.jobs.get(id).is_some(), "arrival for unknown job");
        self.observe(engine.now(), Obs::Arrive { job: id });
        self.queue.push_back(id);
        // "Upon receiving a job request … the scheduler uses one of the
        // placement policies to try to place job components."
        self.scan_queue(engine);
    }

    fn on_kis_poll(&mut self, engine: &mut Engine<Ev>) {
        let now = engine.now();
        // A lost poll leaves the scheduler on its stale snapshot for one
        // cycle: no management triggers either — the poll result is what
        // would have revealed new capacity.
        if self.ctrl.as_mut().is_none_or(|c| c.poll_delivered(now)) {
            self.kis.poll(now, self.mc.clusters());
            // Job management triggers (Section V-B): the poll is how KOALA
            // notices processors that became available outside its own
            // bookkeeping — typically released by background users who
            // bypass it. Only the idle delta above the already-offered
            // baseline is handed to the policies.
            self.manage_jobs(engine, None);
        }
        if !self.done() {
            engine.schedule_in(self.cfg.sched.kis_poll_period, Ev::KisPoll);
        }
    }

    /// Rebuilds `req` in place for `job`, reusing the buffer's component
    /// and file allocations (the queue scan calls this once per queued
    /// job per tick).
    fn request_for(job: &Job, req: &mut PlacementRequest) {
        let constraint = job.spec.kind.constraint();
        req.components.clear();
        req.files.clear();
        req.flexible = false;
        if let Some(comps) = &job.spec.coalloc {
            // Co-allocated rigid job: one fixed component per entry. The
            // size constraint applies to the total, which validate()
            // guarantees; components use Any so CM/FCM can pack them.
            req.components.extend(
                comps
                    .iter()
                    .map(|&c| ComponentRequest::fixed(c, appsim::SizeConstraint::Any)),
            );
            return;
        }
        let comp = match job.spec.class {
            JobClass::Rigid { size } => ComponentRequest::fixed(size, constraint),
            JobClass::Moldable { min, max } => ComponentRequest {
                min,
                max,
                preferred: max,
                constraint,
            },
            JobClass::Malleable { min, max, initial } => ComponentRequest {
                min,
                max,
                preferred: initial,
                constraint,
            },
        };
        req.components.push(comp);
        req.files.extend(
            job.spec
                .input_files
                .iter()
                .map(|&f| multicluster::FileId(f)),
        );
    }

    /// The `(smallest component minimum, summed minimums)` of the request
    /// [`World::request_for`] builds for `job`: all the availability
    /// index needs to refuse the job ([`AvailIndex::can_fit`]).
    fn placement_need(job: &Job) -> (u32, u64) {
        match &job.spec.coalloc {
            Some(comps) => (
                comps.iter().copied().min().unwrap_or(u32::MAX),
                comps.iter().map(|&c| u64::from(c)).sum(),
            ),
            None => {
                let min = job.spec.class.min_size();
                (min, u64::from(min))
            }
        }
    }

    /// Scans the placement queue head-to-tail (Section IV-A), placing
    /// whatever fits. Under PWA, the first job that does not fit triggers
    /// mandatory shrinking (Section V-B).
    ///
    /// This is the scheduling hot path: it runs on every arrival, release
    /// and poll, and under overload almost every visit is a rejection. A
    /// scan therefore costs O(queued jobs) plus the policy calls it
    /// cannot avoid: the queue is detached and walked in place (a
    /// rejected job's retry count is bumped where it sits, placed jobs
    /// are compacted out), a job the availability index refuses is
    /// rejected before its request is even built, every buffer is a
    /// reusable scratch field of the world (zero allocations in steady
    /// state), and the budget-capped availability `eff` is only
    /// recomputed when a successful placement or a PWA intervention
    /// actually invalidated it (the dirty flag).
    ///
    /// A *blocked* scan — `eff` sums to zero when it starts — costs
    /// O(clusters) plus one pass over the retry counts: see
    /// [`World::scan_blocked`].
    fn scan_queue(&mut self, engine: &mut Engine<Ev>) {
        // Detach the scratch buffers from `self` for the duration of the
        // scan (they are re-attached at the end, keeping their capacity).
        let mut avail = std::mem::take(&mut self.scratch.avail);
        avail.clear();
        match self.kis.snapshot() {
            Some(snapshot) => avail.extend_from_slice(&snapshot.idle),
            None => {
                self.scratch.avail = avail;
                return;
            }
        }
        let mut eff = std::mem::take(&mut self.scratch.eff);
        if !self.queue.is_empty() {
            if let Some(ctrl) = self.ctrl.as_mut() {
                ctrl.mask_flaky(&mut avail, engine.now());
            }
        }
        // `eff` is `avail` capped by the expansion threshold's remaining
        // headroom (live, since placements in this scan consume it); both
        // inputs only change when a placement claims processors (or a PWA
        // intervention grows running jobs), so the recomputation is gated
        // on this dirty flag.
        let mut eff_dirty = true;
        let mut pwa_handled = false;
        let threshold = self.cfg.sched.placement_retry_threshold;
        #[cfg(debug_assertions)]
        self.jobs.assert_hot_coherent();
        if !self.queue.is_empty() {
            let headroom = self.rebuild_eff(&avail, &mut eff);
            eff_dirty = false;
            if self.cfg.sched.avail_index && self.avail_idx.sum_eff() == 0 {
                self.scan_blocked(engine, threshold, headroom);
                self.scratch.avail = avail;
                self.scratch.eff = eff;
                return;
            }
        }
        let mut place_scratch = std::mem::take(&mut self.scratch.place);
        let mut req = std::mem::take(&mut self.scratch.req);
        // Nothing below touches `self.queue` until the walk is put back;
        // `reattach` asserts that in debug builds.
        let mut walk = self.queue.detach();
        while let Some(id) = walk.visit() {
            let job = self.jobs.get(id).expect("queued job is live");
            debug_assert_eq!(
                job.phase,
                JobPhase::Queued,
                "{id:?} is queued but not Queued"
            );
            let (min_need, total_need) = Self::placement_need(job);
            if eff_dirty {
                self.rebuild_eff(&avail, &mut eff);
                eff_dirty = false;
            }
            // Availability-index quick-reject: when no cluster can host
            // the job's smallest component, or the platform's total
            // headroom is below its summed minimums, every policy is
            // guaranteed to return `None` (see [`crate::avail`]) — take
            // the failure path without building the request or paying
            // for the policy walk.
            let placed =
                if self.cfg.sched.avail_index && !self.avail_idx.can_fit(min_need, total_need) {
                    self.avail_idx.note_quick_reject();
                    None
                } else {
                    Self::request_for(self.jobs.get(id).expect("queued job is live"), &mut req);
                    let files = self.files.as_ref();
                    let policy = &self.policies.placement;
                    policy.place_in(&req, &mut eff, &mut place_scratch, files)
                };
            match placed {
                Some(placement) => {
                    // The policy deducted its grant from `eff` (and a
                    // claim below may change the live budget): recompute
                    // before the next job either way.
                    eff_dirty = true;
                    // Deferred claiming: when the job must stage files
                    // first, the processors are NOT taken now — the claim
                    // fires close to the estimated start (Section IV-A's
                    // claiming policy). Single-component jobs only (the
                    // co-allocator always reserves).
                    if let ClaimingPolicy::Deferred { margin } = self.cfg.sched.claiming {
                        if placement.len() == 1 {
                            let cp = placement[0];
                            // Under the contended network, *measured*
                            // transfers decide when the claim fires
                            // (the margin is an estimator knob with no
                            // meaning there); otherwise the catalog's
                            // closed-form estimate schedules it.
                            let networked = self.net.is_some();
                            let stage = if networked {
                                simcore::SimDuration::ZERO
                            } else {
                                self.staging_time(
                                    self.jobs.get(id).expect("placed job"),
                                    cp.cluster,
                                )
                            };
                            let divert = if networked {
                                self.staging_required(id, cp.cluster)
                            } else {
                                !stage.is_zero()
                            };
                            if divert {
                                walk.remove_current();
                                let job = self.jobs.get_mut(id).expect("placed job");
                                job.phase = JobPhase::Staging;
                                job.cluster = Some(cp.cluster);
                                job.pending_claim = Some(vec![(cp.cluster, cp.size)]);
                                let gen = job.gen;
                                self.jobs.sync_hot(id);
                                let place = Obs::Place {
                                    job: id,
                                    cluster: cp.cluster,
                                    procs: cp.size,
                                    components: 1,
                                };
                                self.observe(engine.now(), place);
                                if networked {
                                    engine.schedule_now(Ev::TransferStart { job: id, gen });
                                } else {
                                    let delay = simcore::SimDuration::from_millis(
                                        stage.as_millis().saturating_sub(margin.as_millis()),
                                    );
                                    engine.schedule_in(delay, Ev::Claim { job: id, gen });
                                }
                                continue;
                            }
                        }
                    }
                    // The claim runs against *live* state; a stale
                    // snapshot can make it fail, which counts as a
                    // failed placement try (the job stays queued).
                    let mut got = std::mem::take(&mut self.scratch.claims);
                    if self.claim(
                        id,
                        placement.iter().map(|cp| (cp.cluster, cp.size)),
                        &mut got,
                    ) {
                        for &(c, _, size) in &got {
                            avail[c.index()] = avail[c.index()].saturating_sub(size);
                        }
                        walk.remove_current();
                        self.commit_placement(engine, id, &got);
                    } else if walk.fail_current(threshold) {
                        self.fail_submission(engine.now(), id);
                    }
                    self.scratch.claims = got;
                }
                None => {
                    if self.cfg.sched.approach == Approach::Pwa && !pwa_handled {
                        pwa_handled = true;
                        let headroom = self.koala_headroom();
                        self.pwa_make_room(engine, id, headroom);
                        // PWA may have grown running jobs on the spot,
                        // consuming expansion-threshold headroom.
                        eff_dirty = true;
                    }
                    if walk.fail_current(threshold) {
                        self.fail_submission(engine.now(), id);
                    }
                }
            }
        }
        self.queue.reattach(walk);
        self.scratch.avail = avail;
        self.scratch.eff = eff;
        self.scratch.place = place_scratch;
        self.scratch.req = req;
    }

    /// Fills `eff` with the scan's availability `avail` capped by the
    /// expansion threshold's remaining headroom, rebuilds the
    /// availability index over it, and returns the headroom.
    fn rebuild_eff(&mut self, avail: &[u32], eff: &mut Vec<u32>) -> u32 {
        let headroom = self.koala_headroom();
        eff.clear();
        eff.extend(avail.iter().map(|&a| a.min(headroom)));
        self.avail_idx.rebuild(eff);
        headroom
    }

    /// A blocked scan: the queue is not empty and `eff` sums to zero, so
    /// the index refuses every queued job (each needs at least one
    /// processor). Within one scan `eff` can only shrink: a placement
    /// needs room, PWA's grows consume headroom, and the processors its
    /// shrinks free come back only at a later [`Ev::ShrinkReleased`].
    /// The walk's outcome is therefore fixed before it starts, and is
    /// taken in one pass, in the order the walk would take it:
    /// `pwa_make_room` for the head (PWA only), one failed try per
    /// queued job, then the submissions the retry threshold failed, in
    /// queue order. No job is looked up and no request is built.
    fn scan_blocked(&mut self, engine: &mut Engine<Ev>, threshold: u32, headroom: u32) {
        #[cfg(debug_assertions)]
        for id in self.queue.scan_order() {
            let job = self.jobs.get(id).expect("queued job is live");
            debug_assert_eq!(
                job.phase,
                JobPhase::Queued,
                "{id:?} is queued but not Queued"
            );
            debug_assert!(
                Self::placement_need(job).1 > 0,
                "{id:?} needs no processors"
            );
        }
        let head = self.queue.head().expect("a blocked scan has a queued job");
        let mut walk = self.queue.detach();
        if self.cfg.sched.approach == Approach::Pwa {
            self.pwa_make_room(engine, head, headroom);
        }
        let mut failed = std::mem::take(&mut self.scratch.failed);
        let tried = walk.fail_rest(threshold, &mut failed);
        self.avail_idx.note_blocked_scan(tried as u64);
        let now = engine.now();
        for &id in &failed {
            self.fail_submission(now, id);
        }
        self.queue.reattach(walk);
        self.scratch.failed = failed;
    }

    /// A failed placement try outside the queue scan: a claim that lost
    /// its race after the job went back to the queue.
    fn fail_try(&mut self, now: SimTime, id: JobId) {
        if self
            .queue
            .record_failed_try(id, self.cfg.sched.placement_retry_threshold)
        {
            self.fail_submission(now, id);
        }
    }

    /// The retry threshold failed `id`'s submission; it has already left
    /// the queue.
    fn fail_submission(&mut self, now: SimTime, id: JobId) {
        let job = self.jobs.get_mut(id).expect("failing job is live");
        job.phase = JobPhase::Failed;
        job.gen.bump(); // invalidate every remaining event for this job
        self.jobs.sync_hot(id);
        self.observe(now, Obs::PlacementFailed { job: id });
        self.jobs.retire(id);
    }

    /// Claims `components` (`(cluster, size)` each) for job `id` against
    /// live cluster state, filling `got` (cleared first) with one
    /// `(cluster, allocation, size)` per component. Co-allocated claims
    /// are all-or-nothing, as in KOALA's co-allocator: on the first
    /// failure what was already claimed is released and `false`
    /// returned.
    fn claim(
        &mut self,
        id: JobId,
        components: impl Iterator<Item = (ClusterId, u32)>,
        got: &mut Vec<(ClusterId, AllocId, u32)>,
    ) -> bool {
        got.clear();
        for (cluster, size) in components {
            match self
                .mc
                .cluster_mut(cluster)
                .allocate(AllocOwner::Koala(id.0 as u64), size)
            {
                Ok(alloc) => got.push((cluster, alloc, size)),
                Err(_) => {
                    for &(c, alloc, _) in got.iter() {
                        self.mc.cluster_mut(c).release(alloc).expect("just claimed");
                    }
                    return false;
                }
            }
        }
        true
    }

    fn commit_placement(
        &mut self,
        engine: &mut Engine<Ev>,
        id: JobId,
        components: &[(ClusterId, AllocId, u32)],
    ) {
        let now = engine.now();
        let total: u32 = components.iter().map(|&(_, _, s)| s).sum();
        let (cluster, alloc, size) = components[0];
        let job = self.jobs.get_mut(id).expect("placed job is live");
        job.phase = JobPhase::Starting;
        job.cluster = Some(cluster);
        job.alloc = Some(alloc);
        job.extra_allocs = components[1..].iter().map(|&(c, a, _)| (c, a)).collect();
        if let JobClass::Malleable { min, max, .. } = job.spec.class {
            debug_assert!(
                job.extra_allocs.is_empty(),
                "malleable jobs are single-cluster"
            );
            let dynaco = Dynaco::new(min, max, job.spec.kind.constraint(), size);
            job.runner = Some(MRunner::new(dynaco, size));
        }
        let gen = job.gen;
        self.jobs.sync_hot(id);
        let place = Obs::Place {
            job: id,
            cluster,
            procs: total,
            components: components.len() as u32,
        };
        self.observe(now, place);
        if self.staging_required(id, cluster) {
            // Bandwidth-true staging: the GRAM submission waits until
            // the input transfers land. The allocation is held through
            // the whole staging window — exactly the idle-processor
            // cost the deferred claiming policy exists to avoid.
            engine.schedule_now(Ev::TransferStart { job: id, gen });
        } else {
            let delay = self.cfg.sched.gram.batch_submit_time(total);
            self.send_ctrl(engine, id, CtrlOp::Start, delay, 0);
        }
        for &(c, _, _) in components {
            self.sync_baseline(c);
        }
        self.touch_util(now);
    }

    fn on_start_held(&mut self, engine: &mut Engine<Ev>, id: JobId, gen: Generation) {
        let now = engine.now();
        let mc = &self.mc;
        let Some(job) = self.jobs.current(id, gen, JobPhase::Starting) else {
            return;
        };
        job.phase = JobPhase::Running;
        job.started = Some(now);
        let size = held_procs(mc, job);
        // Co-allocated jobs pay the wide-area communication penalty per
        // additional cluster spanned — the inefficiency the CM policies
        // minimize.
        let clusters_spanned = 1 + job
            .extra_allocs
            .iter()
            .map(|&(c, _)| c)
            .filter(|&c| Some(c) != job.cluster)
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        let penalty = 1.0 + self.cfg.sched.coalloc_penalty * (clusters_spanned as f64 - 1.0);
        // Heterogeneous clusters: faster nodes divide the effective work
        // scale (for co-allocated jobs the slowest spanned cluster
        // bounds the rate, as in any BSP-style code).
        let speed = std::iter::once(job.cluster.expect("an executing job was placed"))
            .chain(job.extra_allocs.iter().map(|&(c, _)| c))
            .map(|c| mc.cluster(c).spec().speed_factor)
            .fold(f64::INFINITY, f64::min)
            .max(1e-6);
        job.progress = Some(appsim::Progress::start(
            now,
            size,
            job.spec.work_scale * penalty / speed,
        ));
        self.jobs.sync_hot(id);
        self.observe(now, Obs::Start { job: id, size });
        self.schedule_completion(engine, id);
        self.schedule_initiative(engine, id);
    }

    fn schedule_completion(&mut self, engine: &mut Engine<Ev>, id: JobId) {
        let job = self.jobs.get_mut(id).expect("running job is live");
        let remaining = job
            .progress
            .as_ref()
            .expect("running job has progress")
            .remaining_time(&job.model)
            .expect("not paused when scheduling completion");
        let gen = job.gen;
        // One extra millisecond absorbs the round-to-millisecond error of
        // `remaining` so the event never fires before the work is done.
        let pad = simcore::SimDuration::from_millis(1);
        engine.schedule_in(remaining + pad, Ev::Completion { job: id, gen });
    }

    /// Offers the *newly available* processors of one cluster (the idle
    /// delta above the already-offered baseline) to its running malleable
    /// jobs, respecting the local-user reserve. This is the growth
    /// procedure trigger of Section V-B; the offered amount is the
    /// paper's `growValue`.
    fn offer_new_capacity(&mut self, engine: &mut Engine<Ev>, cluster: ClusterId) {
        let idle = self.mc.cluster(cluster).idle();
        let baseline = self.idle_baseline[cluster.index()];
        let new = idle.saturating_sub(baseline);
        // Everything at or below the current idle level now counts as
        // considered, whether jobs accept it or not — declined capacity
        // is not re-offered until it is released again.
        self.idle_baseline[cluster.index()] = idle;
        let reserve_room = idle.saturating_sub(self.cfg.sched.grow_reserve);
        // Usually nothing new became idle: skip the headroom sums then.
        let room = new.min(reserve_room);
        if room > 0 {
            let grow_value = room.min(self.koala_headroom());
            if grow_value > 0 {
                self.grow_cluster(engine, cluster, grow_value);
            }
        }
    }

    /// Runs the policy's growth procedure with an explicit `grow_value`.
    fn grow_cluster(&mut self, engine: &mut Engine<Ev>, cluster: ClusterId, grow_value: u32) {
        let now = engine.now();
        let mut views = std::mem::take(&mut self.scratch.views);
        self.running_views_into(cluster, true, &mut views);
        if views.is_empty() {
            self.scratch.views = views;
            return;
        }
        let jobs = &mut self.jobs;
        let mut accept = |id, offered| jobs.runner_mut(id).offer_grow(offered);
        let outcome = self
            .policies
            .malleability
            .run_grow(&views, grow_value, &mut accept);
        self.scratch.views = views;
        self.grow_messages += outcome.messages as u64;
        for op in &outcome.ops {
            self.commit_grow(engine, op.job, cluster, op.accepted, op.offered);
        }
        if !outcome.ops.is_empty() {
            self.touch_util(now);
            self.sync_baseline(cluster);
        }
    }

    /// Commits a grow offer job `id` accepted: the stubs extend its
    /// allocation on `cluster` from submission (they occupy nodes until
    /// they run), and the stub batch goes to GRAM.
    fn commit_grow(
        &mut self,
        engine: &mut Engine<Ev>,
        id: JobId,
        cluster: ClusterId,
        accepted: u32,
        offered: u32,
    ) {
        // The accepted offer made the runner busy: no shrink room.
        self.jobs.sync_hot(id);
        let grow = Obs::Grow {
            job: id,
            accepted,
            offered,
        };
        self.observe(engine.now(), grow);
        let job = self.jobs.get(id).expect("growing job is live");
        let alloc = job.alloc.expect("running job has an allocation");
        self.mc
            .cluster_mut(cluster)
            .grow(alloc, accepted)
            .expect("grows are bounded by the idle count");
        let delay = self.cfg.sched.gram.batch_submit_time(accepted);
        self.send_ctrl(engine, id, CtrlOp::Grow, delay, 0);
    }

    /// Processors KOALA may still take (anywhere) before hitting the
    /// expansion threshold, the Section V-B cap on its own share: "a
    /// threshold is set over which KOALA never expands the total set of
    /// the jobs it manages". One pass over the clusters reads the
    /// platform's capacity and KOALA's holdings; the cap itself is
    /// memoized per capacity.
    fn koala_headroom(&mut self) -> u32 {
        let (total, held) = self.mc.clusters().fold((0, 0), |(t, k), c| {
            (t + c.capacity(), k + c.used_by_koala())
        });
        if self.koala_cap_memo.0 != total {
            let cap = (total as f64 * self.cfg.sched.koala_share).floor() as u32;
            self.koala_cap_memo = (total, cap);
        }
        self.koala_cap_memo.1.saturating_sub(held)
    }

    /// Clamps the offered-idle baseline after consumption so future
    /// releases are measured against the real idle level.
    fn sync_baseline(&mut self, cluster: ClusterId) {
        let idle = self.mc.cluster(cluster).idle();
        let b = &mut self.idle_baseline[cluster.index()];
        *b = (*b).min(idle);
    }

    fn on_grow_held(&mut self, engine: &mut Engine<Ev>, id: JobId, gen: Generation) {
        let Some(job) = self.jobs.current(id, gen, JobPhase::Running) else {
            return;
        };
        let runner = job.runner.as_mut().expect("grow on malleable job");
        if runner.submitting() == 0 {
            // Duplicate delivery (the original already consumed the
            // stubs) or the grow was aborted after a timeout — drop
            // idempotently. Unreachable with faults off: the single
            // delivery always finds its stubs in flight.
            return;
        }
        let old = runner.dynaco.size();
        let added = runner.stubs_held();
        let new = runner.held();
        debug_assert_eq!(new, old + added);
        // All resources held: the application suspends for recruitment
        // and data redistribution — the only non-overlapped cost.
        let delay =
            self.cfg.sched.gram.recruit_time(added) + self.cfg.sched.reconfig.grow_cost(old, new);
        self.suspend_for_sync(engine, id, CtrlOp::RecruitSync, delay, added);
    }

    /// Suspends running job `id` for a reconfiguration that moves
    /// `procs` processors: its progress pauses (the bumped generation
    /// invalidates the pending completion), the sync `op` is sent, due
    /// after `delay`, and the redistribution traffic opens.
    fn suspend_for_sync(
        &mut self,
        engine: &mut Engine<Ev>,
        id: JobId,
        op: CtrlOp,
        delay: SimDuration,
        procs: u32,
    ) {
        let job = self.jobs.get_mut(id).expect("reconfiguring job is live");
        job.progress
            .as_mut()
            .expect("a reconfiguring job was running, so its progress exists")
            .pause(engine.now(), &job.model);
        job.phase = JobPhase::Reconfiguring;
        job.gen.bump();
        let cluster = job.cluster;
        self.jobs.sync_hot(id);
        self.send_ctrl(engine, id, op, delay, 0);
        if let Some(c) = cluster {
            self.open_reconfig_traffic(engine, id, c, procs);
        }
    }

    /// PWA, Section V-B: queued job `id` cannot be placed. Pick the
    /// cluster that can yield the most processors; if shrinking running
    /// malleable jobs there can make room for the job's minimum size,
    /// mandatorily shrink. Otherwise grow running jobs instead.
    /// `headroom` is KOALA's current [`World::koala_headroom`]; nothing
    /// below mutates state before it is read, so it is read once.
    fn pwa_make_room(&mut self, engine: &mut Engine<Ev>, id: JobId, headroom: u32) {
        let min_needed = self
            .jobs
            .get(id)
            .expect("queued job is live")
            .spec
            .class
            .min_size();
        // Evaluate each cluster's potential: live idle + in-flight
        // releases + what mandatory shrinks could still reclaim.
        let mut best: Option<(u32, usize)> = None;
        for c in 0..self.mc.len() {
            let cluster = ClusterId(c as u16);
            // Idle processors usable by KOALA (cap headroom applies);
            // shrinking running KOALA jobs frees headroom 1:1, so the
            // shrinkable amount is usable in full.
            let usable_idle = self.mc.cluster(cluster).idle().min(headroom);
            let potential = usable_idle + self.pending_release[c] + self.shrinkable_on(cluster);
            if best.is_none_or(|(b, _)| potential > b) {
                best = Some((potential, c));
            }
        }
        let Some((potential, c)) = best else {
            return;
        };
        let cluster = ClusterId(c as u16);
        if potential < min_needed {
            // "If it is however impossible to get enough available
            // processors … then the running malleable jobs are
            // considered for growing."
            self.offer_new(engine, None);
            return;
        }
        let covered = self.mc.cluster(cluster).idle().min(headroom) + self.pending_release[c];
        if covered >= min_needed {
            return; // in-flight releases will make room; just wait.
        }
        let shortfall = min_needed - covered;
        self.shrink_cluster(engine, cluster, shortfall);
    }

    /// Runs the policy's mandatory-shrink procedure on one cluster.
    fn shrink_cluster(&mut self, engine: &mut Engine<Ev>, cluster: ClusterId, value: u32) {
        let now = engine.now();
        let mut views = std::mem::take(&mut self.scratch.views);
        self.running_views_into(cluster, false, &mut views);
        if views.is_empty() || value == 0 {
            self.scratch.views = views;
            return;
        }
        let jobs = &mut self.jobs;
        let mut accept = |id, requested| jobs.runner_mut(id).request_shrink(requested, true);
        let outcome = self
            .policies
            .malleability
            .run_shrink(&views, value, &mut accept);
        self.scratch.views = views;
        self.shrink_messages += outcome.messages as u64;
        for op in &outcome.ops {
            let shrink = Obs::Shrink {
                job: op.job,
                released: op.released,
                requested: op.requested,
            };
            self.observe(now, shrink);
            self.pending_release[cluster.index()] += op.released;
            let job = self.jobs.get(op.job).expect("shrinking job is live");
            let runner = job
                .runner
                .as_ref()
                .expect("shrink ops target only malleable jobs");
            let old = runner.dynaco.size();
            let new = old - op.released;
            let delay =
                self.cfg.sched.gram.message_latency + self.cfg.sched.reconfig.shrink_cost(old, new);
            self.suspend_for_sync(engine, op.job, CtrlOp::ShrinkSync, delay, op.released);
        }
    }

    fn on_sync_done(&mut self, engine: &mut Engine<Ev>, id: JobId, gen: Generation, grow: bool) {
        let now = engine.now();
        let Some(job) = self.jobs.current(id, gen, JobPhase::Reconfiguring) else {
            return;
        };
        let runner = job
            .runner
            .as_mut()
            .expect("reconfiguring implies malleable");
        let released = if grow {
            runner.grow_complete();
            0
        } else {
            runner.shrunk_feedback()
        };
        let new_size = runner.dynaco.size();
        let progress = job.progress.as_mut().expect("running job");
        progress.resize(now, new_size, &job.model);
        progress.resume(now, &job.model);
        job.phase = JobPhase::Running;
        self.jobs.sync_hot(id);
        let resume = Obs::Resume {
            job: id,
            size: new_size,
            grow,
        };
        self.observe(now, resume);
        self.schedule_completion(engine, id);
        self.schedule_initiative(engine, id);
        if released > 0 {
            let job = self.jobs.get_mut(id).expect("job finishing a sync is live");
            job.release_since = Some(now);
            let delay = self.cfg.sched.gram.batch_release_time(released);
            self.send_ctrl(engine, id, CtrlOp::Release { count: released }, delay, 0);
        }
    }

    fn on_shrink_released(
        &mut self,
        engine: &mut Engine<Ev>,
        id: JobId,
        gen: Generation,
        count: u32,
    ) {
        let Some(job) = self.jobs.get(id) else {
            return;
        };
        if !job.gen.matches(gen) {
            return;
        }
        let runner = job
            .runner
            .as_ref()
            .expect("only malleable jobs release processors");
        if runner.releasing() == 0 {
            // Duplicate delivery, or the orphaned-allocation sweep
            // already reclaimed this batch — drop idempotently.
            // Unreachable with faults off.
            return;
        }
        self.release_landed(engine, id, count);
    }

    /// `count` processors of job `id`'s release batch come back — its
    /// release was delivered, or the orphan sweep reclaimed it: the
    /// runner confirms the batch, the allocation shrinks, the processors
    /// leave the shrink pipeline and job management learns of them.
    fn release_landed(&mut self, engine: &mut Engine<Ev>, id: JobId, count: u32) {
        let job = self.jobs.get_mut(id).expect("a releasing job is live");
        let cluster = job.cluster.expect("a releasing job was placed");
        let alloc = job.alloc.expect("a releasing job holds its allocation");
        let runner = job.runner.as_mut().expect("only malleable jobs release");
        runner.release_confirmed();
        job.release_since = None;
        self.jobs.sync_hot(id);
        self.mc
            .cluster_mut(cluster)
            .shrink(alloc, count)
            .expect("releasing held processors");
        self.pending_release[cluster.index()] =
            self.pending_release[cluster.index()].saturating_sub(count);
        self.touch_util(engine.now());
        self.capacity_freed(engine, cluster);
    }

    fn on_completion(&mut self, engine: &mut Engine<Ev>, id: JobId, gen: Generation) {
        let now = engine.now();
        let Some(job) = self.jobs.current(id, gen, JobPhase::Running) else {
            return;
        };
        if let Some(p) = job.progress.as_mut() {
            p.advance(now, &job.model);
            debug_assert!(p.is_complete(), "completion event fired early");
        }
        let cluster = job.cluster.expect("a completing job was placed");
        let alloc = job
            .alloc
            .take()
            .expect("a completing job holds its allocation");
        let extras = std::mem::take(&mut job.extra_allocs);
        let runner = job.runner.as_mut();
        cancel_malleability(runner, &mut self.pending_release, Some(cluster));
        job.release_since = None;
        job.phase = JobPhase::Completed;
        job.gen.bump(); // invalidate every remaining event for this job
        self.jobs.sync_hot(id);
        self.observe(now, Obs::Complete { job: id });
        // Terminal: the slab drops the job in streaming mode, bounding
        // live memory to the in-flight job count.
        self.jobs.retire(id);
        self.release_job(engine, cluster, alloc, &extras);
    }

    /// A job lets go of its whole allocation — `alloc` on its primary
    /// `cluster` and every co-allocated component — and job management
    /// learns of the freed capacity through [`World::capacity_freed`]:
    /// the primary cluster first, then each other component cluster
    /// once, in component order.
    fn release_job(
        &mut self,
        engine: &mut Engine<Ev>,
        cluster: ClusterId,
        alloc: AllocId,
        extras: &[(ClusterId, AllocId)],
    ) {
        for &(c, a) in std::iter::once(&(cluster, alloc)).chain(extras) {
            self.mc
                .cluster_mut(c)
                .release(a)
                .expect("a job holds its allocation until it lets go");
        }
        self.touch_util(engine.now());
        self.capacity_freed(engine, cluster);
        for (i, &(c, _)) in extras.iter().enumerate() {
            if c != cluster && extras[..i].iter().all(|&(d, _)| d != c) {
                self.capacity_freed(engine, c);
            }
        }
    }

    /// KOALA-visible capacity change: trigger job management
    /// (Section V-B).
    fn capacity_freed(&mut self, engine: &mut Engine<Ev>, cluster: ClusterId) {
        self.manage_jobs(engine, Some(cluster));
    }

    /// Job management (Section V-B) after capacity came back on
    /// `cluster`, or anywhere (`None`, after a KIS poll). Under PRA
    /// running applications take precedence and the queue gets whatever
    /// they decline; under PWA waiting applications do: scan first, and
    /// only newly freed capacity no waiting job claims goes to the
    /// running jobs.
    fn manage_jobs(&mut self, engine: &mut Engine<Ev>, cluster: Option<ClusterId>) {
        match self.cfg.sched.approach {
            Approach::Pra => {
                self.offer_new(engine, cluster);
                self.scan_queue(engine);
            }
            Approach::Pwa => {
                self.scan_queue(engine);
                if self.queue.is_empty() {
                    self.offer_new(engine, cluster);
                }
            }
        }
    }

    /// [`World::offer_new_capacity`] on `cluster`, or on every cluster
    /// in id order.
    fn offer_new(&mut self, engine: &mut Engine<Ev>, cluster: Option<ClusterId>) {
        match cluster {
            Some(c) => self.offer_new_capacity(engine, c),
            None => {
                for c in 0..self.mc.len() {
                    self.offer_new_capacity(engine, ClusterId(c as u16));
                }
            }
        }
    }

    fn on_bg_arrival(&mut self, engine: &mut Engine<Ev>, cluster: ClusterId) {
        let now = engine.now();
        let sample = self.bg_jobs.sample(&mut self.bg_rng);
        self.next_bg_local += 1;
        let lrm = self.mc.lrm_mut(cluster);
        let job = LocalJob {
            id: multicluster::LocalJobId(self.next_bg_local),
            size: sample.size,
            duration: sample.duration,
            submitted: now,
        };
        match lrm.submit_local(job) {
            SubmitOutcome::Started(alloc) => {
                engine.schedule_in(sample.duration, Ev::BgComplete { cluster, alloc });
                self.touch_util(now);
                self.sync_baseline(cluster);
            }
            SubmitOutcome::Queued | SubmitOutcome::Impossible => {}
        }
        self.schedule_bg_arrival(engine, cluster);
    }

    /// Draws the next background arrival at `cluster` and schedules it.
    fn schedule_bg_arrival(&mut self, engine: &mut Engine<Ev>, cluster: ClusterId) {
        let cap = self.mc.cluster(cluster).capacity();
        let background = &self.cfg.background;
        if let Some(gap) = background.sample_interarrival_for(&mut self.bg_rng, cap) {
            engine.schedule_in(gap, Ev::BgArrival { cluster });
        }
    }

    fn on_bg_complete(&mut self, engine: &mut Engine<Ev>, cluster: ClusterId, alloc: AllocId) {
        let now = engine.now();
        let lrm = self.mc.lrm_mut(cluster);
        // A node crash may have destroyed the allocation outright (the
        // local job died with its last node) — only release what is
        // still live. Allocation ids are never reused, so a missing id
        // can only mean the crash took it.
        if lrm.cluster().alloc_size(alloc).is_some() {
            lrm.complete_local(alloc);
        }
        // FIFO restart of queued local jobs.
        for (job, alloc) in lrm.start_queued() {
            engine.schedule_in(job.duration, Ev::BgComplete { cluster, alloc });
        }
        self.touch_util(now);
        self.sync_baseline(cluster);
        // KOALA does NOT see this until its next KIS poll — the paper's
        // motivation for the polling design.
    }

    /// The postponed claim fires: take the processors now. A failure
    /// (background users got there first during staging) sends the job
    /// back to the placement queue — the risk the claiming policy trades
    /// against holding processors idle through the whole staging window.
    fn on_claim(&mut self, engine: &mut Engine<Ev>, id: JobId, gen: Generation) {
        let Some(job) = self.jobs.current(id, gen, JobPhase::Staging) else {
            return;
        };
        let components = job
            .pending_claim
            .take()
            .expect("staging job has a pending claim");
        let mut got = std::mem::take(&mut self.scratch.claims);
        if self.claim(id, components.into_iter(), &mut got) {
            self.commit_placement(engine, id, &got);
        } else {
            let job = self.jobs.get_mut(id).expect("staging job is live");
            job.phase = JobPhase::Queued;
            job.cluster = None;
            self.jobs.sync_hot(id);
            self.queue.push_back(id);
            self.fail_try(engine.now(), id);
        }
        self.scratch.claims = got;
    }

    /// Schedules the job's pending grow initiative, if any, for the
    /// instant its progress will cross the configured boundary. Called
    /// whenever the job (re)enters steady execution; the generation
    /// stamp invalidates it on the next reconfiguration.
    fn schedule_initiative(&mut self, engine: &mut Engine<Ev>, id: JobId) {
        let job = self.jobs.get(id).expect("running job is live");
        let (Some(&gi), Some(progress)) = (job.spec.initiative.as_deref(), job.progress.as_ref())
        else {
            return;
        };
        if job.initiative_fired {
            return;
        }
        let delay = if progress.done() >= gi.at_progress {
            SimDuration::ZERO
        } else {
            // Time until the boundary at the current rate: the remaining
            // fraction scaled by the full-work time at the current size.
            let Some(full) = progress.remaining_time(&job.model) else {
                return;
            };
            let frac = (gi.at_progress - progress.done()) / (1.0 - progress.done()).max(1e-12);
            SimDuration::from_secs_f64(full.as_secs_f64() * frac)
        };
        engine.schedule_in(
            delay,
            Ev::AppGrowRequest {
                job: id,
                gen: job.gen,
            },
        );
    }

    /// The application asks for more processors (voluntary from the
    /// scheduler's side: it grants only what is free under the reserve
    /// and the expansion threshold, never shrinking other jobs — the
    /// conservative answer to the design question raised in Section
    /// VIII).
    fn on_app_grow_request(&mut self, engine: &mut Engine<Ev>, id: JobId, gen: Generation) {
        let now = engine.now();
        let Some(job) = self.jobs.current(id, gen, JobPhase::Running) else {
            return;
        };
        if job.initiative_fired {
            return;
        }
        job.initiative_fired = true;
        let Some(&gi) = job.spec.initiative.as_deref() else {
            return;
        };
        let cluster = job.cluster.expect("running job placed");
        let idle = self.mc.cluster(cluster).idle();
        let grant = gi
            .extra
            .min(idle.saturating_sub(self.cfg.sched.grow_reserve))
            .min(self.koala_headroom());
        if grant == 0 {
            return;
        }
        let job = self.jobs.get_mut(id).expect("running job is live");
        let Some(runner) = job.runner.as_mut() else {
            return;
        };
        self.grow_messages += 1;
        let accepted = runner.offer_grow(grant);
        if accepted == 0 {
            return;
        }
        self.commit_grow(engine, id, cluster, accepted, grant);
        self.touch_util(now);
        self.sync_baseline(cluster);
    }

    /// Malleable jobs running on `cluster` that can currently receive
    /// requests, in slot order. The running index yields exactly the
    /// jobs running there, so this costs O(jobs running on `cluster`),
    /// not O(slab).
    fn malleable_running_on(&self, cluster: ClusterId) -> impl Iterator<Item = &Job> + use<'_, 'a> {
        #[cfg(debug_assertions)]
        self.jobs.assert_hot_coherent();
        self.jobs
            .running_slots_on(cluster)
            .iter()
            .filter_map(|&slot| self.jobs.job_at(slot as usize))
            .filter(|j| j.eligible_for_malleability())
            // A crash can destroy a job's allocation outright; until its
            // victim cleanup runs (later in the same event), the job
            // still looks Running but can no longer receive grow/shrink
            // requests — its allocation handle dangles. Outside that
            // window every Running job's allocation is live.
            .filter(move |j| {
                let live = |a| self.mc.cluster(cluster).alloc_size(a).is_some();
                match j.alloc {
                    Some(a) if self.crash_cleanup => live(a),
                    Some(a) => {
                        debug_assert!(live(a), "{:?} runs on a dead allocation", j.id);
                        true
                    }
                    None => false,
                }
            })
    }

    /// Fills `out` with the scheduler-side views of the malleable jobs
    /// running on `cluster` that can currently receive requests.
    /// `for_grow` filters to jobs below their maximum ("as long as at
    /// least one running malleable job can still be grown"); otherwise
    /// to jobs above their minimum. The views come oldest first, sorted
    /// by `(started, job)` — the order the malleability policies walk —
    /// so a policy borrows them instead of copying and sorting. `out` is
    /// a detached scratch buffer ([`World::scratch_views`]): cleared
    /// here, re-attached by the caller, so steady-state calls allocate
    /// nothing.
    fn running_views_into(&self, cluster: ClusterId, for_grow: bool, out: &mut Vec<RunningView>) {
        out.clear();
        out.extend(self.malleable_running_on(cluster).filter_map(|j| {
            let runner = j.runner.as_ref().expect("eligible implies runner");
            let size = runner.dynaco.size();
            let (min, max) = (runner.dynaco.min(), runner.dynaco.max());
            let useful = if for_grow { size < max } else { size > min };
            useful.then_some(RunningView {
                job: j.id,
                started: j.started.expect("running job started"),
                size,
                min,
                max,
            })
        }));
        // In place (no buffer); the keys are distinct, so unstable is
        // exact.
        out.sort_unstable_by_key(|v| (v.started, v.job));
    }

    /// Processors mandatory shrinks could reclaim on `cluster`: the sum
    /// of `size − min` over the views [`World::running_views_into`]
    /// would build for shrinking. That is the slab's per-cluster
    /// shrink-room total, O(1) — except inside a crash's cleanup, where
    /// a victim can still look Running on a destroyed allocation and
    /// only the walk's liveness check excludes it.
    fn shrinkable_on(&self, cluster: ClusterId) -> u32 {
        if self.crash_cleanup {
            return self
                .malleable_running_on(cluster)
                .map(JobSlab::shrink_room_of)
                .sum();
        }
        #[cfg(debug_assertions)]
        self.jobs.assert_hot_coherent();
        self.jobs.shrink_room_on(cluster)
    }

    fn touch_util(&mut self, now: SimTime) {
        self.collect.utilization(now, &self.mc);
    }

    /// Reports one lifecycle transition: the collector folds it into
    /// the report, then the caller's sink (if any) sees it. Called
    /// while the observed job is still live (before a terminal
    /// transition retires it).
    fn observe(&mut self, now: SimTime, obs: Obs) {
        let jobs = &self.jobs;
        self.collect.observe(now, &obs, |id| jobs.slot_of(id));
        if let Some(sink) = self.sink.as_mut() {
            sink(now, &obs);
        }
    }

    /// Finalizes the report: the run's [`SummaryReport`] (the one
    /// finalization path) plus the per-job detail.
    ///
    /// # Panics
    /// Panics in summarized mode — use [`World::finish_summary`].
    pub fn finish(mut self, engine: &Engine<Ev>) -> RunReport {
        let detail = self
            .collect
            .detail
            .take()
            .expect("world runs summarized: report a SummaryReport (finish_summary)");
        detail.finish(self.finish_summary(engine))
    }

    /// Finalizes the summary report (a full world's detail is dropped).
    pub fn finish_summary(mut self, engine: &Engine<Ev>) -> SummaryReport {
        // End-of-run accounting check, compiled into release builds too
        // (the per-event check in `handle` is debug-only): every
        // cluster's incremental occupancy counters must still agree with
        // a recount of its allocations. O(nodes + allocations), once per
        // run.
        self.mc
            .check_invariants()
            .expect("cluster occupancy counters must match a recount at the end of a run");
        // Once every job is terminal, no shrink release can be in flight.
        debug_assert!(
            !self.done() || self.pending_release.iter().all(|&p| p == 0),
            "release pipeline leaked: {:?}",
            self.pending_release
        );
        let now = engine.now();
        let net = self.final_net_stats(now);
        let mut s = self
            .collect
            .summary
            .finish(self.cfg.name.clone(), self.seed, now);
        s.grow_messages = self.grow_messages;
        s.shrink_messages = self.shrink_messages;
        s.kis_polls = self.kis.polls();
        s.placement_tries = self.queue.total_tries();
        s.failed_submissions = self.queue.failed_submissions();
        s.events = engine.stats().delivered;
        s.peak_live_jobs = self.jobs.peak_live() as u64;
        s.ctrl = self.ctrl.as_ref().map(|c| c.stats).unwrap_or_default();
        s.ctrl.leaked_allocations = u64::from(self.mc.total_used_by_koala());
        s.net = net;
        s
    }
}

/// The policies `cfg` names, resolved against the global registries.
///
/// # Panics
/// Panics when a name does not resolve (validated configurations always
/// resolve).
fn resolve_policies(cfg: &ExperimentConfig) -> Policies {
    let registry = PolicyRegistry::global();
    let placement = registry
        .placement(&cfg.sched.placement)
        .unwrap_or_else(|e| panic!("invalid experiment configuration: {e}"));
    let malleability = registry
        .malleability(&cfg.sched.malleability)
        .unwrap_or_else(|e| panic!("invalid experiment configuration: {e}"));
    let autoscaler = cfg.elasticity.autoscaled().then(|| {
        autoscaler::by_name(&cfg.elasticity.autoscaler)
            .unwrap_or_else(|e| panic!("invalid experiment configuration: {e}"))
    });
    Policies {
        placement,
        malleability,
        autoscaler,
    }
}

/// Processors `job`'s allocations hold right now, over all its
/// components (an allocation a crash destroyed holds none).
fn held_procs(mc: &Multicluster, job: &Job) -> u32 {
    job.cluster
        .zip(job.alloc)
        .into_iter()
        .chain(job.extra_allocs.iter().copied())
        .filter_map(|(c, a)| mc.cluster(c).alloc_size(a))
        .sum()
}

/// Cancels a job's in-flight malleability, on completion or when a crash
/// takes it: pending grow stubs are part of the allocation and go back
/// with it, and a pending release batch leaves its cluster's shrink
/// pipeline (`home`, when the job still has one).
fn cancel_malleability(
    runner: Option<&mut MRunner>,
    pending_release: &mut [u32],
    home: Option<ClusterId>,
) {
    let Some(runner) = runner else { return };
    runner.abort_grow();
    let in_release = runner.releasing();
    if in_release > 0 {
        if let Some(c) = home {
            pending_release[c.index()] = pending_release[c.index()].saturating_sub(in_release);
        }
        runner.release_confirmed();
    }
}

/// The materialized workload of policy cell `cfg` forked from a world
/// whose workload is `workload`: `cfg`'s own trace when it has one (the
/// fork then borrows nothing from the warmed configuration), else a copy
/// of the generated jobs.
fn cell_workload<'b>(
    cfg: &'b ExperimentConfig,
    workload: &[SubmittedJob],
) -> Cow<'b, [SubmittedJob]> {
    match &cfg.trace {
        Some(trace) => {
            debug_assert_eq!(trace.as_slice(), workload, "forked into another trace");
            Cow::Borrowed(trace.as_slice())
        }
        None => Cow::Owned(workload.to_vec()),
    }
}

/// The multicluster substrate a configuration runs on: a uniform
/// synthetic topology when requested, else the (possibly heterogeneous)
/// DAS-3 preset.
fn topology_for(cfg: &ExperimentConfig) -> Multicluster {
    match &cfg.uniform_topology {
        Some(u) => multicluster::uniform(u.clusters, u.nodes_per_cluster),
        None if cfg.heterogeneous => multicluster::das3_heterogeneous(),
        None => das3(),
    }
}

/// Builds a run engine for `cfg`: horizon from the configuration, event
/// queue pre-sized from the workload (the bootstrap schedules one arrival
/// per job up front, so the pending-event peak is at least the job
/// count — sizing here avoids the queue's slot arena growing
/// incrementally mid-run).
pub fn engine_for(cfg: &ExperimentConfig) -> Engine<Ev> {
    let jobs = cfg
        .trace
        .as_ref()
        .map(|t| t.len())
        .unwrap_or(cfg.workload.jobs);
    let cap = jobs * 2 + 64;
    Engine::configured(
        cfg.sched.event_queue,
        cfg.horizon.map(|h| SimTime::ZERO + h),
        cap,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use appsim::workload::WorkloadSpec;
    use multicluster::FailurePolicy;

    pub(super) fn small(policy: &str, workload: WorkloadSpec, jobs: usize) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper_pra(policy, workload);
        cfg.workload.jobs = jobs;
        cfg.seed = 7;
        cfg
    }

    /// One full-report run of `cfg` under its own seed.
    fn report(cfg: &ExperimentConfig) -> RunReport {
        crate::run(&crate::Run::cell(cfg)).unwrap().remove(0)
    }

    #[test]
    fn single_job_runs_to_completion_and_grows_from_releases() {
        let cfg = small("fpsma", WorkloadSpec::wm(), 1);
        let r = report(&cfg);
        assert_eq!(r.jobs.len(), 1);
        assert!((r.jobs.completion_ratio() - 1.0).abs() < 1e-12);
        let rec = &r.jobs.records()[0];
        assert!(rec.execution_time().unwrap() > 0.0);
        // Growth is fuelled by *released* processors only (the paper's
        // growValue); with background users releasing capacity, the lone
        // malleable job should pick up at least some of it.
        assert!(
            rec.max_size().unwrap() > 2.0,
            "max size {:?}",
            rec.max_size()
        );
    }

    #[test]
    fn without_releases_nothing_grows() {
        // No background, one job: no processors are ever released while
        // it runs, so the paper's growth procedure never fires.
        let mut cfg = small("egs", WorkloadSpec::wm(), 1);
        cfg.background = multicluster::BackgroundLoad::none();
        let r = report(&cfg);
        let rec = &r.jobs.records()[0];
        assert_eq!(rec.max_size(), Some(2.0));
        assert_eq!(r.grow_ops.total(), 0);
    }

    #[test]
    fn small_wm_batch_completes_under_both_policies() {
        for policy in ["fpsma", "egs"] {
            let cfg = small(policy, WorkloadSpec::wm(), 20);
            let r = report(&cfg);
            assert!(
                (r.jobs.completion_ratio() - 1.0).abs() < 1e-12,
                "{policy} left jobs unfinished"
            );
            assert!(r.grow_ops.total() > 0, "{policy} never grew anything");
        }
    }

    #[test]
    fn pwa_shrinks_under_load() {
        // Shrinks only trigger once grown jobs saturate the platform,
        // which needs the sustained W'm arrival pressure (the paper's
        // overload regime); 200 jobs are enough to reach it.
        let mut cfg = ExperimentConfig::paper_pwa("egs", WorkloadSpec::wm_prime());
        cfg.workload.jobs = 200;
        cfg.seed = 3;
        let r = report(&cfg);
        assert!(
            (r.jobs.completion_ratio() - 1.0).abs() < 1e-12,
            "jobs unfinished"
        );
        assert!(r.shrink_ops.total() > 0, "PWA under W'm should shrink");
        assert!(
            r.summary.placement_tries > 0,
            "saturation should cause failed placement tries"
        );
    }

    #[test]
    fn pra_never_shrinks() {
        let cfg = small("egs", WorkloadSpec::wm(), 25);
        let r = report(&cfg);
        assert_eq!(r.shrink_ops.total(), 0);
        assert_eq!(r.summary.shrink_messages, 0);
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let cfg = small("egs", WorkloadSpec::wmr(), 15);
        let a = report(&cfg);
        let b = report(&cfg);
        assert_eq!(a.summary.makespan, b.summary.makespan);
        assert_eq!(a.summary.events, b.summary.events);
        assert_eq!(a.summary.grow_messages, b.summary.grow_messages);
        let ea: Vec<f64> = a.jobs.execution_time_ecdf().samples().to_vec();
        let eb: Vec<f64> = b.jobs.execution_time_ecdf().samples().to_vec();
        assert_eq!(ea, eb);
    }

    #[test]
    fn rigid_jobs_keep_their_size() {
        let mut cfg = small("egs", WorkloadSpec::wmr(), 20);
        cfg.seed = 11;
        let r = report(&cfg);
        for rec in r.jobs.records().iter().filter(|r| !r.malleable) {
            assert_eq!(rec.max_size(), Some(2.0), "rigid job grew: {rec:?}");
            assert_eq!(rec.grows, 0);
        }
    }

    #[test]
    fn multi_seed_runs_aggregate() {
        let cfg = small("fpsma", WorkloadSpec::wm(), 10);
        let runs = crate::run(&crate::Run::seeds(&cfg, &[1, 2, 3])).unwrap();
        let m = crate::MultiReport::new(cfg.name.clone(), runs);
        assert_eq!(m.runs.len(), 3);
        assert_eq!(m.merged_jobs().len(), 30);
        assert!((m.completion_ratio() - 1.0).abs() < 1e-12);
    }

    /// Placements keep the index live across a real run: every scan
    /// rebuilds it, so the aggregates track the scan's availability
    /// vector.
    #[test]
    fn avail_index_is_maintained_across_a_full_run() {
        let cfg = small("fpsma", WorkloadSpec::wm(), 3);
        let mut engine = engine_for(&cfg);
        let mut w = World::new(&cfg);
        w.bootstrap(&mut engine);
        w.pump(&mut engine);
        let idx = w.avail_index();
        assert!(idx.rebuilds() > 0, "no scan ever rebuilt the index");
    }

    #[test]
    fn application_initiated_growth_fires_once_per_job() {
        let mut cfg = small("fpsma", WorkloadSpec::wm(), 8);
        cfg.workload.initiative = Some(appsim::GrowInitiative {
            at_progress: 0.3,
            extra: 8,
        });
        cfg.workload.initiative_fraction = 1.0;
        let r = report(&cfg);
        assert!((r.jobs.completion_ratio() - 1.0).abs() < 1e-12);
        // Every job asked once; grants depend on capacity, but with an
        // idle platform most requests succeed, so growth must exceed the
        // release-driven baseline of the same run without initiatives.
        let mut base = small("fpsma", WorkloadSpec::wm(), 8);
        base.seed = cfg.seed;
        let b = report(&base);
        assert!(
            r.grow_ops.total() > b.grow_ops.total(),
            "initiatives should add grow operations ({} vs {})",
            r.grow_ops.total(),
            b.grow_ops.total()
        );
    }

    #[test]
    fn moldable_jobs_take_a_size_at_start_and_keep_it() {
        let mut cfg = small("egs", WorkloadSpec::wm(), 12);
        cfg.workload.malleable_fraction = 0.0;
        cfg.workload.moldable_fraction = 1.0;
        cfg.sched.koala_share = 0.45;
        let r = report(&cfg);
        assert!((r.jobs.completion_ratio() - 1.0).abs() < 1e-12);
        assert_eq!(r.grow_ops.total(), 0, "moldable jobs never grow");
        for rec in r.jobs.records() {
            let avg = rec.average_size().unwrap();
            let max = rec.max_size().unwrap();
            assert!(
                (avg - max).abs() < 1e-9,
                "moldable size must not change: {rec:?}"
            );
            assert!(max >= 2.0);
        }
    }

    #[test]
    fn committed_grows_never_exceed_decided_ops() {
        let cfg = small("fpsma", WorkloadSpec::wm(), 15);
        let r = report(&cfg);
        // Committed (per-job) grows are a subset of decided ops: an op
        // aborts when the job completes while its stubs submit.
        assert!(r.jobs.total_grows() <= r.grow_ops.total() as u64);
        assert!(r.jobs.total_grows() > 0);
    }

    /// A crash that re-queues its victims takes them out of the running
    /// index of the crashed cluster (and they appear in no other list
    /// until they run again).
    #[test]
    fn crash_requeued_job_leaves_the_running_index() {
        let mut cfg = small("fpsma", WorkloadSpec::wm(), 30);
        cfg.background = multicluster::BackgroundLoad::none();
        cfg.elasticity.failure_policy = FailurePolicy::Requeue;
        let mut w = World::new(&cfg);
        let mut engine = engine_for(&cfg);
        w.bootstrap(&mut engine);
        w.run_until(&mut engine, SimTime::from_secs(900));
        let (c, victims) = (0..w.mc.len())
            .map(|c| ClusterId(c as u16))
            .map(|c| (c, w.jobs.running_slots_on(c).to_vec()))
            .find(|(_, slots)| !slots.is_empty())
            .expect("some job runs by t = 900 s");
        let capacity = w.mc.cluster(c).capacity();
        w.on_node_crash(&mut engine, c, capacity, SimDuration::from_secs(600));
        assert!(w.jobs.running_slots_on(c).is_empty());
        for slot in victims {
            let id = JobId(slot);
            assert_ne!(w.job_phase(id), JobPhase::Running, "{id:?} still running");
            for other in 0..w.mc.len() {
                let list = w.jobs.running_slots_on(ClusterId(other as u16));
                assert!(!list.contains(&slot), "{id:?} indexed on cluster {other}");
            }
        }
        #[cfg(debug_assertions)]
        w.jobs.assert_hot_coherent();
    }

    /// The scan's quick-reject reads the job's need straight off its
    /// spec; it must answer exactly as the request it replaces would.
    #[test]
    fn placement_need_answers_like_the_built_request() {
        use appsim::{AppKind, JobSpec};
        let mut moldable = JobSpec::rigid(AppKind::Gadget2, 4);
        moldable.class = JobClass::Moldable { min: 3, max: 9 };
        let specs = [
            JobSpec::rigid(AppKind::Gadget2, 5),
            JobSpec::paper_malleable(AppKind::Ft),
            moldable,
            JobSpec::coallocated(AppKind::Gadget2, vec![6, 2, 4]),
            JobSpec::coallocated(AppKind::Gadget2, vec![]),
        ];
        let mut idx = AvailIndex::default();
        let mut req = PlacementRequest::default();
        for eff in [[0, 0, 0], [5, 1, 1], [6, 4, 2], [2, 2, 2], [9, 0, 3]] {
            idx.rebuild(&eff);
            for spec in &specs {
                let job = Job::new(JobId(0), spec.clone(), SimTime::ZERO);
                World::request_for(&job, &mut req);
                let (min, total) = World::placement_need(&job);
                assert_eq!(
                    idx.can_fit(min, total),
                    idx.can_satisfy(&req),
                    "{eff:?} {spec:?}"
                );
            }
        }
    }

    /// The crash window. A crash destroys every allocation on a cluster,
    /// and its victims are cleaned up one at a time. Cleaning the first
    /// victim, a co-allocated job, re-queues it and releases its
    /// surviving component on the other cluster, so a PWA scan fires
    /// inside the crash event while the second victim, a malleable job,
    /// still looks Running with a dead allocation. The re-queued job
    /// does not fit, so PWA weighs shrinking: counting the dead job's
    /// shrinkable processors would pick its cluster and shrink it. That
    /// job must be absent from the grow and shrink views and from
    /// `shrinkable_on`, and the run must go on to the pinned outcome.
    #[test]
    fn crash_window_hides_dead_allocations_from_job_management() {
        use appsim::workload::SubmittedJob;
        use appsim::JobSpec;
        let mut cfg = ExperimentConfig::paper_pwa("egs", WorkloadSpec::wm_prime());
        cfg.uniform_topology = Some(crate::config::UniformTopology {
            clusters: 2,
            nodes_per_cluster: 16,
        });
        cfg.background = multicluster::BackgroundLoad::none();
        cfg.sched.koala_share = 1.0;
        cfg.elasticity.failure_policy = FailurePolicy::Requeue;
        let mut malleable = JobSpec::paper_malleable(appsim::AppKind::Gadget2);
        malleable.class = JobClass::Malleable {
            min: 2,
            max: 16,
            initial: 13,
        };
        let at = |s: u64, spec: JobSpec| SubmittedJob {
            at: SimTime::from_secs(s),
            spec,
        };
        cfg.trace = Some(vec![
            at(
                0,
                JobSpec::coallocated(appsim::AppKind::Gadget2, vec![2, 2]),
            ),
            at(30, malleable),
            at(60, JobSpec::rigid(appsim::AppKind::Gadget2, 13)),
        ]);
        cfg.seed = 3;
        let (coalloc, mall, rigid) = (JobId(0), JobId(1), JobId(2));
        let (c0, c1) = (ClusterId(0), ClusterId(1));

        let mut w = World::new(&cfg);
        let mut engine = engine_for(&cfg);
        w.bootstrap(&mut engine);
        w.run_until(&mut engine, SimTime::from_secs(120));
        // The set-up the window needs: both victims hold processors on
        // cluster 0, the co-allocated job also on cluster 1, the rigid
        // job fills cluster 1, and one processor is idle on each.
        for id in [coalloc, mall, rigid] {
            assert_eq!(w.job_phase(id), JobPhase::Running, "{id:?}");
        }
        assert_eq!(w.jobs.get(coalloc).and_then(|j| j.cluster), Some(c0));
        assert!(!w.jobs.get(coalloc).expect("live").extra_allocs.is_empty());
        assert_eq!(w.jobs.get(mall).and_then(|j| j.cluster), Some(c0));
        assert_eq!(w.jobs.get(rigid).and_then(|j| j.cluster), Some(c1));
        assert_eq!((w.mc.cluster(c0).idle(), w.mc.cluster(c1).idle()), (1, 1));
        assert!(w.queue.is_empty());
        assert_eq!(
            w.shrinkable_on(c0),
            11,
            "the malleable job can shrink by 11"
        );

        // Inside the window: the crash has destroyed both allocations and
        // no victim is cleaned yet.
        let mut probe = w.fork_clone(&cfg);
        let capacity = probe.mc.cluster(c0).capacity();
        let (_, victims) = probe.mc.cluster_mut(c0).crash(capacity);
        assert_eq!(victims.len(), 2);
        probe.crash_cleanup = true;
        assert!(probe.malleable_running_on(c0).all(|j| j.id != mall));
        let mut views = Vec::new();
        for for_grow in [true, false] {
            probe.running_views_into(c0, for_grow, &mut views);
            assert!(views.iter().all(|v| v.job != mall), "grow={for_grow}");
        }
        assert_eq!(probe.shrinkable_on(c0), 0);

        // The real event: the scan inside it records a failed try for the
        // re-queued job, the dead job is not shrunk, and the run
        // finishes as pinned.
        let tries = w.queue.total_tries();
        w.on_node_crash(&mut engine, c0, capacity, SimDuration::from_secs(600));
        assert!(w.queue.total_tries() > tries, "no scan fired in the crash");
        assert_eq!(w.shrink_messages, 0, "the dead job was asked to shrink");
        assert_ne!(w.job_phase(mall), JobPhase::Running);
        w.pump(&mut engine);
        let r = w.finish(&engine);
        let mut text = format!(
            "placement_tries={} failed_submissions={} requeued={} makespan={:?}\n",
            r.summary.placement_tries,
            r.summary.failed_submissions,
            r.summary.jobs_requeued,
            r.summary.makespan
        );
        for j in r.jobs.records() {
            text.push_str(&format!(
                "job {} {:?} placed={:?} done={:?} grows={} shrinks={}\n",
                j.id, j.outcome, j.placed, j.completed, j.grows, j.shrinks
            ));
        }
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/crash_window.txt");
        if std::env::var("UPDATE_GOLDEN").is_ok() {
            std::fs::write(&path, &text).expect("write golden file");
            return;
        }
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
        assert_eq!(text, golden, "the crash-window run drifted from its golden");
    }

    #[test]
    fn background_load_runs_alongside() {
        let mut cfg = small("fpsma", WorkloadSpec::wm(), 10);
        cfg.background = multicluster::BackgroundLoad::light();
        let r = report(&cfg);
        assert!((r.jobs.completion_ratio() - 1.0).abs() < 1e-12);
    }
}
