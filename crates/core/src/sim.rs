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

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use appsim::dynaco::{Dynaco, Phase as DynacoPhase};
use appsim::generate::JobStream;
use appsim::workload::SubmittedJob;
use appsim::{JobClass, Progress, SizeConstraint};
use multicluster::{
    das3, AllocId, AllocOwner, ClusterId, ClusterState, ControlPlaneFaults,
    ControlPlaneFaultsState, CrashVictim, FailurePolicy, FailureStream, FailureStreamState,
    FileCatalog, FileCatalogState, FileId, FileMeta, FlakyChannelState, FlowNet, FlowNetState,
    FlowState, InfoService, InfoSnapshot, InfoState, LinkId, LocalJob, LocalJobId, LrmState,
    MessageClass, Multicluster, NodeId, NodeState, SubmitOutcome,
};
use simcore::{
    Engine, EngineSnapshot, EngineStats, Generation, SimDuration, SimRng, SimTime, Trace,
};

use crate::autoscaler::{Autoscaler, AutoscalerRegistry, ClusterObservation, ScaleDecision};
use crate::avail::AvailIndex;
use crate::config::{Approach, ClaimingPolicy, ExperimentConfig};
use crate::ids::JobId;
use crate::job::{Job, JobPhase};
use crate::malleability::RunningView;
use crate::placement::{ComponentRequest, PlacementQueue, PlacementRequest};
use crate::policy::{Malleability, Placement, PolicyRegistry};
use crate::report::{Collector, CtrlStats, NetStats, ReportMode, RunReport, SummaryReport};
use crate::run::Report;
use crate::runner::MRunner;

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
    /// [`ControlPlaneFaults`] are enabled.
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
    /// scheduled when [`ControlPlaneFaults`] are enabled.
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
    /// estimates are dropped by [`FlowNet::complete`].
    TransferDone {
        /// The flow id within the world's [`FlowNet`].
        transfer: u64,
        /// The flow-generation stamp of this estimate.
        gen: u64,
    },
}

/// A control-plane operation guarded by the timeout/retry machinery —
/// each variant names one KOALA→GRAM message and maps onto the effect
/// event its delivery schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlOp {
    /// Initial GRAM batch submission (delivers [`Ev::StartHeld`]).
    Start,
    /// Grow-stub batch submission (delivers [`Ev::GrowHeld`]).
    Grow,
    /// Stub recruitment + grow synchronization (delivers
    /// [`Ev::SyncDone`] with `grow = true`).
    RecruitSync,
    /// Shrink synchronization command (delivers [`Ev::SyncDone`] with
    /// `grow = false`).
    ShrinkSync,
    /// GRAM job release after a shrink (delivers [`Ev::ShrinkReleased`]).
    Release {
        /// Processors the release frees.
        count: u32,
    },
}

impl CtrlOp {
    /// The message class the fault model draws outcomes from.
    fn class(self) -> MessageClass {
        match self {
            CtrlOp::Start => MessageClass::Submit,
            CtrlOp::Grow => MessageClass::Grow,
            CtrlOp::RecruitSync => MessageClass::Recruit,
            CtrlOp::ShrinkSync => MessageClass::Shrink,
            CtrlOp::Release { .. } => MessageClass::Release,
        }
    }

    /// The effect event a delivery of this operation's message schedules.
    fn effect(self, job: JobId, gen: Generation) -> Ev {
        match self {
            CtrlOp::Start => Ev::StartHeld { job, gen },
            CtrlOp::Grow => Ev::GrowHeld { job, gen },
            CtrlOp::RecruitSync => Ev::SyncDone {
                job,
                gen,
                grow: true,
            },
            CtrlOp::ShrinkSync => Ev::SyncDone {
                job,
                gen,
                grow: false,
            },
            CtrlOp::Release { count } => Ev::ShrinkReleased { job, gen, count },
        }
    }
}

/// The default streaming look-ahead window: how many future arrivals the
/// streaming intake keeps scheduled ahead of simulated time (see
/// [`World::for_stream_summarized`]).
pub const DEFAULT_LOOKAHEAD: usize = 1024;

/// Where a world's jobs come from.
///
/// The eager variant is the classic path: the whole workload is
/// materialized (generated or an explicit trace) and every arrival is
/// scheduled at bootstrap. The streaming variant pulls jobs from a
/// [`JobStream`] through a bounded look-ahead window — at most `window`
/// arrivals are scheduled ahead of simulated time, so a million-job
/// trace never exists in memory at once.
enum Intake<'a> {
    /// Materialized workload (owned when generated, borrowed for traces).
    Fixed(std::borrow::Cow<'a, [SubmittedJob]>),
    /// Incremental intake from a job stream. The stream is borrowed so
    /// the caller can inspect it after the run (e.g.
    /// [`appsim::swf::SwfJobStream::error`] — a mid-trace parse failure
    /// must not masquerade as a successful short run).
    Stream {
        src: &'a mut (dyn JobStream + 'a),
        /// Jobs whose arrival events are scheduled but have not fired
        /// yet, in arrival order (the bounded look-ahead window).
        pending: VecDeque<SubmittedJob>,
        /// Window size.
        window: usize,
        /// Next job id to assign.
        next_id: u32,
        /// Arrival clamp: streams must be nondecreasing in time; the
        /// occasional inversion in a real trace is clamped up to this.
        last_at: SimTime,
        /// The stream returned `None`.
        exhausted: bool,
    },
}

/// Multiply-shift hasher for [`JobSlab::index`]'s `u32` job ids.
///
/// The ids come from the simulator, never from outside it, so they need
/// no protection against crafted collisions; the odd multiplier spreads
/// sequential ids over the buckets and the table's tag bits. The map is
/// never iterated, so the hasher cannot reach the trajectory.
#[derive(Default)]
struct IdHasher(u64);

impl IdHasher {
    /// 2⁶⁴ divided by the golden ratio, rounded to odd.
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(Self::K);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 ^ u64::from(n)).wrapping_mul(Self::K);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Job storage of a world: a slab indexed by job id.
///
/// In **fixed** mode (eager intake) ids are dense indices and jobs stay
/// in place after completion — exactly the historical `Vec<Job>`
/// behaviour, with no extra indirection on the hot path. In
/// **streaming** mode jobs are inserted at arrival and *retired* at
/// their terminal phase: the slot returns to a free list and the
/// id→slot map forgets the job, so live memory is bounded by the number
/// of in-flight jobs, not the trace length.
#[derive(Clone)]
struct JobSlab {
    slots: Vec<Option<Job>>,
    /// Struct-of-arrays mirror of `Job::phase`, one entry per slot.
    /// [`World::scan_queue`] reads this contiguous column instead of
    /// dereferencing the wide `Job` struct, so a pass over
    /// mostly-ineligible jobs touches a few bytes per slot rather than a
    /// cache line. Written only through [`JobSlab::set_hot`]; kept
    /// coherent by [`JobSlab::sync_hot`] at every phase/cluster write
    /// site. A dead slot keeps its last phase and has its cluster cleared
    /// at [`JobSlab::retire`] (readers gate on `slots`).
    phases: Vec<JobPhase>,
    /// Struct-of-arrays mirror of `Job::cluster` (see
    /// [`JobSlab::phases`]).
    clusters: Vec<Option<ClusterId>>,
    /// Per-cluster running index: `running[c]` lists, ascending, the
    /// slots whose columns say "Running on cluster `c`" — exactly what a
    /// scan of the two columns would yield, without the scan.
    /// [`JobSlab::set_hot`] maintains it alongside the columns. Derived
    /// state: never serialized, rebuilt whenever the columns are.
    running: Vec<Vec<u32>>,
    /// Free slot indices (streaming mode only).
    free: Vec<u32>,
    /// Job id → slot (streaming mode only; fixed mode uses id = slot).
    index: HashMap<u32, u32, BuildHasherDefault<IdHasher>>,
    streaming: bool,
    /// Jobs created and not yet retired.
    live: usize,
    /// High-water mark of `live` (the bounded-memory witness).
    peak_live: usize,
    /// Jobs ever created.
    created: u64,
}

impl JobSlab {
    /// Fixed-mode storage over a prebuilt job list.
    fn fixed(jobs: Vec<Job>) -> Self {
        let n = jobs.len();
        let mut slab = JobSlab {
            slots: jobs.into_iter().map(Some).collect(),
            phases: vec![JobPhase::Queued; n],
            clusters: vec![None; n],
            running: Vec::new(),
            free: Vec::new(),
            index: HashMap::default(),
            streaming: false,
            live: n,
            peak_live: n,
            created: n as u64,
        };
        for id in 0..n {
            slab.sync_hot(JobId(id as u32));
        }
        slab
    }

    /// Empty streaming-mode storage.
    fn streaming() -> Self {
        JobSlab {
            slots: Vec::new(),
            phases: Vec::new(),
            clusters: Vec::new(),
            running: Vec::new(),
            free: Vec::new(),
            index: HashMap::default(),
            streaming: true,
            live: 0,
            peak_live: 0,
            created: 0,
        }
    }

    /// Inserts a newly arrived job (streaming mode), returning its slot.
    fn insert(&mut self, job: Job) -> usize {
        debug_assert!(self.streaming, "fixed slabs are prebuilt");
        let id = job.id.0;
        let (phase, cluster) = (job.phase, job.cluster);
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(job);
                s
            }
            None => {
                self.slots.push(Some(job));
                self.phases.push(JobPhase::Queued);
                self.clusters.push(None);
                (self.slots.len() - 1) as u32
            }
        };
        self.set_hot(slot as usize, phase, cluster);
        self.index.insert(id, slot);
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        self.created += 1;
        slot as usize
    }

    /// The collector slot of a live job (fixed mode: its id).
    fn slot_of(&self, id: JobId) -> usize {
        if self.streaming {
            self.index[&id.0] as usize
        } else {
            id.index()
        }
    }

    /// The job, if it is still live (stale events on retired jobs
    /// resolve to `None` and are dropped by their handlers).
    fn get(&self, id: JobId) -> Option<&Job> {
        if self.streaming {
            let slot = *self.index.get(&id.0)?;
            self.slots[slot as usize].as_ref()
        } else {
            self.slots.get(id.index()).and_then(Option::as_ref)
        }
    }

    /// Mutable access, like [`JobSlab::get`].
    fn get_mut(&mut self, id: JobId) -> Option<&mut Job> {
        if self.streaming {
            let slot = *self.index.get(&id.0)?;
            self.slots[slot as usize].as_mut()
        } else {
            self.slots.get_mut(id.index()).and_then(Option::as_mut)
        }
    }

    /// Marks a job terminal. Fixed mode keeps the job in place (reports
    /// and tests read it); streaming mode frees the slot and clears its
    /// cluster column, so a dead slot is never in the running index.
    fn retire(&mut self, id: JobId) {
        debug_assert!(self.live > 0, "retire with no live jobs");
        self.live -= 1;
        if !self.streaming {
            return;
        }
        let slot = self.index.remove(&id.0).expect("retired job was live");
        self.slots[slot as usize] = None;
        self.set_hot(slot as usize, self.phases[slot as usize], None);
        self.free.push(slot);
    }

    /// The cluster a column pair counts as running on, if any.
    fn running_on(phase: JobPhase, cluster: Option<ClusterId>) -> Option<ClusterId> {
        cluster.filter(|_| phase == JobPhase::Running)
    }

    /// The one writer of the hot columns: stores `(phase, cluster)` at
    /// `slot` and moves the slot between per-cluster running lists when
    /// its "running on" answer changes (a sorted insert/remove, O(jobs
    /// running on that cluster)).
    fn set_hot(&mut self, slot: usize, phase: JobPhase, cluster: Option<ClusterId>) {
        let was = Self::running_on(self.phases[slot], self.clusters[slot]);
        let now = Self::running_on(phase, cluster);
        self.phases[slot] = phase;
        self.clusters[slot] = cluster;
        if was == now {
            return;
        }
        let s = slot as u32;
        if let Some(c) = was {
            let list = &mut self.running[c.index()];
            let pos = list.binary_search(&s).expect("running slot is indexed");
            list.remove(pos);
        }
        if let Some(c) = now {
            if self.running.len() <= c.index() {
                self.running.resize_with(c.index() + 1, Vec::new);
            }
            let list = &mut self.running[c.index()];
            let pos = list
                .binary_search(&s)
                .expect_err("slot indexed as running twice");
            list.insert(pos, s);
        }
    }

    /// Re-mirrors a live job's `phase` and `cluster` into the hot
    /// struct-of-arrays columns. Must be called after every site that
    /// writes either field on a slab-resident job;
    /// [`JobSlab::assert_hot_coherent`] backstops that contract in debug
    /// builds. A no-op for ids that are no longer live.
    fn sync_hot(&mut self, id: JobId) {
        let slot = if self.streaming {
            match self.index.get(&id.0) {
                Some(&s) => s as usize,
                None => return,
            }
        } else {
            id.index()
        };
        if let Some((phase, cluster)) = self.job_at(slot).map(|j| (j.phase, j.cluster)) {
            self.set_hot(slot, phase, cluster);
        }
    }

    /// The phase column entry for `slot` (meaningful only while the slot
    /// is occupied).
    fn phase_at(&self, slot: usize) -> JobPhase {
        self.phases[slot]
    }

    /// The job occupying `slot`, if any.
    fn job_at(&self, slot: usize) -> Option<&Job> {
        self.slots.get(slot).and_then(Option::as_ref)
    }

    /// Slots whose hot columns say "running on `cluster`", ascending —
    /// the candidate set of [`World::running_views_into`], read straight
    /// from the running index.
    fn running_slots_on(&self, cluster: ClusterId) -> &[u32] {
        self.running.get(cluster.index()).map_or(&[], Vec::as_slice)
    }

    /// Debug-build coherence check: every live job's struct fields match
    /// its column entries, and the running index equals a scan of the
    /// columns. Called from the hot scans so the whole test suite
    /// (goldens included) polices missed [`JobSlab::sync_hot`] call
    /// sites.
    #[cfg(debug_assertions)]
    fn assert_hot_coherent(&self) {
        for (slot, job) in self.slots.iter().enumerate() {
            if let Some(job) = job {
                debug_assert!(
                    self.phases[slot] == job.phase && self.clusters[slot] == job.cluster,
                    "hot columns out of sync at slot {slot}: col=({:?}, {:?}) job=({:?}, {:?})",
                    self.phases[slot],
                    self.clusters[slot],
                    job.phase,
                    job.cluster,
                );
            }
        }
        let mut scanned: Vec<Vec<u32>> = vec![Vec::new(); self.running.len()];
        for (slot, (&phase, &cluster)) in self.phases.iter().zip(&self.clusters).enumerate() {
            if let Some(c) = Self::running_on(phase, cluster) {
                debug_assert!(
                    c.index() < scanned.len(),
                    "slot {slot} runs on {c:?} beyond the running index"
                );
                scanned[c.index()].push(slot as u32);
            }
        }
        debug_assert_eq!(
            self.running, scanned,
            "running index out of sync with the hot columns"
        );
    }

    /// Live jobs, in slot order.
    fn iter_live(&self) -> impl Iterator<Item = &Job> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Jobs created and not yet retired.
    fn live(&self) -> usize {
        self.live
    }

    /// High-water mark of concurrently live jobs.
    fn peak_live(&self) -> usize {
        self.peak_live
    }
}

/// What one network flow is moving, and for whom — resolved when its
/// completion event fires.
#[derive(Clone)]
struct TransferOwner {
    /// The job the transfer serves.
    job: JobId,
    /// The job's generation when the transfer opened; a bumped stamp
    /// means the job moved on (re-queued, reconfigured) and the
    /// completion must not drive it — the data still lands, though:
    /// the replica is registered regardless.
    gen: Generation,
    /// The staged file, or `None` for reconfiguration traffic (which
    /// only contends — nothing waits on it).
    file: Option<FileId>,
    /// Destination cluster (gains the replica on completion).
    dest: ClusterId,
}

/// Per-job staging progress under the network layer.
#[derive(Clone)]
struct StagingState {
    /// Transfers still in flight for this staging session.
    pending: u32,
    /// The job generation the session belongs to (pairs completions
    /// with the right session if the job was re-placed meanwhile).
    gen: Generation,
    /// When staging began — the staging-delay metric's anchor.
    since: SimTime,
}

/// Runtime state of the contended-network layer: the fair-share flow
/// network plus the bookkeeping that ties flows back to jobs. `None`
/// on the world when [`crate::config::ExperimentConfig::network`] is
/// `None` — the default — in which case staging falls back to the
/// closed-form catalog estimates and trajectories are bit-identical
/// to the pre-network code (pinned by the passivity golden).
#[derive(Clone)]
struct NetRuntime {
    /// Active flows and max-min fair rate assignment.
    flows: FlowNet,
    /// Flow id → what it moves and for whom.
    owners: HashMap<u64, TransferOwner>,
    /// Job id → staging session in progress.
    staging: HashMap<u32, StagingState>,
    /// GB of redistribution traffic per processor moved by a
    /// reconfiguration (zero disables reconfig traffic).
    reconfig_gb_per_proc: f64,
    /// Transfer tallies for the report.
    stats: NetStats,
}

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
    /// The placement policy, resolved once from `cfg.sched.placement`
    /// against the global [`PolicyRegistry`] — the simulation core never
    /// dispatches on concrete policy types, so new policies plug in by
    /// name without touching this module.
    placement: Box<dyn Placement>,
    /// The malleability-management policy, resolved like `placement`.
    malleability: Box<dyn Malleability>,
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
    arrivals_seen: usize,
    next_bg_local: u64,
    /// The autoscaling policy, resolved once from
    /// `cfg.elasticity.autoscaler` — `None` when the configuration
    /// selects the `none` scaler, so inelastic runs pay nothing.
    autoscaler: Option<Box<dyn Autoscaler>>,
    /// The seeded node-failure stream (`None` without a failure spec).
    /// A pure function of its fork of the master seed: it never reads
    /// simulation state, so failure times are identical across report
    /// modes and thread counts.
    failures: Option<FailureStream>,
    /// The seeded control-plane fault model (`None` without a fault
    /// spec — the default, in which case the retry machinery is pure
    /// plumbing: no extra events, no extra RNG draws, bit-identical
    /// trajectories to the pre-fault-layer code).
    faults: Option<ControlPlaneFaults>,
    /// Control-plane health counters (all zero when faults are off).
    ctrl: CtrlStats,
    /// The contended-network layer (`None` without a network config —
    /// the default — making the whole layer strictly passive).
    net: Option<NetRuntime>,
    trace: Trace,
    /// Reusable scratch for [`World::scan_queue`] (live availability,
    /// budget-capped availability, the placement policy's all-or-nothing
    /// copy, and the request being placed) — the scheduling hot path
    /// allocates nothing per tick in steady state.
    scratch_avail: Vec<u32>,
    scratch_eff: Vec<u32>,
    scratch_place: Vec<u32>,
    scratch_req: PlacementRequest,
    /// Reusable scratch for [`World::running_views_into`] (the grow and
    /// shrink procedures' policy input), detached and re-attached like
    /// the scan buffers above.
    scratch_views: Vec<RunningView>,
    /// Incremental per-cluster availability index (see [`crate::avail`]):
    /// capacity mutations mark their cluster dirty, and the scan's
    /// effective-availability aggregates quick-reject placement attempts
    /// no policy could satisfy. Consulted only when
    /// [`SchedulerConfig::avail_index`](crate::config::SchedulerConfig)
    /// is on; always maintained (marking is a few branches) so the
    /// on/off trajectories cannot drift apart structurally.
    avail_idx: AvailIndex,
    /// Whether [`World::bootstrap`] has run: [`World::run_to_end`]
    /// bootstraps a fresh world and resumes a started one.
    started: bool,
    /// `(total capacity, cap)` of the last [`World::koala_cap`] call: the
    /// cap's float product and floor are redone only when the platform's
    /// capacity changed since. `(0, 0)` is exact for every share.
    koala_cap_memo: (u32, u32),
    /// True while [`World::on_node_crash`] cleans up its victims — the
    /// one window in which a job that still looks Running may have lost
    /// its whole allocation (see [`World::malleable_running_on`]).
    crash_cleanup: bool,
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
    /// collects streaming accumulators only (no job table, no step
    /// series, no trace) and finishes as a [`SummaryReport`]. Warmup
    /// trimming and reservoir capacity come from `cfg.report`.
    pub fn for_seed_summarized(cfg: &'a ExperimentConfig, seed: u64) -> Self {
        Self::for_seed_with_mode(cfg, seed, ReportMode::Summarized)
    }

    pub(crate) fn for_seed_with_mode(
        cfg: &'a ExperimentConfig,
        seed: u64,
        mode: ReportMode,
    ) -> Self {
        let mut master = SimRng::seed_from_u64(seed);
        let mut wl_rng = master.fork(1);
        let bg_rng = master.fork(2);
        let failure_rng = master.fork(3);
        let fault_rng = master.fork(4);
        let workload: std::borrow::Cow<'a, [SubmittedJob]> = match (&cfg.trace, &cfg.generator) {
            (Some(trace), _) => std::borrow::Cow::Borrowed(trace.as_slice()),
            (None, Some(name)) => {
                // The eager generator path: materialize the named
                // source's stream (small runs; million-job streams go
                // through `for_stream_summarized`).
                let src = appsim::generate::WorkloadRegistry::global()
                    .source(name)
                    .unwrap_or_else(|e| panic!("invalid experiment configuration: {e}"));
                std::borrow::Cow::Owned(src.generate(seed, cfg.workload.jobs as u64))
            }
            (None, None) => std::borrow::Cow::Owned(cfg.workload.generate(&mut wl_rng)),
        };
        let jobs: Vec<Job> = workload
            .iter()
            .enumerate()
            .map(|(i, s)| Job::new(JobId(i as u32), s.spec.clone(), s.at))
            .collect();
        let mc = topology_for(cfg);
        let collect = match mode {
            ReportMode::Full => Collector::full(
                workload.iter().map(|s| {
                    (
                        s.spec.kind.label().to_string(),
                        s.spec.class.is_malleable(),
                        s.at,
                    )
                }),
                mc.len(),
            ),
            ReportMode::Summarized => {
                let mut c = Collector::summarized(seed, &cfg.report);
                for (i, s) in workload.iter().enumerate() {
                    c.arrived(i, s.at);
                }
                c
            }
        };
        Self::assemble(
            cfg,
            seed,
            mc,
            Intake::Fixed(workload),
            JobSlab::fixed(jobs),
            collect,
            bg_rng,
            failure_rng,
            fault_rng,
        )
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
        let mut master = SimRng::seed_from_u64(seed);
        let _wl_rng = master.fork(1); // keep fork labels aligned with the eager path
        let bg_rng = master.fork(2);
        let failure_rng = master.fork(3);
        let fault_rng = master.fork(4);
        let intake = Intake::Stream {
            src: stream,
            pending: VecDeque::with_capacity(window.max(1)),
            window: window.max(1),
            next_id: 0,
            last_at: SimTime::ZERO,
            exhausted: false,
        };
        Self::assemble(
            cfg,
            seed,
            topology_for(cfg),
            intake,
            JobSlab::streaming(),
            Collector::summarized(seed, &cfg.report),
            bg_rng,
            failure_rng,
            fault_rng,
        )
    }

    #[allow(clippy::too_many_arguments)] // internal assembly seam; both constructors feed it
    fn assemble(
        cfg: &'a ExperimentConfig,
        seed: u64,
        mc: Multicluster,
        intake: Intake<'a>,
        jobs: JobSlab,
        collect: Collector,
        bg_rng: SimRng,
        failure_rng: SimRng,
        fault_rng: SimRng,
    ) -> Self {
        let (placement, malleability, autoscaler) = resolve_policies(cfg);
        let n_clusters = mc.len();
        let failures = cfg
            .elasticity
            .failures
            .as_ref()
            .map(|spec| FailureStream::new(spec.clone(), n_clusters as u16, failure_rng));
        let faults = cfg
            .elasticity
            .ctrl_faults
            .as_ref()
            .map(|spec| ControlPlaneFaults::new(spec.clone(), n_clusters as u16, fault_rng));
        // The contended-network layer: resolve the named topology
        // against the global registry and pre-register the configured
        // replica layout. The catalog is derived from the topology
        // (uncontended bottleneck bandwidths), so Close-to-Files
        // ranking and the transfers it leads to agree on the network
        // shape; an explicit `with_files` catalog still overrides it.
        let mut files = None;
        let net = cfg.network.as_ref().map(|nc| {
            let topo = multicluster::global_topologies()
                .resolve(&nc.topology, n_clusters)
                .unwrap_or_else(|e| panic!("invalid experiment configuration: {e}"));
            let mut cat = FileCatalog::over_network(&topo);
            for spec in &nc.files {
                cat.register(spec.size_gb, spec.replicas.iter().map(|&r| ClusterId(r)));
            }
            files = Some(cat);
            NetRuntime {
                flows: FlowNet::new(topo),
                owners: HashMap::new(),
                staging: HashMap::new(),
                reconfig_gb_per_proc: nc.reconfig_gb_per_proc,
                stats: NetStats::default(),
            }
        });
        let w_init = World {
            cfg,
            seed,
            placement,
            malleability,
            mc,
            kis: InfoService::with_lag(cfg.elasticity.kis_lag),
            files,
            intake,
            jobs,
            queue: PlacementQueue::new(),
            collect,
            grow_messages: 0,
            shrink_messages: 0,
            bg_rng,
            pending_release: vec![0; n_clusters],
            idle_baseline: Vec::new(), // filled below from capacities

            arrivals_seen: 0,
            next_bg_local: 0,
            autoscaler,
            failures,
            faults,
            ctrl: CtrlStats::default(),
            net,
            trace: Trace::disabled(),
            scratch_avail: Vec::with_capacity(n_clusters),
            scratch_eff: Vec::with_capacity(n_clusters),
            scratch_place: Vec::with_capacity(n_clusters),
            scratch_req: PlacementRequest::default(),
            scratch_views: Vec::new(),
            avail_idx: AvailIndex::new(n_clusters),
            started: false,
            koala_cap_memo: (0, 0),
            crash_cleanup: false,
        };
        let mut w = w_init;
        w.idle_baseline = w.mc.clusters().map(|c| c.idle()).collect();
        w
    }

    /// The availability index's current state — dirty set, aggregates
    /// and skip tallies (see [`crate::avail`]). Diagnostic surface; the
    /// index itself is maintained whether or not the scan consults it.
    pub fn avail_index(&self) -> &AvailIndex {
        &self.avail_idx
    }

    /// Installs a file catalog (for Close-to-Files experiments).
    pub fn with_files(mut self, files: FileCatalog) -> Self {
        self.files = Some(files);
        self
    }

    /// Enables job-lifecycle tracing, keeping the most recent `capacity`
    /// entries (exported in the run report). Ignored in summarized mode:
    /// the memory-bounded path never materializes a trace.
    pub fn with_trace(mut self, capacity: usize) -> Self {
        if !self.collect.is_summarized() {
            self.trace = Trace::enabled(capacity);
        }
        self
    }

    /// Whether job-lifecycle tracing is active (tests; always `false`
    /// in summarized mode).
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_enabled()
    }

    /// Whether this world reports through the memory-bounded summary
    /// path.
    pub fn is_summarized(&self) -> bool {
        self.collect.is_summarized()
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

    /// Pulls one job from the stream into the look-ahead window and
    /// schedules its arrival. Returns `false` when the stream is
    /// exhausted. No-op for fixed intakes (their arrivals are all
    /// scheduled at bootstrap).
    fn pull_one(&mut self, engine: &mut Engine<Ev>) -> bool {
        let Intake::Stream {
            src,
            pending,
            next_id,
            last_at,
            exhausted,
            ..
        } = &mut self.intake
        else {
            return false;
        };
        if *exhausted {
            return false;
        }
        match src.next_job() {
            Some(mut job) => {
                // Streams must be nondecreasing in arrival time; clamp
                // the occasional inversion of a real trace upward so the
                // event order matches the window order.
                job.at = job.at.max(*last_at);
                *last_at = job.at;
                let id = *next_id;
                *next_id = next_id
                    .checked_add(1)
                    .expect("more than u32::MAX streamed jobs");
                engine.schedule_at(job.at, Ev::Arrival(id));
                pending.push_back(job);
                true
            }
            None => {
                *exhausted = true;
                false
            }
        }
    }

    /// Schedules the initial events.
    pub fn bootstrap(&mut self, engine: &mut Engine<Ev>) {
        self.started = true;
        // KIS poll first so the first arrivals see a snapshot.
        engine.schedule_at(SimTime::ZERO, Ev::KisPoll);
        match &self.intake {
            Intake::Fixed(workload) => {
                for (i, s) in workload.iter().enumerate() {
                    engine.schedule_at(s.at, Ev::Arrival(i as u32));
                }
            }
            Intake::Stream { window, .. } => {
                // Prime the look-ahead window.
                let window = *window;
                for _ in 0..window {
                    if !self.pull_one(engine) {
                        break;
                    }
                }
            }
        }
        engine.schedule_in(self.cfg.sched.queue_scan_period, Ev::QueueScan);
        if self.cfg.background.is_active() {
            for c in 0..self.mc.len() {
                let cluster = ClusterId(c as u16);
                let cap = self.mc.cluster(cluster).capacity();
                if let Some(gap) = self
                    .cfg
                    .background
                    .sample_interarrival_for(&mut self.bg_rng, cap)
                {
                    engine.schedule_in(gap, Ev::BgArrival { cluster });
                }
            }
        }
        // The elasticity layer: monitoring, autoscaling, failures.
        let e = &self.cfg.elasticity;
        if e.monitored() {
            engine.schedule_in(e.monitor_period, Ev::MonitorSample);
        }
        if self.autoscaler.is_some() {
            engine.schedule_in(e.autoscale_period, Ev::AutoscaleCycle);
        }
        if let Some(stream) = self.failures.as_mut() {
            let f = stream.next_event();
            engine.schedule_at(
                f.at,
                Ev::NodeCrash {
                    cluster: f.cluster,
                    count: f.nodes,
                    repair_after: f.repair_after,
                },
            );
        }
        if self.faults.is_some() {
            engine.schedule_in(self.cfg.sched.retry.orphan_sweep_period, Ev::OrphanSweep);
        }
    }

    /// True when every KOALA job has reached a terminal state.
    pub fn done(&self) -> bool {
        let all_arrived = match &self.intake {
            Intake::Fixed(workload) => self.arrivals_seen == workload.len(),
            Intake::Stream {
                pending, exhausted, ..
            } => *exhausted && pending.is_empty(),
        };
        all_arrived && self.queue.is_empty() && self.jobs.live() == 0
    }

    /// Runs the event loop until every job is terminal (or the engine
    /// drains or hits its horizon) and returns the report `R` — a
    /// [`RunReport`] or a [`SummaryReport`], matching the mode the world
    /// was built in.
    ///
    /// A fresh world is bootstrapped first, and the loop pops one event
    /// before its first [`World::done`] check. A started world — a warmed
    /// prefix, a fork, a restored snapshot — checks `done()` first: a
    /// prefix that already completed broke out of its own loop the moment
    /// `done()` turned true, and pumping again would deliver one extra
    /// event the uninterrupted run never saw.
    ///
    /// # Panics
    /// Panics when `R` does not match the world's report mode.
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
        while let Some(t) = engine.peek_time() {
            if t >= until {
                break;
            }
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
        self.placement = registry.placement(placement)?;
        self.malleability = registry.malleability(malleability)?;
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
        let Intake::Fixed(workload) = &self.intake else {
            panic!("a streaming world cannot be forked");
        };
        let (placement, malleability, autoscaler) = resolve_policies(cfg);
        World {
            cfg,
            seed: self.seed,
            placement,
            malleability,
            mc: self.mc.clone(),
            kis: self.kis.clone(),
            files: self.files.clone(),
            intake: Intake::Fixed(cell_workload(cfg, workload)),
            jobs: self.jobs.clone(),
            queue: self.queue.clone(),
            collect: self.collect.clone(),
            grow_messages: self.grow_messages,
            shrink_messages: self.shrink_messages,
            bg_rng: self.bg_rng.clone(),
            pending_release: self.pending_release.clone(),
            idle_baseline: self.idle_baseline.clone(),
            arrivals_seen: self.arrivals_seen,
            next_bg_local: self.next_bg_local,
            autoscaler,
            failures: self.failures.clone(),
            faults: self.faults.clone(),
            ctrl: self.ctrl,
            net: self.net.clone(),
            trace: self.trace.clone(),
            scratch_avail: Vec::with_capacity(self.mc.len()),
            scratch_eff: Vec::with_capacity(self.mc.len()),
            scratch_place: Vec::with_capacity(self.mc.len()),
            scratch_req: PlacementRequest::default(),
            scratch_views: Vec::new(),
            avail_idx: self.avail_idx.clone(),
            started: self.started,
            koala_cap_memo: (0, 0),
            crash_cleanup: false,
        }
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    /// Handles one event.
    pub fn handle(&mut self, engine: &mut Engine<Ev>, ev: Ev) {
        match ev {
            Ev::Arrival(i) => self.on_arrival(engine, JobId(i)),
            // Never scheduled (see the variant); kept so the match stays
            // total for drivers that name every variant.
            Ev::ArrivalBatch { first, count } => {
                for i in first..first + count {
                    self.on_arrival(engine, JobId(i));
                }
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
        self.arrivals_seen += 1;
        if let Intake::Stream { pending, .. } = &mut self.intake {
            // Arrivals fire in schedule order at nondecreasing times, so
            // the window's front is always the job this event is for.
            let sj = pending.pop_front().expect("arrival without pending job");
            let job = Job::new(id, sj.spec, sj.at);
            let slot = self.jobs.insert(job);
            self.collect.arrived(slot, sj.at);
            // Keep the look-ahead window full.
            self.pull_one(engine);
        }
        debug_assert!(self.jobs.get(id).is_some(), "arrival for unknown job");
        if self.trace.is_enabled() {
            // The label clone is gated on tracing: a streamed million-job
            // run must not pay a String allocation per arrival.
            let label = self
                .jobs
                .get(id)
                .expect("arrival for unknown job")
                .spec
                .kind
                .label()
                .to_string();
            self.trace
                .record(engine.now(), "arrive", id.0 as u64, || label);
        }
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
        let delivered = match self.faults.as_mut() {
            Some(f) => {
                let delivered = f.outcome(MessageClass::InfoPoll, None, now).delivered;
                if !delivered {
                    self.ctrl.polls_lost += 1;
                }
                delivered
            }
            None => true,
        };
        if delivered {
            self.kis.poll(now, self.mc.clusters());
            // Job management triggers (Section V-B): the poll is how KOALA
            // notices processors that became available outside its own
            // bookkeeping — typically released by background users who
            // bypass it. Only the idle delta above the already-offered
            // baseline is handed to the policies.
            match self.cfg.sched.approach {
                Approach::Pra => {
                    for c in 0..self.mc.len() {
                        self.offer_new_capacity(engine, ClusterId(c as u16));
                    }
                    self.scan_queue(engine);
                }
                Approach::Pwa => {
                    self.scan_queue(engine);
                    if self.queue.is_empty() {
                        for c in 0..self.mc.len() {
                            self.offer_new_capacity(engine, ClusterId(c as u16));
                        }
                    }
                }
            }
        }
        if !self.done() {
            engine.schedule_in(self.cfg.sched.kis_poll_period, Ev::KisPoll);
        }
    }

    // ------------------------------------------------------------------
    // Placement
    // ------------------------------------------------------------------

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

    /// Estimated staging time of a job's input files at `cluster` (zero
    /// without a catalog or files).
    fn staging_time(&self, job: &Job, cluster: ClusterId) -> simcore::SimDuration {
        match &self.files {
            Some(cat) => {
                let files: Vec<multicluster::FileId> = job
                    .spec
                    .input_files
                    .iter()
                    .map(|&f| multicluster::FileId(f))
                    .collect();
                cat.staging_time(&files, cluster)
            }
            None => simcore::SimDuration::ZERO,
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
    fn scan_queue(&mut self, engine: &mut Engine<Ev>) {
        // Detach the scratch buffers from `self` for the duration of the
        // scan (they are re-attached at the end, keeping their capacity).
        let mut avail = std::mem::take(&mut self.scratch_avail);
        avail.clear();
        match self.kis.snapshot() {
            Some(snapshot) => avail.extend_from_slice(&snapshot.idle),
            None => {
                self.scratch_avail = avail;
                return;
            }
        }
        let mut eff = std::mem::take(&mut self.scratch_eff);
        let mut place_scratch = std::mem::take(&mut self.scratch_place);
        let mut req = std::mem::take(&mut self.scratch_req);
        // Graceful degradation: refuse to place blind. A cluster whose
        // control channel is inside a flaky episode would lose most of
        // the submissions sent its way, so its capacity is masked out of
        // this scan and the jobs wait for a healthier window instead.
        if !self.queue.is_empty() {
            if let Some(faults) = self.faults.as_mut() {
                if faults.spec().flaky.is_some() {
                    let now = engine.now();
                    for (c, a) in avail.iter_mut().enumerate() {
                        if *a > 0 && faults.is_flaky(ClusterId(c as u16), now) {
                            *a = 0;
                            self.ctrl.flaky_deferrals += 1;
                        }
                    }
                }
            }
        }
        // `eff` is `avail` capped by the expansion threshold's remaining
        // headroom; both inputs only change when a placement claims
        // processors (or a PWA intervention grows running jobs), so the
        // recomputation is gated on this dirty flag.
        let mut eff_dirty = true;
        let mut pwa_handled = false;
        let threshold = self.cfg.sched.placement_retry_threshold;
        #[cfg(debug_assertions)]
        self.jobs.assert_hot_coherent();
        // Nothing below touches `self.queue` until the walk is put back;
        // `reattach` asserts that in debug builds.
        let mut walk = self.queue.detach();
        while let Some(id) = walk.visit() {
            // Hot filter: the contiguous phase column answers "still
            // queued?" without pulling the wide `Job` struct into cache.
            let slot = self.jobs.slot_of(id);
            if self.jobs.phase_at(slot) != JobPhase::Queued {
                continue;
            }
            let (min_need, total_need) =
                Self::placement_need(self.jobs.get(id).expect("queued job is live"));
            // Availability for KOALA is the snapshot idle count further
            // capped by the expansion threshold's remaining headroom
            // (live, since earlier placements in this scan consume it).
            if eff_dirty {
                let budget = self.koala_headroom();
                eff.clear();
                eff.extend(avail.iter().map(|&a| a.min(budget)));
                self.avail_idx.rebuild(&eff);
                eff_dirty = false;
            }
            // Availability-index quick-reject: when no cluster can host
            // the job's smallest component, or the platform's total
            // headroom is below its summed minimums, every policy is
            // guaranteed to return `None` (see [`crate::avail`]) — take
            // the failure path without building the request or paying
            // for the policy walk.
            if self.cfg.sched.avail_index && !self.avail_idx.can_fit(min_need, total_need) {
                self.avail_idx.note_quick_reject();
                if self.cfg.sched.approach == Approach::Pwa && !pwa_handled {
                    pwa_handled = true;
                    self.pwa_make_room(engine, id);
                    // PWA may have grown running jobs on the spot,
                    // consuming expansion-threshold headroom.
                    eff_dirty = true;
                }
                if walk.fail_current(threshold) {
                    self.fail_submission(id);
                }
                continue;
            }
            Self::request_for(self.jobs.get(id).expect("queued job is live"), &mut req);
            let placed =
                self.placement
                    .place_in(&req, &mut eff, &mut place_scratch, self.files.as_ref());
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
                                let now = engine.now();
                                let slot = self.jobs.slot_of(id);
                                let job = self.jobs.get_mut(id).expect("placed job");
                                job.phase = JobPhase::Staging;
                                job.cluster = Some(cp.cluster);
                                job.pending_claim = Some(vec![(cp.cluster, cp.size)]);
                                self.collect.placed(slot, now);
                                let gen = job.gen;
                                self.jobs.sync_hot(id);
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
                    // Co-allocated claims are all-or-nothing: a partial
                    // failure releases what was already claimed, as in
                    // KOALA's co-allocator.
                    let mut got: Vec<(ClusterId, AllocId, u32)> = Vec::new();
                    let mut all_ok = true;
                    for cp in &placement {
                        match self
                            .mc
                            .cluster_mut(cp.cluster)
                            .allocate(AllocOwner::Koala(id.0 as u64), cp.size)
                        {
                            Ok(alloc) => got.push((cp.cluster, alloc, cp.size)),
                            Err(_) => {
                                all_ok = false;
                                break;
                            }
                        }
                    }
                    if all_ok {
                        for &(c, _, size) in &got {
                            avail[c.index()] = avail[c.index()].saturating_sub(size);
                        }
                        walk.remove_current();
                        self.commit_placement(engine, id, got);
                    } else {
                        for (c, alloc, _) in got {
                            self.mc.cluster_mut(c).release(alloc).expect("just claimed");
                        }
                        if walk.fail_current(threshold) {
                            self.fail_submission(id);
                        }
                    }
                }
                None => {
                    if self.cfg.sched.approach == Approach::Pwa && !pwa_handled {
                        pwa_handled = true;
                        self.pwa_make_room(engine, id);
                        // PWA may have grown running jobs on the spot,
                        // consuming expansion-threshold headroom.
                        eff_dirty = true;
                    }
                    if walk.fail_current(threshold) {
                        self.fail_submission(id);
                    }
                }
            }
        }
        self.queue.reattach(walk);
        self.scratch_avail = avail;
        self.scratch_eff = eff;
        self.scratch_place = place_scratch;
        self.scratch_req = req;
    }

    /// A failed placement try outside the queue scan: a claim that lost
    /// its race after the job went back to the queue.
    fn fail_try(&mut self, id: JobId) {
        if self
            .queue
            .record_failed_try(id, self.cfg.sched.placement_retry_threshold)
        {
            self.fail_submission(id);
        }
    }

    /// The retry threshold failed `id`'s submission; it has already left
    /// the queue.
    fn fail_submission(&mut self, id: JobId) {
        let slot = self.jobs.slot_of(id);
        let job = self.jobs.get_mut(id).expect("failing job is live");
        job.phase = JobPhase::Failed;
        job.gen.bump(); // invalidate every remaining event for this job
        self.jobs.sync_hot(id);
        self.collect.placement_failed(slot);
        self.jobs.retire(id);
    }

    fn commit_placement(
        &mut self,
        engine: &mut Engine<Ev>,
        id: JobId,
        components: Vec<(ClusterId, AllocId, u32)>,
    ) {
        let now = engine.now();
        let total: u32 = components.iter().map(|&(_, _, s)| s).sum();
        let (cluster, alloc, size) = components[0];
        let slot = self.jobs.slot_of(id);
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
        self.collect.placed(slot, now);
        self.trace.record(now, "place", id.0 as u64, || {
            format!(
                "{} procs on {:?} (+{} components)",
                total,
                cluster,
                components.len() - 1
            )
        });
        let gen = job.gen;
        self.jobs.sync_hot(id);
        if self.staging_required(id, cluster) {
            // Bandwidth-true staging: the GRAM submission waits until
            // the input transfers land. The allocation is held through
            // the whole staging window — exactly the idle-processor
            // cost the deferred claiming policy exists to avoid.
            engine.schedule_now(Ev::TransferStart { job: id, gen });
        } else {
            let delay = self.cfg.sched.gram.batch_submit_time(total);
            self.send_ctrl(engine, id, gen, CtrlOp::Start, Some(cluster), delay, 0);
        }
        for &(c, _, _) in &components {
            self.avail_idx.mark(c);
            self.sync_baseline(c);
        }
        self.touch_util(now);
    }

    fn on_start_held(&mut self, engine: &mut Engine<Ev>, id: JobId, gen: Generation) {
        let now = engine.now();
        let mc = &self.mc;
        let Some(job) = self.jobs.get_mut(id) else {
            return;
        };
        if !job.gen.matches(gen) || job.phase != JobPhase::Starting {
            return;
        }
        job.phase = JobPhase::Running;
        job.started = Some(now);
        let primary = job
            .alloc
            .and_then(|a| {
                mc.cluster(job.cluster.expect("a starting job was placed"))
                    .alloc_size(a)
            })
            .expect("starting job holds an allocation");
        let extra: u32 = job
            .extra_allocs
            .iter()
            .map(|&(c, a)| mc.cluster(c).alloc_size(a).expect("component held"))
            .sum();
        let size = primary + extra;
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
        let slot = self.jobs.slot_of(id);
        self.jobs.sync_hot(id);
        self.collect.started(slot, now, size);
        self.trace
            .record(now, "start", id.0 as u64, || format!("size {size}"));
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

    // ------------------------------------------------------------------
    // Malleability: grow
    // ------------------------------------------------------------------

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
        if grow_value == 0 {
            return;
        }
        let mut views = std::mem::take(&mut self.scratch_views);
        self.running_views_into(cluster, true, &mut views);
        if views.is_empty() {
            self.scratch_views = views;
            return;
        }
        let jobs = &mut self.jobs;
        let mut accept = |id: JobId, offered: u32| -> u32 {
            jobs.get_mut(id)
                .expect("views contain only live jobs")
                .runner
                .as_mut()
                .expect("views contain only malleable jobs")
                .offer_grow(offered)
        };
        let outcome = self.malleability.run_grow(&views, grow_value, &mut accept);
        self.scratch_views = views;
        self.grow_messages += outcome.messages as u64;
        for op in &outcome.ops {
            self.collect.grow_op(now);
            self.trace.record(now, "grow", op.job.0 as u64, || {
                format!("accepted {} of {} on {cluster:?}", op.accepted, op.offered)
            });
            let job = self.jobs.get(op.job).expect("growing job is live");
            let alloc = job.alloc.expect("running job has an allocation");
            let gen = job.gen;
            self.mc
                .cluster_mut(cluster)
                .grow(alloc, op.accepted)
                .expect("policy bounded by idle count");
            self.avail_idx.mark(cluster);
            let delay = self.cfg.sched.gram.batch_submit_time(op.accepted);
            self.send_ctrl(engine, op.job, gen, CtrlOp::Grow, Some(cluster), delay, 0);
        }
        if !outcome.ops.is_empty() {
            self.touch_util(now);
            self.sync_baseline(cluster);
        }
    }

    /// The most processors KOALA may occupy across the whole system —
    /// the Section V-B expansion threshold: "a threshold is set over
    /// which KOALA never expands the total set of the jobs it manages".
    fn koala_cap(&mut self) -> u32 {
        let total = self.mc.total_capacity();
        if self.koala_cap_memo.0 != total {
            let cap = (total as f64 * self.cfg.sched.koala_share).floor() as u32;
            self.koala_cap_memo = (total, cap);
        }
        self.koala_cap_memo.1
    }

    /// Processors KOALA may still take (anywhere) before hitting the
    /// expansion threshold.
    fn koala_headroom(&mut self) -> u32 {
        self.koala_cap()
            .saturating_sub(self.mc.total_used_by_koala())
    }

    /// Clamps the offered-idle baseline after consumption so future
    /// releases are measured against the real idle level.
    fn sync_baseline(&mut self, cluster: ClusterId) {
        let idle = self.mc.cluster(cluster).idle();
        let b = &mut self.idle_baseline[cluster.index()];
        *b = (*b).min(idle);
    }

    fn on_grow_held(&mut self, engine: &mut Engine<Ev>, id: JobId, gen: Generation) {
        let now = engine.now();
        let Some(job) = self.jobs.get_mut(id) else {
            return;
        };
        if !job.gen.matches(gen) || job.phase != JobPhase::Running {
            return;
        }
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
        job.progress
            .as_mut()
            .expect("a growing job was running, so its progress exists")
            .pause(now, &job.model);
        job.phase = JobPhase::Reconfiguring;
        job.gen.bump(); // invalidate the pending Completion
        let gen = job.gen;
        let cluster = job.cluster;
        self.jobs.sync_hot(id);
        let delay =
            self.cfg.sched.gram.recruit_time(added) + self.cfg.sched.reconfig.grow_cost(old, new);
        self.send_ctrl(engine, id, gen, CtrlOp::RecruitSync, cluster, delay, 0);
        if let Some(c) = cluster {
            self.open_reconfig_traffic(engine, id, c, added);
        }
    }

    // ------------------------------------------------------------------
    // Malleability: shrink (PWA)
    // ------------------------------------------------------------------

    /// PWA, Section V-B: queued job `id` cannot be placed. Pick the
    /// cluster that can yield the most processors; if shrinking running
    /// malleable jobs there can make room for the job's minimum size,
    /// mandatorily shrink. Otherwise grow running jobs instead.
    fn pwa_make_room(&mut self, engine: &mut Engine<Ev>, id: JobId) {
        let min_needed = self
            .jobs
            .get(id)
            .expect("queued job is live")
            .spec
            .class
            .min_size();
        // Evaluate each cluster's potential: live idle + in-flight
        // releases + what mandatory shrinks could still reclaim. Nothing
        // below mutates state, so the headroom is read once.
        let headroom = self.koala_headroom();
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
            for ci in 0..self.mc.len() {
                self.offer_new_capacity(engine, ClusterId(ci as u16));
            }
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
        let mut views = std::mem::take(&mut self.scratch_views);
        self.running_views_into(cluster, false, &mut views);
        if views.is_empty() || value == 0 {
            self.scratch_views = views;
            return;
        }
        let jobs = &mut self.jobs;
        let mut accept = |id: JobId, requested: u32| -> u32 {
            jobs.get_mut(id)
                .expect("views contain only live jobs")
                .runner
                .as_mut()
                .expect("views contain only malleable jobs")
                .request_shrink(requested, true)
        };
        let outcome = self.malleability.run_shrink(&views, value, &mut accept);
        self.scratch_views = views;
        self.shrink_messages += outcome.messages as u64;
        for op in &outcome.ops {
            self.collect.shrink_op(now);
            self.trace.record(now, "shrink", op.job.0 as u64, || {
                format!(
                    "releasing {} of {} requested on {cluster:?}",
                    op.released, op.requested
                )
            });
            self.pending_release[cluster.index()] += op.released;
            let job = self.jobs.get_mut(op.job).expect("shrinking job is live");
            let runner = job
                .runner
                .as_ref()
                .expect("shrink ops target only malleable jobs");
            let old = runner.dynaco.size();
            let new = old - op.released;
            job.progress
                .as_mut()
                .expect("a shrinking job was running, so its progress exists")
                .pause(now, &job.model);
            job.phase = JobPhase::Reconfiguring;
            job.gen.bump();
            let gen = job.gen;
            self.jobs.sync_hot(op.job);
            let delay =
                self.cfg.sched.gram.message_latency + self.cfg.sched.reconfig.shrink_cost(old, new);
            self.send_ctrl(
                engine,
                op.job,
                gen,
                CtrlOp::ShrinkSync,
                Some(cluster),
                delay,
                0,
            );
            self.open_reconfig_traffic(engine, op.job, cluster, op.released);
        }
    }

    fn on_sync_done(&mut self, engine: &mut Engine<Ev>, id: JobId, gen: Generation, grow: bool) {
        let now = engine.now();
        let Some(job) = self.jobs.get_mut(id) else {
            return;
        };
        if !job.gen.matches(gen) || job.phase != JobPhase::Reconfiguring {
            return;
        }
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
        self.trace
            .record(now, "resume", id.0 as u64, || format!("size {new_size}"));
        let slot = self.jobs.slot_of(id);
        self.collect.resized(slot, now, new_size, grow);
        self.schedule_completion(engine, id);
        self.schedule_initiative(engine, id);
        if released > 0 {
            let job = self.jobs.get_mut(id).expect("job finishing a sync is live");
            let gen = job.gen;
            let cluster = job.cluster;
            job.release_since = Some(now);
            let delay = self.cfg.sched.gram.batch_release_time(released);
            self.send_ctrl(
                engine,
                id,
                gen,
                CtrlOp::Release { count: released },
                cluster,
                delay,
                0,
            );
        }
    }

    fn on_shrink_released(
        &mut self,
        engine: &mut Engine<Ev>,
        id: JobId,
        gen: Generation,
        count: u32,
    ) {
        let now = engine.now();
        let Some(job) = self.jobs.get_mut(id) else {
            return;
        };
        if !job.gen.matches(gen) {
            return;
        }
        let cluster = job.cluster.expect("a releasing job was placed");
        let alloc = job.alloc.expect("a releasing job holds its allocation");
        let runner = job
            .runner
            .as_mut()
            .expect("only malleable jobs release processors");
        if runner.releasing() == 0 {
            // Duplicate delivery, or the orphaned-allocation sweep
            // already reclaimed this batch — drop idempotently.
            // Unreachable with faults off.
            return;
        }
        runner.release_confirmed();
        job.release_since = None;
        self.mc
            .cluster_mut(cluster)
            .shrink(alloc, count)
            .expect("releasing held processors");
        self.pending_release[cluster.index()] =
            self.pending_release[cluster.index()].saturating_sub(count);
        self.touch_util(now);
        self.capacity_freed(engine, cluster);
    }

    // ------------------------------------------------------------------
    // Control-plane fault injection: lossy messaging, timeouts, retries
    // ------------------------------------------------------------------

    /// Sends one KOALA→GRAM control message: its effect event is
    /// scheduled after `delay`, subject to the fault model when one is
    /// installed.
    ///
    /// With faults **off** this is pure plumbing — the effect is
    /// scheduled directly, with no deadline event and no RNG draw, so
    /// trajectories stay bit-identical to the pre-fault-layer code (the
    /// passivity golden pins this). With faults on, the message may be
    /// lost (effect never scheduled), duplicated (effect scheduled twice;
    /// the handlers drop the second application idempotently) or delayed
    /// by jitter, and an [`Ev::CtrlTimeout`] deadline guards the
    /// operation with capped exponential backoff.
    #[allow(clippy::too_many_arguments)] // one call per message send; mirrors the op tuple
    fn send_ctrl(
        &mut self,
        engine: &mut Engine<Ev>,
        id: JobId,
        gen: Generation,
        op: CtrlOp,
        cluster: Option<ClusterId>,
        delay: SimDuration,
        attempt: u32,
    ) {
        let Some(faults) = self.faults.as_mut() else {
            engine.schedule_in(delay, op.effect(id, gen));
            return;
        };
        let outcome = faults.outcome(op.class(), cluster, engine.now());
        if outcome.delivered {
            engine.schedule_in(delay + outcome.jitter, op.effect(id, gen));
            if outcome.duplicated {
                // The duplicate is really delivered; exactly one of the
                // two arrivals applies, so the idempotent handlers are
                // guaranteed to drop the other — count it here, where
                // a drop cannot be confused with a stale-generation one.
                self.ctrl.duplicates_dropped += 1;
                engine.schedule_in(delay + outcome.dup_jitter, op.effect(id, gen));
            }
        } else {
            self.ctrl.messages_lost += 1;
        }
        let deadline = self.cfg.sched.retry.deadline_for(attempt);
        engine.schedule_in(
            deadline,
            Ev::CtrlTimeout {
                job: id,
                gen,
                op,
                attempt,
            },
        );
    }

    /// A control deadline expired. If the guarded operation completed in
    /// the meantime (the common case — deadlines are conservative), this
    /// is a no-op; otherwise the message is presumed lost and re-sent
    /// with capped exponential backoff until the attempt budget runs
    /// out, at which point the per-operation give-up policy applies.
    fn on_ctrl_timeout(
        &mut self,
        engine: &mut Engine<Ev>,
        id: JobId,
        gen: Generation,
        op: CtrlOp,
        attempt: u32,
    ) {
        let Some(job) = self.jobs.get(id) else {
            return;
        };
        if !job.gen.matches(gen) {
            return;
        }
        let pending = match op {
            CtrlOp::Start => job.phase == JobPhase::Starting,
            CtrlOp::Grow => {
                job.phase == JobPhase::Running
                    && job.runner.as_ref().is_some_and(|r| r.submitting() > 0)
            }
            CtrlOp::RecruitSync | CtrlOp::ShrinkSync => job.phase == JobPhase::Reconfiguring,
            CtrlOp::Release { .. } => job.runner.as_ref().is_some_and(|r| r.releasing() > 0),
        };
        if !pending {
            return;
        }
        self.ctrl.timeouts += 1;
        let next = attempt + 1;
        if next < self.cfg.sched.retry.max_attempts {
            self.ctrl.retries += 1;
            let (cluster, delay) = self.resend_params(id, op);
            self.send_ctrl(engine, id, gen, op, cluster, delay, next);
            return;
        }
        self.give_up(engine, id, op);
    }

    /// Destination cluster and GRAM latency of a re-send — a pure
    /// function of the job's current state (re-driving a sync is a
    /// single control message; batch sends pay the batch latency again).
    fn resend_params(&self, id: JobId, op: CtrlOp) -> (Option<ClusterId>, SimDuration) {
        let job = self.jobs.get(id).expect("pending op implies a live job");
        let gram = &self.cfg.sched.gram;
        let delay = match op {
            CtrlOp::Start => {
                let primary = job
                    .cluster
                    .zip(job.alloc)
                    .and_then(|(c, a)| self.mc.cluster(c).alloc_size(a))
                    .unwrap_or(0);
                let extra: u32 = job
                    .extra_allocs
                    .iter()
                    .filter_map(|&(c, a)| self.mc.cluster(c).alloc_size(a))
                    .sum();
                gram.batch_submit_time(primary + extra)
            }
            CtrlOp::Grow => {
                gram.batch_submit_time(job.runner.as_ref().map_or(0, |r| r.submitting()))
            }
            CtrlOp::RecruitSync | CtrlOp::ShrinkSync => gram.message_latency,
            CtrlOp::Release { count } => gram.batch_release_time(count),
        };
        (job.cluster, delay)
    }

    /// The attempt budget of a control operation is exhausted: degrade
    /// gracefully instead of blocking forever.
    ///
    /// * `Start` — the GRAM batch never ran: surrender the allocation,
    ///   re-queue the job and charge a failed placement try.
    /// * `Grow` — the stub batch never ran: abort the grow and return
    ///   the stub processors to the cluster; the job keeps running at
    ///   its old size.
    /// * `RecruitSync` / `ShrinkSync` — the sync signal is lost, but
    ///   both endpoints hold the state to finish locally:
    ///   force-complete the reconfiguration (a late duplicate is dropped
    ///   idempotently).
    /// * `Release` — stop retrying; the orphaned-allocation sweep
    ///   reclaims the batch after the grace window, so nodes never leak.
    fn give_up(&mut self, engine: &mut Engine<Ev>, id: JobId, op: CtrlOp) {
        let now = engine.now();
        match op {
            CtrlOp::Start => {
                let job = self
                    .jobs
                    .get_mut(id)
                    .expect("pending op implies a live job");
                let cluster = job.cluster.take().expect("a starting job was placed");
                let alloc = job
                    .alloc
                    .take()
                    .expect("a starting job holds its allocation");
                let extras = std::mem::take(&mut job.extra_allocs);
                job.runner = None;
                job.started = None;
                job.pending_claim = None;
                job.phase = JobPhase::Queued;
                job.gen.bump(); // orphan any in-flight duplicate StartHeld
                self.jobs.sync_hot(id);
                self.trace.record(now, "ctrl-requeue", id.0 as u64, || {
                    "start submission timed out".to_string()
                });
                self.mc
                    .cluster_mut(cluster)
                    .release(alloc)
                    .expect("surrendered allocation was held");
                let mut freed = vec![cluster];
                for (c, a) in extras {
                    self.mc
                        .cluster_mut(c)
                        .release(a)
                        .expect("surrendered component was held");
                    if !freed.contains(&c) {
                        freed.push(c);
                    }
                }
                self.queue.push_back(id);
                self.fail_try(id);
                self.touch_util(now);
                for c in freed {
                    self.capacity_freed(engine, c);
                }
            }
            CtrlOp::Grow => {
                let job = self
                    .jobs
                    .get_mut(id)
                    .expect("pending op implies a live job");
                let cluster = job.cluster.expect("a growing job was placed");
                let alloc = job.alloc.expect("a growing job holds its allocation");
                let runner = job.runner.as_mut().expect("grow implies malleable");
                let stubs = runner.submitting();
                runner.abort_grow();
                self.trace.record(now, "ctrl-abort-grow", id.0 as u64, || {
                    format!("{stubs} stubs timed out")
                });
                if stubs > 0 {
                    self.mc
                        .cluster_mut(cluster)
                        .shrink(alloc, stubs)
                        .expect("stub processors were held");
                }
                self.touch_util(now);
                self.capacity_freed(engine, cluster);
            }
            CtrlOp::RecruitSync | CtrlOp::ShrinkSync => {
                let grow = op == CtrlOp::RecruitSync;
                self.trace.record(now, "ctrl-force-sync", id.0 as u64, || {
                    format!(
                        "{} sync timed out; completing locally",
                        if grow { "grow" } else { "shrink" }
                    )
                });
                let gen = self
                    .jobs
                    .get(id)
                    .expect("pending op implies a live job")
                    .gen;
                self.on_sync_done(engine, id, gen, grow);
            }
            CtrlOp::Release { .. } => {
                // Keep the batch earmarked; the orphaned-allocation
                // sweep reclaims it after the grace window.
                self.trace
                    .record(now, "ctrl-release-lost", id.0 as u64, String::new);
            }
        }
    }

    /// Periodic orphaned-allocation sweep: a release batch still pending
    /// past the grace window lost its message *and* its retries — the
    /// processors would leak silently without this backstop. Reclaim
    /// locally, exactly as a delivered [`Ev::ShrinkReleased`] would.
    fn on_orphan_sweep(&mut self, engine: &mut Engine<Ev>) {
        let now = engine.now();
        let grace = self.cfg.sched.retry.orphan_grace;
        let mut orphans: Vec<JobId> = Vec::new();
        for j in self.jobs.iter_live() {
            let stuck = j
                .release_since
                .is_some_and(|since| now.saturating_since(since) >= grace)
                && j.runner.as_ref().is_some_and(|r| r.releasing() > 0);
            if stuck {
                orphans.push(j.id);
            }
        }
        for id in orphans {
            let job = self.jobs.get_mut(id).expect("iterated live above");
            let cluster = job.cluster.expect("a releasing job was placed");
            let alloc = job.alloc.expect("a releasing job holds its allocation");
            let runner = job.runner.as_mut().expect("only malleable jobs release");
            let count = runner.releasing();
            runner.release_confirmed();
            job.release_since = None;
            self.trace.record(now, "ctrl-reclaim", id.0 as u64, || {
                format!("{count} orphaned processors on {cluster:?}")
            });
            self.mc
                .cluster_mut(cluster)
                .shrink(alloc, count)
                .expect("orphaned processors were held");
            self.pending_release[cluster.index()] =
                self.pending_release[cluster.index()].saturating_sub(count);
            self.ctrl.reclaimed_allocations += u64::from(count);
            self.touch_util(now);
            self.capacity_freed(engine, cluster);
        }
        if !self.done() {
            engine.schedule_in(self.cfg.sched.retry.orphan_sweep_period, Ev::OrphanSweep);
        }
    }

    // ------------------------------------------------------------------
    // Completion
    // ------------------------------------------------------------------

    fn on_completion(&mut self, engine: &mut Engine<Ev>, id: JobId, gen: Generation) {
        let now = engine.now();
        let slot = match self.jobs.get(id) {
            Some(_) => self.jobs.slot_of(id),
            None => return,
        };
        let job = self.jobs.get_mut(id).expect("checked live above");
        if !job.gen.matches(gen) || job.phase != JobPhase::Running {
            return;
        }
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
        // Clean up any in-flight malleability state: pending stubs are
        // part of the allocation and go back with it; a pending release
        // pipeline is cancelled.
        if let Some(runner) = job.runner.as_mut() {
            runner.abort_grow();
            let in_release = runner.releasing();
            if in_release > 0 {
                self.pending_release[cluster.index()] =
                    self.pending_release[cluster.index()].saturating_sub(in_release);
                runner.release_confirmed();
            }
        }
        job.release_since = None;
        job.phase = JobPhase::Completed;
        job.gen.bump(); // invalidate every remaining event for this job
        self.jobs.sync_hot(id);
        self.trace.record(now, "complete", id.0 as u64, String::new);
        self.collect.completed(slot, now);
        // Terminal: the slab drops the job in streaming mode, bounding
        // live memory to the in-flight job count.
        self.jobs.retire(id);
        self.mc
            .cluster_mut(cluster)
            .release(alloc)
            .expect("completed job held an allocation");
        for &(c, a) in &extras {
            self.mc
                .cluster_mut(c)
                .release(a)
                .expect("completed job held all its components");
        }
        self.touch_util(now);
        // The primary cluster first, then each other component cluster
        // once, in component order.
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
        // Release-side funnel: every "processors came back" path lands
        // here with the exact cluster, so one mark covers completion,
        // requeue, crash-survivor release, orphan reclaim, shrink
        // confirmation, node restore and autoscale grow.
        self.avail_idx.mark(cluster);
        match self.cfg.sched.approach {
            Approach::Pra => {
                // Running applications take precedence; the queue gets
                // whatever they decline.
                self.offer_new_capacity(engine, cluster);
                self.scan_queue(engine);
            }
            Approach::Pwa => {
                // Waiting applications take precedence: scan first; only
                // newly freed capacity no waiting job claims goes to the
                // running jobs.
                self.scan_queue(engine);
                if self.queue.is_empty() {
                    self.offer_new_capacity(engine, cluster);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Background load
    // ------------------------------------------------------------------

    fn on_bg_arrival(&mut self, engine: &mut Engine<Ev>, cluster: ClusterId) {
        let now = engine.now();
        let sample = self.cfg.background.sample_job(&mut self.bg_rng);
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
        let cap = self.mc.cluster(cluster).capacity();
        if let Some(gap) = self
            .cfg
            .background
            .sample_interarrival_for(&mut self.bg_rng, cap)
        {
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

    // ------------------------------------------------------------------
    // Deferred claiming (the processor claimer, Section IV-A)
    // ------------------------------------------------------------------

    /// The postponed claim fires: take the processors now. A failure
    /// (background users got there first during staging) sends the job
    /// back to the placement queue — the risk the claiming policy trades
    /// against holding processors idle through the whole staging window.
    fn on_claim(&mut self, engine: &mut Engine<Ev>, id: JobId, gen: Generation) {
        let Some(job) = self.jobs.get_mut(id) else {
            return;
        };
        if !job.gen.matches(gen) || job.phase != JobPhase::Staging {
            return;
        }
        let components = job
            .pending_claim
            .take()
            .expect("staging job has a pending claim");
        let mut got: Vec<(ClusterId, AllocId, u32)> = Vec::new();
        let mut all_ok = true;
        for &(cluster, size) in &components {
            match self
                .mc
                .cluster_mut(cluster)
                .allocate(AllocOwner::Koala(id.0 as u64), size)
            {
                Ok(alloc) => got.push((cluster, alloc, size)),
                Err(_) => {
                    all_ok = false;
                    break;
                }
            }
        }
        if all_ok {
            self.commit_placement(engine, id, got);
        } else {
            for (c, alloc, _) in got {
                self.mc.cluster_mut(c).release(alloc).expect("just claimed");
            }
            let job = self.jobs.get_mut(id).expect("staging job is live");
            job.phase = JobPhase::Queued;
            job.cluster = None;
            self.jobs.sync_hot(id);
            self.queue.push_back(id);
            self.fail_try(id);
        }
    }

    // ------------------------------------------------------------------
    // The contended network: bandwidth-true staging, reconfig traffic
    // ------------------------------------------------------------------

    /// Whether job `id` has input files that must move before it can
    /// start at `cluster`: the network layer is on, and at least one
    /// input file has no replica at the destination but a *reachable*
    /// replica elsewhere. Unreachable files never gate the start —
    /// like the catalog estimators, reachability is a ranking concern,
    /// not an admission check, and blocking forever on a marooned file
    /// would hang the job.
    fn staging_required(&self, id: JobId, cluster: ClusterId) -> bool {
        let Some(net) = self.net.as_ref() else {
            return false;
        };
        let Some(cat) = self.files.as_ref() else {
            return false;
        };
        let job = self.jobs.get(id).expect("placed job is live");
        let topo = net.flows.topology();
        job.spec.input_files.iter().any(|&f| {
            cat.meta(FileId(f)).is_some_and(|m| {
                !m.replicas.contains(&cluster)
                    && m.replicas
                        .iter()
                        .any(|&r| topo.path_bandwidth_gbps(r, cluster) > 0.0)
            })
        })
    }

    /// Opens the staging transfers of a placed job: one flow per input
    /// file missing at the destination, each from its best replica
    /// (highest uncontended path bandwidth; ties to the lowest cluster
    /// id — deterministic because replicas iterate in `BTreeSet`
    /// order). With nothing to move the job proceeds immediately.
    fn on_transfer_start(&mut self, engine: &mut Engine<Ev>, id: JobId, gen: Generation) {
        let now = engine.now();
        let Some(job) = self.jobs.get(id) else {
            return;
        };
        if !job.gen.matches(gen) || !matches!(job.phase, JobPhase::Starting | JobPhase::Staging) {
            return;
        }
        let dest = job.cluster.expect("a staging job was placed");
        let mut opened = 0u32;
        {
            let net = self
                .net
                .as_mut()
                .expect("TransferStart is only scheduled by the network layer");
            let cat = self
                .files
                .as_ref()
                .expect("the network layer installs a catalog");
            for f in job.spec.input_files.iter().map(|&f| FileId(f)) {
                let Some(meta) = cat.meta(f) else { continue };
                if meta.replicas.contains(&dest) {
                    continue;
                }
                let mut best: Option<(f64, ClusterId)> = None;
                for &r in &meta.replicas {
                    let bw = net.flows.topology().path_bandwidth_gbps(r, dest);
                    if bw <= 0.0 {
                        continue;
                    }
                    if best.is_none_or(|(b, _)| bw > b) {
                        best = Some((bw, r));
                    }
                }
                let Some((_, src)) = best else { continue };
                let (flow, scheds) = net.flows.open(now, src, dest, meta.size_gb);
                net.owners.insert(
                    flow,
                    TransferOwner {
                        job: id,
                        gen,
                        file: Some(f),
                        dest,
                    },
                );
                net.stats.transfers_opened += 1;
                net.stats.bytes_staged_gb += meta.size_gb;
                for s in scheds {
                    engine.schedule_at(
                        s.eta,
                        Ev::TransferDone {
                            transfer: s.flow,
                            gen: s.gen,
                        },
                    );
                }
                opened += 1;
            }
            if opened > 0 {
                net.staging.insert(
                    id.0,
                    StagingState {
                        pending: opened,
                        gen,
                        since: now,
                    },
                );
            }
        }
        if opened == 0 {
            self.finish_staging(engine, id);
        } else {
            self.trace.record(now, "stage", id.0 as u64, || {
                format!("{opened} transfers to {dest:?}")
            });
        }
    }

    /// A transfer's completion estimate fires. Stale estimates (the
    /// flow was rescheduled by a fair-share change since) are dropped
    /// by the flow generation; a real completion registers the new
    /// replica, feeds the transfer-time stream, and — when it was the
    /// job's last pending transfer — resumes the job's start path.
    fn on_transfer_done(&mut self, engine: &mut Engine<Ev>, transfer: u64, gen: u64) {
        let now = engine.now();
        let Some(net) = self.net.as_mut() else {
            return;
        };
        let Some((done, scheds)) = net.flows.complete(now, transfer, gen) else {
            return; // stale estimate
        };
        for s in scheds {
            engine.schedule_at(
                s.eta,
                Ev::TransferDone {
                    transfer: s.flow,
                    gen: s.gen,
                },
            );
        }
        let owner = net
            .owners
            .remove(&transfer)
            .expect("completed flow has an owner");
        net.stats.transfers_completed += 1;
        // The session decrement is gated on the generation pair: a
        // flow opened for an abandoned placement must not count down
        // a newer session of the same job id.
        let mut since = None;
        if owner.file.is_some() {
            if let Some(st) = net.staging.get_mut(&owner.job.0) {
                if st.gen.matches(owner.gen) {
                    st.pending -= 1;
                    if st.pending == 0 {
                        since = net.staging.remove(&owner.job.0).map(|st| st.since);
                    }
                }
            }
        }
        self.collect
            .transfer_done(now, now.saturating_since(done.opened_at).as_secs_f64());
        if let Some(f) = owner.file {
            // The data landed whether or not the job still wants it.
            if let Some(cat) = self.files.as_mut() {
                cat.add_replica(f, owner.dest);
            }
        }
        if let Some(since) = since {
            let live = self.jobs.get(owner.job).is_some_and(|j| {
                j.gen.matches(owner.gen)
                    && matches!(j.phase, JobPhase::Starting | JobPhase::Staging)
            });
            if live {
                self.collect
                    .staging_delayed(now, now.saturating_since(since).as_secs_f64());
                self.finish_staging(engine, owner.job);
            }
        }
    }

    /// All of a job's staging transfers have landed: resume the start
    /// path. Immediate-claiming jobs (phase `Starting`, allocation
    /// already held) send the GRAM batch now; deferred-claiming jobs
    /// (phase `Staging`, nothing held) claim their processors now —
    /// under measured transfers the claim fires exactly when the data
    /// is in place.
    fn finish_staging(&mut self, engine: &mut Engine<Ev>, id: JobId) {
        let Some(job) = self.jobs.get(id) else {
            return;
        };
        let gen = job.gen;
        match job.phase {
            JobPhase::Starting => {
                let (cluster, delay) = self.resend_params(id, CtrlOp::Start);
                self.send_ctrl(engine, id, gen, CtrlOp::Start, cluster, delay, 0);
            }
            JobPhase::Staging => engine.schedule_now(Ev::Claim { job: id, gen }),
            _ => {}
        }
    }

    /// Opens the redistribution traffic of a reconfiguration on the
    /// job's site access link (`reconfig_gb_per_proc` × processors
    /// moved). Nothing waits on this flow — the job pays its
    /// suspension through the [`crate::config::ReconfigCost`] model as
    /// before — but the flow contends with staging transfers crossing
    /// the same link, which is the coupling the knob buys.
    fn open_reconfig_traffic(
        &mut self,
        engine: &mut Engine<Ev>,
        id: JobId,
        cluster: ClusterId,
        procs: u32,
    ) {
        let Some(net) = self.net.as_mut() else { return };
        if net.reconfig_gb_per_proc <= 0.0 || procs == 0 {
            return;
        }
        let now = engine.now();
        let gen = match self.jobs.get(id) {
            Some(j) => j.gen,
            None => return,
        };
        let (link, latency) = {
            let topo = net.flows.topology();
            let link = topo.access_link(cluster);
            (link, topo.links()[link.index()].latency)
        };
        let size = net.reconfig_gb_per_proc * procs as f64;
        let (flow, scheds) = net.flows.open_on(now, vec![link], latency, size);
        net.owners.insert(
            flow,
            TransferOwner {
                job: id,
                gen,
                file: None,
                dest: cluster,
            },
        );
        net.stats.transfers_opened += 1;
        net.stats.reconfig_transfers += 1;
        for s in scheds {
            engine.schedule_at(
                s.eta,
                Ev::TransferDone {
                    transfer: s.flow,
                    gen: s.gen,
                },
            );
        }
    }

    /// Finalizes the network tallies: drains link busy-time up to the
    /// end of the run and derives the busy-fraction denominator
    /// (`makespan × links`). Zero everything without a network layer.
    fn final_net_stats(&mut self, now: SimTime) -> NetStats {
        match self.net.as_mut() {
            Some(n) => {
                n.flows.advance(now);
                let mut s = n.stats;
                s.link_busy_s = n.flows.busy_seconds();
                s.link_span_s = now.as_secs_f64() * n.flows.link_count() as f64;
                s
            }
            None => NetStats::default(),
        }
    }

    // ------------------------------------------------------------------
    // Application-initiated growth (Section VIII extension)
    // ------------------------------------------------------------------

    /// Schedules the job's pending grow initiative, if any, for the
    /// instant its progress will cross the configured boundary. Called
    /// whenever the job (re)enters steady execution; the generation
    /// stamp invalidates it on the next reconfiguration.
    fn schedule_initiative(&mut self, engine: &mut Engine<Ev>, id: JobId) {
        let job = self.jobs.get(id).expect("running job is live");
        let Some(gi) = job.spec.initiative else {
            return;
        };
        if job.initiative_fired {
            return;
        }
        let Some(progress) = job.progress.as_ref() else {
            return;
        };
        if progress.done() >= gi.at_progress {
            engine.schedule_now(Ev::AppGrowRequest {
                job: id,
                gen: job.gen,
            });
            return;
        }
        // Time until the boundary at the current rate: the remaining
        // fraction scaled by the full-work time at the current size.
        let Some(full) = progress.remaining_time(&job.model) else {
            return;
        };
        let frac = (gi.at_progress - progress.done()) / (1.0 - progress.done()).max(1e-12);
        let delay = simcore::SimDuration::from_secs_f64(full.as_secs_f64() * frac);
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
        let Some(job) = self.jobs.get_mut(id) else {
            return;
        };
        if !job.gen.matches(gen) || job.phase != JobPhase::Running || job.initiative_fired {
            return;
        }
        job.initiative_fired = true;
        let Some(gi) = job.spec.initiative else {
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
        self.collect.grow_op(now);
        let alloc = job.alloc.expect("running job allocated");
        let gen = job.gen;
        self.mc
            .cluster_mut(cluster)
            .grow(alloc, accepted)
            .expect("bounded by idle");
        self.avail_idx.mark(cluster);
        let delay = self.cfg.sched.gram.batch_submit_time(accepted);
        self.send_ctrl(engine, id, gen, CtrlOp::Grow, Some(cluster), delay, 0);
        self.touch_util(now);
        self.sync_baseline(cluster);
    }

    // ------------------------------------------------------------------
    // Availability variation (node withdrawal / restore)
    // ------------------------------------------------------------------

    fn on_node_withdraw(&mut self, engine: &mut Engine<Ev>, cluster: ClusterId, count: u32) {
        let now = engine.now();
        self.trace
            .record(engine.now(), "withdraw", cluster.0 as u64, || {
                format!("{count} nodes requested")
            });
        let taken = self.mc.cluster_mut(cluster).withdraw_free(count);
        if taken > 0 {
            self.avail_idx.mark(cluster);
            self.sync_baseline(cluster);
            self.touch_util(now);
        }
        let remaining = count - taken;
        if remaining == 0 {
            return;
        }
        // Not enough free nodes: reclaim from running malleable jobs via
        // the configured policy (mandatory shrinks), then retry once the
        // releases have landed.
        let shrinkable = self.shrinkable_on(cluster);
        if shrinkable == 0 && self.pending_release[cluster.index()] == 0 {
            // Nothing left to reclaim without killing rigid jobs; the
            // withdrawal stays partial (documented behaviour).
            return;
        }
        self.shrink_cluster(engine, cluster, remaining.min(shrinkable));
        engine.schedule_in(
            simcore::SimDuration::from_secs(30),
            Ev::NodeWithdraw {
                cluster,
                count: remaining,
            },
        );
    }

    fn on_node_restore(&mut self, engine: &mut Engine<Ev>, cluster: ClusterId, count: u32) {
        let now = engine.now();
        let restored = self.mc.cluster_mut(cluster).restore(count);
        if restored > 0 {
            self.touch_util(now);
            // Restored nodes are newly available processors: the
            // malleability manager reacts exactly as for any release.
            self.capacity_freed(engine, cluster);
        }
    }

    // ------------------------------------------------------------------
    // Elasticity: monitoring, autoscaling, node failures
    // ------------------------------------------------------------------

    /// Samples per-cluster utilization and the placement-queue depth
    /// into the report. Strictly passive: the sample drives no
    /// scheduling decision, so enabling monitoring never perturbs the
    /// trajectory.
    fn on_monitor_sample(&mut self, engine: &mut Engine<Ev>) {
        let now = engine.now();
        let utilization = self.mc.clusters().map(|c| {
            let cap = c.capacity();
            if cap == 0 {
                0.0
            } else {
                f64::from(c.used()) / f64::from(cap)
            }
        });
        self.collect
            .monitor_sample(now, utilization, self.queue.len());
        if !self.done() {
            engine.schedule_in(self.cfg.elasticity.monitor_period, Ev::MonitorSample);
        }
    }

    /// One autoscaling cycle: observe every cluster, ask the policy, and
    /// schedule the non-`Hold` decisions to land after the propagation
    /// delay — by which time the observed state may be stale.
    fn on_autoscale_cycle(&mut self, engine: &mut Engine<Ev>) {
        let Some(scaler) = self.autoscaler.as_deref() else {
            return;
        };
        let delay = self.cfg.elasticity.autoscale_delay;
        let queue_depth = self.queue.len();
        for (i, c) in self.mc.clusters().enumerate() {
            let obs = ClusterObservation {
                cluster: ClusterId(i as u16),
                capacity: c.capacity(),
                spec_nodes: c.spec().nodes,
                used: c.used(),
                queue_depth,
            };
            match scaler.decide(&obs) {
                ScaleDecision::Hold => {}
                ScaleDecision::Grow(count) => engine.schedule_in(
                    delay,
                    Ev::AutoscaleApply {
                        cluster: obs.cluster,
                        grow: true,
                        count,
                    },
                ),
                ScaleDecision::Shrink(count) => engine.schedule_in(
                    delay,
                    Ev::AutoscaleApply {
                        cluster: obs.cluster,
                        grow: false,
                        count,
                    },
                ),
            }
        }
        if !self.done() {
            engine.schedule_in(self.cfg.elasticity.autoscale_period, Ev::AutoscaleCycle);
        }
    }

    /// A scale decision lands. Grow repairs down nodes (the pool ceiling
    /// is the cluster's static size); shrink withdraws free nodes only —
    /// autoscaling never kills or shrinks running jobs, that is the
    /// failure stream's (or [`Ev::NodeWithdraw`]'s) job.
    fn on_autoscale_apply(
        &mut self,
        engine: &mut Engine<Ev>,
        cluster: ClusterId,
        grow: bool,
        count: u32,
    ) {
        let now = engine.now();
        if grow {
            let restored = self.mc.cluster_mut(cluster).restore(count);
            if restored > 0 {
                self.collect.scale_op(now, true);
                self.trace.record(now, "scale-up", cluster.0 as u64, || {
                    format!("{restored} nodes")
                });
                self.touch_util(now);
                self.capacity_freed(engine, cluster);
            }
        } else {
            let taken = self.mc.cluster_mut(cluster).withdraw_free(count);
            if taken > 0 {
                self.collect.scale_op(now, false);
                self.trace.record(now, "scale-down", cluster.0 as u64, || {
                    format!("{taken} nodes")
                });
                self.avail_idx.mark(cluster);
                self.sync_baseline(cluster);
                self.touch_util(now);
            }
        }
    }

    /// Seeded node crash: take nodes (busy ones included), handle every
    /// job that lost processors per the configured
    /// [`multicluster::FailurePolicy`], and schedule the repair.
    fn on_node_crash(
        &mut self,
        engine: &mut Engine<Ev>,
        cluster: ClusterId,
        count: u32,
        repair_after: SimDuration,
    ) {
        let now = engine.now();
        let (taken, victims) = self.mc.cluster_mut(cluster).crash(count);
        if taken > 0 {
            self.avail_idx.mark(cluster);
        }
        self.trace.record(now, "crash", cluster.0 as u64, || {
            format!("{taken} nodes, {} victim allocations", victims.len())
        });
        // Until the last victim is cleaned up, a job may still look
        // Running on an allocation the crash destroyed.
        self.crash_cleanup = true;
        for v in &victims {
            match v.owner {
                AllocOwner::Koala(jid) => {
                    self.crash_koala_victim(engine, JobId(jid as u32), v);
                }
                AllocOwner::Local(_) => {
                    // The background job's allocation shrank in place or
                    // vanished with its last node; `on_bg_complete`
                    // tolerates both when its completion fires.
                }
            }
        }
        self.crash_cleanup = false;
        if taken > 0 {
            self.sync_baseline(cluster);
            self.touch_util(now);
            engine.schedule_in(
                repair_after,
                Ev::NodeRestore {
                    cluster,
                    count: taken,
                },
            );
        }
        // Draw the next failure unconditionally — the stream is a pure
        // function of its seed, never of what this crash hit.
        if let Some(stream) = self.failures.as_mut() {
            let f = stream.next_event();
            engine.schedule_at(
                f.at,
                Ev::NodeCrash {
                    cluster: f.cluster,
                    count: f.nodes,
                    repair_after: f.repair_after,
                },
            );
        }
    }

    /// One KOALA job lost processors to a crash: release whatever
    /// survived (the remainder of the crashed allocation plus any
    /// co-allocated components elsewhere), then kill or re-queue the job
    /// per the failure policy. The work done so far is lost either way —
    /// the paper's malleable applications checkpoint nothing.
    fn crash_koala_victim(&mut self, engine: &mut Engine<Ev>, id: JobId, v: &CrashVictim) {
        let now = engine.now();
        let Some(job) = self.jobs.get(id) else {
            return;
        };
        if job.is_terminal() {
            return;
        }
        let slot = self.jobs.slot_of(id);
        let job = self.jobs.get_mut(id).expect("checked live above");
        let home = job.cluster.take();
        // Cancel any in-flight malleability state, as on completion.
        if let Some(runner) = job.runner.as_mut() {
            runner.abort_grow();
            let in_release = runner.releasing();
            if in_release > 0 {
                if let Some(c) = home {
                    self.pending_release[c.index()] =
                        self.pending_release[c.index()].saturating_sub(in_release);
                }
                runner.release_confirmed();
            }
        }
        let alloc = job.alloc.take();
        let extras = std::mem::take(&mut job.extra_allocs);
        job.runner = None;
        job.progress = None;
        job.started = None;
        job.initiative_fired = false;
        job.pending_claim = None;
        job.release_since = None;
        job.gen.bump(); // invalidate every remaining event for this job
        match self.cfg.elasticity.failure_policy {
            FailurePolicy::Kill => {
                job.phase = JobPhase::Failed;
                self.trace.record(now, "killed", id.0 as u64, || {
                    format!("crash took {} nodes", v.lost)
                });
                self.collect.job_killed(slot);
                self.jobs.retire(id);
            }
            FailurePolicy::Requeue => {
                job.phase = JobPhase::Queued;
                self.trace.record(now, "requeue", id.0 as u64, || {
                    format!("crash took {} nodes", v.lost)
                });
                self.collect.job_requeued();
                self.queue.push_back(id);
            }
        }
        // One mirror refresh covers the `cluster.take()` above and the
        // phase write of whichever policy arm ran (a no-op for a killed
        // streaming job whose slot was just freed — `retire` already
        // dropped that slot from the running index).
        self.jobs.sync_hot(id);
        // Release the survivors. The crashed allocation may be gone
        // entirely (`alloc_size` is `None` once its last node went
        // down); co-allocated components on other clusters are intact.
        let mut freed: Vec<ClusterId> = Vec::new();
        for (c, a) in home.zip(alloc).into_iter().chain(extras) {
            if self.mc.cluster(c).alloc_size(a).is_some() {
                self.mc
                    .cluster_mut(c)
                    .release(a)
                    .expect("liveness checked above");
                if !freed.contains(&c) {
                    freed.push(c);
                }
            }
        }
        self.touch_util(now);
        for c in freed {
            self.capacity_freed(engine, c);
        }
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

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
    /// to jobs above their minimum. `out` is a detached scratch buffer
    /// ([`World::scratch_views`]): cleared here, re-attached by the
    /// caller, so steady-state calls allocate nothing.
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
    }

    /// Processors mandatory shrinks could reclaim on `cluster`: the sum
    /// of `size − min` over the views [`World::running_views_into`]
    /// would build for shrinking, computed without building them.
    fn shrinkable_on(&self, cluster: ClusterId) -> u32 {
        self.malleable_running_on(cluster)
            .map(|j| {
                let dynaco = &j.runner.as_ref().expect("eligible implies runner").dynaco;
                dynaco.size() - dynaco.min()
            })
            .sum()
    }

    fn touch_util(&mut self, now: SimTime) {
        self.collect.utilization(now, &self.mc);
    }

    /// End-of-run accounting check, compiled into release builds too
    /// (the per-event check in [`World::handle`] is debug-only): every
    /// cluster's incremental occupancy counters must still agree with a
    /// recount of its allocations. O(nodes + allocations), once per run.
    fn check_final_accounting(&self) {
        self.mc
            .check_invariants()
            .expect("cluster occupancy counters must match a recount at the end of a run");
    }

    /// Finalizes the full report.
    ///
    /// # Panics
    /// Panics in summarized mode — use [`World::finish_summary`].
    pub fn finish(mut self, engine: &Engine<Ev>) -> RunReport {
        self.check_final_accounting();
        let mut ctrl = self.ctrl;
        ctrl.leaked_allocations = u64::from(self.mc.total_used_by_koala());
        let net = self.final_net_stats(engine.now());
        self.collect.into_full().finish(
            self.cfg.name.clone(),
            self.seed,
            engine.now(),
            self.grow_messages,
            self.shrink_messages,
            self.kis.polls(),
            self.queue.total_tries(),
            self.queue.failed_submissions(),
            engine.stats().delivered,
            ctrl,
            net,
            self.trace,
        )
    }

    /// Finalizes the memory-bounded summary report.
    ///
    /// # Panics
    /// Panics in full-report mode — use [`World::finish`].
    pub fn finish_summary(mut self, engine: &Engine<Ev>) -> SummaryReport {
        self.check_final_accounting();
        let mut ctrl = self.ctrl;
        ctrl.leaked_allocations = u64::from(self.mc.total_used_by_koala());
        let net = self.final_net_stats(engine.now());
        self.collect.into_summary().finish(
            self.cfg.name.clone(),
            self.seed,
            engine.now(),
            self.grow_messages,
            self.shrink_messages,
            self.kis.polls(),
            self.queue.total_tries(),
            self.queue.failed_submissions(),
            engine.stats().delivered,
            self.jobs.peak_live() as u64,
            ctrl,
            net,
        )
    }
}

// ---------------------------------------------------------------------
// Snapshot / restore (the byte layer lives in `crate::snapshot`; the
// world-structure codec lives here, where the private fields are)
// ---------------------------------------------------------------------

use crate::snapshot::{
    config_fingerprint, fork_fingerprint, ByteReader, ByteWriter, Snapshot, SnapshotError, VERSION,
};

impl<'a> World<'a> {
    /// Captures the complete mid-run state of this world and its
    /// engine as a versioned, deterministic [`Snapshot`] — queue
    /// contents in `(time, seq)` order with the next sequence number,
    /// the job slab's runtime overlay, cluster/allocation/availability
    /// state, in-flight retry timers, open network flows, streaming
    /// accumulators and every seeded RNG position. The world is
    /// untouched; a [`World::restore`]d copy continues bit-identically.
    ///
    /// Only **summarized-mode, fixed-intake, trace-disabled** worlds
    /// can be captured (full reports hold unbounded job tables, and a
    /// job stream cannot be rewound); anything else is a typed
    /// [`SnapshotError::UnsupportedMode`].
    pub fn snapshot(&self, engine: &Engine<Ev>) -> Result<Snapshot, SnapshotError> {
        if !self.collect.is_summarized() {
            return Err(SnapshotError::UnsupportedMode(
                "full-report mode (build with World::for_seed_summarized)".into(),
            ));
        }
        if !matches!(self.intake, Intake::Fixed(_)) {
            return Err(SnapshotError::UnsupportedMode(
                "streaming intake (the job stream cannot be rewound)".into(),
            ));
        }
        if self.trace.is_enabled() {
            return Err(SnapshotError::UnsupportedMode(
                "job-lifecycle trace enabled".into(),
            ));
        }
        if self.files.is_some() && self.cfg.network.is_none() {
            return Err(SnapshotError::UnsupportedMode(
                "explicit file catalog installed via World::with_files".into(),
            ));
        }
        Ok(Snapshot {
            version: VERSION,
            seed: self.seed,
            full_fingerprint: config_fingerprint(self.cfg),
            fork_fingerprint: fork_fingerprint(self.cfg),
            body: self.encode_body(engine),
        })
    }

    /// Rebuilds a world + engine pair from a snapshot taken under the
    /// **same** configuration (full fingerprint match required).
    /// Continue with [`World::run_to_end`], which resumes a restored
    /// world without bootstrapping it again.
    pub fn restore(
        cfg: &'a ExperimentConfig,
        snap: &Snapshot,
    ) -> Result<(World<'a>, Engine<Ev>), SnapshotError> {
        if config_fingerprint(cfg) != snap.full_fingerprint {
            return Err(SnapshotError::ConfigMismatch);
        }
        Self::rebuild(cfg, snap)
    }

    /// Forks a warmed prefix into a **different policy cell**: like
    /// [`World::restore`], but `cfg` may differ from the captured
    /// configuration in `name`, `sched.placement` and
    /// `sched.malleability` (the fork-invariant fingerprint enforces
    /// that nothing else differs). The restored world resolves the
    /// *new* policies from the registry, so the shared warmup replays
    /// once and every cell diverges only from the fork point.
    pub fn fork_with(
        cfg: &'a ExperimentConfig,
        snap: &Snapshot,
    ) -> Result<(World<'a>, Engine<Ev>), SnapshotError> {
        if fork_fingerprint(cfg) != snap.fork_fingerprint {
            return Err(SnapshotError::ConfigMismatch);
        }
        Self::rebuild(cfg, snap)
    }

    fn rebuild(
        cfg: &'a ExperimentConfig,
        snap: &Snapshot,
    ) -> Result<(World<'a>, Engine<Ev>), SnapshotError> {
        if snap.version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(snap.version));
        }
        cfg.validate()
            .map_err(|e| SnapshotError::Corrupt(format!("target configuration invalid: {e}")))?;
        let mut w = World::for_seed_summarized(cfg, snap.seed);
        w.started = true;
        let mut r = ByteReader::new(&snap.body);
        let engine = w.decode_body(&mut r)?;
        r.finish()?;
        Ok((w, engine))
    }

    fn encode_body(&self, engine: &Engine<Ev>) -> Vec<u8> {
        let mut w = ByteWriter::new();
        // --- engine ---------------------------------------------------
        let es = engine.capture_state();
        w.u64(es.now.as_millis());
        w.u64(es.horizon.as_millis());
        w.u64(es.stats.delivered);
        w.u64(es.stats.scheduled);
        w.u64(es.stats.beyond_horizon);
        w.u64(es.next_seq);
        w.len(es.entries.len());
        for (t, seq, ev) in &es.entries {
            w.u64(t.as_millis());
            w.u64(*seq);
            enc_ev(&mut w, ev);
        }
        // --- world scalars --------------------------------------------
        w.u64(self.grow_messages);
        w.u64(self.shrink_messages);
        w.u64(self.arrivals_seen as u64);
        w.u64(self.next_bg_local);
        for word in self.bg_rng.state() {
            w.u64(word);
        }
        w.len(self.pending_release.len());
        for &v in &self.pending_release {
            w.u32(v);
        }
        w.len(self.idle_baseline.len());
        for &v in &self.idle_baseline {
            w.u32(v);
        }
        // --- clusters + LRMs ------------------------------------------
        w.len(self.mc.len());
        for c in 0..self.mc.len() {
            let id = ClusterId(c as u16);
            enc_cluster(&mut w, &self.mc.cluster(id).capture_state());
            enc_lrm(&mut w, &self.mc.lrm(id).capture_state());
        }
        // --- information service --------------------------------------
        let kis = self.kis.capture_state();
        w.opt(kis.visible.as_ref(), enc_info_snapshot);
        w.len(kis.in_flight.len());
        for s in &kis.in_flight {
            enc_info_snapshot(&mut w, s);
        }
        w.u64(kis.polls);
        // --- file catalog ---------------------------------------------
        w.opt(
            self.files.as_ref().map(|f| f.capture_state()).as_ref(),
            |w, cat| {
                w.len(cat.files.len());
                for (id, meta) in &cat.files {
                    w.u64(id.0);
                    w.f64(meta.size_gb);
                    w.len(meta.replicas.len());
                    for r in &meta.replicas {
                        w.u16(r.0);
                    }
                }
                w.u64(cat.next_file);
            },
        );
        // --- placement queue + availability index ---------------------
        let q = self.queue.capture_state();
        w.len(q.entries.len());
        for (job, tries) in &q.entries {
            w.u32(job.0);
            w.u32(*tries);
        }
        w.u64(q.total_tries);
        w.u64(q.failed_submissions);
        let av = self.avail_idx.capture_state();
        w.len(av.dirty.len());
        for &d in &av.dirty {
            w.bool(d);
        }
        w.u32(av.max_eff);
        w.u64(av.sum_eff);
        w.u64(av.rebuilds);
        w.u64(av.quick_rejects);
        // --- failure + control-plane fault streams --------------------
        w.opt(
            self.failures.as_ref().map(|f| f.capture_state()).as_ref(),
            |w, f| {
                for word in f.rng {
                    w.u64(word);
                }
                w.u64(f.clock.as_millis());
            },
        );
        w.opt(
            self.faults.as_ref().map(|f| f.capture_state()).as_ref(),
            |w, f| {
                w.u64(f.hash_seed);
                for s in f.seq {
                    w.u64(s);
                }
                w.len(f.channels.len());
                for ch in &f.channels {
                    for word in ch.rng {
                        w.u64(word);
                    }
                    w.u64(ch.start.as_millis());
                    w.u64(ch.end.as_millis());
                }
            },
        );
        w.u64(self.ctrl.messages_lost);
        w.u64(self.ctrl.timeouts);
        w.u64(self.ctrl.retries);
        w.u64(self.ctrl.duplicates_dropped);
        w.u64(self.ctrl.polls_lost);
        w.u64(self.ctrl.reclaimed_allocations);
        w.u64(self.ctrl.flaky_deferrals);
        w.u64(self.ctrl.leaked_allocations);
        // --- network runtime ------------------------------------------
        w.opt(self.net.as_ref(), |w, net| {
            let fs = net.flows.capture_state();
            w.len(fs.flows.len());
            for f in &fs.flows {
                w.u64(f.id);
                w.len(f.route.len());
                for l in &f.route {
                    w.u32(l.0);
                }
                w.f64(f.size_gb);
                w.f64(f.remaining_gb);
                w.f64(f.rate_gbps);
                w.u64(f.gen);
                w.u64(f.latency.as_millis());
                w.u64(f.opened_at.as_millis());
            }
            w.u64(fs.next_flow);
            w.len(fs.busy_s.len());
            for &b in &fs.busy_s {
                w.f64(b);
            }
            w.u64(fs.last_update.as_millis());
            let mut owners: Vec<_> = net.owners.iter().collect();
            owners.sort_by_key(|(id, _)| **id);
            w.len(owners.len());
            for (id, o) in owners {
                w.u64(*id);
                w.u32(o.job.0);
                w.u32(o.gen.raw());
                w.opt(o.file.as_ref(), |w, f| w.u64(f.0));
                w.u16(o.dest.0);
            }
            let mut staging: Vec<_> = net.staging.iter().collect();
            staging.sort_by_key(|(job, _)| **job);
            w.len(staging.len());
            for (job, s) in staging {
                w.u32(*job);
                w.u32(s.pending);
                w.u32(s.gen.raw());
                w.u64(s.since.as_millis());
            }
            w.u64(net.stats.transfers_opened);
            w.u64(net.stats.transfers_completed);
            w.u64(net.stats.reconfig_transfers);
            w.f64(net.stats.bytes_staged_gb);
            w.f64(net.stats.link_busy_s);
            w.f64(net.stats.link_span_s);
        });
        // --- job slab runtime overlay ---------------------------------
        // Specs are NOT serialized: the workload regenerates from
        // (config, seed) at restore, and only the mutable runtime
        // fields are overwritten on the rebuilt jobs.
        w.len(self.jobs.slots.len());
        for slot in &self.jobs.slots {
            let job = slot.as_ref().expect("fixed slabs keep every slot");
            enc_job(&mut w, job);
        }
        w.u64(self.jobs.live as u64);
        w.u64(self.jobs.peak_live as u64);
        // --- streaming collector --------------------------------------
        let Collector::Summary(c) = &self.collect else {
            unreachable!("snapshot() gates on summarized mode");
        };
        enc_collector(&mut w, &c.capture_state());
        w.into_bytes()
    }

    /// Overwrites this freshly built world's state from an encoded body
    /// and returns the restored engine. `self` must come from
    /// [`World::for_seed_summarized`] under the snapshot's config/seed.
    fn decode_body(&mut self, r: &mut ByteReader<'_>) -> Result<Engine<Ev>, SnapshotError> {
        let corrupt = |what: &str| SnapshotError::Corrupt(what.into());
        // --- engine ---------------------------------------------------
        let now = SimTime::from_millis(r.u64()?);
        let horizon = SimTime::from_millis(r.u64()?);
        let stats = EngineStats {
            delivered: r.u64()?,
            scheduled: r.u64()?,
            beyond_horizon: r.u64()?,
        };
        let next_seq = r.u64()?;
        let n_entries = r.len(17)?;
        let mut entries = Vec::with_capacity(n_entries);
        let mut prev: Option<(SimTime, u64)> = None;
        for _ in 0..n_entries {
            let t = SimTime::from_millis(r.u64()?);
            let seq = r.u64()?;
            if seq >= next_seq {
                return Err(corrupt("queue entry from the future"));
            }
            if let Some(p) = prev {
                if (t, seq) <= p {
                    return Err(corrupt("queue entries out of pop order"));
                }
            }
            prev = Some((t, seq));
            entries.push((t, seq, dec_ev(r)?));
        }
        let engine = Engine::restore_state(EngineSnapshot {
            now,
            horizon,
            stats,
            next_seq,
            entries,
        });
        // --- world scalars --------------------------------------------
        self.grow_messages = r.u64()?;
        self.shrink_messages = r.u64()?;
        self.arrivals_seen = r.u64()? as usize;
        self.next_bg_local = r.u64()?;
        let rng = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        self.bg_rng = SimRng::from_state(rng);
        let n_clusters = self.mc.len();
        let n = r.len(4)?;
        if n != n_clusters {
            return Err(corrupt("pending-release length"));
        }
        for i in 0..n {
            self.pending_release[i] = r.u32()?;
        }
        let n = r.len(4)?;
        if n != n_clusters {
            return Err(corrupt("idle-baseline length"));
        }
        for i in 0..n {
            self.idle_baseline[i] = r.u32()?;
        }
        // --- clusters + LRMs ------------------------------------------
        let n = r.len(1)?;
        if n != n_clusters {
            return Err(corrupt("cluster count"));
        }
        for c in 0..n_clusters {
            let id = ClusterId(c as u16);
            let state = dec_cluster(r)?;
            self.mc
                .cluster_mut(id)
                .restore_state(state)
                .map_err(SnapshotError::Corrupt)?;
            let lrm = dec_lrm(r)?;
            self.mc.lrm_mut(id).restore_state(lrm);
        }
        // --- information service --------------------------------------
        let visible = r.opt(|r| dec_info_snapshot(r, n_clusters))?;
        let n = r.len(1)?;
        let mut in_flight = Vec::with_capacity(n);
        for _ in 0..n {
            in_flight.push(dec_info_snapshot(r, n_clusters)?);
        }
        let polls = r.u64()?;
        self.kis.restore_state(InfoState {
            visible,
            in_flight,
            polls,
        });
        // --- file catalog ---------------------------------------------
        let files = r.opt(|r| {
            let n = r.len(8)?;
            let mut files = Vec::with_capacity(n);
            for _ in 0..n {
                let id = FileId(r.u64()?);
                let size_gb = r.f64()?;
                let n_rep = r.len(2)?;
                let mut replicas = std::collections::BTreeSet::new();
                for _ in 0..n_rep {
                    replicas.insert(ClusterId(r.u16()?));
                }
                files.push((id, FileMeta { size_gb, replicas }));
            }
            Ok(FileCatalogState {
                files,
                next_file: r.u64()?,
            })
        })?;
        match (files, self.files.as_mut()) {
            (Some(state), Some(cat)) => cat.restore_state(state).map_err(SnapshotError::Corrupt)?,
            (None, None) => {}
            _ => return Err(corrupt("file-catalog presence mismatch")),
        }
        // --- placement queue + availability index ---------------------
        let n = r.len(8)?;
        let mut q_entries = Vec::with_capacity(n);
        for _ in 0..n {
            q_entries.push((JobId(r.u32()?), r.u32()?));
        }
        self.queue = PlacementQueue::from_state(crate::placement::PlacementQueueState {
            entries: q_entries,
            total_tries: r.u64()?,
            failed_submissions: r.u64()?,
        });
        let n = r.len(1)?;
        if n != n_clusters {
            return Err(corrupt("availability-index width"));
        }
        let mut dirty = Vec::with_capacity(n);
        for _ in 0..n {
            dirty.push(r.bool()?);
        }
        self.avail_idx = AvailIndex::from_state(crate::avail::AvailIndexState {
            dirty,
            max_eff: r.u32()?,
            sum_eff: r.u64()?,
            rebuilds: r.u64()?,
            quick_rejects: r.u64()?,
        });
        // --- failure + control-plane fault streams --------------------
        let failures = r.opt(|r| {
            let rng = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
            Ok(FailureStreamState {
                rng,
                clock: SimTime::from_millis(r.u64()?),
            })
        })?;
        match (failures, self.failures.as_mut()) {
            (Some(state), Some(stream)) => stream.restore_state(state),
            (None, None) => {}
            _ => return Err(corrupt("failure-stream presence mismatch")),
        }
        let faults = r.opt(|r| {
            let hash_seed = r.u64()?;
            let seq = [r.u64()?, r.u64()?, r.u64()?, r.u64()?, r.u64()?, r.u64()?];
            let n = r.len(48)?;
            let mut channels = Vec::with_capacity(n);
            for _ in 0..n {
                let rng = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
                channels.push(FlakyChannelState {
                    rng,
                    start: SimTime::from_millis(r.u64()?),
                    end: SimTime::from_millis(r.u64()?),
                });
            }
            Ok(ControlPlaneFaultsState {
                hash_seed,
                seq,
                channels,
            })
        })?;
        match (faults, self.faults.as_mut()) {
            (Some(state), Some(model)) => {
                model.restore_state(state).map_err(SnapshotError::Corrupt)?
            }
            (None, None) => {}
            _ => return Err(corrupt("control-plane fault presence mismatch")),
        }
        self.ctrl = CtrlStats {
            messages_lost: r.u64()?,
            timeouts: r.u64()?,
            retries: r.u64()?,
            duplicates_dropped: r.u64()?,
            polls_lost: r.u64()?,
            reclaimed_allocations: r.u64()?,
            flaky_deferrals: r.u64()?,
            leaked_allocations: r.u64()?,
        };
        // --- network runtime ------------------------------------------
        let has_net = r.bool()?;
        match (has_net, self.net.is_some()) {
            (true, true) => {
                let n = r.len(8)?;
                let mut flows = Vec::with_capacity(n);
                for _ in 0..n {
                    let id = r.u64()?;
                    let n_route = r.len(4)?;
                    let mut route = Vec::with_capacity(n_route);
                    for _ in 0..n_route {
                        route.push(LinkId(r.u32()?));
                    }
                    flows.push(FlowState {
                        id,
                        route,
                        size_gb: r.f64()?,
                        remaining_gb: r.f64()?,
                        rate_gbps: r.f64()?,
                        gen: r.u64()?,
                        latency: SimDuration::from_millis(r.u64()?),
                        opened_at: SimTime::from_millis(r.u64()?),
                    });
                }
                let next_flow = r.u64()?;
                let n_busy = r.len(8)?;
                let mut busy_s = Vec::with_capacity(n_busy);
                for _ in 0..n_busy {
                    busy_s.push(r.f64()?);
                }
                let last_update = SimTime::from_millis(r.u64()?);
                let n_owners = r.len(8)?;
                let mut owners = HashMap::with_capacity(n_owners);
                for _ in 0..n_owners {
                    let id = r.u64()?;
                    let owner = TransferOwner {
                        job: JobId(r.u32()?),
                        gen: Generation::from_raw(r.u32()?),
                        file: r.opt(|r| Ok(FileId(r.u64()?)))?,
                        dest: ClusterId(r.u16()?),
                    };
                    if owners.insert(id, owner).is_some() {
                        return Err(corrupt("duplicate transfer owner"));
                    }
                }
                let n_staging = r.len(8)?;
                let mut staging = HashMap::with_capacity(n_staging);
                for _ in 0..n_staging {
                    let job = r.u32()?;
                    let state = StagingState {
                        pending: r.u32()?,
                        gen: Generation::from_raw(r.u32()?),
                        since: SimTime::from_millis(r.u64()?),
                    };
                    if staging.insert(job, state).is_some() {
                        return Err(corrupt("duplicate staging session"));
                    }
                }
                let stats = NetStats {
                    transfers_opened: r.u64()?,
                    transfers_completed: r.u64()?,
                    reconfig_transfers: r.u64()?,
                    bytes_staged_gb: r.f64()?,
                    link_busy_s: r.f64()?,
                    link_span_s: r.f64()?,
                };
                let net = self.net.as_mut().expect("presence checked");
                net.flows
                    .restore_state(FlowNetState {
                        flows,
                        next_flow,
                        busy_s,
                        last_update,
                    })
                    .map_err(SnapshotError::Corrupt)?;
                net.owners = owners;
                net.staging = staging;
                net.stats = stats;
            }
            (false, false) => {}
            _ => return Err(corrupt("network-layer presence mismatch")),
        }
        // --- job slab runtime overlay ---------------------------------
        let n = r.len(8)?;
        if n != self.jobs.slots.len() {
            return Err(corrupt("job count does not match the workload"));
        }
        for slot in 0..n {
            let job = self.jobs.slots[slot]
                .as_mut()
                .expect("fixed slabs keep every slot");
            dec_job_into(r, job)?;
            let (phase, cluster) = (job.phase, job.cluster);
            self.jobs.set_hot(slot, phase, cluster);
        }
        let live = r.u64()? as usize;
        let peak_live = r.u64()? as usize;
        if live > n || peak_live > n {
            return Err(corrupt("live-job counters exceed the workload"));
        }
        self.jobs.live = live;
        self.jobs.peak_live = peak_live;
        // --- streaming collector --------------------------------------
        let cstate = dec_collector(r)?;
        self.collect = Collector::Summary(crate::report::SummaryCollector::from_state(cstate));
        Ok(engine)
    }
}

fn enc_ev(w: &mut ByteWriter, ev: &Ev) {
    match *ev {
        Ev::Arrival(i) => {
            w.u8(0);
            w.u32(i);
        }
        Ev::ArrivalBatch { first, count } => {
            w.u8(1);
            w.u32(first);
            w.u32(count);
        }
        Ev::QueueScan => w.u8(2),
        Ev::KisPoll => w.u8(3),
        Ev::StartHeld { job, gen } => {
            w.u8(4);
            w.u32(job.0);
            w.u32(gen.raw());
        }
        Ev::GrowHeld { job, gen } => {
            w.u8(5);
            w.u32(job.0);
            w.u32(gen.raw());
        }
        Ev::SyncDone { job, gen, grow } => {
            w.u8(6);
            w.u32(job.0);
            w.u32(gen.raw());
            w.bool(grow);
        }
        Ev::ShrinkReleased { job, gen, count } => {
            w.u8(7);
            w.u32(job.0);
            w.u32(gen.raw());
            w.u32(count);
        }
        Ev::Completion { job, gen } => {
            w.u8(8);
            w.u32(job.0);
            w.u32(gen.raw());
        }
        Ev::BgArrival { cluster } => {
            w.u8(9);
            w.u16(cluster.0);
        }
        Ev::BgComplete { cluster, alloc } => {
            w.u8(10);
            w.u16(cluster.0);
            w.u64(alloc.0);
        }
        Ev::NodeWithdraw { cluster, count } => {
            w.u8(11);
            w.u16(cluster.0);
            w.u32(count);
        }
        Ev::Claim { job, gen } => {
            w.u8(12);
            w.u32(job.0);
            w.u32(gen.raw());
        }
        Ev::AppGrowRequest { job, gen } => {
            w.u8(13);
            w.u32(job.0);
            w.u32(gen.raw());
        }
        Ev::NodeRestore { cluster, count } => {
            w.u8(14);
            w.u16(cluster.0);
            w.u32(count);
        }
        Ev::MonitorSample => w.u8(15),
        Ev::AutoscaleCycle => w.u8(16),
        Ev::AutoscaleApply {
            cluster,
            grow,
            count,
        } => {
            w.u8(17);
            w.u16(cluster.0);
            w.bool(grow);
            w.u32(count);
        }
        Ev::NodeCrash {
            cluster,
            count,
            repair_after,
        } => {
            w.u8(18);
            w.u16(cluster.0);
            w.u32(count);
            w.u64(repair_after.as_millis());
        }
        Ev::CtrlTimeout {
            job,
            gen,
            op,
            attempt,
        } => {
            w.u8(19);
            w.u32(job.0);
            w.u32(gen.raw());
            enc_ctrl_op(w, op);
            w.u32(attempt);
        }
        Ev::OrphanSweep => w.u8(20),
        Ev::TransferStart { job, gen } => {
            w.u8(21);
            w.u32(job.0);
            w.u32(gen.raw());
        }
        Ev::TransferDone { transfer, gen } => {
            w.u8(22);
            w.u64(transfer);
            w.u64(gen);
        }
    }
}

fn dec_ev(r: &mut ByteReader<'_>) -> Result<Ev, SnapshotError> {
    fn jg(r: &mut ByteReader<'_>) -> Result<(JobId, Generation), SnapshotError> {
        Ok((JobId(r.u32()?), Generation::from_raw(r.u32()?)))
    }
    Ok(match r.u8()? {
        0 => Ev::Arrival(r.u32()?),
        1 => Ev::ArrivalBatch {
            first: r.u32()?,
            count: r.u32()?,
        },
        2 => Ev::QueueScan,
        3 => Ev::KisPoll,
        4 => {
            let (job, gen) = jg(r)?;
            Ev::StartHeld { job, gen }
        }
        5 => {
            let (job, gen) = jg(r)?;
            Ev::GrowHeld { job, gen }
        }
        6 => {
            let (job, gen) = jg(r)?;
            Ev::SyncDone {
                job,
                gen,
                grow: r.bool()?,
            }
        }
        7 => {
            let (job, gen) = jg(r)?;
            Ev::ShrinkReleased {
                job,
                gen,
                count: r.u32()?,
            }
        }
        8 => {
            let (job, gen) = jg(r)?;
            Ev::Completion { job, gen }
        }
        9 => Ev::BgArrival {
            cluster: ClusterId(r.u16()?),
        },
        10 => Ev::BgComplete {
            cluster: ClusterId(r.u16()?),
            alloc: AllocId(r.u64()?),
        },
        11 => Ev::NodeWithdraw {
            cluster: ClusterId(r.u16()?),
            count: r.u32()?,
        },
        12 => {
            let (job, gen) = jg(r)?;
            Ev::Claim { job, gen }
        }
        13 => {
            let (job, gen) = jg(r)?;
            Ev::AppGrowRequest { job, gen }
        }
        14 => Ev::NodeRestore {
            cluster: ClusterId(r.u16()?),
            count: r.u32()?,
        },
        15 => Ev::MonitorSample,
        16 => Ev::AutoscaleCycle,
        17 => Ev::AutoscaleApply {
            cluster: ClusterId(r.u16()?),
            grow: r.bool()?,
            count: r.u32()?,
        },
        18 => Ev::NodeCrash {
            cluster: ClusterId(r.u16()?),
            count: r.u32()?,
            repair_after: SimDuration::from_millis(r.u64()?),
        },
        19 => {
            let (job, gen) = jg(r)?;
            Ev::CtrlTimeout {
                job,
                gen,
                op: dec_ctrl_op(r)?,
                attempt: r.u32()?,
            }
        }
        20 => Ev::OrphanSweep,
        21 => {
            let (job, gen) = jg(r)?;
            Ev::TransferStart { job, gen }
        }
        22 => Ev::TransferDone {
            transfer: r.u64()?,
            gen: r.u64()?,
        },
        t => return Err(SnapshotError::Corrupt(format!("event tag {t}"))),
    })
}

fn enc_ctrl_op(w: &mut ByteWriter, op: CtrlOp) {
    match op {
        CtrlOp::Start => w.u8(0),
        CtrlOp::Grow => w.u8(1),
        CtrlOp::RecruitSync => w.u8(2),
        CtrlOp::ShrinkSync => w.u8(3),
        CtrlOp::Release { count } => {
            w.u8(4);
            w.u32(count);
        }
    }
}

fn dec_ctrl_op(r: &mut ByteReader<'_>) -> Result<CtrlOp, SnapshotError> {
    Ok(match r.u8()? {
        0 => CtrlOp::Start,
        1 => CtrlOp::Grow,
        2 => CtrlOp::RecruitSync,
        3 => CtrlOp::ShrinkSync,
        4 => CtrlOp::Release { count: r.u32()? },
        t => return Err(SnapshotError::Corrupt(format!("ctrl-op tag {t}"))),
    })
}

fn enc_cluster(w: &mut ByteWriter, s: &ClusterState) {
    w.len(s.states.len());
    for st in &s.states {
        match st {
            NodeState::Free => w.u8(0),
            NodeState::Busy(a) => {
                w.u8(1);
                w.u64(a.0);
            }
            NodeState::Down => w.u8(2),
        }
    }
    w.len(s.free.len());
    for n in &s.free {
        w.u32(n.0);
    }
    w.len(s.allocs.len());
    for (id, owner, nodes) in &s.allocs {
        w.u64(id.0);
        match owner {
            AllocOwner::Koala(j) => {
                w.u8(0);
                w.u64(*j);
            }
            AllocOwner::Local(j) => {
                w.u8(1);
                w.u64(*j);
            }
        }
        w.len(nodes.len());
        for n in nodes {
            w.u32(n.0);
        }
    }
    w.u64(s.next_alloc);
    w.u32(s.down);
}

fn dec_cluster(r: &mut ByteReader<'_>) -> Result<ClusterState, SnapshotError> {
    let n = r.len(1)?;
    let mut states = Vec::with_capacity(n);
    for _ in 0..n {
        states.push(match r.u8()? {
            0 => NodeState::Free,
            1 => NodeState::Busy(AllocId(r.u64()?)),
            2 => NodeState::Down,
            t => return Err(SnapshotError::Corrupt(format!("node-state tag {t}"))),
        });
    }
    let n = r.len(4)?;
    let mut free = Vec::with_capacity(n);
    for _ in 0..n {
        free.push(NodeId(r.u32()?));
    }
    let n = r.len(8)?;
    let mut allocs = Vec::with_capacity(n);
    for _ in 0..n {
        let id = AllocId(r.u64()?);
        let owner = match r.u8()? {
            0 => AllocOwner::Koala(r.u64()?),
            1 => AllocOwner::Local(r.u64()?),
            t => return Err(SnapshotError::Corrupt(format!("alloc-owner tag {t}"))),
        };
        let n_nodes = r.len(4)?;
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            nodes.push(NodeId(r.u32()?));
        }
        allocs.push((id, owner, nodes));
    }
    Ok(ClusterState {
        states,
        free,
        allocs,
        next_alloc: r.u64()?,
        down: r.u32()?,
    })
}

fn enc_lrm(w: &mut ByteWriter, s: &LrmState) {
    w.len(s.queue.len());
    for j in &s.queue {
        w.u64(j.id.0);
        w.u32(j.size);
        w.u64(j.duration.as_millis());
        w.u64(j.submitted.as_millis());
    }
    w.u64(s.next_local);
    w.u64(s.completed_local);
}

fn dec_lrm(r: &mut ByteReader<'_>) -> Result<LrmState, SnapshotError> {
    let n = r.len(28)?;
    let mut queue = Vec::with_capacity(n);
    for _ in 0..n {
        queue.push(LocalJob {
            id: LocalJobId(r.u64()?),
            size: r.u32()?,
            duration: SimDuration::from_millis(r.u64()?),
            submitted: SimTime::from_millis(r.u64()?),
        });
    }
    Ok(LrmState {
        queue,
        next_local: r.u64()?,
        completed_local: r.u64()?,
    })
}

fn enc_info_snapshot(w: &mut ByteWriter, s: &InfoSnapshot) {
    w.u64(s.taken_at.as_millis());
    for col in [&s.idle, &s.capacity, &s.used_by_koala, &s.used_by_local] {
        w.len(col.len());
        for &v in col {
            w.u32(v);
        }
    }
}

fn dec_info_snapshot(
    r: &mut ByteReader<'_>,
    n_clusters: usize,
) -> Result<InfoSnapshot, SnapshotError> {
    let taken_at = SimTime::from_millis(r.u64()?);
    let mut cols: [Vec<u32>; 4] = Default::default();
    for col in &mut cols {
        let n = r.len(4)?;
        if n != n_clusters {
            return Err(SnapshotError::Corrupt("info-snapshot width".into()));
        }
        col.reserve(n);
        for _ in 0..n {
            col.push(r.u32()?);
        }
    }
    let [idle, capacity, used_by_koala, used_by_local] = cols;
    Ok(InfoSnapshot {
        taken_at,
        idle,
        capacity,
        used_by_koala,
        used_by_local,
    })
}

fn enc_job(w: &mut ByteWriter, job: &Job) {
    w.u8(match job.phase {
        JobPhase::Queued => 0,
        JobPhase::Staging => 1,
        JobPhase::Starting => 2,
        JobPhase::Running => 3,
        JobPhase::Reconfiguring => 4,
        JobPhase::Completed => 5,
        JobPhase::Failed => 6,
    });
    w.opt(job.cluster.as_ref(), |w, c| w.u16(c.0));
    w.opt(job.alloc.as_ref(), |w, a| w.u64(a.0));
    w.len(job.extra_allocs.len());
    for (c, a) in &job.extra_allocs {
        w.u16(c.0);
        w.u64(a.0);
    }
    w.opt(job.runner.as_ref(), |w, runner| {
        let d = &runner.dynaco;
        w.u32(d.min());
        w.u32(d.max());
        match d.constraint() {
            SizeConstraint::Any => w.u8(0),
            SizeConstraint::PowerOfTwo => w.u8(1),
            SizeConstraint::MultipleOf(k) => {
                w.u8(2);
                w.u32(k);
            }
        }
        w.u32(d.size());
        match d.phase() {
            DynacoPhase::Steady => w.u8(0),
            DynacoPhase::Growing { target } => {
                w.u8(1);
                w.u32(target);
            }
            DynacoPhase::Shrinking { target } => {
                w.u8(2);
                w.u32(target);
            }
        }
        w.u32(runner.held());
        w.u32(runner.submitting());
        w.u32(runner.releasing());
    });
    w.opt(job.progress.as_ref(), |w, p| {
        w.f64(p.done());
        w.u64(p.updated().as_millis());
        w.u32(p.size());
        w.bool(p.is_paused());
        w.f64(p.work_scale());
    });
    w.u32(job.gen.raw());
    w.opt(job.started.as_ref(), |w, t| w.u64(t.as_millis()));
    w.bool(job.initiative_fired);
    w.opt(job.pending_claim.as_ref(), |w, claim| {
        w.len(claim.len());
        for (c, n) in claim {
            w.u16(c.0);
            w.u32(*n);
        }
    });
    w.opt(job.release_since.as_ref(), |w, t| w.u64(t.as_millis()));
}

/// Overwrites the mutable runtime fields of a freshly regenerated job
/// from the encoded overlay (the spec, model and submission time come
/// from the regenerated workload and are not in the blob).
fn dec_job_into(r: &mut ByteReader<'_>, job: &mut Job) -> Result<(), SnapshotError> {
    job.phase = match r.u8()? {
        0 => JobPhase::Queued,
        1 => JobPhase::Staging,
        2 => JobPhase::Starting,
        3 => JobPhase::Running,
        4 => JobPhase::Reconfiguring,
        5 => JobPhase::Completed,
        6 => JobPhase::Failed,
        t => return Err(SnapshotError::Corrupt(format!("job-phase tag {t}"))),
    };
    job.cluster = r.opt(|r| Ok(ClusterId(r.u16()?)))?;
    job.alloc = r.opt(|r| Ok(AllocId(r.u64()?)))?;
    let n = r.len(10)?;
    job.extra_allocs = Vec::with_capacity(n);
    for _ in 0..n {
        job.extra_allocs
            .push((ClusterId(r.u16()?), AllocId(r.u64()?)));
    }
    job.runner = r.opt(|r| {
        let min = r.u32()?;
        let max = r.u32()?;
        let constraint = match r.u8()? {
            0 => SizeConstraint::Any,
            1 => SizeConstraint::PowerOfTwo,
            2 => {
                let k = r.u32()?;
                if k == 0 {
                    return Err(SnapshotError::Corrupt("zero size multiple".into()));
                }
                SizeConstraint::MultipleOf(k)
            }
            t => return Err(SnapshotError::Corrupt(format!("constraint tag {t}"))),
        };
        let size = r.u32()?;
        let phase = match r.u8()? {
            0 => DynacoPhase::Steady,
            1 => DynacoPhase::Growing { target: r.u32()? },
            2 => DynacoPhase::Shrinking { target: r.u32()? },
            t => return Err(SnapshotError::Corrupt(format!("dynaco-phase tag {t}"))),
        };
        // Dynaco::from_parts panics on invalid parts; reject here so a
        // corrupted blob stays a typed error.
        if !(min >= 1 && min <= max && (min..=max).contains(&size) && constraint.allows(size)) {
            return Err(SnapshotError::Corrupt("dynaco parts out of range".into()));
        }
        let dynaco = Dynaco::from_parts(min, max, constraint, size, phase);
        let held = r.u32()?;
        let submitting = r.u32()?;
        let releasing = r.u32()?;
        Ok(MRunner::from_parts(dynaco, held, submitting, releasing))
    })?;
    job.progress = r.opt(|r| {
        let done = r.f64()?;
        let updated = SimTime::from_millis(r.u64()?);
        let size = r.u32()?;
        let paused = r.bool()?;
        let work_scale = r.f64()?;
        // Progress::from_parts panics on invalid parts; pre-validate.
        if !(size >= 1 && work_scale > 0.0 && (0.0..=1.0).contains(&done)) {
            return Err(SnapshotError::Corrupt("progress parts out of range".into()));
        }
        Ok(Progress::from_parts(
            done, updated, size, paused, work_scale,
        ))
    })?;
    job.gen = Generation::from_raw(r.u32()?);
    job.started = r.opt(|r| Ok(SimTime::from_millis(r.u64()?)))?;
    job.initiative_fired = r.bool()?;
    job.pending_claim = r.opt(|r| {
        let n = r.len(6)?;
        let mut claim = Vec::with_capacity(n);
        for _ in 0..n {
            claim.push((ClusterId(r.u16()?), r.u32()?));
        }
        Ok(claim)
    })?;
    job.release_since = r.opt(|r| Ok(SimTime::from_millis(r.u64()?)))?;
    Ok(())
}

fn enc_collector(w: &mut ByteWriter, s: &crate::report::SummaryCollectorState) {
    w.u64(s.warmup.as_millis());
    w.len(s.meters.len());
    for m in &s.meters {
        w.u64(m.submitted.as_millis());
        w.opt(m.started.as_ref(), |w, t| w.u64(t.as_millis()));
        w.f64(m.size);
        w.u64(m.last_change.as_millis());
        w.f64(m.size_integral);
        w.f64(m.size_max);
    }
    w.u64(s.jobs_submitted);
    w.u64(s.jobs_completed);
    w.u64(s.jobs_failed);
    w.u64(s.grow_ops);
    w.u64(s.shrink_ops);
    w.u64(s.scale_ups);
    w.u64(s.scale_downs);
    w.u64(s.jobs_killed);
    w.u64(s.jobs_requeued);
    w.len(s.streams.len());
    for (stats, quant) in &s.streams {
        w.u64(stats.count);
        w.len(stats.partials.len());
        for &p in &stats.partials {
            w.f64(p);
        }
        w.f64(stats.w_mean);
        w.f64(stats.m2);
        w.f64(stats.min);
        w.f64(stats.max);
        w.u64(quant.seed);
        w.u64(quant.capacity as u64);
        w.u64(quant.pushed);
        w.len(quant.entries.len());
        for (pri, v) in &quant.entries {
            w.u64(*pri);
            w.f64(*v);
        }
    }
    w.u64(s.last_t.as_millis());
    w.f64(s.last_total);
    w.f64(s.last_koala);
    w.f64(s.util_integral);
    w.f64(s.util_koala_integral);
}

fn dec_collector(
    r: &mut ByteReader<'_>,
) -> Result<crate::report::SummaryCollectorState, SnapshotError> {
    use crate::report::{JobMeterState, SummaryCollectorState};
    let warmup = SimTime::from_millis(r.u64()?);
    let n = r.len(41)?;
    let mut meters = Vec::with_capacity(n);
    for _ in 0..n {
        meters.push(JobMeterState {
            submitted: SimTime::from_millis(r.u64()?),
            started: r.opt(|r| Ok(SimTime::from_millis(r.u64()?)))?,
            size: r.f64()?,
            last_change: SimTime::from_millis(r.u64()?),
            size_integral: r.f64()?,
            size_max: r.f64()?,
        });
    }
    let jobs_submitted = r.u64()?;
    let jobs_completed = r.u64()?;
    let jobs_failed = r.u64()?;
    let grow_ops = r.u64()?;
    let shrink_ops = r.u64()?;
    let scale_ups = r.u64()?;
    let scale_downs = r.u64()?;
    let jobs_killed = r.u64()?;
    let jobs_requeued = r.u64()?;
    let n = r.len(64)?;
    if n != 10 {
        return Err(SnapshotError::Corrupt("summary stream count".into()));
    }
    let mut streams = Vec::with_capacity(n);
    for _ in 0..n {
        let count = r.u64()?;
        let n_part = r.len(8)?;
        let mut partials = Vec::with_capacity(n_part);
        for _ in 0..n_part {
            partials.push(r.f64()?);
        }
        let stats = koala_metrics::StreamStatsState {
            count,
            partials,
            w_mean: r.f64()?,
            m2: r.f64()?,
            min: r.f64()?,
            max: r.f64()?,
        };
        let seed = r.u64()?;
        let capacity = r.u64()? as usize;
        let pushed = r.u64()?;
        let n_ent = r.len(16)?;
        if n_ent > capacity {
            return Err(SnapshotError::Corrupt("reservoir over capacity".into()));
        }
        let mut entries = Vec::with_capacity(n_ent);
        for _ in 0..n_ent {
            entries.push((r.u64()?, r.f64()?));
        }
        streams.push((
            stats,
            koala_metrics::StreamQuantilesState {
                seed,
                capacity,
                pushed,
                entries,
            },
        ));
    }
    Ok(SummaryCollectorState {
        warmup,
        meters,
        jobs_submitted,
        jobs_completed,
        jobs_failed,
        grow_ops,
        shrink_ops,
        scale_ups,
        scale_downs,
        jobs_killed,
        jobs_requeued,
        streams,
        last_t: SimTime::from_millis(r.u64()?),
        last_total: r.f64()?,
        last_koala: r.f64()?,
        util_integral: r.f64()?,
        util_koala_integral: r.f64()?,
    })
}

/// The policies `cfg` names, resolved against the global registries:
/// placement, malleability management, and the autoscaler (`None` when
/// the configuration is not autoscaled). Policies are stateless, so a
/// fresh resolution is interchangeable with any earlier one.
///
/// # Panics
/// Panics when a name does not resolve (validated configurations always
/// resolve).
#[allow(clippy::type_complexity)]
fn resolve_policies(
    cfg: &ExperimentConfig,
) -> (
    Box<dyn Placement>,
    Box<dyn Malleability>,
    Option<Box<dyn Autoscaler>>,
) {
    let registry = PolicyRegistry::global();
    let placement = registry
        .placement(&cfg.sched.placement)
        .unwrap_or_else(|e| panic!("invalid experiment configuration: {e}"));
    let malleability = registry
        .malleability(&cfg.sched.malleability)
        .unwrap_or_else(|e| panic!("invalid experiment configuration: {e}"));
    let autoscaler = cfg.elasticity.autoscaled().then(|| {
        AutoscalerRegistry::global()
            .autoscaler(&cfg.elasticity.autoscaler)
            .unwrap_or_else(|e| panic!("invalid experiment configuration: {e}"))
    });
    (placement, malleability, autoscaler)
}

/// The materialized workload of policy cell `cfg` forked from a world
/// whose workload is `workload`: `cfg`'s own trace when it has one (the
/// fork then borrows nothing from the warmed configuration), else a copy
/// of the generated jobs.
fn cell_workload<'b>(
    cfg: &'b ExperimentConfig,
    workload: &[SubmittedJob],
) -> std::borrow::Cow<'b, [SubmittedJob]> {
    match &cfg.trace {
        Some(trace) => {
            debug_assert_eq!(trace.as_slice(), workload, "forked into another trace");
            std::borrow::Cow::Borrowed(trace.as_slice())
        }
        None => std::borrow::Cow::Owned(workload.to_vec()),
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

/// Runs the warmup prefix of `cfg` under an explicit `seed` — bootstrap
/// plus every event strictly before `at` — and captures the resulting
/// [`Snapshot`]. The boundary event itself is left in the queue, so
/// every [`World::restore`]d or [`World::fork_with`]ed continuation
/// replays it identically.
///
/// This is the warm half of a warm-forked sweep: run it once per
/// `(workload, seed)` group, then [`fork_summary`] once per policy cell.
pub fn warm_snapshot_seeded(
    cfg: &ExperimentConfig,
    seed: u64,
    at: SimTime,
) -> Result<Snapshot, SnapshotError> {
    cfg.validate()
        .map_err(|e| SnapshotError::UnsupportedMode(format!("invalid configuration: {e}")))?;
    let mut engine = engine_for(cfg);
    let mut world = World::for_seed_summarized(cfg, seed);
    world.bootstrap(&mut engine);
    world.run_until(&mut engine, at);
    world.snapshot(&engine)
}

/// Restores `snap` under the **same** configuration it was captured
/// with and runs the tail to its [`SummaryReport`] — bit-identical to
/// the uninterrupted run.
pub fn resume_summary(
    cfg: &ExperimentConfig,
    snap: &Snapshot,
) -> Result<SummaryReport, SnapshotError> {
    let (world, mut engine) = World::restore(cfg, snap)?;
    Ok(world.run_to_end(&mut engine))
}

/// Forks `snap` into the (possibly different) policy cell `cfg` and
/// runs the tail to its [`SummaryReport`] — bit-identical to a cold run
/// of `cfg` under the snapshot's seed.
pub fn fork_summary(
    cfg: &ExperimentConfig,
    snap: &Snapshot,
) -> Result<SummaryReport, SnapshotError> {
    let (world, mut engine) = World::fork_with(cfg, snap)?;
    Ok(world.run_to_end(&mut engine))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use appsim::workload::WorkloadSpec;

    fn small(policy: &str, workload: WorkloadSpec, jobs: usize) -> ExperimentConfig {
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
            r.placement_tries > 0,
            "saturation should cause failed placement tries"
        );
    }

    #[test]
    fn pra_never_shrinks() {
        let cfg = small("egs", WorkloadSpec::wm(), 25);
        let r = report(&cfg);
        assert_eq!(r.shrink_ops.total(), 0);
        assert_eq!(r.shrink_messages, 0);
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let cfg = small("egs", WorkloadSpec::wmr(), 15);
        let a = report(&cfg);
        let b = report(&cfg);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.events, b.events);
        assert_eq!(a.grow_messages, b.grow_messages);
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

    /// Every capacity-mutation entry point marks exactly the cluster it
    /// touched in the availability index — no neighbours, no misses.
    /// (The release-side funnel `capacity_freed` covers completion,
    /// requeue, crash-survivor release, orphan reclaim, shrink
    /// confirmation, node restore and autoscale grow; the remaining
    /// sites are exercised directly.)
    #[test]
    fn avail_index_mutations_dirty_exactly_the_touched_cluster() {
        let mut cfg = small("egs", WorkloadSpec::wm(), 0);
        cfg.background = multicluster::BackgroundLoad::none();
        let mut w = World::new(&cfg);
        let n = w.avail_idx.dirty_count();
        assert!(n >= 2, "paper topology has multiple clusters");
        let mut engine = Engine::new();
        let clean = vec![0u32; n];

        // Release-side funnel (no KIS snapshot yet, so the scan it
        // triggers cannot rebuild and wipe the mark under us).
        w.avail_idx.rebuild(&clean);
        w.capacity_freed(&mut engine, ClusterId(1));
        assert!(w.avail_idx.is_dirty(ClusterId(1)));
        assert_eq!(w.avail_idx.dirty_count(), 1, "funnel dirtied neighbours");

        // Node crash takes nodes (busy included) from one cluster.
        w.avail_idx.rebuild(&clean);
        w.on_node_crash(&mut engine, ClusterId(0), 1, SimDuration::from_secs(60));
        assert!(w.avail_idx.is_dirty(ClusterId(0)));
        assert_eq!(w.avail_idx.dirty_count(), 1, "crash dirtied neighbours");

        // Autoscale shrink withdraws free nodes from one cluster...
        w.avail_idx.rebuild(&clean);
        w.on_autoscale_apply(&mut engine, ClusterId(1), false, 1);
        assert!(w.avail_idx.is_dirty(ClusterId(1)));
        assert_eq!(w.avail_idx.dirty_count(), 1, "shrink dirtied neighbours");

        // ...and the matching grow restores them (via the funnel).
        w.avail_idx.rebuild(&clean);
        w.on_autoscale_apply(&mut engine, ClusterId(1), true, 1);
        assert!(w.avail_idx.is_dirty(ClusterId(1)));
        assert_eq!(w.avail_idx.dirty_count(), 1, "grow dirtied neighbours");

        // Explicit node withdrawal (the elasticity layer's direct path).
        w.avail_idx.rebuild(&clean);
        w.on_node_withdraw(&mut engine, ClusterId(0), 1);
        assert!(w.avail_idx.is_dirty(ClusterId(0)));
        assert_eq!(w.avail_idx.dirty_count(), 1, "withdraw dirtied neighbours");
    }

    /// The claim side keeps the index live across a real run: placements
    /// rebuild it (so the aggregates track the scan's availability
    /// vector) and the final completion leaves its cluster marked.
    #[test]
    fn avail_index_is_maintained_across_a_full_run() {
        let cfg = small("fpsma", WorkloadSpec::wm(), 3);
        let mut engine = Engine::new();
        let mut w = World::new(&cfg);
        w.bootstrap(&mut engine);
        w.pump(&mut engine);
        let idx = w.avail_index();
        assert!(idx.rebuilds() > 0, "no scan ever rebuilt the index");
        assert!(
            idx.dirty_count() > 0,
            "the last completion must leave its cluster marked"
        );
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
    fn trace_records_the_full_lifecycle() {
        let cfg = small("egs", WorkloadSpec::wm(), 5);
        let mut engine = simcore::Engine::new();
        let r: RunReport = World::new(&cfg).with_trace(10_000).run_to_end(&mut engine);
        assert!(r.trace.is_enabled());
        assert_eq!(r.trace.of_category("arrive").count(), 5);
        assert_eq!(r.trace.of_category("place").count(), 5);
        assert_eq!(r.trace.of_category("start").count(), 5);
        assert_eq!(r.trace.of_category("complete").count(), 5);
        // Per-job lifecycle order: arrive ≤ place ≤ start ≤ complete.
        for j in 0..5u64 {
            let cats: Vec<&str> = r.trace.of_subject(j).map(|e| e.category).collect();
            let pos = |c: &str| cats.iter().position(|&x| x == c).unwrap();
            assert!(pos("arrive") < pos("place"));
            assert!(pos("place") < pos("start"));
            assert!(pos("start") < pos("complete"));
        }
        // Grow entries are always followed by a resume for the same job.
        assert_eq!(
            r.trace.of_category("grow").count(),
            r.trace.of_category("resume").count(),
            "every accepted grow must resume"
        );
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

    /// A job to seed slab tests with (the spec is irrelevant; only the
    /// hot fields are exercised).
    fn template_job() -> Job {
        let cfg = small("fpsma", WorkloadSpec::wm(), 1);
        let w = World::new(&cfg);
        w.jobs.get(JobId(0)).expect("one job").clone()
    }

    fn set_phase(slab: &mut JobSlab, id: JobId, phase: JobPhase, cluster: Option<ClusterId>) {
        let job = slab.get_mut(id).expect("live job");
        job.phase = phase;
        job.cluster = cluster;
        slab.sync_hot(id);
    }

    /// A streaming slot freed by a Running job and reused by a queued
    /// one must not be listed as running — whether the job's columns
    /// were refreshed before retiring (completion) or still said
    /// Running when it retired (a killed crash victim).
    #[test]
    fn reused_streaming_slot_is_not_listed_as_running() {
        let template = template_job();
        let c = ClusterId(1);
        for sync_before_retire in [true, false] {
            let mut slab = JobSlab::streaming();
            let first = Job {
                id: JobId(0),
                ..template.clone()
            };
            let slot = slab.insert(first);
            set_phase(&mut slab, JobId(0), JobPhase::Running, Some(c));
            assert_eq!(slab.running_slots_on(c), &[slot as u32]);
            if sync_before_retire {
                set_phase(&mut slab, JobId(0), JobPhase::Completed, Some(c));
            }
            slab.retire(JobId(0));
            assert!(slab.running_slots_on(c).is_empty(), "dead slot indexed");
            let reused = slab.insert(Job {
                id: JobId(1),
                ..template.clone()
            });
            assert_eq!(reused, slot, "the freed slot is reused");
            assert_eq!(slab.phase_at(reused), JobPhase::Queued);
            assert!(slab.running_slots_on(c).is_empty(), "queued job indexed");
            #[cfg(debug_assertions)]
            slab.assert_hot_coherent();
        }
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
        let mut engine = Engine::new();
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

    /// The running index is derived state: a world restored from a
    /// mid-run snapshot rebuilds exactly the index the cold run holds at
    /// that instant.
    #[test]
    fn forked_world_rebuilds_the_cold_running_index() {
        let mut cfg = ExperimentConfig::paper_pwa("egs", WorkloadSpec::wm_prime());
        cfg.workload.jobs = 60;
        let mut cold = World::for_seed_summarized(&cfg, 5);
        let mut engine = Engine::new();
        cold.bootstrap(&mut engine);
        cold.run_until(&mut engine, SimTime::from_secs(1800));
        assert!(
            cold.jobs.running.iter().any(|l| !l.is_empty()),
            "the fork point must have running jobs"
        );
        let snap = cold.snapshot(&engine).expect("summarized worlds snapshot");
        let (fork, _engine) = World::restore(&cfg, &snap).expect("same config restores");
        for c in 0..cold.mc.len() {
            let c = ClusterId(c as u16);
            assert_eq!(fork.jobs.running_slots_on(c), cold.jobs.running_slots_on(c));
        }
        #[cfg(debug_assertions)]
        fork.jobs.assert_hot_coherent();
    }

    /// A clone fork holds exactly the state a byte fork restores: both
    /// re-encode to the same snapshot, and the warmed world itself is
    /// unchanged by being forked.
    #[test]
    fn fork_clone_holds_the_state_a_byte_fork_restores() {
        use multicluster::{ClassLoss, ControlPlaneFaultSpec, FailurePolicy, FailureSpec};
        let cfg = crate::scenario::Scenario::builder()
            .pwa()
            .workload(WorkloadSpec::wm_prime())
            .jobs(60)
            .background(multicluster::BackgroundLoad::light())
            .network("das3")
            .reconfig_traffic(0.25)
            .ctrl_faults(ControlPlaneFaultSpec {
                loss: ClassLoss::uniform(0.15),
                duplicate: 0.05,
                max_jitter: SimDuration::from_millis(300),
                flaky: None,
            })
            .failures(FailureSpec::new(
                SimDuration::from_secs(600),
                SimDuration::from_secs(300),
                8,
            ))
            .failure_policy(FailurePolicy::Requeue)
            .autoscaler("threshold")
            .monitor(SimDuration::from_secs(120))
            .summarized()
            .build()
            .expect("valid scenario")
            .into_config();
        let mut warm = World::for_seed_summarized(&cfg, 5);
        let mut engine = engine_for(&cfg);
        warm.bootstrap(&mut engine);
        warm.run_until(&mut engine, SimTime::from_secs(1800));
        let before = warm.snapshot(&engine).expect("summarized worlds snapshot");

        let mut cell = cfg.clone();
        cell.sched.placement = "first_fit".to_string();
        cell.sched.malleability = "egs".to_string();
        let (by_bytes, bytes_engine) = World::fork_with(&cell, &before).expect("fork-equal");
        let by_clone = warm.fork_clone(&cell);
        assert_eq!(
            by_clone.snapshot(&engine.clone()),
            by_bytes.snapshot(&bytes_engine),
            "the clone fork's state differs from the byte fork's"
        );
        assert_eq!(
            format!("{:?}", by_clone.avail_index()),
            format!("{:?}", by_bytes.avail_index())
        );
        assert_eq!(
            warm.snapshot(&engine),
            Ok(before),
            "forking changed the warmed world"
        );
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
        let mut idx = AvailIndex::new(3);
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
        let mut engine = Engine::new();
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
        while let Some((_, ev)) = engine.pop() {
            w.handle(&mut engine, ev);
            if w.done() {
                break;
            }
        }
        let r = w.finish(&engine);
        let mut text = format!(
            "placement_tries={} failed_submissions={} requeued={} makespan={:?}\n",
            r.placement_tries, r.failed_submissions, r.jobs_requeued, r.makespan
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
