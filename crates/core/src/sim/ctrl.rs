//! The control-plane retry machine: every KOALA→GRAM message goes
//! through [`World::send_ctrl`]; with faults on, deadlines re-send it
//! with capped exponential backoff or give up per operation, and a
//! periodic sweep reclaims release batches lost for good.

use multicluster::{ClusterId, ControlPlaneFaults, MessageClass};
use simcore::{Engine, Generation, SimDuration, SimRng, SimTime};

use super::{held_procs, Ev, World};
use crate::config::ExperimentConfig;
use crate::ids::JobId;
use crate::job::JobPhase;
use crate::obs::Obs;
use crate::report::CtrlStats;

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

/// The control-plane fault layer of a world: the seeded fault model
/// and the health counters it drives. `None` on the world without a
/// fault spec — the default — in which case the retry machinery is
/// pure plumbing: no extra events, no extra RNG draws, bit-identical
/// trajectories to the pre-fault-layer code, and all-zero counters.
#[derive(Clone)]
pub(super) struct CtrlPlane {
    /// The seeded control-plane fault model.
    pub(super) faults: ControlPlaneFaults,
    /// Control-plane health counters.
    pub(super) stats: CtrlStats,
}

impl CtrlPlane {
    /// The fault layer `cfg` configures, drawing from `rng` (`None`
    /// without a fault spec).
    pub(super) fn new(cfg: &ExperimentConfig, n_clusters: usize, rng: SimRng) -> Option<Self> {
        cfg.elasticity.ctrl_faults.as_ref().map(|spec| CtrlPlane {
            faults: ControlPlaneFaults::new(spec.clone(), n_clusters as u16, rng),
            stats: CtrlStats::default(),
        })
    }

    /// Whether the KIS poll at `now` reaches the scheduler. A lost poll
    /// leaves the scheduler on its stale snapshot for one cycle.
    pub(super) fn poll_delivered(&mut self, now: SimTime) -> bool {
        let poll = self.faults.outcome(MessageClass::InfoPoll, None, now);
        self.stats.polls_lost += u64::from(!poll.delivered);
        poll.delivered
    }

    /// Graceful degradation: refuse to place blind. A cluster whose
    /// control channel is inside a flaky episode would lose most of
    /// the submissions sent its way, so its capacity is masked out of
    /// `avail` and the jobs wait for a healthier window instead.
    pub(super) fn mask_flaky(&mut self, avail: &mut [u32], now: SimTime) {
        if self.faults.spec().flaky.is_none() {
            return;
        }
        for (c, a) in avail.iter_mut().enumerate() {
            if *a > 0 && self.faults.is_flaky(ClusterId(c as u16), now) {
                *a = 0;
                self.stats.flaky_deferrals += 1;
            }
        }
    }
}

impl<'a> World<'a> {
    /// Sends one KOALA→GRAM control message about job `id`, stamped
    /// with its generation and addressed to its cluster: its effect
    /// event is scheduled after `delay`, subject to the fault model when
    /// one is installed.
    ///
    /// With faults **off** this is pure plumbing — the effect is
    /// scheduled directly, with no deadline event and no RNG draw, so
    /// trajectories stay bit-identical to the pre-fault-layer code (the
    /// passivity golden pins this). With faults on, the message may be
    /// lost (effect never scheduled), duplicated (effect scheduled twice;
    /// the handlers drop the second application idempotently) or delayed
    /// by jitter, and an [`Ev::CtrlTimeout`] deadline guards the
    /// operation with capped exponential backoff.
    pub(super) fn send_ctrl(
        &mut self,
        engine: &mut Engine<Ev>,
        id: JobId,
        op: CtrlOp,
        delay: SimDuration,
        attempt: u32,
    ) {
        let job = self
            .jobs
            .get(id)
            .expect("control messages concern live jobs");
        let (gen, cluster) = (job.gen, job.cluster);
        let Some(ctrl) = self.ctrl.as_mut() else {
            engine.schedule_in(delay, op.effect(id, gen));
            return;
        };
        let outcome = ctrl.faults.outcome(op.class(), cluster, engine.now());
        if outcome.delivered {
            engine.schedule_in(delay + outcome.jitter, op.effect(id, gen));
            if outcome.duplicated {
                // The duplicate is really delivered; exactly one of the
                // two arrivals applies, so the idempotent handlers are
                // guaranteed to drop the other — count it here, where
                // a drop cannot be confused with a stale-generation one.
                ctrl.stats.duplicates_dropped += 1;
                engine.schedule_in(delay + outcome.dup_jitter, op.effect(id, gen));
            }
        } else {
            ctrl.stats.messages_lost += 1;
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

    /// The fault layer's counters. Only the fault layer schedules
    /// deadlines and sweeps, so the layer is on wherever this is asked.
    fn ctrl_stats(&mut self) -> &mut CtrlStats {
        let ctrl = self.ctrl.as_mut().expect("deadlines need the fault layer");
        &mut ctrl.stats
    }

    /// A control deadline expired. If the guarded operation completed in
    /// the meantime (the common case — deadlines are conservative), this
    /// is a no-op; otherwise the message is presumed lost and re-sent
    /// with capped exponential backoff until the attempt budget runs
    /// out, at which point the per-operation give-up policy applies.
    pub(super) fn on_ctrl_timeout(
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
        self.ctrl_stats().timeouts += 1;
        let next = attempt + 1;
        if next < self.cfg.sched.retry.max_attempts {
            self.ctrl_stats().retries += 1;
            let delay = self.resend_delay(id, op);
            self.send_ctrl(engine, id, op, delay, next);
            return;
        }
        self.give_up(engine, id, op);
    }

    /// GRAM latency of a re-send — a pure function of the job's current
    /// state (re-driving a sync is a single control message; batch sends
    /// pay the batch latency again).
    pub(super) fn resend_delay(&self, id: JobId, op: CtrlOp) -> SimDuration {
        let job = self.jobs.get(id).expect("pending op implies a live job");
        let gram = &self.cfg.sched.gram;
        match op {
            CtrlOp::Start => gram.batch_submit_time(held_procs(&self.mc, job)),
            CtrlOp::Grow => {
                gram.batch_submit_time(job.runner.as_ref().map_or(0, |r| r.submitting()))
            }
            CtrlOp::RecruitSync | CtrlOp::ShrinkSync => gram.message_latency,
            CtrlOp::Release { count } => gram.batch_release_time(count),
        }
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
                self.observe(now, Obs::CtrlRequeue { job: id });
                self.queue.push_back(id);
                self.fail_try(now, id);
                self.release_job(engine, cluster, alloc, &extras);
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
                self.jobs.sync_hot(id);
                self.observe(now, Obs::CtrlAbortGrow { job: id, stubs });
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
                self.observe(now, Obs::CtrlForceSync { job: id, grow });
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
                self.observe(now, Obs::CtrlReleaseLost { job: id });
            }
        }
    }

    /// Recurring orphaned-allocation sweep: a release batch still pending
    /// past the grace window lost its message *and* its retries — the
    /// processors would leak silently without this backstop. Reclaim
    /// locally, exactly as a delivered [`Ev::ShrinkReleased`] would.
    pub(super) fn on_orphan_sweep(&mut self, engine: &mut Engine<Ev>) {
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
            let job = self.jobs.get(id).expect("iterated live above");
            let count = job.runner.as_ref().map_or(0, |r| r.releasing());
            self.observe(now, Obs::CtrlReclaim { job: id });
            self.ctrl_stats().reclaimed_allocations += u64::from(count);
            self.release_landed(engine, id, count);
        }
        if !self.done() {
            engine.schedule_in(self.cfg.sched.retry.orphan_sweep_period, Ev::OrphanSweep);
        }
    }
}
