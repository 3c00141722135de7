//! Elasticity and failures: node withdrawal and restore, the passive
//! monitor, the autoscaler's observe–decide–apply cycle, and seeded
//! node crashes with their victims' cleanup.

use multicluster::{AllocOwner, ClusterId, FailurePolicy};
use simcore::{Engine, SimDuration};

use super::{cancel_malleability, Ev, World};
use crate::autoscaler::{ClusterObservation, ScaleDecision};
use crate::ids::JobId;
use crate::job::JobPhase;
use crate::obs::Obs;

impl<'a> World<'a> {
    /// Schedules the elasticity layer's first events: the monitor
    /// sample, the autoscaling cycle and the first node failure.
    pub(super) fn bootstrap_elasticity(&mut self, engine: &mut Engine<Ev>) {
        let e = &self.cfg.elasticity;
        if e.monitored() {
            engine.schedule_in(e.monitor_period, Ev::MonitorSample);
        }
        if self.policies.autoscaler.is_some() {
            engine.schedule_in(e.autoscale_period, Ev::AutoscaleCycle);
        }
        self.schedule_next_failure(engine);
    }

    /// Draws the next seeded node failure and schedules it. The stream
    /// is a pure function of its seed, never of what a crash hit.
    fn schedule_next_failure(&mut self, engine: &mut Engine<Ev>) {
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

    pub(super) fn on_node_withdraw(
        &mut self,
        engine: &mut Engine<Ev>,
        cluster: ClusterId,
        nodes: u32,
    ) {
        let now = engine.now();
        self.observe(now, Obs::Withdraw { cluster, nodes });
        let taken = self.mc.cluster_mut(cluster).withdraw_free(nodes);
        if taken > 0 {
            self.sync_baseline(cluster);
            self.touch_util(now);
        }
        let remaining = nodes - taken;
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

    pub(super) fn on_node_restore(
        &mut self,
        engine: &mut Engine<Ev>,
        cluster: ClusterId,
        count: u32,
    ) {
        let now = engine.now();
        let restored = self.mc.cluster_mut(cluster).restore(count);
        if restored > 0 {
            self.touch_util(now);
            // Restored nodes are newly available processors: the
            // malleability manager reacts exactly as for any release.
            self.capacity_freed(engine, cluster);
        }
    }

    /// Samples per-cluster utilization and the placement-queue depth
    /// into the report. Strictly passive: the sample drives no
    /// scheduling decision, so enabling monitoring never perturbs the
    /// trajectory.
    pub(super) fn on_monitor_sample(&mut self, engine: &mut Engine<Ev>) {
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
    pub(super) fn on_autoscale_cycle(&mut self, engine: &mut Engine<Ev>) {
        let Some(scaler) = self.policies.autoscaler.as_deref() else {
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
            let (grow, count) = match scaler.decide(&obs) {
                ScaleDecision::Hold => continue,
                ScaleDecision::Grow(count) => (true, count),
                ScaleDecision::Shrink(count) => (false, count),
            };
            let cluster = obs.cluster;
            engine.schedule_in(
                delay,
                Ev::AutoscaleApply {
                    cluster,
                    grow,
                    count,
                },
            );
        }
        if !self.done() {
            engine.schedule_in(self.cfg.elasticity.autoscale_period, Ev::AutoscaleCycle);
        }
    }

    /// A scale decision lands. Grow repairs down nodes (the pool ceiling
    /// is the cluster's static size); shrink withdraws free nodes only —
    /// autoscaling never kills or shrinks running jobs, that is the
    /// failure stream's (or [`Ev::NodeWithdraw`]'s) job.
    pub(super) fn on_autoscale_apply(
        &mut self,
        engine: &mut Engine<Ev>,
        cluster: ClusterId,
        grow: bool,
        count: u32,
    ) {
        let now = engine.now();
        if grow {
            let nodes = self.mc.cluster_mut(cluster).restore(count);
            if nodes > 0 {
                self.observe(now, Obs::ScaleUp { cluster, nodes });
                self.touch_util(now);
                self.capacity_freed(engine, cluster);
            }
        } else {
            let nodes = self.mc.cluster_mut(cluster).withdraw_free(count);
            if nodes > 0 {
                self.observe(now, Obs::ScaleDown { cluster, nodes });
                self.sync_baseline(cluster);
                self.touch_util(now);
            }
        }
    }

    /// Seeded node crash: take nodes (busy ones included), handle every
    /// job that lost processors per the configured
    /// [`multicluster::FailurePolicy`], and schedule the repair.
    pub(super) fn on_node_crash(
        &mut self,
        engine: &mut Engine<Ev>,
        cluster: ClusterId,
        count: u32,
        repair_after: SimDuration,
    ) {
        let now = engine.now();
        let (taken, victims) = self.mc.cluster_mut(cluster).crash(count);
        let crash = Obs::Crash {
            cluster,
            nodes: taken,
        };
        self.observe(now, crash);
        // Until the last victim is cleaned up, a job may still look
        // Running on an allocation the crash destroyed.
        self.crash_cleanup = true;
        for v in &victims {
            // A background job's allocation shrank in place or vanished
            // with its last node; `on_bg_complete` tolerates both.
            if let AllocOwner::Koala(jid) = v.owner {
                self.crash_koala_victim(engine, JobId(jid as u32));
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
        // Draw the next failure unconditionally.
        self.schedule_next_failure(engine);
    }

    /// One KOALA job lost processors to a crash: release whatever
    /// survived (the remainder of the crashed allocation plus any
    /// co-allocated components elsewhere), then kill or re-queue the job
    /// per the failure policy. The work done so far is lost either way —
    /// the paper's malleable applications checkpoint nothing.
    fn crash_koala_victim(&mut self, engine: &mut Engine<Ev>, id: JobId) {
        let now = engine.now();
        let Some(job) = self.jobs.get_mut(id).filter(|j| !j.is_terminal()) else {
            return;
        };
        let home = job.cluster.take();
        cancel_malleability(job.runner.as_mut(), &mut self.pending_release, home);
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
                self.observe(now, Obs::Killed { job: id });
                self.jobs.retire(id);
            }
            FailurePolicy::Requeue => {
                job.phase = JobPhase::Queued;
                self.observe(now, Obs::Requeue { job: id });
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
}
