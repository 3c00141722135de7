//! The contended network: bandwidth-true staging of input files and
//! the redistribution traffic of reconfigurations, both as flows on a
//! max-min fair [`FlowNet`] whose completion estimates are
//! generation-stamped [`Ev::TransferDone`] events.

use std::collections::HashMap;

use multicluster::{
    ClusterId, FileCatalog, FileId, FileMeta, FlowNet, FlowSchedule, NetworkTopology,
};
use simcore::{Engine, Generation, SimTime};

use super::{CtrlOp, Ev, World};
use crate::config::ExperimentConfig;
use crate::ids::JobId;
use crate::job::{Job, JobPhase};
use crate::obs::Obs;
use crate::report::NetStats;

/// What one network flow is moving, and for whom — resolved when its
/// completion event fires.
#[derive(Clone)]
pub(super) struct TransferOwner {
    /// The job the transfer serves.
    pub(super) job: JobId,
    /// The job's generation when the transfer opened; a bumped stamp
    /// means the job moved on (re-queued, reconfigured) and the
    /// completion must not drive it — the data still lands, though:
    /// the replica is registered regardless.
    pub(super) gen: Generation,
    /// The staged file, or `None` for reconfiguration traffic (which
    /// only contends — nothing waits on it).
    pub(super) file: Option<FileId>,
    /// Destination cluster (gains the replica on completion).
    pub(super) dest: ClusterId,
}

/// Per-job staging progress under the network layer.
#[derive(Clone)]
pub(super) struct StagingState {
    /// Transfers still in flight for this staging session.
    pub(super) pending: u32,
    /// The job generation the session belongs to (pairs completions
    /// with the right session if the job was re-placed meanwhile).
    pub(super) gen: Generation,
    /// When staging began — the staging-delay metric's anchor.
    pub(super) since: SimTime,
}

/// Runtime state of the contended-network layer: the fair-share flow
/// network plus the bookkeeping that ties flows back to jobs. `None`
/// on the world when [`crate::config::ExperimentConfig::network`] is
/// `None` — the default — in which case staging falls back to the
/// closed-form catalog estimates and trajectories are bit-identical
/// to the pre-network code (pinned by the passivity golden).
#[derive(Clone)]
pub(super) struct NetRuntime {
    /// Active flows and max-min fair rate assignment.
    pub(super) flows: FlowNet,
    /// Flow id → what it moves and for whom.
    pub(super) owners: HashMap<u64, TransferOwner>,
    /// Job id → staging session in progress.
    pub(super) staging: HashMap<u32, StagingState>,
    /// GB of redistribution traffic per processor moved by a
    /// reconfiguration (zero disables reconfig traffic).
    pub(super) reconfig_gb_per_proc: f64,
    /// Transfer tallies for the report.
    pub(super) stats: NetStats,
}

impl NetRuntime {
    /// The network layer `cfg` configures, with its file catalog
    /// (`None` without a network config). The named topology resolves
    /// against the global registry, and the configured replica layout
    /// is pre-registered. The catalog is derived from the topology
    /// (uncontended bottleneck bandwidths), so Close-to-Files ranking
    /// and the transfers it leads to agree on the network shape; an
    /// explicit `with_files` catalog still overrides it.
    pub(super) fn new(cfg: &ExperimentConfig, n_clusters: usize) -> Option<(Self, FileCatalog)> {
        let nc = cfg.network.as_ref()?;
        let topo = multicluster::NetworkTopology::by_name(&nc.topology, n_clusters)
            .unwrap_or_else(|e| panic!("invalid experiment configuration: {e}"));
        let mut cat = FileCatalog::over_network(&topo);
        for spec in &nc.files {
            cat.register(spec.size_gb, spec.replicas.iter().map(|&r| ClusterId(r)));
        }
        let net = NetRuntime {
            flows: FlowNet::new(topo),
            owners: HashMap::new(),
            staging: HashMap::new(),
            reconfig_gb_per_proc: nc.reconfig_gb_per_proc,
            stats: NetStats::default(),
        };
        Some((net, cat))
    }

    /// Schedules the fresh completion estimate of every flow a
    /// fair-share recomputation moved, then hands the buffer back to
    /// the network for reuse.
    fn reschedule(&mut self, engine: &mut Engine<Ev>, scheds: Vec<FlowSchedule>) {
        for s in &scheds {
            engine.schedule_at(
                s.eta,
                Ev::TransferDone {
                    transfer: s.flow,
                    gen: s.gen,
                },
            );
        }
        self.flows.recycle(scheds);
    }
}

/// Where `dest` fetches `file` from: its best replica (highest
/// uncontended path bandwidth; ties to the lowest cluster id —
/// deterministic because replicas iterate in `BTreeSet` order), or
/// `None` when `dest` holds a replica or none is reachable. The staging
/// decision and the transfers it opens both ask this, so they agree.
fn staging_source(topo: &NetworkTopology, file: &FileMeta, dest: ClusterId) -> Option<ClusterId> {
    if file.replicas.contains(&dest) {
        return None;
    }
    let mut best: Option<(f64, ClusterId)> = None;
    for &r in &file.replicas {
        let bw = topo.path_bandwidth_gbps(r, dest);
        if bw <= 0.0 {
            continue;
        }
        if best.is_none_or(|(b, _)| bw > b) {
            best = Some((bw, r));
        }
    }
    best.map(|(_, r)| r)
}

impl<'a> World<'a> {
    /// Estimated staging time of a job's input files at `cluster` (zero
    /// without a catalog or files): [`FileCatalog::staging_time`] over
    /// the spec's file ids, summed in place.
    pub(super) fn staging_time(&self, job: &Job, cluster: ClusterId) -> simcore::SimDuration {
        let Some(cat) = &self.files else {
            return simcore::SimDuration::ZERO;
        };
        job.spec
            .input_files
            .iter()
            .filter_map(|&f| cat.transfer_time(FileId(f), cluster))
            .fold(simcore::SimDuration::ZERO, |acc, d| acc + d)
    }

    /// Whether job `id` has input files that must move before it can
    /// start at `cluster`: the network layer is on, and at least one
    /// input file has no replica at the destination but a *reachable*
    /// replica elsewhere. Unreachable files never gate the start —
    /// like the catalog estimators, reachability is a ranking concern,
    /// not an admission check, and blocking forever on a marooned file
    /// would hang the job.
    pub(super) fn staging_required(&self, id: JobId, cluster: ClusterId) -> bool {
        let Some(net) = self.net.as_ref() else {
            return false;
        };
        let Some(cat) = self.files.as_ref() else {
            return false;
        };
        let job = self.jobs.get(id).expect("placed job is live");
        let topo = net.flows.topology();
        job.spec.input_files.iter().any(|&f| {
            cat.meta(FileId(f))
                .is_some_and(|m| staging_source(topo, m, cluster).is_some())
        })
    }

    /// Opens the staging transfers of a placed job: one flow per input
    /// file missing at the destination, each from its
    /// [`staging_source`]. With nothing to move the job proceeds
    /// immediately.
    pub(super) fn on_transfer_start(
        &mut self,
        engine: &mut Engine<Ev>,
        id: JobId,
        gen: Generation,
    ) {
        let now = engine.now();
        let Some(job) = self.jobs.get(id) else {
            return;
        };
        if !job.gen.matches(gen) || !matches!(job.phase, JobPhase::Starting | JobPhase::Staging) {
            return;
        }
        let dest = job.cluster.expect("a staging job was placed");
        let mut transfers = 0u32;
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
            let Some(src) = staging_source(net.flows.topology(), meta, dest) else {
                continue;
            };
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
            net.reschedule(engine, scheds);
            transfers += 1;
        }
        if transfers == 0 {
            self.finish_staging(engine, id);
            return;
        }
        let staging = StagingState {
            pending: transfers,
            gen,
            since: now,
        };
        net.staging.insert(id.0, staging);
        self.observe(now, Obs::Stage { job: id, transfers });
    }

    /// A transfer's completion estimate fires. Stale estimates (the
    /// flow was rescheduled by a fair-share change since) are dropped
    /// by the flow generation; a real completion registers the new
    /// replica, feeds the transfer-time stream, and — when it was the
    /// job's last pending transfer — resumes the job's start path.
    pub(super) fn on_transfer_done(&mut self, engine: &mut Engine<Ev>, transfer: u64, gen: u64) {
        let now = engine.now();
        let Some(net) = self.net.as_mut() else {
            return;
        };
        let Some((done, scheds)) = net.flows.complete(now, transfer, gen) else {
            return; // stale estimate
        };
        net.reschedule(engine, scheds);
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
                let delay = self.resend_delay(id, CtrlOp::Start);
                self.send_ctrl(engine, id, CtrlOp::Start, delay, 0);
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
    pub(super) fn open_reconfig_traffic(
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
        net.reschedule(engine, scheds);
    }

    /// Finalizes the network tallies: drains link busy-time up to the
    /// end of the run and derives the busy-fraction denominator
    /// (`makespan × links`). Zero everything without a network layer.
    pub(super) fn final_net_stats(&mut self, now: SimTime) -> NetStats {
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
}
