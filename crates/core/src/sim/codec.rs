//! The KSNP world codec: snapshot, restore and byte-fork of a
//! summarized world whose intake has pulled its whole workload. The
//! byte layer lives in [`crate::snapshot`]; the world-structure codec
//! lives here, beside the private fields it reads and writes.

use std::collections::HashMap;

use appsim::dynaco::{Dynaco, Phase as DynacoPhase};
use appsim::workload::SubmittedJob;
use appsim::{Progress, SizeConstraint};
use multicluster::{
    AllocId, AllocOwner, ClusterId, ClusterState, ControlPlaneFaultsState, FailureStreamState,
    FileCatalogState, FileId, FileMeta, FlakyChannelState, FlowNetState, FlowState, InfoSnapshot,
    InfoState, LinkId, LocalJob, LocalJobId, LrmState, NodeId, NodeState,
};
use simcore::{Engine, EngineSnapshot, EngineStats, Generation, SimDuration, SimRng, SimTime};

use super::jobs::JobSlab;
use super::net::{StagingState, TransferOwner};
use super::{engine_for, CtrlOp, Ev, World};
use crate::avail::AvailIndex;
use crate::config::ExperimentConfig;
use crate::ids::JobId;
use crate::job::{Job, JobPhase};
use crate::placement::PlacementQueue;
use crate::report::{CtrlStats, NetStats, SummaryReport};
use crate::runner::MRunner;
use crate::snapshot::{
    config_fingerprint, fork_fingerprint, ByteReader, ByteWriter, Snapshot, SnapshotError, VERSION,
};

impl<'a> World<'a> {
    /// Captures the complete mid-run state of this world and its
    /// engine as a versioned, deterministic [`Snapshot`] — queue
    /// contents in `(time, seq)` order with the next sequence number,
    /// the intake's cursor, the live jobs' slots and runtime overlay,
    /// cluster/allocation/availability state, in-flight retry timers,
    /// open network flows, streaming
    /// accumulators and every seeded RNG position. The world is
    /// untouched; a [`World::restore`]d copy continues bit-identically.
    ///
    /// Only **summarized-mode** worlds over their configuration's own
    /// workload, pulled to its end, can be captured: full reports hold
    /// unbounded job tables, and a restore rebuilds the job specs from
    /// `(config, seed)`, which a caller's stream or a window still
    /// pulling cannot offer. Anything else is a typed
    /// [`SnapshotError::UnsupportedMode`]. An attached sink is not
    /// world state: it is neither captured nor a reason to refuse.
    pub fn snapshot(&self, engine: &Engine<Ev>) -> Result<Snapshot, SnapshotError> {
        if self.collect.detail.is_some() {
            return Err(SnapshotError::UnsupportedMode(
                "full-report mode (build with World::for_seed_summarized)".into(),
            ));
        }
        if !self.intake.own {
            return Err(SnapshotError::UnsupportedMode(
                "a caller's job stream (its jobs cannot be rebuilt from the configuration)".into(),
            ));
        }
        if !self.intake.exhausted() {
            return Err(SnapshotError::UnsupportedMode(
                "an intake still pulling its stream (a bounded look-ahead window)".into(),
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
        // The intake cursor: jobs arrived so far. The rest of the
        // workload is the window, rebuilt from (config, seed).
        w.u64(self.intake.arrived() as u64);
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
        w.u32(av.max_eff);
        w.u64(av.sum_eff);
        w.u64(av.rebuilds);
        w.u64(av.quick_rejects);
        w.u64(av.blocked_scans);
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
            self.ctrl
                .as_ref()
                .map(|c| c.faults.capture_state())
                .as_ref(),
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
        let ctrl = self.ctrl.as_ref().map(|c| c.stats).unwrap_or_default();
        w.u64(ctrl.messages_lost);
        w.u64(ctrl.timeouts);
        w.u64(ctrl.retries);
        w.u64(ctrl.duplicates_dropped);
        w.u64(ctrl.polls_lost);
        w.u64(ctrl.reclaimed_allocations);
        w.u64(ctrl.flaky_deferrals);
        w.u64(ctrl.leaked_allocations);
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
        // --- job slab: live jobs, free list ---------------------------
        // Specs are NOT serialized: the workload regenerates from
        // (config, seed) at restore, and only the mutable runtime
        // fields are overwritten on the rebuilt jobs.
        w.len(self.jobs.live);
        for (slot, job) in self.jobs.slots.iter().enumerate() {
            if let Some(job) = job {
                w.u32(slot as u32);
                w.u32(job.id.0);
                enc_job(&mut w, job);
            }
        }
        w.len(self.jobs.free.len());
        for &slot in &self.jobs.free {
            w.u32(slot);
        }
        w.u64(self.jobs.peak_live as u64);
        // --- streaming collector --------------------------------------
        self.collect.summary.encode(&mut w);
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
        // The intake cursor: pull the whole workload again without
        // scheduling it (the restored engine holds the arrival events),
        // and take the arrived jobs out of the window, indexed by id.
        while self.intake.pull().is_some() {}
        let arrived = usize::try_from(r.u64()?)
            .ok()
            .filter(|&a| a <= self.intake.pending.len())
            .ok_or_else(|| corrupt("intake cursor beyond the workload"))?;
        let mut arrived: Vec<Option<SubmittedJob>> =
            self.intake.pending.drain(..arrived).map(Some).collect();
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
        self.avail_idx = AvailIndex::from_state(crate::avail::AvailIndexState {
            max_eff: r.u32()?,
            sum_eff: r.u64()?,
            rebuilds: r.u64()?,
            quick_rejects: r.u64()?,
            blocked_scans: r.u64()?,
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
        match (faults, self.ctrl.as_mut().map(|c| &mut c.faults)) {
            (Some(state), Some(model)) => {
                model.restore_state(state).map_err(SnapshotError::Corrupt)?
            }
            (None, None) => {}
            _ => return Err(corrupt("control-plane fault presence mismatch")),
        }
        let ctrl = CtrlStats {
            messages_lost: r.u64()?,
            timeouts: r.u64()?,
            retries: r.u64()?,
            duplicates_dropped: r.u64()?,
            polls_lost: r.u64()?,
            reclaimed_allocations: r.u64()?,
            flaky_deferrals: r.u64()?,
            leaked_allocations: r.u64()?,
        };
        match self.ctrl.as_mut() {
            Some(plane) => plane.stats = ctrl,
            None if ctrl == CtrlStats::default() => {}
            None => return Err(corrupt("control-plane counters without a fault model")),
        }
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
        // --- job slab: live jobs, free list ---------------------------
        let n_live = r.len(29)?;
        let mut live = Vec::with_capacity(n_live);
        for _ in 0..n_live {
            let slot = r.u32()?;
            let id = r.u32()?;
            let sj = arrived
                .get_mut(id as usize)
                .and_then(Option::take)
                .ok_or_else(|| corrupt("live job that has not arrived, or is live twice"))?;
            let mut job = Job::new(JobId(id), sj.spec, sj.at);
            dec_job_into(r, &mut job)?;
            live.push((slot, job));
        }
        let n_free = r.len(4)?;
        let mut free = Vec::with_capacity(n_free);
        for _ in 0..n_free {
            free.push(r.u32()?);
        }
        let peak_live = r.u64()? as usize;
        self.jobs = JobSlab::restore(n_live + n_free, live, free, peak_live)
            .map_err(SnapshotError::Corrupt)?;
        // --- streaming collector --------------------------------------
        self.collect.summary = crate::report::SummaryCollector::decode(r)?;
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
    Ok(LrmState { queue })
}

fn enc_info_snapshot(w: &mut ByteWriter, s: &InfoSnapshot) {
    w.u64(s.taken_at.as_millis());
    w.len(s.idle.len());
    for &v in &s.idle {
        w.u32(v);
    }
}

fn dec_info_snapshot(
    r: &mut ByteReader<'_>,
    n_clusters: usize,
) -> Result<InfoSnapshot, SnapshotError> {
    let taken_at = SimTime::from_millis(r.u64()?);
    let n = r.len(4)?;
    if n != n_clusters {
        return Err(SnapshotError::Corrupt("info-snapshot width".into()));
    }
    let mut idle = Vec::with_capacity(n);
    for _ in 0..n {
        idle.push(r.u32()?);
    }
    Ok(InfoSnapshot { taken_at, idle })
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
    use appsim::workload::WorkloadSpec;

    /// The running index is derived state: a world restored from a
    /// mid-run snapshot rebuilds exactly the index the cold run holds at
    /// that instant.
    #[test]
    fn forked_world_rebuilds_the_cold_running_index() {
        let mut cfg = ExperimentConfig::paper_pwa("egs", WorkloadSpec::wm_prime());
        cfg.workload.jobs = 60;
        let mut cold = World::for_seed_summarized(&cfg, 5);
        let mut engine = engine_for(&cfg);
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
}
