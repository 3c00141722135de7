//! Job storage: the slab every world keeps its jobs in, with the hot
//! struct-of-arrays columns and the per-cluster running index the
//! malleability manager reads.

use multicluster::ClusterId;
use simcore::{Generation, IdHashMap};

use crate::ids::JobId;
use crate::job::{Job, JobPhase};
use crate::runner::MRunner;

/// Job storage of a world: a slab indexed by job id.
///
/// In **fixed** mode (eager intake) ids are dense indices and jobs stay
/// in place after completion — exactly the historical `Vec<Job>`
/// behaviour, with no extra indirection on the hot path. In
/// **streaming** mode jobs are inserted at arrival and *retired* at
/// their terminal phase: the slot returns to a free list and the
/// id→slot map forgets the job, so live memory is bounded by the number
/// of in-flight jobs, not the trace length.
#[derive(Clone, Default)]
pub(super) struct JobSlab {
    pub(super) slots: Vec<Option<Job>>,
    /// Struct-of-arrays mirror of `Job::phase`, one entry per slot: what
    /// the running index and the shrink-room totals were last told, so
    /// [`JobSlab::set_hot`] knows what a write moves them from. Written
    /// only through `set_hot`; kept coherent by [`JobSlab::sync_hot`] at
    /// every phase/cluster write site. A dead slot keeps its last phase
    /// and has its cluster cleared at [`JobSlab::retire`] (readers gate
    /// on `slots`).
    phases: Vec<JobPhase>,
    /// Struct-of-arrays mirror of `Job::cluster` (see
    /// [`JobSlab::phases`]).
    clusters: Vec<Option<ClusterId>>,
    /// Per-cluster running index: `running[c]` lists, ascending, the
    /// slots whose columns say "Running on cluster `c`" — exactly what a
    /// scan of the two columns would yield, without the scan.
    /// [`JobSlab::set_hot`] maintains it alongside the columns. Derived
    /// state: never serialized, rebuilt whenever the columns are.
    pub(super) running: Vec<Vec<u32>>,
    /// Shrink-room column: per slot, what a mandatory shrink could take
    /// from the job right now ([`JobSlab::shrink_room_of`]).
    rooms: Vec<u32>,
    /// Per-cluster shrink-room total beside `running`: the sum of
    /// `rooms` over `running[c]`, so [`World::shrinkable_on`] reads one
    /// number instead of walking the jobs running there. Derived like
    /// `running`.
    shrink_room: Vec<u32>,
    /// Free slot indices (streaming mode only).
    free: Vec<u32>,
    /// Job id → slot (streaming mode only; fixed mode uses id = slot).
    /// Never iterated, so its hash order cannot reach the trajectory.
    index: IdHashMap<u32, u32>,
    streaming: bool,
    /// Jobs created and not yet retired.
    pub(super) live: usize,
    /// High-water mark of `live` (the bounded-memory witness).
    pub(super) peak_live: usize,
    /// Jobs ever created.
    created: u64,
}

impl JobSlab {
    /// Fixed-mode storage over a prebuilt job list.
    pub(super) fn fixed(jobs: Vec<Job>) -> Self {
        let n = jobs.len();
        let mut slab = JobSlab {
            slots: jobs.into_iter().map(Some).collect(),
            phases: vec![JobPhase::Queued; n],
            clusters: vec![None; n],
            rooms: vec![0; n],
            live: n,
            peak_live: n,
            created: n as u64,
            ..JobSlab::default()
        };
        for id in 0..n {
            slab.sync_hot(JobId(id as u32));
        }
        slab
    }

    /// Empty streaming-mode storage.
    pub(super) fn streaming() -> Self {
        JobSlab {
            streaming: true,
            ..JobSlab::default()
        }
    }

    /// Inserts a newly arrived job (streaming mode), returning its slot.
    pub(super) fn insert(&mut self, job: Job) -> usize {
        debug_assert!(self.streaming, "fixed slabs are prebuilt");
        let id = job.id.0;
        let (phase, cluster, room) = (job.phase, job.cluster, Self::shrink_room_of(&job));
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(job);
                s
            }
            None => {
                self.slots.push(Some(job));
                self.phases.push(JobPhase::Queued);
                self.clusters.push(None);
                self.rooms.push(0);
                (self.slots.len() - 1) as u32
            }
        };
        self.set_hot(slot as usize, phase, cluster, room);
        self.index.insert(id, slot);
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        self.created += 1;
        slot as usize
    }

    /// The collector slot of a live job (fixed mode: its id).
    pub(super) fn slot_of(&self, id: JobId) -> usize {
        if self.streaming {
            self.index[&id.0] as usize
        } else {
            id.index()
        }
    }

    /// The slot job `id` would occupy: its id in fixed mode, its mapped
    /// slot in streaming mode (`None` once it retired).
    fn slot(&self, id: JobId) -> Option<usize> {
        if self.streaming {
            self.index.get(&id.0).map(|&s| s as usize)
        } else {
            Some(id.index())
        }
    }

    /// The job, if it is still live (stale events on retired jobs
    /// resolve to `None` and are dropped by their handlers).
    pub(super) fn get(&self, id: JobId) -> Option<&Job> {
        self.job_at(self.slot(id)?)
    }

    /// The live job `id` if `gen` is still its generation and it is in
    /// `phase`: the guard of every generation-stamped event handler
    /// (a stale event resolves to `None` and is dropped).
    pub(super) fn current(
        &mut self,
        id: JobId,
        gen: Generation,
        phase: JobPhase,
    ) -> Option<&mut Job> {
        self.get_mut(id)
            .filter(|j| j.gen.matches(gen) && j.phase == phase)
    }

    /// Mutable access, like [`JobSlab::get`].
    pub(super) fn get_mut(&mut self, id: JobId) -> Option<&mut Job> {
        let slot = self.slot(id)?;
        self.slots.get_mut(slot).and_then(Option::as_mut)
    }

    /// The runner of a live malleable job: what a malleability policy's
    /// offers and requests reach, through the views it was given.
    pub(super) fn runner_mut(&mut self, id: JobId) -> &mut MRunner {
        let job = self.get_mut(id).expect("views contain only live jobs");
        job.runner
            .as_mut()
            .expect("views contain only malleable jobs")
    }

    /// Marks a job terminal. Fixed mode keeps the job in place (reports
    /// and tests read it); streaming mode frees the slot and clears its
    /// cluster column, so a dead slot is never in the running index.
    pub(super) fn retire(&mut self, id: JobId) {
        debug_assert!(self.live > 0, "retire with no live jobs");
        self.live -= 1;
        if !self.streaming {
            return;
        }
        let slot = self.index.remove(&id.0).expect("retired job was live");
        self.slots[slot as usize] = None;
        self.set_hot(slot as usize, self.phases[slot as usize], None, 0);
        self.free.push(slot);
    }

    /// The cluster a column pair counts as running on, if any.
    fn running_on(phase: JobPhase, cluster: Option<ClusterId>) -> Option<ClusterId> {
        cluster.filter(|_| phase == JobPhase::Running)
    }

    /// What a mandatory shrink could take from `job` now: `size − min`
    /// for a malleable job that can receive requests
    /// ([`Job::eligible_for_malleability`]) and holds its allocation,
    /// 0 for every other job.
    pub(super) fn shrink_room_of(job: &Job) -> u32 {
        match &job.runner {
            Some(r) if job.eligible_for_malleability() && job.alloc.is_some() => {
                r.dynaco.size() - r.dynaco.min()
            }
            _ => 0,
        }
    }

    /// The one writer of the hot columns: stores `(phase, cluster,
    /// room)` at `slot`, moves the room between per-cluster totals (O(1))
    /// and moves the slot between per-cluster running lists when its
    /// "running on" answer changes (a sorted insert/remove, O(jobs
    /// running on that cluster)). Only a running slot has room.
    pub(super) fn set_hot(
        &mut self,
        slot: usize,
        phase: JobPhase,
        cluster: Option<ClusterId>,
        room: u32,
    ) {
        let was = Self::running_on(self.phases[slot], self.clusters[slot]);
        let now = Self::running_on(phase, cluster);
        debug_assert!(room == 0 || now.is_some(), "room on a slot not running");
        if let Some(c) = was {
            self.shrink_room[c.index()] -= self.rooms[slot];
        }
        if let Some(c) = now {
            if self.running.len() <= c.index() {
                self.running.resize_with(c.index() + 1, Vec::new);
                self.shrink_room.resize(c.index() + 1, 0);
            }
            self.shrink_room[c.index()] += room;
        }
        self.phases[slot] = phase;
        self.clusters[slot] = cluster;
        self.rooms[slot] = room;
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
            let list = &mut self.running[c.index()];
            let pos = list
                .binary_search(&s)
                .expect_err("slot indexed as running twice");
            list.insert(pos, s);
        }
    }

    /// Re-mirrors a live job's `phase`, `cluster` and shrink room into
    /// the hot struct-of-arrays columns. Must be called after every site
    /// that writes either field on a slab-resident job, or changes what
    /// [`JobSlab::shrink_room_of`] reads (its runner's protocol state,
    /// size or allocation); [`JobSlab::assert_hot_coherent`] backstops
    /// that contract in debug builds. A no-op for ids that are no longer
    /// live.
    pub(super) fn sync_hot(&mut self, id: JobId) {
        let Some(slot) = self.slot(id) else {
            return;
        };
        if let Some(job) = self.job_at(slot) {
            let (phase, cluster, room) = (job.phase, job.cluster, Self::shrink_room_of(job));
            self.set_hot(slot, phase, cluster, room);
        }
    }

    /// The job occupying `slot`, if any.
    pub(super) fn job_at(&self, slot: usize) -> Option<&Job> {
        self.slots.get(slot).and_then(Option::as_ref)
    }

    /// Slots whose hot columns say "running on `cluster`", ascending —
    /// the candidate set of [`World::running_views_into`], read straight
    /// from the running index.
    pub(super) fn running_slots_on(&self, cluster: ClusterId) -> &[u32] {
        self.running.get(cluster.index()).map_or(&[], Vec::as_slice)
    }

    /// The shrink-room total of the jobs running on `cluster`.
    pub(super) fn shrink_room_on(&self, cluster: ClusterId) -> u32 {
        self.shrink_room.get(cluster.index()).copied().unwrap_or(0)
    }

    /// Debug-build coherence check: every live job's struct fields match
    /// its column entries, the running index equals a scan of the
    /// columns, and each shrink-room total equals a fresh sum of
    /// [`JobSlab::shrink_room_of`] over the jobs running there — the walk
    /// `World::shrinkable_on` made before the totals existed. Called from
    /// the hot scans so the whole
    /// test suite (goldens included) polices missed
    /// [`JobSlab::sync_hot`] call sites.
    #[cfg(debug_assertions)]
    pub(super) fn assert_hot_coherent(&self) {
        for (slot, job) in self.slots.iter().enumerate() {
            if let Some(job) = job {
                debug_assert!(
                    self.phases[slot] == job.phase
                        && self.clusters[slot] == job.cluster
                        && self.rooms[slot] == Self::shrink_room_of(job),
                    "hot columns out of sync at slot {slot}: col=({:?}, {:?}, room {}) \
                     job=({:?}, {:?}, room {})",
                    self.phases[slot],
                    self.clusters[slot],
                    self.rooms[slot],
                    job.phase,
                    job.cluster,
                    Self::shrink_room_of(job),
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
        let walked: Vec<u32> = self
            .running
            .iter()
            .map(|slots| {
                let jobs = slots.iter().filter_map(|&s| self.job_at(s as usize));
                jobs.map(Self::shrink_room_of).sum()
            })
            .collect();
        debug_assert_eq!(
            self.shrink_room, walked,
            "shrink-room totals out of sync with the running jobs"
        );
    }

    /// Live jobs, in slot order.
    pub(super) fn iter_live(&self) -> impl Iterator<Item = &Job> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Jobs created and not yet retired.
    pub(super) fn live(&self) -> usize {
        self.live
    }

    /// High-water mark of concurrently live jobs.
    pub(super) fn peak_live(&self) -> usize {
        self.peak_live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::tests::small;
    use crate::sim::World;
    use appsim::workload::WorkloadSpec;

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
            assert_eq!(slab.phases[reused], JobPhase::Queued);
            assert!(slab.running_slots_on(c).is_empty(), "queued job indexed");
            #[cfg(debug_assertions)]
            slab.assert_hot_coherent();
        }
    }
}
