//! Malleability-management policies (Section V-C of the paper).
//!
//! A policy decides *which* running malleable jobs grow or shrink and by
//! how much, given a grow/shrink value for one cluster ("the policies are
//! applied for each cluster separately"). The protocol matches the
//! paper's pseudo-code (Figs. 4 and 5): the policy sends a request to a
//! job, the job answers with the number of processors it *accepts*
//! (applying its own size constraint — the scheduler never reasons about
//! constraints), and the policy updates its remaining budget.
//!
//! Each policy is a named implementor of the open [`Malleability`] trait
//! (see [`crate::policy`]):
//!
//! * [`Fpsma`] (`"fpsma"`) — *Favour Previously Started Malleable
//!   Applications*: grow oldest-first, shrink youngest-first, offering
//!   the whole remaining value to each job in turn.
//! * [`Egs`] (`"egs"`) — *Equi-Grow & Shrink*: split the value equally
//!   over all running malleable jobs; the remainder goes to the least
//!   recently started jobs as a bonus (grow) or is reclaimed from the
//!   most recently started as a malus (shrink). Unlike classic
//!   equipartition, EGS distributes the *delta*, not the whole processor
//!   set, and never mixes grows with shrinks in one operation.
//! * [`Equipartition`] (`"equipartition"`) — the classic baseline (AMPI;
//!   McCann & Zahorjan): drive all jobs toward an equal share of the
//!   processors available to malleable work.
//! * [`Folding`] (`"folding"`) — the folding baseline (Utrera et al.;
//!   McCann & Zahorjan): double/halve job sizes.
//! * [`GreedyGrowLazyShrink`] (`"greedy_grow_lazy_shrink"`) — not in the
//!   paper: grow the *largest* job first (greedy concentration), shrink
//!   by spreading the reclaim as thinly as possible over the jobs with
//!   the most slack (lazy disruption). A variant the closed policy enum
//!   could not express.
//!
//! The accept callback is how the simulation wires these policies to each
//! job's DYNACO instance; unit tests here use plain closures.

use std::borrow::Cow;

use simcore::SimTime;

use crate::ids::JobId;

pub use crate::policy::Malleability;

/// Scheduler-side view of one running malleable job on a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunningView {
    /// The job.
    pub job: JobId,
    /// When it started executing (the sort key of FPSMA and of the
    /// EGS bonus/malus assignment).
    pub started: SimTime,
    /// Current allocation size.
    pub size: u32,
    /// Its minimum size (never shrunk below).
    pub min: u32,
    /// Its maximum size (never grown above).
    pub max: u32,
}

/// One executed grow operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrowOp {
    /// The job that grew.
    pub job: JobId,
    /// Processors offered to it.
    pub offered: u32,
    /// Processors it accepted (> 0 by construction).
    pub accepted: u32,
}

/// One executed shrink operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShrinkOp {
    /// The job that shrank.
    pub job: JobId,
    /// Processors requested back from it.
    pub requested: u32,
    /// Processors it will release (> 0; may exceed `requested` when the
    /// job's size constraint forces a lower feasible size).
    pub released: u32,
}

/// Outcome of one policy initiation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyOutcome<Op> {
    /// Operations with a non-zero accepted amount, in protocol order.
    pub ops: Vec<Op>,
    /// Requests sent, including declined ones (manager activity metric).
    pub messages: u32,
}

impl<Op> Default for PolicyOutcome<Op> {
    fn default() -> Self {
        PolicyOutcome {
            ops: Vec::new(),
            messages: 0,
        }
    }
}

/// Views sorted oldest-first by `(started, job)` (the grow order of
/// FPSMA and the EGS bonus order); walked backwards, youngest-first (the
/// shrink order of FPSMA and the EGS malus order). The scheduler hands
/// policies their views already in this order, which is then borrowed;
/// any other input is copied and sorted.
fn oldest_first(jobs: &[RunningView]) -> Cow<'_, [RunningView]> {
    let key = |v: &RunningView| (v.started, v.job);
    if jobs.is_sorted_by_key(key) {
        Cow::Borrowed(jobs)
    } else {
        let mut order = jobs.to_vec();
        order.sort_by_key(key);
        Cow::Owned(order)
    }
}

/// Offers the whole remaining budget to each view in `order` until it is
/// spent — the shared engine of FPSMA's grow/shrink and the greedy grow.
fn drain_budget_grow(
    order: &[RunningView],
    budget: u32,
    accept: &mut dyn FnMut(JobId, u32) -> u32,
) -> PolicyOutcome<GrowOp> {
    let mut out = PolicyOutcome::default();
    let mut remaining = budget;
    for v in order {
        out.messages += 1;
        let accepted = accept(v.job, remaining).min(remaining);
        if accepted > 0 {
            out.ops.push(GrowOp {
                job: v.job,
                offered: remaining,
                accepted,
            });
            remaining -= accepted;
        }
        if remaining == 0 {
            break;
        }
    }
    out
}

/// Favour Previously Started Malleable Applications (`"fpsma"`, label
/// `FPSMA`): grow oldest-first, shrink youngest-first, offering the whole
/// remaining value to each job in turn (Fig. 4 of the paper).
///
/// ```
/// use koala::malleability::{Fpsma, Egs, Malleability, RunningView};
/// use koala::JobId;
/// use simcore::SimTime;
/// let jobs = [
///     RunningView { job: JobId(0), started: SimTime::from_secs(10), size: 2, min: 2, max: 46 },
///     RunningView { job: JobId(1), started: SimTime::from_secs(90), size: 2, min: 2, max: 46 },
/// ];
/// // FPSMA offers the whole grow value to the oldest job first…
/// let out = Fpsma.run_grow(&jobs, 10, &mut |_, offered| offered);
/// assert_eq!(out.ops[0].job, JobId(0));
/// assert_eq!(out.ops[0].accepted, 10);
/// // …while EGS splits it equally.
/// let out = Egs.run_grow(&jobs, 10, &mut |_, offered| offered);
/// assert!(out.ops.iter().all(|op| op.accepted == 5));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fpsma;

impl Malleability for Fpsma {
    fn name(&self) -> &'static str {
        "fpsma"
    }
    fn label(&self) -> &'static str {
        "FPSMA"
    }

    fn run_grow(
        &self,
        jobs: &[RunningView],
        grow_value: u32,
        accept: &mut dyn FnMut(JobId, u32) -> u32,
    ) -> PolicyOutcome<GrowOp> {
        if grow_value == 0 || jobs.is_empty() {
            return PolicyOutcome::default();
        }
        // Fig. 4: oldest job first; each is offered the whole remaining
        // grow value.
        drain_budget_grow(&oldest_first(jobs), grow_value, accept)
    }

    fn run_shrink(
        &self,
        jobs: &[RunningView],
        shrink_value: u32,
        accept: &mut dyn FnMut(JobId, u32) -> u32,
    ) -> PolicyOutcome<ShrinkOp> {
        let mut out = PolicyOutcome::default();
        if shrink_value == 0 || jobs.is_empty() {
            return out;
        }
        // Fig. 4: youngest job first; each is asked for the whole
        // remaining shrink value.
        let mut remaining = shrink_value;
        for v in oldest_first(jobs).iter().rev() {
            out.messages += 1;
            let released = accept(v.job, remaining);
            if released > 0 {
                out.ops.push(ShrinkOp {
                    job: v.job,
                    requested: remaining,
                    released,
                });
                remaining = remaining.saturating_sub(released);
            }
            if remaining == 0 {
                break;
            }
        }
        out
    }
}

/// Equi-Grow & Shrink (`"egs"`, label `EGS`): split the value equally
/// over all running malleable jobs, remainder to the least recently
/// started (grow bonus) or reclaimed from the most recently started
/// (shrink malus) — Fig. 5 of the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Egs;

impl Malleability for Egs {
    fn name(&self) -> &'static str {
        "egs"
    }
    fn label(&self) -> &'static str {
        "EGS"
    }

    fn run_grow(
        &self,
        jobs: &[RunningView],
        grow_value: u32,
        accept: &mut dyn FnMut(JobId, u32) -> u32,
    ) -> PolicyOutcome<GrowOp> {
        let mut out = PolicyOutcome::default();
        if grow_value == 0 || jobs.is_empty() {
            return out;
        }
        // Fig. 5: equal share, remainder as a bonus to the least
        // recently started jobs.
        let order = oldest_first(jobs);
        let n = order.len() as u32;
        let share = grow_value / n;
        let rem = grow_value % n;
        for (i, v) in order.iter().enumerate() {
            let bonus = u32::from((i as u32) < rem);
            let offered = share + bonus;
            if offered == 0 {
                continue;
            }
            out.messages += 1;
            let accepted = accept(v.job, offered).min(offered);
            if accepted > 0 {
                out.ops.push(GrowOp {
                    job: v.job,
                    offered,
                    accepted,
                });
            }
        }
        out
    }

    fn run_shrink(
        &self,
        jobs: &[RunningView],
        shrink_value: u32,
        accept: &mut dyn FnMut(JobId, u32) -> u32,
    ) -> PolicyOutcome<ShrinkOp> {
        let mut out = PolicyOutcome::default();
        if shrink_value == 0 || jobs.is_empty() {
            return out;
        }
        // Fig. 5 with the malus assigned to the most recently started
        // jobs, as the prose specifies. (The paper's pseudo-code tests
        // `i ≥ growRemainder` over the descending list, which would
        // spare the youngest jobs — we follow the stated intent
        // instead.)
        let order = oldest_first(jobs);
        let n = order.len() as u32;
        let share = shrink_value / n;
        let rem = shrink_value % n;
        for (i, v) in order.iter().rev().enumerate() {
            let malus = u32::from((i as u32) < rem);
            let requested = share + malus;
            if requested == 0 {
                continue;
            }
            out.messages += 1;
            let released = accept(v.job, requested);
            if released > 0 {
                out.ops.push(ShrinkOp {
                    job: v.job,
                    requested,
                    released,
                });
            }
        }
        out
    }
}

/// Classic equipartition baseline (`"equipartition"`, label `EQUI`):
/// drive all jobs toward an equal share of the processors available to
/// malleable work (AMPI; McCann & Zahorjan).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Equipartition;

impl Malleability for Equipartition {
    fn name(&self) -> &'static str {
        "equipartition"
    }
    fn label(&self) -> &'static str {
        "EQUI"
    }

    fn run_grow(
        &self,
        jobs: &[RunningView],
        grow_value: u32,
        accept: &mut dyn FnMut(JobId, u32) -> u32,
    ) -> PolicyOutcome<GrowOp> {
        let mut out = PolicyOutcome::default();
        if grow_value == 0 || jobs.is_empty() {
            return out;
        }
        // Drive sizes toward an equal share of (current malleable
        // holdings + the new processors).
        let order = oldest_first(jobs);
        let n = order.len() as u32;
        let pool: u32 = order.iter().map(|v| v.size).sum::<u32>() + grow_value;
        let share = pool / n;
        let rem = pool % n;
        let mut remaining = grow_value;
        for (i, v) in order.iter().enumerate() {
            let target = share + u32::from((i as u32) < rem);
            if target <= v.size || remaining == 0 {
                continue;
            }
            let offered = (target - v.size).min(remaining);
            out.messages += 1;
            let accepted = accept(v.job, offered).min(offered);
            if accepted > 0 {
                out.ops.push(GrowOp {
                    job: v.job,
                    offered,
                    accepted,
                });
                remaining -= accepted;
            }
        }
        out
    }

    fn run_shrink(
        &self,
        jobs: &[RunningView],
        shrink_value: u32,
        accept: &mut dyn FnMut(JobId, u32) -> u32,
    ) -> PolicyOutcome<ShrinkOp> {
        let mut out = PolicyOutcome::default();
        if shrink_value == 0 || jobs.is_empty() {
            return out;
        }
        // Drive sizes toward an equal share of (current holdings − the
        // processors being reclaimed).
        let order = oldest_first(jobs);
        let n = order.len() as u32;
        let pool: u32 = order.iter().map(|v| v.size).sum::<u32>();
        let pool = pool.saturating_sub(shrink_value);
        let share = pool / n;
        let mut remaining = shrink_value;
        for v in order.iter().rev() {
            if remaining == 0 {
                break;
            }
            if v.size <= share {
                continue;
            }
            let requested = (v.size - share).min(remaining);
            out.messages += 1;
            let released = accept(v.job, requested);
            if released > 0 {
                out.ops.push(ShrinkOp {
                    job: v.job,
                    requested,
                    released,
                });
                remaining = remaining.saturating_sub(released);
            }
        }
        out
    }
}

/// Folding baseline (`"folding"`, label `FOLD`): double job sizes
/// oldest-first on grow, halve youngest-first on shrink (Utrera et al.;
/// McCann & Zahorjan).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Folding;

impl Malleability for Folding {
    fn name(&self) -> &'static str {
        "folding"
    }
    fn label(&self) -> &'static str {
        "FOLD"
    }

    fn run_grow(
        &self,
        jobs: &[RunningView],
        grow_value: u32,
        accept: &mut dyn FnMut(JobId, u32) -> u32,
    ) -> PolicyOutcome<GrowOp> {
        let mut out = PolicyOutcome::default();
        if grow_value == 0 || jobs.is_empty() {
            return out;
        }
        // Unfold (double) jobs oldest-first while the budget lasts.
        let mut remaining = grow_value;
        for v in oldest_first(jobs).iter() {
            if remaining == 0 {
                break;
            }
            let double = v.size.min(v.max.saturating_sub(v.size));
            let offered = double.min(remaining);
            if offered == 0 {
                continue;
            }
            out.messages += 1;
            let accepted = accept(v.job, offered).min(offered);
            if accepted > 0 {
                out.ops.push(GrowOp {
                    job: v.job,
                    offered,
                    accepted,
                });
                remaining -= accepted;
            }
        }
        out
    }

    fn run_shrink(
        &self,
        jobs: &[RunningView],
        shrink_value: u32,
        accept: &mut dyn FnMut(JobId, u32) -> u32,
    ) -> PolicyOutcome<ShrinkOp> {
        let mut out = PolicyOutcome::default();
        if shrink_value == 0 || jobs.is_empty() {
            return out;
        }
        // Fold (halve) jobs youngest-first until satisfied.
        let mut remaining = shrink_value;
        for v in oldest_first(jobs).iter().rev() {
            if remaining == 0 {
                break;
            }
            let half = v.size / 2;
            let requested = half.min(v.size.saturating_sub(v.min));
            if requested == 0 {
                continue;
            }
            out.messages += 1;
            let released = accept(v.job, requested);
            if released > 0 {
                out.ops.push(ShrinkOp {
                    job: v.job,
                    requested,
                    released,
                });
                remaining = remaining.saturating_sub(released);
            }
        }
        out
    }
}

/// Greedy-grow / lazy-shrink (`"greedy_grow_lazy_shrink"`, label `GGLS`)
/// — a policy outside the paper's pair, expressible only through the
/// open [`Malleability`] trait:
///
/// * **grow**: offer the whole remaining value to the *largest* running
///   job first (ties to the older job). Concentrating processors in the
///   jobs already holding the most exploits super-linear regions of
///   their speedup curves instead of spreading thin.
/// * **shrink**: reclaim as thinly as possible — jobs ordered by
///   descending slack (`size − min`), each asked for an equal share of
///   what remains, so no single application suffers a deep
///   reconfiguration when many can give a little.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GreedyGrowLazyShrink;

impl Malleability for GreedyGrowLazyShrink {
    fn name(&self) -> &'static str {
        "greedy_grow_lazy_shrink"
    }
    fn label(&self) -> &'static str {
        "GGLS"
    }

    fn run_grow(
        &self,
        jobs: &[RunningView],
        grow_value: u32,
        accept: &mut dyn FnMut(JobId, u32) -> u32,
    ) -> PolicyOutcome<GrowOp> {
        if grow_value == 0 || jobs.is_empty() {
            return PolicyOutcome::default();
        }
        // Largest job first; ties to the older job, then the lower id —
        // fully deterministic.
        let mut order = jobs.to_vec();
        order.sort_by_key(|v| (std::cmp::Reverse(v.size), v.started, v.job));
        drain_budget_grow(&order, grow_value, accept)
    }

    fn run_shrink(
        &self,
        jobs: &[RunningView],
        shrink_value: u32,
        accept: &mut dyn FnMut(JobId, u32) -> u32,
    ) -> PolicyOutcome<ShrinkOp> {
        let mut out = PolicyOutcome::default();
        if shrink_value == 0 || jobs.is_empty() {
            return out;
        }
        // Jobs with the most slack first; each round asks every
        // remaining candidate only for an equal share of what is still
        // owed, so the reclaim is spread as thinly as the minima allow.
        // Rounds repeat (jobs whose first concession was small are asked
        // again) until the value is delivered or nobody gives any more —
        // lazy per request, but still honouring the mandatory total.
        let mut order = jobs.to_vec();
        order.sort_by_key(|v| {
            (
                std::cmp::Reverse(v.size.saturating_sub(v.min)),
                v.started,
                v.job,
            )
        });
        // Scheduler-side slack estimate per job; a decline zeroes it so
        // the rounds always terminate.
        let mut slack: Vec<u32> = order.iter().map(|v| v.size.saturating_sub(v.min)).collect();
        let mut remaining = shrink_value;
        let mut progress = true;
        while remaining > 0 && progress {
            progress = false;
            let candidates = slack.iter().filter(|&&s| s > 0).count() as u32;
            if candidates == 0 {
                break;
            }
            let fair = remaining.div_ceil(candidates);
            for (i, v) in order.iter().enumerate() {
                if remaining == 0 {
                    break;
                }
                let requested = fair.min(slack[i]).min(remaining);
                if requested == 0 {
                    continue;
                }
                out.messages += 1;
                let released = accept(v.job, requested);
                if released > 0 {
                    out.ops.push(ShrinkOp {
                        job: v.job,
                        requested,
                        released,
                    });
                    slack[i] = slack[i].saturating_sub(released);
                    remaining = remaining.saturating_sub(released);
                    progress = true;
                } else {
                    slack[i] = 0;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use appsim::SizeConstraint;

    fn view(id: u32, started_s: u64, size: u32, min: u32, max: u32) -> RunningView {
        RunningView {
            job: JobId(id),
            started: SimTime::from_secs(started_s),
            size,
            min,
            max,
        }
    }

    fn all_policies() -> Vec<Box<dyn Malleability>> {
        vec![
            Box::new(Fpsma),
            Box::new(Egs),
            Box::new(Equipartition),
            Box::new(Folding),
            Box::new(GreedyGrowLazyShrink),
        ]
    }

    /// An accept callback for jobs with the Any constraint: accept up to
    /// max (grow) and release down to min (shrink).
    fn greedy_accept(jobs: &[RunningView]) -> impl FnMut(JobId, u32) -> u32 + '_ {
        move |id, offered| {
            let v = jobs.iter().find(|v| v.job == id).unwrap();
            SizeConstraint::Any.accept_grow(v.size, offered, v.max)
        }
    }

    fn greedy_release(jobs: &[RunningView]) -> impl FnMut(JobId, u32) -> u32 + '_ {
        move |id, requested| {
            let v = jobs.iter().find(|v| v.job == id).unwrap();
            SizeConstraint::Any.accept_shrink(v.size, requested, v.min)
        }
    }

    #[test]
    fn fpsma_grows_oldest_first() {
        let jobs = [
            view(1, 100, 2, 2, 46),
            view(2, 50, 2, 2, 46),
            view(3, 200, 2, 2, 46),
        ];
        let out = Fpsma.run_grow(&jobs, 10, &mut greedy_accept(&jobs));
        // Job 2 (started at 50 s) gets the whole offer first and accepts
        // all 10 (max 46).
        assert_eq!(
            out.ops,
            vec![GrowOp {
                job: JobId(2),
                offered: 10,
                accepted: 10
            }]
        );
        assert_eq!(out.messages, 1);
    }

    #[test]
    fn fpsma_spills_to_next_oldest_when_capped() {
        let jobs = [view(1, 50, 40, 2, 46), view(2, 100, 2, 2, 46)];
        let out = Fpsma.run_grow(&jobs, 10, &mut greedy_accept(&jobs));
        assert_eq!(
            out.ops,
            vec![
                GrowOp {
                    job: JobId(1),
                    offered: 10,
                    accepted: 6
                },
                GrowOp {
                    job: JobId(2),
                    offered: 4,
                    accepted: 4
                },
            ]
        );
        assert_eq!(out.messages, 2);
    }

    #[test]
    fn fpsma_shrinks_youngest_first() {
        let jobs = [view(1, 50, 20, 2, 46), view(2, 100, 20, 2, 46)];
        let out = Fpsma.run_shrink(&jobs, 10, &mut greedy_release(&jobs));
        assert_eq!(
            out.ops,
            vec![ShrinkOp {
                job: JobId(2),
                requested: 10,
                released: 10
            }]
        );
    }

    #[test]
    fn fpsma_shrink_cascades_across_jobs() {
        let jobs = [view(1, 50, 20, 2, 46), view(2, 100, 6, 2, 46)];
        let out = Fpsma.run_shrink(&jobs, 10, &mut greedy_release(&jobs));
        // Youngest (job 2) can only give 4 (min 2); the rest comes from
        // job 1.
        assert_eq!(
            out.ops,
            vec![
                ShrinkOp {
                    job: JobId(2),
                    requested: 10,
                    released: 4
                },
                ShrinkOp {
                    job: JobId(1),
                    requested: 6,
                    released: 6
                },
            ]
        );
    }

    #[test]
    fn egs_splits_equally_with_bonus_to_oldest() {
        let jobs = [
            view(1, 100, 2, 2, 46),
            view(2, 50, 2, 2, 46),
            view(3, 200, 2, 2, 46),
        ];
        let out = Egs.run_grow(&jobs, 11, &mut greedy_accept(&jobs));
        // share 3, remainder 2 → oldest two (jobs 2 and 1) get 4.
        let by_job: std::collections::BTreeMap<_, _> =
            out.ops.iter().map(|o| (o.job, o.accepted)).collect();
        assert_eq!(by_job[&JobId(2)], 4);
        assert_eq!(by_job[&JobId(1)], 4);
        assert_eq!(by_job[&JobId(3)], 3);
        assert_eq!(out.messages, 3, "EGS messages every job");
    }

    #[test]
    fn egs_grow_value_smaller_than_job_count() {
        let jobs = [
            view(1, 1, 2, 2, 46),
            view(2, 2, 2, 2, 46),
            view(3, 3, 2, 2, 46),
        ];
        let out = Egs.run_grow(&jobs, 2, &mut greedy_accept(&jobs));
        // share 0, remainder 2: only the two oldest get an offer.
        assert_eq!(out.ops.len(), 2);
        assert_eq!(out.messages, 2);
        assert!(out.ops.iter().all(|o| o.accepted == 1));
        assert_eq!(
            out.ops.iter().map(|o| o.job).collect::<Vec<_>>(),
            vec![JobId(1), JobId(2)]
        );
    }

    #[test]
    fn egs_shrink_malus_hits_youngest() {
        let jobs = [
            view(1, 100, 10, 2, 46),
            view(2, 50, 10, 2, 46),
            view(3, 200, 10, 2, 46),
        ];
        let out = Egs.run_shrink(&jobs, 7, &mut greedy_release(&jobs));
        // share 2, remainder 1 → youngest (job 3) releases 3.
        let by_job: std::collections::BTreeMap<_, _> =
            out.ops.iter().map(|o| (o.job, o.released)).collect();
        assert_eq!(by_job[&JobId(3)], 3);
        assert_eq!(by_job[&JobId(1)], 2);
        assert_eq!(by_job[&JobId(2)], 2);
        let total: u32 = out.ops.iter().map(|o| o.released).sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn egs_never_mixes_grow_and_shrink() {
        // By construction: run_grow only sends grow offers, run_shrink
        // only shrink requests. This test documents the EGS-vs-
        // equipartition distinction from the paper.
        let jobs = [view(1, 1, 10, 2, 46), view(2, 2, 2, 2, 46)];
        let grow = Egs.run_grow(&jobs, 4, &mut greedy_accept(&jobs));
        assert!(grow.ops.iter().all(|o| o.accepted > 0));
        let shrink = Egs.run_shrink(&jobs, 4, &mut greedy_release(&jobs));
        assert!(shrink.ops.iter().all(|o| o.released > 0));
    }

    #[test]
    fn grow_never_exceeds_budget() {
        for policy in all_policies() {
            let jobs = [
                view(1, 1, 2, 2, 46),
                view(2, 2, 4, 2, 46),
                view(3, 3, 8, 2, 46),
            ];
            for budget in [0u32, 1, 3, 7, 20, 100] {
                let out = policy.run_grow(&jobs, budget, &mut greedy_accept(&jobs));
                let total: u32 = out.ops.iter().map(|o| o.accepted).sum();
                assert!(
                    total <= budget,
                    "{} budget {budget} handed out {total}",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn ft_style_acceptance_limits_fpsma() {
        // A power-of-two job at 8 offered 7 accepts nothing; FPSMA moves
        // on to the next job.
        let jobs = [view(1, 1, 8, 2, 32), view(2, 2, 2, 2, 46)];
        let mut accept = |id: JobId, offered: u32| {
            let v = jobs.iter().find(|v| v.job == id).unwrap();
            let c = if id == JobId(1) {
                SizeConstraint::PowerOfTwo
            } else {
                SizeConstraint::Any
            };
            c.accept_grow(v.size, offered, v.max)
        };
        let out = Fpsma.run_grow(&jobs, 7, &mut accept);
        assert_eq!(out.messages, 2);
        assert_eq!(
            out.ops,
            vec![GrowOp {
                job: JobId(2),
                offered: 7,
                accepted: 7
            }]
        );
    }

    #[test]
    fn equipartition_tops_up_small_jobs_first() {
        let jobs = [view(1, 1, 20, 2, 46), view(2, 2, 2, 2, 46)];
        let out = Equipartition.run_grow(&jobs, 8, &mut greedy_accept(&jobs));
        // Pool = 30, share 15: job 2 should be offered up to 13 but the
        // budget is 8.
        assert_eq!(
            out.ops,
            vec![GrowOp {
                job: JobId(2),
                offered: 8,
                accepted: 8
            }]
        );
    }

    #[test]
    fn folding_doubles_oldest() {
        let jobs = [view(1, 1, 8, 2, 46), view(2, 2, 4, 2, 46)];
        let out = Folding.run_grow(&jobs, 20, &mut greedy_accept(&jobs));
        assert_eq!(
            out.ops[0],
            GrowOp {
                job: JobId(1),
                offered: 8,
                accepted: 8
            }
        );
        assert_eq!(
            out.ops[1],
            GrowOp {
                job: JobId(2),
                offered: 4,
                accepted: 4
            }
        );
    }

    #[test]
    fn folding_halves_youngest() {
        let jobs = [view(1, 1, 8, 2, 46), view(2, 2, 8, 2, 46)];
        let out = Folding.run_shrink(&jobs, 4, &mut greedy_release(&jobs));
        assert_eq!(
            out.ops,
            vec![ShrinkOp {
                job: JobId(2),
                requested: 4,
                released: 4
            }]
        );
    }

    #[test]
    fn greedy_grow_favours_the_largest_job() {
        let jobs = [
            view(1, 1, 4, 2, 46),
            view(2, 2, 12, 2, 46),
            view(3, 3, 8, 2, 46),
        ];
        let out = GreedyGrowLazyShrink.run_grow(&jobs, 10, &mut greedy_accept(&jobs));
        // Job 2 (size 12) takes the whole budget.
        assert_eq!(
            out.ops,
            vec![GrowOp {
                job: JobId(2),
                offered: 10,
                accepted: 10
            }]
        );
        assert_eq!(out.messages, 1);
    }

    #[test]
    fn greedy_grow_spills_when_the_largest_caps_out() {
        let jobs = [view(1, 1, 40, 2, 46), view(2, 2, 10, 2, 46)];
        let out = GreedyGrowLazyShrink.run_grow(&jobs, 12, &mut greedy_accept(&jobs));
        assert_eq!(
            out.ops,
            vec![
                GrowOp {
                    job: JobId(1),
                    offered: 12,
                    accepted: 6
                },
                GrowOp {
                    job: JobId(2),
                    offered: 6,
                    accepted: 6
                },
            ]
        );
    }

    #[test]
    fn lazy_shrink_spreads_the_reclaim_thin() {
        let jobs = [
            view(1, 1, 10, 2, 46),
            view(2, 2, 10, 2, 46),
            view(3, 3, 10, 2, 46),
        ];
        let out = GreedyGrowLazyShrink.run_shrink(&jobs, 6, &mut greedy_release(&jobs));
        // 6 over 3 jobs: 2 each — no job shoulders the whole reclaim.
        assert_eq!(out.ops.len(), 3);
        assert!(out.ops.iter().all(|o| o.released == 2), "{:?}", out.ops);
        let total: u32 = out.ops.iter().map(|o| o.released).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn lazy_shrink_respects_minima_and_still_delivers() {
        // Job 1 has no slack; jobs 2 and 3 must cover the reclaim.
        let jobs = [
            view(1, 1, 2, 2, 46),
            view(2, 2, 12, 2, 46),
            view(3, 3, 8, 2, 46),
        ];
        let out = GreedyGrowLazyShrink.run_shrink(&jobs, 9, &mut greedy_release(&jobs));
        let total: u32 = out.ops.iter().map(|o| o.released).sum();
        assert_eq!(total, 9);
        assert!(
            out.ops.iter().all(|o| o.job != JobId(1)),
            "no slack, no ask"
        );
    }

    #[test]
    fn empty_inputs_do_nothing() {
        for policy in all_policies() {
            let out = policy.run_grow(&[], 10, &mut |_, _| 0);
            assert!(out.ops.is_empty() && out.messages == 0);
            let jobs = [view(1, 1, 4, 2, 8)];
            let out = policy.run_grow(&jobs, 0, &mut |_, _| 0);
            assert!(out.ops.is_empty());
            let out = policy.run_shrink(&jobs, 0, &mut |_, _| 0);
            assert!(out.ops.is_empty());
        }
    }

    #[test]
    fn labels_and_names() {
        assert_eq!(Fpsma.label(), "FPSMA");
        assert_eq!(Fpsma.name(), "fpsma");
        assert_eq!(Egs.label(), "EGS");
        assert_eq!(GreedyGrowLazyShrink.name(), "greedy_grow_lazy_shrink");
        assert_eq!(GreedyGrowLazyShrink.label(), "GGLS");
    }
}
