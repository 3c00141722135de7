//! Property-based tests for the scheduler: policy budgets, placement
//! all-or-nothing semantics, and end-to-end invariants on small random
//! configurations.

use appsim::SizeConstraint;
use koala::malleability::{Fpsma, Malleability, RunningView};
use koala::placement::{ComponentRequest, PlacementRequest};
use koala::policy::PolicyRegistry;
use koala::JobId;
use proptest::prelude::*;
use simcore::SimTime;

fn views_strategy() -> impl Strategy<Value = Vec<RunningView>> {
    prop::collection::vec((0u64..10_000, 2u32..46), 1..20).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (started, size))| RunningView {
                job: JobId(i as u32),
                started: SimTime::from_millis(started),
                size,
                min: 2,
                max: 46,
            })
            .collect()
    })
}

/// Every registered malleability policy — property tests cover the
/// whole registry, so a newly registered policy is automatically held
/// to the same budget/minimum invariants.
fn all_policies() -> Vec<Box<dyn Malleability>> {
    let registry = PolicyRegistry::global();
    registry
        .malleability_names()
        .iter()
        .map(|name| registry.malleability(name).unwrap())
        .collect()
}

proptest! {
    /// No policy ever hands out more than the grow budget, and every
    /// accepted op respects the job's max.
    #[test]
    fn grow_budget_is_never_exceeded(views in views_strategy(), budget in 0u32..200) {
        for policy in all_policies() {
            let mut accept = |id: JobId, offered: u32| {
                let v = views.iter().find(|v| v.job == id).unwrap();
                SizeConstraint::Any.accept_grow(v.size, offered, v.max)
            };
            let out = policy.run_grow(&views, budget, &mut accept);
            let total: u32 = out.ops.iter().map(|o| o.accepted).sum();
            prop_assert!(total <= budget, "{} gave {total} > {budget}", policy.name());
            for op in &out.ops {
                let v = views.iter().find(|v| v.job == op.job).unwrap();
                prop_assert!(v.size + op.accepted <= v.max);
                prop_assert!(op.accepted <= op.offered);
            }
            // No job receives two operations in one initiation.
            let mut seen = std::collections::BTreeSet::new();
            for op in &out.ops {
                prop_assert!(seen.insert(op.job), "duplicate op for {:?}", op.job);
            }
        }
    }

    /// Shrinks never push any job below its minimum.
    #[test]
    fn shrink_respects_minimums(views in views_strategy(), budget in 0u32..200) {
        for policy in all_policies() {
            let mut accept = |id: JobId, requested: u32| {
                let v = views.iter().find(|v| v.job == id).unwrap();
                SizeConstraint::Any.accept_shrink(v.size, requested, v.min)
            };
            let out = policy.run_shrink(&views, budget, &mut accept);
            for op in &out.ops {
                let v = views.iter().find(|v| v.job == op.job).unwrap();
                prop_assert!(v.size - op.released >= v.min);
            }
        }
    }

    /// FPSMA ordering property: the set of jobs grown is always a prefix
    /// of the start-time order (oldest first).
    #[test]
    fn fpsma_grows_a_prefix_of_oldest(views in views_strategy(), budget in 1u32..200) {
        let mut accept = |id: JobId, offered: u32| {
            let v = views.iter().find(|v| v.job == id).unwrap();
            SizeConstraint::Any.accept_grow(v.size, offered, v.max)
        };
        let out = Fpsma.run_grow(&views, budget, &mut accept);
        let mut order = views.clone();
        order.sort_by_key(|v| (v.started, v.job));
        // Jobs that accepted > 0 must appear in order, from the front,
        // skipping only jobs already at max.
        let grown: Vec<JobId> = out.ops.iter().map(|o| o.job).collect();
        let expected_order: Vec<JobId> = order
            .iter()
            .filter(|v| grown.contains(&v.job))
            .map(|v| v.job)
            .collect();
        prop_assert_eq!(grown, expected_order, "FPSMA must grow oldest-first");
    }

    /// Placement is all-or-nothing: a failed placement leaves the
    /// availability vector untouched; a successful one deducts exactly
    /// the granted sizes.
    #[test]
    fn placement_is_all_or_nothing(
        avail in prop::collection::vec(0u32..60, 2..6),
        comp_sizes in prop::collection::vec(1u32..40, 1..5),
        policy_idx in 0usize..5,
    ) {
        // The whole placement registry, new policies included.
        let registry = PolicyRegistry::global();
        let names = registry.placement_names();
        let policy = registry.placement(&names[policy_idx % names.len()]).unwrap();
        let req = PlacementRequest {
            components: comp_sizes
                .iter()
                .map(|&s| ComponentRequest::fixed(s, SizeConstraint::Any))
                .collect(),
            files: Vec::new(),
            flexible: policy.name() == "flexible_cluster_min",
        };
        let before = avail.clone();
        let mut after = avail.clone();
        match policy.place(&req, &mut after, None) {
            Some(placement) => {
                let granted: u32 = placement.iter().map(|cp| cp.size).sum();
                let deducted: u32 = before.iter().sum::<u32>() - after.iter().sum::<u32>();
                prop_assert_eq!(granted, deducted);
                for cp in &placement {
                    prop_assert!(cp.size >= 1);
                }
                // Per-cluster deductions never exceed what was available.
                for (b, a) in before.iter().zip(&after) {
                    prop_assert!(a <= b);
                }
            }
            None => prop_assert_eq!(before, after, "failed placement must not deduct"),
        }
    }
}

mod end_to_end {
    use appsim::workload::WorkloadSpec;
    use koala::config::ExperimentConfig;
    use koala::{Run, RunReport};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// Small random experiments always complete every job, never use
        /// more processors than the platform has, and keep execution
        /// times within the physically possible band.
        #[test]
        fn random_small_experiments_are_sane(
            seed in any::<u64>(),
            jobs in 5usize..25,
            egs in any::<bool>(),
            pwa in any::<bool>(),
            mix in any::<bool>(),
        ) {
            let policy = if egs { "egs" } else { "fpsma" };
            let workload = if mix { WorkloadSpec::wmr_prime() } else { WorkloadSpec::wm_prime() };
            let mut cfg = if pwa {
                ExperimentConfig::paper_pwa(policy, workload)
            } else {
                ExperimentConfig::paper_pra(policy, workload)
            };
            cfg.workload.jobs = jobs;
            cfg.seed = seed;
            let r: RunReport = koala::run(&Run::cell(&cfg)).unwrap().remove(0);
            prop_assert_eq!(r.jobs.len(), jobs);
            prop_assert!((r.jobs.completion_ratio() - 1.0).abs() < 1e-12, "unfinished jobs");
            // Utilization can never exceed the 272 DAS-3 processors.
            let peak = r
                .utilization
                .max_in(simcore::SimTime::ZERO, r.summary.makespan)
                .unwrap_or(0.0);
            prop_assert!(peak <= 272.0 + 1e-9, "peak {peak}");
            if !pwa {
                prop_assert_eq!(r.shrink_ops.total(), 0, "PRA must never shrink");
            }
            // Execution times: never faster than the best possible size,
            // never slower than min size plus all reconfiguration pauses.
            for rec in r.jobs.records() {
                let exec = rec.execution_time().unwrap();
                let (best, worst) = if rec.app == "FT" { (59.0, 121.0) } else { (239.0, 601.0) };
                let pauses = (rec.grows as f64) * 11.0 + (rec.shrinks as f64) * 6.0;
                prop_assert!(exec >= best, "{} exec {exec} below physical floor", rec.app);
                prop_assert!(
                    exec <= worst + pauses + 1.0,
                    "{} exec {exec} above T(min)+pauses ({})",
                    rec.app,
                    worst + pauses
                );
            }
        }
    }
}
