//! Property test for the control-plane fault layer: under **any**
//! randomly drawn fault schedule (loss, duplication, jitter, flaky
//! episodes, node crashes) and **any** registered placement ×
//! malleability policy pair, the simulation still reaches a terminal
//! state where
//!
//! * every submitted job completed, failed or was killed (nothing stuck
//!   in the queue or half-placed), and
//! * no allocation is leaked — KOALA holds zero processors after the
//!   last job terminates, even when release messages were lost and had
//!   to be reclaimed by the orphaned-allocation sweep.

use appsim::workload::WorkloadSpec;
use koala::config::RetryConfig;
use koala::policy::PolicyRegistry;
use koala::report::SummaryReport;
use koala::scenario::Scenario;
use multicluster::{
    ClassLoss, ControlPlaneFaultSpec, FailurePolicy, FailureSpec, FlakyChannelSpec,
};
use proptest::prelude::*;
use simcore::SimDuration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn jobs_are_conserved_under_arbitrary_fault_schedules(
        seed in any::<u64>(),
        placement_ix in any::<u64>(),
        malleability_ix in any::<u64>(),
        loss_pm in 0u32..300,          // 0 ‰ .. 30 % per-class loss
        duplicate_pm in 0u32..200,     // up to 20 % duplication
        jitter_ms in 0u64..2_000,
        flaky in any::<bool>(),
        flaky_loss_pm in 300u32..800,  // 30 % .. 80 % inside an episode
        crashes in any::<bool>(),
        kill in any::<bool>(),
        timeout_s in 5u64..30,
        max_attempts in 1u32..5,
        jobs in 8usize..20,
    ) {
        let registry = PolicyRegistry::global();
        let placements = registry.placement_names();
        let malleabilities = registry.malleability_names();
        let placement = &placements[(placement_ix % placements.len() as u64) as usize];
        let malleability = &malleabilities[(malleability_ix % malleabilities.len() as u64) as usize];

        let spec = ControlPlaneFaultSpec {
            loss: ClassLoss::uniform(f64::from(loss_pm) / 1000.0),
            duplicate: f64::from(duplicate_pm) / 1000.0,
            max_jitter: SimDuration::from_millis(jitter_ms),
            flaky: flaky.then(|| FlakyChannelSpec {
                mean_gap: SimDuration::from_secs(900),
                mean_duration: SimDuration::from_secs(240),
                loss: f64::from(flaky_loss_pm) / 1000.0,
            }),
        };
        let retry = RetryConfig {
            timeout: SimDuration::from_secs(timeout_s),
            max_timeout: SimDuration::from_secs(timeout_s * 4),
            max_attempts,
            orphan_sweep_period: SimDuration::from_secs(30),
            orphan_grace: SimDuration::from_secs(timeout_s * 5),
        };

        let mut builder = Scenario::builder()
            .placement(placement.as_str())
            .malleability(malleability.as_str())
            .workload(WorkloadSpec::wm())
            .jobs(jobs)
            .ctrl_faults(spec)
            .retry(retry)
            .summarized()
            .seeds([seed]);
        if crashes {
            builder = builder
                .failures(FailureSpec::new(
                    SimDuration::from_secs(1200),
                    SimDuration::from_secs(400),
                    10,
                ))
                .failure_policy(if kill {
                    FailurePolicy::Kill
                } else {
                    FailurePolicy::Requeue
                });
        }
        let multi = builder.build().unwrap().run::<SummaryReport>();

        for run in &multi.runs {
            prop_assert_eq!(
                run.jobs_submitted,
                run.jobs_completed + run.jobs_failed + run.jobs_killed,
                "conservation violated: placement={} malleability={} seed={} \
                 submitted={} completed={} failed={} killed={}",
                placement,
                malleability,
                run.seed,
                run.jobs_submitted,
                run.jobs_completed,
                run.jobs_failed,
                run.jobs_killed
            );
            prop_assert_eq!(
                run.ctrl.leaked_allocations,
                0,
                "leaked allocations: placement={} malleability={} seed={}",
                placement,
                malleability,
                run.seed
            );
        }
    }
}
