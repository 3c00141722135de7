//! The new-API guarantees, enforced end to end:
//!
//! * registry round-trip — every registered name constructs a policy
//!   reporting exactly that name;
//! * builder validation — bad names, missing workloads and invalid
//!   tweaks all fail `build()` with typed [`ConfigError`]s;
//! * **bit-identical legacy equivalence** — a `ScenarioBuilder`-built
//!   run produces byte-identical reports to the equivalent hand-written
//!   legacy `ExperimentConfig` (the literal the old `paper_pra` /
//!   `paper_pwa` constructors used to build), sequential *and* parallel;
//! * the brand-new registry policies run end to end.

use appsim::workload::WorkloadSpec;
use koala::config::{Approach, ConfigError, ExperimentConfig, SchedulerConfig};
use koala::policy::PolicyRegistry;
use koala::scenario::Scenario;
use koala::{Report, Run, RunReport};
use multicluster::BackgroundLoad;
use proptest::prelude::*;
use simcore::SimDuration;

/// `cfg` once per seed on `threads` workers, aggregated in seed order.
fn sweep<R: Report>(cfg: &ExperimentConfig, seeds: &[u64], threads: usize) -> R::Multi {
    let runs = koala::run(&Run::seeds(cfg, seeds).threads(threads)).unwrap();
    R::aggregate(cfg.name.clone(), runs)
}

/// The field-by-field configuration the legacy `paper_pra`/`paper_pwa`
/// constructors assembled before the builder existed. The equivalence
/// property pins the builder path to this literal.
fn legacy_paper_cell(policy: &str, approach: Approach, workload: WorkloadSpec) -> ExperimentConfig {
    let label = PolicyRegistry::global()
        .malleability(policy)
        .unwrap()
        .label()
        .to_string();
    ExperimentConfig {
        name: format!("{label}/{}", koala::config::workload_label(&workload)),
        sched: SchedulerConfig {
            malleability: policy.to_string(),
            approach,
            ..SchedulerConfig::default()
        },
        workload,
        generator: None,
        background: BackgroundLoad::concurrent_users(0.30),
        seed: 0,
        horizon: Some(SimDuration::from_secs(200_000)),
        trace: None,
        heterogeneous: false,
        uniform_topology: None,
        report: koala::config::ReportConfig::default(),
        elasticity: koala::config::ElasticityConfig::default(),
        network: None,
        warm_fork: None,
    }
}

#[test]
fn registry_round_trips_every_name() {
    let registry = PolicyRegistry::global();
    let placements = registry.placement_names();
    let malleability = registry.malleability_names();
    assert!(
        placements.len() >= 5,
        "built-ins registered: {placements:?}"
    );
    assert!(
        malleability.len() >= 5,
        "built-ins registered: {malleability:?}"
    );
    for name in &placements {
        let p = registry.placement(name).unwrap();
        assert_eq!(p.name(), name, "name → policy → name");
        assert!(!p.label().is_empty());
    }
    for name in &malleability {
        let m = registry.malleability(name).unwrap();
        assert_eq!(m.name(), name, "name → policy → name");
        assert!(!m.label().is_empty());
    }
}

#[test]
fn builder_rejects_unknown_names_and_bad_tweaks() {
    let err = Scenario::builder()
        .workload(WorkloadSpec::wm())
        .malleability("gradient_descent")
        .build()
        .unwrap_err();
    assert!(matches!(err, ConfigError::Policy(_)), "{err}");
    let err = Scenario::builder()
        .workload(WorkloadSpec::wm())
        .placement("best_fit")
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("best_fit"), "{err}");
    assert_eq!(
        Scenario::builder().build().unwrap_err(),
        ConfigError::MissingWorkload
    );
    let err = Scenario::builder()
        .workload(WorkloadSpec::wm())
        .scheduler(|s| s.kis_poll_period = SimDuration::ZERO)
        .build()
        .unwrap_err();
    assert_eq!(err, ConfigError::ZeroPeriod);
}

#[test]
fn new_registry_policies_run_end_to_end() {
    // The two policies the old closed enums could not express, selected
    // purely by name — no enum arm anywhere dispatches them.
    let scenario = Scenario::builder()
        .workload(WorkloadSpec::wm_prime())
        .jobs(15)
        .placement("first_fit")
        .malleability("greedy_grow_lazy_shrink")
        .pwa()
        .seeds([3, 4])
        .build()
        .unwrap();
    assert_eq!(scenario.config().name, "GGLS/Wm'");
    let m = scenario.run::<RunReport>();
    assert_eq!(m.runs.len(), 2);
    assert!(
        (m.completion_ratio() - 1.0).abs() < 1e-12,
        "all jobs complete under the new policies"
    );
    assert!(
        m.runs.iter().map(|r| r.grow_ops.total()).sum::<usize>() > 0,
        "greedy grow fires"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    /// A builder-built scenario is bit-identical to the equivalent
    /// legacy configuration literal, across policies, approaches and
    /// thread counts (the acceptance criterion of the API redesign).
    #[test]
    fn builder_runs_are_bit_identical_to_legacy_configs(
        policy_idx in 0usize..2,
        pwa in any::<bool>(),
        jobs in 2usize..9,
        seed0 in 1u64..1_000_000,
        threads in 2usize..5,
    ) {
        let policy = ["fpsma", "egs"][policy_idx];
        let approach = if pwa { Approach::Pwa } else { Approach::Pra };
        let workload = if pwa { WorkloadSpec::wm_prime() } else { WorkloadSpec::wm() };
        let mut legacy = legacy_paper_cell(policy, approach, workload.clone());
        legacy.workload.jobs = jobs;
        let scenario = Scenario::builder()
            .malleability(policy)
            .approach(approach)
            .workload(workload)
            .jobs(jobs)
            .build()
            .unwrap();
        prop_assert_eq!(scenario.config(), &legacy, "configs must match field for field");
        let seeds: Vec<u64> = (0..3).map(|i| seed0.wrapping_add(i * 7919)).collect();
        let legacy_seq = sweep::<RunReport>(&legacy, &seeds, 1);
        let builder_seq = sweep::<RunReport>(scenario.config(), &seeds, 1);
        prop_assert_eq!(
            format!("{legacy_seq:?}"),
            format!("{builder_seq:?}"),
            "sequential runs diverged"
        );
        let builder_par = sweep::<RunReport>(scenario.config(), &seeds, threads);
        prop_assert_eq!(
            format!("{legacy_seq:?}"),
            format!("{builder_par:?}"),
            "parallel ({} threads) diverged",
            threads
        );
    }
}
