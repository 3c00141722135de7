//! Property test for the parallel runner's determinism guarantee: a
//! parallel `run_seeds` (2–8 threads) produces a `MultiReport`
//! byte-identical to the sequential one on random small configurations.
//!
//! "Byte-identical" is checked on the full `Debug` rendering of the
//! aggregate, which covers every field of every `RunReport` — job tables,
//! step series, counters, makespans, event counts — so any scheduling
//! nondeterminism leaking into results (merge order, RNG sharing, shared
//! mutable state) fails the property.

use appsim::workload::WorkloadSpec;
use koala::config::{Approach, ExperimentConfig};
use koala::{Report, Run, RunReport, SummaryReport};
use proptest::prelude::*;

/// `cfg` once per seed on `threads` workers, aggregated in seed order.
fn sweep<R: Report>(cfg: &ExperimentConfig, seeds: &[u64], threads: usize) -> R::Multi {
    let runs = koala::run(&Run::seeds(cfg, seeds).threads(threads)).unwrap();
    R::aggregate(cfg.name.clone(), runs)
}

fn policies() -> [&'static str; 5] {
    [
        "fpsma",
        "egs",
        "equipartition",
        "folding",
        "greedy_grow_lazy_shrink",
    ]
}

fn random_cfg(
    policy_idx: usize,
    pwa: bool,
    prime: bool,
    jobs: usize,
    seed0: u64,
) -> (ExperimentConfig, Vec<u64>) {
    let policy = policies()[policy_idx % 5];
    let workload = if prime {
        WorkloadSpec::wm_prime()
    } else {
        WorkloadSpec::wm()
    };
    let mut cfg = if pwa {
        ExperimentConfig::paper_pwa(policy, workload)
    } else {
        ExperimentConfig::paper_pra(policy, workload)
    };
    cfg.workload.jobs = jobs;
    // Distinct, deterministic seeds derived from the drawn base.
    let seeds: Vec<u64> = (0..4).map(|i| seed0.wrapping_add(i * 7919)).collect();
    (cfg, seeds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn parallel_run_seeds_is_byte_identical_to_sequential(
        policy_idx in 0usize..5,
        pwa in any::<bool>(),
        prime in any::<bool>(),
        jobs in 2usize..9,
        seed0 in 1u64..1_000_000,
        threads in 2usize..9,
    ) {
        let (cfg, seeds) = random_cfg(policy_idx, pwa, prime, jobs, seed0);
        let sequential = sweep::<RunReport>(&cfg, &seeds, 1);
        let parallel = sweep::<RunReport>(&cfg, &seeds, threads);
        prop_assert_eq!(
            format!("{sequential:?}"),
            format!("{parallel:?}"),
            "threads={} diverged on {:?}/{} jobs={}",
            threads,
            cfg.sched.malleability,
            if cfg.sched.approach == Approach::Pwa { "PWA" } else { "PRA" },
            cfg.workload.jobs,
        );
    }

    /// The same guarantee on the **memory-bounded** path: a parallel
    /// summarized sweep — streaming accumulators per cell, merged in
    /// submission order — renders byte-identically to the sequential
    /// loop, and so does its pooled replication aggregate (the
    /// accumulator-merge path itself).
    #[test]
    fn parallel_summary_is_byte_identical_to_sequential(
        policy_idx in 0usize..5,
        pwa in any::<bool>(),
        prime in any::<bool>(),
        jobs in 2usize..9,
        seed0 in 1u64..1_000_000,
        threads in 2usize..9,
        warmup_s in 0u64..500,
    ) {
        let (mut cfg, seeds) = random_cfg(policy_idx, pwa, prime, jobs, seed0);
        cfg.report.warmup = simcore::SimDuration::from_secs(warmup_s);
        let sequential = sweep::<SummaryReport>(&cfg, &seeds, 1);
        let parallel = sweep::<SummaryReport>(&cfg, &seeds, threads);
        prop_assert_eq!(
            format!("{sequential:?}"),
            format!("{parallel:?}"),
            "summarized threads={} diverged on {:?} jobs={}",
            threads,
            cfg.sched.malleability,
            cfg.workload.jobs,
        );
        prop_assert_eq!(
            format!("{:?}", sequential.pooled()),
            format!("{:?}", parallel.pooled()),
            "pooled summaries diverged"
        );
    }
}
