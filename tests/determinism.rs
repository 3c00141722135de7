//! End-to-end determinism: the contract that given a seed, a whole
//! experiment is bit-reproducible — including across threads.

use malleable_koala::appsim::workload::WorkloadSpec;
use malleable_koala::koala::config::ExperimentConfig;
use malleable_koala::koala::parallel::default_threads;
use malleable_koala::koala::{self, Report, Run, RunReport};

/// `cfg` once per seed on `threads` workers, aggregated in seed order.
fn sweep<R: Report>(cfg: &ExperimentConfig, seeds: &[u64], threads: usize) -> R::Multi {
    let runs = koala::run(&Run::seeds(cfg, seeds).threads(threads)).unwrap();
    R::aggregate(cfg.name.clone(), runs)
}

/// One run of `cfg` under its own seed.
fn one<R: Report>(cfg: &ExperimentConfig) -> R {
    koala::run(&Run::cell(cfg)).unwrap().remove(0)
}

fn cfg(seed: u64) -> ExperimentConfig {
    let mut c = ExperimentConfig::paper_pwa("egs", WorkloadSpec::wmr_prime());
    c.workload.jobs = 40;
    c.seed = seed;
    c
}

fn fingerprint(r: &RunReport) -> (u64, u64, u64, usize, usize, Vec<u64>) {
    (
        r.summary.makespan.as_millis(),
        r.summary.events,
        r.summary.grow_messages,
        r.grow_ops.total(),
        r.shrink_ops.total(),
        r.jobs
            .records()
            .iter()
            .map(|rec| rec.completed.map(|t| t.as_millis()).unwrap_or(0))
            .collect(),
    )
}

#[test]
fn same_seed_same_everything() {
    let a = one::<RunReport>(&cfg(1234));
    let b = one::<RunReport>(&cfg(1234));
    assert_eq!(fingerprint(&a), fingerprint(&b));
    // Including the exact utilization trace.
    assert_eq!(a.utilization.points(), b.utilization.points());
}

#[test]
fn determinism_holds_across_threads() {
    let sequential: Vec<_> = [5u64, 6, 7]
        .iter()
        .map(|&s| fingerprint(&one::<RunReport>(&cfg(s))))
        .collect();
    let parallel = sweep::<RunReport>(&cfg(0), &[5, 6, 7], default_threads());
    let parallel_fp: Vec<_> = parallel.runs.iter().map(fingerprint).collect();
    assert_eq!(
        sequential, parallel_fp,
        "thread scheduling must not affect results"
    );
}

#[test]
fn different_seeds_differ() {
    let a = one::<RunReport>(&cfg(1));
    let b = one::<RunReport>(&cfg(2));
    assert_ne!(
        fingerprint(&a),
        fingerprint(&b),
        "different seeds should explore different trajectories"
    );
}

#[test]
fn policy_choice_changes_the_trajectory() {
    let mut base = cfg(3);
    let a = one::<RunReport>(&base);
    base.sched.malleability = "fpsma".to_string();
    base.name = "FPSMA/Wmr'".into();
    let b = one::<RunReport>(&base);
    assert_ne!(
        a.summary.grow_messages, b.summary.grow_messages,
        "EGS and FPSMA must behave differently"
    );
}
