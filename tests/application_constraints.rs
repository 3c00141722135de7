//! End-to-end application-constraint invariants: the scheduler never
//! learns about size constraints (Section VI-A), yet every allocation an
//! application actually runs at must satisfy them — the accept/decline
//! protocol is the only mechanism enforcing this.

use malleable_koala::appsim::workload::WorkloadSpec;
use malleable_koala::appsim::AppKind;
use malleable_koala::koala::config::ExperimentConfig;
use malleable_koala::koala::{self, Report, Run, RunReport};

/// One run of `cfg` under its own seed.
fn one<R: Report>(cfg: &ExperimentConfig) -> R {
    koala::run(&Run::cell(cfg)).unwrap().remove(0)
}

fn ft_only(policy: &str, pwa: bool, jobs: usize, seed: u64) -> ExperimentConfig {
    let workload = WorkloadSpec {
        apps: vec![AppKind::Ft],
        ..if pwa {
            WorkloadSpec::wm_prime()
        } else {
            WorkloadSpec::wm()
        }
    };
    let mut cfg = if pwa {
        ExperimentConfig::paper_pwa(policy, workload)
    } else {
        ExperimentConfig::paper_pra(policy, workload)
    };
    cfg.workload.jobs = jobs;
    cfg.seed = seed;
    cfg
}

#[test]
fn ft_jobs_only_ever_run_at_powers_of_two() {
    for policy in ["fpsma", "egs"] {
        for pwa in [false, true] {
            let cfg = ft_only(policy, pwa, 80, 31);
            let r = one::<RunReport>(&cfg);
            assert!((r.jobs.completion_ratio() - 1.0).abs() < 1e-12);
            for rec in r.jobs.records() {
                for &(_, size) in rec.size_history.points() {
                    let s = size as u32;
                    assert!(
                        s.is_power_of_two(),
                        "{policy:?} pwa={pwa}: FT job {} ran at non-power-of-two size {s}",
                        rec.id
                    );
                }
            }
        }
    }
}

#[test]
fn mixed_workload_respects_per_app_constraints_and_bounds() {
    let mut cfg = ExperimentConfig::paper_pwa("egs", WorkloadSpec::wm_prime());
    cfg.workload.jobs = 150;
    cfg.seed = 77;
    let r = one::<RunReport>(&cfg);
    for rec in r.jobs.records() {
        let (min, max) = if rec.app == "FT" {
            (2u32, 32u32)
        } else {
            (2, 46)
        };
        for &(_, size) in rec.size_history.points() {
            let s = size as u32;
            assert!(
                s >= min && s <= max,
                "{} size {s} outside [{min}, {max}]",
                rec.app
            );
            if rec.app == "FT" {
                assert!(s.is_power_of_two(), "FT at {s}");
            }
        }
        // Declared operation counters match the history: a job with k
        // grows and j shrinks has at most 1 + k + j distinct size steps.
        let steps = rec.size_history.len() as u32;
        assert!(
            steps <= 1 + rec.grows + rec.shrinks,
            "{} has {steps} size steps but only {} ops",
            rec.id,
            rec.grows + rec.shrinks
        );
    }
}

#[test]
fn gadget_accepts_arbitrary_sizes() {
    // With the Any constraint at least one non-power-of-two size should
    // appear in a grown GADGET-2 population.
    let workload = WorkloadSpec {
        apps: vec![AppKind::Gadget2],
        ..WorkloadSpec::wm()
    };
    let mut cfg = ExperimentConfig::paper_pra("egs", workload);
    cfg.workload.jobs = 60;
    cfg.seed = 8;
    let r = one::<RunReport>(&cfg);
    let odd_size_seen = r.jobs.records().iter().any(|rec| {
        rec.size_history
            .points()
            .iter()
            .any(|&(_, s)| !(s as u32).is_power_of_two())
    });
    assert!(odd_size_seen, "GADGET-2 should use non-power-of-two sizes");
}
