//! Cross-crate smoke matrix: every placement policy × malleability
//! policy × approach runs end-to-end, plus API-level integration of the
//! substrates the scheduler composes.

use malleable_koala::appsim::workload::WorkloadSpec;
use malleable_koala::appsim::SizeConstraint;
use malleable_koala::koala::config::{Approach, ExperimentConfig};
use malleable_koala::koala::placement::{
    CloseToFiles, ComponentRequest, Placement, PlacementRequest, WorstFit,
};
use malleable_koala::koala::{self, Report, Run, RunReport};
use malleable_koala::multicluster::{das3, ClusterId, FileCatalog};

/// One run of `cfg` under its own seed.
fn one<R: Report>(cfg: &ExperimentConfig) -> R {
    koala::run(&Run::cell(cfg)).unwrap().remove(0)
}

#[test]
fn every_policy_combination_completes() {
    for placement in [
        "worst_fit",
        "close_to_files",
        "cluster_min",
        "flexible_cluster_min",
        "first_fit",
    ] {
        for malleability in [
            "fpsma",
            "egs",
            "equipartition",
            "folding",
            "greedy_grow_lazy_shrink",
        ] {
            for approach in [Approach::Pra, Approach::Pwa] {
                let mut cfg = ExperimentConfig::paper_pra(malleability, WorkloadSpec::wmr_prime());
                cfg.sched.placement = placement.to_string();
                cfg.sched.approach = approach;
                cfg.workload.jobs = 15;
                cfg.seed = 21;
                cfg.name = format!("{placement}/{malleability}/{}", approach.label());
                let r = one::<RunReport>(&cfg);
                assert!(
                    (r.jobs.completion_ratio() - 1.0).abs() < 1e-12,
                    "{} failed to complete all jobs",
                    cfg.name
                );
            }
        }
    }
}

#[test]
fn moldable_requests_take_the_largest_feasible_size() {
    // The placement layer supports moldable jobs (size fixed at start):
    // they take min(preferred, avail) within their bounds.
    let req = PlacementRequest::single(ComponentRequest {
        min: 4,
        max: 64,
        preferred: 64,
        constraint: SizeConstraint::MultipleOf(4),
    });
    let mut avail = vec![10, 30, 22];
    let p = WorstFit.place(&req, &mut avail, None).unwrap();
    assert_eq!(p[0].cluster, ClusterId(1));
    assert_eq!(p[0].size, 28, "30 idle floors to 28 under MultipleOf(4)");
}

#[test]
fn close_to_files_end_to_end_with_catalog() {
    // CF with a populated catalog at the placement layer, on the real
    // DAS-3 shape.
    let das = das3();
    let mut catalog = FileCatalog::uniform(das.len(), 2.0).unwrap();
    let f = catalog.register(100.0, [ClusterId(4)]); // replica at Leiden
    let req = PlacementRequest {
        components: vec![ComponentRequest {
            min: 2,
            max: 16,
            preferred: 8,
            constraint: SizeConstraint::Any,
        }],
        files: vec![f],
        flexible: false,
    };
    let mut avail: Vec<u32> = das.clusters().map(|c| c.idle()).collect();
    let p = CloseToFiles
        .place(&req, &mut avail, Some(&catalog))
        .unwrap();
    assert_eq!(
        p[0].cluster,
        ClusterId(4),
        "CF must prefer the replica site"
    );
}

#[test]
fn engine_horizon_bounds_runaway_runs() {
    // With a tiny horizon the run is truncated but still returns a
    // well-formed report (unfinished jobs marked as such).
    let mut cfg = ExperimentConfig::paper_pra("egs", WorkloadSpec::wm());
    cfg.workload.jobs = 50;
    cfg.horizon = Some(simcore::SimDuration::from_secs(500));
    cfg.seed = 33;
    let r = one::<RunReport>(&cfg);
    assert_eq!(r.jobs.len(), 50);
    assert!(
        r.jobs.completion_ratio() < 1.0,
        "500s cannot finish 50 jobs"
    );
    assert!(r.summary.makespan <= simcore::SimTime::from_secs(500));
}

#[test]
fn reports_expose_consistent_utilization_accounting() {
    let mut cfg = ExperimentConfig::paper_pra("fpsma", WorkloadSpec::wm());
    cfg.workload.jobs = 20;
    cfg.seed = 44;
    let r = one::<RunReport>(&cfg);
    // KOALA usage is a component of total usage at every transition.
    for &(t, koala) in r.koala_used.points() {
        let total = r.utilization.value_at(t, 0.0);
        assert!(
            koala <= total + 1e-9,
            "koala used {koala} exceeds total {total} at {t:?}"
        );
    }
    // And the cap: KOALA never exceeds its expansion threshold share.
    let cap = (272.0 * cfg.sched.koala_share).floor();
    let peak = r
        .koala_used
        .max_in(simcore::SimTime::ZERO, r.summary.makespan)
        .unwrap_or(0.0);
    assert!(peak <= cap + 1e-9, "koala peak {peak} exceeds cap {cap}");
}
