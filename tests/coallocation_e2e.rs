//! End-to-end co-allocation and trace-driven runs: KOALA's co-allocator
//! claiming components on several clusters, the wide-area penalty the CM
//! policies exist to minimize, and SWF trace replay.

use malleable_koala::appsim::workload::{SubmittedJob, WorkloadSpec};
use malleable_koala::appsim::{swf, AppKind, JobSpec};
use malleable_koala::koala::config::ExperimentConfig;
use malleable_koala::koala::{self, Report, Run, RunReport};
use malleable_koala::simcore::SimTime;

/// One run of `cfg` under its own seed.
fn one<R: Report>(cfg: &ExperimentConfig) -> R {
    koala::run(&Run::cell(cfg)).unwrap().remove(0)
}

fn trace_cfg(trace: Vec<SubmittedJob>) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_pra("fpsma", WorkloadSpec::wm());
    cfg.background = malleable_koala::multicluster::BackgroundLoad::none();
    // These tests probe co-allocation mechanics, not the expansion
    // threshold; lift the cap so large jobs fit.
    cfg.sched.koala_share = 0.9;
    cfg.trace = Some(trace);
    cfg.seed = 1;
    cfg
}

fn coalloc_job(at_s: u64, components: Vec<u32>) -> SubmittedJob {
    SubmittedJob {
        at: SimTime::from_secs(at_s),
        spec: JobSpec::coallocated(AppKind::Gadget2, components),
    }
}

#[test]
fn coallocated_jobs_run_and_release_all_components() {
    let trace = vec![
        coalloc_job(0, vec![16, 16, 16]),
        coalloc_job(60, vec![8, 8]),
        SubmittedJob {
            at: SimTime::from_secs(120),
            spec: JobSpec::rigid(AppKind::Ft, 4),
        },
    ];
    let r = one::<RunReport>(&trace_cfg(trace));
    assert!((r.jobs.completion_ratio() - 1.0).abs() < 1e-12);
    // Everything must be released at the end: final utilization 0.
    assert_eq!(r.utilization.last_value(), Some(0.0));
}

#[test]
fn wide_area_penalty_slows_spanning_jobs() {
    // 48 processors as a single component (one cluster) vs. as three
    // 16-processor components: with Worst-Fit the components spread over
    // clusters, costing the wide-area penalty.
    let single = trace_cfg(vec![SubmittedJob {
        at: SimTime::ZERO,
        spec: JobSpec::rigid(AppKind::Gadget2, 46),
    }]);
    let spanning = trace_cfg(vec![coalloc_job(0, vec![16, 16, 14])]);
    let r1 = one::<RunReport>(&single);
    let r2 = one::<RunReport>(&spanning);
    let e1 = r1.jobs.records()[0].execution_time().unwrap();
    let e2 = r2.jobs.records()[0].execution_time().unwrap();
    // Worst-Fit spreads the components over at least two clusters (it
    // may pack two on the largest one), so at least one wide-area
    // penalty increment applies.
    assert!(
        e2 > e1 * 1.15,
        "spanning clusters must cost the wide-area penalty ({e1:.0}s vs {e2:.0}s)"
    );
}

#[test]
fn cluster_minimization_packs_and_beats_worst_fit() {
    // With CM, a 3 x 16 co-allocated job fits entirely into one large
    // cluster (VU has 85 nodes) and avoids the penalty Worst-Fit pays by
    // spreading components.
    let trace = vec![coalloc_job(0, vec![16, 16, 16])];
    let mut wf = trace_cfg(trace.clone());
    wf.sched.placement = "worst_fit".to_string();
    let mut cm = trace_cfg(trace);
    cm.sched.placement = "cluster_min".to_string();
    let e_wf = one::<RunReport>(&wf).jobs.records()[0]
        .execution_time()
        .unwrap();
    let e_cm = one::<RunReport>(&cm).jobs.records()[0]
        .execution_time()
        .unwrap();
    assert!(
        e_cm < e_wf,
        "CM ({e_cm:.0}s) should beat WF ({e_wf:.0}s) for co-allocated jobs"
    );
}

#[test]
fn swf_trace_replays_end_to_end() {
    // Export a generated workload to SWF, re-import it, and run it.
    let mut rng = malleable_koala::simcore::SimRng::seed_from_u64(7);
    let mut spec = WorkloadSpec::wm();
    spec.jobs = 25;
    let original = spec.generate(&mut rng);
    let text = swf::export(&original);
    let reimported = swf::SwfImport::default().convert(&swf::parse(&text).unwrap());
    assert_eq!(reimported.len(), 25);
    let r = one::<RunReport>(&trace_cfg(reimported));
    assert_eq!(r.jobs.len(), 25);
    assert!((r.jobs.completion_ratio() - 1.0).abs() < 1e-12);
}

#[test]
fn trace_overrides_generated_workload() {
    let mut cfg = trace_cfg(vec![SubmittedJob {
        at: SimTime::ZERO,
        spec: JobSpec::rigid(AppKind::Ft, 2),
    }]);
    cfg.workload.jobs = 300; // would be 300 jobs if the trace were ignored
    let r = one::<RunReport>(&cfg);
    assert_eq!(r.jobs.len(), 1, "the explicit trace wins");
}
