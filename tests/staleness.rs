//! The information-staleness pathway: KOALA places against KIS snapshots
//! that background users invalidate between polls, so claims can fail
//! and jobs bounce back to the placement queue — the design consequence
//! the paper's Section V-B polling discussion is about.

use malleable_koala::appsim::workload::WorkloadSpec;
use malleable_koala::koala::config::ExperimentConfig;
use malleable_koala::koala::{self, Report, Run, RunReport};
use malleable_koala::multicluster::BackgroundLoad;
use malleable_koala::simcore::SimDuration;

/// One run of `cfg` under its own seed.
fn one<R: Report>(cfg: &ExperimentConfig) -> R {
    koala::run(&Run::cell(cfg)).unwrap().remove(0)
}

#[test]
fn stale_snapshots_cause_failed_claims_under_heavy_background() {
    // Long poll period + heavy, bursty background: the snapshot
    // overestimates idle capacity often enough that some claims fail.
    let mut cfg = ExperimentConfig::paper_pwa("egs", WorkloadSpec::wm_prime());
    cfg.workload.jobs = 200;
    cfg.background = BackgroundLoad::concurrent_users(0.7);
    cfg.sched.kis_poll_period = SimDuration::from_secs(60);
    cfg.sched.queue_scan_period = SimDuration::from_secs(60);
    cfg.seed = 5;
    let r = one::<RunReport>(&cfg);
    assert!(
        r.summary.placement_tries > 0,
        "with 60 s stale snapshots and 70% background churn, some placements must bounce"
    );
    assert!(
        (r.jobs.completion_ratio() - 1.0).abs() < 1e-12,
        "bounced jobs are retried, not lost"
    );
}

#[test]
fn fresher_snapshots_reduce_wait_times() {
    let run = |poll_s: u64| {
        let mut cfg = ExperimentConfig::paper_pra("fpsma", WorkloadSpec::wm_prime());
        cfg.workload.jobs = 120;
        cfg.background = BackgroundLoad::concurrent_users(0.5);
        cfg.sched.kis_poll_period = SimDuration::from_secs(poll_s);
        cfg.sched.queue_scan_period = SimDuration::from_secs(poll_s);
        cfg.seed = 9;
        one::<RunReport>(&cfg)
    };
    let fresh = run(5);
    let stale = run(120);
    let wait = |r: &malleable_koala::koala::RunReport| {
        r.jobs
            .ecdf_of(malleable_koala::koala_metrics::JobRecord::wait_time)
            .mean()
            .unwrap_or(0.0)
    };
    assert!(
        wait(&fresh) <= wait(&stale) + 1.0,
        "fresh polling ({:.1}s mean wait) should not lose to stale polling ({:.1}s)",
        wait(&fresh),
        wait(&stale)
    );
    // And the poll counters reflect the configuration.
    assert!(fresh.summary.kis_polls > stale.summary.kis_polls);
}

#[test]
fn heterogeneous_clusters_speed_up_fast_site_jobs() {
    // The same rigid job on the homogeneous vs. heterogeneous testbed:
    // placed on VU (the fastest site under WF), it must finish sooner on
    // the heterogeneous variant.
    use malleable_koala::appsim::workload::SubmittedJob;
    use malleable_koala::appsim::{AppKind, JobSpec};
    let job = SubmittedJob {
        at: malleable_koala::simcore::SimTime::ZERO,
        spec: JobSpec::rigid(AppKind::Gadget2, 8),
    };
    let mut cfg = ExperimentConfig::paper_pra("fpsma", WorkloadSpec::wm());
    cfg.background = BackgroundLoad::none();
    cfg.trace = Some(vec![job]);
    cfg.seed = 2;
    let homo = one::<RunReport>(&cfg);
    cfg.heterogeneous = true;
    let hetero = one::<RunReport>(&cfg);
    let e_homo = homo.jobs.records()[0].execution_time().unwrap();
    let e_hetero = hetero.jobs.records()[0].execution_time().unwrap();
    assert!(
        e_hetero < e_homo,
        "VU at 1.25x speed must beat the homogeneous run ({e_hetero:.0}s vs {e_homo:.0}s)"
    );
    assert!(
        (e_homo / e_hetero - 1.25).abs() < 0.05,
        "ratio should be ~the speed factor"
    );
}

#[test]
fn zero_latency_gram_still_schedules_correctly() {
    // The instantaneous GRAM model (pure-policy studies) must not break
    // event ordering.
    let mut cfg = ExperimentConfig::paper_pra("egs", WorkloadSpec::wm());
    cfg.workload.jobs = 30;
    cfg.sched.gram = malleable_koala::multicluster::GramConfig::instantaneous();
    cfg.sched.reconfig = malleable_koala::appsim::ReconfigCost::Free;
    cfg.seed = 11;
    let r = one::<RunReport>(&cfg);
    assert!((r.jobs.completion_ratio() - 1.0).abs() < 1e-12);
    // With free reconfiguration every execution time is bounded by the
    // size-2 curve exactly (no pause inflation).
    for rec in r.jobs.records() {
        let exec = rec.execution_time().unwrap();
        let bound = if rec.app == "FT" { 120.5 } else { 600.5 };
        assert!(exec <= bound, "{} exec {exec}", rec.app);
    }
}
