//! Soak tests: long runs through every code path with the World's
//! internal invariant checks active (debug builds assert cluster
//! consistency after every event).

use malleable_koala::appsim::workload::WorkloadSpec;
use malleable_koala::appsim::GrowInitiative;
use malleable_koala::koala::config::ExperimentConfig;
use malleable_koala::koala::{self, Report, Run, RunReport, SummaryReport};
use malleable_koala::simcore::{SimDuration, SimTime};

/// One run of `cfg` under its own seed.
fn one<R: Report>(cfg: &ExperimentConfig) -> R {
    koala::run(&Run::cell(cfg)).unwrap().remove(0)
}

#[test]
fn six_hundred_jobs_with_everything_enabled() {
    // A deliberately busy configuration: mixed classes, initiatives,
    // heterogeneous clusters, heavy-ish background, PWA shrinking.
    let mut cfg = ExperimentConfig::paper_pwa("egs", WorkloadSpec::wm_prime());
    cfg.workload.jobs = 600;
    cfg.workload.malleable_fraction = 0.6;
    cfg.workload.moldable_fraction = 0.2;
    cfg.workload.initiative = Some(GrowInitiative {
        at_progress: 0.5,
        extra: 6,
    });
    cfg.workload.initiative_fraction = 0.3;
    cfg.heterogeneous = true;
    cfg.seed = 2024;
    let r = one::<RunReport>(&cfg);
    assert_eq!(r.jobs.len(), 600);
    assert!(
        (r.jobs.completion_ratio() - 1.0).abs() < 1e-12,
        "everything must complete ({}%)",
        100.0 * r.jobs.completion_ratio()
    );
    // Platform-wide sanity at every utilization transition.
    for &(_, used) in r.utilization.points() {
        assert!(
            (0.0..=272.0).contains(&used),
            "used {used} outside [0, 272]"
        );
    }
    // Final state: every KOALA processor is back (background jobs may
    // still be running when the last KOALA job completes — the run ends
    // there).
    assert_eq!(r.koala_used.last_value(), Some(0.0));
    // Accounting cross-checks: every committed grow/shrink was a decided
    // op; a few decided ops never commit because the job completes while
    // its stubs are still submitting (the abort path).
    assert!(r.jobs.total_grows() <= r.grow_ops.total() as u64);
    assert!(r.jobs.total_shrinks() <= r.shrink_ops.total() as u64);
    let aborted = r.grow_ops.total() as u64 - r.jobs.total_grows();
    assert!(
        (aborted as f64) < 0.05 * r.grow_ops.total() as f64,
        "aborted grows should be rare ({aborted} of {})",
        r.grow_ops.total()
    );
    assert!(r.grow_ops.total() > 0 && r.shrink_ops.total() > 0);
}

#[test]
fn summarized_long_horizon_soak_holds_the_same_invariants() {
    // The same deliberately busy configuration as the full-path soak —
    // mixed classes, initiatives, heterogeneous clusters, PWA shrinking
    // — but through the memory-bounded path, with a warmup window and a
    // deliberately small reservoir so the bounded-memory machinery
    // (not just the small-sample exact case) soaks too.
    let mut cfg = ExperimentConfig::paper_pwa("egs", WorkloadSpec::wm_prime());
    cfg.workload.jobs = 600;
    cfg.workload.malleable_fraction = 0.6;
    cfg.workload.moldable_fraction = 0.2;
    cfg.workload.initiative = Some(GrowInitiative {
        at_progress: 0.5,
        extra: 6,
    });
    cfg.workload.initiative_fraction = 0.3;
    cfg.heterogeneous = true;
    cfg.seed = 2024;
    cfg.report.warmup = SimDuration::from_secs(600);
    cfg.report.quantile_capacity = 128;
    let r = one::<SummaryReport>(&cfg);

    // Completion invariants hold without a job table.
    assert_eq!(r.jobs_submitted, 600);
    assert_eq!(r.jobs_completed, 600);
    assert_eq!(r.jobs_failed, 0);
    assert!((r.completion_ratio() - 1.0).abs() < 1e-12);
    assert!(r.makespan > SimTime::ZERO);
    assert!(r.grow_ops > 0 && r.shrink_ops > 0);
    assert!(r.grow_messages >= r.grow_ops && r.shrink_messages >= r.shrink_ops);

    // Platform-wide sanity on the streamed aggregates.
    assert!(
        (0.0..=272.0).contains(&r.mean_utilization()),
        "mean utilization {} outside [0, 272]",
        r.mean_utilization()
    );
    assert!(r.mean_koala_utilization() <= r.mean_utilization() + 1e-9);

    // Per-job streams: every post-warmup completion measured, times
    // positive and ordered (wait + exec = response at the mean too,
    // since the mean is linear).
    let n = r.execution_time.count();
    assert!(n > 0 && n < 600, "warmup must trim some of 600, kept {n}");
    for stream in [
        &r.execution_time,
        &r.response_time,
        &r.avg_size,
        &r.max_size,
    ] {
        assert_eq!(stream.count(), n);
        assert!(stream.stats.min().unwrap() >= 0.0);
    }
    let (exec, wait, resp) = (
        r.execution_time.mean().unwrap(),
        r.wait_time.mean().unwrap(),
        r.response_time.mean().unwrap(),
    );
    assert!((exec + wait - resp).abs() < 1e-6 * resp.max(1.0));
    assert!(r.avg_size.stats.min().unwrap() >= 2.0, "sizes start at 2");
    assert!(r.max_size.stats.max().unwrap() <= 272.0);

    // The memory bound: no stream retains more than the reservoir
    // capacity even over a 600-job horizon.
    for stream in [
        &r.execution_time,
        &r.response_time,
        &r.wait_time,
        &r.avg_size,
        &r.max_size,
        &r.slowdown,
    ] {
        assert!(stream.quantiles.retained() <= 128);
    }

    // Mode passivity at soak scale: the full run's summary is this run,
    // warmup trimming included, and its untrimmed operation timelines
    // count at least the trimmed operations.
    let full = one::<RunReport>(&cfg);
    assert_eq!(full.summary, r);
    assert!(r.grow_ops as usize <= full.grow_ops.total());
    assert!(r.shrink_ops as usize <= full.shrink_ops.total());
}

#[test]
fn per_job_times_are_internally_consistent() {
    let mut cfg = ExperimentConfig::paper_pra("fpsma", WorkloadSpec::wmr());
    cfg.workload.jobs = 250;
    cfg.seed = 777;
    let r = one::<RunReport>(&cfg);
    for rec in r.jobs.records() {
        let submit = rec.submitted;
        let placed = rec.placed.expect("all placed");
        let started = rec.started.expect("all started");
        let completed = rec.completed.expect("all completed");
        assert!(submit <= placed, "{}", rec.id);
        assert!(placed <= started, "{}", rec.id);
        assert!(started < completed, "{}", rec.id);
        // response = wait + execution, exactly.
        let resp = rec.response_time().unwrap();
        let wait = rec.wait_time().unwrap();
        let exec = rec.execution_time().unwrap();
        assert!((resp - wait - exec).abs() < 1e-9, "{}", rec.id);
        // The size history exists exactly over the execution.
        assert!(rec.size_history.value_at(started, 0.0) >= 2.0);
    }
    // Makespan is the last completion.
    let last = r
        .jobs
        .records()
        .iter()
        .filter_map(|rec| rec.completed)
        .max()
        .unwrap_or(SimTime::ZERO);
    assert!(r.summary.makespan >= last);
}
