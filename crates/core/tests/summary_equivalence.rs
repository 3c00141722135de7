//! The summary path's contract, enforced end to end:
//!
//! * **Passivity** — reporting mode must not change the simulation
//!   trajectory: a summarized run's scalar tallies (events, makespan,
//!   operations, messages, polls) are bit-identical to the full run's.
//! * **Agreement** — streamed per-job metrics equal the full report's
//!   (exactly, while the quantile reservoirs are below capacity).
//! * **Memory bound** — summarized runs keep at most
//!   `quantile_capacity` samples per metric regardless of job count,
//!   and never materialize job tables or traces.
//! * **Scale** — a 1000-cell summarized matrix runs to completion with
//!   parallel results bit-identical to sequential.

use appsim::workload::WorkloadSpec;
use koala::config::ExperimentConfig;
use koala::scenario::Scenario;
use koala::{Report, ReportMode, Run, RunReport, SummaryReport, World};
use koala_metrics::Ecdf;

/// One run of `cfg` under its own seed.
fn one<R: Report>(cfg: &ExperimentConfig) -> R {
    koala::run(&Run::cell(cfg)).unwrap().remove(0)
}

fn small(policy: &str, jobs: usize, seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_pra(policy, WorkloadSpec::wm());
    cfg.workload.jobs = jobs;
    cfg.seed = seed;
    cfg
}

/// Samples of one full-report ECDF, for comparison against a reservoir.
fn ecdf_of(full: &koala::RunReport, f: impl Fn(&koala_metrics::JobRecord) -> Option<f64>) -> Ecdf {
    full.jobs.ecdf_of(f)
}

#[test]
fn summary_matches_full_report_on_the_same_run() {
    let cfg = small("egs", 40, 11);
    let full = one::<RunReport>(&cfg);
    let summary = one::<SummaryReport>(&cfg);

    // Passivity: identical trajectory.
    assert_eq!(summary.events, full.events);
    assert_eq!(summary.makespan, full.makespan);
    assert_eq!(summary.grow_ops as usize, full.grow_ops.total());
    assert_eq!(summary.shrink_ops as usize, full.shrink_ops.total());
    assert_eq!(summary.grow_messages, full.grow_messages);
    assert_eq!(summary.shrink_messages, full.shrink_messages);
    assert_eq!(summary.kis_polls, full.kis_polls);
    assert_eq!(summary.placement_tries, full.placement_tries);
    assert_eq!(summary.failed_submissions, full.failed_submissions);
    assert_eq!(summary.jobs_submitted as usize, full.jobs.len());
    assert_eq!(
        summary.jobs_completed as usize,
        full.jobs.completed().count()
    );
    assert!((summary.completion_ratio() - full.jobs.completion_ratio()).abs() < 1e-12);

    // Agreement: with 40 jobs the 512-slot reservoirs hold everything,
    // so the streamed samples are *exactly* the full report's ECDFs.
    for (f, stream) in [
        (
            koala_metrics::JobRecord::execution_time
                as fn(&koala_metrics::JobRecord) -> Option<f64>,
            &summary.execution_time,
        ),
        (
            koala_metrics::JobRecord::response_time,
            &summary.response_time,
        ),
        (koala_metrics::JobRecord::wait_time, &summary.wait_time),
        (koala_metrics::JobRecord::average_size, &summary.avg_size),
        (koala_metrics::JobRecord::max_size, &summary.max_size),
    ] {
        let exact = ecdf_of(&full, f);
        assert!(stream.quantiles.is_exact());
        assert_eq!(stream.quantiles.ecdf(), exact, "sample sets must match");
        // Exact-sum mean vs sorted plain sum: tolerance-equal.
        let (a, b) = (stream.mean().unwrap(), exact.mean().unwrap());
        assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "{a} vs {b}");
    }

    // Mean utilization over the same window agrees with the step-series
    // integral of the full report.
    let full_util = full.mean_utilization(simcore::SimTime::ZERO, full.makespan);
    assert!(
        (summary.mean_utilization() - full_util).abs() <= 1e-9 * full_util.max(1.0),
        "{} vs {full_util}",
        summary.mean_utilization()
    );
}

#[test]
fn summary_memory_is_bounded_by_capacity_not_job_count() {
    let mut cfg = small("fpsma", 120, 5);
    cfg.report.quantile_capacity = 16;
    let summary = one::<SummaryReport>(&cfg);
    assert_eq!(summary.jobs_completed, 120);
    for stream in [
        &summary.execution_time,
        &summary.response_time,
        &summary.wait_time,
        &summary.avg_size,
        &summary.max_size,
        &summary.slowdown,
    ] {
        assert_eq!(stream.count(), 120, "all jobs streamed");
        assert!(
            stream.quantiles.retained() <= 16,
            "reservoir exceeded its bound: {}",
            stream.quantiles.retained()
        );
        assert!(!stream.quantiles.is_exact());
    }
}

#[test]
fn summarized_worlds_never_enable_tracing() {
    let cfg = small("egs", 5, 3);
    let w = World::for_seed_summarized(&cfg, 3).with_trace(10_000);
    assert!(w.is_summarized());
    assert!(
        !w.trace_enabled(),
        "summarized mode must not materialize a trace"
    );
    // The full-mode world still honours the request.
    let w = World::for_seed(&cfg, 3).with_trace(10_000);
    assert!(!w.is_summarized());
    assert!(w.trace_enabled());
}

#[test]
#[should_panic(expected = "report a SummaryReport")]
fn full_finish_of_a_summarized_world_panics() {
    let cfg = small("egs", 2, 1);
    let mut engine = simcore::Engine::new();
    let _ = World::for_seed_summarized(&cfg, 1).run_to_end::<RunReport>(&mut engine);
}

#[test]
#[should_panic(expected = "run it for SummaryReports")]
fn summarized_scenarios_refuse_full_runs() {
    let s = Scenario::builder()
        .malleability("egs")
        .workload(WorkloadSpec::wm())
        .jobs(2)
        .summarized()
        .build()
        .unwrap();
    assert_eq!(s.mode(), ReportMode::Summarized);
    let _ = s.run::<RunReport>();
}

#[test]
fn warmup_trims_early_submissions_and_activity() {
    let cfg = small("egs", 30, 9);
    let all = one::<SummaryReport>(&cfg);
    let mut trimmed_cfg = cfg.clone();
    // Cut at the workload midpoint: Wm arrives every ~120 s.
    trimmed_cfg.report.warmup = simcore::SimDuration::from_secs(15 * 120);
    let trimmed = one::<SummaryReport>(&trimmed_cfg);
    // Same trajectory either way...
    assert_eq!(trimmed.events, all.events);
    assert_eq!(trimmed.makespan, all.makespan);
    assert_eq!(trimmed.jobs_completed, all.jobs_completed);
    // ...but fewer jobs measured, and no more ops counted than before.
    assert!(trimmed.execution_time.count() < all.execution_time.count());
    assert!(trimmed.execution_time.count() > 0);
    assert!(trimmed.grow_ops <= all.grow_ops);
    assert!(trimmed.warmup > simcore::SimDuration::ZERO);
}

#[test]
fn replications_builder_derives_consecutive_seeds() {
    let s = Scenario::builder()
        .malleability("egs")
        .workload(WorkloadSpec::wm())
        .jobs(4)
        .seed(100)
        .replications(3)
        .summarized()
        .build()
        .unwrap();
    assert_eq!(s.seeds(), &[100, 101, 102]);
    let m = s.run::<SummaryReport>();
    assert_eq!(m.runs.len(), 3);
    assert_eq!(m.runs[0].seed, 100);
    assert_eq!(m.runs[2].seed, 102);
    // The aggregate carries a CI once there are ≥ 2 replications.
    let ci = m.mean_ci(|r| r.execution_time.mean()).unwrap();
    assert_eq!(ci.n, 3);
    assert!(ci.half_width.is_some());
    // Explicit seeds win over replications; zero replications fail.
    let s = Scenario::builder()
        .malleability("egs")
        .workload(WorkloadSpec::wm())
        .seeds([7, 8])
        .replications(5)
        .build()
        .unwrap();
    assert_eq!(s.seeds(), &[7, 8]);
    let err = Scenario::builder()
        .malleability("egs")
        .workload(WorkloadSpec::wm())
        .replications(0)
        .build()
        .unwrap_err();
    assert_eq!(err, koala::ConfigError::NoSeeds);
}

/// The acceptance-scale run: a 1000-cell summarized matrix (20
/// configurations × 50 seeds) runs to completion, parallel bit-identical
/// to sequential. Jobs are few per cell so the debug-build suite stays
/// fast; the release-mode `perf` binary runs the same matrix at 20 jobs
/// per cell.
#[test]
fn thousand_cell_summarized_matrix_is_deterministic() {
    let policies = [
        "fpsma",
        "egs",
        "equipartition",
        "folding",
        "greedy_grow_lazy_shrink",
    ];
    let mut cfgs = Vec::new();
    for placement in ["worst_fit", "first_fit"] {
        for policy in policies {
            for prime in [false, true] {
                let workload = if prime {
                    WorkloadSpec::wm_prime()
                } else {
                    WorkloadSpec::wm()
                };
                let mut cfg = Scenario::builder()
                    .placement(placement)
                    .malleability(policy)
                    .workload(workload)
                    .jobs(2)
                    .summarized()
                    .build()
                    .unwrap()
                    .into_config();
                cfg.name = format!("{placement}/{policy}/{prime}");
                cfgs.push(cfg);
            }
        }
    }
    assert_eq!(cfgs.len(), 20);
    let seeds: Vec<u64> = (0..50).collect();
    let cells: Vec<koala::parallel::Cell<'_>> = cfgs
        .iter()
        .flat_map(|cfg| {
            seeds
                .iter()
                .map(move |&seed| koala::parallel::Cell { cfg, seed })
        })
        .collect();
    assert_eq!(cells.len(), 1000);
    let sequential = koala::parallel::run_cells_summary(&cells, 1);
    let parallel = koala::parallel::run_cells_summary(&cells, 4);
    assert_eq!(sequential.len(), 1000);
    assert_eq!(
        format!("{sequential:?}"),
        format!("{parallel:?}"),
        "1000-cell matrix diverged between parallel and sequential"
    );
    // Every cell ran to completion (tiny Wm batches always finish).
    for r in &sequential {
        assert_eq!(r.jobs_submitted, 2, "{}", r.name);
        assert!(
            (r.completion_ratio() - 1.0).abs() < 1e-12,
            "{} seed {} left jobs unfinished",
            r.name,
            r.seed
        );
    }
}

#[test]
fn summary_seeded_matches_cfg_seed_path() {
    let cfg = small("egs", 10, 77);
    let a = one::<SummaryReport>(&cfg);
    let b: SummaryReport = koala::run(&Run::seeds(&cfg, &[77])).unwrap().remove(0);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}
