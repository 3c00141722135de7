//! The summary path's contract, enforced end to end:
//!
//! * **Passivity** — collecting the per-job detail changes nothing: a
//!   full run's `summary` equals the summarized run of the same cell,
//!   down to the reservoirs, registry-wide and under every subsystem.
//!   Neither does an attached observation sink, streamed runs included.
//! * **Agreement** — streamed per-job metrics equal the detail's job
//!   table (exactly, while the quantile reservoirs are below capacity).
//! * **Memory bound** — summarized runs keep at most
//!   `quantile_capacity` samples per metric regardless of job count,
//!   and never materialize job tables.
//! * **Scale** — a 1000-cell summarized matrix runs to completion with
//!   parallel results bit-identical to sequential.

use appsim::workload::WorkloadSpec;
use koala::config::{Approach, ExperimentConfig, RetryConfig};
use koala::policy::PolicyRegistry;
use koala::scenario::{Scenario, ScenarioBuilder};
use koala::{Obs, Report, ReportMode, Run, RunReport, SummaryReport, World};
use koala_metrics::Ecdf;
use multicluster::{BackgroundLoad, ClassLoss, ControlPlaneFaultSpec, FailurePolicy, FailureSpec};
use simcore::{Engine, SimDuration, SimTime};

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

    // Passivity: the full report's summary is the summarized run.
    assert_eq!(full.summary, summary);
    assert_eq!(format!("{:?}", full.summary), format!("{summary:?}"));
    assert_eq!(summary.jobs_submitted as usize, full.jobs.len());

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
    let full_util = full.mean_utilization(simcore::SimTime::ZERO, summary.makespan);
    assert!(
        (summary.mean_utilization() - full_util).abs() <= 1e-9 * full_util.max(1.0),
        "{} vs {full_util}",
        summary.mean_utilization()
    );
}

/// Runs `cfg` under `seed` the way [`koala::run`] runs a lone cell —
/// cold, or through its warm-fork prefix with the policies switched in
/// place — with a sink attached. Returns the report and how many
/// observations the sink saw.
fn with_sink<R: Report>(cfg: &ExperimentConfig, seed: u64) -> (R, u64) {
    let mut seen = 0u64;
    let mut sink = |_: SimTime, _: &Obs| seen += 1;
    let world = match R::MODE {
        ReportMode::Full => World::for_seed(cfg, seed),
        ReportMode::Summarized => World::for_seed_summarized(cfg, seed),
    };
    let mut world = world.with_sink(&mut sink);
    let mut engine = koala::engine_for(cfg);
    if let Some(wf) = &cfg.warm_fork {
        world
            .use_policies(&wf.base_placement, &wf.base_malleability)
            .unwrap();
        world.bootstrap(&mut engine);
        world.run_until(&mut engine, SimTime::ZERO + wf.at);
        world
            .use_policies(&cfg.sched.placement, &cfg.sched.malleability)
            .unwrap();
    }
    let report = world.run_to_end(&mut engine);
    (report, seen)
}

/// Runs every cell of `cfgs × seeds` for full reports and for summaries
/// and checks each full report's summary against its summarized twin —
/// equal values and equal `{:?}` renderings, reservoirs included. Each
/// cell runs once more both ways with a sink attached, and must report
/// exactly what it reports without one.
fn assert_detail_is_passive(cfgs: &[ExperimentConfig], seeds: &[u64]) -> Vec<SummaryReport> {
    let run = Run::matrix(cfgs, seeds);
    let full: Vec<RunReport> = koala::run(&run).unwrap();
    let summarized: Vec<SummaryReport> = koala::run(&run).unwrap();
    assert_eq!(full.len(), summarized.len());
    let cells = cfgs
        .iter()
        .flat_map(|cfg| seeds.iter().map(move |&s| (cfg, s)));
    for ((full, summarized), (cfg, seed)) in full.iter().zip(&summarized).zip(cells) {
        let cell = format!("{} seed {}", summarized.name, summarized.seed);
        assert_eq!(full.summary, *summarized, "{cell}");
        assert_eq!(
            format!("{:?}", full.summary),
            format!("{summarized:?}"),
            "{cell}"
        );
        assert_eq!(full.jobs.len() as u64, summarized.jobs_submitted, "{cell}");
        let (sunk, seen) = with_sink::<SummaryReport>(cfg, seed);
        assert_eq!(sunk, *summarized, "{cell}: a sink changed the summary");
        assert!(
            seen >= summarized.jobs_completed,
            "{cell}: the sink saw too little"
        );
        let (sunk, _) = with_sink::<RunReport>(cfg, seed);
        assert_eq!(
            format!("{sunk:?}"),
            format!("{full:?}"),
            "{cell}: a sink changed the full report"
        );
    }
    summarized
}

#[test]
fn detail_is_passive_across_the_malleability_registry() {
    let mut cfgs = Vec::new();
    for (approach, workload) in [
        (Approach::Pra, WorkloadSpec::wm()),
        (Approach::Pwa, WorkloadSpec::wm_prime()),
    ] {
        for policy in PolicyRegistry::global().malleability_names() {
            let mut cfg = Scenario::builder()
                .approach(approach)
                .malleability(policy.as_str())
                .workload(workload.clone())
                .jobs(16)
                .build()
                .unwrap()
                .into_config();
            cfg.report.quantile_capacity = 8;
            cfgs.push(cfg);
        }
    }
    assert!(cfgs.len() >= 10, "both approaches × the whole registry");
    let runs = assert_detail_is_passive(&cfgs, &[3, 4]);
    assert!(runs.iter().any(|r| r.shrink_ops > 0), "PWA cells shrink");
    assert!(
        runs.iter().any(|r| !r.execution_time.quantiles.is_exact()),
        "some reservoir overflows, so sampling is compared too"
    );
}

/// A PWA W'm scenario every subsystem case below starts from.
fn pwa(jobs: usize) -> ScenarioBuilder {
    Scenario::builder()
        .malleability("egs")
        .pwa()
        .workload(WorkloadSpec::wm_prime())
        .jobs(jobs)
}

#[test]
fn detail_is_passive_with_warmup_and_the_threshold_autoscaler() {
    let cfg = pwa(40)
        .failures(FailureSpec::new(
            SimDuration::from_secs(900),
            SimDuration::from_secs(300),
            8,
        ))
        .failure_policy(FailurePolicy::Requeue)
        .autoscaler("threshold")
        .autoscale_timing(SimDuration::from_secs(300), SimDuration::from_secs(30))
        .monitor(SimDuration::from_secs(120))
        .warmup(SimDuration::from_secs(600))
        .build()
        .unwrap()
        .into_config();
    let runs = assert_detail_is_passive(std::slice::from_ref(&cfg), &[1, 2]);
    assert!(runs.iter().all(|r| r.warmup > SimDuration::ZERO));
    assert!(
        runs.iter().any(|r| r.scale_ups + r.scale_downs > 0),
        "the autoscaler acts"
    );
    assert!(runs.iter().any(|r| r.monitor_queue_depth.count() > 0));
}

#[test]
fn detail_is_passive_under_a_lossy_control_plane() {
    let cfg = pwa(30)
        .ctrl_faults(ControlPlaneFaultSpec {
            loss: ClassLoss::uniform(0.15),
            duplicate: 0.05,
            max_jitter: SimDuration::from_millis(400),
            flaky: None,
        })
        .retry(RetryConfig {
            timeout: SimDuration::from_secs(10),
            max_timeout: SimDuration::from_secs(40),
            max_attempts: 4,
            orphan_sweep_period: SimDuration::from_secs(60),
            orphan_grace: SimDuration::from_secs(90),
        })
        .build()
        .unwrap()
        .into_config();
    let runs = assert_detail_is_passive(std::slice::from_ref(&cfg), &[1, 2]);
    assert!(runs
        .iter()
        .any(|r| r.ctrl.messages_lost > 0 && r.ctrl.retries > 0));
}

#[test]
fn detail_is_passive_on_the_das3_network_with_files() {
    let base = pwa(24).build().unwrap().into_config();
    let mut trace = base.generate_workload_for_seed(5);
    for (k, job) in trace.iter_mut().enumerate() {
        job.spec.input_files = vec![k as u64 % 3];
    }
    let mut b = pwa(24).trace(trace).network("das3").reconfig_traffic(0.25);
    for home in [4, 1, 3] {
        b = b.network_file(20.0, [home]);
    }
    let cfg = b.build().unwrap().into_config();
    let runs = assert_detail_is_passive(std::slice::from_ref(&cfg), &[5]);
    assert!(runs[0].net.transfers_opened > 0, "files were staged");
    assert!(runs[0].transfer_time.count() > 0);
}

#[test]
fn detail_is_passive_in_warm_forks() {
    // Three policy cells sharing one warmed prefix: the run forks the
    // warmed world, detail and all, into each cell.
    let cfgs: Vec<ExperimentConfig> = ["fpsma", "egs", "greedy_grow_lazy_shrink"]
        .into_iter()
        .map(|policy| {
            pwa(30)
                .malleability(policy)
                .warm_fork(SimDuration::from_secs(600))
                .build()
                .unwrap()
                .into_config()
        })
        .collect();
    let runs = assert_detail_is_passive(&cfgs, &[7, 8]);
    // A sink is not world state: a warmed world with one attached still
    // snapshots, and each byte fork (which carries no sink) takes its own.
    let wf = cfgs[0].warm_fork.as_ref().unwrap();
    let mut prefix_seen = 0u64;
    let mut prefix_sink = |_: SimTime, _: &Obs| prefix_seen += 1;
    let mut engine = koala::engine_for(&cfgs[0]);
    let mut world = World::for_seed_summarized(&cfgs[0], 7).with_sink(&mut prefix_sink);
    world
        .use_policies(&wf.base_placement, &wf.base_malleability)
        .unwrap();
    world.bootstrap(&mut engine);
    world.run_until(&mut engine, SimTime::ZERO + wf.at);
    let snap = world
        .snapshot(&engine)
        .expect("a sink never blocks a snapshot");
    assert!(prefix_seen > 0);
    for (i, cfg) in cfgs.iter().enumerate() {
        let (fork, mut engine) = World::fork_with(cfg, &snap).unwrap();
        let mut seen = 0u64;
        let mut sink = |_: SimTime, _: &Obs| seen += 1;
        let r: SummaryReport = fork.with_sink(&mut sink).run_to_end(&mut engine);
        assert_eq!(r, runs[2 * i], "{}: forked with a sink", cfg.name);
        assert!(seen > 0);
    }
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

/// The streamed cell: a `trace1m` slice pulled through the bounded
/// look-ahead reports the same summary with a sink attached, and the
/// sink sees every job arrive and finish.
#[test]
fn a_sink_is_passive_on_a_streamed_trace1m_slice() {
    const JOBS: u64 = 3_000;
    let cfg = Scenario::builder()
        .workload("trace1m")
        .jobs(JOBS as usize)
        .no_horizon()
        .background(BackgroundLoad::none())
        .scheduler(|s| s.koala_share = 0.5)
        .summarized()
        .build()
        .unwrap()
        .into_config();
    let plain: SummaryReport = koala::run(&Run::cell(&cfg).streamed(256))
        .unwrap()
        .remove(0);
    let source = appsim::generate::WorkloadRegistry::global()
        .source("trace1m")
        .unwrap();
    let mut stream = source.stream(cfg.seed, JOBS);
    let mut counts = [0u64; Obs::NAMES.len()];
    let mut sink = |_: SimTime, obs: &Obs| counts[obs.kind()] += 1;
    let horizon = cfg.horizon.map(|h| SimTime::ZERO + h);
    let mut engine = Engine::configured(cfg.sched.event_queue, horizon, 256 * 2 + 64);
    let sunk: SummaryReport = World::for_stream_summarized(&cfg, cfg.seed, stream.as_mut(), 256)
        .with_sink(&mut sink)
        .run_to_end(&mut engine);
    assert_eq!(sunk, plain, "a sink changed the streamed summary");
    let count = |kind: &str| counts[Obs::NAMES.iter().position(|n| *n == kind).unwrap()];
    assert_eq!(count("arrive"), JOBS);
    assert_eq!(count("complete") + count("placement_failed"), JOBS);
}

#[test]
#[should_panic(expected = "report a SummaryReport")]
fn full_finish_of_a_summarized_world_panics() {
    let cfg = small("egs", 2, 1);
    let mut engine = koala::engine_for(&cfg);
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
