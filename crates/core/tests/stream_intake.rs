//! The one-intake contract: every workload — a trace, a generator or a
//! paper cell's generated jobs — streams through the look-ahead window,
//! streamed runs reproduce eager runs (an eager run is the unbounded
//! window), run in bounded memory, and stay bit-identical across thread
//! counts and the whole workload registry.

use appsim::generate::{VecStream, WorkloadRegistry};
use appsim::workload::WorkloadSpec;
use koala::config::{ExperimentConfig, WarmFork};
use koala::parallel::default_threads;
use koala::scenario::Scenario;
use koala::{run_stream_summary, Run, SummaryReport};
use multicluster::BackgroundLoad;
use simcore::SimDuration;

/// One eager summarized run of `cfg` under `seed`.
fn eager(cfg: &ExperimentConfig, seed: u64) -> SummaryReport {
    koala::run(&Run::seeds(cfg, &[seed])).unwrap().remove(0)
}

/// `cfg` streamed once per seed with `lookahead`, on `threads` workers.
fn streamed(
    cfg: &ExperimentConfig,
    seeds: &[u64],
    threads: usize,
    lookahead: usize,
) -> Vec<SummaryReport> {
    koala::run(&Run::seeds(cfg, seeds).threads(threads).streamed(lookahead)).unwrap()
}

/// A generator-backed scenario configuration for tests.
fn generator_cfg(source: &str, jobs: usize) -> koala::ExperimentConfig {
    Scenario::builder()
        .workload(source)
        .jobs(jobs)
        .build()
        .expect("valid generator scenario")
        .into_config()
}

/// The `trace1m` throughput scenario: short small jobs streamed with no
/// horizon and no background load, KOALA holding half the capacity.
fn trace1m_cfg(jobs: usize) -> koala::ExperimentConfig {
    Scenario::builder()
        .workload("trace1m")
        .jobs(jobs)
        .no_horizon()
        .background(BackgroundLoad::none())
        .scheduler(|s| s.koala_share = 0.5)
        .summarized()
        .build()
        .expect("valid trace scenario")
        .into_config()
}

#[test]
fn streamed_replay_of_a_fixed_trace_matches_the_eager_run() {
    // With a look-ahead window covering the whole trace, the streamed
    // bootstrap schedules exactly the event sequence of the eager one,
    // so the summaries must agree bit for bit — the deepest check the
    // job-slab refactor gets.
    // The warm-forked input runs the EGS prefix to 3000 s, then FPSMA,
    // on every intake.
    let mut forked = ExperimentConfig::paper_pra("fpsma", WorkloadSpec::wm_prime());
    forked.warm_fork = Some(WarmFork {
        base_malleability: "egs".to_string(),
        ..WarmFork::at(SimDuration::from_secs(3000))
    });
    let inputs = [
        (
            ExperimentConfig::paper_pra("egs", WorkloadSpec::wm()),
            40,
            9,
        ),
        (forked, 12, 5),
    ];
    for (mut cfg, jobs, seed) in inputs {
        cfg.workload.jobs = jobs;
        let trace = cfg.generate_workload_for_seed(seed);
        cfg.trace = Some(trace.clone());
        let mut stream = VecStream::new(trace);
        let replayed = run_stream_summary(&cfg, seed, &mut stream, 1024);
        let from_config = streamed(&cfg, &[seed], 1, 1024).remove(0);
        let eager = eager(&cfg, seed);
        assert!(
            replayed.peak_live_jobs < jobs as u64,
            "streamed runs retire jobs"
        );
        assert!(
            eager.peak_live_jobs < jobs as u64,
            "eager runs retire jobs too"
        );
        if cfg.warm_fork.take().is_some() {
            let unforked = self::eager(&cfg, seed);
            assert_ne!(unforked, eager, "the fork changes nothing");
        }
        assert_eq!(from_config, replayed);
        assert_eq!(eager, replayed);
    }
}

#[test]
fn streamed_generator_matches_the_eager_generator_path() {
    // Generator arrivals are continuous (Poisson), so event-time ties
    // between arrivals and the 10 s poll grid are practically absent and
    // a *small* look-ahead window still reproduces the eager trajectory.
    for source in ["poisson_lublin", "bursty_loguniform"] {
        let cfg = generator_cfg(source, 120);
        for seed in [3u64, 17] {
            let eager = eager(&cfg, seed);
            let streamed = streamed(&cfg, &[seed], 1, 16).remove(0);
            assert_eq!(
                eager, streamed,
                "{source}/seed {seed} diverged between intake modes"
            );
        }
    }
}

#[test]
fn lookahead_size_does_not_change_results() {
    let cfg = generator_cfg("poisson_loguniform", 150);
    let tiny = streamed(&cfg, &[5], 1, 1).remove(0);
    let huge = streamed(&cfg, &[5], 1, 100_000).remove(0);
    assert_eq!(tiny, huge);
}

#[test]
fn streamed_sweeps_are_identical_across_thread_counts() {
    let inputs = [
        (
            generator_cfg("poisson_lublin", 60),
            vec![1u64, 2, 3, 4, 5, 6],
            32,
        ),
        (trace1m_cfg(2_000), vec![42, 43], 1024),
    ];
    for (cfg, seeds, lookahead) in &inputs {
        let sequential = streamed(cfg, seeds, 1, *lookahead);
        for threads in [2, 4] {
            let parallel = streamed(cfg, seeds, threads, *lookahead);
            assert_eq!(
                sequential, parallel,
                "{}: threads={threads} diverged",
                cfg.name
            );
        }
    }
}

mod registry_determinism {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]
        /// Over the whole workload registry: the same seed produces a
        /// bit-identical streamed sweep on the sequential and parallel
        /// runners, and different seeds produce distinct results.
        #[test]
        fn streamed_sweeps_are_deterministic_per_source(
            seed0 in 0u64..10_000,
            source_idx in 0usize..16,
            threads in 2usize..5,
        ) {
            let names = WorkloadRegistry::global().names();
            let name = &names[source_idx % names.len()];
            let cfg = generator_cfg(name, 30);
            let seeds = [seed0, seed0 + 1];
            let sequential = streamed(&cfg, &seeds, 1, 8);
            let parallel = streamed(&cfg, &seeds, threads, 8);
            prop_assert_eq!(&sequential, &parallel, "{} diverged across runners", name);
            prop_assert_ne!(
                &sequential[0], &sequential[1],
                "{} ignores its seed", name
            );
        }
    }
}

#[test]
fn every_registered_source_builds_and_runs_by_name() {
    // The acceptance check: Scenario::builder() selects every registered
    // workload source by name, and both the eager and the streamed
    // summary paths execute it.
    for name in WorkloadRegistry::global().names() {
        let scenario = Scenario::builder()
            .workload(name.as_str())
            .jobs(25)
            .summarized()
            .build()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let src = WorkloadRegistry::global().source(&name).unwrap();
        assert_eq!(
            scenario.config().name,
            format!("FPSMA/{}", src.label()),
            "cell names derive from the source label"
        );
        let eager = scenario.run::<SummaryReport>();
        assert_eq!(eager.runs.len(), 1);
        assert_eq!(eager.runs[0].jobs_submitted, 25, "{name}");
        let streamed = streamed(scenario.config(), scenario.seeds(), default_threads(), 8);
        assert_eq!(streamed[0].jobs_submitted, 25, "{name}");
        assert!(
            streamed[0].completion_ratio() > 0.9,
            "{name}: completion {}",
            streamed[0].completion_ratio()
        );
    }
}

#[test]
fn explicit_traces_keep_their_precedence_on_the_streamed_path() {
    // A configuration carrying BOTH a trace and a generator must
    // simulate the trace on every runner — eager and streamed alike —
    // or the same config would mean two different workloads.
    let mut cfg = generator_cfg("poisson_lublin", 50);
    let trace = WorkloadRegistry::global()
        .source("poisson_loguniform")
        .unwrap()
        .generate(123, 50);
    cfg.trace = Some(trace);
    let eager = eager(&cfg, 9);
    let streamed = streamed(&cfg, &[9], 1, 1024).remove(0);
    assert_eq!(eager, streamed);
}

#[test]
fn paper_cells_stream_and_match_the_eager_run() {
    // A paper cell has no trace and no generator: its jobs come from
    // `cfg.workload.generate`, and they stream like any other workload.
    let cells = [
        ExperimentConfig::paper_pra("fpsma", WorkloadSpec::wm()),
        ExperimentConfig::paper_pwa("egs", WorkloadSpec::wmr_prime()),
    ];
    for mut cfg in cells {
        cfg.workload.jobs = 40;
        assert!(cfg.trace.is_none() && cfg.generator.is_none());
        let seeds = [3u64, 4];
        let eager: Vec<SummaryReport> = koala::run(&Run::seeds(&cfg, &seeds)).unwrap();
        assert_eq!(streamed(&cfg, &seeds, 1, 1024), eager, "{}", cfg.name);
        assert!(eager.iter().all(|s| s.jobs_submitted == 40));
    }
}

#[test]
fn a_horizon_cut_counts_every_pulled_job_on_both_intakes() {
    // A job counts as submitted when the intake pulls it, so a horizon
    // that cuts the run at job 30's arrival still counts the whole
    // 60-job trace when the window covers it, eager and streamed alike.
    let mut cfg = ExperimentConfig::paper_pra("egs", WorkloadSpec::wm());
    cfg.workload.jobs = 60;
    let trace = cfg.generate_workload_for_seed(9);
    cfg.horizon = Some(SimDuration::from_millis(trace[30].at.as_millis()));
    cfg.trace = Some(trace);
    let eager = eager(&cfg, 9);
    let streamed = streamed(&cfg, &[9], 1, 1024).remove(0);
    assert_eq!(eager, streamed);
    assert_eq!(eager.jobs_submitted, 60);
    assert!(eager.jobs_completed < 30, "the horizon cuts the run");
}

#[test]
fn swf_stream_errors_are_observable_after_a_streamed_run() {
    // A truncating parse failure must not masquerade as a successful
    // shorter run: the stream is borrowed, so the caller can check it.
    use appsim::swf::{SwfImport, SwfJobStream};
    let good = "1 0 5 120 2 -1 -1 4 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
    let text = format!("{good}CORRUPTED LINE\n{good}");
    let mut stream = SwfJobStream::new(
        std::io::Cursor::new(text.into_bytes()),
        SwfImport::default(),
    );
    let cfg = koala::ExperimentConfig::paper_pra("fpsma", WorkloadSpec::wm());
    let report = run_stream_summary(&cfg, 1, &mut stream, 16);
    assert_eq!(report.jobs_submitted, 1, "stream stops at the bad line");
    let err = stream.error().expect("the truncation is observable");
    assert!(err.to_string().contains("line 2"), "{err}");
}

#[test]
fn unknown_source_names_fail_the_build_with_the_known_list() {
    let err = Scenario::builder()
        .workload("no_such_source")
        .build()
        .expect_err("unknown source must fail");
    let msg = err.to_string();
    assert!(msg.contains("no_such_source"), "{msg}");
    assert!(msg.contains("poisson_lublin"), "{msg}");
}

/// The full acceptance run: one million jobs end-to-end in bounded
/// memory, plus the streamed runner's sequential == parallel check on a
/// 20 000-job trace of the same shape. Ignored under plain `cargo test`
/// (it needs release-grade speed); run it with
/// `cargo test --release -p koala --test stream_intake -- --include-ignored`.
#[test]
#[ignore = "million-job run: release-only"]
fn million_job_stream_runs_in_bounded_memory() {
    const JOBS: usize = 1_000_000;
    let report = streamed(&trace1m_cfg(JOBS), &[42], 1, 1024).remove(0);
    assert_eq!(report.jobs_submitted, JOBS as u64);
    assert!((report.completion_ratio() - 1.0).abs() < 1e-9);
    assert!(
        report.peak_live_jobs < 5_000,
        "live jobs must stay bounded, got {}",
        report.peak_live_jobs
    );
    let cfg = trace1m_cfg(20_000);
    let seeds = [42u64, 43];
    let sequential = streamed(&cfg, &seeds, 1, 1024);
    let parallel = streamed(&cfg, &seeds, 2, 1024);
    assert_eq!(
        sequential, parallel,
        "streamed parallel runner diverged from sequential"
    );
}

#[test]
fn long_streams_run_in_bounded_memory() {
    // 30 000 short jobs through the streaming intake: the live-job
    // high-water mark must stay at queue-depth scale, not trace scale —
    // the witness that no `Vec<Job>` is ever materialized. (The
    // million-job version of this check is the ignored
    // `million_job_stream_runs_in_bounded_memory`; same code path,
    // larger N.)
    const JOBS: usize = 30_000;
    let report = streamed(&trace1m_cfg(JOBS), &[42], 1, 256).remove(0);
    assert_eq!(report.jobs_submitted, JOBS as u64);
    assert!(
        (report.completion_ratio() - 1.0).abs() < 1e-9,
        "all jobs complete: {}",
        report.completion_ratio()
    );
    assert!(
        report.peak_live_jobs < 2_000,
        "live jobs must stay bounded (queue-depth scale), got {}",
        report.peak_live_jobs
    );
}
