//! End-to-end tests of the elasticity layer: monitoring, autoscaling,
//! seeded node failures and stale-view scheduling — plus the guarantee
//! that none of it breaks the parallel runner's bit-identical
//! determinism.

use appsim::workload::WorkloadSpec;
use koala::config::ExperimentConfig;
use koala::scenario::Scenario;
use koala::sim::Ev;
use koala::{JobPhase, Report, Run, RunReport, SummaryReport, World};
use koala_metrics::JobOutcome;
use multicluster::{FailurePolicy, FailureSpec};
use simcore::SimDuration;

/// `cfg` once per seed on `threads` workers, aggregated in seed order.
fn sweep<R: Report>(cfg: &ExperimentConfig, seeds: &[u64], threads: usize) -> R::Multi {
    let runs = koala::run(&Run::seeds(cfg, seeds).threads(threads)).unwrap();
    R::aggregate(cfg.name.clone(), runs)
}

/// One run of `cfg` under its own seed.
fn one<R: Report>(cfg: &ExperimentConfig) -> R {
    koala::run(&Run::cell(cfg)).unwrap().remove(0)
}

fn failures_every(mtbf_s: u64) -> FailureSpec {
    FailureSpec::new(
        SimDuration::from_secs(mtbf_s),
        SimDuration::from_secs(600),
        12,
    )
}

/// The full elastic stack — bursty-ish load, threshold autoscaler,
/// failures, staleness, monitoring — on the parallel runner: the merged
/// report renders byte-identically to the sequential loop. Besides the
/// full stack, four scenarios each stress one elastic axis:
///
/// * `threshold_bursty` — bursty Lublin arrivals under the utilization
///   `threshold` scaler, recurring crashes, and a 45 s stale view;
/// * `queue_depth_requeue` — the `queue_depth` scaler with crashed jobs
///   re-queued;
/// * `kill_policy` — no scaler, frequent crashes, crashed jobs killed;
/// * `stale_view` — a 5-minute KIS lag and nothing else.
#[test]
fn elastic_scenario_is_bit_identical_parallel_vs_sequential() {
    let monitored = |seeds: &[u64]| {
        Scenario::builder()
            .jobs(24)
            .monitor(SimDuration::from_secs(120))
            .seeds(seeds.iter().copied())
    };
    let scenarios = [
        (
            "full_stack",
            monitored(&[1, 2, 3, 4])
                .malleability("fpsma")
                .workload(WorkloadSpec::wm())
                .autoscaler("threshold")
                .autoscale_timing(SimDuration::from_secs(300), SimDuration::from_secs(30))
                .failures(failures_every(1800))
                .staleness(SimDuration::from_secs(45)),
        ),
        (
            "threshold_bursty",
            monitored(&[101, 202])
                .malleability("fpsma")
                .workload("bursty_lublin")
                .autoscaler("threshold")
                .autoscale_timing(SimDuration::from_secs(300), SimDuration::from_secs(30))
                .failures(failures_every(1800))
                .staleness(SimDuration::from_secs(45)),
        ),
        (
            "queue_depth_requeue",
            monitored(&[101, 202])
                .malleability("egs")
                .workload(WorkloadSpec::wm())
                .autoscaler("queue_depth")
                .autoscale_timing(SimDuration::from_secs(600), SimDuration::from_secs(60))
                .failures(failures_every(3600))
                .failure_policy(FailurePolicy::Requeue),
        ),
        (
            "kill_policy",
            monitored(&[101, 202])
                .malleability("fpsma")
                .workload(WorkloadSpec::wm())
                .failures(failures_every(900))
                .failure_policy(FailurePolicy::Kill),
        ),
        (
            "stale_view",
            monitored(&[101, 202])
                .malleability("egs")
                .workload(WorkloadSpec::wmr())
                .staleness(SimDuration::from_secs(300)),
        ),
    ];
    for (name, builder) in scenarios {
        let scenario = builder.build().unwrap();
        let cfg = scenario.config();
        let seeds = scenario.seeds();
        let sequential = sweep::<RunReport>(cfg, seeds, 1);
        let parallel = sweep::<RunReport>(cfg, seeds, 3);
        assert_eq!(
            format!("{sequential:?}"),
            format!("{parallel:?}"),
            "{name}: elastic full-report sweep diverged across thread counts"
        );
        let seq_summary = sweep::<SummaryReport>(cfg, seeds, 1);
        let par_summary = sweep::<SummaryReport>(cfg, seeds, 3);
        assert_eq!(
            format!("{seq_summary:?}"),
            format!("{par_summary:?}"),
            "{name}: elastic summarized sweep diverged across thread counts"
        );
        let pooled = seq_summary.pooled();
        assert_eq!(
            format!("{pooled:?}"),
            format!("{:?}", par_summary.pooled()),
            "{name}: pooled summaries diverged across thread counts"
        );
        // The monitoring streams actually saw samples.
        assert!(
            pooled.monitor_utilization.count() > 0,
            "{name}: monitoring on, but no utilization samples were recorded"
        );
        assert!(pooled.monitor_queue_depth.count() > 0, "{name}");
    }
}

/// 600-job soak under autoscaling and recurring node crashes with the
/// re-queue policy: every job eventually completes (crashes cost work,
/// never jobs), some were demonstrably re-queued, and the scaler
/// demonstrably acted.
#[test]
fn soak_autoscaled_with_failures_completes_every_job() {
    let scenario = Scenario::builder()
        .malleability("egs")
        .workload(WorkloadSpec::wm())
        .jobs(600)
        .monitor(SimDuration::from_secs(300))
        .autoscaler("queue_depth")
        .autoscale_timing(SimDuration::from_secs(600), SimDuration::from_secs(60))
        .failures(failures_every(3600))
        .failure_policy(FailurePolicy::Requeue)
        .seed(11)
        .build()
        .unwrap();
    let r = one::<RunReport>(scenario.config());
    assert_eq!(r.jobs.len(), 600);
    assert!(
        r.summary.jobs_requeued > 0,
        "the failure stream never hit a running job — tune mtbf down"
    );
    assert_eq!(r.summary.jobs_killed, 0, "requeue policy must not kill");
    for rec in r.jobs.records() {
        assert_eq!(
            rec.outcome,
            JobOutcome::Completed,
            "job {} ended {:?} instead of completing",
            rec.id,
            rec.outcome
        );
    }
}

/// The kill policy terminates jobs whose nodes crash: killed jobs are
/// counted, marked [`JobOutcome::Killed`], and everything else still
/// reaches a terminal state.
#[test]
fn kill_policy_kills_and_accounts_for_crashed_jobs() {
    let scenario = Scenario::builder()
        .malleability("fpsma")
        .workload(WorkloadSpec::wm())
        .jobs(120)
        .failures(failures_every(900))
        .failure_policy(FailurePolicy::Kill)
        .seed(5)
        .build()
        .unwrap();
    let r = one::<RunReport>(scenario.config());
    assert!(
        r.summary.jobs_killed > 0,
        "no job was ever on a crashed node — tune mtbf down"
    );
    let killed = r
        .jobs
        .records()
        .iter()
        .filter(|rec| rec.outcome == JobOutcome::Killed)
        .count() as u64;
    assert_eq!(
        killed, r.summary.jobs_killed,
        "counter and job table disagree"
    );
    for rec in r.jobs.records() {
        assert_ne!(
            rec.outcome,
            JobOutcome::Unfinished,
            "job {} left dangling after a crash",
            rec.id
        );
    }
}

/// Monitoring is strictly passive: switching it on changes no job's
/// trajectory, only the report's extra series.
#[test]
fn monitoring_does_not_perturb_the_run() {
    let base = Scenario::builder()
        .malleability("egs")
        .workload(WorkloadSpec::wm())
        .jobs(20)
        .seed(3);
    let plain = base.clone().build().unwrap();
    let monitored = base.monitor(SimDuration::from_secs(60)).build().unwrap();
    let r_plain = one::<RunReport>(plain.config());
    let r_mon = one::<RunReport>(monitored.config());
    assert_eq!(
        format!("{:?}", r_plain.jobs),
        format!("{:?}", r_mon.jobs),
        "monitoring changed job outcomes"
    );
    assert_eq!(r_plain.summary.makespan, r_mon.summary.makespan);
}

/// A mostly idle system under the threshold scaler gets scaled down —
/// and the withdrawals never touch a running job, so everything still
/// completes.
#[test]
fn threshold_scaler_shrinks_an_idle_system() {
    let scenario = Scenario::builder()
        .malleability("fpsma")
        .workload(WorkloadSpec::wm())
        .jobs(6)
        .background(multicluster::BackgroundLoad::none())
        .autoscaler("threshold")
        .autoscale_timing(SimDuration::from_secs(300), SimDuration::from_secs(30))
        .seed(2)
        .build()
        .unwrap();
    let r = one::<RunReport>(scenario.config());
    assert!(
        r.summary.scale_downs > 0,
        "an almost-empty DAS-3 should trip the low-utilization band"
    );
    assert!((r.jobs.completion_ratio() - 1.0).abs() < 1e-12);
}

/// Satellite: a **never-polled** information service is maximally
/// stale — the scheduler refuses to place against it instead of
/// panicking or placing blind, and recovers at the first real poll.
#[test]
fn never_polled_kis_blocks_placement_until_the_first_poll() {
    let scenario = Scenario::builder()
        .malleability("fpsma")
        .workload(WorkloadSpec::wm())
        .jobs(2)
        .seed(9)
        .build()
        .unwrap();
    let cfg = scenario.config();
    let mut engine = koala::engine_for(cfg);
    let mut w = World::for_seed(cfg, 9);
    // Bootstrap only schedules events (the arrivals pulled into the
    // intake among them); none is delivered, so no KisPoll has fired.
    w.bootstrap(&mut engine);
    w.handle(&mut engine, Ev::Arrival(0));
    assert_eq!(
        w.job_phase(koala::JobId(0)),
        JobPhase::Queued,
        "job placed against a never-polled (maximally stale) view"
    );
    assert_eq!(w.multicluster().total_used_by_koala(), 0);
    // The first poll publishes a snapshot and the queued job places.
    w.handle(&mut engine, Ev::KisPoll);
    assert_ne!(
        w.job_phase(koala::JobId(0)),
        JobPhase::Queued,
        "fresh snapshot should unblock placement"
    );
}

/// Staleness as a scenario axis: with a large KIS lag, even a *polled*
/// snapshot is withheld until it matures, so early arrivals keep
/// queueing exactly as with a never-polled service.
#[test]
fn stale_views_delay_placement() {
    let scenario = Scenario::builder()
        .malleability("fpsma")
        .workload(WorkloadSpec::wm())
        .jobs(2)
        .staleness(SimDuration::from_secs(3600))
        .seed(9)
        .build()
        .unwrap();
    let cfg = scenario.config();
    let mut engine = koala::engine_for(cfg);
    let mut w = World::for_seed(cfg, 9);
    // Pull the arrivals (bootstrap delivers nothing), then poll at t=0:
    // the snapshot exists but is still in flight (age 0 < lag), so
    // placement must keep refusing.
    w.bootstrap(&mut engine);
    w.handle(&mut engine, Ev::KisPoll);
    w.handle(&mut engine, Ev::Arrival(0));
    assert_eq!(
        w.job_phase(koala::JobId(0)),
        JobPhase::Queued,
        "job placed against a snapshot younger than the configured lag"
    );
    assert_eq!(w.multicluster().total_used_by_koala(), 0);
}
