//! The observation stream's contract: the [`Obs`] events a sink sees are
//! the events the summary counts, and each job's events form a valid
//! lifecycle — arrive → place → start → (grow|shrink → resume)* →
//! terminal, at nondecreasing times — on eager and streamed intake,
//! across application-initiated growth, PWA shrinks, staged files on the
//! das3 network, crashes under both failure policies, the threshold
//! autoscaler and a lossy control plane.

use std::collections::HashMap;

use appsim::generate::{SliceStream, WorkloadRegistry};
use appsim::workload::WorkloadSpec;
use koala::config::{ExperimentConfig, RetryConfig};
use koala::scenario::{Scenario, ScenarioBuilder};
use koala::{JobId, Obs, SummaryReport, World};
use multicluster::{BackgroundLoad, ClassLoss, ControlPlaneFaultSpec, FailurePolicy, FailureSpec};
use simcore::{Engine, SimDuration, SimTime};

/// What a recording sink saw: every event in order, and a tally per kind.
struct Seen {
    events: Vec<(SimTime, Obs)>,
    counts: [u64; Obs::NAMES.len()],
}

impl Seen {
    fn count(&self, kind: &str) -> u64 {
        let i = Obs::NAMES
            .iter()
            .position(|k| *k == kind)
            .expect("known kind");
        self.counts[i]
    }
}

/// Runs `run` with a recording sink for it to attach.
fn record(
    run: impl FnOnce(&mut dyn FnMut(SimTime, &Obs)) -> SummaryReport,
) -> (SummaryReport, Seen) {
    let mut seen = Seen {
        events: Vec::new(),
        counts: [0; Obs::NAMES.len()],
    };
    let summary = run(&mut |t, obs| {
        seen.counts[obs.kind()] += 1;
        seen.events.push((t, *obs));
    });
    (summary, seen)
}

/// One run of a configuration under a seed, with a recording sink.
type Runner = fn(&ExperimentConfig, u64) -> (SummaryReport, Seen);

/// `cfg` under `seed`, eager intake.
fn eager(cfg: &ExperimentConfig, seed: u64) -> (SummaryReport, Seen) {
    let mut engine = koala::engine_for(cfg);
    record(|sink| {
        World::for_seed_summarized(cfg, seed)
            .with_sink(sink)
            .run_to_end(&mut engine)
    })
}

/// `cfg` under `seed`, its workload streamed through a 64-job window.
fn streamed(cfg: &ExperimentConfig, seed: u64) -> (SummaryReport, Seen) {
    let workload = cfg
        .trace
        .clone()
        .unwrap_or_else(|| cfg.generate_workload_for_seed(seed));
    let mut stream = SliceStream::new(&workload);
    let horizon = cfg.horizon.map(|h| SimTime::ZERO + h);
    let mut engine = Engine::configured(cfg.sched.event_queue, horizon, 64 * 2 + 64);
    record(|sink| {
        World::for_stream_summarized(cfg, seed, &mut stream, 64)
            .with_sink(sink)
            .run_to_end(&mut engine)
    })
}

/// Where a job is in its lifecycle, as its events tell it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Queued,
    Placed,
    Running,
    /// A grow or shrink was accepted and has not resumed yet.
    Resizing,
    Done,
}

/// Checks every job's event sequence against the lifecycle automaton
/// and returns how many jobs reached a terminal event.
fn assert_lifecycles(cell: &str, events: &[(SimTime, Obs)]) -> u64 {
    use Stage::*;
    let mut jobs: HashMap<JobId, (Stage, SimTime)> = HashMap::new();
    for &(t, obs) in events {
        let Some(job) = obs.job() else { continue };
        let prev = jobs.get(&job).copied();
        if let Some((_, last)) = prev {
            assert!(t >= last, "{cell}: {job} went back in time at {obs:?}");
        }
        let next = match (prev.map(|p| p.0), obs) {
            (None, Obs::Arrive { .. }) => Queued,
            (Some(Queued | Placed), Obs::Place { .. }) => Placed,
            (Some(Placed), Obs::Stage { .. }) => Placed,
            (Some(Placed), Obs::Start { .. }) => Running,
            (Some(Queued | Placed), Obs::PlacementFailed { .. }) => Done,
            (Some(Placed), Obs::CtrlRequeue { .. }) => Queued,
            (Some(Running), Obs::Grow { .. } | Obs::Shrink { .. }) => Resizing,
            (Some(Resizing), Obs::CtrlForceSync { .. }) => Resizing,
            (Some(Resizing), Obs::Resume { .. } | Obs::CtrlAbortGrow { .. }) => Running,
            (Some(Running), Obs::CtrlReleaseLost { .. } | Obs::CtrlReclaim { .. }) => Running,
            // A completion cancels a grow whose stubs are still submitting.
            (Some(Running | Resizing), Obs::Complete { .. }) => Done,
            (Some(Placed | Running | Resizing), Obs::Killed { .. }) => Done,
            (Some(Placed | Running | Resizing), Obs::Requeue { .. }) => Queued,
            (stage, obs) => panic!("{cell}: {job} saw {obs:?} at {t} in stage {stage:?}"),
        };
        jobs.insert(job, (next, t));
    }
    for (job, (stage, _)) in &jobs {
        assert_eq!(*stage, Done, "{cell}: {job} never finished");
    }
    jobs.len() as u64
}

/// The per-kind tallies equal the summary's counters, and every job's
/// lifecycle is valid.
fn assert_stream_agrees(cell: &str, s: &SummaryReport, seen: &Seen) {
    assert_eq!(
        s.warmup,
        SimDuration::ZERO,
        "{cell}: counts need no warm-up"
    );
    assert_eq!(seen.count("arrive"), s.jobs_submitted, "{cell}");
    assert_eq!(seen.count("complete"), s.jobs_completed, "{cell}");
    assert_eq!(seen.count("placement_failed"), s.jobs_failed, "{cell}");
    assert_eq!(seen.count("grow"), s.grow_ops, "{cell}");
    assert_eq!(seen.count("shrink"), s.shrink_ops, "{cell}");
    assert_eq!(seen.count("killed"), s.jobs_killed, "{cell}");
    assert_eq!(seen.count("requeue"), s.jobs_requeued, "{cell}");
    assert_eq!(seen.count("scale_up"), s.scale_ups, "{cell}");
    assert_eq!(seen.count("scale_down"), s.scale_downs, "{cell}");
    let finished = assert_lifecycles(cell, &seen.events);
    assert_eq!(finished, s.jobs_submitted, "{cell}");
}

/// A PWA W'm scenario the subsystem cells start from.
fn pwa(jobs: usize) -> ScenarioBuilder {
    Scenario::builder()
        .malleability("egs")
        .pwa()
        .workload(WorkloadSpec::wm_prime())
        .jobs(jobs)
}

fn crashes(policy: FailurePolicy) -> ExperimentConfig {
    pwa(60)
        .failures(FailureSpec::new(
            SimDuration::from_secs(300),
            SimDuration::from_secs(300),
            32,
        ))
        .failure_policy(policy)
        .seed(5)
        .build()
        .unwrap()
        .into_config()
}

fn initiative() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_pra("fpsma", WorkloadSpec::wm());
    cfg.workload.jobs = 8;
    cfg.seed = 7;
    cfg.workload.initiative = Some(appsim::GrowInitiative {
        at_progress: 0.3,
        extra: 8,
    });
    cfg.workload.initiative_fraction = 1.0;
    cfg
}

fn pwa_shrinks() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_pwa("egs", WorkloadSpec::wm_prime());
    cfg.workload.jobs = 200;
    cfg.seed = 3;
    cfg
}

fn das3_files() -> ExperimentConfig {
    let base = pwa(24).build().unwrap().into_config();
    let mut trace = base.generate_workload_for_seed(5);
    for (k, job) in trace.iter_mut().enumerate() {
        job.spec.input_files = vec![k as u64 % 3];
    }
    let mut b = pwa(24)
        .trace(trace)
        .seed(5)
        .network("das3")
        .reconfig_traffic(0.25);
    for home in [4, 1, 3] {
        b = b.network_file(20.0, [home]);
    }
    b.build().unwrap().into_config()
}

fn autoscaler() -> ExperimentConfig {
    pwa(40)
        .autoscaler("threshold")
        .autoscale_timing(SimDuration::from_secs(300), SimDuration::from_secs(30))
        .build()
        .unwrap()
        .into_config()
}

fn lossy() -> ExperimentConfig {
    pwa(30)
        .ctrl_faults(ControlPlaneFaultSpec {
            loss: ClassLoss::uniform(0.4),
            duplicate: 0.05,
            max_jitter: SimDuration::from_millis(400),
            flaky: None,
        })
        .retry(RetryConfig {
            timeout: SimDuration::from_secs(10),
            max_timeout: SimDuration::from_secs(40),
            max_attempts: 2,
            orphan_sweep_period: SimDuration::from_secs(60),
            orphan_grace: SimDuration::from_secs(90),
        })
        .build()
        .unwrap()
        .into_config()
}

#[test]
fn obs_stream_agrees_with_the_summary() {
    // Each cell with the kinds of which at least one must occur.
    let cells = [
        ("initiative", initiative(), &["grow"][..]),
        ("pwa shrinks", pwa_shrinks(), &["shrink"]),
        ("das3 files", das3_files(), &["stage"]),
        ("crash kill", crashes(FailurePolicy::Kill), &["killed"]),
        (
            "crash requeue",
            crashes(FailurePolicy::Requeue),
            &["requeue"],
        ),
        ("autoscaler", autoscaler(), &["scale_up", "scale_down"]),
        (
            "lossy ctrl",
            lossy(),
            &[
                "ctrl_requeue",
                "ctrl_abort_grow",
                "ctrl_force_sync",
                "ctrl_release_lost",
            ],
        ),
    ];
    let intakes: [(&str, Runner); 2] = [("eager", eager), ("streamed", streamed)];
    for (name, cfg, kinds) in &cells {
        for (intake, run) in intakes {
            let cell = format!("{name} ({intake})");
            let (s, seen) = run(cfg, cfg.seed);
            assert!(
                kinds.iter().any(|k| seen.count(k) > 0),
                "{cell}: no {kinds:?} event, the subsystem never acted"
            );
            assert_stream_agrees(&cell, &s, &seen);
        }
    }
}

/// A streamed `trace1m` slice: the sink sees every job from arrival to
/// its terminal event.
#[test]
fn every_streamed_trace1m_job_has_a_full_lifecycle() {
    const JOBS: u64 = 2_000;
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
    let source = WorkloadRegistry::global().source("trace1m").unwrap();
    let mut stream = source.stream(1, JOBS);
    let horizon = cfg.horizon.map(|h| SimTime::ZERO + h);
    let mut engine = Engine::configured(cfg.sched.event_queue, horizon, 1024 * 2 + 64);
    let (s, seen) = record(|sink| {
        World::for_stream_summarized(&cfg, 1, stream.as_mut(), 1024)
            .with_sink(sink)
            .run_to_end(&mut engine)
    });
    assert_eq!(s.jobs_submitted, JOBS);
    assert_stream_agrees("trace1m", &s, &seen);
}
