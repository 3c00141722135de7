//! Control-plane fault injection: the fault-off passivity guard plus
//! end-to-end behaviour under lossy KOALA↔GRAM messaging.
//!
//! The passivity guard pins the **PR 6 baseline trajectory**: with
//! `ControlPlaneFaults` disabled (the default), the retry/timeout
//! machinery must be pure plumbing — every scheduler decision, RNG draw
//! and event timestamp identical to the code before the fault layer
//! existed. The golden file under `tests/golden/` was generated from the
//! pre-fault-layer tree and deliberately renders only the fields that
//! existed then, so growing the report with new counters cannot mask a
//! trajectory drift.
//!
//! To regenerate after an *intentional* trajectory change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p koala --test ctrl_faults
//! ```
//!
//! and commit the updated file with a rationale.

use appsim::workload::WorkloadSpec;
use koala::config::RetryConfig;
use koala::report::{MultiSummary, SummaryReport};
use koala::scenario::Scenario;
use koala::Run;
use multicluster::{
    ClassLoss, ControlPlaneFaultSpec, FailurePolicy, FailureSpec, FlakyChannelSpec,
};
use simcore::SimDuration;

fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Renders exactly the report surface that existed in the PR 6 baseline
/// — a byte-stable trajectory fingerprint that survives later report
/// extensions (new counters must default to rendering *outside* this
/// function).
fn render(tag: &str, s: &SummaryReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {tag} ==\n"));
    out.push_str(&format!("name: {}\n", s.name));
    out.push_str(&format!("seed: {}\n", s.seed));
    out.push_str(&format!(
        "jobs: submitted={} completed={} failed={}\n",
        s.jobs_submitted, s.jobs_completed, s.jobs_failed
    ));
    out.push_str(&format!("execution_time: {:?}\n", s.execution_time));
    out.push_str(&format!("response_time: {:?}\n", s.response_time));
    out.push_str(&format!("wait_time: {:?}\n", s.wait_time));
    out.push_str(&format!("avg_size: {:?}\n", s.avg_size));
    out.push_str(&format!("max_size: {:?}\n", s.max_size));
    out.push_str(&format!("slowdown: {:?}\n", s.slowdown));
    out.push_str(&format!(
        "ops: grow={} shrink={} grow_msgs={} shrink_msgs={}\n",
        s.grow_ops, s.shrink_ops, s.grow_messages, s.shrink_messages
    ));
    out.push_str(&format!("makespan: {:?}\n", s.makespan));
    out.push_str(&format!(
        "counters: kis_polls={} placement_tries={} failed_submissions={} events={} peak_live={}\n",
        s.kis_polls, s.placement_tries, s.failed_submissions, s.events, s.peak_live_jobs
    ));
    out.push_str(&format!(
        "monitor_utilization: {:?}\n",
        s.monitor_utilization
    ));
    out.push_str(&format!(
        "monitor_queue_depth: {:?}\n",
        s.monitor_queue_depth
    ));
    out.push_str(&format!(
        "elastic: scale_ups={} scale_downs={} killed={} requeued={}\n",
        s.scale_ups, s.scale_downs, s.jobs_killed, s.jobs_requeued
    ));
    out.push_str(&format!(
        "util: mean={:?} koala={:?}\n",
        s.mean_utilization(),
        s.mean_koala_utilization()
    ));
    out
}

/// The baseline scenario set: the paper preset, both approaches, and the
/// full elastic stack (monitoring + autoscaling + node crashes + stale
/// views) — each summarized over multiple seeds, rendered per seed and
/// pooled.
fn baseline_fingerprint() -> String {
    let scenarios = vec![
        (
            "paper-pra",
            Scenario::builder()
                .malleability("fpsma")
                .workload(WorkloadSpec::wm())
                .jobs(24)
                .summarized()
                .seeds([1, 2])
                .build()
                .unwrap(),
        ),
        (
            "paper-pwa",
            Scenario::builder()
                .malleability("egs")
                .workload(WorkloadSpec::wm_prime())
                .jobs(16)
                .pwa()
                .summarized()
                .seeds([3, 4])
                .build()
                .unwrap(),
        ),
        (
            "elastic-stack",
            Scenario::builder()
                .malleability("fpsma")
                .workload(WorkloadSpec::wm())
                .jobs(24)
                .monitor(SimDuration::from_secs(120))
                .autoscaler("threshold")
                .autoscale_timing(SimDuration::from_secs(300), SimDuration::from_secs(30))
                .failures(FailureSpec::new(
                    SimDuration::from_secs(1800),
                    SimDuration::from_secs(600),
                    12,
                ))
                .failure_policy(FailurePolicy::Requeue)
                .staleness(SimDuration::from_secs(45))
                .summarized()
                .seeds([1, 2, 3, 4])
                .build()
                .unwrap(),
        ),
    ];
    let mut text = String::new();
    for (tag, scenario) in scenarios {
        let multi = scenario.run::<SummaryReport>();
        for run in &multi.runs {
            text.push_str(&render(&format!("{tag} seed {}", run.seed), run));
        }
        text.push_str(&render(&format!("{tag} pooled"), &multi.pooled()));
    }
    text
}

/// Fault-off passivity: the trajectory fingerprint of every baseline
/// scenario is byte-identical to the pre-fault-layer (PR 6) golden.
#[test]
fn fault_off_runs_are_bit_identical_to_pr6_baseline() {
    let text = baseline_fingerprint();
    let path = golden_dir().join("pr6_baseline.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, &text).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        text.as_str(),
        golden.as_str(),
        "fault-off trajectory drifted from the PR 6 baseline; the control-plane \
         fault layer must be strictly passive when disabled. If the drift is an \
         intentional trajectory change, regenerate with UPDATE_GOLDEN=1 and \
         explain why in the commit message."
    );
}

/// An aggressive fault spec: 20 % loss on every message class, 10 %
/// duplication, jitter, and minutes-long flaky episodes with 60 % loss.
fn chaos_spec() -> ControlPlaneFaultSpec {
    ControlPlaneFaultSpec {
        loss: ClassLoss::uniform(0.20),
        duplicate: 0.10,
        max_jitter: SimDuration::from_millis(400),
        flaky: Some(FlakyChannelSpec {
            mean_gap: SimDuration::from_secs(1200),
            mean_duration: SimDuration::from_secs(300),
            loss: 0.6,
        }),
    }
}

/// A tightened retry block so timeouts and the orphan sweep actually
/// fire within a short test horizon.
fn fast_retry() -> RetryConfig {
    RetryConfig {
        timeout: SimDuration::from_secs(10),
        max_timeout: SimDuration::from_secs(40),
        max_attempts: 3,
        orphan_sweep_period: SimDuration::from_secs(30),
        orphan_grace: SimDuration::from_secs(50),
    }
}

fn chaos_scenario(policy: FailurePolicy, seeds: impl IntoIterator<Item = u64>) -> Scenario {
    Scenario::builder()
        .malleability("fpsma")
        .workload(WorkloadSpec::wm())
        .jobs(24)
        .ctrl_faults(chaos_spec())
        .retry(fast_retry())
        .failures(FailureSpec::new(
            SimDuration::from_secs(1800),
            SimDuration::from_secs(600),
            12,
        ))
        .failure_policy(policy)
        .summarized()
        .seeds(seeds)
        .build()
        .unwrap()
}

/// A harsher chaos cell: PWA over bursty Lublin arrivals (the make-room
/// path sends mandatory shrinks, whose release batches the orphan sweep
/// guards), 20 % loss, a 10 s timeout, only two attempts per operation,
/// and crashed jobs killed.
fn sweep_kill_cell() -> Scenario {
    Scenario::builder()
        .malleability("fpsma")
        .workload("bursty_lublin")
        .pwa()
        .jobs(24)
        .ctrl_faults(chaos_spec())
        .retry(RetryConfig {
            timeout: SimDuration::from_secs(10),
            max_timeout: SimDuration::from_secs(40),
            max_attempts: 2,
            orphan_sweep_period: SimDuration::from_secs(60),
            orphan_grace: SimDuration::from_secs(50),
        })
        .failures(FailureSpec::new(
            SimDuration::from_secs(1800),
            SimDuration::from_secs(600),
            12,
        ))
        .failure_policy(FailurePolicy::Kill)
        .summarized()
        .seeds([101, 202])
        .build()
        .unwrap()
}

/// Checks the job-conservation and no-leak invariants on one summary.
fn assert_conserved(s: &SummaryReport) {
    assert_eq!(
        s.jobs_submitted,
        s.jobs_completed + s.jobs_failed + s.jobs_killed,
        "job conservation violated (seed {}): submitted={} completed={} failed={} killed={}",
        s.seed,
        s.jobs_submitted,
        s.jobs_completed,
        s.jobs_failed,
        s.jobs_killed
    );
    assert_eq!(
        s.ctrl.leaked_allocations, 0,
        "allocations leaked under faults (seed {})",
        s.seed
    );
}

/// End-to-end chaos: under 20 % loss with duplicates, jitter, flaky
/// channels and node crashes, every job still reaches a terminal state,
/// no allocation leaks, and the fault machinery demonstrably engaged.
#[test]
fn chaos_run_conserves_jobs_and_leaks_nothing() {
    for scenario in [
        chaos_scenario(FailurePolicy::Requeue, [11, 22, 33, 44]),
        chaos_scenario(FailurePolicy::Kill, [11, 22, 33, 44]),
        sweep_kill_cell(),
    ] {
        let multi = scenario.run::<SummaryReport>();
        let mut lost = 0u64;
        let mut timeouts = 0u64;
        for run in &multi.runs {
            assert_conserved(run);
            lost += run.ctrl.messages_lost;
            timeouts += run.ctrl.timeouts;
        }
        assert_conserved(&multi.pooled());
        assert!(lost > 0, "20 % loss produced zero lost messages");
        assert!(timeouts > 0, "lost messages produced zero timeouts");
    }
}

/// Same seed, same spec → bit-identical summary, faults included: the
/// fault model must be a pure function of the RNG fork, independent of
/// wall-clock state or allocation order.
#[test]
fn chaos_runs_are_deterministic() {
    let a = chaos_scenario(FailurePolicy::Requeue, [77]).run::<SummaryReport>();
    let b = chaos_scenario(FailurePolicy::Requeue, [77]).run::<SummaryReport>();
    assert_eq!(a.runs, b.runs, "same-seed chaos runs diverged");
    assert_eq!(a.pooled(), b.pooled());
}

/// Adversarial release loss: with *every* release message lost (and its
/// retries with it), only the orphaned-allocation sweep stands between
/// a shrink and a permanent node leak — it must reclaim, and the run
/// must still end with zero leaked allocations.
#[test]
fn lost_releases_are_reclaimed_by_the_orphan_sweep() {
    let spec = ControlPlaneFaultSpec {
        loss: ClassLoss {
            submit: 0.0,
            recruit: 0.0,
            grow: 0.0,
            shrink: 0.0,
            release: 1.0,
            info_poll: 0.0,
        },
        duplicate: 0.0,
        max_jitter: SimDuration::ZERO,
        flaky: None,
    };
    // PWA: mandatory shrinks (the make-room path) are what send release
    // batches mid-run — PRA only releases at completion, which bypasses
    // the release message entirely.
    let scenario = Scenario::builder()
        .malleability("egs")
        .workload(WorkloadSpec::wm_prime())
        .jobs(16)
        .pwa()
        .ctrl_faults(spec)
        .retry(fast_retry())
        .summarized()
        .seeds([5, 6])
        .build()
        .unwrap();
    let multi = scenario.run::<SummaryReport>();
    for run in &multi.runs {
        assert_conserved(run);
    }
    let pooled = multi.pooled();
    assert!(
        pooled.ctrl.reclaimed_allocations > 0,
        "every release was lost, yet the orphan sweep reclaimed nothing"
    );
    assert_eq!(
        pooled.ctrl.leaked_allocations, 0,
        "lost releases leaked processors past the orphan sweep"
    );
}

/// Sequential and parallel execution agree bit-for-bit even with the
/// fault layer engaged (per-run RNG forks are independent of scheduling
/// across threads).
#[test]
fn chaos_seq_and_par_agree() {
    for scenario in [
        chaos_scenario(FailurePolicy::Requeue, [1, 2, 3, 4]),
        sweep_kill_cell(),
    ] {
        let seq = scenario.run::<SummaryReport>();
        let par = MultiSummary::new(
            scenario.config().name.clone(),
            koala::run(&Run::seeds(scenario.config(), scenario.seeds()).threads(2)).unwrap(),
        );
        assert_eq!(
            format!("{:?}", seq.runs),
            format!("{:?}", par.runs),
            "{}: sequential vs parallel chaos runs diverged",
            scenario.config().name
        );
        assert_eq!(format!("{:?}", seq.pooled()), format!("{:?}", par.pooled()));
    }
}
