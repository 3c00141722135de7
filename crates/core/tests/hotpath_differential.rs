//! The hot-path optimisation contract, enforced differentially: every
//! fast path of the event loop — the SoA job columns, the parallel sweep
//! and the availability index — must be **trajectory-passive**. A
//! full-stack scenario (elasticity + control-plane faults + contended
//! network) run under any combination of
//!
//! * execution: sequential vs work-stealing parallel sweep,
//! * availability index: on vs off,
//!
//! produces byte-identical summary reports.
//!
//! One staging trajectory is additionally pinned against a committed
//! golden file (`tests/golden/pr9_staging.txt`), so a pop-order bug in
//! the event queue fails against an immutable witness. Regenerate after
//! an *intentional* trajectory change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p koala --test hotpath_differential
//! ```

use appsim::workload::{SubmittedJob, WorkloadSpec};
use appsim::{AppKind, JobSpec};
use koala::config::{ExperimentConfig, FileSpec, NetworkConfig, RetryConfig};
use koala::report::SummaryReport;
use koala::scenario::Scenario;
use koala::{run_experiment_summary, run_seeds_summary_sequential, run_seeds_summary_with_threads};
use multicluster::{
    ClassLoss, ControlPlaneFaultSpec, FailurePolicy, FailureSpec, FlakyChannelSpec,
};
use simcore::{SimDuration, SimTime};

// ----------------------------------------------------------------------
// Scenario zoo: one configuration per subsystem that stresses the hot
// paths differently (crash/requeue churn, message loss + retries, and
// bandwidth-true staging).
// ----------------------------------------------------------------------

fn elastic() -> (&'static str, ExperimentConfig, Vec<u64>) {
    let scenario = Scenario::builder()
        .malleability("fpsma")
        .workload(WorkloadSpec::wm())
        .jobs(16)
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
        .build()
        .unwrap();
    ("elastic", scenario.into_config(), vec![1, 2, 3])
}

fn faults() -> (&'static str, ExperimentConfig, Vec<u64>) {
    let scenario = Scenario::builder()
        .malleability("egs")
        .workload(WorkloadSpec::wm_prime())
        .jobs(16)
        .pwa()
        .ctrl_faults(ControlPlaneFaultSpec {
            loss: ClassLoss::uniform(0.20),
            duplicate: 0.10,
            max_jitter: SimDuration::from_millis(400),
            flaky: Some(FlakyChannelSpec {
                mean_gap: SimDuration::from_secs(1200),
                mean_duration: SimDuration::from_secs(300),
                loss: 0.6,
            }),
        })
        .retry(RetryConfig {
            timeout: SimDuration::from_secs(10),
            max_timeout: SimDuration::from_secs(40),
            max_attempts: 3,
            orphan_sweep_period: SimDuration::from_secs(30),
            orphan_grace: SimDuration::from_secs(50),
        })
        .summarized()
        .build()
        .unwrap();
    ("faults", scenario.into_config(), vec![5, 6])
}

fn network() -> (&'static str, ExperimentConfig, Vec<u64>) {
    let scenario = Scenario::builder()
        .malleability("fpsma")
        .workload(WorkloadSpec::wm())
        .jobs(12)
        .placement("close_to_files")
        .network("flat_wan")
        .network_file(40.0, [0])
        .network_file(25.0, [3, 4])
        .reconfig_traffic(0.5)
        .summarized()
        .build()
        .unwrap();
    ("network", scenario.into_config(), vec![9, 10])
}

fn scenarios() -> Vec<(&'static str, ExperimentConfig, Vec<u64>)> {
    vec![elastic(), faults(), network()]
}

// ----------------------------------------------------------------------
// The matrix: (sequential | parallel) per scenario.
// ----------------------------------------------------------------------

/// Sequential and parallel execution produce byte-identical summarized
/// sweeps on every full-stack scenario, even under crash churn, lossy
/// retries and staged transfers.
#[test]
fn hotpath_matrix_is_bit_identical_across_threads() {
    for (tag, cfg, seeds) in scenarios() {
        let seq = run_seeds_summary_sequential(&cfg, &seeds);
        let par = run_seeds_summary_with_threads(&cfg, &seeds, 3);
        assert_eq!(
            format!("{par:?}"),
            format!("{seq:?}"),
            "{tag}: the 3-thread sweep diverged from the sequential one"
        );
    }
}

/// The availability index must be invisible: its quick-reject may only
/// fire where the placement policy was guaranteed to return `None`, so
/// index-on and index-off runs are byte-identical on every scenario.
#[test]
fn avail_index_is_trajectory_passive_on_the_full_stack() {
    for (tag, cfg, seeds) in scenarios() {
        let mut on = cfg.clone();
        on.sched.avail_index = true;
        let mut off = cfg.clone();
        off.sched.avail_index = false;
        assert_eq!(
            format!("{:?}", run_seeds_summary_sequential(&on, &seeds)),
            format!("{:?}", run_seeds_summary_sequential(&off, &seeds)),
            "{tag}: the availability index changed the trajectory"
        );
    }
}

// ----------------------------------------------------------------------
// Golden-pinned staging trajectory.
// ----------------------------------------------------------------------

fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// The staging fingerprint: jobs, deliveries, makespan, the complete
/// network counters and the staging/transfer/wait streams — everything
/// a pop-order or SoA-phase bug would smear.
fn render_staging(tag: &str, s: &SummaryReport) -> String {
    format!(
        "== {tag} ==\n\
         jobs: submitted={} completed={} failed={}\n\
         counters: events={} kis_polls={} placement_tries={}\n\
         makespan: {:?}\n\
         net: {:?}\n\
         transfer_time: {:?}\n\
         staging_delay: {:?}\n\
         wait_time: {:?}\n\
         execution_time: {:?}\n",
        s.jobs_submitted,
        s.jobs_completed,
        s.jobs_failed,
        s.events,
        s.kis_polls,
        s.placement_tries,
        s.makespan,
        s.net,
        s.transfer_time,
        s.staging_delay,
        s.wait_time,
        s.execution_time,
    )
}

fn staged_job(at_s: u64, size: u32, files: Vec<u64>) -> SubmittedJob {
    let mut spec = JobSpec::rigid(AppKind::Gadget2, size);
    spec.input_files = files;
    SubmittedJob {
        at: SimTime::from_secs(at_s),
        spec,
    }
}

/// A quiet three-job staging trajectory over the contended WAN, pinned
/// byte-for-byte against a committed golden.
#[test]
fn staging_trajectory_matches_golden() {
    let mut cfg = ExperimentConfig::paper_pra("fpsma", WorkloadSpec::wm());
    cfg.background = multicluster::BackgroundLoad::none();
    cfg.seed = 7;
    cfg.trace = Some(vec![
        staged_job(0, 4, vec![0]),
        staged_job(60, 2, vec![1]),
        staged_job(120, 4, vec![]),
    ]);
    cfg.network = Some(NetworkConfig {
        topology: "flat_wan".to_string(),
        files: vec![
            FileSpec {
                size_gb: 100.0,
                replicas: vec![4],
            },
            FileSpec {
                size_gb: 30.0,
                replicas: vec![0, 2],
            },
        ],
        reconfig_gb_per_proc: 0.0,
    });
    let text = render_staging("staging flat_wan seed 7", &run_experiment_summary(&cfg));

    let path = golden_dir().join("pr9_staging.txt");
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
        "staging trajectory drifted from the pinned golden; if intentional, \
         regenerate with UPDATE_GOLDEN=1 and explain why in the commit message"
    );
}

// ----------------------------------------------------------------------
// Registry-wide index passivity (property test).
// ----------------------------------------------------------------------

mod index_props {
    use super::*;
    use koala::policy::PolicyRegistry;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// The quick-reject's conservativeness is a *registry-wide*
        /// obligation: every (placement × malleability × approach)
        /// combination — including policies registered after this test
        /// was written — must run byte-identically with the index on or
        /// off.
        #[test]
        fn avail_index_is_passive_for_every_registered_policy(
            seed in any::<u64>(),
            jobs in 4usize..14,
            pwa in any::<bool>(),
            pl_idx in any::<usize>(),
            ml_idx in any::<usize>(),
        ) {
            let registry = PolicyRegistry::global();
            let placements = registry.placement_names();
            let malleabilities = registry.malleability_names();
            let placement = &placements[pl_idx % placements.len()];
            let malleability = &malleabilities[ml_idx % malleabilities.len()];
            let mut cfg = if pwa {
                ExperimentConfig::paper_pwa(malleability, WorkloadSpec::wm_prime())
            } else {
                ExperimentConfig::paper_pra(malleability, WorkloadSpec::wm())
            };
            cfg.sched.placement = placement.clone();
            cfg.workload.jobs = jobs;
            cfg.seed = seed;
            let mut on = cfg.clone();
            on.sched.avail_index = true;
            let mut off = cfg;
            off.sched.avail_index = false;
            prop_assert_eq!(
                format!("{:?}", run_experiment_summary(&on)),
                format!("{:?}", run_experiment_summary(&off)),
                "{}/{} pwa={} seed={}: index changed the trajectory",
                placement, malleability, pwa, seed
            );
        }
    }
}
