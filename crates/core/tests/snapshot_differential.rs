//! The snapshot contract, enforced differentially: capturing a world
//! mid-run, restoring it into a **fresh** world and continuing must be
//! invisible — the resumed run's [`SummaryReport`] is byte-identical
//! (debug-render equality, the strictest observable the crate has) to
//! the uninterrupted run's, for every registered placement ×
//! malleability combination and with each failure subsystem
//! (elasticity + crashes, control-plane faults, contended networking)
//! toggled on.
//!
//! A second axis checks the *fork* path: one warmed snapshot forked
//! into several policy cells must reproduce each cell's cold run
//! exactly, even though the fork resolves different policy objects
//! than the snapshot was captured under.

use appsim::workload::WorkloadSpec;
use koala::config::{ExperimentConfig, RetryConfig, WarmFork};
use koala::parallel::{run_cells_summary, Cell};
use koala::scenario::Scenario;
use koala::{fork_summary, resume_summary, warm_snapshot_seeded, SnapshotError};
use multicluster::{
    ClassLoss, ControlPlaneFaultSpec, FailurePolicy, FailureSpec, FlakyChannelSpec,
};
use simcore::{SimDuration, SimTime};

// ----------------------------------------------------------------------
// Scenario zoo: the PR 9 full-stack configurations, reused so the
// snapshot codec is exercised against crash churn, lossy retries with
// in-flight timers, and open network flows.
// ----------------------------------------------------------------------

fn elastic() -> (&'static str, ExperimentConfig) {
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
    ("elastic", scenario.into_config())
}

fn faults() -> (&'static str, ExperimentConfig) {
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
    ("faults", scenario.into_config())
}

fn network() -> (&'static str, ExperimentConfig) {
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
    ("network", scenario.into_config())
}

fn scenarios() -> Vec<(&'static str, ExperimentConfig)> {
    vec![elastic(), faults(), network()]
}

/// Cold run vs snapshot-at-`t`-then-resume, compared byte-for-byte.
fn assert_resume_is_invisible(tag: &str, cfg: &ExperimentConfig, seed: u64, at: SimTime) {
    let cold = run_cells_summary(&[Cell { cfg, seed }], 1).remove(0);
    let snap = warm_snapshot_seeded(cfg, seed, at)
        .unwrap_or_else(|e| panic!("{tag}: snapshot at {at:?} failed: {e}"));
    let warm = resume_summary(cfg, &snap)
        .unwrap_or_else(|e| panic!("{tag}: restore at {at:?} failed: {e}"));
    assert_eq!(
        format!("{warm:?}"),
        format!("{cold:?}"),
        "{tag} seed={seed} at={at:?}: resumed run diverged from the \
         uninterrupted run"
    );
}

// ----------------------------------------------------------------------
// The subsystem sweep: every zoo scenario, several cut points.
// ----------------------------------------------------------------------

/// Snapshot/restore is invisible on every full-stack scenario at cut
/// points spanning bootstrap-only, mid-flight and near-drained states
/// (including cuts far past the makespan, where the queue is empty).
#[test]
fn resume_matches_cold_run_on_every_subsystem() {
    for (tag, cfg) in scenarios() {
        for at_s in [0, 1, 900, 3600, 14_400, 86_400] {
            assert_resume_is_invisible(tag, &cfg, 11, SimTime::from_secs(at_s));
        }
    }
}

/// One warmed snapshot forked into every policy cell reproduces each
/// cell's cold run exactly. A warm-forked cell's semantics are "the
/// *base* policy pair over the shared prefix `[0, at)`, then the
/// cell's own pair for the tail": the cold arm switches policies in
/// place mid-run (no snapshot machinery at all), the warm arm restores
/// the shared snapshot — byte-identical reports prove the snapshot
/// captured everything. The fork fingerprint additionally rejects a
/// cell whose *workload* (not policy) differs.
#[test]
fn fork_reproduces_every_policy_cell_from_one_warm_prefix() {
    let at = SimDuration::from_secs(1800);
    let mut base = ExperimentConfig::paper_pra("fpsma", WorkloadSpec::wm());
    base.warm_fork = Some(WarmFork::at(at)); // base pair: worst_fit / fpsma
    let seed = 17;
    let mut warmup = base.clone();
    warmup.sched.placement = "worst_fit".to_string();
    warmup.sched.malleability = "fpsma".to_string();
    let snap = warm_snapshot_seeded(&warmup, seed, SimTime::ZERO + at).unwrap();
    for malleability in ["fpsma", "egs", "equipartition", "folding"] {
        for placement in ["worst_fit", "first_fit"] {
            let mut cell = base.clone();
            cell.sched.malleability = malleability.to_string();
            cell.sched.placement = placement.to_string();
            cell.name = format!("{placement}/{malleability}");
            let cold = run_cells_summary(&[Cell { cfg: &cell, seed }], 1).remove(0);
            let warm = fork_summary(&cell, &snap)
                .unwrap_or_else(|e| panic!("fork into {placement}/{malleability} failed: {e}"));
            assert_eq!(
                format!("{warm:?}"),
                format!("{cold:?}"),
                "fork into {placement}/{malleability} diverged from its cold run"
            );
        }
    }
    let mut other_workload = base.clone();
    other_workload.workload.jobs += 1;
    assert_eq!(
        fork_summary(&other_workload, &snap).unwrap_err(),
        SnapshotError::ConfigMismatch,
        "a fork must reject a cell whose workload differs from the prefix"
    );
}

// ----------------------------------------------------------------------
// Golden-pinned resumed summary (PR 9 golden convention).
// ----------------------------------------------------------------------

fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// The networking zoo scenario, snapshotted mid-run and resumed, pinned
/// byte-for-byte against a committed golden so a codec change that
/// shifts the resumed trajectory — even one the differential tests
/// happen to miss — shows up as a diff in review. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test -p koala --test snapshot_differential`.
#[test]
fn resumed_summary_matches_pinned_golden() {
    let (_, cfg) = network();
    let snap = warm_snapshot_seeded(&cfg, 11, SimTime::from_secs(3600)).unwrap();
    let s = resume_summary(&cfg, &snap).unwrap();
    let text = format!(
        "== pr10 network zoo, seed 11, snapshot at 3600 s, resumed ==\n\
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
    );
    let path = golden_dir().join("pr10_snapshot.txt");
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
        "resumed summary drifted from the pinned golden; if intentional, \
         regenerate with UPDATE_GOLDEN=1 and explain why in the commit message"
    );
}

// ----------------------------------------------------------------------
// Registry-wide property: random policy pair, random subsystem
// toggles, random cut time.
// ----------------------------------------------------------------------

mod resume_props {
    use super::*;
    use koala::policy::PolicyRegistry;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// Restore-invisibility is a *registry-wide* obligation: any
        /// (placement × malleability × approach) combination, with
        /// elasticity/crashes, control-plane chaos and networking each
        /// independently toggled, snapshot at a random mid-run second
        /// and resumed, runs byte-identically to the cold run.
        #[test]
        fn resume_is_invisible_for_every_registered_policy(
            seed in any::<u64>(),
            jobs in 4usize..14,
            pwa in any::<bool>(),
            pl_idx in any::<usize>(),
            ml_idx in any::<usize>(),
            elastic in any::<bool>(),
            chaos in any::<bool>(),
            net in any::<bool>(),
            at_s in 0u64..20_000,
        ) {
            let registry = PolicyRegistry::global();
            let placements = registry.placement_names();
            let malleabilities = registry.malleability_names();
            let placement = &placements[pl_idx % placements.len()];
            let malleability = &malleabilities[ml_idx % malleabilities.len()];
            let mut b = Scenario::builder()
                .placement(placement)
                .malleability(malleability)
                .workload(if pwa { WorkloadSpec::wm_prime() } else { WorkloadSpec::wm() })
                .jobs(jobs)
                .seed(seed)
                .summarized();
            if pwa {
                b = b.pwa();
            }
            if elastic {
                b = b
                    .monitor(SimDuration::from_secs(120))
                    .autoscaler("threshold")
                    .autoscale_timing(
                        SimDuration::from_secs(300),
                        SimDuration::from_secs(30),
                    )
                    .failures(FailureSpec::new(
                        SimDuration::from_secs(1800),
                        SimDuration::from_secs(600),
                        12,
                    ))
                    .failure_policy(FailurePolicy::Requeue);
            }
            if chaos {
                b = b.ctrl_faults(ControlPlaneFaultSpec {
                    loss: ClassLoss::uniform(0.15),
                    duplicate: 0.05,
                    max_jitter: SimDuration::from_millis(250),
                    flaky: None,
                });
            }
            if net {
                b = b.network("flat_wan").reconfig_traffic(0.25);
            }
            let cfg = b.build().unwrap().into_config();
            let at = SimTime::from_secs(at_s);
            let cold = run_cells_summary(&[Cell { cfg: &cfg, seed }], 1).remove(0);
            let snap = warm_snapshot_seeded(&cfg, seed, at).unwrap();
            let warm = resume_summary(&cfg, &snap).unwrap();
            prop_assert_eq!(
                format!("{:?}", warm),
                format!("{:?}", cold),
                "{}/{} pwa={} elastic={} chaos={} net={} seed={} at={}s: \
                 resume diverged",
                placement, malleability, pwa, elastic, chaos, net, seed, at_s
            );
        }
    }
}
