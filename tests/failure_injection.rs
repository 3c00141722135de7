//! Availability-variation scenarios: withdrawing and restoring nodes
//! mid-run, the situation the paper's introduction motivates malleability
//! with.

use malleable_koala::appsim::workload::WorkloadSpec;
use malleable_koala::koala::config::ExperimentConfig;
use malleable_koala::koala::sim::{Ev, World};
use malleable_koala::koala::{engine_for, RunReport};
use malleable_koala::multicluster::ClusterId;
use malleable_koala::simcore::SimTime;

fn cfg(jobs: usize, seed: u64) -> ExperimentConfig {
    let mut c = ExperimentConfig::paper_pra("egs", WorkloadSpec::wm());
    c.workload.jobs = jobs;
    c.seed = seed;
    c
}

#[test]
fn withdrawal_of_free_nodes_is_absorbed() {
    let c = cfg(30, 5);
    let mut engine = engine_for(&c);
    // Withdraw half of every cluster early, before jobs have grown much.
    for c in 0..5u16 {
        engine.schedule_at(
            SimTime::from_secs(60),
            Ev::NodeWithdraw {
                cluster: ClusterId(c),
                count: 16,
            },
        );
    }
    let report = World::new(&c).run_to_end::<RunReport>(&mut engine);
    assert!(
        (report.jobs.completion_ratio() - 1.0).abs() < 1e-12,
        "all jobs must survive the withdrawal"
    );
}

#[test]
fn withdrawal_beyond_free_nodes_forces_shrinks() {
    let c = cfg(40, 9);
    let mut engine = engine_for(&c);
    // Give jobs time to grow, then take most of the biggest cluster.
    engine.schedule_at(
        SimTime::from_secs(2000),
        Ev::NodeWithdraw {
            cluster: ClusterId(0),
            count: 80,
        },
    );
    let report = World::new(&c).run_to_end::<RunReport>(&mut engine);
    assert!((report.jobs.completion_ratio() - 1.0).abs() < 1e-12);
    // The withdrawal exceeded free nodes at that point, so if any
    // malleable job held grown capacity on VU it must have shrunk.
    // (Whether one did depends on placement; the invariant we always
    // demand is completion + no capacity violation, checked by the
    // World's internal debug assertions.)
    let peak_after = report
        .utilization
        .max_in(SimTime::from_secs(2100), report.summary.makespan)
        .unwrap_or(0.0);
    assert!(peak_after <= 272.0);
}

#[test]
fn restore_after_withdrawal_reenables_growth() {
    let c = cfg(40, 11);
    let mut engine = engine_for(&c);
    for c in 0..5u16 {
        engine.schedule_at(
            SimTime::from_secs(10),
            Ev::NodeWithdraw {
                cluster: ClusterId(c),
                count: 30,
            },
        );
        engine.schedule_at(
            SimTime::from_secs(3000),
            Ev::NodeRestore {
                cluster: ClusterId(c),
                count: 30,
            },
        );
    }
    let report = World::new(&c).run_to_end::<RunReport>(&mut engine);
    assert!((report.jobs.completion_ratio() - 1.0).abs() < 1e-12);
    // Restoration counts as newly available capacity, so growth must
    // have continued after t = 3000 s.
    let grows_after_restore = report
        .grow_ops
        .count_in(SimTime::from_secs(3000), report.summary.makespan);
    assert!(
        grows_after_restore > 0,
        "restored capacity should fuel growth (got {grows_after_restore})"
    );
}

#[test]
fn repeated_withdraw_restore_cycles_are_stable() {
    let c = cfg(35, 13);
    let mut engine = engine_for(&c);
    for k in 0..6u64 {
        let t0 = 500 + k * 1000;
        engine.schedule_at(
            SimTime::from_secs(t0),
            Ev::NodeWithdraw {
                cluster: ClusterId((k % 5) as u16),
                count: 20,
            },
        );
        engine.schedule_at(
            SimTime::from_secs(t0 + 500),
            Ev::NodeRestore {
                cluster: ClusterId((k % 5) as u16),
                count: 20,
            },
        );
    }
    let report = World::new(&c).run_to_end::<RunReport>(&mut engine);
    assert!((report.jobs.completion_ratio() - 1.0).abs() < 1e-12);
}
