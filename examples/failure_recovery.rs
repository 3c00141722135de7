//! Availability variation: nodes are withdrawn from a cluster mid-run
//! and restored later — the scenario from the paper's introduction
//! ("resources may be added to or withdrawn from such environments at
//! any time"), where malleability lets running jobs shrink gracefully
//! instead of being killed, and grow back afterwards.
//!
//! ```text
//! cargo run --release --example failure_recovery
//! ```

use malleable_koala::appsim::workload::WorkloadSpec;
use malleable_koala::koala::config::ExperimentConfig;
use malleable_koala::koala::sim::{Ev, World};
use malleable_koala::koala::{engine_for, RunReport};
use malleable_koala::multicluster::ClusterId;
use malleable_koala::simcore::SimTime;

fn main() {
    let mut cfg = ExperimentConfig::paper_pra("egs", WorkloadSpec::wm());
    cfg.workload.jobs = 40;
    cfg.seed = 17;

    // At t = 1500 s, 60 of the Vrije University cluster's 85 nodes are
    // withdrawn (maintenance); they return at t = 4000 s. Withdrawal
    // takes free nodes first and mandatorily shrinks running malleable
    // jobs for the rest.
    let vu = ClusterId(0);
    let mut engine = engine_for(&cfg);
    engine.schedule_at(
        SimTime::from_secs(1500),
        Ev::NodeWithdraw {
            cluster: vu,
            count: 60,
        },
    );
    engine.schedule_at(
        SimTime::from_secs(4000),
        Ev::NodeRestore {
            cluster: vu,
            count: 60,
        },
    );

    println!(
        "running {} with a 60-node withdrawal at t=1500s (restore t=4000s) ...",
        cfg.name
    );
    let report = World::new(&cfg).run_to_end::<RunReport>(&mut engine);

    println!(
        "\ncompleted {:.1}% of {} jobs despite losing 60/85 nodes of the largest cluster",
        100.0 * report.jobs.completion_ratio(),
        report.jobs.len()
    );
    println!(
        "malleability absorbed the withdrawal: {} grow ops, {} shrink ops",
        report.grow_ops.total(),
        report.shrink_ops.total()
    );

    // Show the platform usage around the withdrawal window.
    println!("\nused processors over time (withdrawal window marked by the dip):");
    for t in (0..=6000).step_by(500) {
        let used = report.utilization.value_at(SimTime::from_secs(t), 0.0);
        let bar = "#".repeat((used / 2.0).round() as usize);
        let marker = if (1500..4000).contains(&t) {
            " <- degraded"
        } else {
            ""
        };
        println!("  t={t:>5}s {used:>5.0} {bar}{marker}");
    }

    let shrunk_jobs = report
        .jobs
        .records()
        .iter()
        .filter(|r| r.shrinks > 0)
        .count();
    println!(
        "\n{} jobs were mandatorily shrunk during the withdrawal and kept running;\n\
         a rigid-only system would have had to kill or abort them.",
        shrunk_jobs
    );
}
