//! Compare every *registered* malleability policy — the paper's pair
//! (FPSMA, EGS), the related-work baselines (equipartition, folding)
//! and anything later registered — on the same workload, seeds and
//! testbed. Registering a new policy makes it appear here with zero
//! changes to this example.
//!
//! ```text
//! cargo run --release --example policy_comparison
//! ```

use malleable_koala::appsim::workload::WorkloadSpec;
use malleable_koala::koala::config::ExperimentConfig;
use malleable_koala::koala::policy::PolicyRegistry;
use malleable_koala::koala::report::MultiReport;
use malleable_koala::koala::{self, Run};

fn main() {
    let seeds = [1u64, 2, 3];
    println!(
        "policy comparison on Wm (100 jobs, {} seeds) under PRA\n",
        seeds.len()
    );
    println!(
        "{:<8} {:>9} {:>11} {:>11} {:>11} {:>11} {:>10}",
        "policy", "grows/run", "avg size", "stuck@min", "exec (s)", "resp (s)", "util mean"
    );
    let registry = PolicyRegistry::global();
    for policy in registry.malleability_names() {
        let mut cfg = ExperimentConfig::paper_pra(&policy, WorkloadSpec::wm());
        cfg.workload.jobs = 100;
        let runs = koala::run(&Run::seeds(&cfg, &seeds)).expect("registered policies run");
        let m = MultiReport::new(cfg.name.clone(), runs);
        let jobs = m.merged_jobs();
        let avg = jobs.average_size_ecdf();
        let exec = jobs.execution_time_ecdf();
        let resp = jobs.response_time_ecdf();
        let grows: f64 = m
            .runs
            .iter()
            .map(|r| r.grow_ops.total() as f64)
            .sum::<f64>()
            / m.runs.len() as f64;
        let horizon = m.max_makespan();
        println!(
            "{:<8} {:>9.0} {:>11.1} {:>10.0}% {:>11.0} {:>11.0} {:>10.1}",
            registry.malleability(&policy).unwrap().label(),
            grows,
            avg.mean().unwrap_or(0.0),
            100.0 * avg.fraction_at_or_below(3.0),
            exec.mean().unwrap_or(0.0),
            resp.mean().unwrap_or(0.0),
            m.mean_utilization(simcore::SimTime::ZERO, horizon),
        );
    }
    println!(
        "\nreading: EGS spreads growth over all jobs (fewest stuck at the minimum),\n\
         FPSMA concentrates it on the oldest; equipartition and folding are the\n\
         related-work baselines the paper argues are less suited to multiclusters."
    );
}
