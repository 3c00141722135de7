//! Extension experiment: **availability variation** — the motivation of
//! the paper's introduction ("resources may be added to or withdrawn from
//! such environments at any time. … malleability allows applications to
//! benefit from appearing available resources, while gracefully releasing
//! resources that are reclaimed").
//!
//! The same Wm stream runs through a storm of node withdrawals and
//! restorations; a rigid-only version of the workload faces the same
//! storm. Malleable jobs shrink and survive; the comparison quantifies
//! the robustness malleability buys.
//!
//! ```text
//! cargo run --release -p koala_bench --bin availability [-- --threads N]
//! ```

use appsim::workload::WorkloadSpec;
use koala::config::ExperimentConfig;
use koala::report::{MultiSummary, SummaryReport};
use koala::scenario::Scenario;
use koala::sim::{Ev, World};
use koala_bench::{init_threads, SEEDS};
use multicluster::ClusterId;
use simcore::{Engine, SimTime};

/// One storm: every 2000 s a different cluster loses 60% of its nodes for
/// 1000 s.
fn schedule_storm(engine: &mut Engine<Ev>) {
    let sizes = [85u32, 41, 68, 46, 32];
    for k in 0..15u64 {
        let c = (k % 5) as u16;
        let lost = (sizes[c as usize] as f64 * 0.6) as u32;
        let t0 = 1000 + k * 2000;
        engine.schedule_at(
            SimTime::from_secs(t0),
            Ev::NodeWithdraw {
                cluster: ClusterId(c),
                count: lost,
            },
        );
        engine.schedule_at(
            SimTime::from_secs(t0 + 1000),
            Ev::NodeRestore {
                cluster: ClusterId(c),
                count: lost,
            },
        );
    }
}

fn run_under_storm(cfg: &ExperimentConfig, threads: usize) -> MultiSummary {
    // The storm pre-loads each engine with withdraw/restore events, so
    // this binary cannot go through `koala::run`; the seeds still run
    // summarized on the shared work-stealing pool, merged back in seed
    // order.
    let runs = koala::parallel::parallel_map(&SEEDS, threads, |&seed| {
        let mut engine = koala::engine_for(cfg);
        schedule_storm(&mut engine);
        World::for_seed_summarized(cfg, seed).run_to_end::<SummaryReport>(&mut engine)
    });
    MultiSummary::new(cfg.name.clone(), runs)
}

fn main() {
    let threads = init_threads();
    println!(
        "availability variation: rolling 60% node withdrawals, one cluster at a time ({threads} thread(s))\n"
    );
    println!(
        "{:<12} {:>8} {:>11} {:>11} {:>11} {:>10}",
        "workload", "done %", "exec (s)", "resp (s)", "shrinks", "grows"
    );
    for (label, malleable) in [("malleable", 1.0), ("rigid", 0.0)] {
        let mut workload = WorkloadSpec::wm();
        workload.malleable_fraction = malleable;
        let cfg = Scenario::builder()
            .name(label)
            .malleability("egs")
            .workload(workload)
            .jobs(200)
            .build()
            .expect("storm scenario is valid")
            .into_config();
        let m = run_under_storm(&cfg, threads);
        let pooled = m.pooled();
        println!(
            "{:<12} {:>8.1} {:>11.0} {:>11.0} {:>11.0} {:>10.0}",
            label,
            100.0 * m.completion_ratio(),
            pooled.execution_time.mean().unwrap_or(f64::NAN),
            pooled.response_time.mean().unwrap_or(f64::NAN),
            m.runs.iter().map(|r| r.shrink_ops).sum::<u64>() as f64 / m.runs.len() as f64,
            m.runs.iter().map(|r| r.grow_ops).sum::<u64>() as f64 / m.runs.len() as f64,
        );
    }
    println!(
        "\nreading: under PRA the withdrawals can only take *free* nodes, so rigid\n\
         jobs are never killed — but they also cannot exploit the restorations.\n\
         Malleable jobs are squeezed during the storms (mandatory shrinks) and\n\
         re-expand from every restoration, keeping executions shorter while\n\
         completing everything. This is the introduction's availability argument\n\
         made quantitative."
    );
}
