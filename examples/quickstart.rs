//! Quickstart: run one malleable workload through KOALA on the simulated
//! DAS-3 testbed and print the headline metrics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use malleable_koala::appsim::workload::WorkloadSpec;
use malleable_koala::koala::config::ExperimentConfig;
use malleable_koala::koala::{self, Run, RunReport};
use malleable_koala::koala_metrics::plot;

fn main() {
    // The paper's EGS/Wm cell, scaled to 60 jobs for a fast demo:
    // all-malleable workload, 2-minute arrivals, Worst-Fit placement,
    // Precedence-to-Running-Applications (grow only).
    let mut cfg = ExperimentConfig::paper_pra("egs", WorkloadSpec::wm());
    cfg.workload.jobs = 60;
    cfg.seed = 42;

    println!(
        "running {} ({} jobs, seed {}) ...",
        cfg.name, cfg.workload.jobs, cfg.seed
    );
    let report: RunReport = koala::run(&Run::cell(&cfg))
        .expect("a paper cell is valid")
        .remove(0);

    println!(
        "\ncompleted {:.1}% of {} jobs",
        100.0 * report.jobs.completion_ratio(),
        report.jobs.len()
    );
    println!("makespan: {}", report.summary.makespan);
    println!(
        "events: {}, KIS polls: {}",
        report.summary.events, report.summary.kis_polls
    );
    println!(
        "malleability: {} grow ops, {} shrink ops ({} grow messages sent)",
        report.grow_ops.total(),
        report.shrink_ops.total(),
        report.summary.grow_messages
    );

    let exec = report.jobs.execution_time_ecdf();
    let resp = report.jobs.response_time_ecdf();
    let avg = report.jobs.average_size_ecdf();
    println!("\nper-job metrics (completed jobs):");
    println!(
        "  execution time: median {:.0}s, mean {:.0}s, max {:.0}s",
        exec.median().unwrap_or(0.0),
        exec.mean().unwrap_or(0.0),
        exec.max().unwrap_or(0.0)
    );
    println!(
        "  response time:  median {:.0}s, mean {:.0}s",
        resp.median().unwrap_or(0.0),
        resp.mean().unwrap_or(0.0)
    );
    println!(
        "  avg processors: median {:.1}, mean {:.1}",
        avg.median().unwrap_or(0.0),
        avg.mean().unwrap_or(0.0)
    );

    // The two application populations of the paper: FT (short) and
    // GADGET-2 (long).
    for app in ["FT", "GADGET2"] {
        let t = report.jobs.filter_app(app);
        if let Some(med) = t.execution_time_ecdf().median() {
            println!(
                "  {app:<8} median execution {med:.0}s over {} jobs",
                t.len()
            );
        }
    }

    println!("\nexecution-time CDF (the shape of Fig. 7c):");
    let chart = plot::ecdf_chart(&[("execution time (s)", &exec)], 60, 10);
    print!("{chart}");

    // Lifecycle Gantt of the first jobs: '.' waiting, '=' running,
    // '#' running at 2x+ the starting size (grown).
    println!("\nfirst 10 job lifecycles:");
    let first: Vec<_> = report.jobs.records().iter().take(10).collect();
    print!("{}", plot::gantt(&first, 64));
}
