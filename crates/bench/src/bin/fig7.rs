//! Reproduces **Fig. 7** of the paper: FPSMA vs. EGS under the PRA
//! approach (no shrinking), workloads Wm and Wmr, 300 jobs each, 4 runs
//! per combination.
//!
//! Panels:
//!   (a) CDF of the time-averaged processors per job
//!   (b) CDF of the maximum processors per job
//!   (c) CDF of job execution times
//!   (d) CDF of job response times
//!   (e) platform utilization over time
//!   (f) cumulative grow operations over time
//!
//! Every cell runs once for a full report. Panels (a)–(d) come from the
//! pooled quantile reservoirs of the runs' summaries (exact at this
//! scale), `fig7_summary_ci.csv` reports every metric as mean ± 95 % CI
//! across the 4 replications, and panels (e)/(f) come from the per-job
//! detail.
//!
//! ```text
//! cargo run --release -p koala_bench --bin fig7 [-- --threads N]
//! ```

use koala::report::{MultiReport, MultiSummary};
use koala::{Run, RunReport};
use koala_bench::{
    figure_matrix, figure_outputs, init_threads, out_dir, per_config, pooled_cells, print_panels,
    summary_cell_line, write_csv, PaperFigure, SEEDS,
};

fn main() {
    let threads = init_threads();
    let cells = figure_matrix(PaperFigure::Fig7, 300);
    println!("Fig. 7 — FPSMA vs. EGS with the PRA approach (no shrinking)");
    println!("running 4 configurations x 4 seeds x 300 jobs on {threads} thread(s) ...\n");
    let runs = koala::run(&Run::matrix(&cells, &SEEDS).threads(threads))
        .expect("the figure matrix is valid");
    let reports = per_config::<RunReport>(&cells, runs);
    let summaries: Vec<MultiSummary> = reports.iter().map(MultiReport::summary).collect();
    for m in &summaries {
        println!("{}", summary_cell_line(m));
    }

    let dir = out_dir();
    for (name, text) in &figure_outputs(PaperFigure::Fig7, &reports) {
        write_csv(&dir.join(name), text);
    }
    let pooled = pooled_cells(&summaries);
    print_panels(PaperFigure::Fig7, &pooled, &reports);

    // The orderings the paper reports, from the pooled streams.
    println!("\nqualitative checks vs. the paper:");
    // "with FPSMA, short applications may terminate before it is their
    // turn to grow … They are thus stuck at their minimal size. … [with
    // EGS] only few jobs do not grow beyond their minimal size."
    let stuck = |i: usize| {
        pooled[i]
            .avg_size
            .quantiles
            .ecdf()
            .fraction_at_or_below(3.0)
    };
    println!(
        "  fewer EGS jobs stuck at minimal size (avg ≤ 3): EGS/Wm {:.0}% vs FPSMA/Wm {:.0}%  [paper: EGS < FPSMA] {}",
        100.0 * stuck(2), 100.0 * stuck(0), verdict(stuck(2) < stuck(0)),
    );
    let exec_mean = |i: usize| pooled[i].execution_time.mean().unwrap_or(f64::NAN);
    println!(
        "  Wm beats Wmr on execution time (FPSMA): {:.1}s vs {:.1}s  [paper: Wm < Wmr] {}",
        exec_mean(0),
        exec_mean(1),
        verdict(exec_mean(0) < exec_mean(1)),
    );
    let grows = |i: usize| {
        summaries[i]
            .mean_ci(|r| Some(r.grow_ops as f64))
            .map_or(f64::NAN, |ci| ci.mean)
    };
    println!(
        "  grow activity EGS/Wm > FPSMA/Wm: {:.0} vs {:.0}  [paper: EGS > FPSMA] {}",
        grows(2),
        grows(0),
        verdict(grows(2) > grows(0)),
    );
    println!(
        "  grow activity Wm > Wmr (EGS): {:.0} vs {:.0}  [paper: Wm > Wmr] {}",
        grows(2),
        grows(3),
        verdict(grows(2) > grows(3)),
    );
    println!("\nCSV panels written under {}", dir.display());
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "OK"
    } else {
        "MISMATCH"
    }
}
