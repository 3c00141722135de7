//! Reproduces **Fig. 7** of the paper: FPSMA vs. EGS under the PRA
//! approach (no shrinking), workloads Wm and Wmr, 300 jobs each, 4 runs
//! per combination.
//!
//! Panels:
//!   (a) CDF of the time-averaged processors per job
//!   (b) CDF of the maximum processors per job
//!   (c) CDF of job execution times
//!   (d) CDF of job response times
//!   (e) platform utilization over time (`--full` only)
//!   (f) cumulative grow operations over time (`--full` only)
//!
//! Runs **summarized by default**: cells stream through memory-bounded
//! accumulators, panels (a)–(d) come from the pooled quantile
//! reservoirs (exact at this scale) and `fig7_summary_ci.csv` reports
//! every metric as mean ± 95 % CI across the 4 replications. `--full`
//! materializes complete reports and additionally writes the (e)/(f)
//! time-series panels.
//!
//! ```text
//! cargo run --release -p koala_bench --bin fig7 [-- --full] [--threads N]
//! ```

use appsim::workload::WorkloadSpec;
use koala::config::Approach;
use koala::{Run, RunReport, SummaryReport};
use koala_bench::{
    cell_summary, figure_matrix, figure_summary_outputs, init_threads_with_args, ops_points,
    out_dir, panel_metrics, per_config, pooled_cells, print_summary_panels, scenario_matrix,
    summary_cell_line, utilization_points, write_csv, write_ecdf_csv, write_timeseries_csv,
    PaperFigure, SEEDS,
};
use koala_metrics::plot;

fn main() {
    let (threads, rest) = init_threads_with_args();
    if rest.iter().any(|a| a == "--full") {
        run_full(threads);
        return;
    }
    let cells = figure_matrix(PaperFigure::Fig7, 300);
    println!("Fig. 7 — FPSMA vs. EGS with the PRA approach (no shrinking)");
    println!(
        "running 4 configurations x 4 seeds x 300 jobs on {threads} thread(s), summarized mode ...\n"
    );
    let runs = koala::run(&Run::matrix(&cells, &SEEDS).threads(threads))
        .expect("the figure matrix is valid");
    let reports = per_config::<SummaryReport>(&cells, runs);
    for m in &reports {
        println!("{}", summary_cell_line(m));
    }

    let dir = out_dir();
    let outputs = figure_summary_outputs(PaperFigure::Fig7, &reports);
    for (name, text) in &outputs {
        write_csv(&dir.join(name), text);
    }
    let pooled = pooled_cells(&reports);
    print_summary_panels(PaperFigure::Fig7, &pooled);
    println!("\npanels (e)/(f) need full time series: rerun with --full;");
    println!("mean utilization and grow activity are in fig7_summary_ci.csv (mean ± 95% CI)");

    // The orderings the paper reports, from the pooled streams.
    println!("\nqualitative checks vs. the paper:");
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
        reports[i]
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

/// The legacy full-report pipeline, including the (e)/(f) time series.
fn run_full(threads: usize) {
    // The figure as a declarative matrix: {FPSMA, EGS} × {Wm, Wmr}
    // under PRA, policies resolved by registry name.
    let cells = scenario_matrix(
        Approach::Pra,
        &["worst_fit"],
        &["fpsma", "egs"],
        &[WorkloadSpec::wm(), WorkloadSpec::wmr()],
    );
    println!("Fig. 7 — FPSMA vs. EGS with the PRA approach (no shrinking)");
    println!(
        "running 4 configurations x 4 seeds x 300 jobs on {threads} thread(s), full mode ...\n"
    );
    let runs = koala::run(&Run::matrix(&cells, &SEEDS).threads(threads))
        .expect("the figure matrix is valid");
    let reports = per_config::<RunReport>(&cells, runs);
    for m in &reports {
        println!("{}", cell_summary(m));
    }

    let dir = out_dir();
    // Panels (a)-(d): pooled ECDFs.
    for (panel, (metric, f)) in ["a", "b", "c", "d"].iter().zip(panel_metrics()) {
        let ecdfs: Vec<_> = reports
            .iter()
            .map(|m| (m.name.as_str(), m.ecdf_of(f)))
            .collect();
        let series: Vec<(&str, &koala_metrics::Ecdf)> =
            ecdfs.iter().map(|(n, e)| (*n, e)).collect();
        write_ecdf_csv(
            &dir.join(format!("fig7{panel}_{metric}.csv")),
            metric,
            &series,
        );
        println!("\nFig. 7({panel}) — cumulative distribution of {metric}");
        print!("{}", plot::ecdf_chart(&series, 64, 12));
    }
    // Panel (e): utilization over time.
    let util: Vec<_> = reports
        .iter()
        .map(|m| (m.name.as_str(), utilization_points(m, 60)))
        .collect();
    write_timeseries_csv(&dir.join("fig7e_utilization.csv"), &util);
    println!("\nFig. 7(e) — total used processors over time");
    let util_refs: Vec<(&str, &[(f64, f64)])> =
        util.iter().map(|(n, p)| (*n, p.as_slice())).collect();
    print!("{}", plot::timeseries_chart(&util_refs, 64, 12));
    // Panel (f): grow operations over time.
    let ops: Vec<_> = reports
        .iter()
        .map(|m| (m.name.as_str(), ops_points(m, true, 60)))
        .collect();
    write_timeseries_csv(&dir.join("fig7f_grow_operations.csv"), &ops);
    println!("\nFig. 7(f) — cumulative grow operations (per-run average)");
    let ops_refs: Vec<(&str, &[(f64, f64)])> =
        ops.iter().map(|(n, p)| (*n, p.as_slice())).collect();
    print!("{}", plot::timeseries_chart(&ops_refs, 64, 12));

    // The orderings the paper reports.
    println!("\nqualitative checks vs. the paper:");
    // "with FPSMA, short applications may terminate before it is their
    // turn to grow … They are thus stuck at their minimal size. … [with
    // EGS] only few jobs do not grow beyond their minimal size."
    let stuck = |i: usize| {
        reports[i]
            .ecdf_of(koala_metrics::JobRecord::average_size)
            .fraction_at_or_below(3.0)
    };
    println!(
        "  fewer EGS jobs stuck at minimal size (avg ≤ 3): EGS/Wm {:.0}% vs FPSMA/Wm {:.0}%  [paper: EGS < FPSMA] {}",
        100.0 * stuck(2), 100.0 * stuck(0), verdict(stuck(2) < stuck(0)),
    );
    let exec_mean = |i: usize| {
        reports[i]
            .ecdf_of(koala_metrics::JobRecord::execution_time)
            .mean()
            .unwrap_or(f64::NAN)
    };
    println!(
        "  Wm beats Wmr on execution time (FPSMA): {:.1}s vs {:.1}s  [paper: Wm < Wmr] {}",
        exec_mean(0),
        exec_mean(1),
        verdict(exec_mean(0) < exec_mean(1)),
    );
    let grows = |i: usize| {
        reports[i]
            .runs
            .iter()
            .map(|r| r.grow_ops.total())
            .sum::<usize>() as f64
            / reports[i].runs.len() as f64
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
