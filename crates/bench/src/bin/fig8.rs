//! Reproduces **Fig. 8** of the paper: FPSMA vs. EGS under the PWA
//! approach (growing *and* mandatory shrinking), workloads W'm and W'mr
//! (30 s inter-arrival to load the system), 300 jobs each, 4 runs per
//! combination.
//!
//! Panels (a)-(f) as in Fig. 7, except panel (f) counts *all*
//! malleability operations (grows + shrinks).
//!
//! Runs **summarized by default** (memory-bounded streaming
//! accumulators; `fig8_summary_ci.csv` carries mean ± 95 % CI columns);
//! `--full` materializes complete reports plus the (e)/(f) time-series
//! panels.
//!
//! ```text
//! cargo run --release -p koala_bench --bin fig8 [-- --full] [--threads N]
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
    let cells = figure_matrix(PaperFigure::Fig8, 300);
    println!("Fig. 8 — FPSMA vs. EGS with the PWA approach (growing and shrinking)");
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
    let outputs = figure_summary_outputs(PaperFigure::Fig8, &reports);
    for (name, text) in &outputs {
        write_csv(&dir.join(name), text);
    }
    let pooled = pooled_cells(&reports);
    print_summary_panels(PaperFigure::Fig8, &pooled);
    println!("\npanels (e)/(f) need full time series: rerun with --full;");
    println!(
        "mean utilization and malleability activity are in fig8_summary_ci.csv (mean ± 95% CI)"
    );

    println!("\nqualitative checks vs. the paper:");
    let exec_mean = |i: usize| pooled[i].execution_time.mean().unwrap_or(f64::NAN);
    // Fig. 8c: execution times are close across the four runs.
    let execs: Vec<f64> = (0..4).map(exec_mean).collect();
    let spread = (execs.iter().cloned().fold(f64::MIN, f64::max)
        - execs.iter().cloned().fold(f64::MAX, f64::min))
        / execs.iter().sum::<f64>()
        * 4.0;
    println!(
        "  execution times similar across runs (relative spread {:.0}%)  [paper: almost the same] {}",
        100.0 * spread,
        verdict(spread < 0.5),
    );
    let resp_mean = |i: usize| pooled[i].response_time.mean().unwrap_or(f64::NAN);
    println!(
        "  EGS/W'm response time is the worst of the four: {:.1}s vs FPSMA/W'm {:.1}s, FPSMA/W'mr {:.1}s, EGS/W'mr {:.1}s  [paper: EGS/W'm worst] {}",
        resp_mean(2), resp_mean(0), resp_mean(1), resp_mean(3),
        verdict(resp_mean(2) >= resp_mean(0) && resp_mean(2) >= resp_mean(1) && resp_mean(2) >= resp_mean(3)),
    );
    let shrinks = |i: usize| {
        reports[i]
            .mean_ci(|r| Some(r.shrink_ops as f64))
            .map_or(f64::NAN, |ci| ci.mean)
    };
    println!(
        "  mandatory shrinks occur under load (EGS/W'm {:.0}/run, FPSMA/W'm {:.0}/run)  [paper: PWA shrinks] {}",
        shrinks(2), shrinks(0),
        verdict(shrinks(2) > 0.0 || shrinks(0) > 0.0),
    );
    println!("\nCSV panels written under {}", dir.display());
}

/// The legacy full-report pipeline, including the (e)/(f) time series.
fn run_full(threads: usize) {
    // The figure as a declarative matrix: {FPSMA, EGS} × {W'm, W'mr}
    // under PWA, policies resolved by registry name.
    let cells = scenario_matrix(
        Approach::Pwa,
        &["worst_fit"],
        &["fpsma", "egs"],
        &[WorkloadSpec::wm_prime(), WorkloadSpec::wmr_prime()],
    );
    println!("Fig. 8 — FPSMA vs. EGS with the PWA approach (growing and shrinking)");
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
    for (panel, (metric, f)) in ["a", "b", "c", "d"].iter().zip(panel_metrics()) {
        let ecdfs: Vec<_> = reports
            .iter()
            .map(|m| (m.name.as_str(), m.ecdf_of(f)))
            .collect();
        let series: Vec<(&str, &koala_metrics::Ecdf)> =
            ecdfs.iter().map(|(n, e)| (*n, e)).collect();
        write_ecdf_csv(
            &dir.join(format!("fig8{panel}_{metric}.csv")),
            metric,
            &series,
        );
        println!("\nFig. 8({panel}) — cumulative distribution of {metric}");
        print!("{}", plot::ecdf_chart(&series, 64, 12));
    }
    let util: Vec<_> = reports
        .iter()
        .map(|m| (m.name.as_str(), utilization_points(m, 60)))
        .collect();
    write_timeseries_csv(&dir.join("fig8e_utilization.csv"), &util);
    println!("\nFig. 8(e) — total used processors over time");
    let util_refs: Vec<(&str, &[(f64, f64)])> =
        util.iter().map(|(n, p)| (*n, p.as_slice())).collect();
    print!("{}", plot::timeseries_chart(&util_refs, 64, 12));
    let ops: Vec<_> = reports
        .iter()
        .map(|m| (m.name.as_str(), ops_points(m, false, 60)))
        .collect();
    write_timeseries_csv(&dir.join("fig8f_malleability_operations.csv"), &ops);
    println!("\nFig. 8(f) — cumulative malleability operations (grows + shrinks, per-run average)");
    let ops_refs: Vec<(&str, &[(f64, f64)])> =
        ops.iter().map(|(n, p)| (*n, p.as_slice())).collect();
    print!("{}", plot::timeseries_chart(&ops_refs, 64, 12));

    println!("\nqualitative checks vs. the paper:");
    let exec_mean = |i: usize| {
        reports[i]
            .ecdf_of(koala_metrics::JobRecord::execution_time)
            .mean()
            .unwrap_or(f64::NAN)
    };
    // Fig. 8c: execution times are close across the four runs.
    let execs: Vec<f64> = (0..4).map(exec_mean).collect();
    let spread = (execs.iter().cloned().fold(f64::MIN, f64::max)
        - execs.iter().cloned().fold(f64::MAX, f64::min))
        / execs.iter().sum::<f64>()
        * 4.0;
    println!(
        "  execution times similar across runs (relative spread {:.0}%)  [paper: almost the same] {}",
        100.0 * spread,
        verdict(spread < 0.5),
    );
    let resp_mean = |i: usize| {
        reports[i]
            .ecdf_of(koala_metrics::JobRecord::response_time)
            .mean()
            .unwrap_or(f64::NAN)
    };
    println!(
        "  EGS/W'm response time is the worst of the four: {:.1}s vs FPSMA/W'm {:.1}s, FPSMA/W'mr {:.1}s, EGS/W'mr {:.1}s  [paper: EGS/W'm worst] {}",
        resp_mean(2), resp_mean(0), resp_mean(1), resp_mean(3),
        verdict(resp_mean(2) >= resp_mean(0) && resp_mean(2) >= resp_mean(1) && resp_mean(2) >= resp_mean(3)),
    );
    let shrinks = |i: usize| {
        reports[i]
            .runs
            .iter()
            .map(|r| r.shrink_ops.total())
            .sum::<usize>() as f64
            / reports[i].runs.len() as f64
    };
    println!(
        "  mandatory shrinks occur under load (EGS/W'm {:.0}/run, FPSMA/W'm {:.0}/run)  [paper: PWA shrinks] {}",
        shrinks(2), shrinks(0),
        verdict(shrinks(2) > 0.0 || shrinks(0) > 0.0),
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
