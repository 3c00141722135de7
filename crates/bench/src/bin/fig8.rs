//! Reproduces **Fig. 8** of the paper: FPSMA vs. EGS under the PWA
//! approach (growing *and* mandatory shrinking), workloads W'm and W'mr
//! (30 s inter-arrival to load the system), 300 jobs each, 4 runs per
//! combination.
//!
//! Panels (a)-(f) as in Fig. 7, except panel (f) counts *all*
//! malleability operations (grows + shrinks).
//!
//! Every cell runs once for a full report: panels (a)–(d) and
//! `fig8_summary_ci.csv` (mean ± 95 % CI columns) come from the runs'
//! summaries, panels (e)/(f) from the per-job detail.
//!
//! ```text
//! cargo run --release -p koala_bench --bin fig8 [-- --threads N]
//! ```

use koala::report::{MultiReport, MultiSummary};
use koala::{Run, RunReport};
use koala_bench::{
    figure_matrix, figure_outputs, init_threads, out_dir, per_config, pooled_cells, print_panels,
    summary_cell_line, write_csv, PaperFigure, SEEDS,
};

fn main() {
    let threads = init_threads();
    let cells = figure_matrix(PaperFigure::Fig8, 300);
    println!("Fig. 8 — FPSMA vs. EGS with the PWA approach (growing and shrinking)");
    println!("running 4 configurations x 4 seeds x 300 jobs on {threads} thread(s) ...\n");
    let runs = koala::run(&Run::matrix(&cells, &SEEDS).threads(threads))
        .expect("the figure matrix is valid");
    let reports = per_config::<RunReport>(&cells, runs);
    let summaries: Vec<MultiSummary> = reports.iter().map(MultiReport::summary).collect();
    for m in &summaries {
        println!("{}", summary_cell_line(m));
    }

    let dir = out_dir();
    for (name, text) in &figure_outputs(PaperFigure::Fig8, &reports) {
        write_csv(&dir.join(name), text);
    }
    let pooled = pooled_cells(&summaries);
    print_panels(PaperFigure::Fig8, &pooled, &reports);

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
        summaries[i]
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

fn verdict(ok: bool) -> &'static str {
    if ok {
        "OK"
    } else {
        "MISMATCH"
    }
}
