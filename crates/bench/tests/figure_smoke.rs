//! Smoke tests for the paper-figure pipeline: each figure binary's
//! underlying `koala_bench::` entry points are exercised on a tiny 10-job
//! configuration, so CI runs the actual experiment code paths (config →
//! multi-seed run → pooled metrics → CSV) and not just their compilation.
//! The full 300-job × 4-seed reproductions stay in the `fig7`/`fig8`/
//! `sweeps` binaries. The figure matrices are also run at 1 and 3
//! threads, which must agree byte for byte.

use appsim::speedup::{ft_model, gadget2_model};
use appsim::workload::WorkloadSpec;
use koala::config::{Approach, ExperimentConfig};
use koala::parallel::run_cells_summary;
use koala::report::{MultiReport, MultiSummary, SummaryReport};
use koala::scenario::Scenario;
use koala::{Run, RunReport};
use koala_bench::{
    figure_matrix, figure_outputs, per_config, scenario_matrix, write_csv, PaperFigure, SEEDS,
};
use multicluster::das3;

/// Two seeds (instead of the paper's four) on 10 jobs: seconds, not minutes.
const SMOKE_SEEDS: [u64; 2] = [7, 11];

fn smoke_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("koala_figure_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create smoke output dir");
    dir
}

/// Fig. 6's entry points: the calibrated analytic speedup models.
#[test]
fn fig6_speedup_models_are_calibrated() {
    let ft = ft_model();
    let g2 = gadget2_model();
    for n in 1..=46u32 {
        assert!(
            ft.exec_time(n).is_finite() && ft.exec_time(n) > 0.0,
            "FT T({n}) finite"
        );
        assert!(
            g2.exec_time(n).is_finite() && g2.exec_time(n) > 0.0,
            "G2 T({n}) finite"
        );
    }
    // More machines beat two machines at each model's best size, and the
    // paper's maximum sizes lie beyond the best-time sizes (Fig. 6's point).
    let ft_best = ft.best_size(32);
    let g2_best = g2.best_size(46);
    assert!(ft.exec_time(ft_best) < ft.exec_time(2));
    assert!(g2.exec_time(g2_best) < g2.exec_time(2));
    assert!(ft.exec_time(32) > ft.exec_time(ft_best));
    assert!(g2.exec_time(46) > g2.exec_time(g2_best));
}

/// A figure's pipeline at smoke size: the matrix run once for full
/// reports, its seven CSV artifacts written and read back.
fn smoke_figure(figure: PaperFigure) -> (Vec<MultiReport>, Vec<(String, String)>) {
    let cells = figure_matrix(figure, 10);
    let runs = koala::run(&Run::matrix(&cells, &SMOKE_SEEDS)).unwrap();
    let reports = per_config::<RunReport>(&cells, runs);
    for m in &reports {
        assert_eq!(m.runs.len(), SMOKE_SEEDS.len());
        assert_eq!(
            m.completion_ratio(),
            1.0,
            "{}: 10 jobs all complete",
            m.name
        );
    }
    let outputs = figure_outputs(figure, &reports);
    let dir = smoke_dir();
    for (name, text) in &outputs {
        let path = dir.join(name);
        write_csv(&path, text);
        let back = std::fs::read_to_string(&path).expect("CSV written");
        assert_eq!(&back, text);
        assert!(back.lines().count() > 2, "{name} has header and rows");
    }
    (reports, outputs)
}

/// The last row of a time-series panel: each cell's final value.
fn final_values(outputs: &[(String, String)], suffix: &str) -> Vec<String> {
    let (_, text) = outputs
        .iter()
        .find(|(n, _)| n.ends_with(suffix))
        .unwrap_or_else(|| panic!("no {suffix} panel"));
    let last = text.lines().last().expect("rows");
    last.split(',').skip(1).map(str::to_string).collect()
}

/// The per-run mean of a summary counter, as the panels print it.
fn per_run_mean(m: &MultiReport, f: impl Fn(&koala::SummaryReport) -> u64) -> String {
    let total: u64 = m.runs.iter().map(|r| f(&r.summary)).sum();
    format!("{:.3}", total as f64 / m.runs.len() as f64)
}

/// Fig. 7's pipeline: PRA cells through run → panels (a)–(f) and the
/// ci table → CSV. Panel (f)'s detail timeline ends at the summaries'
/// per-run grow count.
#[test]
fn fig7_pra_cell_runs_end_to_end() {
    let (reports, outputs) = smoke_figure(PaperFigure::Fig7);
    let names: Vec<&str> = outputs.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        [
            "fig7a_avg_processors.csv",
            "fig7b_max_processors.csv",
            "fig7c_execution_time_s.csv",
            "fig7d_response_time_s.csv",
            "fig7e_utilization.csv",
            "fig7f_grow_operations.csv",
            "fig7_summary_ci.csv",
        ]
    );
    let util = &outputs[4].1;
    assert!(
        util.lines()
            .skip(1)
            .flat_map(|l| l.split(',').skip(1))
            .any(|v| v.parse::<f64>().unwrap() > 0.0),
        "some utilization observed"
    );
    let grows: Vec<String> = reports
        .iter()
        .map(|m| per_run_mean(m, |s| s.grow_ops))
        .collect();
    assert_eq!(final_values(&outputs, "f_grow_operations.csv"), grows);
}

/// Fig. 8's pipeline: PWA cells (growing *and* shrinking) grow, and
/// panel (f) ends at the summaries' per-run grows + shrinks.
#[test]
fn fig8_pwa_cell_runs_end_to_end() {
    let (reports, outputs) = smoke_figure(PaperFigure::Fig8);
    assert_eq!(outputs.len(), 7);
    let grows: u64 = reports[0].runs.iter().map(|r| r.summary.grow_ops).sum();
    assert!(grows > 0, "PWA cells grow malleable jobs");
    let ops: Vec<String> = reports
        .iter()
        .map(|m| per_run_mean(m, |s| s.grow_ops + s.shrink_ops))
        .collect();
    assert_eq!(final_values(&outputs, "f_malleability_operations.csv"), ops);
}

/// Table I's entry point: the DAS-3 topology constant.
#[test]
fn table1_das3_topology_matches_paper() {
    let das = das3();
    assert_eq!(das.ids().count(), 5, "five DAS-3 clusters");
    assert_eq!(das.total_capacity(), 272, "272 nodes in total");
    for c in das.ids() {
        let spec = das.cluster(c).spec();
        assert!(!spec.name.is_empty() && spec.nodes > 0);
    }
}

/// The measured matrix shapes at smoke size (20 jobs, 2 seeds): Fig. 7,
/// Fig. 8, the registry cross product, one scenario × 8 replications,
/// and the 20-configuration sweep behind the 1000-cell matrix. On each,
/// the summarized cell runner at 1 and 3 threads agrees byte for byte,
/// raw and pooled per configuration.
#[test]
fn figure_matrices_are_bit_identical_across_thread_counts() {
    let sized = |mut cfgs: Vec<ExperimentConfig>| {
        for cfg in &mut cfgs {
            cfg.workload.jobs = 20;
        }
        cfgs
    };
    let seeds = &SEEDS[..2];
    let replication = Scenario::builder()
        .malleability("egs")
        .workload(WorkloadSpec::wm())
        .jobs(20)
        .replications(8)
        .summarized()
        .build()
        .expect("replication scenario is valid");
    let matrices: Vec<(&str, Vec<ExperimentConfig>, Vec<u64>)> = vec![
        (
            "fig7",
            sized(scenario_matrix(
                Approach::Pra,
                &["worst_fit"],
                &["fpsma", "egs"],
                &[WorkloadSpec::wm(), WorkloadSpec::wmr()],
            )),
            seeds.to_vec(),
        ),
        (
            "fig8",
            sized(scenario_matrix(
                Approach::Pwa,
                &["worst_fit"],
                &["fpsma", "egs"],
                &[WorkloadSpec::wm_prime(), WorkloadSpec::wmr_prime()],
            )),
            seeds.to_vec(),
        ),
        (
            "cross_policy",
            sized(scenario_matrix(
                Approach::Pra,
                &["worst_fit", "first_fit"],
                &["egs", "greedy_grow_lazy_shrink"],
                &[WorkloadSpec::wm()],
            )),
            seeds.to_vec(),
        ),
        (
            "replication",
            vec![replication.config().clone()],
            replication.seeds().to_vec(),
        ),
        (
            "matrix1000",
            sized(scenario_matrix(
                Approach::Pra,
                &["worst_fit", "first_fit"],
                &[
                    "fpsma",
                    "egs",
                    "equipartition",
                    "folding",
                    "greedy_grow_lazy_shrink",
                ],
                &[WorkloadSpec::wm(), WorkloadSpec::wmr()],
            )),
            seeds.to_vec(),
        ),
    ];
    for (name, cfgs, seeds) in &matrices {
        let cells = Run::matrix(cfgs, seeds).cells;
        let pooled = |runs: &[SummaryReport]| -> Vec<SummaryReport> {
            runs.chunks(seeds.len())
                .zip(cfgs)
                .map(|(chunk, cfg)| MultiSummary::new(cfg.name.clone(), chunk.to_vec()).pooled())
                .collect()
        };
        let sequential = run_cells_summary(&cells, 1);
        let parallel = run_cells_summary(&cells, 3);
        assert_eq!(
            format!("{sequential:?}"),
            format!("{parallel:?}"),
            "{name}: parallel output diverged from sequential"
        );
        assert_eq!(
            format!("{:?}", pooled(&sequential)),
            format!("{:?}", pooled(&parallel)),
            "{name}: pooled summaries diverged"
        );
    }
}
