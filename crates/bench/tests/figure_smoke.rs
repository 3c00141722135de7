//! Smoke tests for the paper-figure pipeline: each figure binary's
//! underlying `koala_bench::` entry points are exercised on a tiny 10-job
//! configuration, so CI runs the actual experiment code paths (config →
//! multi-seed run → pooled metrics → CSV) and not just their compilation.
//! The full 300-job × 4-seed reproductions stay in the `fig7`/`fig8`/
//! `sweeps` binaries. The figure matrices are also run at 1 and 3
//! threads, which must agree byte for byte.

use appsim::speedup::{ft_model, gadget2_model, SpeedupModel};
use appsim::workload::WorkloadSpec;
use koala::config::{Approach, ExperimentConfig};
use koala::parallel::run_cells_summary;
use koala::report::{MultiReport, MultiSummary, SummaryReport};
use koala::scenario::Scenario;
use koala::Run;
use koala_bench::{
    cell_summary, ops_points, panel_metrics, scenario_matrix, utilization_points, write_ecdf_csv,
    write_timeseries_csv, SEEDS,
};
use koala_metrics::Ecdf;
use multicluster::das3;

/// Two seeds (instead of the paper's four) on 10 jobs: seconds, not minutes.
const SMOKE_SEEDS: [u64; 2] = [7, 11];

fn tiny(mut cfg: ExperimentConfig) -> ExperimentConfig {
    cfg.workload.jobs = 10;
    cfg
}

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

/// Fig. 7's pipeline: a PRA cell through run → pooled ECDF panels → CSV.
#[test]
fn fig7_pra_cell_runs_end_to_end() {
    let cfg = tiny(ExperimentConfig::paper_pra("egs", WorkloadSpec::wm()));
    let runs = koala::run(&Run::seeds(&cfg, &SMOKE_SEEDS)).unwrap();
    let m = MultiReport::new(cfg.name.clone(), runs);
    assert_eq!(m.runs.len(), SMOKE_SEEDS.len());
    assert_eq!(m.completion_ratio(), 1.0, "10 jobs all complete");
    assert!(cell_summary(&m).contains(&m.name));

    // Panels (a)-(d): every per-job metric yields a populated pooled ECDF.
    let dir = smoke_dir();
    for (metric, f) in panel_metrics() {
        let ecdf = m.ecdf_of(f);
        assert!(!ecdf.is_empty(), "{metric} ECDF populated");
        let path = dir.join(format!("fig7_smoke_{metric}.csv"));
        let series: Vec<(&str, &Ecdf)> = vec![(m.name.as_str(), &ecdf)];
        write_ecdf_csv(&path, metric, &series);
        let text = std::fs::read_to_string(&path).expect("CSV written");
        assert!(text.lines().count() > 2, "{metric} CSV has header and rows");
        assert!(text.lines().next().unwrap().contains(metric));
    }

    // Panels (e)/(f): time series cover the horizon and reach the CSV writer.
    let util = utilization_points(&m, 60);
    let grows = ops_points(&m, true, 60);
    assert!(util.len() > 1 && grows.len() > 1);
    assert!(
        util.iter().any(|&(_, v)| v > 0.0),
        "some utilization observed"
    );
    let path = dir.join("fig7_smoke_timeseries.csv");
    write_timeseries_csv(&path, &[("util", util), ("grows", grows)]);
    assert!(std::fs::read_to_string(&path).unwrap().lines().count() > 2);
}

/// Fig. 8's pipeline: a PWA cell (growing *and* shrinking) actually shrinks.
#[test]
fn fig8_pwa_cell_runs_end_to_end() {
    let cfg = tiny(ExperimentConfig::paper_pwa(
        "fpsma",
        WorkloadSpec::wm_prime(),
    ));
    let runs = koala::run(&Run::seeds(&cfg, &SMOKE_SEEDS)).unwrap();
    let m = MultiReport::new(cfg.name.clone(), runs);
    assert_eq!(m.runs.len(), SMOKE_SEEDS.len());
    assert_eq!(m.completion_ratio(), 1.0, "10 jobs all complete");
    let grows: usize = m.runs.iter().map(|r| r.grow_ops.total()).sum();
    assert!(grows > 0, "PWA cells grow malleable jobs");
    let all = ops_points(&m, false, 60);
    let grow_only = ops_points(&m, true, 60);
    assert!(all.last().unwrap().1 >= grow_only.last().unwrap().1);
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
