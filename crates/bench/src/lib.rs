//! # koala-bench — experiment harness shared by the figure binaries
//!
//! One binary per table/figure of the paper (see DESIGN.md §5):
//!
//! * `table1` — the DAS-3 node distribution.
//! * `fig6`   — application execution time vs. machine count.
//! * `fig7`   — the six PRA panels ({FPSMA, EGS} × {Wm, Wmr}).
//! * `fig8`   — the six PWA panels ({FPSMA, EGS} × {W'm, W'mr}).
//! * `sweeps` — ablations (reconfiguration cost, polling period,
//!   background load/reserve, policy cross-product).
//!
//! Binaries print human-readable summaries (with ASCII charts) and write
//! the exact curves as CSV under `repro_out/`.
//!
//! `fig7` and `fig8` run each `(config, seed)` cell once for a
//! [`koala::RunReport`]: panels (a)–(d) come from the pooled quantile
//! reservoirs of the runs' [`koala::report::SummaryReport`]s (exact at
//! paper scale), a `*_summary_ci.csv` table reports each metric as
//! mean ± 95 % CI across the replications, and the time-series panels
//! (e)/(f) come from the per-job detail ([`figure_outputs`]).

use std::fs;
use std::path::{Path, PathBuf};

use appsim::workload::WorkloadSpec;
use koala::config::{Approach, ConfigError, ExperimentConfig, WarmFork};
use koala::parallel;
use koala::policy::PolicyRegistry;
use koala::report::{MultiReport, MultiSummary, SummaryReport};
use koala::scenario::{cell_label, Scenario};
use koala::Report;
use koala_metrics::csv::Csv;
use koala_metrics::{Ecdf, MetricStream};
use simcore::{SimDuration, SimTime};

/// The seeds used for every configuration — the paper repeats each
/// combination 4 times.
pub const SEEDS: [u64; 4] = [101, 202, 303, 404];

/// Output directory for CSV artifacts, created if missing.
///
/// # Panics
/// Panics, naming the directory, when it cannot be created.
pub fn out_dir() -> PathBuf {
    let p = PathBuf::from("repro_out");
    fs::create_dir_all(&p)
        .unwrap_or_else(|e| panic!("creating output directory {}: {e}", p.display()));
    p
}

/// Writes one CSV artifact.
///
/// # Panics
/// Panics, naming the file, when it cannot be written.
pub fn write_csv(path: &Path, text: &str) {
    fs::write(path, text)
        .unwrap_or_else(|e| panic!("writing CSV artifact {}: {e}", path.display()));
}

/// Parses a `--threads N` (or `--threads=N`) flag from the process
/// arguments and returns the worker count, clamped to the hardware
/// parallelism (with a note on stderr when it clamps — oversubscribed
/// workers only contend for the same cores). Every figure binary calls
/// this first and passes the count to its [`Run`](koala::Run)s; without the flag the
/// `KOALA_THREADS` environment variable and then the detected hardware
/// parallelism apply (see [`koala::parallel::default_threads`]).
pub fn init_threads() -> usize {
    init_threads_with_args().0
}

/// [`init_threads`], additionally returning the process arguments
/// (after the binary name) with the `--threads` flag and its value
/// stripped — the single place the flag's shape is encoded, so binaries
/// with positional arguments (e.g. `sweeps`) cannot drift from the
/// parser.
pub fn init_threads_with_args() -> (usize, Vec<String>) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut rest = Vec::new();
    let mut requested = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let value = if a == "--threads" {
            it.next()
        } else if let Some(v) = a.strip_prefix("--threads=") {
            Some(v.to_string())
        } else {
            rest.push(a);
            continue;
        };
        match value.as_deref().map(|v| v.trim().parse::<usize>()) {
            Some(Ok(n)) if n >= 1 => requested = Some(n),
            _ => eprintln!("ignoring invalid --threads value {value:?}"),
        }
    }
    let requested = requested.unwrap_or_else(parallel::default_threads);
    let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = requested.min(hardware);
    if threads < requested {
        eprintln!("clamping {requested} requested threads to {hardware} hardware thread(s)");
    }
    (threads, rest)
}

/// Expands a declarative scenario matrix — the cross product of
/// placement names × malleability names × workloads under one approach —
/// into experiment configurations, in placement-major, then
/// policy-major, then workload order. Policies are resolved by registry
/// name through [`Scenario::builder`], so a policy registered by any
/// crate (or binary) is one string away from a full figure pipeline.
///
/// Cell names come from the builder's single label-derivation point;
/// multi-placement matrices prefix the placement label
/// (`"FF+EGS/Wm"`) so cells never collide.
///
/// # Panics
/// Panics when a name does not resolve against
/// [`PolicyRegistry::global`] — matrices are static experiment
/// definitions, and a typo should fail the binary loudly. Use
/// [`try_scenario_matrix`] to handle the error instead.
pub fn scenario_matrix(
    approach: Approach,
    placements: &[&str],
    malleability: &[&str],
    workloads: &[WorkloadSpec],
) -> Vec<ExperimentConfig> {
    try_scenario_matrix(approach, placements, malleability, workloads)
        .unwrap_or_else(|e| panic!("invalid scenario matrix cell: {e}"))
}

/// [`scenario_matrix`] with the config errors surfaced instead of
/// panicking — an unknown policy name or an invalid cell comes back as
/// the typed [`ConfigError`] naming the problem.
pub fn try_scenario_matrix(
    approach: Approach,
    placements: &[&str],
    malleability: &[&str],
    workloads: &[WorkloadSpec],
) -> Result<Vec<ExperimentConfig>, ConfigError> {
    let registry = PolicyRegistry::global();
    let mut out = Vec::new();
    for &p in placements {
        for &m in malleability {
            for w in workloads {
                let mut b = Scenario::builder()
                    .placement(p)
                    .malleability(m)
                    .approach(approach)
                    .workload(w.clone());
                if placements.len() > 1 {
                    let pl = registry.placement(p)?;
                    let ml = registry.malleability(m)?;
                    b = b.name(cell_label(None, Some(pl.label()), ml.label(), w));
                }
                out.push(b.build()?.into_config());
            }
        }
    }
    Ok(out)
}

/// The workload sources the `workloads` matrix binary sweeps (a
/// representative slice of the registry: the paper mix under Poisson
/// arrivals, both size/runtime models, and a bursty arrival process).
pub const WORKLOAD_SOURCES: [&str; 4] = [
    "paper_poisson",
    "poisson_loguniform",
    "poisson_lublin",
    "bursty_lublin",
];

/// The malleability policies of the workloads matrix.
pub const WORKLOAD_POLICIES: [&str; 2] = ["fpsma", "egs"];

/// The cluster-count axis of the workloads matrix: `(clusters,
/// nodes_per_cluster)` at near-constant total capacity (~272 nodes, the
/// DAS-3 total), so the sweep isolates fragmentation effects.
pub const WORKLOAD_TOPOLOGIES: [(u32, u32); 3] = [(2, 136), (5, 54), (10, 27)];

/// The `workloads` matrix: workload source × malleability policy ×
/// cluster count, each cell summarized with `jobs` jobs. Cell names are
/// `"POLICY/SOURCE@CxN"` (e.g. `"EGS/PoisLF@5x54"`), derived from the
/// registry labels so matrices cannot drift from the sources they run.
///
/// # Panics
/// Panics when a source or policy name does not resolve — matrices are
/// static experiment definitions, and a typo should fail loudly. Use
/// [`try_workloads_matrix`] to handle the error instead.
pub fn workloads_matrix(jobs: usize) -> Vec<ExperimentConfig> {
    try_workloads_matrix(jobs).unwrap_or_else(|e| panic!("invalid workloads matrix cell: {e}"))
}

/// [`workloads_matrix`] with the config errors surfaced instead of
/// panicking — an unknown source/policy name or an invalid cell comes
/// back as the typed [`ConfigError`] naming the problem.
pub fn try_workloads_matrix(jobs: usize) -> Result<Vec<ExperimentConfig>, ConfigError> {
    let registry = PolicyRegistry::global();
    let workloads = appsim::generate::WorkloadRegistry::global();
    let mut out = Vec::new();
    for &source in &WORKLOAD_SOURCES {
        for &policy in &WORKLOAD_POLICIES {
            for &(clusters, nodes) in &WORKLOAD_TOPOLOGIES {
                let src = workloads.source(source)?;
                let ml = registry.malleability(policy)?;
                out.push(
                    Scenario::builder()
                        .workload(source)
                        .malleability(policy)
                        .jobs(jobs)
                        .topology(koala::Topology::Uniform {
                            clusters,
                            nodes_per_cluster: nodes,
                        })
                        .name(format!(
                            "{}/{}@{}x{}",
                            ml.label(),
                            src.label(),
                            clusters,
                            nodes
                        ))
                        .summarized()
                        .build()?
                        .into_config(),
                );
            }
        }
    }
    Ok(out)
}

/// The CSV artifacts of a workloads-matrix run as `(file name, text)`
/// pairs — currently the replication `mean ± 95 % CI` table. Pinned by
/// the golden regression test.
pub fn workloads_summary_outputs(reports: &[MultiSummary]) -> Vec<(String, String)> {
    vec![(
        "workloads_summary_ci.csv".to_string(),
        summary_ci_csv(reports),
    )]
}

/// Regroups a configuration-major [`Run::matrix`](koala::Run::matrix) result — one report
/// per `(config, seed)` cell, seeds inner — into one seed-ordered
/// aggregate per configuration: a [`MultiReport`] for `R = RunReport`,
/// a [`MultiSummary`] for `R = SummaryReport`.
pub fn per_config<R: Report>(cfgs: &[ExperimentConfig], runs: Vec<R>) -> Vec<R::Multi> {
    let seeds = runs.len() / cfgs.len().max(1);
    let mut runs = runs.into_iter();
    cfgs.iter()
        .map(|cfg| R::aggregate(cfg.name.clone(), runs.by_ref().take(seeds).collect()))
        .collect()
}

/// Stamps one [`WarmFork`] onto every cell of a matrix: each cell's
/// semantics become "the base policy pair over `[0, at)`, then the
/// cell's own pair" — and [`koala::run()`] then runs the warmup once per
/// `(workload, seed)` group, with one fork per policy cell.
pub fn warm_forked(mut cfgs: Vec<ExperimentConfig>, warm_fork: WarmFork) -> Vec<ExperimentConfig> {
    for cfg in &mut cfgs {
        cfg.warm_fork = Some(warm_fork.clone());
    }
    cfgs
}

/// An ECDF panel (one column per configuration) rendered as CSV text
/// (header only when no series has finite samples).
pub fn ecdf_csv_string(metric_name: &str, series: &[(&str, &Ecdf)]) -> String {
    let mut header = vec![metric_name];
    for (name, _) in series {
        header.push(name);
    }
    let mut csv = Csv::with_header(&header);
    // A common grid spanning all series.
    let lo = series
        .iter()
        .filter_map(|(_, e)| e.min())
        .fold(f64::INFINITY, f64::min);
    let hi = series
        .iter()
        .filter_map(|(_, e)| e.max())
        .fold(f64::NEG_INFINITY, f64::max);
    if !lo.is_finite() || !hi.is_finite() {
        return csv.into_string();
    }
    let steps = 200;
    for i in 0..=steps {
        let x = lo + (hi - lo) * i as f64 / steps as f64;
        let mut row = vec![x];
        for (_, e) in series {
            row.push(e.percent_at_or_below(x));
        }
        csv.row_f64(&row, 3);
    }
    csv.into_string()
}

/// A time-series panel (`t` in seconds, one column per configuration)
/// rendered as CSV text: every series is resampled stepwise at the union
/// of all sampling instants.
pub fn timeseries_csv_string(series: &[(&str, Vec<(f64, f64)>)]) -> String {
    let mut header = vec!["t_seconds"];
    for (name, _) in series {
        header.push(name);
    }
    let mut csv = Csv::with_header(&header);
    let mut ts: Vec<f64> = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().map(|&(t, _)| t))
        .collect();
    // `total_cmp` keeps a stray NaN from panicking the render; it sorts
    // last and is harmless in the stepwise resample.
    ts.sort_by(f64::total_cmp);
    ts.dedup();
    for &t in &ts {
        let mut row = vec![t];
        for (_, pts) in series {
            // Last value at or before t (step semantics).
            let v = pts
                .iter()
                .take_while(|&&(pt, _)| pt <= t)
                .last()
                .map(|&(_, v)| v)
                .unwrap_or(0.0);
            row.push(v);
        }
        csv.row_f64(&row, 3);
    }
    csv.into_string()
}

/// Resamples a report's mean utilization across seeds on a fixed grid.
pub fn utilization_points(report: &MultiReport, step_s: u64) -> Vec<(f64, f64)> {
    let horizon = report
        .runs
        .iter()
        .map(|r| r.summary.makespan)
        .max()
        .unwrap_or(SimTime::ZERO);
    let step = SimDuration::from_secs(step_s.max(1));
    let mut t = SimTime::ZERO;
    let mut out = Vec::new();
    loop {
        let mean: f64 = report
            .runs
            .iter()
            .map(|r| r.utilization.value_at(t, 0.0))
            .sum::<f64>()
            / report.runs.len() as f64;
        out.push((t.as_secs_f64(), mean));
        if t >= horizon {
            break;
        }
        t += step;
    }
    out
}

/// Cumulative-operations curve (merged across seeds, divided by the seed
/// count: a per-run average).
pub fn ops_points(report: &MultiReport, grow_only: bool, step_s: u64) -> Vec<(f64, f64)> {
    let counter = if grow_only {
        report.merged_grow_ops()
    } else {
        report.merged_all_ops()
    };
    let horizon = report.max_makespan();
    let step = SimDuration::from_secs(step_s.max(1));
    let runs = report.runs.len() as f64;
    let mut t = SimTime::ZERO;
    let mut out = Vec::new();
    loop {
        out.push((t.as_secs_f64(), counter.count_at(t) as f64 / runs));
        if t >= horizon {
            break;
        }
        t += step;
    }
    out
}

/// A summarized panel metric: the figure's stream inside a
/// [`SummaryReport`].
pub type SummaryPanelMetric = fn(&SummaryReport) -> &MetricStream;

/// The four Figs. 7/8(a–d) metrics: the figure's panel name and its
/// stream in the summary.
pub fn summary_panel_metrics() -> [(&'static str, SummaryPanelMetric); 4] {
    [
        (
            "avg_processors",
            (|r: &SummaryReport| &r.avg_size) as SummaryPanelMetric,
        ),
        ("max_processors", |r: &SummaryReport| &r.max_size),
        ("execution_time_s", |r: &SummaryReport| &r.execution_time),
        ("response_time_s", |r: &SummaryReport| &r.response_time),
    ]
}

/// A per-run scalar extractor for the replication `mean ± ci` table.
pub type SummaryScalar = fn(&SummaryReport) -> Option<f64>;

/// The scalar metrics of the `*_summary_ci.csv` tables: each aggregates
/// across replications into mean ± 95 % CI (Student-t).
pub fn summary_scalar_metrics() -> [(&'static str, SummaryScalar); 10] {
    [
        (
            "completion_pct",
            (|r: &SummaryReport| Some(100.0 * r.completion_ratio())) as SummaryScalar,
        ),
        ("execution_mean_s", |r| r.execution_time.mean()),
        ("response_mean_s", |r| r.response_time.mean()),
        ("wait_mean_s", |r| r.wait_time.mean()),
        ("avg_size_mean", |r| r.avg_size.mean()),
        ("max_size_mean", |r| r.max_size.mean()),
        ("mean_utilization", |r| Some(r.mean_utilization())),
        ("grow_ops", |r| Some(r.grow_ops as f64)),
        ("shrink_ops", |r| Some(r.shrink_ops as f64)),
        ("makespan_s", |r| Some(r.makespan.as_secs_f64())),
    ]
}

/// The replication table of a summarized sweep as CSV: one row per
/// `cell × metric` with `mean ± ci` columns (95 % Student-t across the
/// cell's replications). A single replication has no interval —
/// `t_critical_975(0)` is NaN — so the three CI columns render as `NA`
/// rather than leaking NaN (or a sentinel) into golden CSVs.
pub fn summary_ci_csv(reports: &[MultiSummary]) -> String {
    let mut csv = Csv::with_header(&[
        "cell",
        "metric",
        "replications",
        "mean",
        "ci95_half",
        "ci95_lo",
        "ci95_hi",
    ]);
    for m in reports {
        for (metric, f) in summary_scalar_metrics() {
            let Some(ci) = m.mean_ci(f) else { continue };
            let (half, lo, hi) = match ci.half_width {
                Some(h) => (
                    format!("{h:.3}"),
                    format!("{:.3}", ci.lo()),
                    format!("{:.3}", ci.hi()),
                ),
                None => ("NA".to_string(), "NA".to_string(), "NA".to_string()),
            };
            csv.row(&[
                &m.name,
                metric,
                &ci.n.to_string(),
                &format!("{:.3}", ci.mean),
                &half,
                &lo,
                &hi,
            ]);
        }
    }
    csv.into_string()
}

/// Renders a one-line terminal summary of a summarized cell, with
/// `mean ± ci` columns where the cell has replications.
pub fn summary_cell_line(m: &MultiSummary) -> String {
    let ci = |f: SummaryScalar| {
        m.mean_ci(f)
            .map_or_else(|| "n/a".to_string(), |ci| format!("{ci:.1}"))
    };
    let pooled = m.pooled();
    format!(
        "{:<12} jobs={} done={:.1}% | exec {} s | resp {} s | avg_size {} | util {} | grows/run {} shrinks/run {}",
        m.name,
        pooled.jobs_submitted,
        100.0 * m.completion_ratio(),
        ci(|r| r.execution_time.mean()),
        ci(|r| r.response_time.mean()),
        ci(|r| r.avg_size.mean()),
        ci(|r| Some(r.mean_utilization())),
        ci(|r| Some(r.grow_ops as f64)),
        ci(|r| Some(r.shrink_ops as f64)),
    )
}

/// The two headline figures of the paper, as summarized pipelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperFigure {
    /// Fig. 7: {FPSMA, EGS} × {Wm, Wmr} under PRA.
    Fig7,
    /// Fig. 8: {FPSMA, EGS} × {W'm, W'mr} under PWA.
    Fig8,
}

impl PaperFigure {
    /// The figure's file-name prefix (`"fig7"` / `"fig8"`).
    pub fn prefix(self) -> &'static str {
        match self {
            PaperFigure::Fig7 => "fig7",
            PaperFigure::Fig8 => "fig8",
        }
    }

    /// The figure's display label (`"Fig. 7"` / `"Fig. 8"`).
    pub fn label(self) -> &'static str {
        match self {
            PaperFigure::Fig7 => "Fig. 7",
            PaperFigure::Fig8 => "Fig. 8",
        }
    }
}

/// The figure's scenario matrix scaled to `jobs` jobs per run, with the
/// quantile reservoirs sized so a paper-scale pooled cell (4 × 300
/// jobs) stays **exact** — the summarized panels then match the
/// full-mode ECDFs point for point.
pub fn figure_matrix(figure: PaperFigure, jobs: usize) -> Vec<ExperimentConfig> {
    let mut cells = match figure {
        PaperFigure::Fig7 => scenario_matrix(
            Approach::Pra,
            &["worst_fit"],
            &["fpsma", "egs"],
            &[WorkloadSpec::wm(), WorkloadSpec::wmr()],
        ),
        PaperFigure::Fig8 => scenario_matrix(
            Approach::Pwa,
            &["worst_fit"],
            &["fpsma", "egs"],
            &[WorkloadSpec::wm_prime(), WorkloadSpec::wmr_prime()],
        ),
    };
    for cfg in &mut cells {
        cfg.workload.jobs = jobs;
        cfg.report.quantile_capacity = 2048;
    }
    cells
}

/// Pools every cell's replications once (`MultiSummary::pooled` merges
/// the streaming accumulators; do it one time per cell and reuse —
/// panels, charts and qualitative checks all read the same pool).
pub fn pooled_cells(reports: &[MultiSummary]) -> Vec<SummaryReport> {
    reports.iter().map(MultiSummary::pooled).collect()
}

/// One summarized panel as chartable `(name, ecdf)` series, from
/// already-pooled cells.
pub fn summary_panel_series(
    pooled: &[SummaryReport],
    f: SummaryPanelMetric,
) -> Vec<(String, Ecdf)> {
    pooled
        .iter()
        .map(|r| (r.name.clone(), f(r).quantiles.ecdf()))
        .collect()
}

/// A time-series panel: its CSV file name, its chart title and one
/// `(t, value)` curve per configuration.
pub type TimeSeriesPanel<'a> = (String, &'static str, Vec<(&'a str, Vec<(f64, f64)>)>);

/// A figure's time-series panels (e)/(f): the seed-mean total
/// utilization and the per-run average of cumulative malleability
/// operations — grows only for Fig. 7, grows and shrinks for Fig. 8 — on
/// a 60 s grid, one curve per cell.
pub fn timeseries_panels(figure: PaperFigure, reports: &[MultiReport]) -> [TimeSeriesPanel<'_>; 2] {
    let prefix = figure.prefix();
    let grow_only = figure == PaperFigure::Fig7;
    let (ops_file, ops_title) = if grow_only {
        (
            "grow_operations",
            "cumulative grow operations (per-run average)",
        )
    } else {
        (
            "malleability_operations",
            "cumulative malleability operations (grows + shrinks, per-run average)",
        )
    };
    let util = reports
        .iter()
        .map(|m| (m.name.as_str(), utilization_points(m, 60)))
        .collect();
    let ops = reports
        .iter()
        .map(|m| (m.name.as_str(), ops_points(m, grow_only, 60)))
        .collect();
    [
        (
            format!("{prefix}e_utilization.csv"),
            "total used processors over time",
            util,
        ),
        (format!("{prefix}f_{ops_file}.csv"), ops_title, ops),
    ]
}

/// Prints the figure's six ASCII panel charts — (a)–(d) from the pooled
/// summaries, (e)/(f) from the per-job detail — in the one render loop
/// both `fig7` and `fig8` share, so the terminal charts cannot drift
/// from each other (the CSV artifacts come from [`figure_outputs`]).
pub fn print_panels(figure: PaperFigure, pooled: &[SummaryReport], reports: &[MultiReport]) {
    for (panel, (metric, f)) in ["a", "b", "c", "d"].iter().zip(summary_panel_metrics()) {
        let ecdfs = summary_panel_series(pooled, f);
        let series: Vec<(&str, &Ecdf)> = ecdfs.iter().map(|(n, e)| (n.as_str(), e)).collect();
        println!(
            "\n{}({panel}) — cumulative distribution of {metric}",
            figure.label()
        );
        print!("{}", koala_metrics::plot::ecdf_chart(&series, 64, 12));
    }
    for (panel, (_, title, series)) in ["e", "f"].iter().zip(timeseries_panels(figure, reports)) {
        let refs: Vec<(&str, &[(f64, f64)])> =
            series.iter().map(|(n, p)| (*n, p.as_slice())).collect();
        println!("\n{}({panel}) — {title}", figure.label());
        print!("{}", koala_metrics::plot::timeseries_chart(&refs, 64, 12));
    }
}

/// Renders a figure's seven CSV artifacts as `(file name, text)` pairs:
/// the four ECDF panels (a)–(d) from the pooled quantile reservoirs of
/// the runs' summaries, the time-series panels (e)/(f) from their
/// per-job detail, and the replication `mean ± ci` table. Pinned by the
/// golden regression test, so refactors cannot silently shift the paper
/// numbers.
pub fn figure_outputs(figure: PaperFigure, reports: &[MultiReport]) -> Vec<(String, String)> {
    let prefix = figure.prefix();
    let summaries: Vec<MultiSummary> = reports.iter().map(MultiReport::summary).collect();
    let pooled = pooled_cells(&summaries);
    let mut out = Vec::new();
    for (panel, (metric, f)) in ["a", "b", "c", "d"].iter().zip(summary_panel_metrics()) {
        let ecdfs = summary_panel_series(&pooled, f);
        let series: Vec<(&str, &Ecdf)> = ecdfs.iter().map(|(n, e)| (n.as_str(), e)).collect();
        out.push((
            format!("{prefix}{panel}_{metric}.csv"),
            ecdf_csv_string(metric, &series),
        ));
    }
    for (name, _, series) in timeseries_panels(figure, reports) {
        out.push((name, timeseries_csv_string(&series)));
    }
    out.push((
        format!("{prefix}_summary_ci.csv"),
        summary_ci_csv(&summaries),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use koala::{Run, RunReport};

    /// `cfg` once per seed, aggregated.
    fn sweep<R: Report>(cfg: &ExperimentConfig, seeds: &[u64]) -> R::Multi {
        let runs = koala::run(&Run::seeds(cfg, seeds)).unwrap();
        R::aggregate(cfg.name.clone(), runs)
    }

    #[test]
    fn write_csv_names_the_path_it_cannot_write() {
        // A regular file as the parent directory: the write must fail.
        let parent = std::env::temp_dir().join(format!("koala_bench_csv_{}", std::process::id()));
        fs::write(&parent, "").expect("create the blocking file");
        let path = parent.join("panel.csv");
        let err = std::panic::catch_unwind(|| write_csv(&path, "x\n"))
            .expect_err("writing under a regular file fails");
        let _ = fs::remove_file(&parent);
        let msg = err
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(msg.contains(&path.display().to_string()), "{msg}");
    }

    #[test]
    fn scenario_matrix_expands_the_cross_product() {
        let cfgs = scenario_matrix(
            Approach::Pra,
            &["worst_fit"],
            &["fpsma", "egs"],
            &[WorkloadSpec::wm(), WorkloadSpec::wmr()],
        );
        let names: Vec<&str> = cfgs.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["FPSMA/Wm", "FPSMA/Wmr", "EGS/Wm", "EGS/Wmr"]);
        assert!(cfgs.iter().all(|c| c.sched.approach == Approach::Pra));
    }

    #[test]
    fn multi_placement_matrices_prefix_the_placement_label() {
        let cfgs = scenario_matrix(
            Approach::Pra,
            &["worst_fit", "first_fit"],
            &["greedy_grow_lazy_shrink"],
            &[WorkloadSpec::wm()],
        );
        let names: Vec<&str> = cfgs.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["WF+GGLS/Wm", "FF+GGLS/Wm"]);
        assert_eq!(cfgs[1].sched.placement, "first_fit");
    }

    #[test]
    fn run_cells_matches_per_cell_runs() {
        let mut a = ExperimentConfig::paper_pra("fpsma", WorkloadSpec::wm());
        a.workload.jobs = 4;
        let mut b = ExperimentConfig::paper_pra("egs", WorkloadSpec::wm());
        b.workload.jobs = 6;
        let seeds = [5u64, 9];
        let cfgs = [a.clone(), b.clone()];
        let runs = koala::run(&Run::matrix(&cfgs, &seeds)).unwrap();
        let pooled = per_config::<RunReport>(&cfgs, runs);
        assert_eq!(pooled.len(), 2);
        let solo_a = sweep::<RunReport>(&a, &seeds);
        let solo_b = sweep::<RunReport>(&b, &seeds);
        assert_eq!(format!("{:?}", pooled[0]), format!("{solo_a:?}"));
        assert_eq!(format!("{:?}", pooled[1]), format!("{solo_b:?}"));
    }

    #[test]
    fn run_cells_summary_matches_per_cell_runs() {
        let mut a = ExperimentConfig::paper_pra("fpsma", WorkloadSpec::wm());
        a.workload.jobs = 4;
        let mut b = ExperimentConfig::paper_pra("egs", WorkloadSpec::wm());
        b.workload.jobs = 6;
        let seeds = [5u64, 9];
        let cfgs = [a.clone(), b.clone()];
        let runs = koala::run(&Run::matrix(&cfgs, &seeds)).unwrap();
        let pooled = per_config::<SummaryReport>(&cfgs, runs);
        assert_eq!(pooled.len(), 2);
        let solo_a = sweep::<SummaryReport>(&a, &seeds);
        let solo_b = sweep::<SummaryReport>(&b, &seeds);
        assert_eq!(format!("{:?}", pooled[0]), format!("{solo_a:?}"));
        assert_eq!(format!("{:?}", pooled[1]), format!("{solo_b:?}"));
    }

    #[test]
    fn summary_cell_line_carries_ci_columns() {
        let mut cfg = ExperimentConfig::paper_pra("fpsma", WorkloadSpec::wm());
        cfg.workload.jobs = 5;
        let m = sweep::<SummaryReport>(&cfg, &[1, 2]);
        let line = summary_cell_line(&m);
        assert!(line.contains("FPSMA/Wm"));
        assert!(line.contains("done=100.0%"));
        assert!(
            line.contains('±'),
            "replicated cells report mean ± ci: {line}"
        );
        // The ci table carries every scalar metric for the cell.
        let csv = summary_ci_csv(std::slice::from_ref(&m));
        assert_eq!(csv.lines().count(), 1 + summary_scalar_metrics().len());
        assert!(csv.contains("FPSMA/Wm,execution_mean_s,2,"));
    }

    #[test]
    fn single_replication_ci_columns_render_na_not_nan() {
        // Regression: with one replication `t_critical_975(0)` is NaN and
        // the CI half-width is undefined; the CSV must say `NA`, never
        // `NaN` (or the old `-1` sentinel).
        let mut cfg = ExperimentConfig::paper_pra("fpsma", WorkloadSpec::wm());
        cfg.workload.jobs = 5;
        let m = sweep::<SummaryReport>(&cfg, &[1]);
        let csv = summary_ci_csv(std::slice::from_ref(&m));
        assert_eq!(csv.lines().count(), 1 + summary_scalar_metrics().len());
        assert!(!csv.contains("NaN"), "NaN leaked into the CI table:\n{csv}");
        assert!(!csv.contains(",-1,"), "sentinel leaked:\n{csv}");
        for line in csv.lines().skip(1) {
            assert!(
                line.ends_with(",NA,NA,NA"),
                "single-replication rows carry NA CI columns: {line}"
            );
        }
    }

    #[test]
    fn utilization_points_cover_horizon() {
        let mut cfg = ExperimentConfig::paper_pra("egs", WorkloadSpec::wm());
        cfg.workload.jobs = 3;
        let m = sweep::<RunReport>(&cfg, &[1]);
        let pts = utilization_points(&m, 60);
        assert!(pts.len() > 2);
        assert!(
            pts.iter().any(|&(_, v)| v > 0.0),
            "some utilization observed"
        );
    }
}
