//! `koala-bench perf` — the measurement harness of the performance
//! subsystem.
//!
//! Runs standard workload matrices through both the sequential and the
//! parallel cell runner — in **summarized mode**, the memory-bounded
//! reporting path every production-scale matrix uses — reports
//! events/sec and wall-clock per pipeline, **verifies the determinism
//! guarantee on the real matrices** (the parallel summaries, and their
//! merged replication aggregates, must render byte-identically to the
//! sequential ones), and writes the machine-readable baseline
//! `BENCH_9.json` at the current directory (the repo root when run via
//! `cargo run`), so later changes have a trajectory to beat.
//! (`BENCH_2.json`, the earlier baseline this binary used to write, stays
//! committed as the before-side of the comparison.)
//!
//! Pipelines:
//!
//! * `fig7` / `fig8` — the paper's headline matrices.
//! * `cross_policy` — the registry cross product.
//! * `replication` — one scenario × 8 replications built with
//!   `.replications(8).summarized()`: exercises the accumulator merge
//!   path end to end (CI runs this on every push via `--smoke`).
//! * `matrix1000` — a **1000-cell** summarized scenario matrix
//!   (20 configurations × 50 seeds; full mode only): the scale target
//!   of the streaming-statistics subsystem, infeasible with full
//!   reports on a small machine.
//!
//! ```text
//! cargo run --release -p koala_bench --bin perf [-- --smoke] [--threads N] [--out PATH]
//! ```
//!
//! * `--smoke`   — tiny matrices (20 jobs, 2 seeds) for CI: exercises the
//!   parallel runner, the summary merge path and the determinism checks
//!   in seconds, writes the JSON to a temp file unless `--out` is given.
//! * `--threads` — worker count for the parallel passes (default:
//!   `KOALA_THREADS`, then the detected hardware parallelism), clamped
//!   to the hardware parallelism so no oversubscribed speedup is
//!   recorded.
//! * `--out`     — output path for the JSON report.

use std::time::Instant;

use appsim::workload::WorkloadSpec;
use koala::config::{Approach, ExperimentConfig};
use koala::parallel::{run_cells_summary, Cell};
use koala::report::{MultiSummary, SummaryReport};
use koala::scenario::Scenario;
use koala_bench::{init_threads, scenario_matrix, SEEDS};
use serde::Value;

/// One measured pipeline: label + cell configs, each run across the
/// pipeline's seeds.
struct Pipeline {
    name: &'static str,
    cfgs: Vec<ExperimentConfig>,
    seeds: Vec<u64>,
    jobs: usize,
}

struct Measurement {
    name: &'static str,
    cells: usize,
    seeds: usize,
    jobs: usize,
    runs: usize,
    events: u64,
    sequential_s: f64,
    parallel_s: f64,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.sequential_s / self.parallel_s.max(1e-12)
    }
    fn events_per_sec_sequential(&self) -> f64 {
        self.events as f64 / self.sequential_s.max(1e-12)
    }
    fn events_per_sec_parallel(&self) -> f64 {
        self.events as f64 / self.parallel_s.max(1e-12)
    }
}

fn sized(cfgs: Vec<ExperimentConfig>, jobs: usize) -> Vec<ExperimentConfig> {
    cfgs.into_iter()
        .map(|mut cfg| {
            cfg.workload.jobs = jobs;
            cfg
        })
        .collect()
}

fn pipelines(smoke: bool) -> Vec<Pipeline> {
    let (jobs, seeds): (usize, Vec<u64>) = if smoke {
        (20, SEEDS[..2].to_vec())
    } else {
        (300, SEEDS.to_vec())
    };
    let fig7 = Pipeline {
        name: "fig7",
        cfgs: sized(
            scenario_matrix(
                Approach::Pra,
                &["worst_fit"],
                &["fpsma", "egs"],
                &[WorkloadSpec::wm(), WorkloadSpec::wmr()],
            ),
            jobs,
        ),
        seeds: seeds.clone(),
        jobs,
    };
    // Cross-policy sweep over the open registry: the placements ×
    // malleability variants the old closed enums could not express run
    // through the same measured pathway (and the smoke job, so CI
    // exercises registry-name dispatch end to end on every push).
    let cross = Pipeline {
        name: "cross_policy",
        cfgs: sized(
            scenario_matrix(
                Approach::Pra,
                &["worst_fit", "first_fit"],
                &["egs", "greedy_grow_lazy_shrink"],
                &[WorkloadSpec::wm()],
            ),
            jobs,
        ),
        seeds: seeds.clone(),
        jobs,
    };
    // One scenario × 8 replications through the builder's replication
    // API: the accumulator merge path (MultiSummary pooling included)
    // measured and determinism-checked on every run.
    let replication_scenario = Scenario::builder()
        .malleability("egs")
        .workload(WorkloadSpec::wm())
        .jobs(jobs)
        .replications(8)
        .summarized()
        .build()
        .expect("replication scenario is valid");
    let replication = Pipeline {
        name: "replication",
        seeds: replication_scenario.seeds().to_vec(),
        cfgs: vec![replication_scenario.into_config()],
        jobs,
    };
    if smoke {
        return vec![fig7, cross, replication];
    }
    let fig8 = Pipeline {
        name: "fig8",
        cfgs: sized(
            scenario_matrix(
                Approach::Pwa,
                &["worst_fit"],
                &["fpsma", "egs"],
                &[WorkloadSpec::wm_prime(), WorkloadSpec::wmr_prime()],
            ),
            jobs,
        ),
        seeds: seeds.clone(),
        jobs,
    };
    // The scale target: 20 configurations × 50 seeds = 1000 summarized
    // cells. With full reports this matrix would hold 1000 job tables
    // at once; summarized it is a thousand fixed-size accumulators.
    let matrix_jobs = 20;
    let matrix1000 = Pipeline {
        name: "matrix1000",
        cfgs: sized(
            scenario_matrix(
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
            ),
            matrix_jobs,
        ),
        seeds: (0..50).collect(),
        jobs: matrix_jobs,
    };
    // Table I of the paper is analytic (no simulation); its pipeline cost
    // is negligible and not measured. The two headline figure pipelines
    // dominate the reproduction's wall-clock.
    vec![fig7, fig8, cross, replication, matrix1000]
}

fn measure(p: &Pipeline, threads: usize) -> Measurement {
    let cells: Vec<Cell<'_>> = p
        .cfgs
        .iter()
        .flat_map(|cfg| p.seeds.iter().map(move |&seed| Cell { cfg, seed }))
        .collect();

    // Untimed warm-up of the full matrix: the first pass of a process
    // absorbs one-time costs (code-page faults, allocator growth), and
    // timing it would bias whichever of the two measured passes runs
    // first — this baseline must not flatter either side.
    let _ = run_cells_summary(&cells, threads);

    let t0 = Instant::now();
    let sequential: Vec<SummaryReport> = run_cells_summary(&cells, 1);
    let sequential_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let parallel: Vec<SummaryReport> = run_cells_summary(&cells, threads);
    let parallel_s = t1.elapsed().as_secs_f64();

    // The determinism guarantee, enforced on the real matrix: merged
    // parallel output must be bit-identical to the sequential loop.
    assert_eq!(
        format!("{sequential:?}"),
        format!("{parallel:?}"),
        "{}: parallel output diverged from sequential",
        p.name
    );
    // And through the replication merge path: pooling each cell's runs
    // (the streaming-accumulator merge) must agree as well.
    let pooled = |runs: &[SummaryReport]| -> Vec<SummaryReport> {
        runs.chunks(p.seeds.len())
            .zip(&p.cfgs)
            .map(|(chunk, cfg)| MultiSummary::new(cfg.name.clone(), chunk.to_vec()).pooled())
            .collect()
    };
    assert_eq!(
        format!("{:?}", pooled(&sequential)),
        format!("{:?}", pooled(&parallel)),
        "{}: merged summaries diverged",
        p.name
    );

    Measurement {
        name: p.name,
        cells: p.cfgs.len(),
        seeds: p.seeds.len(),
        jobs: p.jobs,
        runs: cells.len(),
        events: sequential.iter().map(|r| r.events).sum(),
        sequential_s,
        parallel_s,
    }
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

fn report_json(
    smoke: bool,
    threads: usize,
    hardware_threads: usize,
    measurements: &[Measurement],
) -> Value {
    let total_events: u64 = measurements.iter().map(|m| m.events).sum();
    let total_seq: f64 = measurements.iter().map(|m| m.sequential_s).sum();
    let total_par: f64 = measurements.iter().map(|m| m.parallel_s).sum();
    obj(vec![
        ("bench", Value::String("BENCH_9".into())),
        (
            "description",
            Value::String(
                "Pipelines measured through the memory-bounded summary \
                 reporting path: wall-clock and events/sec per pipeline \
                 (figures, registry cross sweep, 8-replication merge, \
                 1000-cell matrix) sequential vs parallel"
                    .into(),
            ),
        ),
        (
            "command",
            Value::String(format!(
                "cargo run --release -p koala_bench --bin perf{}",
                if smoke { " -- --smoke" } else { "" }
            )),
        ),
        ("smoke", Value::Bool(smoke)),
        ("threads", Value::UInt(threads as u64)),
        ("hardware_threads", Value::UInt(hardware_threads as u64)),
        (
            "determinism_verified",
            // measure() asserts sequential == parallel (raw and merged)
            // before we get here.
            Value::Bool(true),
        ),
        (
            "pipelines",
            Value::Array(
                measurements
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", Value::String(m.name.into())),
                            ("cells", Value::UInt(m.cells as u64)),
                            ("seeds", Value::UInt(m.seeds as u64)),
                            ("jobs_per_run", Value::UInt(m.jobs as u64)),
                            ("runs", Value::UInt(m.runs as u64)),
                            ("events", Value::UInt(m.events)),
                            ("sequential_s", Value::Float(round3(m.sequential_s))),
                            ("parallel_s", Value::Float(round3(m.parallel_s))),
                            ("speedup", Value::Float(round3(m.speedup()))),
                            (
                                "events_per_sec_sequential",
                                Value::Float(m.events_per_sec_sequential().round()),
                            ),
                            (
                                "events_per_sec_parallel",
                                Value::Float(m.events_per_sec_parallel().round()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "totals",
            obj(vec![
                ("events", Value::UInt(total_events)),
                ("sequential_s", Value::Float(round3(total_seq))),
                ("parallel_s", Value::Float(round3(total_par))),
                (
                    "speedup",
                    Value::Float(round3(total_seq / total_par.max(1e-12))),
                ),
            ]),
        ),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .or_else(|| {
            args.iter()
                .find_map(|a| a.strip_prefix("--out=").map(str::to_string))
        });
    let hardware_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads = init_threads();

    println!(
        "koala-bench perf — {} matrix, {} thread(s) (hardware: {hardware_threads}), summarized reporting",
        if smoke { "smoke" } else { "full" },
        threads
    );

    let mut measurements = Vec::new();
    for p in pipelines(smoke) {
        let m = measure(&p, threads);
        println!(
            "  {:<12} {:>4} runs ({} cells x {} seeds x {} jobs): \
             seq {:>7.3} s | par {:>7.3} s | speedup {:>5.2}x | {:>9.0} ev/s parallel",
            m.name,
            m.runs,
            m.cells,
            m.seeds,
            m.jobs,
            m.sequential_s,
            m.parallel_s,
            m.speedup(),
            m.events_per_sec_parallel(),
        );
        measurements.push(m);
    }
    println!("  determinism: parallel summaries (raw and merged) bit-identical to sequential on every pipeline");

    let json = report_json(smoke, threads, hardware_threads, &measurements);
    let text = serde_json::to_string_pretty(&ValueWrap(json)).expect("render JSON");
    let path = out.unwrap_or_else(|| {
        if smoke {
            std::env::temp_dir()
                .join("BENCH_9_smoke.json")
                .to_string_lossy()
                .into_owned()
        } else {
            "BENCH_9.json".to_string()
        }
    });
    std::fs::write(&path, text + "\n").expect("write BENCH json");
    println!("wrote {path}");
}

/// Adapter: the offline `serde_json` stand-in serializes through the
/// `serde::Serialize` trait; a raw [`Value`] tree passes through as-is.
struct ValueWrap(Value);

impl serde::Serialize for ValueWrap {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}
