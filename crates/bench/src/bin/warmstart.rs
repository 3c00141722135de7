//! `koala-bench warmstart` — the warm-fork pipeline harness.
//!
//! Runs one policy matrix (placements × malleability under PRA) across
//! the standard seeds **twice**:
//!
//! * **cold** — every `(config, seed)` cell simulates its full
//!   trajectory from t = 0, switching from the base policy pair to the
//!   cell's own pair at the fork instant (the in-process reference
//!   semantics of a warm-forked cell);
//! * **warm** — each `(workload, seed)` group simulates the shared
//!   prefix **once**, and every policy cell continues from an in-memory
//!   copy of the warmed world (`koala::parallel::run_cells_summary_warm`).
//!
//! The two matrices — raw per-cell reports *and* pooled per-cell
//! aggregates, sequential *and* parallel — are asserted byte-identical
//! before any timing is recorded; the speedup (cold wall-clock over
//! warm wall-clock at the same thread count) goes to `BENCH_10.json`.
//! The fork instant is probed, not hardcoded: one cold run of the base
//! cell measures the makespan and the fork lands at ~80 % of it, so
//! the shared prefix genuinely dominates each cell's work.
//!
//! ```text
//! cargo run --release -p koala_bench --bin warmstart [-- --smoke] [--threads N] [--out PATH]
//! ```
//!
//! * `--smoke`   — tiny matrix (24 jobs, 2 seeds) for CI; writes the
//!   JSON to a temp file unless `--out` is given.
//! * `--threads` — worker count for both timed passes (default:
//!   `KOALA_THREADS`, then the detected hardware parallelism).
//! * `--out`     — output path for the JSON report.

use std::time::Instant;

use appsim::workload::WorkloadSpec;
use koala::config::{Approach, ExperimentConfig, WarmFork};
use koala::report::MultiSummary;
use koala_bench::{
    init_threads, run_cells_summary_warm_with_seeds, run_cells_summary_with_seeds_threads,
    scenario_matrix, warm_forked, SEEDS,
};
use serde::Value;
use simcore::SimDuration;

/// The warm-start matrix: every placement × malleability pair below
/// shares one warmup prefix per seed (6 forks per prefix).
const PLACEMENTS: [&str; 2] = ["worst_fit", "first_fit"];
const MALLEABILITY: [&str; 3] = ["fpsma", "egs", "equipartition"];

fn matrix(jobs: usize, fork_at: SimDuration) -> Vec<ExperimentConfig> {
    let mut cfgs = scenario_matrix(
        Approach::Pra,
        &PLACEMENTS,
        &MALLEABILITY,
        &[WorkloadSpec::wm()],
    );
    for cfg in &mut cfgs {
        cfg.workload.jobs = jobs;
    }
    warm_forked(cfgs, WarmFork::at(fork_at))
}

/// Probes the base cell's makespan (one cold run, first seed) and
/// returns ~80 % of it: late enough that the shared prefix carries most
/// of the work, early enough that every cell still diverges.
fn probe_fork_at(jobs: usize) -> SimDuration {
    let mut base = scenario_matrix(
        Approach::Pra,
        &[PLACEMENTS[0]],
        &[MALLEABILITY[0]],
        &[WorkloadSpec::wm()],
    )
    .remove(0);
    base.workload.jobs = jobs;
    let probe = koala::run_experiment_summary_seeded(&base, SEEDS[0]);
    SimDuration::from_millis((probe.makespan.as_millis() as f64 * 0.8) as u64)
}

fn pooled(reports: &[MultiSummary]) -> String {
    format!("{:?}", koala_bench::pooled_cells(reports))
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
    let threads = init_threads();
    let (jobs, seeds): (usize, Vec<u64>) = if smoke {
        (24, SEEDS[..2].to_vec())
    } else {
        (300, SEEDS.to_vec())
    };

    let fork_at = probe_fork_at(jobs);
    let cfgs = matrix(jobs, fork_at);
    println!(
        "koala-bench warmstart — {} matrix: {} cells x {} seeds x {} jobs, fork at {:.0} s, {} thread(s)",
        if smoke { "smoke" } else { "full" },
        cfgs.len(),
        seeds.len(),
        jobs,
        fork_at.as_secs_f64(),
        threads,
    );

    // Untimed warm-up pass (code pages, allocator growth) so neither
    // timed pass is flattered by one-time process costs.
    let _ = run_cells_summary_with_seeds_threads(&cfgs, &seeds, threads);

    let t0 = Instant::now();
    let cold = run_cells_summary_with_seeds_threads(&cfgs, &seeds, threads);
    let cold_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let warm = run_cells_summary_warm_with_seeds(&cfgs, &seeds, threads);
    let warm_s = t1.elapsed().as_secs_f64();

    // Bit-identity before any number is reported: raw per-cell reports,
    // pooled aggregates, and both execution modes of the warm runner
    // (sequential and 3-thread) against the cold reference.
    assert_eq!(
        format!("{cold:?}"),
        format!("{warm:?}"),
        "warm-forked matrix diverged from the cold matrix (raw reports)"
    );
    assert_eq!(
        pooled(&cold),
        pooled(&warm),
        "warm-forked matrix diverged from the cold matrix (pooled)"
    );
    let warm_seq = run_cells_summary_warm_with_seeds(&cfgs, &seeds, 1);
    let warm_par3 = run_cells_summary_warm_with_seeds(&cfgs, &seeds, 3);
    assert_eq!(
        format!("{warm_seq:?}"),
        format!("{cold:?}"),
        "sequential warm runner diverged from the cold matrix"
    );
    assert_eq!(
        format!("{warm_par3:?}"),
        format!("{cold:?}"),
        "3-thread warm runner diverged from the cold matrix"
    );
    println!("  determinism: warm-forked summaries (raw and pooled, sequential and parallel) bit-identical to cold");

    let speedup = cold_s / warm_s.max(1e-12);
    let events: u64 = cold
        .iter()
        .flat_map(|m| m.runs.iter())
        .map(|r| r.events)
        .sum();
    println!(
        "  cold {cold_s:>7.3} s | warm {warm_s:>7.3} s | speedup {speedup:>5.2}x | {} forks per prefix",
        cfgs.len()
    );
    if !smoke && speedup < 2.0 {
        eprintln!("warning: warm-start speedup below the 2x target ({speedup:.2}x)");
    }

    let json = obj(vec![
        ("bench", Value::String("BENCH_10".into())),
        (
            "description",
            Value::String(
                "Warm-forked sweeps: each (workload, seed) group's shared \
                 prefix simulates once under the base policy pair, and \
                 every policy cell continues from an in-memory copy of the \
                 warmed world; asserted byte-identical (raw and pooled, \
                 sequential and parallel) to the cold matrix that replays \
                 the prefix per cell, then timed at matched thread counts"
                    .into(),
            ),
        ),
        (
            "command",
            Value::String(format!(
                "cargo run --release -p koala_bench --bin warmstart{}",
                if smoke { " -- --smoke" } else { "" }
            )),
        ),
        ("smoke", Value::Bool(smoke)),
        ("threads", Value::UInt(threads as u64)),
        ("cells", Value::UInt(cfgs.len() as u64)),
        ("seeds", Value::UInt(seeds.len() as u64)),
        ("jobs_per_run", Value::UInt(jobs as u64)),
        ("events", Value::UInt(events)),
        ("fork_at_s", Value::Float(round3(fork_at.as_secs_f64()))),
        ("forks_per_prefix", Value::UInt(cfgs.len() as u64)),
        ("bit_identical", Value::Bool(true)),
        ("cold_s", Value::Float(round3(cold_s))),
        ("warm_s", Value::Float(round3(warm_s))),
        ("speedup", Value::Float(round3(speedup))),
    ]);
    let text = serde_json::to_string_pretty(&ValueWrap(json)).expect("render JSON");
    let path = out.unwrap_or_else(|| {
        if smoke {
            std::env::temp_dir()
                .join("BENCH_10_smoke.json")
                .to_string_lossy()
                .into_owned()
        } else {
            "BENCH_10.json".to_string()
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
