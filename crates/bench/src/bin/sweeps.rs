//! Ablation sweeps over the design choices DESIGN.md calls out.
//!
//! ```text
//! cargo run --release -p koala_bench --bin sweeps [-- reconfig|polling|background|policies|cross] [--threads N]
//! ```
//!
//! Every sweep's `(configuration, seed)` cells are flattened into one
//! work-stealing pool (see `koala::parallel`), so points run
//! concurrently across `--threads`/`KOALA_THREADS` workers.
//!
//! * `reconfig`   — A1: how the grow/shrink suspension cost erodes the
//!   benefit of malleability (the overhead the paper says prior
//!   simulation work ignores).
//! * `polling`    — A2: KIS polling period vs. responsiveness.
//! * `background` — A3: background load and the grow-reserve threshold
//!   that protects local users.
//! * `policies`   — A4: every *registered* malleability policy under PRA
//!   and PWA — FPSMA/EGS, the equipartition/folding baselines, and any
//!   policy later dropped into the registry, with zero changes here.
//! * `cross`      — A5: the placement × malleability cross product over
//!   the registry (including the first-fit and greedy-grow/lazy-shrink
//!   policies the old closed enums could not express).

use appsim::workload::WorkloadSpec;
use appsim::ReconfigCost;
use koala::config::{Approach, ExperimentConfig};
use koala::policy::PolicyRegistry;
use koala::scenario::{cell_label, Scenario};
use koala::{Run, SummaryReport};
use koala_bench::{init_threads_with_args, per_config, scenario_matrix, summary_cell_line};
use multicluster::BackgroundLoad;
use simcore::SimDuration;

const SWEEP_SEEDS: [u64; 2] = [11, 22];
const SWEEP_JOBS: usize = 150;

fn base(policy: &str) -> ExperimentConfig {
    Scenario::builder()
        .malleability(policy)
        .workload(WorkloadSpec::wm())
        .jobs(SWEEP_JOBS)
        .build()
        .expect("sweep base scenario is valid")
        .into_config()
}

/// Renames a configuration for its sweep label.
fn named(name: &str, cfg: &ExperimentConfig) -> ExperimentConfig {
    let mut cfg = cfg.clone();
    cfg.name = name.to_string();
    cfg
}

/// Runs one sweep's points as a single parallel batch — summarized, so
/// an arbitrarily long sweep stays memory-bounded — and prints each
/// point's `mean ± ci` summary in sweep order.
fn run_batch(points: Vec<ExperimentConfig>, threads: usize) {
    let runs = koala::run(&Run::matrix(&points, &SWEEP_SEEDS).threads(threads))
        .expect("sweep points are valid");
    for m in per_config::<SummaryReport>(&points, runs) {
        println!("{}", summary_cell_line(&m));
    }
}

fn sweep_reconfig(threads: usize) {
    println!("\n== A1: reconfiguration-cost sweep (EGS/Wm, PRA) ==");
    println!("   (cost = application suspension per grow/shrink; the paper's MRunner");
    println!("    overlaps everything else with execution)");
    let mut points = Vec::new();
    for (label, cost) in [
        ("free", ReconfigCost::Free),
        (
            "fixed 2s/1s",
            ReconfigCost::Fixed {
                grow: SimDuration::from_secs(2),
                shrink: SimDuration::from_secs(1),
            },
        ),
        ("fixed 10s/5s (default)", ReconfigCost::default()),
        (
            "fixed 30s/15s",
            ReconfigCost::Fixed {
                grow: SimDuration::from_secs(30),
                shrink: SimDuration::from_secs(15),
            },
        ),
        (
            "data 1s + 0.5s/proc",
            ReconfigCost::DataRedistribution {
                base: SimDuration::from_secs(1),
                per_proc: SimDuration::from_millis(500),
            },
        ),
    ] {
        let mut cfg = base("egs");
        cfg.sched.reconfig = cost;
        points.push(named(&format!("cost={label}"), &cfg));
    }
    run_batch(points, threads);
}

fn sweep_polling(threads: usize) {
    println!("\n== A2: KIS polling-period sweep (FPSMA/Wm, PRA) ==");
    let mut points = Vec::new();
    for secs in [2u64, 10, 30, 60, 120] {
        let mut cfg = base("fpsma");
        cfg.sched.kis_poll_period = SimDuration::from_secs(secs);
        cfg.sched.queue_scan_period = SimDuration::from_secs(secs);
        points.push(named(&format!("poll={secs}s"), &cfg));
    }
    run_batch(points, threads);
}

fn sweep_background(threads: usize) {
    println!("\n== A3: background load and grow reserve (EGS/Wm, PRA) ==");
    let mut points = Vec::new();
    for (bg_label, bg) in [
        ("none", BackgroundLoad::none()),
        ("light", BackgroundLoad::light()),
        ("heavy", BackgroundLoad::heavy()),
    ] {
        for reserve in [0u32, 8, 32] {
            let mut cfg = base("egs");
            cfg.background = bg.clone();
            cfg.sched.grow_reserve = reserve;
            points.push(named(&format!("bg={bg_label},reserve={reserve}"), &cfg));
        }
    }
    run_batch(points, threads);
}

fn sweep_policies(threads: usize) {
    println!("\n== A4: every registered malleability policy (Wm/PRA, then W'm/PWA) ==");
    let registry = PolicyRegistry::global();
    let names = registry.malleability_names();
    let mut points = Vec::new();
    for name in &names {
        let label = registry.malleability(name).expect("registered").label();
        let cfg = base(name);
        points.push(named(
            &cell_label(Some(Approach::Pra), None, label, &cfg.workload),
            &cfg,
        ));
    }
    for name in &names {
        let label = registry.malleability(name).expect("registered").label();
        let cfg = Scenario::builder()
            .malleability(name.as_str())
            .workload(WorkloadSpec::wm_prime())
            .jobs(SWEEP_JOBS)
            .pwa()
            .build()
            .expect("sweep scenario is valid")
            .into_config();
        points.push(named(
            &cell_label(Some(Approach::Pwa), None, label, &cfg.workload),
            &cfg,
        ));
    }
    run_batch(points, threads);
}

fn sweep_cross(threads: usize) {
    println!("\n== A5: placement × malleability cross product over the registry (Wm, PRA) ==");
    // Single-cluster-job workloads never exercise the co-allocation
    // policies meaningfully; sweep the single-component placements
    // against the full malleability registry.
    let malleability = PolicyRegistry::global().malleability_names();
    let malleability: Vec<&str> = malleability.iter().map(String::as_str).collect();
    let mut points = scenario_matrix(
        Approach::Pra,
        &["worst_fit", "first_fit"],
        &malleability,
        &[WorkloadSpec::wm()],
    );
    for cfg in &mut points {
        cfg.workload.jobs = SWEEP_JOBS;
    }
    run_batch(points, threads);
}

fn main() {
    let (threads, positional) = init_threads_with_args();
    let arg = positional
        .into_iter()
        .next()
        .unwrap_or_else(|| "all".to_string());
    println!(
        "ablation sweeps ({SWEEP_JOBS} jobs x {} seeds per point, {threads} thread(s))",
        SWEEP_SEEDS.len()
    );
    match arg.as_str() {
        "reconfig" => sweep_reconfig(threads),
        "polling" => sweep_polling(threads),
        "background" => sweep_background(threads),
        "policies" => sweep_policies(threads),
        "cross" => sweep_cross(threads),
        "all" => {
            sweep_reconfig(threads);
            sweep_polling(threads);
            sweep_background(threads);
            sweep_policies(threads);
            sweep_cross(threads);
        }
        other => {
            eprintln!(
                "unknown sweep '{other}'; expected reconfig|polling|background|policies|cross|all"
            );
            std::process::exit(2);
        }
    }
}
