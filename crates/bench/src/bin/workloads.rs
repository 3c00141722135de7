//! `koala-bench workloads` — the workload-engine matrix.
//!
//! Sweeps workload source × malleability policy × cluster count (see
//! [`koala_bench::workloads_matrix`]) with summarized replications,
//! prints one `mean ± 95 % CI` line per cell and writes
//! `repro_out/workloads_summary_ci.csv` (golden-pinned).
//!
//! ```text
//! cargo run --release -p koala_bench --bin workloads [-- --smoke] [--threads N]
//! ```
//!
//! * `--smoke` — tiny matrix (12 jobs, 2 seeds) for CI.

use koala::{Run, SummaryReport};
use koala_bench::{
    init_threads_with_args, out_dir, per_config, summary_cell_line, workloads_matrix,
    workloads_summary_outputs, write_csv, SEEDS,
};

fn main() {
    let (threads, args) = init_threads_with_args();
    let smoke = args.iter().any(|a| a == "--smoke");
    let (jobs, seeds): (usize, Vec<u64>) = if smoke {
        (12, SEEDS[..2].to_vec())
    } else {
        (120, SEEDS.to_vec())
    };
    let cfgs = workloads_matrix(jobs);
    println!(
        "workload matrix: {} cells ({} sources x {} policies x {} cluster counts) x {} seeds x {} jobs, {} thread(s)",
        cfgs.len(),
        koala_bench::WORKLOAD_SOURCES.len(),
        koala_bench::WORKLOAD_POLICIES.len(),
        koala_bench::WORKLOAD_TOPOLOGIES.len(),
        seeds.len(),
        jobs,
        threads
    );
    let runs = koala::run(&Run::matrix(&cfgs, &seeds).threads(threads))
        .expect("the workload matrix is valid");
    let reports = per_config::<SummaryReport>(&cfgs, runs);
    for m in &reports {
        println!("  {}", summary_cell_line(m));
    }
    let dir = out_dir();
    for (name, text) in workloads_summary_outputs(&reports) {
        let path = dir.join(&name);
        write_csv(&path, &text);
        println!("wrote {}", path.display());
    }
}
