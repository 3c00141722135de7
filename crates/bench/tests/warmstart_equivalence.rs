//! Fork-sweep equivalence: a warm-forked scenario matrix — warmup once
//! per `(workload, seed)` group, fork every policy cell from the shared
//! snapshot — must be **bit-identical** to the cold-start matrix that
//! replays the prefix inside every cell, cell by cell. Both the raw
//! per-seed reports and the pooled per-cell aggregates are compared,
//! and the warm runner is exercised sequentially *and* across three
//! worker threads (fork order must not leak into results).

use appsim::workload::WorkloadSpec;
use koala::config::{Approach, WarmFork};
use koala::parallel::run_cells_summary;
use koala::{Run, SummaryReport};
use koala_bench::{per_config, pooled_cells, scenario_matrix, warm_forked, SEEDS};
use simcore::SimDuration;

#[test]
fn warm_forked_matrix_is_bit_identical_to_cold_start() {
    let mut cfgs = scenario_matrix(
        Approach::Pra,
        &["worst_fit", "first_fit"],
        &["fpsma", "egs", "equipartition"],
        &[WorkloadSpec::wm()],
    );
    for cfg in &mut cfgs {
        cfg.workload.jobs = 16;
    }
    let cfgs = warm_forked(cfgs, WarmFork::at(SimDuration::from_secs(1800)));
    let seeds = &SEEDS[..2];

    let cells = Run::matrix(&cfgs, seeds).cells;
    let cold = per_config(&cfgs, run_cells_summary(&cells, 1));
    for threads in [1, 3] {
        let runs = koala::run(&Run::matrix(&cfgs, seeds).threads(threads)).unwrap();
        let warm = per_config::<SummaryReport>(&cfgs, runs);
        // Raw reports: every cell, every seed, byte-for-byte.
        assert_eq!(
            format!("{warm:?}"),
            format!("{cold:?}"),
            "warm-forked matrix at {threads} thread(s) diverged from the \
             cold matrix (raw reports)"
        );
        // Pooled aggregates: the cross-seed statistics the figures use.
        assert_eq!(
            format!("{:?}", pooled_cells(&warm)),
            format!("{:?}", pooled_cells(&cold)),
            "warm-forked matrix at {threads} thread(s) diverged from the \
             cold matrix (pooled aggregates)"
        );
    }
}
