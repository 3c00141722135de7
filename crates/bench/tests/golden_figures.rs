//! Golden regression test: all seven fig7/fig8 CSV artifacts — panels
//! (a)–(f) and the mean ± ci table — are pinned byte-for-byte for a
//! fixed small configuration and seed set.
//! Any refactor that silently shifts the paper numbers — scheduler
//! behaviour, metric formulas, accumulator merging, CSV formatting —
//! fails here with a diff pointer instead of publishing drifted curves.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p koala_bench --test golden_figures
//! ```
//!
//! and commit the updated files under `tests/golden/` with a rationale.

use koala::report::MultiReport;
use koala::{Run, RunReport};
use koala_bench::{figure_matrix, figure_outputs, per_config, PaperFigure};

/// Small but non-trivial: 12 jobs × 2 seeds per cell keeps the test in
/// the sub-second range while exercising growth (and, under Fig. 8's
/// W' workloads, the PWA pathway).
const GOLDEN_JOBS: usize = 12;
const GOLDEN_SEEDS: [u64; 2] = [7, 11];

fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// The figure's golden-scale reports, one aggregate per cell.
fn golden_reports(figure: PaperFigure) -> Vec<MultiReport> {
    let cells = figure_matrix(figure, GOLDEN_JOBS);
    let runs = koala::run(&Run::matrix(&cells, &GOLDEN_SEEDS)).unwrap();
    per_config::<RunReport>(&cells, runs)
}

fn check_figure(figure: PaperFigure) {
    let outputs = figure_outputs(figure, &golden_reports(figure));
    assert_eq!(outputs.len(), 7, "six panels + the mean ± ci table");
    let update = std::env::var("UPDATE_GOLDEN").is_ok();
    for (name, text) in &outputs {
        let path = golden_dir().join(name);
        if update {
            std::fs::create_dir_all(golden_dir()).expect("create golden dir");
            std::fs::write(&path, text).expect("write golden file");
            continue;
        }
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
        assert_eq!(
            text.as_str(),
            golden.as_str(),
            "{name} drifted from its golden copy; if the change is intentional, \
             regenerate with UPDATE_GOLDEN=1 and commit the diff",
        );
    }
}

#[test]
fn fig7_summarized_csvs_match_golden() {
    check_figure(PaperFigure::Fig7);
}

#[test]
fn fig8_summarized_csvs_match_golden() {
    check_figure(PaperFigure::Fig8);
}

/// The ci table carries every scalar metric for every cell, and the
/// panel CSVs carry one column per cell — structural guarantees the
/// byte comparison alone would not explain on failure.
#[test]
fn summary_outputs_are_structurally_complete() {
    let reports = golden_reports(PaperFigure::Fig7);
    let outputs = figure_outputs(PaperFigure::Fig7, &reports);
    let ci = &outputs.last().unwrap().1;
    // Header + 4 cells × 10 metrics.
    assert_eq!(ci.lines().count(), 1 + 4 * 10, "ci table rows");
    let header = ci.lines().next().unwrap();
    assert_eq!(
        header,
        "cell,metric,replications,mean,ci95_half,ci95_lo,ci95_hi"
    );
    for m in &reports {
        assert!(ci.contains(&m.name), "{} missing from ci table", m.name);
    }
    for (name, text) in &outputs[..6] {
        let header = text.lines().next().unwrap();
        assert_eq!(
            header.split(',').count(),
            1 + reports.len(),
            "{name}: one column per cell"
        );
        assert!(text.lines().count() > 2, "{name} has data rows");
    }
}
