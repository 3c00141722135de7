//! Golden regression test for the workloads matrix: the summarized
//! `mean ± ci` CSV is pinned byte-for-byte for a fixed small
//! configuration, so generator drift, registry changes, or CSV
//! formatting shifts fail here instead of silently moving the numbers.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p koala_bench --test workloads_golden
//! ```

use koala::{Run, SummaryReport};
use koala_bench::{per_config, workloads_matrix, workloads_summary_outputs};

const GOLDEN_JOBS: usize = 12;
const GOLDEN_SEEDS: [u64; 2] = [7, 11];

fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

#[test]
fn workloads_summary_csv_matches_golden() {
    let cells = workloads_matrix(GOLDEN_JOBS);
    assert_eq!(cells.len(), 24, "4 sources x 2 policies x 3 topologies");
    let runs = koala::run(&Run::matrix(&cells, &GOLDEN_SEEDS)).unwrap();
    let reports = per_config::<SummaryReport>(&cells, runs);
    let outputs = workloads_summary_outputs(&reports);
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
