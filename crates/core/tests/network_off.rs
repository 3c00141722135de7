//! Networking-off passivity: with `ExperimentConfig::network` left at
//! `None`, the network layer must be pure plumbing — every placement
//! decision, staging estimate, claim time and event timestamp identical
//! to the code before the subsystem existed.
//!
//! The golden file under `tests/golden/` was generated from the
//! pre-network-layer tree and pins the file-staging scenarios that the
//! network subsystem reworks most directly: a `FileCatalog`-driven trace
//! under every placement × claiming combination the claimer supports.
//! (The broader catalog-free baseline is already pinned by
//! `ctrl_faults.rs` against `pr6_baseline.txt`.)
//!
//! To regenerate after an *intentional* trajectory change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p koala --test network_off
//! ```
//!
//! and commit the updated file with a rationale.

use appsim::workload::{SubmittedJob, WorkloadSpec};
use appsim::{AppKind, JobSpec};
use koala::config::{ClaimingPolicy, ExperimentConfig};
use koala::report::RunReport;
use koala::sim::World;
use multicluster::{BackgroundLoad, ClusterId, FileCatalog};
use simcore::{SimDuration, SimTime};

fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// A small replica layout exercising both the local-hit and the
/// remote-staging paths: one 100 GB input pinned at Leiden, one 40 GB
/// input replicated at VU and Delft, over a 1 Gb/s uniform WAN.
fn catalog() -> FileCatalog {
    let mut cat = FileCatalog::uniform(5, 1.0).unwrap();
    cat.register(100.0, [ClusterId(4)]);
    cat.register(40.0, [ClusterId(0), ClusterId(2)]);
    cat
}

fn staged_job(at_s: u64, size: u32, files: Vec<u64>) -> SubmittedJob {
    let mut spec = JobSpec::rigid(AppKind::Gadget2, size);
    spec.input_files = files;
    SubmittedJob {
        at: SimTime::from_secs(at_s),
        spec,
    }
}

fn cfg(claiming: ClaimingPolicy, placement: &str) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_pra("fpsma", WorkloadSpec::wm());
    cfg.background = BackgroundLoad::none();
    cfg.sched.claiming = claiming;
    cfg.sched.placement = placement.to_string();
    cfg.sched.koala_share = 0.5;
    cfg.trace = Some(vec![
        staged_job(0, 4, vec![0]),
        staged_job(30, 8, vec![1]),
        staged_job(60, 4, vec![0, 1]),
        staged_job(90, 6, vec![]),
    ]);
    cfg.seed = 3;
    cfg
}

/// Renders the full-report surface that existed before the network
/// layer: per-job timings plus the scheduler counters. New network
/// counters must render *outside* this function so report growth cannot
/// mask a trajectory drift.
fn render(tag: &str, r: &RunReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {tag} ==\n"));
    for (i, rec) in r.jobs.records().iter().enumerate() {
        out.push_str(&format!(
            "job {i}: wait={:?} exec={:?} resp={:?}\n",
            rec.wait_time(),
            rec.execution_time(),
            rec.response_time()
        ));
    }
    out.push_str(&format!("makespan: {:?}\n", r.summary.makespan));
    out.push_str(&format!(
        "counters: placement_tries={} failed_submissions={} events={} kis_polls={}\n",
        r.summary.placement_tries,
        r.summary.failed_submissions,
        r.summary.events,
        r.summary.kis_polls
    ));
    out.push_str(&format!(
        "koala_used: {:?}\n",
        r.koala_used.points().to_vec()
    ));
    out
}

fn fingerprint() -> String {
    let mut text = String::new();
    for placement in ["close_to_files", "worst_fit", "cluster_min"] {
        for (label, claiming) in [
            ("immediate", ClaimingPolicy::Immediate),
            (
                "deferred-30",
                ClaimingPolicy::Deferred {
                    margin: SimDuration::from_secs(30),
                },
            ),
        ] {
            let c = cfg(claiming, placement);
            let mut engine = koala::engine_for(&c);
            let r = World::new(&c)
                .with_files(catalog())
                .run_to_end::<RunReport>(&mut engine);
            text.push_str(&render(&format!("{placement} / {label}"), &r));
        }
    }
    text
}

/// Networking-off passivity: the staging-trace fingerprint is
/// byte-identical to the pre-network-layer golden.
#[test]
fn network_off_runs_are_bit_identical_to_pre_network_baseline() {
    let text = fingerprint();
    let path = golden_dir().join("pr7_files_baseline.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, &text).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        text.as_str(),
        golden.as_str(),
        "networking-off trajectory drifted from the pre-network baseline; the \
         network layer must be strictly passive when disabled. If the drift is \
         an intentional trajectory change, regenerate with UPDATE_GOLDEN=1 and \
         explain why in the commit message."
    );
}
