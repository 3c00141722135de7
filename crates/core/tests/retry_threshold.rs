//! The placement-retry threshold (Section IV-A: "when this number
//! exceeds a certain threshold value, the submission of that job
//! fails"), pinned against a committed golden.
//!
//! An overloaded three-cluster platform runs a mixed trace of
//! malleable, large rigid and co-allocated jobs under PRA and PWA with
//! thresholds 0 and 2. Every failure kind of the queue scan occurs in
//! every case:
//!
//! * **quick-rejects** — the availability index refuses a job no
//!   cluster (or the platform as a whole) can host;
//! * **policy `None`s** — a co-allocated job passes the index but its
//!   components cannot all be packed;
//! * **claim failures** — the policy places against the stale KIS
//!   snapshot, and the live claim finds the processors gone.
//!
//! A counting wrapper around Worst-Fit tells the three apart without
//! touching the scheduler: the index-on run counts the policy's `None`s
//! and `Some`s, the index-off run counts every reject as a `None`, and
//! the difference is the quick-rejects. The golden records the counts,
//! the report's retry tallies and every job's outcome and finish time.
//! Regenerate after an *intentional* trajectory change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p koala --test retry_threshold
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use appsim::workload::{SubmittedJob, WorkloadSpec};
use appsim::{AppKind, JobSpec};
use koala::config::{Approach, ExperimentConfig, UniformTopology};
use koala::placement::{PlacementDecision, PlacementRequest, WorstFit};
use koala::policy::{Placement, PolicyRegistry};
use koala::report::{RunReport, SummaryReport};
use koala::Run;
use koala_metrics::JobOutcome;
use multicluster::FileCatalog;
use simcore::SimTime;

/// Worst-Fit, counting its decisions. Each run registers its own
/// instance under its own name, so parallel tests never share counters.
#[derive(Clone, Default)]
struct Counting {
    name: &'static str,
    nones: Arc<AtomicU64>,
    somes: Arc<AtomicU64>,
}

impl Counting {
    /// Registers a counting Worst-Fit under `name`. Every instance the
    /// registry builds from it shares the returned one's counters.
    fn register(name: String) -> Self {
        let counting = Counting {
            name: Box::leak(name.into_boxed_str()),
            ..Counting::default()
        };
        let proto = counting.clone();
        PolicyRegistry::global().register_placement(move || Box::new(proto.clone()));
        counting
    }

    /// `(None, Some)` decisions so far.
    fn read(&self) -> (u64, u64) {
        (
            self.nones.load(Ordering::Relaxed),
            self.somes.load(Ordering::Relaxed),
        )
    }
}

impl Placement for Counting {
    fn name(&self) -> &'static str {
        self.name
    }

    fn label(&self) -> &'static str {
        "WF#"
    }

    fn place_in(
        &self,
        req: &PlacementRequest,
        avail: &mut [u32],
        scratch: &mut Vec<u32>,
        catalog: Option<&FileCatalog>,
    ) -> Option<PlacementDecision> {
        let placed = WorstFit.place_in(req, avail, scratch, catalog);
        let counter = if placed.is_some() {
            &self.somes
        } else {
            &self.nones
        };
        counter.fetch_add(1, Ordering::Relaxed);
        placed
    }
}

fn job(at_s: u64, spec: JobSpec) -> SubmittedJob {
    SubmittedJob {
        at: SimTime::from_secs(at_s),
        spec,
    }
}

/// 64 short jobs every 6 s — faster than the 10 s KIS poll, so claims
/// race the stale snapshot — cycling through a small malleable job, a
/// power-of-two malleable job, a rigid job of a quarter of the platform
/// and a two-component co-allocated job.
fn trace() -> Vec<SubmittedJob> {
    (0..64u64)
        .map(|i| {
            let mut spec = match i % 4 {
                0 => JobSpec::paper_malleable(AppKind::Gadget2),
                1 => JobSpec::paper_malleable(AppKind::Ft),
                2 => JobSpec::rigid(AppKind::Gadget2, 12),
                _ => JobSpec::coallocated(AppKind::Gadget2, vec![6, 6]),
            };
            spec.work_scale = 0.1;
            job(6 * i, spec)
        })
        .collect()
}

/// Three 16-node clusters with light local load, all open to KOALA.
fn config(approach: Approach, threshold: u32, placement: &str) -> ExperimentConfig {
    let mut cfg = match approach {
        Approach::Pra => ExperimentConfig::paper_pra("fpsma", WorkloadSpec::wm()),
        Approach::Pwa => ExperimentConfig::paper_pwa("egs", WorkloadSpec::wm_prime()),
    };
    cfg.uniform_topology = Some(UniformTopology {
        clusters: 3,
        nodes_per_cluster: 16,
    });
    cfg.background = multicluster::BackgroundLoad::light();
    cfg.sched.koala_share = 1.0;
    cfg.sched.placement = placement.to_string();
    cfg.sched.placement_retry_threshold = threshold;
    cfg.trace = Some(trace());
    cfg.seed = 11;
    cfg
}

/// One full-report run of `cfg`.
fn report(cfg: &ExperimentConfig) -> RunReport {
    koala::run(&Run::cell(cfg)).expect("valid config").remove(0)
}

/// The counted kinds of failed placement try.
struct Kinds {
    quick_rejects: u64,
    policy_nones: u64,
    claim_failures: u64,
}

/// Runs one case with the index on and off and splits its failed tries
/// by kind.
fn run_case(approach: Approach, threshold: u32, tag: &str) -> (RunReport, Kinds) {
    let on_counts = Counting::register(format!("counting_wf_{tag}_on"));
    let off_counts = Counting::register(format!("counting_wf_{tag}_off"));
    let on_cfg = config(approach, threshold, on_counts.name);
    let mut off_cfg = config(approach, threshold, off_counts.name);
    off_cfg.sched.avail_index = false;
    let on = report(&on_cfg);
    let off = report(&off_cfg);
    assert_eq!(
        render_outcome(&on),
        render_outcome(&off),
        "{tag}: the availability index changed the trajectory"
    );
    // The counting wrapper is passive: plain Worst-Fit runs the same.
    let plain = report(&config(approach, threshold, "worst_fit"));
    assert_eq!(
        render_outcome(&on),
        render_outcome(&plain),
        "{tag}: the counting wrapper changed the trajectory"
    );
    let (nones_on, somes_on) = on_counts.read();
    let (nones_off, _) = off_counts.read();
    let placed = on
        .jobs
        .records()
        .iter()
        .filter(|r| r.placed.is_some())
        .count() as u64;
    let kinds = Kinds {
        quick_rejects: nones_off - nones_on,
        policy_nones: nones_on,
        claim_failures: somes_on - placed,
    };
    // Every failed try of the scan is one of the three kinds.
    assert_eq!(
        on.summary.placement_tries,
        kinds.quick_rejects + kinds.policy_nones + kinds.claim_failures,
        "{tag}: failed tries do not split into the three kinds"
    );
    (on, kinds)
}

/// The retry tallies and every job's fate.
fn render_outcome(r: &RunReport) -> String {
    let mut out = format!(
        "placement_tries={} failed_submissions={} jobs_failed={} makespan={:?}\n",
        r.summary.placement_tries,
        r.summary.failed_submissions,
        r.jobs
            .records()
            .iter()
            .filter(|j| j.outcome == JobOutcome::PlacementFailed)
            .count(),
        r.summary.makespan,
    );
    for j in r.jobs.records() {
        out.push_str(&format!(
            "  job {:>2} {:?} placed={:?} done={:?}\n",
            j.id, j.outcome, j.placed, j.completed
        ));
    }
    out
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("retry_threshold.txt")
}

/// PRA and PWA × threshold 0 and 2: every failure kind occurs, the
/// threshold fails submissions, and the whole outcome matches the
/// golden byte for byte.
#[test]
fn retry_threshold_outcomes_match_golden() {
    let mut text = String::new();
    for (approach, threshold, tag) in [
        (Approach::Pra, 0, "pra_t0"),
        (Approach::Pra, 2, "pra_t2"),
        (Approach::Pwa, 0, "pwa_t0"),
        (Approach::Pwa, 2, "pwa_t2"),
    ] {
        let (r, k) = run_case(approach, threshold, tag);
        assert!(k.quick_rejects > 0, "{tag}: no quick-reject");
        assert!(k.policy_nones > 0, "{tag}: no policy None");
        assert!(k.claim_failures > 0, "{tag}: no claim failure");
        assert!(
            r.summary.failed_submissions > 0,
            "{tag}: the threshold never fired"
        );
        text.push_str(&format!(
            "== {tag} ==\nquick_rejects={} policy_nones={} claim_failures={}\n{}",
            k.quick_rejects,
            k.policy_nones,
            k.claim_failures,
            render_outcome(&r)
        ));
    }

    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &text).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        text.as_str(),
        golden.as_str(),
        "retry-threshold outcomes drifted from the pinned golden; if intentional, \
         regenerate with UPDATE_GOLDEN=1 and explain why in the commit message"
    );
}

/// A job that can never be placed, under a threshold that never fails
/// it, is cut by the horizon: the run still ends by `cfg.horizon`, and
/// the summary shows the job submitted but neither completed nor failed.
#[test]
fn an_unplaceable_job_is_cut_by_the_horizon() {
    let mut cfg = config(Approach::Pra, u32::MAX, "worst_fit");
    cfg.background = multicluster::BackgroundLoad::none();
    // KOALA may take a quarter of the 48 nodes; the job needs 14.
    cfg.sched.koala_share = 0.25;
    cfg.trace = Some(vec![job(0, JobSpec::rigid(AppKind::Gadget2, 14))]);
    let horizon = SimTime::ZERO + cfg.horizon.expect("paper configs set a horizon");
    let s: SummaryReport = koala::run(&Run::cell(&cfg))
        .expect("valid config")
        .remove(0);
    assert!(s.makespan <= horizon, "{:?} past {horizon:?}", s.makespan);
    assert_eq!(s.jobs_submitted, 1);
    assert_eq!(s.jobs_completed, 0);
    assert_eq!(s.jobs_failed, 0);
}
