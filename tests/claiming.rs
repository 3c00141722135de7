//! The processor claimer (Section IV-A): deferred claiming postpones
//! taking processors until close to the estimated start (the end of file
//! staging), trading idle-processor waste against claim failures.

use malleable_koala::appsim::workload::{SubmittedJob, WorkloadSpec};
use malleable_koala::appsim::{AppKind, JobSpec};
use malleable_koala::koala::config::{ClaimingPolicy, ExperimentConfig};
use malleable_koala::koala::sim::World;
use malleable_koala::koala::{engine_for, RunReport};
use malleable_koala::multicluster::{BackgroundLoad, ClusterId, FileCatalog};
use malleable_koala::simcore::{SimDuration, SimTime};

/// A 100 GB input at Leiden only, over a 1 Gb/s WAN: 800 s to stage
/// anywhere else, 0 s locally.
fn catalog() -> FileCatalog {
    let mut cat = FileCatalog::uniform(5, 1.0).unwrap();
    let f = cat.register(100.0, [ClusterId(4)]);
    assert_eq!(f.0, 0, "opaque id 0 maps to the first registered file");
    cat
}

fn staged_job(at_s: u64) -> SubmittedJob {
    let mut spec = JobSpec::rigid(AppKind::Gadget2, 4);
    spec.input_files = vec![0];
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
    cfg.trace = Some(vec![staged_job(0)]);
    cfg.seed = 3;
    cfg
}

#[test]
fn close_to_files_avoids_staging_entirely() {
    // With CF the job lands at Leiden where the replica lives: staging
    // is zero and deferred claiming degenerates to immediate.
    let c = cfg(
        ClaimingPolicy::Deferred {
            margin: SimDuration::from_secs(10),
        },
        "close_to_files",
    );
    let mut engine = engine_for(&c);
    let r = World::new(&c)
        .with_files(catalog())
        .run_to_end::<RunReport>(&mut engine);
    let rec = &r.jobs.records()[0];
    assert!(
        rec.wait_time().unwrap() < 10.0,
        "no staging at the replica site"
    );
}

#[test]
fn deferred_claim_fires_near_the_end_of_staging() {
    // Worst-Fit sends the job to VU (most idle), which must stage the
    // 800 s transfer; the claim fires margin=30 s before the estimated
    // start, so execution starts around t = 800 s — and the processors
    // were NOT held during the staging window.
    let c = cfg(
        ClaimingPolicy::Deferred {
            margin: SimDuration::from_secs(30),
        },
        "worst_fit",
    );
    let mut engine = engine_for(&c);
    let r = World::new(&c)
        .with_files(catalog())
        .run_to_end::<RunReport>(&mut engine);
    let rec = &r.jobs.records()[0];
    let wait = rec.wait_time().unwrap();
    assert!(
        (760.0..860.0).contains(&wait),
        "start should follow the 800 s staging window, waited {wait:.0}s"
    );
    // During staging (say t = 400 s) nothing was held by KOALA.
    assert_eq!(
        r.koala_used.value_at(SimTime::from_secs(400), 0.0),
        0.0,
        "deferred claiming must not hold processors through staging"
    );
}

#[test]
fn immediate_claiming_holds_processors_through_staging() {
    // Control: with immediate claiming, the same job holds its 4
    // processors from placement even though it cannot start until the
    // data arrives (in our model it starts right away since execution
    // does not wait for staging under Immediate — the claim-time
    // difference is what we assert).
    let c = cfg(ClaimingPolicy::Immediate, "worst_fit");
    let mut engine = engine_for(&c);
    let r = World::new(&c)
        .with_files(catalog())
        .run_to_end::<RunReport>(&mut engine);
    assert!(
        r.koala_used.value_at(SimTime::from_secs(1), 0.0) > 0.0,
        "immediate claiming takes processors at placement"
    );
}

#[test]
fn failed_deferred_claims_bounce_back_to_the_queue() {
    // A withdrawal empties VU during the staging window, so the claim
    // fails; the job returns to the queue, is re-placed, and still
    // completes.
    let c = cfg(
        ClaimingPolicy::Deferred {
            margin: SimDuration::from_secs(30),
        },
        "worst_fit",
    );
    let mut engine = engine_for(&c);
    engine.schedule_at(
        SimTime::from_secs(100),
        malleable_koala::koala::sim::Ev::NodeWithdraw {
            cluster: ClusterId(0),
            count: 85,
        },
    );
    let r = World::new(&c)
        .with_files(catalog())
        .run_to_end::<RunReport>(&mut engine);
    assert!(
        (r.jobs.completion_ratio() - 1.0).abs() < 1e-12,
        "the job must be re-placed and complete"
    );
    assert!(
        r.summary.placement_tries > 0,
        "the failed claim counts as a placement try"
    );
}
