//! End-to-end behaviour of the contended-network layer: staging
//! genuinely delays job starts, placement policy choices show up in
//! staging delay, reconfiguration traffic flows, and everything stays
//! deterministic and bit-identical seq == par with networking ON.

use appsim::workload::{SubmittedJob, WorkloadSpec};
use appsim::{AppKind, JobSpec};
use koala::config::{ClaimingPolicy, ExperimentConfig, FileSpec, NetworkConfig};
use koala::parallel::default_threads;
use koala::{Report, Run, RunReport, SummaryReport};
use multicluster::BackgroundLoad;
use simcore::{SimDuration, SimTime};

/// `cfg` once per seed on `threads` workers, aggregated in seed order.
fn sweep<R: Report>(cfg: &ExperimentConfig, seeds: &[u64], threads: usize) -> R::Multi {
    let runs = koala::run(&Run::seeds(cfg, seeds).threads(threads)).unwrap();
    R::aggregate(cfg.name.clone(), runs)
}

/// One run of `cfg` under its own seed.
fn one<R: Report>(cfg: &ExperimentConfig) -> R {
    koala::run(&Run::cell(cfg)).unwrap().remove(0)
}

fn staged_job(at_s: u64, size: u32, files: Vec<u64>) -> SubmittedJob {
    let mut spec = JobSpec::rigid(AppKind::Gadget2, size);
    spec.input_files = files;
    SubmittedJob {
        at: SimTime::from_secs(at_s),
        spec,
    }
}

/// A quiet single-job world: no background users, no noise — the only
/// thing between arrival and start is GRAM latency plus whatever the
/// network layer adds.
fn base_cfg(placement: &str) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_pra("fpsma", WorkloadSpec::wm());
    cfg.background = BackgroundLoad::none();
    cfg.sched.placement = placement.to_string();
    cfg.seed = 7;
    cfg
}

/// One 100 GB input pinned at Leiden, a job that lands elsewhere: over
/// the 1 Gb/s `flat_wan` the transfer alone takes 800 s, and the job
/// must not start before it lands.
#[test]
fn staging_delays_job_start_under_networking() {
    let mut cfg = base_cfg("worst_fit");
    cfg.trace = Some(vec![staged_job(0, 4, vec![0])]);
    cfg.network = Some(NetworkConfig {
        topology: "flat_wan".to_string(),
        files: vec![FileSpec {
            size_gb: 100.0,
            replicas: vec![4],
        }],
        reconfig_gb_per_proc: 0.0,
    });
    let r = one::<RunReport>(&cfg);
    let rec = &r.jobs.records()[0];
    let wait = rec.wait_time().expect("job started");
    assert!(
        wait >= 800.0,
        "a 100 GB transfer over 1 Gb/s takes 800 s; job waited only {wait}"
    );
    assert!(
        wait < 900.0,
        "an uncontended transfer should not take much over 800 s: {wait}"
    );
    assert_eq!(r.summary.net.transfers_opened, 1);
    assert_eq!(r.summary.net.transfers_completed, 1);
    assert_eq!(r.summary.net.bytes_staged_gb, 100.0);
    assert!(
        r.summary.net.link_busy_s > 790.0,
        "busy {}",
        r.summary.net.link_busy_s
    );
    assert!(r.summary.net.link_busy_fraction() > 0.0);

    // The identical run with networking off starts after GRAM latency
    // alone — the delay above is genuinely the network layer's.
    cfg.network = None;
    let r_off = one::<RunReport>(&cfg);
    let wait_off = r_off.jobs.records()[0].wait_time().expect("job started");
    assert!(
        wait_off < 60.0,
        "without networking the wait is GRAM latency only, got {wait_off}"
    );
    assert_eq!(r_off.summary.net.transfers_opened, 0);
}

/// Two concurrent transfers over the shared 1 Gb/s WAN halve each
/// other's rate: two 50 GB files staged together finish in ~800 s, not
/// ~400 s — the max-min contention is real, not per-flow.
#[test]
fn concurrent_transfers_contend_on_shared_links() {
    let mut cfg = base_cfg("worst_fit");
    cfg.trace = Some(vec![staged_job(0, 4, vec![0, 1])]);
    cfg.network = Some(NetworkConfig {
        topology: "flat_wan".to_string(),
        files: vec![
            FileSpec {
                size_gb: 50.0,
                replicas: vec![4],
            },
            FileSpec {
                size_gb: 50.0,
                replicas: vec![4],
            },
        ],
        reconfig_gb_per_proc: 0.0,
    });
    let r = one::<RunReport>(&cfg);
    let wait = r.jobs.records()[0].wait_time().expect("job started");
    assert!(
        (790.0..900.0).contains(&wait),
        "two 50 GB flows share the 1 Gb/s WAN: ~800 s total, got {wait}"
    );
    assert_eq!(r.summary.net.transfers_completed, 2);
}

/// The contended placement matrix, over one topology of each registry
/// family: each input file lives at one small cluster. Close-to-Files
/// sends each job to its data (no transfers); Worst-Fit sends everything
/// to the biggest cluster and pays the staging delay. The summary
/// report's new streams pin the difference.
#[test]
fn close_to_files_beats_worst_fit_on_staging_delay() {
    for topology in ["das3", "flat_wan", "fat_tree_4"] {
        close_to_files_beats_worst_fit_on(topology);
    }
}

fn close_to_files_beats_worst_fit_on(topology: &str) {
    let trace = vec![
        staged_job(0, 4, vec![0]),
        staged_job(10, 4, vec![1]),
        staged_job(20, 4, vec![2]),
    ];
    let network = NetworkConfig {
        topology: topology.to_string(),
        files: vec![
            FileSpec {
                size_gb: 40.0,
                replicas: vec![4],
            },
            FileSpec {
                size_gb: 40.0,
                replicas: vec![1],
            },
            FileSpec {
                size_gb: 40.0,
                replicas: vec![3],
            },
        ],
        reconfig_gb_per_proc: 0.0,
    };
    let run = |placement: &str| {
        let mut cfg = base_cfg(placement);
        cfg.trace = Some(trace.clone());
        cfg.network = Some(network.clone());
        // Staged transfers stay thread-count independent on every
        // topology.
        let seeds = [7, 8];
        let seq = sweep::<SummaryReport>(&cfg, &seeds, 1);
        let par = sweep::<SummaryReport>(&cfg, &seeds, 3);
        assert_eq!(
            format!("{seq:?}"),
            format!("{par:?}"),
            "{topology}/{placement}: seq and par diverged"
        );
        assert_eq!(
            format!("{:?}", seq.pooled()),
            format!("{:?}", par.pooled()),
            "{topology}/{placement}: pooled summaries diverged"
        );
        one::<SummaryReport>(&cfg)
    };
    let cf = run("close_to_files");
    let wf = run("worst_fit");
    assert_eq!(
        cf.net.bytes_staged_gb, 0.0,
        "{topology}: Close-to-Files placed every job at its replica"
    );
    assert_eq!(cf.staging_delay.count(), 0, "{topology}");
    assert!(
        wf.net.bytes_staged_gb >= 120.0,
        "{topology}: Worst-Fit staged all three files, got {}",
        wf.net.bytes_staged_gb
    );
    assert_eq!(wf.staging_delay.count(), 3, "{topology}");
    let wf_delay = wf.staging_delay.mean().expect("three staged jobs");
    assert!(
        wf_delay > 30.0,
        "{topology}: 40 GB costs ≥ 32 s even on a clean 10 Gb/s path: {wf_delay}"
    );
    assert!(wf.transfer_time.mean().expect("transfers ran") > 0.0);
}

/// Deferred claiming under networking: the claim fires when the real
/// transfers land (not at an estimate), and the job still completes.
#[test]
fn deferred_claiming_claims_after_real_transfers() {
    let mut cfg = base_cfg("worst_fit");
    cfg.sched.claiming = ClaimingPolicy::Deferred {
        margin: SimDuration::from_secs(30),
    };
    cfg.trace = Some(vec![staged_job(0, 4, vec![0])]);
    cfg.network = Some(NetworkConfig {
        topology: "flat_wan".to_string(),
        files: vec![FileSpec {
            size_gb: 100.0,
            replicas: vec![4],
        }],
        reconfig_gb_per_proc: 0.0,
    });
    let r = one::<RunReport>(&cfg);
    let rec = &r.jobs.records()[0];
    let wait = rec.wait_time().expect("job started");
    assert!(
        wait >= 800.0,
        "the deferred claim fires only after the 800 s transfer: {wait}"
    );
    assert_eq!(r.summary.net.transfers_completed, 1);
    assert!(rec.response_time().is_some(), "job ran to completion");
}

/// Reconfiguration traffic: with `reconfig_gb_per_proc` set, grows and
/// shrinks of malleable jobs open flows on the site access link.
#[test]
fn reconfigurations_open_traffic_when_configured() {
    let mut cfg = ExperimentConfig::paper_pra("fpsma", WorkloadSpec::wm());
    cfg.workload.jobs = 40;
    cfg.seed = 11;
    cfg.network = Some(NetworkConfig {
        topology: "das3".to_string(),
        files: Vec::new(),
        reconfig_gb_per_proc: 0.25,
    });
    let r = one::<RunReport>(&cfg);
    assert!(
        r.summary.net.reconfig_transfers > 0,
        "a Wm run grows malleable jobs; each grow should open traffic"
    );
    assert_eq!(
        r.summary.net.transfers_opened, r.summary.net.reconfig_transfers,
        "no input files: every flow is reconfig traffic"
    );
    assert_eq!(r.summary.net.bytes_staged_gb, 0.0);
}

/// With networking ON the whole stack stays deterministic: identical
/// reruns are byte-identical, and the parallel cell runner matches the
/// sequential one bit for bit.
#[test]
fn networking_on_is_deterministic_and_seq_matches_par() {
    let mut cfg = ExperimentConfig::paper_pra("fpsma", WorkloadSpec::wm());
    cfg.workload.jobs = 25;
    cfg.trace = Some(vec![
        staged_job(0, 4, vec![0]),
        staged_job(40, 8, vec![1]),
        staged_job(80, 4, vec![0, 1]),
        staged_job(120, 6, vec![]),
    ]);
    cfg.network = Some(NetworkConfig {
        topology: "fat_tree_4".to_string(),
        files: vec![
            FileSpec {
                size_gb: 80.0,
                replicas: vec![4],
            },
            FileSpec {
                size_gb: 30.0,
                replicas: vec![0, 2],
            },
        ],
        reconfig_gb_per_proc: 0.1,
    });
    let seeds: Vec<u64> = (0..4).collect();
    let seq = sweep::<RunReport>(&cfg, &seeds, 1);
    let par = sweep::<RunReport>(&cfg, &seeds, default_threads());
    assert_eq!(
        format!("{seq:?}"),
        format!("{par:?}"),
        "seq and par diverged with networking on"
    );
    let again = sweep::<RunReport>(&cfg, &seeds, 1);
    assert_eq!(format!("{seq:?}"), format!("{again:?}"), "rerun diverged");
}

/// The scenario builder wires the network block through: topology by
/// name (including the parametric fat-tree form), files, and reconfig
/// traffic all land in the validated configuration.
#[test]
fn scenario_builder_configures_the_network_layer() {
    let s = koala::scenario::Scenario::builder()
        .workload(WorkloadSpec::wm())
        .jobs(5)
        .network("fat_tree_16")
        .network_file(25.0, [0, 3])
        .reconfig_traffic(0.5)
        .build()
        .unwrap();
    let net = s.config().network.as_ref().expect("network configured");
    assert_eq!(net.topology, "fat_tree_16");
    assert_eq!(net.files.len(), 1);
    assert_eq!(net.reconfig_gb_per_proc, 0.5);
    // Unknown topologies fail the build with a typed error.
    let err = koala::scenario::Scenario::builder()
        .workload(WorkloadSpec::wm())
        .network("token_ring")
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("token_ring"), "{err}");
}
