//! Reduced-scale versions of the paper's qualitative claims — the same
//! orderings the `fig7`/`fig8` binaries verify at full scale (300 jobs ×
//! 4 seeds), here at a scale suitable for CI.

use malleable_koala::appsim::workload::WorkloadSpec;
use malleable_koala::koala::config::ExperimentConfig;
use malleable_koala::koala::parallel::default_threads;
use malleable_koala::koala::report::MultiReport;
use malleable_koala::koala::{self, Report, Run, RunReport};
use malleable_koala::koala_metrics::JobRecord;

/// `cfg` once per seed on `threads` workers, aggregated in seed order.
fn sweep<R: Report>(cfg: &ExperimentConfig, seeds: &[u64], threads: usize) -> R::Multi {
    let runs = koala::run(&Run::seeds(cfg, seeds).threads(threads)).unwrap();
    R::aggregate(cfg.name.clone(), runs)
}

const SEEDS: [u64; 2] = [101, 202];
const JOBS: usize = 150;

fn pra(policy: &str, workload: WorkloadSpec) -> MultiReport {
    let mut cfg = ExperimentConfig::paper_pra(policy, workload);
    cfg.workload.jobs = JOBS;
    sweep::<RunReport>(&cfg, &SEEDS, default_threads())
}

fn pwa(policy: &str, workload: WorkloadSpec) -> MultiReport {
    let mut cfg = ExperimentConfig::paper_pwa(policy, workload);
    cfg.workload.jobs = JOBS;
    sweep::<RunReport>(&cfg, &SEEDS, default_threads())
}

#[test]
fn all_jobs_complete_in_every_cell() {
    for m in [
        pra("fpsma", WorkloadSpec::wm()),
        pra("egs", WorkloadSpec::wmr()),
        pwa("fpsma", WorkloadSpec::wm_prime()),
        pwa("egs", WorkloadSpec::wmr_prime()),
    ] {
        assert!(
            (m.completion_ratio() - 1.0).abs() < 1e-12,
            "{} left jobs unfinished",
            m.name
        );
    }
}

/// Fig. 7(a): "EGS tends to give more processors to the malleable jobs
/// than FPSMA" — visible as fewer jobs stuck at their minimal size.
#[test]
fn egs_leaves_fewer_jobs_at_minimal_size_than_fpsma() {
    let fpsma = pra("fpsma", WorkloadSpec::wm());
    let egs = pra("egs", WorkloadSpec::wm());
    let stuck = |m: &MultiReport| m.ecdf_of(JobRecord::average_size).fraction_at_or_below(3.0);
    assert!(
        stuck(&egs) < stuck(&fpsma),
        "EGS stuck fraction {:.2} should be below FPSMA's {:.2}",
        stuck(&egs),
        stuck(&fpsma)
    );
}

/// Fig. 7(c,d): "the Wm workload results in better performance than the
/// Wmr workload, which means that malleability makes applications
/// actually perform better."
#[test]
fn all_malleable_workload_beats_the_mixed_one() {
    let wm = pra("egs", WorkloadSpec::wm());
    let wmr = pra("egs", WorkloadSpec::wmr());
    let exec = |m: &MultiReport| m.ecdf_of(JobRecord::execution_time).mean().unwrap();
    assert!(
        exec(&wm) < exec(&wmr),
        "Wm mean exec {:.0}s should beat Wmr's {:.0}s",
        exec(&wm),
        exec(&wmr)
    );
}

/// Fig. 7(f): the malleability manager is more active with EGS than with
/// FPSMA, and with Wm than with Wmr.
#[test]
fn grow_activity_orderings() {
    let grows = |m: &MultiReport| m.merged_grow_ops().total();
    let fpsma_wm = pra("fpsma", WorkloadSpec::wm());
    let egs_wm = pra("egs", WorkloadSpec::wm());
    let egs_wmr = pra("egs", WorkloadSpec::wmr());
    assert!(
        grows(&egs_wm) > grows(&fpsma_wm),
        "EGS should grow more often"
    );
    assert!(
        grows(&egs_wm) > grows(&egs_wmr),
        "Wm should grow more often than Wmr"
    );
}

/// PRA never shrinks (its definition); PWA under the primed workloads
/// does (Fig. 8f).
#[test]
fn shrinking_is_exclusive_to_pwa() {
    let p = pra("egs", WorkloadSpec::wm());
    assert_eq!(
        p.runs.iter().map(|r| r.shrink_ops.total()).sum::<usize>(),
        0,
        "PRA must never shrink"
    );
    let w = pwa("egs", WorkloadSpec::wm_prime());
    assert!(
        w.runs.iter().map(|r| r.shrink_ops.total()).sum::<usize>() > 0,
        "PWA under W'm should shrink"
    );
}

/// Fig. 8(c): under PWA, GADGET-2 execution times sit near their
/// minimum-size value (~600 s) — clearly above the PRA ones.
#[test]
fn pwa_gadget_runs_near_minimum_size() {
    let p = pra("fpsma", WorkloadSpec::wm());
    let w = pwa("fpsma", WorkloadSpec::wm_prime());
    let gadget_exec = |m: &MultiReport| {
        m.merged_jobs()
            .filter_app("GADGET2")
            .execution_time_ecdf()
            .median()
            .unwrap()
    };
    let pra_exec = gadget_exec(&p);
    let pwa_exec = gadget_exec(&w);
    assert!(
        pwa_exec > pra_exec * 1.2,
        "PWA GADGET-2 median {pwa_exec:.0}s should exceed PRA's {pra_exec:.0}s by well over 20%"
    );
    assert!(
        pwa_exec > 500.0,
        "PWA GADGET-2 median {pwa_exec:.0}s should be near T(2) = 600s"
    );
}

/// Two application populations (Fig. 7c): FT completes in well under
/// 200 s, GADGET-2 takes over 240 s, with a visible gap.
#[test]
fn two_application_groups_are_visible() {
    let m = pra("egs", WorkloadSpec::wm());
    let jobs = m.merged_jobs();
    let ft = jobs.filter_app("FT").execution_time_ecdf();
    let gadget = jobs.filter_app("GADGET2").execution_time_ecdf();
    assert!(
        ft.quantile(0.9).unwrap() < 250.0,
        "FT p90 {:?}",
        ft.quantile(0.9)
    );
    assert!(
        gadget.quantile(0.1).unwrap() > 230.0,
        "GADGET p10 {:?}",
        gadget.quantile(0.1)
    );
}
