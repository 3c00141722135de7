//! Checks of the simulator against answers known outside it.
//!
//! The linear-speedup oracle: a job whose model is `T(n) = T1/n`
//! (`AmdahlOverhead { a: T1, b: 0, c: 0 }`), alone on an idle uniform
//! cluster that KOALA may use whole, with instantaneous GRAM, executes in
//! `T1/n` at every size, to the millisecond. It is the building block of the processor-sharing oracle for
//! malleable jobs, which needs a linear speedup.

use malleable_koala::appsim::speedup::AmdahlOverhead;
use malleable_koala::appsim::workload::{SubmittedJob, WorkloadSpec};
use malleable_koala::appsim::{AppKind, JobSpec, SizeConstraint};
use malleable_koala::koala::config::{ExperimentConfig, UniformTopology};
use malleable_koala::koala::{self, Run, RunReport};
use malleable_koala::multicluster::{BackgroundLoad, GramConfig};
use malleable_koala::simcore::SimTime;

#[test]
fn a_linear_speedup_job_runs_in_t1_over_n_at_every_size() {
    // 840 s divides evenly by every size 1..=8, so `T1/n` is a whole
    // number of milliseconds.
    const T1: f64 = 840.0;
    let linear = AppKind::Synthetic {
        model: AmdahlOverhead {
            a: T1,
            b: 0.0,
            c: 0.0,
        },
        constraint: SizeConstraint::Any,
    };
    for n in 1..=8u32 {
        let mut cfg = ExperimentConfig::paper_pra("fpsma", WorkloadSpec::wm());
        cfg.uniform_topology = Some(UniformTopology {
            clusters: 1,
            nodes_per_cluster: 8,
        });
        cfg.background = BackgroundLoad::none();
        cfg.sched.gram = GramConfig::instantaneous();
        cfg.sched.koala_share = 1.0;
        cfg.trace = Some(vec![SubmittedJob {
            at: SimTime::ZERO,
            spec: JobSpec::rigid(linear.clone(), n),
        }]);
        let report: RunReport = koala::run(&Run::cell(&cfg)).unwrap().remove(0);
        let record = &report.jobs.records()[0];
        assert_eq!(record.max_size(), Some(f64::from(n)));
        let exec = record.execution_time().expect("the job completes");
        // The world schedules each completion one millisecond late, so
        // that rounding to the clock never fires it before the work is
        // done; that pad is the only allowed difference.
        let expected = T1 / f64::from(n) + 0.001;
        assert!(
            (exec - expected).abs() < 1e-9,
            "size {n}: executed in {exec} s, T1/n + 1 ms = {expected} s"
        );
    }
}
