//! Workload generation: the paper's Wm / Wmr / W'm / W'mr plus a general
//! generator for ablations.
//!
//! Section VI-C: each workload submits **300 jobs** mixing FT and
//! GADGET-2 "with a uniform distribution", from a single client site,
//! with no file staging. **Wm** is exclusively malleable jobs; **Wmr** is
//! a random 50/50 mix of malleable and rigid jobs. Rigid jobs are
//! submitted at size 2, malleable jobs with initial size 2 (min 2; max 32
//! for FT, 46 for GADGET-2). Inter-arrival time is fixed at 2 minutes;
//! the primed workloads **W'm**/**W'mr** reduce it to 30 s "to increase
//! the load of the system" for the PWA experiments.

use simcore::dist::{Distribution, Exponential};
use simcore::{SimDuration, SimRng, SimTime};

use crate::job::{AppKind, GrowInitiative, JobSpec};

/// Arrival process of a workload.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Arrival {
    /// Fixed inter-arrival gap (the paper's choice).
    Fixed(SimDuration),
    /// Poisson arrivals with the given mean gap (for ablations).
    Poisson(SimDuration),
}

impl Arrival {
    fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match *self {
            Arrival::Fixed(d) => d,
            Arrival::Poisson(mean) => {
                let e = Exponential::with_mean(mean.as_secs_f64().max(1e-3));
                SimDuration::from_secs_f64(e.sample(rng))
            }
        }
    }
}

/// Declarative workload description.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WorkloadSpec {
    /// Number of jobs to submit.
    pub jobs: usize,
    /// Arrival process.
    pub arrival: Arrival,
    /// Fraction of jobs that are malleable.
    pub malleable_fraction: f64,
    /// Fraction of jobs that are moldable (size fixed at start, chosen
    /// by the scheduler between the application bounds). The remainder
    /// after malleable and moldable shares is rigid.
    pub moldable_fraction: f64,
    /// Application mix, chosen uniformly.
    pub apps: Vec<AppKind>,
    /// Size of rigid jobs.
    pub rigid_size: u32,
    /// First submission instant.
    pub first_arrival: SimTime,
    /// Optional application-initiated grow attached to a share of the
    /// malleable jobs (irregular-parallelism extension, Section VIII).
    pub initiative: Option<GrowInitiative>,
    /// Fraction of malleable jobs carrying the initiative.
    pub initiative_fraction: f64,
}

/// One submitted job: when, and what.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SubmittedJob {
    /// Submission instant.
    pub at: SimTime,
    /// The job specification.
    pub spec: JobSpec,
}

impl WorkloadSpec {
    /// The paper's **Wm**: 300 malleable jobs, 2-minute inter-arrival.
    pub fn wm() -> Self {
        WorkloadSpec {
            jobs: 300,
            arrival: Arrival::Fixed(SimDuration::from_mins(2)),
            malleable_fraction: 1.0,
            moldable_fraction: 0.0,
            apps: vec![AppKind::Ft, AppKind::Gadget2],
            rigid_size: 2,
            first_arrival: SimTime::ZERO,
            initiative: None,
            initiative_fraction: 0.0,
        }
    }

    /// The paper's **Wmr**: 50% malleable, 50% rigid (size 2), 2-minute
    /// inter-arrival.
    pub fn wmr() -> Self {
        WorkloadSpec {
            malleable_fraction: 0.5,
            ..Self::wm()
        }
    }

    /// The paper's **W'm**: Wm with 30-second inter-arrival (PWA
    /// experiments).
    pub fn wm_prime() -> Self {
        WorkloadSpec {
            arrival: Arrival::Fixed(SimDuration::from_secs(30)),
            ..Self::wm()
        }
    }

    /// The paper's **W'mr**: Wmr with 30-second inter-arrival.
    pub fn wmr_prime() -> Self {
        WorkloadSpec {
            arrival: Arrival::Fixed(SimDuration::from_secs(30)),
            ..Self::wmr()
        }
    }

    /// Generates the job stream. Every random draw comes from `rng`, so
    /// the same seed reproduces the same workload bit-for-bit.
    pub fn generate(&self, rng: &mut SimRng) -> Vec<SubmittedJob> {
        let mut out = Vec::with_capacity(self.jobs);
        let mut t = self.first_arrival;
        for _ in 0..self.jobs {
            let kind = rng
                .choose(&self.apps)
                .expect("workload needs at least one app kind")
                .clone();
            let u = rng.f64();
            let spec = if u < self.malleable_fraction {
                let mut spec = JobSpec::paper_malleable(kind);
                if let Some(gi) = self.initiative {
                    if rng.bool_with(self.initiative_fraction) {
                        spec.initiative = Some(Box::new(gi));
                    }
                }
                spec
            } else if u < self.malleable_fraction + self.moldable_fraction {
                // Moldable: the scheduler picks a start size between the
                // application bounds (min 2 up to the paper's max).
                let max = kind.paper_max_size();
                JobSpec {
                    class: crate::job::JobClass::Moldable { min: 2, max },
                    ..JobSpec::paper_malleable(kind)
                }
            } else {
                // Rigid jobs are submitted with a size of 2 processors
                // (Section VI-C); size 2 satisfies both applications'
                // constraints.
                JobSpec::rigid(kind, self.rigid_size)
            };
            debug_assert!(spec.validate().is_ok(), "generator produced invalid spec");
            out.push(SubmittedJob { at: t, spec });
            t += self.arrival.sample(rng);
        }
        out
    }

    /// The nominal span of the arrival process (last arrival minus first)
    /// for fixed arrivals; an estimate for Poisson.
    pub fn nominal_span(&self) -> SimDuration {
        let gap = match self.arrival {
            Arrival::Fixed(d) | Arrival::Poisson(d) => d,
        };
        gap.saturating_mul(self.jobs.saturating_sub(1) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobClass;

    /// Every trace, look-ahead window and live job carries one of these
    /// records, so their size is a memory budget: a configuration of
    /// 1,024 cells × 120 jobs holds 122,880 of them. The rare fields
    /// (grow initiative, co-allocation components) are boxed and the
    /// synthetic kind carries no label string.
    #[test]
    fn job_records_stay_compact() {
        let spec = std::mem::size_of::<JobSpec>();
        let submitted = std::mem::size_of::<SubmittedJob>();
        assert!(spec <= 104, "JobSpec is {spec} B");
        assert!(submitted <= 112, "SubmittedJob is {submitted} B");
        assert!(std::mem::size_of::<AppKind>() <= 32, "AppKind grew");
    }

    #[test]
    fn wm_is_all_malleable_300_jobs_2min() {
        let mut rng = SimRng::seed_from_u64(1);
        let jobs = WorkloadSpec::wm().generate(&mut rng);
        assert_eq!(jobs.len(), 300);
        assert!(jobs.iter().all(|j| j.spec.class.is_malleable()));
        assert_eq!(jobs[1].at - jobs[0].at, SimDuration::from_mins(2));
        assert_eq!(jobs[299].at, SimTime::from_secs(299 * 120));
    }

    #[test]
    fn wmr_is_roughly_half_rigid_at_size_2() {
        let mut rng = SimRng::seed_from_u64(2);
        let jobs = WorkloadSpec::wmr().generate(&mut rng);
        let rigid: Vec<_> = jobs
            .iter()
            .filter(|j| !j.spec.class.is_malleable())
            .collect();
        assert!(
            (100..=200).contains(&rigid.len()),
            "rigid share {} should be near 150",
            rigid.len()
        );
        assert!(rigid
            .iter()
            .all(|j| j.spec.class == JobClass::Rigid { size: 2 }));
    }

    #[test]
    fn primed_workloads_compress_arrivals() {
        let mut rng = SimRng::seed_from_u64(3);
        let jobs = WorkloadSpec::wm_prime().generate(&mut rng);
        assert_eq!(jobs[1].at - jobs[0].at, SimDuration::from_secs(30));
        assert_eq!(
            WorkloadSpec::wm_prime().nominal_span(),
            SimDuration::from_secs(299 * 30)
        );
    }

    #[test]
    fn app_mix_is_roughly_uniform() {
        let mut rng = SimRng::seed_from_u64(4);
        let jobs = WorkloadSpec::wm().generate(&mut rng);
        let ft = jobs.iter().filter(|j| j.spec.kind == AppKind::Ft).count();
        assert!(
            (100..=200).contains(&ft),
            "FT share {ft} should be near 150"
        );
    }

    #[test]
    fn same_seed_same_workload() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        assert_eq!(
            WorkloadSpec::wmr().generate(&mut a),
            WorkloadSpec::wmr().generate(&mut b)
        );
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        assert_ne!(
            WorkloadSpec::wmr().generate(&mut a),
            WorkloadSpec::wmr().generate(&mut b)
        );
    }

    #[test]
    fn poisson_arrivals_vary() {
        let mut rng = SimRng::seed_from_u64(5);
        let spec = WorkloadSpec {
            arrival: Arrival::Poisson(SimDuration::from_secs(60)),
            ..WorkloadSpec::wm()
        };
        let jobs = spec.generate(&mut rng);
        let gaps: Vec<u64> = jobs
            .windows(2)
            .map(|w| (w[1].at - w[0].at).as_millis())
            .collect();
        let distinct: std::collections::BTreeSet<_> = gaps.iter().collect();
        assert!(distinct.len() > 50, "Poisson gaps should vary");
        let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64 / 1000.0;
        assert!((mean - 60.0).abs() < 12.0, "mean gap {mean}");
    }

    #[test]
    fn moldable_fraction_generates_moldable_jobs() {
        let mut rng = SimRng::seed_from_u64(12);
        let spec = WorkloadSpec {
            malleable_fraction: 0.0,
            moldable_fraction: 1.0,
            ..WorkloadSpec::wm()
        };
        let jobs = spec.generate(&mut rng);
        assert!(jobs
            .iter()
            .all(|j| matches!(j.spec.class, JobClass::Moldable { min: 2, .. })));
        for j in &jobs {
            j.spec.validate().unwrap();
        }
    }

    #[test]
    fn three_way_mix_covers_all_classes() {
        let mut rng = SimRng::seed_from_u64(13);
        let spec = WorkloadSpec {
            malleable_fraction: 0.34,
            moldable_fraction: 0.33,
            ..WorkloadSpec::wm()
        };
        let jobs = spec.generate(&mut rng);
        let malleable = jobs.iter().filter(|j| j.spec.class.is_malleable()).count();
        let moldable = jobs
            .iter()
            .filter(|j| matches!(j.spec.class, JobClass::Moldable { .. }))
            .count();
        let rigid = jobs
            .iter()
            .filter(|j| matches!(j.spec.class, JobClass::Rigid { .. }))
            .count();
        assert_eq!(malleable + moldable + rigid, 300);
        assert!(
            malleable > 60 && moldable > 60 && rigid > 60,
            "{malleable}/{moldable}/{rigid}"
        );
    }

    #[test]
    fn initiative_attaches_to_the_requested_share() {
        let mut rng = SimRng::seed_from_u64(8);
        let spec = WorkloadSpec {
            initiative: Some(GrowInitiative {
                at_progress: 0.5,
                extra: 8,
            }),
            initiative_fraction: 0.5,
            ..WorkloadSpec::wm()
        };
        let jobs = spec.generate(&mut rng);
        let with: usize = jobs.iter().filter(|j| j.spec.initiative.is_some()).count();
        assert!(
            (90..=210).contains(&with),
            "about half should carry it, got {with}"
        );
        for j in &jobs {
            j.spec.validate().unwrap();
        }
    }

    #[test]
    fn all_generated_specs_validate() {
        let mut rng = SimRng::seed_from_u64(6);
        for w in [
            WorkloadSpec::wm(),
            WorkloadSpec::wmr(),
            WorkloadSpec::wm_prime(),
            WorkloadSpec::wmr_prime(),
        ] {
            for j in w.generate(&mut rng) {
                j.spec.validate().unwrap();
            }
        }
    }
}
