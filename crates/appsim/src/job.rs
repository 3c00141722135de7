//! Job specifications: application kind and flexibility class.
//!
//! Following Feitelson & Rudolph's classification (Section II-A of the
//! paper): **rigid** jobs need a fixed processor count; **moldable** jobs
//! pick a count at start time but cannot change it; **malleable** jobs
//! can grow and shrink at runtime between a minimum and a maximum.

use crate::constraints::SizeConstraint;
use crate::speedup::{ft_model, gadget2_model, AmdahlOverhead, SpeedupModel};

/// Which application a job runs.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum AppKind {
    /// NAS Parallel Benchmark FT (FFT kernel): power-of-2 sizes only,
    /// assumes homogeneous processors.
    Ft,
    /// GADGET-2 (cosmological n-body): any size, internal load balancing.
    Gadget2,
    /// A synthetic application with explicit parameters, for ablations
    /// and generated workloads. Its label is always `"SYN"`; a stored
    /// `"label"` key from older configurations is ignored on load.
    Synthetic {
        /// Speedup model parameters.
        model: AmdahlOverhead,
        /// Size constraint.
        constraint: SizeConstraint,
    },
}

impl AppKind {
    /// Display label (used in job records and reports).
    pub fn label(&self) -> &'static str {
        match self {
            AppKind::Ft => "FT",
            AppKind::Gadget2 => "GADGET2",
            AppKind::Synthetic { .. } => "SYN",
        }
    }

    /// The application's speedup model.
    pub fn model(&self) -> AmdahlOverhead {
        match self {
            AppKind::Ft => ft_model(),
            AppKind::Gadget2 => gadget2_model(),
            AppKind::Synthetic { model, .. } => *model,
        }
    }

    /// The application's size constraint.
    pub fn constraint(&self) -> SizeConstraint {
        match self {
            AppKind::Ft => SizeConstraint::PowerOfTwo,
            AppKind::Gadget2 => SizeConstraint::Any,
            AppKind::Synthetic { constraint, .. } => *constraint,
        }
    }

    /// The maximum malleable size used in the paper's workloads
    /// (Section VI-C): 32 for FT, 46 for GADGET-2 — both deliberately
    /// larger than the best-execution-time sizes.
    pub fn paper_max_size(&self) -> u32 {
        match self {
            AppKind::Ft => 32,
            AppKind::Gadget2 => 46,
            AppKind::Synthetic { model, .. } => {
                // Default: a bit beyond the model's optimum, mirroring the
                // paper's reasoning.
                (model.best_size(256) as f64 * 1.4).round() as u32
            }
        }
    }
}

/// Flexibility class of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum JobClass {
    /// Fixed size for the whole run.
    Rigid {
        /// The required processor count.
        size: u32,
    },
    /// Size chosen at start (between bounds), fixed afterwards.
    Moldable {
        /// Smallest acceptable size.
        min: u32,
        /// Largest useful size.
        max: u32,
    },
    /// Size may change at runtime between bounds.
    Malleable {
        /// Smallest size the job can run at (never shrunk below).
        min: u32,
        /// Largest size the job can use (never grown above).
        max: u32,
        /// Requested initial size.
        initial: u32,
    },
}

impl JobClass {
    /// True for malleable jobs.
    pub fn is_malleable(&self) -> bool {
        matches!(self, JobClass::Malleable { .. })
    }

    /// The smallest processor count the job can possibly start with.
    pub fn min_size(&self) -> u32 {
        match *self {
            JobClass::Rigid { size } => size,
            JobClass::Moldable { min, .. } => min,
            JobClass::Malleable { min, .. } => min,
        }
    }

    /// The largest processor count the job can use.
    pub fn max_size(&self) -> u32 {
        match *self {
            JobClass::Rigid { size } => size,
            JobClass::Moldable { max, .. } => max,
            JobClass::Malleable { max, .. } => max,
        }
    }
}

/// An application-initiated grow request (Section VIII of the paper
/// lists this as future work: "grow operations that are initiated by the
/// applications … mainly useful in case the parallelism pattern is
/// irregular"). When the job's progress crosses `at_progress`, the
/// application asks the scheduler for `extra` more processors; the
/// request is *voluntary* for the scheduler (the design choice the paper
/// discusses — mandatory application grows would force the scheduler to
/// shrink other jobs).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GrowInitiative {
    /// Progress fraction in `(0, 1)` at which the parallel phase begins.
    pub at_progress: f64,
    /// Additional processors the phase wants.
    pub extra: u32,
}

/// A complete job specification.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct JobSpec {
    /// Which application to run.
    pub kind: AppKind,
    /// Flexibility class and size bounds.
    pub class: JobClass,
    /// Scale factor on execution times (1.0 = the calibrated app).
    pub work_scale: f64,
    /// Optional application-initiated grow (irregular parallelism).
    /// Boxed because it is rare: `None` costs one word in every record.
    pub initiative: Option<Box<GrowInitiative>>,
    /// Component sizes for a co-allocated rigid job (KOALA's defining
    /// feature: one job spanning several clusters). `None` for
    /// single-cluster jobs; when `Some`, the job is rigid and the
    /// components must sum to its size. Malleable jobs are never
    /// co-allocated (the paper runs them in single clusters and lists
    /// malleable co-allocation as future work). A boxed slice: the
    /// components never change after submission.
    pub coalloc: Option<Box<[u32]>>,
    /// Input files by opaque id (resolved against the experiment's file
    /// catalog). Drives the Close-to-Files policy and the deferred
    /// claiming window (files must be staged before execution starts).
    #[serde(default)]
    pub input_files: Vec<u64>,
}

impl JobSpec {
    /// A rigid job of the paper's workloads: fixed at `size` processors.
    pub fn rigid(kind: AppKind, size: u32) -> Self {
        JobSpec {
            kind,
            class: JobClass::Rigid { size },
            work_scale: 1.0,
            initiative: None,
            coalloc: None,
            input_files: Vec::new(),
        }
    }

    /// A co-allocated rigid job: one component per entry, each placed on
    /// a (possibly different) cluster.
    pub fn coallocated(kind: AppKind, components: Vec<u32>) -> Self {
        let size: u32 = components.iter().sum();
        JobSpec {
            kind,
            class: JobClass::Rigid { size },
            work_scale: 1.0,
            initiative: None,
            coalloc: Some(components.into_boxed_slice()),
            input_files: Vec::new(),
        }
    }

    /// A malleable job of the paper's workloads: min 2, initial 2, max
    /// per application (32 / 46).
    pub fn paper_malleable(kind: AppKind) -> Self {
        let max = kind.paper_max_size();
        JobSpec {
            kind,
            class: JobClass::Malleable {
                min: 2,
                max,
                initial: 2,
            },
            work_scale: 1.0,
            initiative: None,
            coalloc: None,
            input_files: Vec::new(),
        }
    }

    /// Validates internal consistency (bounds ordered, sizes feasible
    /// under the application's constraint).
    pub fn validate(&self) -> Result<(), String> {
        let c = self.kind.constraint();
        match self.class {
            JobClass::Rigid { size } => {
                if size == 0 {
                    return Err("rigid size 0".into());
                }
                if !c.allows(size) {
                    return Err(format!("rigid size {size} violates {c:?}"));
                }
            }
            JobClass::Moldable { min, max } | JobClass::Malleable { min, max, .. } => {
                if min == 0 || min > max {
                    return Err(format!("bad bounds [{min}, {max}]"));
                }
                if !c.allows(min) {
                    return Err(format!("min {min} violates {c:?}"));
                }
            }
        }
        if let JobClass::Malleable { min, max, initial } = self.class {
            if initial < min || initial > max {
                return Err(format!("initial {initial} outside [{min}, {max}]"));
            }
            if !c.allows(initial) {
                return Err(format!("initial {initial} violates {c:?}"));
            }
        }
        if !self.work_scale.is_finite() || self.work_scale <= 0.0 {
            return Err(format!(
                "work scale {} is not positive and finite",
                self.work_scale
            ));
        }
        if let Some(comps) = &self.coalloc {
            let JobClass::Rigid { size } = self.class else {
                return Err("co-allocated jobs must be rigid".into());
            };
            if comps.is_empty() || comps.contains(&0) {
                return Err("co-allocation components must be non-empty and non-zero".into());
            }
            if comps.iter().sum::<u32>() != size {
                return Err("co-allocation components must sum to the job size".into());
            }
        }
        if let Some(gi) = self.initiative.as_deref() {
            if !(0.0..1.0).contains(&gi.at_progress) || gi.at_progress <= 0.0 {
                return Err(format!(
                    "initiative progress {} outside (0, 1)",
                    gi.at_progress
                ));
            }
            if !self.class.is_malleable() {
                return Err("grow initiative on a non-malleable job".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_vi() {
        let ft = JobSpec::paper_malleable(AppKind::Ft);
        assert_eq!(
            ft.class,
            JobClass::Malleable {
                min: 2,
                max: 32,
                initial: 2
            }
        );
        let g = JobSpec::paper_malleable(AppKind::Gadget2);
        assert_eq!(
            g.class,
            JobClass::Malleable {
                min: 2,
                max: 46,
                initial: 2
            }
        );
        ft.validate().unwrap();
        g.validate().unwrap();
    }

    #[test]
    fn labels_and_constraints() {
        assert_eq!(AppKind::Ft.label(), "FT");
        assert_eq!(AppKind::Ft.constraint(), SizeConstraint::PowerOfTwo);
        assert_eq!(AppKind::Gadget2.constraint(), SizeConstraint::Any);
    }

    #[test]
    fn validation_catches_bad_specs() {
        let mut s = JobSpec::paper_malleable(AppKind::Ft);
        s.class = JobClass::Malleable {
            min: 2,
            max: 32,
            initial: 3,
        };
        assert!(s.validate().is_err(), "initial 3 is not a power of two");
        let mut s = JobSpec::rigid(AppKind::Ft, 6);
        assert!(s.validate().is_err(), "rigid 6 is not a power of two");
        s.class = JobClass::Rigid { size: 8 };
        s.validate().unwrap();
        let mut s = JobSpec::paper_malleable(AppKind::Gadget2);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            s.work_scale = bad;
            assert!(s.validate().is_err(), "work scale {bad} accepted");
        }
    }

    #[test]
    fn class_bounds() {
        let c = JobClass::Malleable {
            min: 2,
            max: 46,
            initial: 2,
        };
        assert!(c.is_malleable());
        assert_eq!(c.min_size(), 2);
        assert_eq!(c.max_size(), 46);
        let r = JobClass::Rigid { size: 4 };
        assert!(!r.is_malleable());
        assert_eq!(r.min_size(), 4);
        assert_eq!(r.max_size(), 4);
    }

    #[test]
    fn coallocated_jobs_validate_component_sums() {
        let ok = JobSpec::coallocated(AppKind::Gadget2, vec![8, 8, 4]);
        ok.validate().unwrap();
        assert_eq!(ok.class, JobClass::Rigid { size: 20 });
        let mut bad = ok.clone();
        bad.class = JobClass::Rigid { size: 21 };
        assert!(bad.validate().is_err(), "component sum mismatch");
        let mut bad = ok.clone();
        bad.coalloc = Some(Box::new([8, 0, 12]));
        assert!(bad.validate().is_err(), "zero-size component");
        let mut bad = JobSpec::paper_malleable(AppKind::Gadget2);
        bad.coalloc = Some(Box::new([2]));
        assert!(bad.validate().is_err(), "malleable jobs cannot co-allocate");
    }

    #[test]
    fn synthetic_kind_carries_its_own_model() {
        let k = AppKind::Synthetic {
            model: AmdahlOverhead::fit(2, 100.0, 8, 40.0),
            constraint: SizeConstraint::MultipleOf(2),
        };
        assert_eq!(k.label(), "SYN");
        assert_eq!(k.constraint(), SizeConstraint::MultipleOf(2));
        assert!(k.paper_max_size() >= 8);
    }
}
