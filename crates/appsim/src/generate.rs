//! # The workload engine: model-driven job-stream generation
//!
//! The paper evaluates its malleability policies on one hand-built job
//! mix (Section VI-C); real cluster simulators treat workloads as a
//! first-class pluggable subsystem, trace-driven *and* model-driven.
//! This module is the model-driven half: seeded, deterministic job
//! **streams** behind the object-safe [`WorkloadSource`] trait, with a
//! name-indexed [`WorkloadRegistry`] mirroring the scheduling-policy
//! registry — `Scenario::builder().workload("poisson_lublin")` selects a
//! generator the same way `.malleability("egs")` selects a policy.
//!
//! Sources compose three sampled dimensions:
//!
//! * **Arrivals** ([`ArrivalProcess`]) — Poisson, or a bursty
//!   daily-cycle process whose instantaneous rate follows a sinusoidal
//!   diurnal modulation (the classic shape of grid-trace arrival
//!   studies).
//! * **Sizes and runtimes** ([`SizeModel`]) — log-uniform runtimes with
//!   power-of-two sizes, or a Lublin–Feitelson-style mixture (sizes
//!   favour powers of two; runtimes mix a short-job body with a
//!   heavy-tailed long-job component).
//! * **Speedup** ([`SpeedupSampling`]) — the paper's calibrated FT /
//!   GADGET-2 applications, or Downey-style sampling: each job draws an
//!   average parallelism `A` and variance `σ`, and its execution-time
//!   model is fitted through Downey's speedup at the drawn optimum.
//!
//! Every job comes out of a [`JobStream`] — an incremental pull
//! interface, so million-job workloads feed the simulator in O(window)
//! memory instead of a materialized `Vec`. The trace-driven counterpart
//! is [`crate::swf::SwfJobStream`], which implements the same trait over
//! a streaming SWF reader.
//!
//! ```
//! use appsim::generate::WorkloadRegistry;
//!
//! let registry = WorkloadRegistry::global();
//! let source = registry.source("poisson_lublin").unwrap();
//! // Seeded and deterministic: the same seed replays bit-identically.
//! let jobs = source.generate(42, 100);
//! assert_eq!(jobs.len(), 100);
//! assert_eq!(jobs, source.generate(42, 100));
//! // Arrivals are nondecreasing and every spec validates.
//! assert!(jobs.windows(2).all(|w| w[0].at <= w[1].at));
//! assert!(jobs.iter().all(|j| j.spec.validate().is_ok()));
//! // Unknown names fail with the list of known sources.
//! assert!(registry.source("no_such_workload").is_err());
//! ```

use std::sync::Arc;

use simcore::dist::{Distribution, Exponential, LogNormal};
use simcore::{SimRng, SimTime};

use crate::job::{AppKind, JobClass, JobSpec};
use crate::speedup::{AmdahlOverhead, DowneyModel, SpeedupModel};
use crate::workload::SubmittedJob;
use crate::SizeConstraint;

/// An incremental job stream: jobs are pulled one at a time, in
/// nondecreasing arrival order, so consumers (the simulation world's
/// streaming intake, SWF exporters) never need the whole workload in
/// memory at once.
pub trait JobStream {
    /// The next job, or `None` when the stream is exhausted.
    fn next_job(&mut self) -> Option<SubmittedJob>;

    /// How many jobs remain, when the stream knows (generators do; a
    /// trace file does not). Used only for pre-sizing, never for
    /// termination.
    fn remaining_hint(&self) -> Option<u64> {
        None
    }
}

/// Drains a stream into a `Vec` — the bridge from the streaming world to
/// call sites that genuinely need a materialized workload (SWF export,
/// the eager scenario path).
pub fn collect_stream(mut stream: Box<dyn JobStream + '_>) -> Vec<SubmittedJob> {
    let mut out = Vec::with_capacity(stream.remaining_hint().unwrap_or(0) as usize);
    while let Some(j) = stream.next_job() {
        out.push(j);
    }
    out
}

/// A [`JobStream`] over an already-materialized job list — lets explicit
/// traces and generated `Vec`s run through the streaming intake for
/// testing and replay.
pub struct VecStream {
    jobs: std::vec::IntoIter<SubmittedJob>,
}

impl VecStream {
    /// Wraps a job list (assumed nondecreasing in arrival time, like
    /// every workload in this workspace).
    pub fn new(jobs: Vec<SubmittedJob>) -> Self {
        VecStream {
            jobs: jobs.into_iter(),
        }
    }
}

impl JobStream for VecStream {
    fn next_job(&mut self) -> Option<SubmittedJob> {
        self.jobs.next()
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some(self.jobs.len() as u64)
    }
}

/// A [`JobStream`] over a **borrowed** job slice — streams an explicit
/// trace without cloning it wholesale (each job is cloned only as it is
/// pulled). This is how trace-bearing configurations keep their
/// documented precedence on the streaming path.
pub struct SliceStream<'a> {
    jobs: std::slice::Iter<'a, SubmittedJob>,
}

impl<'a> SliceStream<'a> {
    /// Streams over `jobs` (assumed nondecreasing in arrival time).
    pub fn new(jobs: &'a [SubmittedJob]) -> Self {
        SliceStream { jobs: jobs.iter() }
    }
}

impl JobStream for SliceStream<'_> {
    fn next_job(&mut self) -> Option<SubmittedJob> {
        self.jobs.next().cloned()
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some(self.jobs.len() as u64)
    }
}

/// A model-driven workload generator: opens seeded, deterministic
/// [`JobStream`]s. Object-safe, like the scheduling-policy traits, so
/// registries and configurations can hold `Arc<dyn WorkloadSource>`.
pub trait WorkloadSource: Send + Sync {
    /// Registry key (`snake_case`), e.g. `"poisson_lublin"`.
    fn name(&self) -> &'static str;

    /// Short report label, e.g. `"PoisLF"` (used in experiment cell
    /// names, like policy labels).
    fn label(&self) -> &'static str;

    /// Opens a stream of `jobs` jobs. The same `(seed, jobs)` pair must
    /// reproduce the same stream bit-for-bit — the determinism contract
    /// every replication and parallel-runner guarantee builds on.
    fn stream(&self, seed: u64, jobs: u64) -> Box<dyn JobStream>;

    /// Convenience: materializes the whole stream.
    fn generate(&self, seed: u64, jobs: u64) -> Vec<SubmittedJob> {
        collect_stream(self.stream(seed, jobs))
    }
}

/// Arrival process of a generated workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals: exponential inter-arrival gaps with the given
    /// mean.
    Poisson {
        /// Mean inter-arrival gap in seconds.
        mean_gap_s: f64,
    },
    /// Bursty daily-cycle arrivals: exponential gaps whose instantaneous
    /// rate is modulated by `1 + amplitude · sin(2π t / period)` — the
    /// diurnal load shape of grid traces (busy days, quiet nights).
    DailyCycle {
        /// Mean inter-arrival gap in seconds at the cycle's average rate.
        mean_gap_s: f64,
        /// Modulation amplitude in `[0, 0.95]` (0 degenerates to
        /// Poisson).
        amplitude: f64,
        /// Cycle period in seconds (86 400 for a day).
        period_s: f64,
    },
}

impl ArrivalProcess {
    /// Samples the gap to the next arrival, given the current simulated
    /// time (the daily cycle reads it; Poisson ignores it).
    pub fn sample_gap(&self, now_s: f64, rng: &mut SimRng) -> f64 {
        match *self {
            ArrivalProcess::Poisson { mean_gap_s } => {
                Exponential::with_mean(mean_gap_s.max(1e-3)).sample(rng)
            }
            ArrivalProcess::DailyCycle {
                mean_gap_s,
                amplitude,
                period_s,
            } => {
                let base = Exponential::with_mean(mean_gap_s.max(1e-3)).sample(rng);
                let phase = now_s / period_s.max(1.0) * std::f64::consts::TAU;
                let rate = 1.0 + amplitude.clamp(0.0, 0.95) * phase.sin();
                base / rate.max(0.05)
            }
        }
    }
}

/// Joint size/runtime model of a generated job. `sample` returns
/// `(size, runtime_s)`: the processor count the job is submitted at and
/// its execution time *at that size*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeModel {
    /// Log-uniform runtimes on `[runtime_lo_s, runtime_hi_s]`,
    /// power-of-two sizes `2^k` with `k` uniform on
    /// `[1, size_max_pow2]`.
    LogUniform {
        /// Smallest runtime (seconds).
        runtime_lo_s: f64,
        /// Largest runtime (seconds).
        runtime_hi_s: f64,
        /// Largest size exponent (sizes span `2..=2^size_max_pow2`).
        size_max_pow2: u32,
    },
    /// Lublin–Feitelson-style: sizes favour powers of two (75 % of jobs
    /// draw `2^U[1,5]`, the rest uniform on `[2, max_size]`); runtimes
    /// mix a short-job log-normal body with a heavy-tailed long-job
    /// component.
    LublinStyle {
        /// Mean of the short-job runtime component (seconds).
        short_mean_s: f64,
        /// Mean of the long-job runtime component (seconds).
        long_mean_s: f64,
        /// Fraction of jobs drawn from the long component.
        long_fraction: f64,
        /// Largest non-power-of-two size.
        max_size: u32,
    },
}

impl SizeModel {
    /// Draws one `(size, runtime_s)` pair.
    pub fn sample(&self, rng: &mut SimRng) -> (u32, f64) {
        match *self {
            SizeModel::LogUniform {
                runtime_lo_s,
                runtime_hi_s,
                size_max_pow2,
            } => {
                let k = rng.range_u64(1, size_max_pow2.max(1) as u64) as u32;
                let size = 1u32 << k;
                let (lo, hi) = (runtime_lo_s.max(1e-3), runtime_hi_s.max(runtime_lo_s));
                let runtime = (lo.ln() + (hi.ln() - lo.ln()) * rng.f64()).exp();
                (size, runtime)
            }
            SizeModel::LublinStyle {
                short_mean_s,
                long_mean_s,
                long_fraction,
                max_size,
            } => {
                let size = if rng.bool_with(0.75) {
                    1u32 << rng.range_u64(1, 5)
                } else {
                    rng.range_u64(2, max_size.max(2) as u64) as u32
                };
                let runtime = if rng.bool_with(long_fraction.clamp(0.0, 1.0)) {
                    LogNormal::with_mean_cv(long_mean_s.max(1.0), 2.0).sample(rng)
                } else {
                    LogNormal::with_mean_cv(short_mean_s.max(1.0), 1.2).sample(rng)
                };
                // Log-normal tails are unbounded; a single astronomical
                // draw would dominate a whole cell's makespan, so clamp
                // to a generous multiple of the long mean.
                (size, runtime.clamp(1.0, 20.0 * long_mean_s.max(1.0)))
            }
        }
    }
}

/// How a generated job's speedup curve is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpeedupSampling {
    /// The paper's calibrated applications: FT or GADGET-2, chosen
    /// uniformly, at the paper's submission sizes (ignores the
    /// [`SizeModel`] — the calibrated curves fix the size bounds).
    PaperApps,
    /// Downey-style sampling: each job draws an average parallelism `A`
    /// (log-uniform) and a variance `σ` (uniform on `[0, sigma_hi]`),
    /// and its execution-time model is an [`AmdahlOverhead`] fitted
    /// through Downey's speedup at `n = A` — so the fleet's speedup
    /// curves are as heterogeneous as Downey's measured programs.
    Downey {
        /// Smallest average parallelism.
        avg_parallelism_lo: f64,
        /// Largest average parallelism.
        avg_parallelism_hi: f64,
        /// Largest variance of parallelism.
        sigma_hi: f64,
    },
}

/// A composable synthetic workload source: arrivals × size/runtime ×
/// speedup sampling plus a malleable share. The registered presets
/// ([`SyntheticSource::poisson_lublin`] and friends) are instances of
/// this one struct — a new mix is a constructor away.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticSource {
    name: &'static str,
    label: &'static str,
    /// Arrival process.
    pub arrivals: ArrivalProcess,
    /// Joint size/runtime model (unused under
    /// [`SpeedupSampling::PaperApps`]).
    pub sizes: SizeModel,
    /// Speedup-curve sampling.
    pub speedup: SpeedupSampling,
    /// Fraction of jobs submitted malleable (the rest are rigid).
    pub malleable_fraction: f64,
}

impl SyntheticSource {
    /// A custom source under an explicit registry name and label.
    pub fn new(
        name: &'static str,
        label: &'static str,
        arrivals: ArrivalProcess,
        sizes: SizeModel,
        speedup: SpeedupSampling,
        malleable_fraction: f64,
    ) -> Self {
        SyntheticSource {
            name,
            label,
            arrivals,
            sizes,
            speedup,
            malleable_fraction,
        }
    }

    /// The paper's application mix (all-malleable FT/GADGET-2, like Wm)
    /// under Poisson arrivals with the paper's 2-minute mean gap.
    pub fn paper_poisson() -> Self {
        SyntheticSource::new(
            "paper_poisson",
            "PPois",
            ArrivalProcess::Poisson { mean_gap_s: 120.0 },
            // Inert under PaperApps, but a sensible default if tweaked.
            SizeModel::LogUniform {
                runtime_lo_s: 60.0,
                runtime_hi_s: 600.0,
                size_max_pow2: 4,
            },
            SpeedupSampling::PaperApps,
            1.0,
        )
    }

    /// Poisson arrivals, log-uniform runtimes, Downey-sampled speedups.
    pub fn poisson_loguniform() -> Self {
        SyntheticSource::new(
            "poisson_loguniform",
            "PoisLU",
            ArrivalProcess::Poisson { mean_gap_s: 90.0 },
            SizeModel::LogUniform {
                runtime_lo_s: 30.0,
                runtime_hi_s: 1200.0,
                size_max_pow2: 4,
            },
            SpeedupSampling::Downey {
                avg_parallelism_lo: 4.0,
                avg_parallelism_hi: 32.0,
                sigma_hi: 1.0,
            },
            0.7,
        )
    }

    /// Poisson arrivals, Lublin–Feitelson-style sizes/runtimes,
    /// Downey-sampled speedups.
    pub fn poisson_lublin() -> Self {
        SyntheticSource::new(
            "poisson_lublin",
            "PoisLF",
            ArrivalProcess::Poisson { mean_gap_s: 90.0 },
            SizeModel::LublinStyle {
                short_mean_s: 100.0,
                long_mean_s: 900.0,
                long_fraction: 0.2,
                max_size: 32,
            },
            SpeedupSampling::Downey {
                avg_parallelism_lo: 4.0,
                avg_parallelism_hi: 32.0,
                sigma_hi: 1.0,
            },
            0.6,
        )
    }

    /// Bursty daily-cycle arrivals over the Lublin-style job mix.
    pub fn bursty_lublin() -> Self {
        SyntheticSource {
            name: "bursty_lublin",
            label: "BurstLF",
            arrivals: ArrivalProcess::DailyCycle {
                mean_gap_s: 90.0,
                amplitude: 0.8,
                period_s: 86_400.0,
            },
            ..Self::poisson_lublin()
        }
    }

    /// Bursty daily-cycle arrivals over the log-uniform job mix.
    pub fn bursty_loguniform() -> Self {
        SyntheticSource {
            name: "bursty_loguniform",
            label: "BurstLU",
            arrivals: ArrivalProcess::DailyCycle {
                mean_gap_s: 90.0,
                amplitude: 0.8,
                period_s: 86_400.0,
            },
            ..Self::poisson_loguniform()
        }
    }

    /// The million-job throughput workload: short jobs at 1-second mean
    /// gaps, small sizes, a modest malleable share — tuned so the
    /// steady-state live-job count stays small while the scheduler is
    /// kept saturated (the source of the streaming benchmark).
    pub fn trace1m() -> Self {
        SyntheticSource::new(
            "trace1m",
            "Trace1M",
            ArrivalProcess::Poisson { mean_gap_s: 1.0 },
            SizeModel::LogUniform {
                runtime_lo_s: 15.0,
                runtime_hi_s: 45.0,
                size_max_pow2: 2,
            },
            SpeedupSampling::Downey {
                avg_parallelism_lo: 4.0,
                avg_parallelism_hi: 8.0,
                sigma_hi: 0.5,
            },
            0.15,
        )
    }
}

impl WorkloadSource for SyntheticSource {
    fn name(&self) -> &'static str {
        self.name
    }

    fn label(&self) -> &'static str {
        self.label
    }

    fn stream(&self, seed: u64, jobs: u64) -> Box<dyn JobStream> {
        // The Downey parallelism bounds' logarithms, taken once per
        // stream instead of once per job.
        let parallelism_ln = match self.speedup {
            SpeedupSampling::PaperApps => (0.0, 0.0),
            SpeedupSampling::Downey {
                avg_parallelism_lo,
                avg_parallelism_hi,
                ..
            } => {
                let lo = avg_parallelism_lo.max(2.0);
                let hi = avg_parallelism_hi.max(lo + 1.0);
                (lo.ln(), hi.ln())
            }
        };
        Box::new(GeneratedStream {
            src: *self,
            rng: SimRng::seed_from_u64(seed),
            t_s: 0.0,
            remaining: jobs,
            parallelism_ln,
        })
    }
}

/// The lazily-sampled stream a [`SyntheticSource`] opens: one job per
/// pull, O(1) state.
pub struct GeneratedStream {
    src: SyntheticSource,
    rng: SimRng,
    t_s: f64,
    remaining: u64,
    /// `(ln lo, ln hi)` of the Downey average-parallelism range.
    parallelism_ln: (f64, f64),
}

impl GeneratedStream {
    fn sample_spec(&mut self) -> JobSpec {
        let malleable = self.rng.bool_with(self.src.malleable_fraction);
        match self.src.speedup {
            SpeedupSampling::PaperApps => {
                let kind = if self.rng.bool_with(0.5) {
                    AppKind::Ft
                } else {
                    AppKind::Gadget2
                };
                if malleable {
                    JobSpec::paper_malleable(kind)
                } else {
                    // Size 2 satisfies both calibrated applications'
                    // constraints (the paper's rigid submission size).
                    JobSpec::rigid(kind, 2)
                }
            }
            SpeedupSampling::Downey { sigma_hi, .. } => {
                let (size, runtime) = self.src.sizes.sample(&mut self.rng);
                let size = size.max(2);
                // Downey-style parallelism draw: A log-uniform, σ uniform.
                let (ln_lo, ln_hi) = self.parallelism_ln;
                let a = (ln_lo + (ln_hi - ln_lo) * self.rng.f64()).exp();
                let sigma = sigma_hi.max(0.0) * self.rng.f64();
                let downey = DowneyModel {
                    big_a: a,
                    sigma,
                    t1: 1000.0,
                };
                // Fit the workspace's execution-time form through
                // Downey's speedup at the drawn average parallelism, so
                // the curve peaks where Downey says it should.
                let n_opt = (a.round() as u32).max(2);
                let t_opt = downey.t1 / downey.downey_speedup(n_opt);
                let model = AmdahlOverhead::fit(1, downey.t1, n_opt, t_opt);
                let kind = AppKind::Synthetic {
                    model,
                    constraint: SizeConstraint::Any,
                };
                // The sampled runtime is the job's time at its submitted
                // size (the SWF-import convention).
                let work_scale = runtime / model.exec_time(size);
                let class = if malleable {
                    let max = ((1.4 * a).round() as u32).max(size);
                    JobClass::Malleable {
                        min: 2,
                        max,
                        initial: size.min(max),
                    }
                } else {
                    JobClass::Rigid { size }
                };
                JobSpec {
                    kind,
                    class,
                    work_scale,
                    initiative: None,
                    coalloc: None,
                    input_files: Vec::new(),
                }
            }
        }
    }
}

impl JobStream for GeneratedStream {
    fn next_job(&mut self) -> Option<SubmittedJob> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let spec = self.sample_spec();
        debug_assert!(spec.validate().is_ok(), "generator produced invalid spec");
        let at = SimTime::from_secs_f64(self.t_s);
        self.t_s += self.src.arrivals.sample_gap(self.t_s, &mut self.rng);
        Some(SubmittedJob { at, spec })
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some(self.remaining)
    }
}

// ---------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------

/// A workload-source name that did not resolve against the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownSource {
    /// The name that failed to resolve.
    pub name: String,
    /// The names that would have resolved.
    pub known: Vec<String>,
}

impl std::fmt::Display for UnknownSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown workload source {:?} (known: {})",
            self.name,
            self.known.join(", ")
        )
    }
}

impl std::error::Error for UnknownSource {}

/// The closed table of built-in workload sources — the workload twin of
/// the scheduling-policy registry. Binaries and scenario builders select
/// sources by `snake_case` name through [`WorkloadRegistry::global`].
pub struct WorkloadRegistry;

impl WorkloadRegistry {
    /// The table (a stateless handle, kept so callers resolve names the
    /// same way as through the policy registry).
    pub fn global() -> &'static WorkloadRegistry {
        &WorkloadRegistry
    }

    /// Resolves a source by name.
    pub fn source(&self, name: &str) -> Result<Arc<dyn WorkloadSource>, UnknownSource> {
        let src = match name {
            "bursty_loguniform" => SyntheticSource::bursty_loguniform(),
            "bursty_lublin" => SyntheticSource::bursty_lublin(),
            "paper_poisson" => SyntheticSource::paper_poisson(),
            "poisson_loguniform" => SyntheticSource::poisson_loguniform(),
            "poisson_lublin" => SyntheticSource::poisson_lublin(),
            "trace1m" => SyntheticSource::trace1m(),
            _ => {
                return Err(UnknownSource {
                    name: name.to_string(),
                    known: self.names(),
                })
            }
        };
        Ok(Arc::new(src))
    }

    /// The source names, sorted.
    pub fn names(&self) -> Vec<String> {
        [
            "bursty_loguniform",
            "bursty_lublin",
            "paper_poisson",
            "poisson_loguniform",
            "poisson_lublin",
            "trace1m",
        ]
        .map(String::from)
        .to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_sources() -> Vec<Arc<dyn WorkloadSource>> {
        WorkloadRegistry::global()
            .names()
            .iter()
            .map(|n| WorkloadRegistry::global().source(n).unwrap())
            .collect()
    }

    #[test]
    fn registry_has_the_documented_builtins() {
        let names = WorkloadRegistry::global().names();
        for expect in [
            "paper_poisson",
            "poisson_loguniform",
            "poisson_lublin",
            "bursty_lublin",
            "bursty_loguniform",
            "trace1m",
        ] {
            assert!(names.iter().any(|n| n == expect), "missing {expect}");
        }
        let err = WorkloadRegistry::global()
            .source("nope")
            .err()
            .expect("unknown name must fail");
        assert!(err.to_string().contains("poisson_lublin"), "{err}");
    }

    #[test]
    fn names_match_source_names_and_labels_are_distinct() {
        let mut labels = std::collections::BTreeSet::new();
        for name in WorkloadRegistry::global().names() {
            let src = WorkloadRegistry::global().source(&name).unwrap();
            assert_eq!(src.name(), name, "registry key must match source name");
            assert!(labels.insert(src.label().to_string()), "duplicate label");
        }
    }

    #[test]
    fn every_source_is_seed_deterministic_and_valid() {
        for src in all_sources() {
            let a = src.generate(7, 200);
            let b = src.generate(7, 200);
            assert_eq!(a, b, "{} not deterministic", src.name());
            let c = src.generate(8, 200);
            assert_ne!(a, c, "{} ignores its seed", src.name());
            assert_eq!(a.len(), 200);
            assert!(
                a.windows(2).all(|w| w[0].at <= w[1].at),
                "{} arrivals decreased",
                src.name()
            );
            for j in &a {
                j.spec.validate().unwrap();
            }
        }
    }

    #[test]
    fn streams_are_incremental_and_sized() {
        let src = SyntheticSource::poisson_lublin();
        let mut s = src.stream(3, 10);
        assert_eq!(s.remaining_hint(), Some(10));
        let first = s.next_job().unwrap();
        assert_eq!(first.at, SimTime::ZERO, "streams start at time zero");
        assert_eq!(s.remaining_hint(), Some(9));
        let rest: Vec<_> = std::iter::from_fn(|| s.next_job()).collect();
        assert_eq!(rest.len(), 9);
        assert!(s.next_job().is_none(), "exhausted streams stay exhausted");
    }

    #[test]
    fn collect_stream_matches_generate() {
        let src = SyntheticSource::bursty_loguniform();
        assert_eq!(collect_stream(src.stream(11, 50)), src.generate(11, 50));
    }

    #[test]
    fn vec_stream_replays_its_input() {
        let src = SyntheticSource::paper_poisson();
        let jobs = src.generate(2, 20);
        let mut s = VecStream::new(jobs.clone());
        assert_eq!(s.remaining_hint(), Some(20));
        let replay: Vec<_> = std::iter::from_fn(|| s.next_job()).collect();
        assert_eq!(replay, jobs);
    }

    #[test]
    fn malleable_fraction_controls_the_class_mix() {
        let mut rigid_src = SyntheticSource::poisson_lublin();
        rigid_src.malleable_fraction = 0.0;
        assert!(rigid_src
            .generate(5, 100)
            .iter()
            .all(|j| matches!(j.spec.class, JobClass::Rigid { .. })));
        let mut malleable_src = SyntheticSource::poisson_lublin();
        malleable_src.malleable_fraction = 1.0;
        assert!(malleable_src
            .generate(5, 100)
            .iter()
            .all(|j| j.spec.class.is_malleable()));
    }

    #[test]
    fn daily_cycle_bunches_arrivals() {
        // With a strong diurnal modulation, gaps drawn in the rate
        // trough are systematically longer than gaps in the peak.
        let arr = ArrivalProcess::DailyCycle {
            mean_gap_s: 60.0,
            amplitude: 0.9,
            period_s: 86_400.0,
        };
        let mut rng = SimRng::seed_from_u64(1);
        let peak_t = 86_400.0 / 4.0; // sin = +1
        let trough_t = 3.0 * 86_400.0 / 4.0; // sin = −1
        let n = 4000;
        let peak: f64 = (0..n).map(|_| arr.sample_gap(peak_t, &mut rng)).sum();
        let trough: f64 = (0..n).map(|_| arr.sample_gap(trough_t, &mut rng)).sum();
        assert!(
            trough > 2.0 * peak,
            "trough mean {} should dwarf peak mean {}",
            trough / n as f64,
            peak / n as f64
        );
    }

    #[test]
    fn downey_sampling_produces_heterogeneous_models() {
        let src = SyntheticSource::poisson_loguniform();
        let jobs = src.generate(9, 50);
        let mut models = std::collections::BTreeSet::new();
        for j in &jobs {
            if let AppKind::Synthetic { model, .. } = &j.spec.kind {
                models.insert(format!("{:.6}/{:.6}/{:.6}", model.a, model.b, model.c));
            }
        }
        assert!(
            models.len() > 20,
            "Downey sampling should vary per job, got {} distinct models",
            models.len()
        );
    }

    #[test]
    fn sampled_runtime_is_honoured_at_the_submitted_size() {
        // The work-scale convention: a job's model time at its submitted
        // size equals the sampled runtime, so SWF exports of generated
        // workloads replay exactly.
        let src = SyntheticSource::poisson_loguniform();
        for j in src.generate(4, 50) {
            let size = match j.spec.class {
                JobClass::Rigid { size } => size,
                JobClass::Malleable { initial, .. } => initial,
                JobClass::Moldable { min, .. } => min,
            };
            let t = j.spec.kind.model().exec_time(size) * j.spec.work_scale;
            assert!(
                (30.0..=1200.0 + 1e-6).contains(&t),
                "runtime {t} outside the log-uniform support"
            );
        }
    }
}
