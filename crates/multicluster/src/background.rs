//! Background (local-user) load model.
//!
//! On DAS-3 "it is common that some of the users bypass the
//! multicluster-level scheduler" (Section III): they submit straight to
//! SGE. During the paper's experiments this background activity was light
//! ("does not disturb the measures"), but the scheduler design explicitly
//! defends against it — the KIS poll and the reserve threshold exist for
//! this reason — so the reproduction includes a configurable stochastic
//! background workload and an ablation sweep over its intensity.

use simcore::dist::{Distribution, Exponential, LogNormal};
use simcore::{SimDuration, SimRng};

/// Parameters of one cluster's background load.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BackgroundLoad {
    /// Mean inter-arrival time of local jobs (exponential); `None`
    /// disables background load entirely.
    pub mean_interarrival: Option<SimDuration>,
    /// Mean service time of a local job (log-normal, CV 1.0 — typical of
    /// cluster workload fits).
    pub mean_duration: SimDuration,
    /// Minimum and maximum size (nodes) of a local job; sampled
    /// uniformly.
    pub size_range: (u32, u32),
    /// When set, the inter-arrival time is rescaled per cluster so the
    /// *steady-state occupancy* is this fraction of the cluster's
    /// capacity (by Little's law: occupancy = size · duration / gap).
    /// This models DAS-3's "activity of concurrent users", which scales
    /// with cluster size.
    pub occupancy_fraction: Option<f64>,
}

impl BackgroundLoad {
    /// No background load.
    pub fn none() -> Self {
        BackgroundLoad {
            mean_interarrival: None,
            mean_duration: SimDuration::from_secs(300),
            size_range: (1, 4),
            occupancy_fraction: None,
        }
    }

    /// A light trickle of small local jobs.
    pub fn light() -> Self {
        BackgroundLoad {
            mean_interarrival: Some(SimDuration::from_secs(600)),
            mean_duration: SimDuration::from_secs(300),
            size_range: (1, 4),
            occupancy_fraction: None,
        }
    }

    /// Heavy local activity, for the resilience ablation.
    pub fn heavy() -> Self {
        BackgroundLoad {
            mean_interarrival: Some(SimDuration::from_secs(90)),
            mean_duration: SimDuration::from_secs(600),
            size_range: (2, 16),
            occupancy_fraction: None,
        }
    }

    /// The "activity of concurrent users" of the paper's testbed: local
    /// jobs keeping roughly `fraction` of every cluster busy on average.
    pub fn concurrent_users(fraction: f64) -> Self {
        assert!((0.0..1.0).contains(&fraction), "fraction must be in [0, 1)");
        BackgroundLoad {
            mean_interarrival: Some(SimDuration::from_secs(120)), // fallback only
            mean_duration: SimDuration::from_secs(300),
            size_range: (1, 8),
            occupancy_fraction: Some(fraction),
        }
    }

    /// True when the model generates any jobs at all.
    pub fn is_active(&self) -> bool {
        self.mean_interarrival.is_some()
    }

    /// Draws the next inter-arrival gap; `None` when disabled.
    pub fn sample_interarrival(&self, rng: &mut SimRng) -> Option<SimDuration> {
        let mean = self.mean_interarrival?;
        let d = Exponential::with_mean(mean.as_secs_f64().max(1e-3));
        Some(SimDuration::from_secs_f64(d.sample(rng)))
    }

    /// Draws the next inter-arrival gap for a cluster of `capacity`
    /// nodes, honouring `occupancy_fraction` when set.
    pub fn sample_interarrival_for(&self, rng: &mut SimRng, capacity: u32) -> Option<SimDuration> {
        let Some(frac) = self.occupancy_fraction else {
            return self.sample_interarrival(rng);
        };
        self.mean_interarrival?;
        let (lo, hi) = self.size_range;
        let mean_size = 0.5 * (lo + hi) as f64;
        let target = frac * capacity as f64;
        if target < 1e-9 {
            return None;
        }
        // Little's law: occupancy = mean_size * mean_duration / gap.
        let gap = mean_size * self.mean_duration.as_secs_f64() / target;
        let d = Exponential::with_mean(gap.max(1e-3));
        Some(SimDuration::from_secs_f64(d.sample(rng)))
    }

    /// Draws a size and duration for one local job.
    pub fn sample_job(&self, rng: &mut SimRng) -> BackgroundSample {
        self.job_sampler().sample(rng)
    }

    /// [`BackgroundLoad::sample_job`] with the duration law built once,
    /// for callers that draw many local jobs.
    pub fn job_sampler(&self) -> LocalJobSampler {
        LocalJobSampler {
            size_range: self.size_range,
            duration: LogNormal::with_mean_cv(self.mean_duration.as_secs_f64().max(1e-3), 1.0),
        }
    }
}

/// Draws local jobs exactly as [`BackgroundLoad::sample_job`] does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalJobSampler {
    size_range: (u32, u32),
    duration: LogNormal,
}

impl LocalJobSampler {
    /// Draws a size and duration for one local job.
    pub fn sample(&self, rng: &mut SimRng) -> BackgroundSample {
        let (lo, hi) = self.size_range;
        let size = rng.range_u64(lo as u64, hi.max(lo) as u64) as u32;
        BackgroundSample {
            size,
            duration: SimDuration::from_secs_f64(self.duration.sample(rng).max(1.0)),
        }
    }
}

/// One sampled background job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackgroundSample {
    /// Nodes requested.
    pub size: u32,
    /// Service time.
    pub duration: SimDuration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_generates_nothing() {
        let bg = BackgroundLoad::none();
        let mut rng = SimRng::seed_from_u64(1);
        assert!(!bg.is_active());
        assert_eq!(bg.sample_interarrival(&mut rng), None);
    }

    #[test]
    fn sizes_stay_in_range() {
        let bg = BackgroundLoad::heavy();
        let mut rng = SimRng::seed_from_u64(2);
        for _ in 0..1000 {
            let j = bg.sample_job(&mut rng);
            assert!((2..=16).contains(&j.size));
            assert!(j.duration > SimDuration::ZERO);
        }
    }

    #[test]
    fn interarrival_mean_is_roughly_right() {
        let bg = BackgroundLoad::light();
        let mut rng = SimRng::seed_from_u64(3);
        let n = 20_000;
        let total: f64 = (0..n)
            .map(|_| bg.sample_interarrival(&mut rng).unwrap().as_secs_f64())
            .sum();
        let mean = total / n as f64;
        assert!((mean - 600.0).abs() < 15.0, "mean {mean}");
    }

    #[test]
    fn concurrent_users_hit_target_occupancy() {
        // Little's law check: mean(size)·mean(duration)/mean(gap) should
        // approximate fraction·capacity.
        let bg = BackgroundLoad::concurrent_users(0.25);
        let mut rng = SimRng::seed_from_u64(9);
        let capacity = 68;
        let n = 30_000;
        let mean_gap: f64 = (0..n)
            .map(|_| {
                bg.sample_interarrival_for(&mut rng, capacity)
                    .unwrap()
                    .as_secs_f64()
            })
            .sum::<f64>()
            / n as f64;
        let mean_size = 4.5; // uniform 1..=8
        let occupancy = mean_size * 300.0 / mean_gap;
        let target = 0.25 * capacity as f64;
        assert!(
            (occupancy - target).abs() / target < 0.05,
            "occupancy {occupancy} vs {target}"
        );
    }

    #[test]
    fn occupancy_scales_gap_with_capacity() {
        let bg = BackgroundLoad::concurrent_users(0.2);
        let mut rng = SimRng::seed_from_u64(10);
        let n = 20_000;
        let mean = |rng: &mut SimRng, cap: u32| {
            (0..n)
                .map(|_| bg.sample_interarrival_for(rng, cap).unwrap().as_secs_f64())
                .sum::<f64>()
                / n as f64
        };
        let big = mean(&mut rng, 85);
        let small = mean(&mut rng, 32);
        assert!(
            small > big * 2.0,
            "small clusters see fewer local jobs: {small} vs {big}"
        );
    }

    #[test]
    fn duration_mean_is_roughly_right() {
        let bg = BackgroundLoad::light();
        let mut rng = SimRng::seed_from_u64(4);
        let n = 40_000;
        let total: f64 = (0..n)
            .map(|_| bg.sample_job(&mut rng).duration.as_secs_f64())
            .sum();
        let mean = total / n as f64;
        assert!((mean - 300.0).abs() < 10.0, "mean {mean}");
    }
}
