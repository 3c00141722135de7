//! Analytic probability distributions for workload modelling.
//!
//! Grid-workload literature (e.g. Iosup et al., JSSPP'06 — reference \[3\]
//! of the paper) models inter-arrival times, job sizes, and runtimes with
//! a small family of distributions. The reproduction uses two of them:
//! exponential gaps for Poisson arrivals, and log-normal runtimes for
//! generated and background jobs.
//!
//! Both are implemented from first principles (inverse CDF and
//! Box–Muller) over [`SimRng`] so the streams are portable and stable.

use crate::rng::SimRng;

/// A distribution over `f64` that can be sampled with a [`SimRng`].
pub trait Distribution {
    /// Draws one sample.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// The distribution's mean, if finite and known in closed form.
    fn mean(&self) -> Option<f64>;
}

/// Exponential with rate `lambda` (mean `1/lambda`). The canonical model
/// for Poisson arrival processes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    /// Rate parameter (events per unit time).
    pub lambda: f64,
}

impl Exponential {
    /// From a mean; panics unless the rate `1/mean` is positive.
    pub fn with_mean(mean: f64) -> Self {
        let lambda = 1.0 / mean;
        assert!(lambda > 0.0, "Exponential rate must be positive");
        Exponential { lambda }
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        -rng.f64_open0().ln() / self.lambda
    }
    fn mean(&self) -> Option<f64> {
        Some(1.0 / self.lambda)
    }
}

/// One standard-normal draw via Box–Muller (the antithetic twin is
/// discarded to keep the stream stateless).
fn standard_normal(rng: &mut SimRng) -> f64 {
    let u1 = rng.f64_open0();
    let u2 = rng.f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Log-normal: `exp(N(mu, sigma))`. The classic heavy-tailed model for
/// parallel-job runtimes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    /// Location of the underlying normal.
    pub mu: f64,
    /// Scale of the underlying normal.
    pub sigma: f64,
}

impl LogNormal {
    /// Parameterized by the desired mean and coefficient of variation of
    /// the log-normal itself (not of the underlying normal).
    pub fn with_mean_cv(mean: f64, cv: f64) -> Self {
        assert!(mean > 0.0 && cv >= 0.0);
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - 0.5 * sigma2;
        LogNormal {
            mu,
            sigma: sigma2.sqrt(),
        }
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }
    fn mean(&self) -> Option<f64> {
        Some((self.mu + 0.5 * self.sigma * self.sigma).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_mean(d: &impl Distribution, seed: u64, n: usize) -> f64 {
        let mut rng = SimRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Exponential::with_mean(30.0);
        let m = empirical_mean(&d, 3, 200_000);
        assert!((m - 30.0).abs() < 0.5, "mean {m}");
        assert_eq!(d.mean(), Some(30.0));
    }

    #[test]
    fn normal_mean_and_spread() {
        let mut rng = SimRng::seed_from_u64(4);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.025, "mean {mean}");
        assert!((var - 1.0).abs() < 0.025, "var {var}");
    }

    #[test]
    fn lognormal_with_mean_cv_hits_requested_mean() {
        let d = LogNormal::with_mean_cv(100.0, 1.5);
        let m = empirical_mean(&d, 5, 400_000);
        assert!((m - 100.0).abs() < 2.0, "mean {m}");
        assert!((d.mean().unwrap() - 100.0).abs() < 1e-9);
    }
}
