//! The execution-time-vs-size model, calibrated to Fig. 6 of the paper.
//!
//! Fig. 6 measures, on the Delft cluster: FT takes ~120 s on 2 machines
//! and bottoms out around 60 s; GADGET-2 takes ~600 s on 2 machines and
//! bottoms out around 240 s. Beyond the optimum both curves flatten and
//! creep back up — which is exactly why the paper sets the *maximum*
//! malleable sizes (32 for FT, 46 for GADGET-2) beyond the best-time
//! sizes: "the maximum size of a malleable job should not be the size
//! that gives the best execution time of the application in any
//! particular cluster."
//!
//! Every job carries the classic three-term overhead form
//!
//! ```text
//! T(n) = A/n + B + C·n
//! ```
//!
//! (perfectly parallelizable work `A`, serial fraction `B`, per-processor
//! coordination cost `C`), which has a unique minimum at `n* = √(A/C)`
//! and reproduces both calibration points and the post-optimum rise.

/// `T(n) = A/n + B + C·n` — see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AmdahlOverhead {
    /// Parallelizable work (seconds at n=1).
    pub a: f64,
    /// Serial time (seconds).
    pub b: f64,
    /// Per-processor coordination cost (seconds per processor).
    pub c: f64,
}

impl AmdahlOverhead {
    /// Fits the model through two constraints: `T(n0) = t0` and a minimum
    /// of `tmin` attained at `n_opt` (so `A = C·n_opt²`).
    ///
    /// Solving:
    /// `T(n_opt) = 2·C·n_opt + B = tmin` and
    /// `T(n0) = C·n_opt²/n0 + B + C·n0 = t0`.
    pub fn fit(n0: u32, t0: f64, n_opt: u32, tmin: f64) -> Self {
        let n0f = n0 as f64;
        let nf = n_opt as f64;
        // From the two equations: C·(n²/n0 + n0 − 2·n_opt) = t0 − tmin.
        let denom = nf * nf / n0f + n0f - 2.0 * nf;
        assert!(denom > 0.0, "fit requires n0 != n_opt");
        let c = (t0 - tmin) / denom;
        let a = c * nf * nf;
        let b = tmin - 2.0 * c * nf;
        assert!(a > 0.0 && c > 0.0, "degenerate fit");
        AmdahlOverhead { a, b, c }
    }

    /// Execution time in seconds at size `n ≥ 1`.
    pub fn exec_time(&self, n: u32) -> f64 {
        let n = n.max(1) as f64;
        self.a / n + self.b + self.c * n
    }

    /// The size with the best (smallest) execution time within
    /// `[1, limit]`.
    pub fn best_size(&self, limit: u32) -> u32 {
        (1..=limit.max(1))
            .min_by(|&a, &b| {
                self.exec_time(a)
                    .partial_cmp(&self.exec_time(b))
                    .expect("exec times are finite")
            })
            .unwrap_or(1)
    }
}

/// Downey's parallel speedup model (A. Downey, "A model for speedup of
/// parallel programs", 1997), parameterized by average parallelism `bigA`
/// and variance of parallelism `sigma`. The workload generator fits each
/// Downey-sampled job's [`AmdahlOverhead`] through this speedup.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DowneyModel {
    /// Average parallelism.
    pub big_a: f64,
    /// Variance of parallelism (0 = perfectly parallel up to `big_a`).
    pub sigma: f64,
    /// Sequential execution time in seconds.
    pub t1: f64,
}

impl DowneyModel {
    /// Downey's speedup S(n).
    pub fn downey_speedup(&self, n: u32) -> f64 {
        let n = n.max(1) as f64;
        let a = self.big_a;
        let s = self.sigma;
        if s <= 1.0 {
            if n <= a {
                a * n / (a + s / 2.0 * (n - 1.0))
            } else if n < 2.0 * a - 1.0 {
                a * n / (s * (a - 0.5) + n * (1.0 - s / 2.0))
            } else {
                a
            }
        } else if n < a + a * s - s {
            n * a * (s + 1.0) / (s * (n + a - 1.0) + a)
        } else {
            a
        }
    }
}

/// The NPB-FT calibration: 120 s at 2 processors, best ~60 s around 16
/// (Fig. 6, left curve; FT only runs at powers of two, so the model is
/// only ever evaluated there).
pub fn ft_model() -> AmdahlOverhead {
    AmdahlOverhead::fit(2, 120.0, 16, 60.0)
}

/// The GADGET-2 calibration: 600 s at 2 processors, best ~240 s around 32
/// (Fig. 6, right curve).
pub fn gadget2_model() -> AmdahlOverhead {
    AmdahlOverhead::fit(2, 600.0, 32, 240.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ft_calibration_matches_fig6() {
        let m = ft_model();
        assert!(
            (m.exec_time(2) - 120.0).abs() < 1e-9,
            "T(2) = {}",
            m.exec_time(2)
        );
        assert!(
            (m.exec_time(16) - 60.0).abs() < 1e-9,
            "T(16) = {}",
            m.exec_time(16)
        );
        // Best time is ~1 minute, attained at 16.
        assert_eq!(m.best_size(32), 16);
        // Past the optimum the curve rises but stays near the floor.
        assert!(m.exec_time(32) > m.exec_time(16));
        assert!(m.exec_time(32) < 90.0);
    }

    #[test]
    fn gadget_calibration_matches_fig6() {
        let m = gadget2_model();
        assert!((m.exec_time(2) - 600.0).abs() < 1e-9);
        assert!((m.exec_time(32) - 240.0).abs() < 1e-9);
        assert_eq!(m.best_size(46), 32);
        // The paper's chosen max (46) is past the best size — exactly the
        // deliberate choice discussed in Section VI-C.
        assert!(m.exec_time(46) > m.exec_time(32));
        assert!(m.exec_time(46) < 300.0);
    }

    #[test]
    fn exec_time_is_monotone_down_to_the_optimum() {
        let m = gadget2_model();
        for n in 2..32 {
            assert!(
                m.exec_time(n) > m.exec_time(n + 1),
                "T({n}) should exceed T({})",
                n + 1
            );
        }
    }

    #[test]
    fn fit_panics_on_degenerate_input() {
        let r = std::panic::catch_unwind(|| AmdahlOverhead::fit(8, 100.0, 8, 50.0));
        assert!(r.is_err());
    }

    #[test]
    fn efficiency_degrades_past_the_optimum() {
        let m = gadget2_model();
        let efficiency = |n: u32| m.exec_time(1) / m.exec_time(n) / n as f64;
        // Efficiency is monotone non-increasing for this model family.
        let mut last = f64::INFINITY;
        for n in 1..=46 {
            let e = efficiency(n);
            assert!(e <= last + 1e-9, "efficiency rose at n={n}");
            last = e;
        }
        assert!(efficiency(46) < 0.2, "past-optimum efficiency is poor");
    }

    #[test]
    fn downey_speedup_caps_at_average_parallelism() {
        let m = DowneyModel {
            big_a: 16.0,
            sigma: 0.5,
            t1: 1000.0,
        };
        assert!((m.downey_speedup(1) - 1.0).abs() < 1e-9);
        assert!(m.downey_speedup(64) <= 16.0 + 1e-9);
        // Monotone non-decreasing speedup.
        for n in 1..64 {
            assert!(m.downey_speedup(n + 1) + 1e-9 >= m.downey_speedup(n));
        }
    }

    #[test]
    fn downey_high_variance_branch() {
        let m = DowneyModel {
            big_a: 8.0,
            sigma: 2.0,
            t1: 100.0,
        };
        assert!((m.downey_speedup(1) - 1.0).abs() < 1e-6);
        assert!(m.downey_speedup(100) <= 8.0 + 1e-9);
    }
}
