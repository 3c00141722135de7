//! Empirical cumulative distribution functions.
//!
//! Figures 7(a–d) and 8(a–d) of the paper are ECDFs over per-job metrics.
//! [`Ecdf`] stores the sorted sample and answers both directions of the
//! curve: `fraction_at_or_below(x)` (the y-value the figures plot) and
//! `quantile(q)` (for summaries such as "the median GADGET-2 execution
//! time").

/// An empirical CDF over a set of `f64` samples.
///
/// NaN samples are rejected at construction; infinities are allowed (they
/// sort to the ends).
///
/// ```
/// use koala_metrics::Ecdf;
/// let e = Ecdf::new(vec![120.0, 60.0, 240.0, 120.0]);
/// assert_eq!(e.percent_at_or_below(120.0), 75.0);
/// assert_eq!(e.median(), Some(120.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from samples. NaNs are filtered out.
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.retain(|x| !x.is_nan());
        samples.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered"));
        Ecdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// `P[X ≤ x]` as a fraction in `[0, 1]`; 0 for an empty ECDF.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.partition_point(|&s| s <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// `P[X ≤ x]` in percent — the y-axis of the paper's figures.
    pub fn percent_at_or_below(&self, x: f64) -> f64 {
        100.0 * self.fraction_at_or_below(x)
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) using the nearest-rank method;
    /// `None` when the ECDF is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let n = self.sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.sorted[rank - 1])
    }

    /// Median (0.5-quantile).
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    /// The full curve as `(x, percent)` steps — one point per distinct
    /// sample value, suitable for CSV export of the paper's figures.
    pub fn curve_points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        let mut pts = Vec::new();
        let mut i = 0;
        while i < n {
            let x = self.sorted[i];
            let mut j = i + 1;
            while j < n && self.sorted[j] == x {
                j += 1;
            }
            pts.push((x, 100.0 * j as f64 / n as f64));
            i = j;
        }
        pts
    }
}

impl FromIterator<f64> for Ecdf {
    /// Builds an ECDF from an iterator of samples. NaNs are filtered out.
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_count_inclusively() {
        let e = Ecdf::new(vec![1.0, 2.0, 2.0, 3.0]);
        assert_eq!(e.fraction_at_or_below(0.5), 0.0);
        assert_eq!(e.fraction_at_or_below(1.0), 0.25);
        assert_eq!(e.fraction_at_or_below(2.0), 0.75);
        assert_eq!(e.fraction_at_or_below(10.0), 1.0);
        assert_eq!(e.percent_at_or_below(2.0), 75.0);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let e = Ecdf::new(vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(e.quantile(0.0), Some(10.0));
        assert_eq!(e.quantile(0.25), Some(10.0));
        assert_eq!(e.quantile(0.5), Some(20.0));
        assert_eq!(e.quantile(0.75), Some(30.0));
        assert_eq!(e.quantile(1.0), Some(40.0));
        assert_eq!(e.median(), Some(20.0));
    }

    #[test]
    fn nan_samples_are_dropped() {
        let e = Ecdf::new(vec![f64::NAN, 1.0, f64::NAN, 2.0]);
        assert_eq!(e.len(), 2);
        assert_eq!(e.min(), Some(1.0));
    }

    #[test]
    fn empty_ecdf_is_harmless() {
        let e = Ecdf::new(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.fraction_at_or_below(1.0), 0.0);
        assert_eq!(e.quantile(0.5), None);
        assert_eq!(e.mean(), None);
        assert!(e.curve_points().is_empty());
    }

    #[test]
    fn curve_points_deduplicate() {
        let e = Ecdf::new(vec![5.0, 5.0, 7.0]);
        let pts = e.curve_points();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].0, 5.0);
        assert!((pts[0].1 - 200.0 / 3.0).abs() < 1e-9);
        assert_eq!(pts[1], (7.0, 100.0));
    }

    #[test]
    fn mean_matches_hand_computation() {
        let e = Ecdf::new(vec![2.0, 4.0, 6.0]);
        assert_eq!(e.mean(), Some(4.0));
    }
}
