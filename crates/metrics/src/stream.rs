//! Streaming, **mergeable** statistics for memory-bounded reports.
//!
//! A production-scale experiment matrix runs thousands of
//! `(scenario × seed)` cells; materializing a full job table per cell
//! makes memory grow linearly with matrix size. This module provides the
//! constant-memory alternative: online accumulators that summarize a
//! metric while it streams past and can later be **merged** across cells
//! — the parallel runner combines shards in submission order and the
//! result is identical to the sequential loop.
//!
//! * [`StreamStats`] — count, mean, variance (Welford), min/max. The
//!   mean is computed from an **exact** floating-point sum (Shewchuk
//!   partials with correct final rounding, the `math.fsum` algorithm),
//!   so count and mean are *bit-identical under any merge order*;
//!   variance merges with Chan's parallel formula and is
//!   tolerance-equal across orders.
//! * [`StreamQuantiles`] — a bounded-memory quantile estimator: a
//!   fixed-size **deterministic reservoir** (bottom-*k* by a hash
//!   priority keyed off the cell seed). Merging keeps the *k* smallest
//!   priorities of the union, which is a set operation — order- and
//!   sharding-insensitive by construction. With at most `capacity`
//!   samples the reservoir holds *all* of them and quantiles are exact.
//! * [`MetricStream`] — the two bundled, as reports use them.
//! * [`MeanCi`] / [`mean_ci95`] — mean ± 95 % confidence interval
//!   (Student-t) across replications.
//!
//! ```
//! use koala_metrics::stream::{mean_ci95, MetricStream};
//!
//! // Two cells of a sweep stream their samples independently ...
//! let mut a = MetricStream::new(0xA5EED, 128);
//! let mut b = MetricStream::new(0xB5EED, 128);
//! for x in [1.0, 2.0, 3.0] {
//!     a.push(x);
//! }
//! for x in [4.0, 5.0] {
//!     b.push(x);
//! }
//! // ... and merge into the pooled summary: counts add, the mean is the
//! // exact-sum mean, quantiles stay exact while n <= capacity.
//! a.merge(&b);
//! assert_eq!(a.count(), 5);
//! assert_eq!(a.mean(), Some(3.0));
//! assert_eq!(a.quantiles.ecdf().median(), Some(3.0));
//! // Replication scalars aggregate into a mean ± 95 % CI (Student-t).
//! let ci = mean_ci95(&[10.0, 12.0, 14.0]).unwrap();
//! assert_eq!(ci.mean, 12.0);
//! assert!(ci.half_width.unwrap() > 0.0);
//! ```

use crate::ecdf::Ecdf;

// ---------------------------------------------------------------------
// Exact summation (Shewchuk partials, math.fsum final rounding)
// ---------------------------------------------------------------------

/// Adds `x` to a list of non-overlapping partials (increasing
/// magnitude), keeping the represented real value exact.
fn grow_partials(partials: &mut Vec<f64>, mut x: f64) {
    let mut i = 0;
    for j in 0..partials.len() {
        let mut y = partials[j];
        if x.abs() < y.abs() {
            std::mem::swap(&mut x, &mut y);
        }
        let hi = x + y;
        let lo = y - (hi - x);
        if lo != 0.0 {
            partials[i] = lo;
            i += 1;
        }
        x = hi;
    }
    partials.truncate(i);
    partials.push(x);
}

/// Rounds a partials list to the nearest `f64` — the correctly rounded
/// value of the *exact* sum, hence independent of accumulation order.
/// Port of CPython's `math.fsum` final loop (incl. the half-even
/// correction across partials).
fn round_partials(partials: &[f64]) -> f64 {
    let mut n = partials.len();
    if n == 0 {
        return 0.0;
    }
    n -= 1;
    let mut hi = partials[n];
    let mut lo = 0.0;
    while n > 0 {
        let x = hi;
        n -= 1;
        let y = partials[n];
        debug_assert!(y.abs() <= x.abs());
        hi = x + y;
        let yr = hi - x;
        lo = y - yr;
        if lo != 0.0 {
            break;
        }
    }
    // Half-way cases: if the truncated tail agrees in sign with `lo`,
    // the exact value lies strictly beyond the half-way point.
    if n > 0 && ((lo < 0.0 && partials[n - 1] < 0.0) || (lo > 0.0 && partials[n - 1] > 0.0)) {
        let y = lo * 2.0;
        let x = hi + y;
        if y == x - hi {
            hi = x;
        }
    }
    hi
}

// ---------------------------------------------------------------------
// StreamStats
// ---------------------------------------------------------------------

/// Online count / mean / variance / min / max with order-insensitive
/// merging.
///
/// `count` and [`StreamStats::mean`] are bit-identical regardless of how
/// a sample stream is sharded and in which order the shards are merged
/// (exact summation); variance uses Welford's update and Chan's merge,
/// which is equal across orders up to floating-point tolerance. NaN
/// samples are skipped, like [`Ecdf`] construction.
///
/// ```
/// use koala_metrics::StreamStats;
/// let mut a = StreamStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] { a.push(x); }
/// assert_eq!(a.mean(), Some(2.5));
/// let mut left = StreamStats::new();
/// left.push(1.0); left.push(2.0);
/// let mut right = StreamStats::new();
/// right.push(3.0); right.push(4.0);
/// left.merge(&right);
/// assert_eq!(left.mean(), a.mean());
/// assert_eq!(left.count(), 4);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamStats {
    count: u64,
    /// Non-overlapping partials of the exact sample sum (tiny in
    /// practice: a handful of entries).
    partials: Vec<f64>,
    /// Welford running mean (used for the variance recurrence only; the
    /// reported mean comes from the exact sum).
    w_mean: f64,
    /// Welford sum of squared deviations.
    m2: f64,
    min: f64,
    max: f64,
}

impl StreamStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        StreamStats {
            count: 0,
            partials: Vec::new(),
            w_mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Feeds one sample (NaN is skipped).
    pub fn push(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.count += 1;
        grow_partials(&mut self.partials, x);
        let delta = x - self.w_mean;
        self.w_mean += delta / self.count as f64;
        self.m2 += delta * (x - self.w_mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one. Count, mean, min and
    /// max are exactly order-insensitive; variance merges with Chan's
    /// parallel formula (tolerance-equal across merge orders).
    pub fn merge(&mut self, other: &StreamStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let (na, nb) = (self.count as f64, other.count as f64);
        let delta = other.w_mean - self.w_mean;
        self.w_mean += delta * nb / (na + nb);
        self.m2 += other.m2 + delta * delta * na * nb / (na + nb);
        self.count += other.count;
        for &p in &other.partials {
            grow_partials(&mut self.partials, p);
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (exact sum, correctly rounded); `None` when
    /// empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| round_partials(&self.partials) / self.count as f64)
    }

    /// The correctly rounded exact sum of all samples.
    pub fn sum(&self) -> f64 {
        round_partials(&self.partials)
    }

    /// Population variance (`m2 / n`); `None` when empty.
    pub fn variance(&self) -> Option<f64> {
        (self.count > 0).then(|| (self.m2 / self.count as f64).max(0.0))
    }

    /// Sample variance (`m2 / (n - 1)`); `None` with fewer than two
    /// samples.
    pub fn sample_variance(&self) -> Option<f64> {
        (self.count > 1).then(|| (self.m2 / (self.count - 1) as f64).max(0.0))
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Half-width of the 95 % Student-t confidence interval of the mean
    /// (`t₀.₉₇₅,ₙ₋₁ · s/√n`); `None` with fewer than two samples.
    pub fn ci95_half_width(&self) -> Option<f64> {
        let s2 = self.sample_variance()?;
        let n = self.count as f64;
        Some(t_critical_975(self.count - 1) * (s2 / n).sqrt())
    }

    /// The accumulator's complete internal state, for checkpointing.
    pub fn state(&self) -> StreamStatsState {
        StreamStatsState {
            count: self.count,
            partials: self.partials.clone(),
            w_mean: self.w_mean,
            m2: self.m2,
            min: self.min,
            max: self.max,
        }
    }

    /// Reconstructs an accumulator from a captured [`StreamStats::state`].
    pub fn from_state(s: StreamStatsState) -> Self {
        StreamStats {
            count: s.count,
            partials: s.partials,
            w_mean: s.w_mean,
            m2: s.m2,
            min: s.min,
            max: s.max,
        }
    }
}

/// The raw internals of a [`StreamStats`], exposed for checkpointing.
///
/// The Shewchuk partials list is part of the state: it is what makes the
/// mean bit-identical under any merge order, so a restore must carry the
/// exact list, not a re-rounded sum.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStatsState {
    /// Number of samples.
    pub count: u64,
    /// Non-overlapping partials of the exact sample sum.
    pub partials: Vec<f64>,
    /// Welford running mean.
    pub w_mean: f64,
    /// Welford sum of squared deviations.
    pub m2: f64,
    /// Smallest sample (`+∞` when empty).
    pub min: f64,
    /// Largest sample (`−∞` when empty).
    pub max: f64,
}

// ---------------------------------------------------------------------
// StreamQuantiles
// ---------------------------------------------------------------------

/// SplitMix64 finalizer: the per-sample priority hash.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A bounded-memory quantile estimator: a fixed-capacity deterministic
/// reservoir.
///
/// Every sample gets a pseudo-random priority derived from the
/// accumulator's `seed` and the sample's index; the reservoir keeps the
/// `capacity` samples with the *smallest* priorities (a bottom-*k*
/// sketch). Because "keep the k smallest of the union" is a pure set
/// operation, [`StreamQuantiles::merge`] is exactly order- and
/// sharding-insensitive (give distinct shards distinct seeds, as the
/// experiment runner does with its cell seeds). Priorities are uniform,
/// so the kept set is a uniform subsample: quantile estimates converge
/// at `O(1/√capacity)` in rank, and are **exact** whenever the total
/// sample count does not exceed the capacity.
///
/// Storage is push-order while the reservoir has room and a max-heap
/// on the entry key once it is full, so a push costs O(1) or O(log k).
/// Wherever the entries are observed — `Debug`, `==`,
/// [`StreamQuantiles::state`], the [`Ecdf`] — they appear sorted
/// ascending by key; equal keys are bit-identical entries, so that view
/// does not depend on the push or merge order.
#[derive(Clone)]
pub struct StreamQuantiles {
    seed: u64,
    capacity: usize,
    pushed: u64,
    /// `(priority, value)`, at most `capacity` entries: in push order
    /// while fewer, a max-heap by [`StreamQuantiles::key`] once full.
    entries: Vec<(u64, f64)>,
}

impl std::fmt::Debug for StreamQuantiles {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamQuantiles")
            .field("seed", &self.seed)
            .field("capacity", &self.capacity)
            .field("pushed", &self.pushed)
            .field("entries", &self.sorted_entries())
            .finish()
    }
}

impl PartialEq for StreamQuantiles {
    fn eq(&self, other: &Self) -> bool {
        self.seed == other.seed
            && self.capacity == other.capacity
            && self.pushed == other.pushed
            && self.sorted_entries() == other.sorted_entries()
    }
}

impl StreamQuantiles {
    /// An empty reservoir holding at most `capacity` samples, with
    /// priorities keyed off `seed` (use the experiment cell's seed so
    /// shards never collide).
    ///
    /// # Panics
    /// Panics on zero capacity.
    pub fn new(seed: u64, capacity: usize) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        StreamQuantiles {
            seed,
            capacity,
            pushed: 0,
            entries: Vec::new(),
        }
    }

    /// Total order on entries: priority first, then the value's bit
    /// pattern (total, so merging is deterministic even on priority
    /// collisions).
    fn key(e: &(u64, f64)) -> (u64, u64) {
        (e.0, e.1.to_bits())
    }

    /// Restores the max-heap order below slot `i`.
    fn sift_down(heap: &mut [(u64, f64)], mut i: usize) {
        loop {
            let left = 2 * i + 1;
            if left >= heap.len() {
                return;
            }
            let right = left + 1;
            let child = if right < heap.len() && Self::key(&heap[right]) > Self::key(&heap[left]) {
                right
            } else {
                left
            };
            if Self::key(&heap[child]) <= Self::key(&heap[i]) {
                return;
            }
            heap.swap(i, child);
            i = child;
        }
    }

    /// Puts the entries in heap order if the reservoir is full.
    fn heapify_if_full(&mut self) {
        if self.entries.len() >= self.capacity {
            for i in (0..self.entries.len() / 2).rev() {
                Self::sift_down(&mut self.entries, i);
            }
        }
    }

    /// The entries sorted ascending by key.
    fn sorted_entries(&self) -> Vec<(u64, f64)> {
        let mut sorted = self.entries.clone();
        sorted.sort_unstable_by_key(Self::key);
        sorted
    }

    /// Feeds one sample (NaN is skipped).
    pub fn push(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        let priority = mix64(self.seed ^ mix64(self.pushed));
        self.pushed += 1;
        let e = (priority, x);
        if self.entries.len() < self.capacity {
            self.entries.push(e);
            self.heapify_if_full();
        } else if Self::key(&e) < Self::key(&self.entries[0]) {
            // Full: the sample displaces the largest kept key. On a tie
            // the two entries are bit-identical, so keeping either is
            // the same reservoir.
            self.entries[0] = e;
            Self::sift_down(&mut self.entries, 0);
        }
    }

    /// Merges another reservoir: keeps the `capacity` smallest
    /// priorities of the union (the merged capacity is the larger of
    /// the two). Exactly order-insensitive: the kept entries are a set
    /// of keys, and entries with equal keys are bit-identical.
    ///
    /// Appends `other`'s entries and, past the capacity, selects the
    /// smallest keys in place: O(n) expected, no sort.
    pub fn merge(&mut self, other: &StreamQuantiles) {
        self.capacity = self.capacity.max(other.capacity);
        self.pushed += other.pushed;
        self.entries.extend_from_slice(&other.entries);
        if self.entries.len() > self.capacity {
            self.entries
                .select_nth_unstable_by_key(self.capacity, Self::key);
            self.entries.truncate(self.capacity);
        }
        self.heapify_if_full();
    }

    /// Number of samples fed in (across merges).
    pub fn count(&self) -> u64 {
        self.pushed
    }

    /// Number of samples currently retained (`≤ capacity`).
    pub fn retained(&self) -> usize {
        self.entries.len()
    }

    /// The reservoir's capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True when every sample ever pushed is still retained — quantiles
    /// are then exact, not estimates.
    pub fn is_exact(&self) -> bool {
        self.pushed as usize == self.entries.len()
    }

    /// The retained subsample as an [`Ecdf`] (exact when
    /// [`StreamQuantiles::is_exact`]).
    pub fn ecdf(&self) -> Ecdf {
        // By value, ties (only ±0.0 compare equal with distinct keys) in
        // key order, which is what the ECDF's stable sort makes of the
        // key-sorted view.
        let mut by_value = self.entries.clone();
        by_value.sort_unstable_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .expect("NaN is never retained")
                .then_with(|| Self::key(a).cmp(&Self::key(b)))
        });
        Ecdf::from_iter(by_value.into_iter().map(|(_, v)| v))
    }

    /// Estimated `q`-quantile (nearest rank on the retained subsample);
    /// `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.ecdf().quantile(q)
    }

    /// Estimated median.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The reservoir's complete internal state, for checkpointing.
    pub fn state(&self) -> StreamQuantilesState {
        StreamQuantilesState {
            seed: self.seed,
            capacity: self.capacity,
            pushed: self.pushed,
            entries: self.sorted_entries(),
        }
    }

    /// Reconstructs a reservoir from a captured
    /// [`StreamQuantiles::state`].
    ///
    /// # Panics
    /// Panics on zero capacity, like [`StreamQuantiles::new`].
    pub fn from_state(s: StreamQuantilesState) -> Self {
        assert!(s.capacity > 0, "reservoir capacity must be positive");
        let mut q = StreamQuantiles {
            seed: s.seed,
            capacity: s.capacity,
            pushed: s.pushed,
            entries: s.entries,
        };
        q.heapify_if_full();
        q
    }
}

/// The raw internals of a [`StreamQuantiles`], exposed for checkpointing.
///
/// `pushed` indexes the priority-hash stream, so restoring it exactly is
/// what makes post-restore pushes draw the same priorities the
/// uninterrupted accumulator would have drawn.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamQuantilesState {
    /// The priority-stream seed.
    pub seed: u64,
    /// Reservoir capacity bound.
    pub capacity: usize,
    /// Samples fed in so far (the priority-stream position).
    pub pushed: u64,
    /// Retained `(priority, value)` pairs, sorted ascending.
    pub entries: Vec<(u64, f64)>,
}

// ---------------------------------------------------------------------
// MetricStream
// ---------------------------------------------------------------------

/// One metric's full streaming summary: moments and quantiles together.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricStream {
    /// Count / mean / variance / min / max.
    pub stats: StreamStats,
    /// Bounded-memory quantile reservoir.
    pub quantiles: StreamQuantiles,
}

impl MetricStream {
    /// An empty stream whose reservoir is keyed off `seed`.
    pub fn new(seed: u64, capacity: usize) -> Self {
        MetricStream {
            stats: StreamStats::new(),
            quantiles: StreamQuantiles::new(seed, capacity),
        }
    }

    /// Feeds one sample into both accumulators.
    pub fn push(&mut self, x: f64) {
        self.stats.push(x);
        self.quantiles.push(x);
    }

    /// Merges another stream into this one.
    pub fn merge(&mut self, other: &MetricStream) {
        self.stats.merge(&other.stats);
        self.quantiles.merge(&other.quantiles);
    }

    /// Sample count.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Mean (exact sum; `None` when empty).
    pub fn mean(&self) -> Option<f64> {
        self.stats.mean()
    }

    /// Estimated median.
    pub fn median(&self) -> Option<f64> {
        self.quantiles.median()
    }
}

// ---------------------------------------------------------------------
// Confidence intervals
// ---------------------------------------------------------------------

/// Two-sided 97.5 % critical value of Student's t distribution with
/// `df` degrees of freedom (the multiplier of a 95 % confidence
/// interval). Exact table for `df ≤ 30`, linear interpolation through
/// the standard 40/60/120 anchors above, and the normal limit 1.960
/// beyond. `df = 0` yields NaN (no interval from one sample).
pub fn t_critical_975(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    let interp = |lo_df: u64, hi_df: u64, lo: f64, hi: f64| {
        lo + (hi - lo) * (df - lo_df) as f64 / (hi_df - lo_df) as f64
    };
    match df {
        0 => f64::NAN,
        1..=30 => TABLE[(df - 1) as usize],
        31..=40 => interp(30, 40, 2.042, 2.021),
        41..=60 => interp(40, 60, 2.021, 2.000),
        61..=120 => interp(60, 120, 2.000, 1.980),
        _ => 1.960,
    }
}

/// A replication aggregate: mean over `n` values with the 95 % Student-t
/// confidence half-width (`None` when `n < 2`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanCi {
    /// Number of values aggregated.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Half-width of the 95 % confidence interval; `None` with fewer
    /// than two values.
    pub half_width: Option<f64>,
}

impl MeanCi {
    /// Lower edge of the interval (the mean itself when `n < 2`).
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width.unwrap_or(0.0)
    }

    /// Upper edge of the interval (the mean itself when `n < 2`).
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width.unwrap_or(0.0)
    }
}

impl std::fmt::Display for MeanCi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Honour an explicit precision (`{:.1}`), defaulting to 2.
        let prec = f.precision().unwrap_or(2);
        match self.half_width {
            Some(h) => write!(f, "{:.p$} ± {:.p$}", self.mean, h, p = prec),
            None => write!(f, "{:.p$} ± n/a", self.mean, p = prec),
        }
    }
}

/// Mean ± 95 % CI (Student-t) of a value list — the per-metric
/// aggregation of replication cells. NaNs are dropped; `None` when no
/// finite value remains.
pub fn mean_ci95(values: &[f64]) -> Option<MeanCi> {
    let mut stats = StreamStats::new();
    for &v in values {
        stats.push(v);
    }
    let mean = stats.mean()?;
    Some(MeanCi {
        n: stats.count() as usize,
        mean,
        half_width: stats.ci95_half_width(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_match_hand_computation() {
        let mut s = StreamStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert_eq!(s.mean(), Some(5.0));
        assert!((s.variance().unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn empty_stats_are_none() {
        let s = StreamStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), None);
        assert_eq!(s.variance(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.ci95_half_width(), None);
    }

    #[test]
    fn nan_samples_are_skipped() {
        let mut s = StreamStats::new();
        s.push(f64::NAN);
        s.push(1.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), Some(1.0));
    }

    #[test]
    fn mean_is_bit_identical_across_shardings() {
        // A sum that plain left-to-right f64 addition gets wrong
        // differently per order; the exact sum does not.
        let xs = [1e16, 1.0, -1e16, 1.0, 3.0, 1e-9, -2.0, 7.5];
        let mut whole = StreamStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = StreamStats::new();
        let mut b = StreamStats::new();
        for (i, &x) in xs.iter().enumerate() {
            if i % 2 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(
            whole.mean().unwrap().to_bits(),
            ab.mean().unwrap().to_bits()
        );
        assert_eq!(ab.mean().unwrap().to_bits(), ba.mean().unwrap().to_bits());
        assert_eq!(ab.count(), ba.count());
        assert_eq!(whole.sum(), 10.5 + 1e-9);
    }

    #[test]
    fn merge_into_empty_adopts_the_other() {
        let mut a = StreamStats::new();
        let mut b = StreamStats::new();
        b.push(3.0);
        b.push(5.0);
        a.merge(&b);
        assert_eq!(a.mean(), Some(4.0));
        let before = b.clone();
        b.merge(&StreamStats::new());
        assert_eq!(b, before);
    }

    #[test]
    fn reservoir_is_exact_below_capacity() {
        let mut q = StreamQuantiles::new(42, 16);
        for x in [5.0, 1.0, 9.0, 3.0, 7.0] {
            q.push(x);
        }
        assert!(q.is_exact());
        assert_eq!(q.retained(), 5);
        assert_eq!(q.median(), Some(5.0));
        assert_eq!(q.quantile(0.0), Some(1.0));
        assert_eq!(q.quantile(1.0), Some(9.0));
    }

    #[test]
    fn reservoir_stays_bounded() {
        let mut q = StreamQuantiles::new(7, 32);
        for i in 0..10_000 {
            q.push(i as f64);
        }
        assert_eq!(q.retained(), 32);
        assert_eq!(q.count(), 10_000);
        assert!(!q.is_exact());
        // A uniform subsample of 0..10000: the median estimate must land
        // well inside the bulk.
        let med = q.median().unwrap();
        assert!((1_000.0..9_000.0).contains(&med), "median estimate {med}");
    }

    #[test]
    fn reservoir_merge_is_order_insensitive() {
        let mut a = StreamQuantiles::new(1, 8);
        let mut b = StreamQuantiles::new(2, 8);
        let mut c = StreamQuantiles::new(3, 8);
        for i in 0..50 {
            a.push(i as f64);
            b.push(100.0 + i as f64);
            c.push(200.0 + i as f64);
        }
        let mut abc = a.clone();
        abc.merge(&b);
        abc.merge(&c);
        let mut cba = c.clone();
        cba.merge(&b);
        cba.merge(&a);
        // The kept sample set is identical whatever the merge order (the
        // receiving accumulator's own seed only matters for later
        // pushes, not for what is retained).
        assert_eq!(abc.ecdf(), cba.ecdf());
        assert_eq!(abc.count(), cba.count());
        let mut acb = a.clone();
        acb.merge(&c);
        acb.merge(&b);
        assert_eq!(abc.ecdf(), acb.ecdf());
        assert_eq!(abc.count(), 150);
        assert_eq!(abc.retained(), 8);
    }

    fn reservoir(capacity: usize, entries: &[(u64, f64)]) -> StreamQuantiles {
        StreamQuantiles::from_state(StreamQuantilesState {
            seed: 0,
            capacity,
            pushed: entries.len() as u64,
            entries: entries.to_vec(),
        })
    }

    #[test]
    fn reservoir_merge_truncates_through_ties() {
        // Equal keys on both sides straddle the cut: the union keeps
        // both copies of a tied key when they fit and drops the
        // duplicates past the capacity.
        let mut a = reservoir(4, &[(1, 1.0), (3, 3.0), (5, 5.0), (7, 7.0)]);
        let b = reservoir(4, &[(3, 3.0), (5, 5.0), (5, 5.5), (9, 9.0)]);
        a.merge(&b);
        assert_eq!(
            a.state().entries,
            vec![(1, 1.0), (3, 3.0), (3, 3.0), (5, 5.0)]
        );
        assert_eq!(a.count(), 8);
        // The cut falls between the two copies of a tied key.
        let mut a = reservoir(3, &[(2, 2.0), (4, 4.0), (6, 6.0)]);
        let b = reservoir(3, &[(1, 1.0), (4, 4.0), (8, 8.0)]);
        a.merge(&b);
        assert_eq!(a.state().entries, vec![(1, 1.0), (2, 2.0), (4, 4.0)]);
        // Merging a reservoir with itself keeps each entry twice, in
        // order, up to the capacity.
        let mut a = reservoir(5, &[(1, 1.0), (2, 2.0), (3, 3.0)]);
        a.merge(&a.clone());
        assert_eq!(
            a.state().entries,
            vec![(1, 1.0), (1, 1.0), (2, 2.0), (2, 2.0), (3, 3.0)]
        );
    }

    #[test]
    fn reservoir_merge_of_unequal_capacities() {
        let small = reservoir(2, &[(4, 4.0), (10, 10.0)]);
        let large = reservoir(5, &[(1, 1.0), (5, 5.0), (6, 6.0), (8, 8.0), (12, 12.0)]);
        let want = vec![(1, 1.0), (4, 4.0), (5, 5.0), (6, 6.0), (8, 8.0)];
        // The merged capacity is the larger one, from either side.
        let mut s = small.clone();
        s.merge(&large);
        assert_eq!(s.capacity(), 5);
        assert_eq!(s.state().entries, want);
        let mut l = large.clone();
        l.merge(&small);
        assert_eq!(l.capacity(), 5);
        assert_eq!(l.state().entries, want);
        // Growing into the larger capacity without truncating, and
        // merging with empty reservoirs on either side.
        let mut s = small.clone();
        s.merge(&reservoir(6, &[(2, 2.0)]));
        assert_eq!(s.state().entries, vec![(2, 2.0), (4, 4.0), (10, 10.0)]);
        let mut e = reservoir(3, &[]);
        e.merge(&large);
        assert_eq!(e.state().entries, large.state().entries);
        let mut l = large.clone();
        l.merge(&reservoir(1, &[]));
        assert_eq!(l.state().entries, large.state().entries);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_reservoir_panics() {
        StreamQuantiles::new(0, 0);
    }

    #[test]
    fn metric_stream_bundles_both() {
        let mut m = MetricStream::new(9, 64);
        for x in [10.0, 20.0, 30.0] {
            m.push(x);
        }
        assert_eq!(m.count(), 3);
        assert_eq!(m.mean(), Some(20.0));
        assert_eq!(m.median(), Some(20.0));
        let mut other = MetricStream::new(10, 64);
        other.push(40.0);
        m.merge(&other);
        assert_eq!(m.count(), 4);
        assert_eq!(m.mean(), Some(25.0));
    }

    #[test]
    fn state_round_trip_resumes_both_accumulators() {
        let mut m = MetricStream::new(0x5EED, 8);
        for i in 0..40 {
            m.push(i as f64 * 1.75 - 3.0);
        }
        let mut r = MetricStream {
            stats: StreamStats::from_state(m.stats.state()),
            quantiles: StreamQuantiles::from_state(m.quantiles.state()),
        };
        assert_eq!(m, r);
        // Post-restore pushes draw the same priority stream, so the two
        // stay bit-identical — including the retained reservoir set.
        for i in 40..200 {
            let x = (i as f64).sin() * 50.0;
            m.push(x);
            r.push(x);
        }
        assert_eq!(m, r);
        assert_eq!(m.mean().unwrap().to_bits(), r.mean().unwrap().to_bits());
    }

    #[test]
    fn t_table_values_and_limits() {
        assert!((t_critical_975(1) - 12.706).abs() < 1e-12);
        assert!((t_critical_975(3) - 3.182).abs() < 1e-12);
        assert!((t_critical_975(30) - 2.042).abs() < 1e-12);
        assert!((t_critical_975(1_000_000) - 1.960).abs() < 1e-12);
        assert!(t_critical_975(0).is_nan());
        // Interpolated region is monotone decreasing.
        for df in 30..200 {
            assert!(t_critical_975(df + 1) <= t_critical_975(df) + 1e-12);
        }
    }

    #[test]
    fn mean_ci_matches_hand_computation() {
        // 4 replications, the paper's repetition count.
        let ci = mean_ci95(&[10.0, 12.0, 11.0, 13.0]).unwrap();
        assert_eq!(ci.n, 4);
        assert_eq!(ci.mean, 11.5);
        // s = sqrt(5/3), t_{0.975,3} = 3.182.
        let expect = 3.182 * (5.0f64 / 3.0).sqrt() / 2.0;
        assert!((ci.half_width.unwrap() - expect).abs() < 1e-12);
        assert!(ci.lo() < 11.5 && ci.hi() > 11.5);
        assert_eq!(format!("{ci:.1}"), "11.5 ± 2.1");
    }

    #[test]
    fn mean_ci_degenerate_cases() {
        assert_eq!(mean_ci95(&[]), None);
        assert_eq!(mean_ci95(&[f64::NAN]), None);
        let one = mean_ci95(&[7.0]).unwrap();
        assert_eq!(one.n, 1);
        assert_eq!(one.half_width, None);
        assert_eq!(one.lo(), 7.0);
        assert_eq!(one.hi(), 7.0);
        assert_eq!(format!("{one}"), "7.00 ± n/a");
    }

    /// The reservoir as it was kept before the heap: a `Vec` sorted by
    /// key, each push a binary search plus an insert and a truncate,
    /// each merge a stable sort of the union (`self` first) truncated to
    /// the larger capacity.
    #[derive(Clone)]
    struct SortedReference {
        seed: u64,
        capacity: usize,
        pushed: u64,
        entries: Vec<(u64, f64)>,
    }

    impl SortedReference {
        fn new(seed: u64, capacity: usize) -> Self {
            SortedReference {
                seed,
                capacity,
                pushed: 0,
                entries: Vec::new(),
            }
        }

        fn push(&mut self, x: f64) {
            if x.is_nan() {
                return;
            }
            let e = (mix64(self.seed ^ mix64(self.pushed)), x);
            self.pushed += 1;
            let at = self
                .entries
                .partition_point(|p| StreamQuantiles::key(p) < StreamQuantiles::key(&e));
            if at < self.capacity {
                self.entries.insert(at, e);
                self.entries.truncate(self.capacity);
            }
        }

        fn merge(&mut self, other: &SortedReference) {
            self.capacity = self.capacity.max(other.capacity);
            self.pushed += other.pushed;
            self.entries.extend_from_slice(&other.entries);
            self.entries.sort_by_key(StreamQuantiles::key);
            self.entries.truncate(self.capacity);
        }

        fn state(&self) -> StreamQuantilesState {
            StreamQuantilesState {
                seed: self.seed,
                capacity: self.capacity,
                pushed: self.pushed,
                entries: self.entries.clone(),
            }
        }
    }

    /// Samples with NaNs and repeated values mixed in.
    fn samples(len: std::ops::Range<usize>) -> impl proptest::prelude::Strategy<Value = Vec<f64>> {
        proptest::collection::vec(
            proptest::prop_oneof![
                -1e6f64..1e6,
                proptest::prelude::Just(f64::NAN),
                proptest::prelude::Just(1.5),
                proptest::prelude::Just(0.0),
                proptest::prelude::Just(-0.0),
            ],
            len,
        )
    }

    /// The heap reservoir as observed: state, `Debug` text (in the
    /// derived format the reports' digests hash), `==` and the ECDF all
    /// equal the sorted reference's.
    fn assert_matches(q: &StreamQuantiles, r: &SortedReference) {
        assert_eq!(q.state(), r.state());
        assert_eq!(
            format!("{q:?}"),
            format!(
                "StreamQuantiles {{ seed: {}, capacity: {}, pushed: {}, entries: {:?} }}",
                r.seed, r.capacity, r.pushed, r.entries
            )
        );
        assert!(*q == StreamQuantiles::from_state(r.state()));
        // The ECDF as the sorted reference built it, down to the sign of
        // a zero.
        let bits = |e: Ecdf| e.samples().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(q.ecdf()),
            bits(Ecdf::from_iter(r.entries.iter().map(|e| e.1)))
        );
        assert_eq!(q.retained(), r.entries.len());
    }

    proptest::proptest! {
        /// Pushing into the heap keeps exactly what the sorted search
        /// keeps, after every push, for any stream (NaNs, repeated
        /// values and signed zeros included) and any capacity.
        #[test]
        fn early_reject_keeps_the_searched_reservoir(
            seed in proptest::prelude::any::<u64>(),
            capacity in 1usize..40,
            samples in samples(0..300),
        ) {
            let mut fast = StreamQuantiles::new(seed, capacity);
            let mut searched = SortedReference::new(seed, capacity);
            for &x in &samples {
                fast.push(x);
                searched.push(x);
                proptest::prop_assert_eq!(fast.state(), searched.state());
            }
            assert_matches(&fast, &searched);
        }

        /// Shards of one stream, each with its own seed and capacity
        /// (1 included), pushed across their capacity boundary,
        /// checkpointed and restored mid-stream, then merged in a random
        /// order: every step observes what the sorted reference holds.
        #[test]
        fn sharded_merges_match_the_sorted_reference(
            seed in proptest::prelude::any::<u64>(),
            capacities in proptest::collection::vec(1usize..24, 1..5),
            samples in samples(0..200),
            owners in proptest::collection::vec(0usize..4, 200..201),
            restore_at in 0usize..200,
            order in proptest::prelude::any::<u64>(),
        ) {
            let n = capacities.len();
            let mut fast: Vec<StreamQuantiles> = capacities
                .iter()
                .enumerate()
                .map(|(i, &c)| StreamQuantiles::new(seed.wrapping_add(i as u64), c))
                .collect();
            let mut reference: Vec<SortedReference> = capacities
                .iter()
                .enumerate()
                .map(|(i, &c)| SortedReference::new(seed.wrapping_add(i as u64), c))
                .collect();
            for (k, &x) in samples.iter().enumerate() {
                if k == restore_at {
                    for q in &mut fast {
                        *q = StreamQuantiles::from_state(q.state());
                    }
                }
                let shard = owners[k] % n;
                fast[shard].push(x);
                reference[shard].push(x);
            }
            for (q, r) in fast.iter().zip(&reference) {
                assert_matches(q, r);
            }
            // A merge order: rotate the shards by a random amount, then
            // swap a random pair.
            let mut idx: Vec<usize> = (0..n).collect();
            idx.rotate_left((order % n as u64) as usize);
            idx.swap(((order >> 8) % n as u64) as usize, ((order >> 16) % n as u64) as usize);
            let mut merged = fast[idx[0]].clone();
            let mut merged_ref = reference[idx[0]].clone();
            for &i in &idx[1..] {
                merged.merge(&fast[i]);
                merged_ref.merge(&reference[i]);
                assert_matches(&merged, &merged_ref);
                // Pushes after a merge land in the merged layout.
                merged.push(i as f64);
                merged_ref.push(i as f64);
                assert_matches(&merged, &merged_ref);
            }
        }
    }
}
