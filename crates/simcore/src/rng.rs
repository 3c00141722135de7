//! Seeded randomness.
//!
//! All randomness in a simulation must flow from a single seeded source
//! per run — that is the determinism contract. [`SimRng`] wraps a small,
//! fast, portable PRNG (xoshiro256++ implemented locally so the stream is
//! stable regardless of `rand` version bumps) and exposes the handful of
//! primitive draws the workspace needs. Analytic distributions live in
//! [`crate::dist`] and are parameterized over `SimRng`.

/// Portable seeded PRNG (xoshiro256++).
///
/// The generator is split-friendly: [`SimRng::fork`] derives an
/// independent stream for a subcomponent (e.g. one per cluster's
/// background-load generator) so that adding draws in one component does
/// not perturb another's stream.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed (expanded via SplitMix64,
    /// the recommended seeding procedure for xoshiro).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derives an independent generator for a subcomponent. The `label`
    /// keeps forks with different purposes on different streams even when
    /// forked from identical parent states.
    pub fn fork(&mut self, label: u64) -> SimRng {
        let mut sm = self.next_u64() ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `(0, 1]` — safe as an argument to `ln`.
    pub fn f64_open0(&mut self) -> f64 {
        1.0 - self.f64()
    }

    /// Uniform integer in `[0, bound)` via Lemire's unbiased method.
    ///
    /// # Panics
    /// Panics if `bound` is zero.
    pub fn u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "u64_below(0)");
        // Lemire's multiply-shift with rejection to remove bias.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            // low < bound: possible bias zone; reject if below threshold.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_u64: lo > hi");
        lo + self.u64_below(hi - lo + 1)
    }

    /// Uniform `usize` in `[0, bound)`.
    pub fn usize_below(&mut self, bound: usize) -> usize {
        self.u64_below(bound as u64) as usize
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    pub fn bool_with(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Picks a uniformly random element, if the slice is non-empty.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.usize_below(xs.len())])
        }
    }

    /// The generator's internal state, for checkpointing. Restoring via
    /// [`SimRng::from_state`] resumes the stream at exactly this
    /// position.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Reconstructs a generator from a captured [`SimRng::state`].
    pub fn from_state(s: [u64; 4]) -> Self {
        SimRng { s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_is_in_unit_interval() {
        let mut r = SimRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            let y = r.f64_open0();
            assert!(y > 0.0 && y <= 1.0);
        }
    }

    #[test]
    fn u64_below_respects_bound_and_hits_all_values() {
        let mut r = SimRng::seed_from_u64(3);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let x = r.u64_below(7);
            assert!(x < 7);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn range_is_inclusive() {
        let mut r = SimRng::seed_from_u64(9);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..10_000 {
            let x = r.range_u64(5, 8);
            assert!((5..=8).contains(&x));
            lo_seen |= x == 5;
            hi_seen |= x == 8;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn forks_are_independent_of_parent_consumption() {
        // fork(label) must give distinct streams for distinct labels.
        let mut parent = SimRng::seed_from_u64(11);
        let mut f1 = parent.fork(1);
        let mut f2 = parent.fork(2);
        let matches = (0..64).filter(|_| f1.next_u64() == f2.next_u64()).count();
        assert_eq!(matches, 0);
    }

    #[test]
    fn state_round_trip_resumes_the_stream() {
        let mut a = SimRng::seed_from_u64(77);
        for _ in 0..100 {
            a.next_u64();
        }
        let mut b = SimRng::from_state(a.state());
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn mean_of_f64_is_near_half() {
        let mut r = SimRng::seed_from_u64(123);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
