//! A multiply-shift hasher for simulator-issued integer ids.
//!
//! Job ids and allocation handles are handed out by the simulation
//! itself, never read from outside it, so hash tables keyed by them need
//! no protection against crafted collisions — the default SipHash costs
//! far more than the lookup it guards. One multiplication by an odd
//! constant spreads sequential ids over both the bucket index (the low
//! bits, a bijection of the id's low bits) and the control tag (the top
//! bits).
//!
//! A table using this hasher iterates in an order that depends on its
//! insertion history, not on the ids; code that needs a repeatable order
//! (captures, reports, error messages) sorts the keys first.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-shift hasher for `u32`/`u64` ids (see the module docs).
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    /// 2⁶⁴ divided by the golden ratio, rounded to odd.
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(Self::K);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 ^ u64::from(n)).wrapping_mul(Self::K);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(Self::K);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by simulator-issued ids, hashed with [`IdHasher`].
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash<T: Hash>(x: T) -> u64 {
        let mut h = IdHasher::default();
        x.hash(&mut h);
        h.finish()
    }

    #[test]
    fn sequential_ids_land_in_distinct_buckets() {
        // The low bits of `n · K` are a bijection of the low bits of `n`.
        let mask = 1023;
        let mut seen: Vec<u64> = (0u64..1024).map(|n| hash(n) & mask).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 1024);
        let mut seen32: Vec<u64> = (0u32..1024).map(|n| hash(n) & mask).collect();
        seen32.sort_unstable();
        seen32.dedup();
        assert_eq!(seen32.len(), 1024);
    }
}
