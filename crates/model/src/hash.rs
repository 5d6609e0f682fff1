//! Fast, deterministic hashing for maps keyed by small internal integers.
//!
//! A few maps sit on per-step paths — `(layer, head)` → arena in the
//! per-head grids, `(layer, head)` → token → score in the full cache's
//! HST/LST labels and the prefix radix tree's
//! children — all keyed by small integers.  `std`'s default SipHash is
//! DoS-resistant but costs tens of nanoseconds per lookup, which measurably
//! dominates the per-entry arithmetic (a `head_dim`-wide dot product).  The
//! keys here are internal ids, never attacker-controlled data, so these maps
//! use a Fibonacci-multiplicative hasher instead: one `wrapping_mul` per
//! word, deterministic across runs (which also keeps map iteration order
//! reproducible between builds).  The budgeted eviction policies keep no
//! maps at all: their per-head state is dense arrays.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for small integer keys (Fibonacci hashing with an
/// xor fold per word).  Not DoS-resistant — use only for maps keyed by
/// internal ids.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

/// 2^64 / φ, the classic Fibonacci-hashing multiplier.
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for FastHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (composite keys hash their parts through the
        // word-sized fast paths below; this handles anything else).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PHI);
        }
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0 ^ i).wrapping_mul(PHI);
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }
}

/// `HashMap` with the deterministic [`FastHasher`].
pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_behave_and_are_deterministic() {
        let mut a: FastHashMap<(usize, usize), usize> = FastHashMap::default();
        let mut b: FastHashMap<(usize, usize), usize> = FastHashMap::default();
        for i in 0..1000 {
            a.insert((i % 7, i), i);
            b.insert((i % 7, i), i);
        }
        assert_eq!(a.len(), 1000);
        assert_eq!(a.get(&(3, 3)), Some(&3));
        // Deterministic hasher: identical insertion sequences iterate
        // identically.
        let ka: Vec<_> = a.keys().copied().collect();
        let kb: Vec<_> = b.keys().copied().collect();
        assert_eq!(ka, kb);
    }

    #[test]
    fn distinct_keys_rarely_collide() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build: BuildHasherDefault<FastHasher> = BuildHasherDefault::default();
        let mut hashes: Vec<u64> = (0..4096usize).map(|i| build.hash_one(i)).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(
            hashes.len(),
            4096,
            "multiplicative hash must be injective here"
        );
    }
}
