//! One deterministic hasher for the VM's id-keyed maps.
//!
//! Every map the VM probes on a hot path is keyed by an id the VM made
//! itself: a guest PC, a page number, a fragment id, a value id, an `Rc`
//! address. None of these comes from an adversary, so SipHash's HashDoS
//! resistance buys nothing, and it costs more than the probe it guards.
//! [`IdHasher`] is an FxHash-style multiply-add with a final rotate.
//!
//! The rotate matters. hashbrown takes the bucket from the low bits of the
//! hash and the 7-bit tag from the top bits. A bare product `n·K` keeps the
//! trailing zeros of `n`, so 4-aligned PCs and 8-aligned pointers would
//! leave the low bits constant and crowd into a quarter (or an eighth) of
//! the buckets. Rotating the product moves its well-mixed middle bits into
//! both places.
//!
//! The hasher has no random seed, so iteration order is fixed for a given
//! insertion history. Nothing depends on it: every caller that writes
//! a map's contents out (snapshot capture, the store's container) sorts
//! first.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier: 2^64 / φ, odd.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Deterministic FxHash-style hasher for integer-like keys.
///
/// # Examples
///
/// ```
/// use alpha_isa::IdMap;
/// let mut m: IdMap<u64, u32> = IdMap::default();
/// m.insert(0x1_0000, 7);
/// assert_eq!(m.get(&0x1_0000), Some(&7));
/// ```
#[derive(Clone, Copy, Default, Debug)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.wrapping_add(n).wrapping_mul(K);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` hashed by [`IdHasher`]; build with `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` hashed by [`IdHasher`]; build with `IdSet::default()`.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(key: T) -> u64 {
        let mut h = IdHasher::default();
        key.hash(&mut h);
        h.finish()
    }

    /// Distinct low-10-bit and top-7-bit values over 1024 keys.
    fn spread<T: Hash>(keys: impl Iterator<Item = T>) -> (usize, usize) {
        let hashes: Vec<u64> = keys.map(hash_of).collect();
        let low: std::collections::BTreeSet<u64> = hashes.iter().map(|h| h & 0x3ff).collect();
        let top: std::collections::BTreeSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        (low.len(), top.len())
    }

    #[test]
    fn consecutive_keys_of_every_shape_spread_over_bucket_and_tag_bits() {
        let shapes: [(&str, (usize, usize)); 5] = [
            ("pc k*4", spread((0..1024u64).map(|k| 0x1_0000 + k * 4))),
            (
                "rc k*8",
                spread((0..1024usize).map(|k| 0x5555_0000 + k * 8)),
            ),
            ("page addr k*4096", spread((0..1024u64).map(|k| k << 12))),
            ("page number k", spread(0..1024u64)),
            ("u32 id k", spread(0..1024u32)),
        ];
        for (shape, (low, top)) in shapes {
            assert!(low >= 600, "{shape}: low 10 bits hit only {low} values");
            assert!(top >= 100, "{shape}: top 7 bits hit only {top} of 128");
        }
    }

    #[test]
    fn hashing_is_deterministic_and_separates_tuples() {
        assert_eq!(hash_of(0x1_2345u64), hash_of(0x1_2345u64));
        assert_ne!(hash_of((1usize, 2usize)), hash_of((2usize, 1usize)));
        let set: IdSet<[u64; 2]> = [[1, 2], [2, 1], [1, 2]].into_iter().collect();
        assert_eq!(set.len(), 2);
    }
}
