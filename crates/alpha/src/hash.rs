//! Deterministic hashing: one hasher for the VM's id-keyed maps, and one
//! checksum for every sealed file and content digest.
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
//!
//! [`checksum`] is the other half: the integrity check every persisted
//! artifact's seal carries, and the content digest behind store keys,
//! program identity and memory comparison.

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

/// Seeds of the four [`checksum`] lanes (distinct, so two lanes fed the
/// same words still end in different states).
const LANE_SEEDS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];

/// One checksum step: `rotl((lane ^ w) * K, 31)`. For a fixed `w` it is a
/// bijection of `lane`, and for a fixed `lane` a bijection of `w`.
#[inline(always)]
fn absorb(lane: u64, w: u64) -> u64 {
    (lane ^ w).wrapping_mul(K).rotate_left(31)
}

/// Word-parallel 64-bit checksum of `bytes`.
///
/// Four independent lanes absorb the input 32 bytes (four little-endian
/// words) at a time, so the multiplies of one block overlap instead of
/// each waiting on the last, as a byte-serial hash's do. The lanes are
/// then folded into one state, followed by the trailing whole words, the
/// zero-padded last partial word and the length.
///
/// Every step is a bijection of the state it updates, so two inputs of
/// the same length that differ inside one 8-byte word always checksum
/// differently: every single-bit flip is caught. It is an integrity
/// check against accident, not a keyed MAC.
///
/// The value is part of every sealed wire format; changing this function
/// changes every checksum on disk, so it must come with a bump of every
/// format version that seals with it.
///
/// # Examples
///
/// ```
/// use alpha_isa::hash::checksum;
/// assert_ne!(checksum(b"seal"), checksum(b"seam"));
/// assert_ne!(checksum(b""), checksum(&[0]));
/// ```
pub fn checksum(bytes: &[u8]) -> u64 {
    let (blocks, tail) = bytes.as_chunks::<32>();
    let mut lanes = LANE_SEEDS;
    for block in blocks {
        for (lane, w) in lanes.iter_mut().zip(block.as_chunks::<8>().0) {
            *lane = absorb(*lane, u64::from_le_bytes(*w));
        }
    }
    let mut h = lanes.into_iter().fold(0, absorb);
    let (words, rest) = tail.as_chunks::<8>();
    for w in words {
        h = absorb(h, u64::from_le_bytes(*w));
    }
    if !rest.is_empty() {
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        h = absorb(h, u64::from_le_bytes(last));
    }
    absorb(h, bytes.len() as u64)
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

    /// A deterministic, non-repeating test buffer.
    fn buffer(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(0x9e37_79b9) >> 24) as u8)
            .collect()
    }

    #[test]
    fn checksum_catches_every_single_bit_flip() {
        // 0..=80 covers empty input, tail only, exactly one 32-byte block,
        // and blocks followed by whole and partial tail words.
        for len in 0..=80 {
            let original = buffer(len);
            let base = checksum(&original);
            let mut flipped = original.clone();
            for byte in 0..len {
                for bit in 0..8 {
                    flipped[byte] ^= 1 << bit;
                    assert_ne!(checksum(&flipped), base, "len {len} byte {byte} bit {bit}");
                    flipped[byte] ^= 1 << bit;
                }
            }
        }
    }

    #[test]
    fn checksum_catches_swapped_words() {
        let original = buffer(80);
        let base = checksum(&original);
        for a in 0..10 {
            for b in a + 1..10 {
                let mut swapped = original.clone();
                for k in 0..8 {
                    swapped.swap(a * 8 + k, b * 8 + k);
                }
                assert_ne!(swapped, original);
                assert_ne!(checksum(&swapped), base, "words {a} and {b}");
            }
        }
    }

    #[test]
    fn checksum_covers_the_length() {
        for len in 0..=80 {
            let mut longer = buffer(len);
            let base = checksum(&longer);
            longer.push(0);
            assert_ne!(checksum(&longer), base, "len {len}");
        }
    }

    /// Every sealed wire format stores this function's output. If this
    /// test fails, the checksum changed: bump `ARTIFACT_VERSION`,
    /// `STORE_VERSION`, `SNAPSHOT_VERSION`, `REPLAY_VERSION` and
    /// `REPRO_VERSION` so existing files are refused as version skew
    /// instead of failing their seals, then update the vector.
    #[test]
    fn checksum_matches_pinned_vector() {
        assert_eq!(checksum(&buffer(77)), 0xb8d6_9614_fb83_3bd4);
    }

    #[test]
    fn hashing_is_deterministic_and_separates_tuples() {
        assert_eq!(hash_of(0x1_2345u64), hash_of(0x1_2345u64));
        assert_ne!(hash_of((1usize, 2usize)), hash_of((2usize, 1usize)));
        let set: IdSet<[u64; 2]> = [[1, 2], [2, 1], [1, 2]].into_iter().collect();
        assert_eq!(set.len(), 2);
    }
}
