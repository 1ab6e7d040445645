//! [`FastHasher`] — the one hasher for in-process maps.
//!
//! The workspace hashes for three jobs, each with its own function:
//!
//! * bytes that leave the process (journal frames, golden fingerprints,
//!   state-transfer streams) take [`crate::frame::fnv64`], whose
//!   constants are part of those formats;
//! * keys the process mints itself or reads from its own trace (request
//!   ids, timer tokens, node indices, interned keys and views) take
//!   [`FastHasher`], through [`FastMap`] and [`FastSet`];
//! * keys a `serve` client can choose keep `std`'s `RandomState`, whose
//!   per-process seed stops a client from aiming collisions.
//!
//! `FastHasher` folds each word into its state with one multiply and has
//! no per-process seed, so a map filled the same way iterates the same
//! way in every run. A multiply carries a key's entropy upward only: the
//! product of a multiple of 2^k has k zero low bits. hashbrown picks the
//! bucket from the low bits and the tag from the top seven, so
//! [`FastHasher::finish`] xor-folds the four 16-bit quarters of the
//! state into the low quarter and leaves the top bits as they are.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / φ, the Fibonacci-hashing multiplier: odd, and the most evenly
/// spread over arithmetic progressions of keys.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// A deterministic word-at-a-time hasher for keys the process mints
/// itself. Not collision-resistant: never key it by client-chosen data.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    state: u64,
}

/// The `BuildHasher` of [`FastMap`] and [`FastSet`], the counterpart of
/// `RandomState`.
pub type FastState = BuildHasherDefault<FastHasher>;

/// A `HashMap` hashed by [`FastHasher`]; build it with `default()`.
pub type FastMap<K, V> = HashMap<K, V, FastState>;

/// A `HashSet` hashed by [`FastHasher`]; build it with `default()`.
pub type FastSet<T> = HashSet<T, FastState>;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    /// Little-endian words, the last one zero-padded.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("an 8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The state with its upper quarters xor-folded into the low 16 bits.
    #[inline]
    fn finish(&self) -> u64 {
        let h = self.state ^ (self.state >> 32);
        h ^ (h >> 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// 1024 keys over 1024 buckets (the low bits, what hashbrown indexes
    /// with): a uniform hash reaches about 63 % of them, a multiplicative
    /// one less on some strides; a quarter is the floor. The keys also
    /// reach at least half of the 128 tags (the top seven bits).
    fn assert_spreads<T: std::hash::Hash>(what: &str, keys: impl IntoIterator<Item = T>) {
        let (mut buckets, mut tags) = (FastSet::default(), FastSet::default());
        for key in keys {
            let h = FastState::default().hash_one(key);
            buckets.insert(h & 1023);
            tags.insert(h >> 57);
        }
        assert!(buckets.len() >= 256, "{what}: {} of 1024 buckets", buckets.len());
        assert!(tags.len() >= 64, "{what}: {} of 128 tags", tags.len());
    }

    #[test]
    fn multiples_of_a_power_of_two_spread_over_the_low_bits() {
        for k in 0..=48 {
            assert_spreads(&format!("multiples of 2^{k}"), (1..=1024u64).map(|i| i << k));
        }
    }

    #[test]
    fn sequential_request_ids_spread_over_the_low_bits() {
        assert_spreads("request ids", 1..=1024u64);
        assert_spreads("node indices", 0..1024usize);
        assert_spreads(
            "(client, req_id) pairs",
            (0..32usize).flat_map(|c| (1..=32u64).map(move |r| (c, r))),
        );
    }

    #[test]
    fn id_sequences_spread_over_the_low_bits() {
        let views: Vec<Vec<u32>> =
            (0..1024u32).map(|n| (0..1 + n % 8).map(|i| n / 8 + i).collect()).collect();
        assert_spreads("id sequences", views.iter().map(Vec::as_slice));
    }

    #[test]
    fn a_map_filled_twice_in_one_order_iterates_in_one_order() {
        let fill = || {
            let mut map = FastMap::default();
            for i in 0..500u64 {
                map.insert(i.wrapping_mul(0x9e37_79b9), i);
            }
            map.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(fill(), fill());
    }

    #[test]
    fn bytes_hash_by_little_endian_words() {
        let hash = |bytes: &[u8]| {
            let mut h = FastHasher::default();
            h.write(bytes);
            h.finish()
        };
        let mut words = FastHasher::default();
        words.write_u64(u64::from_le_bytes(*b"abcdefgh"));
        words.write_u64(u64::from_le_bytes(*b"ij\0\0\0\0\0\0"));
        assert_eq!(hash(b"abcdefghij"), words.finish());
        assert_ne!(hash(b"abcdefghij"), hash(b"abcdefghik"));
    }
}
