//! A small unkeyed hasher for the engine's integer-keyed maps.
//!
//! The DNA word lookup hashes packed words millions of times per work
//! unit. Std's default SipHash is keyed to resist inputs crafted to
//! collide; these keys are integers the engine derives itself, never
//! caller-chosen strings, so that protection buys nothing here. This is the FxHash rotate-xor-multiply
//! step: one rotate, xor and multiply per machine word, plus one final
//! rotate (as in rustc-hash 2) so the well-mixed middle bits of the product
//! land in the low bits `HashMap` picks its bucket with; a bare multiply
//! keeps the input's trailing zeros there.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier of the FxHash family (the Firefox/rustc constant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style hasher state.
#[derive(Default, Clone, Copy)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// A `HashMap` on [`FxHasher`], for engine-internal integer keys only.
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(v: impl Hash) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn unkeyed_and_deterministic() {
        assert_eq!(hash_of((3u32, -7i64)), hash_of((3u32, -7i64)));
        assert_ne!(hash_of((3u32, -7i64)), hash_of((3u32, 7i64)));
        assert_ne!(hash_of((3u32, 0i64)), hash_of((4u32, 0i64)));
        // Byte writes fold whole words, zero-padding the tail.
        let mut h = FxHasher::default();
        h.write(&[1, 2, 3]);
        let mut g = FxHasher::default();
        g.write_u64(0x03_02_01);
        assert_eq!(h.finish(), g.finish());
    }

    #[test]
    fn keys_with_trailing_zeros_spread_over_buckets() {
        // Keys with shared trailing zero bits must still spread over the
        // low bits that index buckets: without the final rotate these 1024
        // keys land in 256 of 1024 buckets, a random function fills ~647.
        let buckets: std::collections::HashSet<u64> =
            (0..1024u64).map(|w| hash_of(w << 2) & 1023).collect();
        assert!(buckets.len() > 512, "only {} distinct buckets", buckets.len());
    }
}
