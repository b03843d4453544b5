//! A fast, non-cryptographic hasher for the serving hot path.
//!
//! `std`'s default `SipHash` is keyed and DoS-resistant but costs tens of
//! nanoseconds per small key — measurable when every request does a
//! [`CacheKey`](crate::CacheKey) and `(target, mode)` slot lookup. The
//! serve cache's keys are derived from backend labels and stable FNV-1a
//! digests the *server* computes, never from attacker-controlled bytes,
//! so the rustc-style multiply-rotate "Fx" construction is safe here and
//! roughly an order of magnitude cheaper on short keys (minim uses the
//! same hasher, via `rustc_hash`, for its event entities).
//!
//! Std-only: the workspace takes no `rustc-hash` dependency.

use std::hash::{BuildHasherDefault, Hasher};

/// Golden-ratio-derived odd multiplier (2^64 / phi), the same constant
/// the rustc hasher family uses.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiply-rotate hasher over 8-byte lanes. Not keyed, not
/// collision-resistant against adversaries — see the module docs for why
/// that is acceptable for cache-internal keys.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "ab\0" and "ab" cannot collide by
            // zero-padding alone.
            tail[7] = rest.len() as u8;
            self.mix(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.mix(n as u64);
        self.mix((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` plugging [`FxHasher`] into `HashMap`.
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the fast hasher.
pub(crate) type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_hashers() {
        assert_eq!(hash_of(&"sim:dl585-g7"), hash_of(&"sim:dl585-g7"));
        assert_eq!(hash_of(&(7u16, 42u64)), hash_of(&(7u16, 42u64)));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        assert_ne!(hash_of(&"sim:dl585-g7"), hash_of(&"sim:dl585-g8"));
        assert_ne!(hash_of(&0u64), hash_of(&1u64));
        // Length folding: zero-padded tails of different lengths differ.
        assert_ne!(hash_of(&[0u8, 0][..]), hash_of(&[0u8, 0, 0][..]));
    }

    #[test]
    fn works_as_a_map_hasher() {
        let mut m: FxHashMap<(u16, u8), u32> = FxHashMap::default();
        for t in 0..8u16 {
            for mode in 0..2u8 {
                m.insert((t, mode), u32::from(t) * 2 + u32::from(mode));
            }
        }
        assert_eq!(m.len(), 16);
        assert_eq!(m[&(7, 1)], 15);
    }
}
