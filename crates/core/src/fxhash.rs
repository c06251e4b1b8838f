//! A fast, non-cryptographic hasher for the serving loop's memo tables.
//!
//! The step/prefill memo and the snapshot's footprint estimates are keyed
//! by a few machine words and probed on nearly every serving step; the
//! standard library's DoS-resistant SipHash costs more than the rest of a
//! memo hit. This is the multiply-rotate word hash of the Firefox/rustc
//! `FxHasher`: deterministic (no random seed) and good enough for keys
//! the simulator itself derives. No map using it may be iterated where
//! the order could reach a result.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The Fx word hasher: each word is folded in as
/// `(h.rotl(5) ^ word) * K`.
#[derive(Debug, Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
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
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash>(v: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn hashes_are_deterministic_and_spread_sequential_ids() {
        assert_eq!(fx(&42u64), fx(&42u64));
        assert_eq!(fx(&(3u64, 4u64)), fx(&(3u64, 4u64)));
        assert_ne!(fx(&(3u64, 4u64)), fx(&(4u64, 3u64)));
        // Sequential request ids land in distinct low-bit buckets (the
        // multiplier is odd, so the map from id to hash is a bijection).
        let mut low: Vec<u64> = (0..1024u64).map(|i| fx(&i) & 1023).collect();
        low.sort_unstable();
        low.dedup();
        assert_eq!(low.len(), 1024);
    }

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..10_000u64 {
            m.insert(i * 7919, i);
        }
        assert!((0..10_000u64).all(|i| m.get(&(i * 7919)) == Some(&i)));
        assert_eq!(m.remove(&7919), Some(1));
        assert_eq!(m.len(), 9_999);
    }
}
