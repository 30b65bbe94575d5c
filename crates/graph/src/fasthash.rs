//! A fast, non-cryptographic hasher for the matcher's hot maps.
//!
//! The containment memo hashes a `GraphId` per `(pattern, graph)` probe —
//! thousands of times per maintenance batch. SipHash's DoS
//! resistance buys nothing there (keys are canonical codes and graph ids
//! produced by this workspace, not attacker input), so these maps use an
//! Fx-style multiply-rotate hash: a few cycles per word instead of a few
//! dozen per byte.

use std::hash::{BuildHasher, Hasher};

/// Multiplier from the golden-ratio family (the same constant the rustc
/// hash tables use); spreads low-entropy inputs across the high bits.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Word-at-a-time multiply-rotate hasher. Not collision-resistant against
/// adversarial keys — do not use for externally controlled input.
#[derive(Default)]
pub struct FxHasher {
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
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "ab" and "ab\0" diverge.
            self.add(u64::from_le_bytes(tail) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]; plugs into `HashMap` as the third type
/// parameter.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// A `HashMap` using the fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn distinct_keys_hash_differently() {
        // Not a collision-resistance claim — just a sanity check that the
        // word folding isn't degenerate on typical key shapes.
        let a = hash_of(&42u64);
        let b = hash_of(&43u64);
        assert_ne!(a, b);
        let s1 = hash_of(&b"ab".to_vec());
        let s2 = hash_of(&b"ab\0".to_vec());
        assert_ne!(s1, s2);
    }

    #[test]
    fn hashing_is_deterministic() {
        let key: Vec<u8> = (0..37).collect();
        assert_eq!(hash_of(&key), hash_of(&key));
    }

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<Vec<u8>, u32> = FxHashMap::default();
        for i in 0..100u32 {
            m.insert(vec![i as u8, (i * 7) as u8], i);
        }
        for i in 0..100u32 {
            assert_eq!(m.get(&vec![i as u8, (i * 7) as u8]), Some(&i));
        }
    }
}
