//! The one hash map and hash set type of the engine and the protocols.
//!
//! Every table in the simulator is keyed by small integers or short
//! strings it made itself: host and channel numbers, sequence numbers,
//! protocol ids, instance names. std's default SipHash defends against
//! adversarial keys at a cost paid on every demux lookup; nothing here
//! needs that defence, so [`Map`] and [`Set`] use [`IntHasher`], a
//! multiply-rotate hasher in the style of rustc's `FxHasher`.
//!
//! Switching the hasher cannot change a simulated result. std's
//! `RandomState` already gave each process (and each map) its own
//! iteration order, so anything observable that iterates a map must
//! already have been order-independent (sorted, summed, or copied into
//! another map).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A hash map over [`IntHasher`]. Build with `Map::default()`.
pub type Map<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A hash set over [`IntHasher`]. Build with `Set::default()`.
pub type Set<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

/// The multiplier: an odd 64-bit constant with well-spread bits, so the
/// product carries every input bit into the high bits hashbrown's control
/// bytes are taken from.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// A multiply-rotate hasher: each word is folded in as
/// `hash = (hash.rotate_left(5) ^ word) * K`, and the result is rotated so
/// that the well-mixed high bits also reach the low bits hashbrown indexes
/// buckets with.
#[derive(Clone, Copy, Default, Debug)]
pub struct IntHasher {
    hash: u64,
}

impl IntHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word) ^ ((rest.len() as u64) << 59));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
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
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash_of<T: std::hash::Hash>(v: T) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(v)
    }

    #[test]
    fn hashing_is_deterministic_and_separates_small_keys() {
        assert_eq!(hash_of(7u32), hash_of(7u32));
        let hashes: Set<u64> = (0u32..4096).map(hash_of).collect();
        assert_eq!(hashes.len(), 4096, "small integers never collide");
        assert_ne!(hash_of((1u32, 2u16)), hash_of((2u32, 1u16)));
        assert_ne!(hash_of("select"), hash_of("selec"));
        assert_ne!(hash_of(""), hash_of("\0"));
    }

    #[test]
    fn map_and_set_behave_like_std() {
        let mut m: Map<String, usize> = Map::default();
        for (i, name) in ["eth", "ip", "vip", "fragment", "channel"]
            .iter()
            .enumerate()
        {
            m.insert(name.to_string(), i);
        }
        assert_eq!(m.get("vip"), Some(&2));
        assert_eq!(m.get("tcp"), None);
        let mut s: Set<(u32, u32)> = Set::default();
        assert!(s.insert((1, 2)));
        assert!(!s.insert((1, 2)));
        assert!(s.contains(&(1, 2)));
    }
}
