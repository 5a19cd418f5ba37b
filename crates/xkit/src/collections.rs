//! Fast hashing for hot, never-iterated maps.
//!
//! `std`'s default `HashMap` hasher (SipHash-1-3) is keyed and
//! HashDoS-resistant, which the simulator's internal maps do not need:
//! their keys are small integers derived from trusted, deterministic
//! state. [`FastMap`] swaps in a Fowler–Noll–Vo-flavoured
//! multiply-rotate hasher (the `FxHasher` scheme used by rustc) that
//! hashes a `u32`/`u64` key in a couple of cycles.
//!
//! **Determinism caveat:** changing the hasher changes bucket order, so
//! a `FastMap` must never be *iterated* on any path that feeds output —
//! use it only for `get`/`get_mut`/`insert`/`remove` by key. Maps whose
//! iteration order reaches logs, metrics, or pcap bytes must stay on
//! `BTreeMap` or sort their keys first.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with the [`FxHasher`] — for key-addressed hot maps only
/// (see the module docs for the no-iteration rule).
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc `FxHash` function: a word-at-a-time multiply-rotate mix.
/// Not keyed, not DoS-resistant — strictly for trusted internal keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Word-at-a-time over the tail-padded chunks; the integer fast
        // paths below cover every hot key, so this is the cold road.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(tail));
        }
        // Mix the length so zero-padding cannot make `b""` and `b"\0"`
        // (or any zero-extended pair) collide.
        self.add_to_hash(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    /// The product's high bits are its well-mixed ones, and the table
    /// takes its bucket index from the low bits: rotate them down (as
    /// rustc-hash 2 does), or a key's high half never reaches the index.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        for k in 0..10_000u64 {
            m.insert(k.wrapping_mul(0x9e37_79b9_7f4a_7c15), k as u32);
        }
        for k in 0..10_000u64 {
            assert_eq!(m.get(&k.wrapping_mul(0x9e37_79b9_7f4a_7c15)), Some(&(k as u32)));
        }
        assert_eq!(m.len(), 10_000);
    }

    #[test]
    fn set_round_trips() {
        let mut s: std::collections::HashSet<u32, BuildHasherDefault<FxHasher>> = Default::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert!(s.contains(&7));
        assert!(!s.contains(&8));
    }

    #[test]
    fn hash_is_deterministic_across_instances() {
        let h = |n: u64| {
            let mut hx = FxHasher::default();
            hx.write_u64(n);
            hx.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
    }

    /// Keys packed as `high << 32 | low` (a client and an address or a
    /// name id) must spread over the low bits a table of 2^17 buckets
    /// indexes by: 1 024 highs × 64 lows reach at least a quarter of
    /// the buckets (the raw product reaches 64, one per low value).
    #[test]
    fn the_high_half_of_a_packed_key_reaches_the_bucket_index() {
        let mask = (1u64 << 17) - 1;
        let mut seen = std::collections::BTreeSet::new();
        for c in 0..1_024u64 {
            for k in 0..64u64 {
                let mut hx = FxHasher::default();
                hx.write_u64(c << 32 | k);
                seen.insert(hx.finish() & mask);
            }
        }
        assert!(seen.len() >= 16_384, "{} distinct bucket indices", seen.len());
    }

    #[test]
    fn byte_stream_matches_padding_rule() {
        // write() must consume any length without panicking and spread
        // single-bit differences.
        let h = |b: &[u8]| {
            let mut hx = FxHasher::default();
            hx.write(b);
            hx.finish()
        };
        assert_ne!(h(b"abcdefgh1"), h(b"abcdefgh2"));
        assert_ne!(h(b""), h(b"\0"));
    }
}
