//! A fast hasher for integer ids, and the [`IdMap`] / [`IdSet`] aliases the
//! store and the join algorithms key by [`PointId`] or block id.
//!
//! `std`'s default SipHash is built for arbitrary byte strings; hashing one
//! `u64` with it costs more than the table probe it feeds. Every id-keyed
//! map on the write path (a shard's id → block map, batch routing, the
//! tombstoned-block map) hashes nothing but single integers, so they use
//! [`IdHasher`]: one folded multiply per key (multiply by an odd constant,
//! then xor the high half of the 128-bit product into the low half, so the
//! bucket bits depend on every input bit).
//!
//! The multiplicand is xored with a seed drawn once per process from
//! [`RandomState`], so ids chosen by a caller cannot be precomputed to land
//! in one bucket.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

use crate::PointId;

/// An odd 64-bit constant (⌊2⁶⁴/φ⌋) with well-spread bits.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// The per-process seed, drawn from `std`'s randomly keyed SipHash.
fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let mut h = RandomState::new().build_hasher();
        h.write_u64(MULTIPLIER);
        h.finish()
    })
}

/// Multiplies as 128 bits and folds the high half into the low half.
#[inline]
fn folded_multiply(x: u64, y: u64) -> u64 {
    let full = u128::from(x) * u128::from(y);
    (full as u64) ^ ((full >> 64) as u64)
}

/// A [`Hasher`] for integer keys. Each integer written is folded into the
/// state with one seeded multiply; byte slices (non-integer keys) are read
/// as little-endian 8-byte words.
#[derive(Debug, Clone, Copy)]
pub struct IdHasher {
    state: u64,
}

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.state = folded_multiply(self.state ^ n, MULTIPLIER);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// Builds [`IdHasher`]s starting from the per-process seed.
#[derive(Debug, Clone, Copy)]
pub struct IdBuildHasher {
    seed: u64,
}

impl Default for IdBuildHasher {
    fn default() -> Self {
        Self {
            seed: process_seed(),
        }
    }
}

impl BuildHasher for IdBuildHasher {
    type Hasher = IdHasher;

    #[inline]
    fn build_hasher(&self) -> IdHasher {
        IdHasher { state: self.seed }
    }
}

/// A `HashMap` keyed by an integer id (a [`PointId`] unless `K` says
/// otherwise), hashed with [`IdHasher`].
pub type IdMap<V, K = PointId> = HashMap<K, V, IdBuildHasher>;

/// A `HashSet` of integer ids (a [`PointId`] unless `K` says otherwise),
/// hashed with [`IdHasher`].
pub type IdSet<K = PointId> = HashSet<K, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(build: &IdBuildHasher, id: u64) -> u64 {
        build.hash_one(id)
    }

    #[test]
    fn equal_ids_hash_equal_and_the_seed_is_per_process() {
        let a = IdBuildHasher::default();
        let b = IdBuildHasher::default();
        for id in [0u64, 1, 42, u64::MAX] {
            assert_eq!(hash_of(&a, id), hash_of(&b, id));
        }
        assert_eq!(a.seed, process_seed());
    }

    #[test]
    fn structured_ids_spread_over_the_low_bits() {
        // Sequential ids, ids differing only in high bits, and strided ids
        // must all fill a 1024-bucket table's low bits without piling up.
        let build = IdBuildHasher::default();
        let patterns: [&dyn Fn(u64) -> u64; 3] = [&|i| i, &|i| i << 40, &|i| i * 4096];
        for pattern in patterns {
            let mut buckets = vec![0u32; 1024];
            for i in 0..8192u64 {
                buckets[(hash_of(&build, pattern(i)) & 1023) as usize] += 1;
            }
            let max = *buckets.iter().max().unwrap();
            assert!(max <= 32, "a bucket took {max} of 8192 ids (mean 8)");
        }
    }

    #[test]
    fn maps_and_sets_behave_like_std() {
        let mut m: IdMap<&str> = IdMap::with_capacity_and_hasher(4, Default::default());
        m.insert(7, "seven");
        m.insert(1 << 50, "big");
        assert_eq!(m.get(&7), Some(&"seven"));
        assert_eq!(m.get(&(1 << 50)), Some(&"big"));
        assert_eq!(m.get(&8), None);
        let mut blocks: IdSet<u32> = IdSet::default();
        assert!(blocks.insert(3));
        assert!(!blocks.insert(3));
        let mut h = IdBuildHasher::default().build_hasher();
        h.write(b"not an integer key");
        assert_ne!(h.finish(), IdBuildHasher::default().build_hasher().finish());
    }
}
