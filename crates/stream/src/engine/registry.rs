//! Key hashing, per-key seed derivation, and the slab key registry.
//!
//! The registry is the engine's `key → slot` side, deliberately separated
//! from sampler storage: an open-addressing index table of `tag | slot`
//! words over a dense first-touch-ordered key slab. Slot ids are handed
//! to the per-key store ([`super::erased::ErasedStore`]), which keeps
//! each key's sampler at the same index — so the probe loop never
//! depends on how samplers are laid out.

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// FxHash: multiply-rotate hashing as used by rustc. Not cryptographic —
/// exactly what a shard selector wants.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    state: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

/// `BuildHasher` for [`FxHasher`], usable as a `HashMap` hasher.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

#[inline]
pub(crate) fn fx_hash_key<K: Hash>(key: &K) -> u64 {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// SplitMix64 finalizer: decorrelates the per-key seed from the raw key
/// hash so adjacent keys do not get adjacent RNG streams.
#[inline]
pub(crate) fn mix_seed(template_seed: u64, key_hash: u64) -> u64 {
    let mut z = template_seed ^ key_hash.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Empty-bucket sentinel in the open-addressing index table. A real
/// bucket word is `tag | slot` with `slot < u32::MAX`, so all-ones can
/// never collide with one.
const EMPTY: u64 = u64::MAX;

/// High half of a bucket word: the key hash's top 32 bits. Probes
/// compare tags in-register and only touch a key-slab entry on a tag
/// match, so collision probes stay inside the (dense, cache-resident)
/// table.
const TAG_MASK: u64 = 0xffff_ffff_0000_0000;

/// Low half of a bucket word: the slab slot id.
pub(crate) const SLOT_MASK: u64 = 0x0000_0000_ffff_ffff;

/// One shard's `key → u32` side: an open-addressing index table (linear
/// probing, power-of-two capacity, load factor ≤ ½) over a contiguous
/// key slab in first-touch order. The key's hash is *not* cached: the
/// bucket word's 32-bit tag already filters non-matches down to 2⁻³²
/// noise, so key equality is checked directly, and the rare rehash
/// recomputes hashes from the keys.
#[derive(Debug)]
pub(crate) struct KeyRegistry<K> {
    /// `tag | slot` words ([`EMPTY`] = vacant).
    buckets: Vec<u64>,
    /// The key slab: slot id = index.
    keys: Vec<K>,
}

impl<K> KeyRegistry<K> {
    pub(crate) fn new() -> Self {
        Self {
            buckets: vec![EMPTY; 8],
            keys: Vec::new(),
        }
    }

    /// Number of materialized keys.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// The keys, slot-ordered (= first-touch order).
    pub(crate) fn keys(&self) -> &[K] {
        &self.keys
    }

    /// Index-table + key-slab bookkeeping in words (8 bytes): the tagged
    /// bucket words plus each slab key. Per-key *store* scaffolding (box
    /// pointers) is accounted by the store itself.
    pub(crate) fn overhead_words(&self) -> usize {
        let key_words = std::mem::size_of::<K>().div_ceil(8);
        self.buckets.len() + self.keys.len() * key_words
    }
}

impl<K: Hash + Eq + Clone> KeyRegistry<K> {
    /// Branchless single-bucket read for the staged batch probe: the
    /// bucket word `hash` homes to, regardless of occupancy.
    #[inline]
    pub(crate) fn home_bucket(&self, hash: u64) -> u64 {
        self.buckets[hash as usize & (self.buckets.len() - 1)]
    }

    /// Probe for `key` without materializing.
    pub(crate) fn find(&self, hash: u64, key: &K) -> Option<usize> {
        let mask = self.buckets.len() - 1;
        let tag = hash & TAG_MASK;
        let mut i = hash as usize & mask;
        loop {
            let b = self.buckets[i];
            if b == EMPTY {
                return None;
            }
            if b & TAG_MASK == tag && self.keys[(b & SLOT_MASK) as usize] == *key {
                return Some((b & SLOT_MASK) as usize);
            }
            i = (i + 1) & mask;
        }
    }

    /// Probe for `key`, appending a fresh slot on first touch. Returns
    /// `(slot id, is_new)`; on `is_new` the caller must push matching
    /// per-key sampler state into its store so slot ids stay aligned.
    pub(crate) fn get_or_insert(&mut self, hash: u64, key: &K) -> (usize, bool) {
        let mask = self.buckets.len() - 1;
        let tag = hash & TAG_MASK;
        let mut i = hash as usize & mask;
        loop {
            let b = self.buckets[i];
            if b == EMPTY {
                let id = self.keys.len();
                assert!(id < SLOT_MASK as usize, "shard exceeds u32 slot ids");
                self.keys.push(key.clone());
                // Keep load factor ≤ ½ so probe chains stay short.
                if (id + 1) * 2 > self.buckets.len() {
                    self.grow(); // re-homes every slot, the new one included
                } else {
                    self.buckets[i] = tag | id as u64;
                }
                return (id, true);
            }
            if b & TAG_MASK == tag && self.keys[(b & SLOT_MASK) as usize] == *key {
                return ((b & SLOT_MASK) as usize, false);
            }
            i = (i + 1) & mask;
        }
    }

    /// Double the index table and re-home every slot, recomputing each
    /// key's hash (the slab itself never moves entries; doublings are
    /// O(log keys) events, so the rehash cost is amortized noise).
    fn grow(&mut self) {
        let cap = (self.buckets.len() * 2).max(16);
        self.buckets.clear();
        self.buckets.resize(cap, EMPTY);
        let mask = cap - 1;
        for (id, key) in self.keys.iter().enumerate() {
            let hash = fx_hash_key(key);
            let mut i = hash as usize & mask;
            while self.buckets[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.buckets[i] = (hash & TAG_MASK) | id as u64;
        }
    }
}
