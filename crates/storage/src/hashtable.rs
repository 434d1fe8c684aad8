//! The one dense-id index of the workspace: [`GroupIndex`], an
//! open-addressing table that numbers keys densely, `0..n` in first-seen
//! order. Keys live once, in id order, in one flat array; the slot array
//! holds only ids (4 bytes each), at most half full. An index allocates
//! two arrays whatever its key count: no heap node per key.
//!
//! Every "number these keys" of the engine is this index, and its callers
//! differ only by key type:
//!
//! * the column store's **dictionary** (`Box<str>`): a value's code is its
//!   id, and `&str` lookups probe the owned keys (see [`crate::ColumnStore`]);
//! * the SQL executor's **keyed phase** — GROUP BY, and the hash join that
//!   numbers its build keys and looks its probe keys up with
//!   [`GroupIndex::get_hashed`] — over 1–2 `u32` columns packed into a
//!   `u64` or 3–4 packed into a `u128`;
//! * the executor's **interned key tuples** (`Vec<SqlValue>`), the row
//!   store's distinct-count string ids (`&str`), and result text
//!   dictionaries (`Arc<str>`, and store codes as `u32`).
//!
//! [`DenseKey`] gives each key type its 64-bit hash. The packed keys stay
//! `Copy` and monomorphized, hashed a [`PROBE_BLOCK`] at a time by
//! [`DenseKey::hash_block`] ([`mix64`]/[`mix128`] per key). A borrowed
//! form hashes as its owner does — `Box`, `Arc` and `&` forward to the
//! pointee — so a `&str` finds its `Box<str>`. Hash bits are
//! split by convention: the **low** bits select a radix partition (see
//! [`crate::radix`]), bits 32 and up select the slot, so partitioning and
//! slot choice stay independent for tables up to 2³² slots.
//!
//! The unit tests below, `tests/join_group_parity.rs` and
//! `tests/simd_parity.rs` pin grouping, the id-keyed join and string keys
//! to map-based references that share no code with the index.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use blend_common::hash::hash_str;
use blend_common::{mix128, mix64, FxHasher};

/// A key [`GroupIndex`] numbers: comparable, and hashable to 64 bits
/// without `Hasher` state.
pub trait DenseKey: Eq {
    /// Mix the key to 64 well-distributed bits. Low bits select the radix
    /// partition, bits 32.. select the slot — both sides of that split
    /// must be uniform.
    fn hash64(&self) -> u64;

    /// Hash a block of keys into `out` (`out.len() == keys.len()`), one
    /// [`hash64`](DenseKey::hash64) per key: the one hash source of the
    /// executor's join probe and group upsert loops.
    fn hash_block(keys: &[Self], out: &mut [u64])
    where
        Self: Sized,
    {
        debug_assert_eq!(keys.len(), out.len());
        for (o, k) in out.iter_mut().zip(keys) {
            *o = k.hash64();
        }
    }
}

impl DenseKey for u32 {
    #[inline]
    fn hash64(&self) -> u64 {
        mix64(*self as u64)
    }
}

impl DenseKey for u64 {
    #[inline]
    fn hash64(&self) -> u64 {
        mix64(*self)
    }
}

impl DenseKey for u128 {
    #[inline]
    fn hash64(&self) -> u64 {
        mix128(*self)
    }
}

/// The Fx hash of the bytes, mixed: `FxHasher::finish` returns the raw
/// state, whose bits 32.. alone would pick the slot.
impl DenseKey for str {
    #[inline]
    fn hash64(&self) -> u64 {
        mix64(hash_str(self))
    }
}

/// Key tuples, hashed through their `Hash` impl (which agrees with `Eq`).
impl<T: Hash + Eq> DenseKey for Vec<T> {
    fn hash64(&self) -> u64 {
        let mut h = FxHasher::default();
        self.hash(&mut h);
        mix64(h.finish())
    }
}

impl<T: DenseKey + ?Sized> DenseKey for &T {
    #[inline]
    fn hash64(&self) -> u64 {
        (**self).hash64()
    }
}

impl<T: DenseKey + ?Sized> DenseKey for Box<T> {
    #[inline]
    fn hash64(&self) -> u64 {
        (**self).hash64()
    }
}

impl<T: DenseKey + ?Sized> DenseKey for Arc<T> {
    #[inline]
    fn hash64(&self) -> u64 {
        (**self).hash64()
    }
}

/// Slot a hash's probe sequence starts at: bits 32.. so the low bits stay
/// free for radix partition selection.
#[inline]
fn slot_of(hash: u64, mask: usize) -> usize {
    (hash >> 32) as usize & mask
}

/// Slot-array length that holds `keys` keys at most half full: `(2 ·
/// keys)↑2`, the next power of two at or above twice the keys, at least 2.
fn slots_for(keys: usize) -> usize {
    keys.saturating_mul(2).next_power_of_two().max(2)
}

/// Keys per batched probe/upsert block: hashes land in one stack buffer,
/// and the block's slots are prefetched before the first key walks its
/// probe sequence. Sized so a block of independent accesses outlasts a
/// last-level-cache miss while the per-block stack buffer stays within a
/// few cache lines' worth of stack.
pub const PROBE_BLOCK: usize = 64;

/// Slot sentinel: no key occupies this slot.
const EMPTY: u32 = u32::MAX;

/// Open-addressing index from keys to dense ids.
///
/// Ids are assigned in first-seen order, so id order *is* the sequential
/// group output order and per-id state can live in flat vectors indexed by
/// id. Linear probing over a power-of-two slot array that a new key doubles
/// once it would be more than half full, so an index of `d` keys grown from
/// [`with_capacity(0)`](GroupIndex::with_capacity) holds `(2d)↑2` slots.
#[derive(Debug, Clone)]
pub struct GroupIndex<K> {
    /// Slot array: [`EMPTY`] or a dense id.
    slots: Vec<u32>,
    /// Dense key storage: `keys[id]` is the key of id `id`.
    keys: Vec<K>,
    mask: usize,
    /// Longest probe sequence seen (telemetry: the open-addressing
    /// equivalent of max chain length).
    max_probe: usize,
}

impl<K: DenseKey> GroupIndex<K> {
    /// Index pre-sized for an expected key count, which it holds without
    /// growing. Fails typed (`BlendError::MemoryExceeded`) if the slot/key
    /// arrays cannot be allocated.
    pub fn with_capacity(keys: usize) -> blend_common::Result<Self> {
        let slots_len = slots_for(keys);
        let mut slots = blend_common::try_vec_with_capacity::<u32>(slots_len, "group_slots")?;
        slots.resize(slots_len, EMPTY);
        Ok(GroupIndex {
            slots,
            keys: blend_common::try_vec_with_capacity::<K>(keys, "group_keys")?,
            mask: slots_len - 1,
            max_probe: 0,
        })
    }

    /// Resident bytes an index sized for `keys` keys holds (slot array +
    /// dense key storage) — the costing primitive the executor's
    /// group-state reservations use.
    pub fn estimate_bytes(keys: usize) -> usize {
        slots_for(keys) * 4 + keys * std::mem::size_of::<K>()
    }

    /// The dense id of `key`, inserting it (id = current
    /// [`len`](GroupIndex::len)) on first sight.
    #[inline]
    pub fn insert_or_get(&mut self, key: K) -> blend_common::Result<u32> {
        let hash = key.hash64();
        self.insert_or_get_hashed(key, hash)
    }

    /// [`insert_or_get`](GroupIndex::insert_or_get) with the key's hash
    /// precomputed (the radix path already hashed it to pick partitions).
    /// The only fallible step is growth — lookups of existing keys and
    /// inserts below the load-factor threshold never allocate.
    #[inline]
    pub fn insert_or_get_hashed(&mut self, key: K, hash: u64) -> blend_common::Result<u32> {
        let mut slot = slot_of(hash, self.mask);
        let mut probe = 1usize;
        loop {
            let id = self.slots[slot];
            if id == EMPTY {
                break;
            }
            if self.keys[id as usize] == key {
                return Ok(id);
            }
            slot = (slot + 1) & self.mask;
            probe += 1;
        }
        let id = self.keys.len() as u32;
        if self.keys.len() == self.keys.capacity() {
            let extra = self.keys.capacity().max(16);
            blend_common::try_reserve(&mut self.keys, extra, "group_keys")?;
        }
        if (self.keys.len() + 1) * 2 > self.slots.len() {
            self.grow()?;
            self.place(hash, id);
        } else {
            self.slots[slot] = id;
            self.max_probe = self.max_probe.max(probe);
        }
        self.keys.push(key);
        Ok(id)
    }

    /// The dense id of `key`, or `None` where no insert saw it.
    #[inline]
    pub fn get<Q: DenseKey + ?Sized>(&self, key: &Q) -> Option<u32>
    where
        K: Borrow<Q>,
    {
        self.get_hashed(key, key.hash64())
    }

    /// [`get`](GroupIndex::get) with the key's hash precomputed — the probe
    /// side of a join, which looks its keys up a [`PROBE_BLOCK`] at a time
    /// and never inserts.
    #[inline]
    pub fn get_hashed<Q: Eq + ?Sized>(&self, key: &Q, hash: u64) -> Option<u32>
    where
        K: Borrow<Q>,
    {
        let mut slot = slot_of(hash, self.mask);
        loop {
            let id = self.slots[slot];
            if id == EMPTY {
                return None;
            }
            if self.keys[id as usize].borrow() == key {
                return Some(id);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Put `id` in the first empty slot of `hash`'s probe sequence.
    fn place(&mut self, hash: u64, id: u32) {
        let mut slot = slot_of(hash, self.mask);
        let mut probe = 1usize;
        while self.slots[slot] != EMPTY {
            slot = (slot + 1) & self.mask;
            probe += 1;
        }
        self.slots[slot] = id;
        self.max_probe = self.max_probe.max(probe);
    }

    /// Double the slot array and re-scatter the dense ids. The doubled
    /// array is allocated fallibly *before* the old one is released, so a
    /// failed grow leaves the index intact (the caller's ids survive and
    /// the error propagates typed).
    fn grow(&mut self) -> blend_common::Result<()> {
        let new_len = self.slots.len() * 2;
        let mut slots = blend_common::try_vec_with_capacity::<u32>(new_len, "group_slots")?;
        slots.resize(new_len, EMPTY);
        self.mask = new_len - 1;
        self.slots = slots;
        for id in 0..self.keys.len() {
            let hash = self.keys[id].hash64();
            self.place(hash, id as u32);
        }
        Ok(())
    }

    /// Release the key array's growth slack, so it holds exactly
    /// [`len`](GroupIndex::len) keys; the slot array keeps its size.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.keys.shrink_to_fit();
    }

    /// Resident bytes of the slot array and key storage now — what
    /// [`estimate_bytes`](GroupIndex::estimate_bytes) priced at creation,
    /// until an insert grows the index. Heap a key owns is not counted.
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * 4 + self.keys.capacity() * std::mem::size_of::<K>()
    }

    /// Best-effort prefetch of the slot this hash's probe sequence starts
    /// at. The executor's grouping pass issues it one [`PROBE_BLOCK`]
    /// ahead of the upserts so slot-array misses overlap the batched
    /// hashing. Worth issuing only once the slot array has outgrown cache;
    /// callers gate on [`slot_count`](GroupIndex::slot_count).
    #[inline]
    pub fn prefetch_slot(&self, hash: u64) {
        blend_simd::prefetch_read(&self.slots, slot_of(hash, self.mask));
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no key has been inserted.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Keys in dense-id (first-seen) order.
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// The keys in dense-id order, the slot array freed.
    pub fn into_keys(self) -> Vec<K> {
        self.keys
    }

    /// Keys the key array holds room for.
    pub(crate) fn key_capacity(&self) -> usize {
        self.keys.capacity()
    }

    /// Slot-array length (the "bucket count" telemetry of the index).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Longest probe sequence any insert walked.
    pub fn max_probe(&self) -> usize {
        self.max_probe
    }
}

/// An empty index of two slots, as [`with_capacity(0)`](GroupIndex::with_capacity).
impl<K> Default for GroupIndex<K> {
    fn default() -> Self {
        let (slots, keys, mask, max_probe) = (vec![EMPTY; 2], Vec::new(), 1, 0);
        GroupIndex {
            slots,
            keys,
            mask,
            max_probe,
        }
    }
}

impl GroupIndex<Box<str>> {
    /// The id of `key`, numbering it on first sight: a probe per call, and
    /// an allocation only where a borrowed key is new.
    pub fn intern(&mut self, key: impl AsRef<str> + Into<Box<str>>) -> u32 {
        let hash = key.as_ref().hash64();
        match self.get_hashed(key.as_ref(), hash) {
            Some(id) => id,
            None => (self.insert_or_get_hashed(key.into(), hash))
                .expect("the dictionary fits in memory"),
        }
    }

    /// [`get`](GroupIndex::get) of each of `keys`, in order, handed to
    /// `each`, a [`PROBE_BLOCK`] at a time: hash every key and prefetch its
    /// slot, read the slots and prefetch their keys, prefetch those keys'
    /// bytes, then compare (walking on past the first slot as `get` does).
    pub fn get_batch(&self, keys: &[&str], mut each: impl FnMut(Option<u32>)) {
        let (mut hashes, mut ids) = ([0u64; PROBE_BLOCK], [EMPTY; PROBE_BLOCK]);
        for block in keys.chunks(PROBE_BLOCK) {
            for (h, key) in hashes.iter_mut().zip(block) {
                *h = key.hash64();
                self.prefetch_slot(*h);
            }
            for (id, &h) in ids.iter_mut().zip(&hashes[..block.len()]) {
                *id = self.slots[slot_of(h, self.mask)];
                blend_simd::prefetch_read(&self.keys, *id as usize);
            }
            for key in ids[..block.len()]
                .iter()
                .filter_map(|&id| self.keys.get(id as usize))
            {
                blend_simd::prefetch_read(key.as_bytes(), 0);
            }
            for ((key, &h), &id) in block.iter().zip(&hashes).zip(&ids) {
                each(match id {
                    EMPTY => None,
                    id if *self.keys[id as usize] == **key => Some(id),
                    _ => self.get_hashed(*key, h),
                });
            }
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::radix::radix_partition;
    use blend_common::FxHashMap;
    use proptest::prelude::*;

    /// Map-based reference implementations the flat operators are pinned to:
    /// per-key `Vec` match lists in ascending build order, dense group ids in
    /// first-seen order.
    mod oracle {
        use blend_common::FxHashMap;
        use std::hash::Hash;

        /// Map-based join: `(probe row, build row)` pairs in probe-row order,
        /// each probe row's matches ascending.
        pub fn join_pairs<K: Copy + Eq + Hash>(build: &[K], probe: &[K]) -> Vec<(u32, u32)> {
            let mut table: FxHashMap<K, Vec<u32>> = FxHashMap::default();
            for (i, &k) in build.iter().enumerate() {
                table.entry(k).or_default().push(i as u32);
            }
            let mut out = Vec::new();
            for (i, &k) in probe.iter().enumerate() {
                if let Some(matches) = table.get(&k) {
                    for &b in matches {
                        out.push((i as u32, b));
                    }
                }
            }
            out
        }

        /// Map-based grouping: `(group id per row, first row per group)` with
        /// ids dense in first-seen order.
        pub fn group_ids<K: Copy + Eq + Hash>(keys: &[K]) -> (Vec<u32>, Vec<u32>) {
            let mut index: FxHashMap<K, u32> = FxHashMap::default();
            let mut first_rows: Vec<u32> = Vec::new();
            let gids = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| {
                    *index.entry(k).or_insert_with(|| {
                        let gid = first_rows.len() as u32;
                        first_rows.push(i as u32);
                        gid
                    })
                })
                .collect();
            (gids, first_rows)
        }
    }

    /// The join the SQL executor runs on packed keys: number the build
    /// keys through a [`GroupIndex`] sized for every key being distinct,
    /// list each id's build rows ascending with [`radix_partition`], then
    /// probe a [`PROBE_BLOCK`] at a time — hash the block
    /// ([`DenseKey::hash_block`]), prefetch its slots, look each key up
    /// with [`get_hashed`](GroupIndex::get_hashed) and walk its id's list.
    fn dense_pairs<K: DenseKey + Copy>(build: &[K], probe: &[K]) -> Vec<(u32, u32)> {
        let mut index: GroupIndex<K> = GroupIndex::with_capacity(build.len()).unwrap();
        let ids: Vec<u32> = (build.iter())
            .map(|&k| index.insert_or_get(k).unwrap())
            .collect();
        let lists = radix_partition(&ids, index.len()).unwrap();
        let mut out = Vec::new();
        let mut hash_buf = [0u64; PROBE_BLOCK];
        for (blk, keys) in probe.chunks(PROBE_BLOCK).enumerate() {
            let hashes = &mut hash_buf[..keys.len()];
            K::hash_block(keys, hashes);
            for &h in hashes.iter() {
                index.prefetch_slot(h);
            }
            for (j, (&key, &hash)) in keys.iter().zip(hashes.iter()).enumerate() {
                for &b in index
                    .get_hashed(&key, hash)
                    .map_or(&[][..], |id| lists.part(id as usize))
                {
                    out.push(((blk * PROBE_BLOCK + j) as u32, b));
                }
            }
        }
        out
    }

    #[test]
    fn dense_join_matches_oracle_u64() {
        let build: Vec<u64> = vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
        let probe: Vec<u64> = vec![5, 5, 7, 1, 3, 0];
        assert_eq!(
            dense_pairs(&build, &probe),
            oracle::join_pairs(&build, &probe)
        );
    }

    #[test]
    fn dense_join_matches_oracle_u128() {
        let build: Vec<u128> = (0..64u128).map(|i| (i % 7) << 96 | (i % 3)).collect();
        let probe: Vec<u128> = (0..32u128).map(|i| (i % 9) << 96 | (i % 3)).collect();
        assert_eq!(
            dense_pairs(&build, &probe),
            oracle::join_pairs(&build, &probe)
        );
    }

    #[test]
    fn empty_build_matches_nothing() {
        let probe: Vec<u64> = vec![42, 0, 42];
        assert!(dense_pairs(&[], &probe).is_empty());
        let index: GroupIndex<u64> = GroupIndex::with_capacity(0).unwrap();
        assert_eq!(index.get_hashed(&42, 42u64.hash64()), None);
        assert_eq!(index.max_probe(), 0);
    }

    #[test]
    fn group_index_matches_oracle_and_first_seen_order() {
        let keys: Vec<u64> = vec![7, 7, 3, 9, 3, 7, 11, 9];
        let (want_gids, want_first) = oracle::group_ids(&keys);
        let mut index: GroupIndex<u64> = GroupIndex::with_capacity(4).unwrap();
        let mut first_rows = Vec::new();
        let gids: Vec<u32> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let before = index.len();
                let gid = index.insert_or_get(k).unwrap();
                if index.len() != before {
                    first_rows.push(i as u32);
                }
                gid
            })
            .collect();
        assert_eq!(gids, want_gids);
        assert_eq!(first_rows, want_first);
        assert_eq!(index.keys(), &[7, 3, 9, 11]);
        assert!(index.max_probe() >= 1);
        // The lookup names the same ids and inserts nothing.
        for (&k, &g) in keys.iter().zip(&gids) {
            assert_eq!(index.get_hashed(&k, k.hash64()), Some(g));
        }
        assert_eq!(index.get_hashed(&8, 8u64.hash64()), None);
        assert_eq!(index.len(), 4);
    }

    #[test]
    fn hash_block_matches_per_key_hash64() {
        let k64: Vec<u64> = (0..100u64).map(|i| i.wrapping_mul(0x9e37)).collect();
        let k128: Vec<u128> = (0..100u128).map(|i| (i << 93) | i).collect();
        let mut h64 = vec![0u64; k64.len()];
        u64::hash_block(&k64, &mut h64);
        assert_eq!(h64, k64.iter().map(|&k| k.hash64()).collect::<Vec<_>>());
        let mut h128 = vec![0u64; k128.len()];
        u128::hash_block(&k128, &mut h128);
        assert_eq!(h128, k128.iter().map(|&k| k.hash64()).collect::<Vec<_>>());
        // Short and empty blocks.
        let mut h3 = vec![0u64; 3];
        u64::hash_block(&k64[..3], &mut h3);
        assert_eq!(h3, k64[..3].iter().map(|&k| k.hash64()).collect::<Vec<_>>());
        u64::hash_block(&[], &mut []);
    }

    #[test]
    fn blocked_probe_matches_oracle() {
        let build: Vec<u64> = (0..500u64).map(|i| i % 91).collect();
        let probe: Vec<u64> = (0..333u64).map(|i| i % 131).collect();
        assert_eq!(
            dense_pairs(&build, &probe),
            oracle::join_pairs(&build, &probe)
        );
    }

    #[test]
    fn blocked_probe_over_a_large_table_matches_oracle() {
        // A build side past the private caches, so the prefetches land on
        // lines that are not resident. Probe keys include misses,
        // multi-match runs, and a non-block-multiple tail.
        let build: Vec<u64> = (0..150_000u64)
            .map(|i| i.wrapping_mul(0x9e37) % 70_001)
            .collect();
        let probe: Vec<u64> = (0..10_037u64)
            .map(|i| i.wrapping_mul(0x85eb) % 90_001)
            .collect();
        assert_eq!(
            dense_pairs(&build, &probe),
            oracle::join_pairs(&build, &probe)
        );
    }

    #[test]
    fn group_index_grows_past_initial_capacity() {
        let mut index: GroupIndex<u128> = GroupIndex::with_capacity(0).unwrap();
        for i in 0..5000u128 {
            assert_eq!(index.insert_or_get(i << 64 | 1).unwrap(), i as u32);
        }
        assert_eq!(index.len(), 5000);
        assert!(index.slot_count().is_power_of_two());
        assert!(index.slot_count() >= 10_000);
        // Lookups after growth still resolve to the original dense ids.
        for i in (0..5000u128).rev() {
            assert_eq!(index.insert_or_get(i << 64 | 1).unwrap(), i as u32);
        }
        assert_eq!(index.len(), 5000);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// String keys against an `FxHashMap` oracle, numbered as the column
        /// store's dictionary numbers them (look up, insert when absent):
        /// first-seen ids, `&str` lookups against the owned `Box<str>`
        /// keys, misses for absent strings, growth from the smallest index
        /// through several doublings, and the end state the dictionary
        /// relies on — `(2d)↑2` slots, and keys at exact capacity once
        /// shrunk.
        #[test]
        fn string_keys_match_a_map_oracle(
            words in proptest::collection::vec(0u32..4000, 0..3000),
            absent in proptest::collection::vec(0u32..4000, 0..50),
        ) {
            let mut index: GroupIndex<Box<str>> = GroupIndex::with_capacity(0).unwrap();
            let mut oracle: FxHashMap<String, u32> = FxHashMap::default();
            let mut first_seen: Vec<String> = Vec::new();
            for w in &words {
                let s = format!("w{w}");
                let next = oracle.len() as u32;
                let want = *oracle.entry(s.clone()).or_insert_with(|| {
                    first_seen.push(s.clone());
                    next
                });
                let got = match index.get(s.as_str()) {
                    Some(id) => id,
                    None => index.insert_or_get(s.into_boxed_str()).unwrap(),
                };
                prop_assert_eq!(got, want);
            }
            let d = oracle.len();
            prop_assert_eq!(index.len(), d);
            let keys: Vec<&str> = index.keys().iter().map(|k| &**k).collect();
            prop_assert_eq!(keys, first_seen.iter().map(String::as_str).collect::<Vec<_>>());
            for (s, &id) in &oracle {
                prop_assert_eq!(index.get(s.as_str()), Some(id));
            }
            for a in &absent {
                let s = format!("x{a}");
                prop_assert_eq!(index.get(s.as_str()), None);
            }
            prop_assert_eq!(index.get(""), None);
            prop_assert_eq!(index.slot_count(), (2 * d).next_power_of_two().max(2));
            index.shrink_to_fit();
            prop_assert_eq!(index.key_capacity(), d);
            prop_assert_eq!(index.heap_bytes(), 4 * index.slot_count() + 16 * d);
            // Shrinking moves no id.
            for (s, &id) in &oracle {
                prop_assert_eq!(index.get(s.as_str()), Some(id));
            }
        }
    }
}
