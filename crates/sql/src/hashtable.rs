//! The one hash structure of the positional executor: [`GroupIndex`], an
//! open-addressing table that numbers packed keys densely, `0..n` in
//! first-seen order. A phase allocates a constant number of flat arrays,
//! whatever the key cardinality: no heap `Vec` per distinct key, no hash
//! set per group.
//!
//! Both keyed operators run on it (`exec_positional`'s keyed phase):
//!
//! * **GROUP BY** keeps aggregate state in struct-of-arrays vectors indexed
//!   by group id — counts in `Vec<i64>`, distinct counts by per-group
//!   sort-unique;
//! * a **hash join** numbers its build side's distinct keys, lists each
//!   id's build rows ascending in one CSR (`blend_parallel::radix_partition`
//!   over the per-row ids), and maps each probe key to an id with the
//!   lookup-only [`GroupIndex::get_hashed`].
//!
//! Keys are 1–2 u32 columns packed into a `u64` or 3–4 columns packed into
//! a `u128`; the [`JoinKey`] trait abstracts the per-width hash
//! ([`mix64`]/[`mix128`]). Hash bits are split by convention: the **low**
//! bits select a radix partition (see `blend_parallel::radix`), bits 32 and
//! up select the slot, so partitioning and slot choice stay independent for
//! tables up to 2³² slots.
//!
//! The unit tests below, `tests/join_group_parity.rs` and
//! `tests/simd_parity.rs` pin grouping and the id-keyed join byte-for-byte
//! to map-based references that share no code with them.

use blend_common::{mix128, mix128x8, mix64, mix64x8, MIX_LANES};

/// A packed join/group key: `Copy`, comparable, and hashable to 64 bits
/// without `Hasher` state. Implemented for `u64` (1–2 packed u32 columns)
/// and `u128` (3–4 columns).
pub trait JoinKey: Copy + Eq + std::hash::Hash + Send + Sync {
    /// Mix the key to 64 well-distributed bits. Low bits select the radix
    /// partition, bits 32.. select the slot — both sides of that split
    /// must be uniform.
    fn hash64(self) -> u64;

    /// Hash a block of keys into `out` (`out.len() == keys.len()`): the one
    /// hash source of the executor's join probe and group upsert loops,
    /// which call it on either SIMD dispatch path. This kernel is where
    /// dispatch is decided: the per-width impls run [`MIX_LANES`] keys per
    /// call through the batched mixers on the vector path; the default (and
    /// the scalar path) is the per-key loop. Values are identical either
    /// way — the batched mixers are exact stage-by-stage restatements of
    /// `hash64`.
    fn hash_block(keys: &[Self], out: &mut [u64]) {
        debug_assert_eq!(keys.len(), out.len());
        for (o, &k) in out.iter_mut().zip(keys) {
            *o = k.hash64();
        }
    }
}

impl JoinKey for u64 {
    #[inline]
    fn hash64(self) -> u64 {
        mix64(self)
    }

    fn hash_block(keys: &[u64], out: &mut [u64]) {
        debug_assert_eq!(keys.len(), out.len());
        if blend_simd::enabled() {
            let mut kc = keys.chunks_exact(MIX_LANES);
            let mut oc = out.chunks_exact_mut(MIX_LANES);
            for (k, o) in (&mut kc).zip(&mut oc) {
                o.copy_from_slice(&mix64x8(k.try_into().expect("exact chunk")));
            }
            for (o, &k) in oc.into_remainder().iter_mut().zip(kc.remainder()) {
                *o = mix64(k);
            }
        } else {
            for (o, &k) in out.iter_mut().zip(keys) {
                *o = mix64(k);
            }
        }
    }
}

impl JoinKey for u128 {
    #[inline]
    fn hash64(self) -> u64 {
        mix128(self)
    }

    fn hash_block(keys: &[u128], out: &mut [u64]) {
        debug_assert_eq!(keys.len(), out.len());
        if blend_simd::enabled() {
            let mut kc = keys.chunks_exact(MIX_LANES);
            let mut oc = out.chunks_exact_mut(MIX_LANES);
            for (k, o) in (&mut kc).zip(&mut oc) {
                o.copy_from_slice(&mix128x8(k.try_into().expect("exact chunk")));
            }
            for (o, &k) in oc.into_remainder().iter_mut().zip(kc.remainder()) {
                *o = mix128(k);
            }
        } else {
            for (o, &k) in out.iter_mut().zip(keys) {
                *o = mix128(k);
            }
        }
    }
}

/// Slot a hash's probe sequence starts at: bits 32.. so the low bits stay
/// free for radix partition selection.
#[inline]
fn slot_of(hash: u64, mask: usize) -> usize {
    (hash >> 32) as usize & mask
}

/// Keys per batched probe/upsert block: hashes land in one stack buffer,
/// and the block's slots are prefetched before the first key walks its
/// probe sequence. Sized so a block of independent accesses outlasts a
/// last-level-cache miss while the per-block stack buffer stays within a
/// few cache lines' worth of stack.
pub const PROBE_BLOCK: usize = 64;

/// Slot sentinel: no group occupies this slot.
const EMPTY: u32 = u32::MAX;

/// Open-addressing index from packed group keys to dense group ids.
///
/// Ids are assigned in first-seen order, so id order *is* the sequential
/// group output order and aggregate state can live in flat vectors indexed
/// by id. Linear probing over a power-of-two slot array; the slot array
/// holds only ids (4 bytes each), keys live densely in insertion order.
#[derive(Debug, Clone)]
pub struct GroupIndex<K: JoinKey> {
    /// Slot array: [`EMPTY`] or a dense group id.
    slots: Vec<u32>,
    /// Dense key storage: `keys[id]` is the key of group `id`.
    keys: Vec<K>,
    mask: usize,
    /// Longest probe sequence seen (telemetry: the open-addressing
    /// equivalent of max chain length).
    max_probe: usize,
}

impl<K: JoinKey> GroupIndex<K> {
    /// Index pre-sized for an expected group count. Fails typed
    /// (`BlendError::MemoryExceeded`) if the slot/key arrays cannot be
    /// allocated.
    pub fn with_capacity(groups: usize) -> blend_common::Result<Self> {
        let slots_len = groups.saturating_mul(2).next_power_of_two().max(16);
        let mut slots = blend_common::try_vec_with_capacity::<u32>(slots_len, "group_slots")?;
        slots.resize(slots_len, EMPTY);
        let keys = blend_common::try_vec_with_capacity::<K>(groups, "group_keys")?;
        Ok(GroupIndex {
            slots,
            keys,
            mask: slots_len - 1,
            max_probe: 0,
        })
    }

    /// Resident bytes an index sized for `groups` groups over key type `K`
    /// holds (slot array + dense key storage) — the costing primitive the
    /// executor's group-state reservations use.
    pub fn estimate_bytes(groups: usize) -> usize {
        let slots = groups.saturating_mul(2).next_power_of_two().max(16);
        slots * 4 + groups * std::mem::size_of::<K>()
    }

    /// The dense id of `key`, inserting a fresh group (id = current
    /// [`len`](GroupIndex::len)) on first sight.
    #[inline]
    pub fn insert_or_get(&mut self, key: K) -> blend_common::Result<u32> {
        self.insert_or_get_hashed(key, key.hash64())
    }

    /// [`insert_or_get`](GroupIndex::insert_or_get) with the key's hash
    /// precomputed (the radix path already hashed it to pick partitions).
    /// The only fallible step is growth — lookups of existing keys and
    /// inserts below the load-factor threshold never allocate.
    #[inline]
    pub fn insert_or_get_hashed(&mut self, key: K, hash: u64) -> blend_common::Result<u32> {
        if self.keys.len() * 2 >= self.slots.len() {
            self.grow()?;
        }
        let mut slot = slot_of(hash, self.mask);
        let mut probe = 1usize;
        loop {
            let id = self.slots[slot];
            if id == EMPTY {
                let gid = self.keys.len() as u32;
                if self.keys.len() == self.keys.capacity() {
                    let extra = self.keys.capacity().max(16);
                    blend_common::try_reserve(&mut self.keys, extra, "group_keys")?;
                }
                self.slots[slot] = gid;
                self.keys.push(key);
                self.max_probe = self.max_probe.max(probe);
                return Ok(gid);
            }
            if self.keys[id as usize] == key {
                return Ok(id);
            }
            slot = (slot + 1) & self.mask;
            probe += 1;
        }
    }

    /// The dense id of `key`, or `None` where no insert saw it — the probe
    /// side of a join, which looks its keys up and never inserts. `hash` is
    /// `key.hash64()` (the probe hashes a [`PROBE_BLOCK`] at a time).
    #[inline]
    pub fn get_hashed(&self, key: K, hash: u64) -> Option<u32> {
        let mut slot = slot_of(hash, self.mask);
        loop {
            let id = self.slots[slot];
            if id == EMPTY {
                return None;
            }
            if self.keys[id as usize] == key {
                return Some(id);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Resident bytes of the slot array and key storage now — what
    /// [`estimate_bytes`](GroupIndex::estimate_bytes) priced at creation,
    /// until an insert grows the index.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.slots.capacity() * 4 + self.keys.capacity() * std::mem::size_of::<K>()
    }

    /// Double the slot array and re-scatter the dense ids. The doubled
    /// array is allocated fallibly *before* the old one is released, so a
    /// failed grow leaves the index intact (the caller's groups survive and
    /// the error propagates typed).
    fn grow(&mut self) -> blend_common::Result<()> {
        let new_len = self.slots.len() * 2;
        let mut slots = blend_common::try_vec_with_capacity::<u32>(new_len, "group_slots")?;
        slots.resize(new_len, EMPTY);
        self.mask = new_len - 1;
        self.slots = slots;
        for (id, key) in self.keys.iter().enumerate() {
            let mut slot = slot_of(key.hash64(), self.mask);
            let mut probe = 1usize;
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & self.mask;
                probe += 1;
            }
            self.slots[slot] = id as u32;
            self.max_probe = self.max_probe.max(probe);
        }
        Ok(())
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

    /// Number of distinct groups.
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

    /// Slot-array length (the "bucket count" telemetry of the index).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Longest probe sequence any insert/lookup walked.
    pub fn max_probe(&self) -> usize {
        self.max_probe
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Map-based reference implementations the flat operators are pinned to:
    /// per-key `Vec` match lists in ascending build order, dense group ids in
    /// first-seen order.
    mod oracle {
        use super::JoinKey;
        use blend_common::FxHashMap;

        /// Map-based join: `(probe row, build row)` pairs in probe-row order,
        /// each probe row's matches ascending.
        pub fn join_pairs<K: JoinKey>(build: &[K], probe: &[K]) -> Vec<(u32, u32)> {
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
        pub fn group_ids<K: JoinKey>(keys: &[K]) -> (Vec<u32>, Vec<u32>) {
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

    /// The join `exec_positional` runs on packed keys: number the build
    /// keys through a [`GroupIndex`] sized for every key being distinct,
    /// list each id's build rows ascending with `radix_partition`, then
    /// probe a [`PROBE_BLOCK`] at a time — hash the block
    /// ([`JoinKey::hash_block`] dispatches on the forced SIMD path),
    /// prefetch its slots, look each key up with
    /// [`get_hashed`](GroupIndex::get_hashed) and walk its id's list.
    fn dense_pairs<K: JoinKey>(build: &[K], probe: &[K]) -> Vec<(u32, u32)> {
        let mut index: GroupIndex<K> = GroupIndex::with_capacity(build.len()).unwrap();
        let ids: Vec<u32> = (build.iter())
            .map(|&k| index.insert_or_get(k).unwrap())
            .collect();
        let lists = blend_parallel::radix_partition(&ids, index.len()).unwrap();
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
                    .get_hashed(key, hash)
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
        assert_eq!(index.get_hashed(42, 42u64.hash64()), None);
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
            assert_eq!(index.get_hashed(k, k.hash64()), Some(g));
        }
        assert_eq!(index.get_hashed(8, 8u64.hash64()), None);
        assert_eq!(index.len(), 4);
    }

    /// Serializes the tests that flip the process-global `blend_simd`
    /// dispatch override, so each one deterministically covers both paths.
    static FORCE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn hash_block_matches_per_key_hash64_on_both_paths() {
        let _g = FORCE_LOCK.lock().unwrap();
        let k64: Vec<u64> = (0..100u64).map(|i| i.wrapping_mul(0x9e37)).collect();
        let k128: Vec<u128> = (0..100u128).map(|i| (i << 93) | i).collect();
        for forced in [Some(false), Some(true)] {
            blend_simd::force(forced);
            let mut h64 = vec![0u64; k64.len()];
            u64::hash_block(&k64, &mut h64);
            assert_eq!(h64, k64.iter().map(|&k| k.hash64()).collect::<Vec<_>>());
            let mut h128 = vec![0u64; k128.len()];
            u128::hash_block(&k128, &mut h128);
            assert_eq!(h128, k128.iter().map(|&k| k.hash64()).collect::<Vec<_>>());
            // Short (sub-lane) and empty blocks.
            let mut h3 = vec![0u64; 3];
            u64::hash_block(&k64[..3], &mut h3);
            assert_eq!(h3, k64[..3].iter().map(|&k| k.hash64()).collect::<Vec<_>>());
            u64::hash_block(&[], &mut []);
        }
        blend_simd::force(None);
    }

    #[test]
    fn blocked_probe_matches_oracle_on_both_paths() {
        let _g = FORCE_LOCK.lock().unwrap();
        let build: Vec<u64> = (0..500u64).map(|i| i % 91).collect();
        let probe: Vec<u64> = (0..333u64).map(|i| i % 131).collect();
        let want = oracle::join_pairs(&build, &probe);
        for forced in [Some(false), Some(true)] {
            blend_simd::force(forced);
            assert_eq!(dense_pairs(&build, &probe), want, "forced={forced:?}");
        }
        blend_simd::force(None);
    }

    #[test]
    fn blocked_probe_over_a_large_table_matches_oracle() {
        // A build side past the private caches, so the prefetches land on
        // lines that are not resident. Probe keys include misses,
        // multi-match runs, and a non-block-multiple tail.
        let _g = FORCE_LOCK.lock().unwrap();
        let build: Vec<u64> = (0..150_000u64)
            .map(|i| i.wrapping_mul(0x9e37) % 70_001)
            .collect();
        let probe: Vec<u64> = (0..10_037u64)
            .map(|i| i.wrapping_mul(0x85eb) % 90_001)
            .collect();
        let want = oracle::join_pairs(&build, &probe);
        for forced in [Some(false), Some(true)] {
            blend_simd::force(forced);
            assert_eq!(dense_pairs(&build, &probe), want, "forced={forced:?}");
        }
        blend_simd::force(None);
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
}
