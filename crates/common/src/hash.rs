//! FxHash-style fast hashing.
//!
//! The default `SipHash` used by `std::collections::HashMap` is
//! collision-resistant but slow for the short string and integer keys that
//! dominate BLEND's hot paths (posting-list probes, candidate maps keyed by
//! `(TableId, RowId)`). Following the Rust performance guide we use the Fx
//! algorithm (the hasher used inside rustc): a single multiply-xor round per
//! word. HashDoS is not a concern for an analytical system operating on its
//! own index.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Firefox/rustc Fx hash.
const SEED64: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// A fast, non-cryptographic hasher (Fx algorithm).
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED64);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf) ^ rem.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` with the Fx hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` with the Fx hasher.
pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

/// Hash an arbitrary byte slice to 64 bits with the Fx algorithm.
#[inline]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// Hash a string to 64 bits. Used by sketch indexes (QCR) and embeddings.
#[inline]
pub fn hash_str(s: &str) -> u64 {
    hash_bytes(s.as_bytes())
}

/// Combine two 64-bit hashes into one (order-sensitive).
#[inline]
pub fn combine(a: u64, b: u64) -> u64 {
    (a.rotate_left(ROTATE) ^ b).wrapping_mul(SEED64)
}

/// A cheap deterministic 64→64 bit mixer (splitmix64 finalizer). Handy when a
/// second independent hash of an already-hashed key is required, and the
/// per-key hash of the executor's keyed phase (one packed `u64` key per row,
/// no `Hasher` state to thread through).
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Mix a packed 128-bit key down to 64 well-distributed bits: the wide-key
/// counterpart of [`mix64`] used by the executor's keyed phase when 3–4 u32
/// key columns are packed into one `u128`. Both halves go through the
/// splitmix finalizer so every input bit reaches every output bit.
#[inline]
pub fn mix128(x: u128) -> u64 {
    mix64(x as u64 ^ mix64((x >> 64) as u64))
}

/// Batch width of [`mix64x8`]/[`mix128x8`].
pub const MIX_LANES: usize = 8;

/// [`mix64`] over 8 packed keys at once. The finalizer is applied
/// stage-by-stage across the whole array — four short independent loops —
/// so the auto-vectorizer can widen each stage instead of fighting the
/// cross-stage dependency of the fused scalar form. Produces exactly
/// `x.map(mix64)`; the batched hash entry points in `blend_sql::hashtable`
/// rely on that equivalence for parity.
#[inline]
pub fn mix64x8(mut x: [u64; 8]) -> [u64; 8] {
    for v in &mut x {
        *v = v.wrapping_add(0x9e37_79b9_7f4a_7c15);
    }
    for v in &mut x {
        *v = (*v ^ (*v >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    }
    for v in &mut x {
        *v = (*v ^ (*v >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    }
    for v in &mut x {
        *v ^= *v >> 31;
    }
    x
}

/// [`mix128`] over 8 packed keys at once: both halves run through
/// [`mix64x8`], preserving `x.map(mix128)` exactly.
#[inline]
pub fn mix128x8(x: [u128; 8]) -> [u64; 8] {
    let mut hi = [0u64; 8];
    let mut lo = [0u64; 8];
    for i in 0..8 {
        hi[i] = (x[i] >> 64) as u64;
        lo[i] = x[i] as u64;
    }
    let h = mix64x8(hi);
    let mut t = [0u64; 8];
    for i in 0..8 {
        t[i] = lo[i] ^ h[i];
    }
    mix64x8(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(hash_str("hello"), hash_str("hello"));
        assert_ne!(hash_str("hello"), hash_str("hellp"));
    }

    #[test]
    fn chunked_writes_differ_from_single_write_consistently() {
        // Same input must hash identically regardless of how callers obtained
        // the bytes.
        let a = hash_bytes(b"abcdefghijklmnop");
        let b = hash_bytes(b"abcdefghijklmnop");
        assert_eq!(a, b);
    }

    #[test]
    fn short_inputs_distinguished_by_length() {
        // The tail padding mixes in the remainder length, so prefixes of the
        // zero block do not collide trivially.
        assert_ne!(hash_bytes(&[0u8; 1]), hash_bytes(&[0u8; 2]));
        assert_ne!(hash_bytes(&[0u8; 7]), hash_bytes(&[0u8; 8]));
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<&str, u32> = FxHashMap::default();
        m.insert("a", 1);
        assert_eq!(m["a"], 1);
        let mut s: FxHashSet<u64> = FxHashSet::default();
        s.insert(42);
        assert!(s.contains(&42));
    }

    #[test]
    fn mix64_is_a_bijection_probe() {
        // splitmix finalizer should not map distinct small inputs together.
        let outs: std::collections::HashSet<u64> = (0..10_000u64).map(mix64).collect();
        assert_eq!(outs.len(), 10_000);
    }

    #[test]
    fn combine_is_order_sensitive() {
        assert_ne!(combine(1, 2), combine(2, 1));
    }

    #[test]
    fn batched_mixers_match_scalar_exactly() {
        let xs64: [u64; 8] = [0, 1, u64::MAX, 42, 1 << 63, 0x9e37, 7, u64::MAX - 1];
        assert_eq!(mix64x8(xs64), xs64.map(mix64));
        let xs128: [u128; 8] = [
            0,
            1,
            u128::MAX,
            42 << 64,
            1 << 127,
            (7u128 << 64) | 9,
            u64::MAX as u128,
            u128::MAX - 1,
        ];
        assert_eq!(mix128x8(xs128), xs128.map(mix128));
    }
}
