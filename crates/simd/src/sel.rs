//! The small-IN-list range filter: codes compared against a padded block
//! of 8 needles, 64 at a time, into a keep-mask, with a scalar twin.
//!
//! Both forms keep the engines' selection contract: the existing prefix of
//! `sel` is never touched, survivors keep ascending position order, and
//! `lo >= hi` appends nothing. See the crate docs for the dispatch rule.

/// Candidates per keep-mask word.
pub const BLOCK: usize = 64;

/// Keep-mask with the low `len` bits set (the "every candidate survives"
/// mask of a possibly short tail block).
#[inline]
fn full_mask(len: usize) -> u64 {
    debug_assert!((1..=BLOCK).contains(&len));
    u64::MAX >> (BLOCK - len)
}

/// Append the surviving positions of one block: `base + j` for every set
/// bit `j` of `m`. A full mask bulk-extends. Dense mixed blocks (at least
/// half the candidates survive) use the write-all/advance-on-keep form —
/// the bit loop's one branchy iteration per survivor loses to unconditional
/// stores once blocks stop being sparse. Sparse mixed blocks keep the bit
/// loop (few survivors, few stores).
#[inline]
fn push_survivors(sel: &mut Vec<u32>, base: u32, mut m: u64, len: usize) {
    if m == full_mask(len) {
        sel.extend(base..base + len as u32);
        return;
    }
    let cnt = m.count_ones() as usize;
    if cnt * 2 >= len {
        let start = sel.len();
        sel.resize(start + len, 0);
        let mut n = start;
        for j in 0..len {
            sel[n] = base + j as u32;
            n += (m >> j & 1) as usize;
        }
        debug_assert_eq!(n, start + cnt);
        sel.truncate(start + cnt);
    } else {
        while m != 0 {
            let j = m.trailing_zeros();
            sel.push(base + j);
            m &= m - 1;
        }
    }
}

/// SWAR bit-pack multiplier: eight 0/1 bytes in a `u64` collapse to the
/// corresponding 8-bit mask in the product's top byte (byte `j` carries
/// weight `2^(7-j)`, so byte-lane `i` of the input lands at bit `i`; no
/// lane sum exceeds 255, so no carries cross lanes).
const PACK8: u64 = 0x0102_0408_1020_4080;

/// Membership of one code in a padded 8-needle probe block: eight
/// independent compares OR-folded branch-free. Duplicated pad needles are
/// harmless (OR is idempotent).
#[inline(always)]
fn hit_in8(n: &[u32; 8], c: u32) -> bool {
    ((c == n[0]) | (c == n[1]) | (c == n[2]) | (c == n[3]))
        | ((c == n[4]) | (c == n[5]) | (c == n[6]) | (c == n[7]))
}

/// Keep-mask of up to 64 codes against a fixed 8-needle probe block.
///
/// Dispatches to the widest compare unit the target has: AVX2 (detected
/// once at runtime, cached) compares 8 codes against all 8 needles in 16
/// vector ops, the x86_64 SSE2 baseline does 4 at a time, and every other
/// architecture runs the portable SWAR form ([`keep_mask_in8_swar`]),
/// which doubles as the differential oracle for the intrinsic paths.
#[inline]
pub fn keep_mask_in8(vals: &[u32], n: &[u32; 8]) -> u64 {
    debug_assert!(vals.len() <= BLOCK);
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: AVX2 presence was just checked (cached detection).
            return unsafe { keep_mask_in8_avx2(vals, n) };
        }
        keep_mask_in8_sse2(vals, n)
    }
    #[cfg(not(target_arch = "x86_64"))]
    keep_mask_in8_swar(vals, n)
}

/// Cached runtime AVX2 detection (one `cpuid` ever).
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx2_available() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    static AVX2: AtomicU8 = AtomicU8::new(0); // 0 unknown, 1 no, 2 yes
    match AVX2.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            let yes = std::arch::is_x86_feature_detected!("avx2");
            AVX2.store(if yes { 2 } else { 1 }, Ordering::Relaxed);
            yes
        }
    }
}

/// AVX2 form of [`keep_mask_in8`]: one 8-lane load, eight broadcast
/// compares OR-folded, one movemask per 8 codes.
///
/// # Safety
///
/// Requires AVX2 (checked by the caller via [`avx2_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn keep_mask_in8_avx2(vals: &[u32], n: &[u32; 8]) -> u64 {
    use std::arch::x86_64::*;
    let nv: [__m256i; 8] = std::array::from_fn(|k| _mm256_set1_epi32(n[k] as i32));
    let mut m = 0u64;
    let mut chunks = vals.chunks_exact(8);
    let mut shift = 0u32;
    for c in &mut chunks {
        // SAFETY: `c` is exactly 8 u32s = 32 bytes; unaligned load is fine.
        let v = unsafe { _mm256_loadu_si256(c.as_ptr() as *const __m256i) };
        let mut hit = _mm256_cmpeq_epi32(v, nv[0]);
        for needle in &nv[1..] {
            hit = _mm256_or_si256(hit, _mm256_cmpeq_epi32(v, *needle));
        }
        let bits = _mm256_movemask_ps(_mm256_castsi256_ps(hit)) as u32;
        m |= (bits as u64) << shift;
        shift += 8;
    }
    for &c in chunks.remainder() {
        m |= (hit_in8(n, c) as u64) << shift;
        shift += 1;
    }
    m
}

/// SSE2 form of [`keep_mask_in8`]: 4 codes per compare round. SSE2 is part
/// of the x86_64 baseline, so this path needs no runtime detection.
#[cfg(target_arch = "x86_64")]
fn keep_mask_in8_sse2(vals: &[u32], n: &[u32; 8]) -> u64 {
    use std::arch::x86_64::*;
    // SAFETY: every SSE2 intrinsic here is available on all x86_64 CPUs
    // (baseline feature), and the only memory access loads 16 bytes from a
    // `chunks_exact(4)` slice of u32s.
    unsafe {
        let nv: [__m128i; 8] = std::array::from_fn(|k| _mm_set1_epi32(n[k] as i32));
        let mut m = 0u64;
        let mut chunks = vals.chunks_exact(4);
        let mut shift = 0u32;
        for c in &mut chunks {
            let v = _mm_loadu_si128(c.as_ptr() as *const __m128i);
            let mut hit = _mm_cmpeq_epi32(v, nv[0]);
            for needle in &nv[1..] {
                hit = _mm_or_si128(hit, _mm_cmpeq_epi32(v, *needle));
            }
            let bits = _mm_movemask_ps(_mm_castsi128_ps(hit)) as u32;
            m |= (bits as u64) << shift;
            shift += 4;
        }
        for &c in chunks.remainder() {
            m |= (hit_in8(n, c) as u64) << shift;
            shift += 1;
        }
        m
    }
}

/// Portable SWAR form of [`keep_mask_in8`] (and the oracle the intrinsic
/// paths are differentially tested against): every shift is a compile-time
/// constant — eight hits land as 0/1 bytes in one `u64` and a single
/// multiply (`PACK8`) packs them into the mask byte.
#[inline]
pub fn keep_mask_in8_swar(vals: &[u32], n: &[u32; 8]) -> u64 {
    debug_assert!(vals.len() <= BLOCK);
    let mut m = 0u64;
    let mut chunks = vals.chunks_exact(8);
    let mut shift = 0u32;
    for c in &mut chunks {
        let bytes = (hit_in8(n, c[0]) as u64)
            | ((hit_in8(n, c[1]) as u64) << 8)
            | ((hit_in8(n, c[2]) as u64) << 16)
            | ((hit_in8(n, c[3]) as u64) << 24)
            | ((hit_in8(n, c[4]) as u64) << 32)
            | ((hit_in8(n, c[5]) as u64) << 40)
            | ((hit_in8(n, c[6]) as u64) << 48)
            | ((hit_in8(n, c[7]) as u64) << 56);
        m |= (bytes.wrapping_mul(PACK8) >> 56) << shift;
        shift += 8;
    }
    for &c in chunks.remainder() {
        m |= (hit_in8(n, c) as u64) << shift;
        shift += 1;
    }
    m
}

/// Append the survivors of `lo..hi` whose code in `vals` matches any of
/// the 8 padded `needles`, dispatching on [`crate::enabled`].
///
/// Engines that compiled a tiny membership set (at most 8 ids, padded by
/// repeating one of them) hand the needles directly, so the vector path
/// runs the broadcast-compare kernel instead of a per-element set probe.
/// `lo >= hi` appends nothing; requires `hi <= vals.len()`.
#[inline]
pub fn extend_range_in8(
    sel: &mut Vec<u32>,
    lo: usize,
    hi: usize,
    vals: &[u32],
    needles: &[u32; 8],
) {
    if crate::enabled() {
        extend_range_in8_blocks(sel, lo, hi, vals, needles);
    } else {
        extend_range_in8_scalar(sel, lo, hi, vals, needles);
    }
}

/// Scalar twin of [`extend_range_in8_blocks`] (the oracle): one 8-needle
/// membership per position, written unconditionally, the cursor advanced
/// on a hit.
#[inline]
pub fn extend_range_in8_scalar(
    sel: &mut Vec<u32>,
    lo: usize,
    hi: usize,
    vals: &[u32],
    needles: &[u32; 8],
) {
    if hi <= lo {
        return;
    }
    let start = sel.len();
    sel.resize(start + (hi - lo), 0);
    let mut n = start;
    for (pos, &c) in (lo..).zip(&vals[lo..hi]) {
        sel[n] = pos as u32;
        n += hit_in8(needles, c) as usize;
    }
    sel.truncate(n);
}

/// Block form of the small-IN-list range filter: [`keep_mask_in8`] per 64
/// codes, survivors through `push_survivors`. See [`extend_range_in8`].
pub fn extend_range_in8_blocks(
    sel: &mut Vec<u32>,
    lo: usize,
    hi: usize,
    vals: &[u32],
    needles: &[u32; 8],
) {
    if hi <= lo {
        return;
    }
    sel.reserve(hi - lo);
    let mut base = lo;
    while base < hi {
        let bl = (hi - base).min(BLOCK);
        let m = keep_mask_in8(&vals[base..base + bl], needles);
        if m != 0 {
            push_survivors(sel, base as u32, m, bl);
        }
        base += bl;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit `j` set when `vals[j]` is one of the needles.
    fn naive_mask(vals: &[u32], needles: &[u32; 8]) -> u64 {
        let mut m = 0;
        for (j, v) in vals.iter().enumerate() {
            m |= (needles.contains(v) as u64) << j;
        }
        m
    }

    #[test]
    fn keep_mask_in8_matches_naive_bits() {
        let needles = [3u32, 7, 7, 7, 11, 900, 7, 7]; // padded, duplicated
        for len in [0usize, 1, 7, 8, 9, 15, 16, 63, 64] {
            let vals: Vec<u32> = (0..len as u32).map(|i| i * 3 % 17).collect();
            let want = naive_mask(&vals, &needles);
            assert_eq!(keep_mask_in8(&vals, &needles), want, "len={len}");
            assert_eq!(keep_mask_in8_swar(&vals, &needles), want, "swar len={len}");
        }
        assert_eq!(keep_mask_in8(&[3; 64], &needles), u64::MAX);
        assert_eq!(keep_mask_in8(&[4; 64], &needles), 0);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn in8_intrinsic_paths_match_swar_oracle() {
        // Every misaligned length up to a full block, values straddling
        // 0/u32::MAX, duplicate needles: the SSE2 and (when present) AVX2
        // forms must agree bit-for-bit with the portable SWAR form.
        let needles = [0u32, u32::MAX, 5, 64, 63, 5, 5, 5];
        let vals: Vec<u32> = (0..BLOCK as u32)
            .map(|i| {
                if i % 9 == 0 {
                    u32::MAX
                } else {
                    i.wrapping_mul(0x9E37_79B9) % 67
                }
            })
            .collect();
        for len in 0..=BLOCK {
            let want = keep_mask_in8_swar(&vals[..len], &needles);
            assert_eq!(
                keep_mask_in8_sse2(&vals[..len], &needles),
                want,
                "sse2 len={len}"
            );
            if avx2_available() {
                // SAFETY: AVX2 presence just checked.
                let got = unsafe { keep_mask_in8_avx2(&vals[..len], &needles) };
                assert_eq!(got, want, "avx2 len={len}");
            }
            assert_eq!(
                keep_mask_in8(&vals[..len], &needles),
                want,
                "dispatch len={len}"
            );
        }
    }

    #[test]
    fn extend_range_in8_paths_agree() {
        let vals: Vec<u32> = (0..300u32).map(|i| i * 7 % 31).collect();
        let needles = [0u32, 5, 12, 30, 0, 0, 0, 0];
        for (lo, hi) in [(0usize, 300usize), (13, 13), (17, 3), (13, 77), (250, 300)] {
            let mut a = vec![9u32];
            let mut b = vec![9u32];
            extend_range_in8_scalar(&mut a, lo, hi, &vals, &needles);
            extend_range_in8_blocks(&mut b, lo, hi, &vals, &needles);
            assert_eq!(a, b, "lo={lo} hi={hi}");
            assert_eq!(a[0], 9);
        }
    }

    #[test]
    fn push_survivors_dense_and_sparse_mixed_blocks_agree() {
        // Same mask emitted through both mixed-block arms must yield the
        // same survivors: compare against the naive bit walk.
        for (m, len) in [
            (u64::MAX ^ 1, 64usize), // dense: all but one
            (0b1011_1101u64, 8),     // dense: 6 of 8
            (0b1000_0001u64, 8),     // sparse: 2 of 8
            (1u64 << 63, 64),        // sparse: 1 of 64
            ((1u64 << 40) - 2, 41),  // dense with tail
        ] {
            let mut got = vec![77u32];
            push_survivors(&mut got, 100, m, len);
            let want: Vec<u32> = std::iter::once(77)
                .chain((0..len as u32).filter(|j| m >> j & 1 == 1).map(|j| 100 + j))
                .collect();
            assert_eq!(got, want, "m={m:#x} len={len}");
        }
    }
}
