//! Radix-partition histogram kernels.
//!
//! The counting pass of a two-pass counting sort is a serial bottleneck on
//! skewed inputs: consecutive items landing in the same partition turn
//! `counts[p] += 1` into a store-to-load dependency chain. The striped
//! kernel breaks the chain by accumulating into four independent
//! histograms and folding them at the end — the classic multi-histogram
//! radix trick, profitable exactly when the histograms stay cache-resident
//! (partition counts here are capped at 256, so four stripes fit in 4 KiB).
//!
//! The scatter pass stays a single-cursor loop: each partition's write
//! cursor serializes its own items by construction (that order *is* the
//! ascending-within-partition invariant downstream consumers rely on), so
//! there is nothing to stripe. It lives here anyway so both passes share
//! one home and the differential parity suite covers the pair.

/// Striping width of [`count_parts_striped`].
const STRIPES: usize = 4;

/// Inputs below this length take the scalar count unconditionally — the
/// stripe fold costs `4 * counts.len()` adds, which only amortizes over a
/// reasonably long input.
const STRIPE_MIN_ITEMS: usize = 1024;

/// Count partition occupancy: `counts[p] += |{i : parts[i] == p}|`,
/// dispatching on [`crate::enabled`]. Every `parts[i]` must index within
/// `counts`.
#[inline]
pub fn count_parts(parts: &[u32], counts: &mut [u32]) {
    if crate::enabled() {
        count_parts_striped(parts, counts);
    } else {
        count_parts_scalar(parts, counts);
    }
}

/// Scalar twin of [`count_parts_striped`] (the oracle).
#[inline]
pub fn count_parts_scalar(parts: &[u32], counts: &mut [u32]) {
    for &p in parts {
        counts[p as usize] += 1;
    }
}

/// Four-histogram counting: lanes accumulate into disjoint stripes so a
/// run of identical partition ids no longer serializes on one counter.
/// Falls back to the scalar loop when the input is short or the stripes
/// would not stay cache-resident.
pub fn count_parts_striped(parts: &[u32], counts: &mut [u32]) {
    let n_parts = counts.len();
    if parts.len() < STRIPE_MIN_ITEMS || n_parts == 0 || n_parts > 256 {
        count_parts_scalar(parts, counts);
        return;
    }
    let mut hist = vec![0u32; STRIPES * n_parts];
    let (h0, rest) = hist.split_at_mut(n_parts);
    let (h1, rest) = rest.split_at_mut(n_parts);
    let (h2, h3) = rest.split_at_mut(n_parts);
    let mut chunks = parts.chunks_exact(STRIPES);
    for c in &mut chunks {
        h0[c[0] as usize] += 1;
        h1[c[1] as usize] += 1;
        h2[c[2] as usize] += 1;
        h3[c[3] as usize] += 1;
    }
    for &p in chunks.remainder() {
        h0[p as usize] += 1;
    }
    for (i, c) in counts.iter_mut().enumerate() {
        *c += h0[i] + h1[i] + h2[i] + h3[i];
    }
}

/// Scatter pass of the counting sort: item index `i` lands at
/// `items[cursor[parts[i]]]`, advancing that partition's cursor — input
/// order within each partition is preserved, which is the load-bearing
/// invariant of `blend_storage::radix`. Single-cursor by necessity (see
/// the module docs); shared by both dispatch paths.
#[inline]
pub fn scatter_parts(parts: &[u32], cursor: &mut [u32], items: &mut [u32]) {
    for (i, &p) in parts.iter().enumerate() {
        let c = &mut cursor[p as usize];
        items[*c as usize] = i as u32;
        *c += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striped_count_matches_scalar_across_shapes() {
        for n in [0usize, 1, 3, STRIPE_MIN_ITEMS - 1, STRIPE_MIN_ITEMS, 4097] {
            for n_parts in [1usize, 2, 7, 256] {
                let parts: Vec<u32> = (0..n)
                    .map(|i| (i * 2654435761) as u32 % n_parts as u32)
                    .collect();
                let mut a = vec![0u32; n_parts];
                let mut b = vec![0u32; n_parts];
                count_parts_scalar(&parts, &mut a);
                count_parts_striped(&parts, &mut b);
                assert_eq!(a, b, "n={n} n_parts={n_parts}");
                assert_eq!(a.iter().sum::<u32>() as usize, n);
            }
        }
    }

    #[test]
    fn striped_count_skewed_single_partition() {
        // All items in one partition: the exact shape the stripes exist for.
        let parts = vec![3u32; 5000];
        let mut counts = vec![0u32; 8];
        count_parts_striped(&parts, &mut counts);
        assert_eq!(counts[3], 5000);
        assert_eq!(counts.iter().sum::<u32>(), 5000);
    }

    #[test]
    fn scatter_preserves_input_order_within_partition() {
        let parts = [1u32, 0, 1, 1, 0];
        let mut cursor = [0u32, 2]; // partition 0 at 0.., partition 1 at 2..
        let mut items = [0u32; 5];
        scatter_parts(&parts, &mut cursor, &mut items);
        assert_eq!(items, [1, 4, 0, 2, 3]);
        assert_eq!(cursor, [2, 5]);
    }
}
