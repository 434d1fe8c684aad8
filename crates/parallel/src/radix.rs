//! Radix partitioning: counting-sort items into disjoint partitions.
//!
//! The executor's keyed phase (GROUP BY and the join on packed keys) hands
//! each pool worker a **disjoint key partition** (rows whose key hashes
//! share the low partition bits), so per-worker indexes never hold
//! overlapping keys and the old merge-maps-in-chunk-order step disappears.
//! The partition step itself is a two-pass counting sort — count
//! occupancy, prefix-sum, scatter — and the same pass lists each join key
//! id's build rows.
//!
//! The invariant everything downstream leans on: within each partition,
//! item indices come back **in ascending input order** (the scatter pass
//! walks items in order and appends). A consumer that processes one
//! partition's items front to back therefore sees exactly the subsequence
//! a sequential pass would have seen, which is what keeps radix-partitioned
//! execution byte-identical to sequential execution.

/// Items grouped by partition in CSR form: partition `p` owns
/// `items[offsets[p]..offsets[p + 1]]`, ascending within each partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RadixPartitions {
    offsets: Vec<u32>,
    items: Vec<u32>,
}

impl RadixPartitions {
    /// Number of partitions.
    pub fn n_parts(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Item indices of partition `p`, in ascending input order.
    #[inline]
    pub fn part(&self, p: usize) -> &[u32] {
        let lo = self.offsets[p] as usize;
        let hi = self.offsets[p + 1] as usize;
        &self.items[lo..hi]
    }

    /// CSR partition offsets (length `n_parts + 1`).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// All item indices, grouped by partition.
    pub fn items(&self) -> &[u32] {
        &self.items
    }
}

/// Resident bytes of the CSR arrays [`radix_partition`] builds for `n`
/// items over `n_parts` partitions (offsets + cursor + items) — the
/// costing primitive the executor's radix-scratch reservations use.
pub fn radix_scratch_bytes(n_items: usize, n_parts: usize) -> usize {
    (n_parts + 1) * 4 + n_parts * 4 + n_items * 4
}

/// Group item indices `0..parts.len()` by their partition id with a two-pass
/// counting sort. `parts[i]` must be `< n_parts`; within each partition the
/// returned indices are ascending (see the module docs for why that order is
/// load-bearing). The scatter arrays are allocated fallibly: an OS-level
/// refusal surfaces as `BlendError::MemoryExceeded` instead of aborting.
pub fn radix_partition(parts: &[u32], n_parts: usize) -> blend_common::Result<RadixPartitions> {
    debug_assert!(parts.iter().all(|&p| (p as usize) < n_parts));
    // Pass 1: count per-partition occupancy (striped multi-histogram on the
    // vector path — see `blend_simd::hist`), prefix-summed into offsets.
    let mut offsets = blend_common::try_zeroed_vec::<u32>(n_parts + 1, "radix_offsets")?;
    blend_simd::count_parts(parts, &mut offsets[1..]);
    // A running sum over the slice: an indexed `offsets[p + 1] +=
    // offsets[p]` loop costs several times more on CSR-sized counts.
    let mut start = 0;
    for o in offsets.iter_mut() {
        start += *o;
        *o = start;
    }
    // Pass 2: scatter item indices; walking items in input order keeps each
    // partition's slice ascending (the shared kernel preserves exactly
    // that order — it is the invariant everything downstream leans on).
    let mut cursor = blend_common::try_vec_with_capacity::<u32>(n_parts, "radix_cursor")?;
    cursor.extend_from_slice(&offsets[..n_parts]);
    let mut items = blend_common::try_zeroed_vec::<u32>(parts.len(), "radix_scatter")?;
    blend_simd::scatter_parts(parts, &mut cursor, &mut items);
    Ok(RadixPartitions { offsets, items })
}

/// Radix partition count for a pool of `threads` workers over `items`
/// rows: 4× the thread count rounded up to a power of two (the partition
/// selector is a hash mask), capped so per-partition fixed costs stay
/// negligible. The 4× over-decomposition lets the pool's dynamic task
/// claiming balance skewed key distributions — with exactly one partition
/// per worker, the worker that draws the hottest keys would serialize the
/// phase.
///
/// Degenerate inputs shrink the count instead of emitting zero-sized CSR
/// buckets: a width-1 grant has no workers to balance across (one
/// partition), and fewer rows than partitions would leave most buckets
/// empty while still paying the full offsets/cursor allocation per
/// bucket — so the count halves until every partition can hold at least
/// one row. Shrinking (rather than collapsing straight to one) keeps
/// small-but-parallel inputs on the pool: a 12-row group at 4 threads
/// still fans out across 8 partitions instead of silently serializing.
pub fn partition_count(threads: usize, items: usize) -> usize {
    if threads <= 1 || items < 2 {
        return 1;
    }
    let mut parts = threads.saturating_mul(4).next_power_of_two().clamp(1, 256);
    while parts > 1 && items < parts {
        parts >>= 1;
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_cover_all_items_ascending() {
        let parts = [2u32, 0, 2, 1, 0, 2, 2];
        let rp = radix_partition(&parts, 4).unwrap();
        assert_eq!(rp.n_parts(), 4);
        assert_eq!(rp.part(0), &[1, 4]);
        assert_eq!(rp.part(1), &[3]);
        assert_eq!(rp.part(2), &[0, 2, 5, 6]);
        assert!(rp.part(3).is_empty());
        // Every index appears exactly once.
        let mut all: Vec<u32> = rp.items().to_vec();
        all.sort_unstable();
        assert_eq!(all, (0..parts.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_yields_empty_partitions() {
        let rp = radix_partition(&[], 3).unwrap();
        assert_eq!(rp.n_parts(), 3);
        for p in 0..3 {
            assert!(rp.part(p).is_empty());
        }
        let rp0 = radix_partition(&[], 0).unwrap();
        assert_eq!(rp0.n_parts(), 0);
        assert!(rp0.items().is_empty());
    }

    #[test]
    fn single_partition_is_identity_order() {
        let parts = vec![0u32; 9];
        let rp = radix_partition(&parts, 1).unwrap();
        assert_eq!(rp.part(0), (0..9u32).collect::<Vec<_>>().as_slice());
    }

    #[test]
    fn partition_count_is_a_bounded_power_of_two() {
        const MANY: usize = 1 << 20;
        assert_eq!(partition_count(2, MANY), 8);
        assert_eq!(partition_count(3, MANY), 16);
        assert_eq!(partition_count(8, MANY), 32);
        assert_eq!(partition_count(1000, MANY), 256);
        for t in 0..100 {
            assert!(partition_count(t, MANY).is_power_of_two());
        }
    }

    #[test]
    fn partition_count_shrinks_degenerate_inputs() {
        const MANY: usize = 1 << 20;
        // Width-1 grants (and the no-grant width 0) have no workers to
        // balance across.
        assert_eq!(partition_count(0, MANY), 1);
        assert_eq!(partition_count(1, MANY), 1);
        // Empty and single-row inputs collapse all the way to one.
        assert_eq!(partition_count(8, 0), 1);
        assert_eq!(partition_count(8, 1), 1);
        // Fewer rows than the 4×-thread fanout halves the count until
        // every bucket can hold a row — small inputs stay parallel.
        assert_eq!(partition_count(8, 31), 16);
        assert_eq!(partition_count(8, 16), 16);
        assert_eq!(partition_count(8, 15), 8);
        assert_eq!(partition_count(8, 2), 2);
        // At or above `parts` rows the full fanout survives.
        assert_eq!(partition_count(8, 32), 32);
    }

    #[test]
    fn radix_partition_degenerate_single_partition_shapes() {
        // Single row, one partition: one bucket holding item 0.
        let rp = radix_partition(&[0], 1).unwrap();
        assert_eq!(rp.n_parts(), 1);
        assert_eq!(rp.part(0), &[0]);
        assert_eq!(rp.offsets(), &[0, 1]);
        // The collapsed count (`partition_count(1, _)` / rows < parts)
        // composes with `radix_partition` into the identity layout.
        let n = 9usize;
        let parts = vec![0u32; n];
        let rp = radix_partition(&parts, partition_count(1, n)).unwrap();
        assert_eq!(rp.n_parts(), 1);
        assert_eq!(rp.part(0), (0..n as u32).collect::<Vec<_>>().as_slice());
    }

    #[test]
    fn radix_partition_matches_scalar_counting_on_long_skewed_input() {
        // Long enough to engage the striped counting kernel; heavily
        // skewed so the stripes actually disagree with a naive split.
        let parts: Vec<u32> = (0..5000u32)
            .map(|i| if i % 7 == 0 { i % 4 } else { 3 })
            .collect();
        let rp = radix_partition(&parts, 4).unwrap();
        let mut counts = [0usize; 4];
        for &p in &parts {
            counts[p as usize] += 1;
        }
        for (p, &want) in counts.iter().enumerate() {
            assert_eq!(rp.part(p).len(), want);
            assert!(rp.part(p).windows(2).all(|w| w[0] < w[1]));
        }
    }
}
