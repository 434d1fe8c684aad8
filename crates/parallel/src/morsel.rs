//! Partitioning arithmetic: morsels, even range splitting, and the radix
//! fanout.

use std::ops::Range;

/// One unit of claimable work: a contiguous sub-range `[start, end)` of
/// ordered segment `segment`.
///
/// Segments are whatever ordered inputs the caller scans — postings lists,
/// table position ranges, a whole position space. Morsels are indexed, so
/// per-morsel outputs concatenated in morsel index order reproduce a
/// sequential pass over the segments exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    /// Index of the segment this morsel belongs to.
    pub segment: usize,
    /// Start offset within the segment (inclusive).
    pub start: usize,
    /// End offset within the segment (exclusive).
    pub end: usize,
}

impl Morsel {
    /// Number of items in the morsel.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the morsel covers nothing.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Split ordered segments of the given lengths into morsels of at most
/// `morsel_len` items (clamped to at least 1). Oversized segments are
/// chopped, so one huge postings list spreads across many workers instead
/// of pinning one; empty segments yield no morsels.
pub fn morselize(segment_lens: &[usize], morsel_len: usize) -> Vec<Morsel> {
    let morsel_len = morsel_len.max(1);
    let mut out = Vec::new();
    for (segment, &len) in segment_lens.iter().enumerate() {
        let mut start = 0usize;
        while start < len {
            let end = (start + morsel_len).min(len);
            out.push(Morsel {
                segment,
                start,
                end,
            });
            start = end;
        }
    }
    out
}

/// Split `0..len` into at most `parts` contiguous ranges whose lengths
/// differ by at most one (row-count balanced). Returns fewer ranges when
/// `len < parts` — never an empty range — and nothing for `len == 0`.
pub fn split_even(len: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(len);
    if parts == 0 {
        return Vec::new();
    }
    let base = len / parts;
    let rem = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    for p in 0..parts {
        let size = base + usize::from(p < rem);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
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
    fn morsels_cover_segments_in_order() {
        let morsels = morselize(&[5, 0, 3], 2);
        assert_eq!(
            morsels,
            vec![
                Morsel {
                    segment: 0,
                    start: 0,
                    end: 2
                },
                Morsel {
                    segment: 0,
                    start: 2,
                    end: 4
                },
                Morsel {
                    segment: 0,
                    start: 4,
                    end: 5
                },
                Morsel {
                    segment: 2,
                    start: 0,
                    end: 2
                },
                Morsel {
                    segment: 2,
                    start: 2,
                    end: 3
                },
            ]
        );
        assert!(morsels.iter().all(|m| !m.is_empty() && m.len() <= 2));
    }

    #[test]
    fn zero_morsel_len_is_clamped() {
        assert_eq!(morselize(&[2], 0).len(), 2);
    }

    #[test]
    fn split_even_balances_and_covers() {
        for (len, parts) in [(10, 3), (3, 10), (0, 4), (16, 4), (1, 1)] {
            let ranges = split_even(len, parts);
            assert!(ranges.len() <= parts);
            assert!(ranges.iter().all(|r| !r.is_empty()));
            let covered: usize = ranges.iter().map(|r| r.len()).sum();
            assert_eq!(covered, len);
            // Contiguous and in order.
            let mut pos = 0;
            for r in &ranges {
                assert_eq!(r.start, pos);
                pos = r.end;
            }
            // Balanced within one item.
            if let (Some(min), Some(max)) = (
                ranges.iter().map(|r| r.len()).min(),
                ranges.iter().map(|r| r.len()).max(),
            ) {
                assert!(max - min <= 1);
            }
        }
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
}
