//! Vectorized filter kernels: compiled predicate sets evaluated a batch at
//! a time through selection vectors.
//!
//! The SQL layer's cheap per-position predicates (`CellValue IN`,
//! `TableId IN / NOT IN`, `RowId <`, `Quadrant IS [NOT] NULL`) used to run
//! one position at a time through `&dyn FactTable` accessors — 2–5 virtual
//! calls, a hash-set probe, and (on the row store) a string compare per
//! row. A [`FilterKernel`] is the batched compilation of those predicates,
//! built **once per scan**:
//!
//! * `CellValue IN (...)` is the engine's [`ValuePred`]
//!   ([`FactTable::make_probe`]): dictionary codes on the column store (a
//!   u32 membership test instead of a string compare), a hashed string set
//!   on the row store;
//! * `TableId IN / NOT IN` id lists compile into an [`IdSet`] — a sorted
//!   slice or a dense bitmap, chosen by cardinality vs. id domain;
//! * engines evaluate the kernel over whole position batches via
//!   [`FactTable::filter_batch`] / [`FactTable::filter_range`], writing
//!   survivors through a reusable selection vector instead of returning a
//!   verdict per call. These two are the only evaluators; the
//!   `filter_kernel_parity` suite pins both engines' output to a brute
//!   force over the raw predicate inputs.
//!
//! [`FactTable::filter_batch`]: crate::FactTable::filter_batch
//! [`FactTable::filter_range`]: crate::FactTable::filter_range
//! [`FactTable::make_probe`]: crate::FactTable::make_probe

use blend_common::FxHashSet;

/// A compiled membership set over u32 ids (table ids or dictionary codes).
///
/// Built once per scan; probed once per candidate position. The
/// representation is chosen at build time: a dense bitmap over the ids'
/// own range when it costs at most ~4× the sorted slice (bitmap probes are
/// one subtract, shift and mask, branch-free and O(1)), otherwise a sorted
/// slice probed by binary search — or a linear OR-fold when tiny, which
/// the compiler unrolls.
#[derive(Debug, Clone)]
pub enum IdSet {
    /// Sorted, deduplicated ids.
    Sorted(Box<[u32]>),
    /// Dense bitmap over `base..=max_id`; `len` distinct ids are set.
    Bitmap {
        /// The smallest id; bit `i` stands for id `base + i`.
        base: u32,
        /// One bit per id in `base..base + words.len() * 64`.
        words: Box<[u64]>,
        /// Number of distinct ids in the set.
        len: usize,
    },
}

/// Sorted-slice sets at most this long probe by linear OR-fold instead of
/// binary search (branch-free, unrolled).
const LINEAR_PROBE_MAX: usize = 8;

impl IdSet {
    /// Compile a set of ids, deduplicating and choosing the representation.
    pub fn build<I: IntoIterator<Item = u32>>(ids: I) -> IdSet {
        let mut v: Vec<u32> = ids.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        let (Some(&base), Some(&max)) = (v.first(), v.last()) else {
            return IdSet::Sorted(Box::from([]));
        };
        let n_words = ((max - base) as usize >> 6) + 1;
        // Bitmap when its footprint is within ~4x of the sorted slice (with
        // a 1 KiB floor so narrow id ranges — table ids, dictionary codes of
        // short IN-lists — always get the O(1) probe).
        if n_words * 8 <= (v.len() * 16).max(1024) {
            let mut words = vec![0u64; n_words];
            for &id in &v {
                let off = id - base;
                words[(off >> 6) as usize] |= 1 << (off & 63);
            }
            IdSet::Bitmap {
                base,
                words: words.into_boxed_slice(),
                len: v.len(),
            }
        } else {
            IdSet::Sorted(v.into_boxed_slice())
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        match self {
            IdSet::Sorted(s) if s.len() <= LINEAR_PROBE_MAX => {
                let mut hit = false;
                for &x in s.iter() {
                    hit |= x == id;
                }
                hit
            }
            IdSet::Sorted(s) => s.binary_search(&id).is_ok(),
            IdSet::Bitmap { base, words, .. } => {
                // An id below `base` wraps to an offset past every set bit.
                let off = id.wrapping_sub(*base);
                words
                    .get((off >> 6) as usize)
                    .is_some_and(|&word| (word >> (off & 63)) & 1 == 1)
            }
        }
    }

    /// The set's ids padded to a fixed 8-lane probe block (the first id
    /// repeated into unused lanes, so duplicate lanes never change the OR
    /// of the compares), when the set is small enough (1..=8 ids) for the
    /// `blend_simd` broadcast-compare kernel. Empty and larger sets return
    /// `None` and take the generic per-element probe.
    pub fn small_needles(&self) -> Option<[u32; 8]> {
        if self.is_empty() || self.len() > LINEAR_PROBE_MAX {
            return None;
        }
        let mut out = [0u32; 8];
        for (lane, id) in out.iter_mut().zip(self.ids()) {
            *lane = id;
        }
        let first = out[0];
        out[self.len()..].fill(first);
        Some(out)
    }

    /// The ids, ascending.
    pub fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        let (sorted, base, words): (&[u32], u32, &[u64]) = match self {
            IdSet::Sorted(s) => (s, 0, &[]),
            IdSet::Bitmap { base, words, .. } => (&[], *base, words),
        };
        let bits = words.iter().enumerate().flat_map(move |(w, &word)| {
            let set = std::iter::successors(Some(word), |&x| Some(x & x.wrapping_sub(1)));
            let at = base + w as u32 * 64;
            set.take_while(|&x| x != 0)
                .map(move |x| at + x.trailing_zeros())
        });
        sorted.iter().copied().chain(bits)
    }

    /// Number of distinct ids.
    pub fn len(&self) -> usize {
        match self {
            IdSet::Sorted(s) => s.len(),
            IdSet::Bitmap { len, .. } => *len,
        }
    }

    /// True when no id is in the set (it can never match).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident bytes of the compiled set.
    pub fn memory_bytes(&self) -> usize {
        match self {
            IdSet::Sorted(s) => s.len() * 4,
            IdSet::Bitmap { words, .. } => words.len() * 8,
        }
    }
}

/// A compiled `CellValue IN (...)` list, lowered per engine by
/// [`FactTable::make_probe`](crate::FactTable::make_probe): the scan
/// kernel's value predicate and the positional executor's `CellValue IN`
/// probe.
#[derive(Debug, Clone)]
pub enum ValuePred {
    /// Dictionary codes (column store). IN-list values absent from the
    /// dictionary vanished when the probe was built.
    Codes(IdSet),
    /// Hashed owned strings (row store).
    Strings(FxHashSet<Box<str>>),
}

impl ValuePred {
    /// Resident bytes of the compiled predicate.
    pub fn memory_bytes(&self) -> usize {
        match self {
            ValuePred::Codes(set) => set.memory_bytes(),
            ValuePred::Strings(set) => set
                .iter()
                .map(|s| s.len() + std::mem::size_of::<Box<str>>() + 16)
                .sum(),
        }
    }
}

/// The batched compilation of a scan's cheap per-position predicates.
///
/// Built once per scan by the SQL planner (`ScanPlan::kernel`) and
/// evaluated by the storage engines over whole position batches:
/// [`FactTable::filter_batch`] for position lists,
/// [`FactTable::filter_range`] for contiguous ranges. A field set to `None`
/// means that predicate is absent; an all-`None` kernel accepts everything.
///
/// [`FactTable::filter_batch`]: crate::FactTable::filter_batch
/// [`FactTable::filter_range`]: crate::FactTable::filter_range
#[derive(Debug, Clone, Default)]
pub struct FilterKernel {
    /// `CellValue IN (...)`, lowered per engine.
    pub value: Option<ValuePred>,
    /// `TableId IN (...)`.
    pub table_in: Option<IdSet>,
    /// `TableId NOT IN (...)`.
    pub table_not_in: Option<IdSet>,
    /// `RowId < n` (exclusive bound).
    pub rowid_lt: Option<u32>,
    /// `Quadrant IS NULL` (true) / `IS NOT NULL` (false).
    pub quadrant_null: Option<bool>,
}

impl FilterKernel {
    /// Kernel with no predicates (accepts every position).
    pub fn empty() -> Self {
        FilterKernel::default()
    }

    /// True when the kernel accepts every position, i.e. batch evaluation
    /// degenerates to a copy. Destructured so adding a predicate field
    /// forces this (and every engine's pass cascade) to be revisited.
    pub fn is_empty(&self) -> bool {
        let FilterKernel {
            value,
            table_in,
            table_not_in,
            rowid_lt,
            quadrant_null,
        } = self;
        value.is_none()
            && table_in.is_none()
            && table_not_in.is_none()
            && rowid_lt.is_none()
            && quadrant_null.is_none()
    }

    /// Resident bytes of the compiled predicate sets.
    pub fn memory_bytes(&self) -> usize {
        self.value.as_ref().map_or(0, ValuePred::memory_bytes)
            + self.table_in.as_ref().map_or(0, IdSet::memory_bytes)
            + self.table_not_in.as_ref().map_or(0, IdSet::memory_bytes)
    }

    /// True when the kernel provably rejects every position — an IN-list
    /// whose values all vanished at probe build (absent from the
    /// dictionary/index), an empty `TableId IN` set, or `RowId < 0`.
    /// Engines check this once per batch and skip the pass cascade
    /// entirely; callers' visit telemetry is unaffected (candidates still
    /// count as scanned).
    pub fn never_matches(&self) -> bool {
        self.rowid_lt == Some(0)
            || self.table_in.as_ref().is_some_and(IdSet::is_empty)
            || self.value.as_ref().is_some_and(|v| match v {
                ValuePred::Codes(set) => set.is_empty(),
                ValuePred::Strings(set) => set.is_empty(),
            })
    }
}

// ---- selection loops -------------------------------------------------------
//
// The engines' selection vectors are written by three loops, each the
// branch-free write-all/advance-on-keep form: every candidate is stored,
// and the write cursor advances by the predicate's verdict. All three leave
// the existing prefix of `sel` untouched and keep survivors in candidate
// order. A column-value predicate indexes its column inside `keep`.

/// Stable in-place compaction of `sel[start..]`: survivors of `keep` slide
/// to the front, order preserved, `sel[..start]` untouched. In-place safe:
/// the write cursor never passes the read cursor.
#[inline]
pub fn compact(sel: &mut Vec<u32>, start: usize, mut keep: impl FnMut(u32) -> bool) {
    let mut n = start;
    for i in start..sel.len() {
        let p = sel[i];
        sel[n] = p;
        n += keep(p) as usize;
    }
    sel.truncate(n);
}

/// Append the survivors of the candidate list `cands` to `sel`.
#[inline]
pub fn extend_filtered(sel: &mut Vec<u32>, cands: &[u32], keep: impl FnMut(u32) -> bool) {
    let start = sel.len();
    sel.extend_from_slice(cands);
    compact(sel, start, keep);
}

/// Append the survivors of the contiguous position range `lo..hi` to `sel`
/// without materializing the candidate list. `lo >= hi` appends nothing.
#[inline]
pub fn extend_range(sel: &mut Vec<u32>, lo: usize, hi: usize, mut keep: impl FnMut(u32) -> bool) {
    let start = sel.len();
    sel.resize(start + hi.saturating_sub(lo), 0);
    let mut n = start;
    for pos in lo..hi {
        let p = pos as u32;
        sel[n] = p;
        n += keep(p) as usize;
    }
    sel.truncate(n);
}

/// Reusable scan buffers.
///
/// The filtered scan keeps one `ScanScratch` across all of its chunks, so
/// the selection vector's capacity is paid once per scan instead of once
/// per chunk.
#[derive(Debug, Default)]
pub struct ScanScratch {
    /// Selection vector: surviving positions of the current batch.
    pub sel: Vec<u32>,
}

impl ScanScratch {
    /// Scratch high-water bound for scans of a table with `n_rows`
    /// positions, used by the engines' memory breakdowns. The worst case
    /// streams the whole position range through one selection-vector
    /// batch; a chunked scan stays far below it (one chunk per batch).
    pub fn estimate_bytes(n_rows: usize) -> usize {
        n_rows * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// A low edge of dense ids far from 0.
    const FAR: u32 = 3_000_000_000;

    #[test]
    fn idset_picks_bitmap_for_dense_small_domains() {
        let set = IdSet::build([1u32, 3, 5, 7, 900]);
        assert!(matches!(set, IdSet::Bitmap { .. }));
        assert_eq!(set.len(), 5);
        for id in 0..1100u32 {
            assert_eq!(set.contains(id), [1, 3, 5, 7, 900].contains(&id));
        }
        // A narrow range far from 0 gets a bitmap over its own range.
        let far = [FAR + 2, FAR + 70, FAR + 900];
        let set = IdSet::build(far);
        assert!(matches!(set, IdSet::Bitmap { base, .. } if base == FAR + 2));
        assert_eq!(set.memory_bytes(), 15 * 8);
        for id in (FAR - 100..FAR + 1100).chain([0, u32::MAX]) {
            assert_eq!(set.contains(id), far.contains(&id), "id {id}");
        }
        assert_eq!(
            set.small_needles(),
            Some([far[0], far[1], far[2], far[0], far[0], far[0], far[0], far[0]])
        );
    }

    #[test]
    fn idset_picks_sorted_for_sparse_ids() {
        let ids = [10u32, 1_000_000, 4_000_000_000];
        let set = IdSet::build(ids);
        assert!(matches!(set, IdSet::Sorted(_)));
        for id in ids {
            assert!(set.contains(id));
        }
        assert!(!set.contains(11));
        assert!(!set.contains(u32::MAX));
    }

    #[test]
    fn idset_dedups_and_handles_empty() {
        let set = IdSet::build([4u32, 4, 4, 2]);
        assert_eq!(set.len(), 2);
        let empty = IdSet::build(std::iter::empty());
        assert!(empty.is_empty());
        assert!(!empty.contains(0));
        assert_eq!(empty.memory_bytes(), 0);
    }

    #[test]
    fn idset_binary_search_path_matches_linear() {
        // > LINEAR_PROBE_MAX sparse entries forces the binary-search arm.
        let ids: Vec<u32> = (0..40u32).map(|i| i * 1_000_003).collect();
        let set = IdSet::build(ids.iter().copied());
        assert!(matches!(set, IdSet::Sorted(_)));
        for &id in &ids {
            assert!(set.contains(id));
            assert!(!set.contains(id + 1));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `contains`, `len`, `ids` and `small_needles` against a `HashSet` over
        /// lists that hold 0, `u32::MAX`, duplicates or nothing, with sizes
        /// on both sides of `LINEAR_PROBE_MAX` and ids dense enough for the
        /// bitmap or sparse enough for the sorted slice — the dense ones
        /// near 0, far from it, or just below `u32::MAX`, probed on both
        /// sides of their range.
        #[test]
        fn idset_membership_matches_a_hash_set(
            raw in proptest::collection::vec((0u32..5, any::<u32>()), 0..150),
            small in proptest::option::of(0usize..12),
            dup in any::<bool>(),
            region in 0usize..3,
        ) {
            let low = [0, FAR, u32::MAX - 20_100][region];
            let mut ids: Vec<u32> = raw
                .iter()
                .map(|&(kind, x)| match kind {
                    0 => low,
                    1 => u32::MAX,
                    2 => low + x % 64,
                    3 => low + x % 20_000,
                    _ => x,
                })
                .take(small.unwrap_or(usize::MAX))
                .collect();
            if dup {
                ids.extend(ids.clone());
            }
            let set = IdSet::build(ids.iter().copied());
            let want: HashSet<u32> = ids.iter().copied().collect();
            prop_assert_eq!(set.len(), want.len());
            prop_assert_eq!(set.is_empty(), want.is_empty());
            let mut sorted: Vec<u32> = want.iter().copied().collect();
            sorted.sort_unstable();
            prop_assert_eq!(set.ids().collect::<Vec<_>>(), sorted);
            for id in ids.iter().flat_map(|&i| [i.wrapping_sub(1), i, i.wrapping_add(1)]) {
                prop_assert_eq!(set.contains(id), want.contains(&id), "id {}", id);
            }
            for id in [
                0,
                1,
                63,
                64,
                65,
                4095,
                4096,
                FAR - 1,
                FAR,
                FAR + 64,
                u32::MAX - 20_101,
                u32::MAX - 1,
                u32::MAX,
            ] {
                prop_assert_eq!(set.contains(id), want.contains(&id), "id {}", id);
            }
            let needles = set.small_needles();
            prop_assert_eq!(needles.is_some(), (1..=8).contains(&want.len()));
            if let Some(lanes) = needles {
                for id in ids.iter().flat_map(|&i| [i.wrapping_sub(1), i, i.wrapping_add(1)]) {
                    let hit = lanes.iter().fold(false, |acc, &lane| acc | (lane == id));
                    prop_assert_eq!(hit, want.contains(&id), "lanes {:?} id {}", lanes, id);
                }
            }
        }
    }

    #[test]
    fn empty_kernel_is_empty() {
        assert!(FilterKernel::empty().is_empty());
        let k = FilterKernel {
            rowid_lt: Some(3),
            ..FilterKernel::empty()
        };
        assert!(!k.is_empty());
        assert_eq!(k.memory_bytes(), 0);
    }

    #[test]
    fn never_matches_detects_provably_empty_predicates() {
        assert!(!FilterKernel::empty().never_matches());
        let empty_codes = FilterKernel {
            value: Some(ValuePred::Codes(IdSet::build(std::iter::empty()))),
            ..FilterKernel::empty()
        };
        assert!(empty_codes.never_matches());
        let empty_tables = FilterKernel {
            table_in: Some(IdSet::build(std::iter::empty())),
            ..FilterKernel::empty()
        };
        assert!(empty_tables.never_matches());
        assert!(FilterKernel {
            rowid_lt: Some(0),
            ..FilterKernel::empty()
        }
        .never_matches());
        // Non-empty sets (and NOT IN, which excludes rather than selects)
        // do not short-circuit.
        let live = FilterKernel {
            value: Some(ValuePred::Codes(IdSet::build([1u32]))),
            table_not_in: Some(IdSet::build(std::iter::empty())),
            rowid_lt: Some(1),
            ..FilterKernel::empty()
        };
        assert!(!live.never_matches());
    }

    #[test]
    fn compact_is_stable() {
        let mut sel = vec![9, 1, 2, 3, 4, 5];
        compact(&mut sel, 1, |p| p % 2 == 1);
        assert_eq!(sel, vec![9, 1, 3, 5]);
        compact(&mut sel, 0, |_| false);
        assert!(sel.is_empty());
    }

    #[test]
    fn extend_range_appends_survivors() {
        let mut sel = vec![7];
        extend_range(&mut sel, 10, 20, |p| p % 3 == 0);
        assert_eq!(sel, vec![7, 12, 15, 18]);
        // Degenerate and empty ranges are no-ops.
        extend_range(&mut sel, 5, 5, |_| true);
        #[allow(clippy::reversed_empty_ranges)]
        extend_range(&mut sel, 5, 3, |_| true);
        assert_eq!(sel, vec![7, 12, 15, 18]);
        extend_filtered(&mut sel, &[3, 4, 6], |p| p != 4);
        assert_eq!(sel, vec![7, 12, 15, 18, 3, 6]);
    }

    #[test]
    fn scratch_estimate_covers_a_full_range_batch() {
        assert_eq!(ScanScratch::estimate_bytes(0), 0);
        // A sequential scan streams the whole range through one batch, so
        // the bound is the full position count.
        assert_eq!(ScanScratch::estimate_bytes(150_000), 600_000);
    }
}
