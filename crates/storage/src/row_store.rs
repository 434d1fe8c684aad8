//! Tuple-at-a-time storage engine — the PostgreSQL analogue.

use blend_common::{FxHashMap, FxHashSet};

use crate::directory::Directory;
use crate::fact::{scratch_component, FactRow, FactTable, MemoryBreakdown};
use crate::filter::{extend_filtered, extend_range, FilterKernel, ValuePred};
use crate::stats::FactStats;

/// Row-store implementation of [`FactTable`].
///
/// Tuples live in one contiguous `Vec<FactRow>` with their string values
/// inline (each cell value owns an allocation — exactly the redundancy a
/// heap-file row store pays). The in-DB indexes are a hash inverted index
/// on `CellValue` and the canonical-order [`Directory`] both stores own
/// (the per-table ranges, the column runs and the row ordinals).
pub struct RowStore {
    rows: Vec<FactRow>,
    /// Inverted index: value → ascending positions.
    inverted: FxHashMap<Box<str>, Vec<u32>>,
    dir: Directory,
    stats: FactStats,
    string_bytes: usize,
}

impl RowStore {
    /// Build the store: canonical order and directory, postings (span
    /// `index.postings`), statistics.
    pub fn build(mut rows: Vec<FactRow>) -> Self {
        let dir = Directory::build(&mut rows, |_, _| {});
        let span = blend_obs::span("index.postings");
        let mut inverted: FxHashMap<Box<str>, Vec<u32>> = FxHashMap::default();
        let mut numeric_rows = 0usize;
        let mut string_bytes = 0usize;
        for (pos, r) in rows.iter().enumerate() {
            inverted
                .entry(r.value.clone())
                .or_default()
                .push(pos as u32);
            if r.quadrant.is_some() {
                numeric_rows += 1;
            }
            string_bytes += r.value.len();
        }
        drop(span);
        let stats = FactStats::compute(
            rows.len(),
            dir.present_tables(),
            inverted.values().map(Vec::len),
            numeric_rows,
        );
        RowStore {
            rows,
            inverted,
            dir,
            stats,
            string_bytes,
        }
    }
}

/// Fused scalar kernel check over one tuple: the row store has no column
/// vectors to cascade over, so its batch specialization evaluates every
/// predicate in a single pass per row — one pointer chase to the `FactRow`,
/// all fields adjacent, instead of one virtual accessor call per predicate.
#[inline]
fn keep_fact_row(kernel: &FilterKernel, r: &FactRow) -> bool {
    if let Some(bound) = kernel.rowid_lt {
        if r.row >= bound {
            return false;
        }
    }
    if let Some(set) = &kernel.table_in {
        if !set.contains(r.table) {
            return false;
        }
    }
    if let Some(set) = &kernel.table_not_in {
        if set.contains(r.table) {
            return false;
        }
    }
    if let Some(want_null) = kernel.quadrant_null {
        if r.quadrant.is_none() != want_null {
            return false;
        }
    }
    match &kernel.value {
        None => true,
        Some(ValuePred::Strings(set)) => set.contains(r.value.as_ref()),
        Some(ValuePred::Codes(_)) => codes_on_a_row_store(),
    }
}

/// A codes predicate can only come from a dictionary engine: a logic error
/// surfaced in debug builds, a non-match in release.
fn codes_on_a_row_store() -> bool {
    debug_assert!(false, "codes predicate against a row store");
    false
}

impl FactTable for RowStore {
    fn engine(&self) -> &'static str {
        "Row"
    }

    fn directory(&self) -> &Directory {
        &self.dir
    }

    #[inline]
    fn value_at(&self, pos: usize) -> &str {
        &self.rows[pos].value
    }

    #[inline]
    fn table_at(&self, pos: usize) -> u32 {
        self.rows[pos].table
    }

    #[inline]
    fn column_at(&self, pos: usize) -> u32 {
        self.rows[pos].column
    }

    #[inline]
    fn row_at(&self, pos: usize) -> u32 {
        self.rows[pos].row
    }

    #[inline]
    fn superkey_at(&self, pos: usize) -> u128 {
        self.rows[pos].superkey
    }

    #[inline]
    fn quadrant_at(&self, pos: usize) -> Option<bool> {
        self.rows[pos].quadrant
    }

    fn postings(&self, value: &str) -> &[u32] {
        self.inverted.get(value).map_or(&[], Vec::as_slice)
    }

    fn make_probe(&self, values: &[&str]) -> ValuePred {
        // The row store has no dictionary: keep (deduplicated) owned strings
        // and hash-compare per position.
        let set: FxHashSet<Box<str>> = values
            .iter()
            .filter(|v| self.inverted.contains_key(**v))
            .map(|v| Box::from(*v))
            .collect();
        ValuePred::Strings(set)
    }

    #[inline]
    fn probe_at(&self, pos: usize, probe: &ValuePred) -> bool {
        match probe {
            ValuePred::Strings(set) => set.contains(self.rows[pos].value.as_ref()),
            ValuePred::Codes(_) => codes_on_a_row_store(),
        }
    }

    /// Single fused pass (an empty kernel copies): every predicate is
    /// evaluated in one tuple check per candidate (see `keep_fact_row`) — one pointer chase to the
    /// `FactRow`, all fields adjacent, instead of one virtual accessor
    /// call per predicate — streamed through [`extend_filtered`].
    fn filter_batch(&self, kernel: &FilterKernel, positions: &[u32], sel: &mut Vec<u32>) {
        if kernel.never_matches() {
            return;
        }
        if kernel.is_empty() {
            return sel.extend_from_slice(positions);
        }
        let rows = &self.rows;
        extend_filtered(sel, positions, |p| keep_fact_row(kernel, &rows[p as usize]));
    }

    fn filter_range(&self, kernel: &FilterKernel, lo: usize, hi: usize, sel: &mut Vec<u32>) {
        if kernel.never_matches() {
            return;
        }
        if kernel.is_empty() {
            return sel.extend((lo..hi).map(|p| p as u32));
        }
        let rows = &self.rows;
        extend_range(sel, lo, hi, |p| keep_fact_row(kernel, &rows[p as usize]));
    }

    fn stats(&self) -> &FactStats {
        &self.stats
    }

    fn memory_breakdown(&self) -> MemoryBreakdown {
        // Tuples: struct + heap string per row, plus spare capacity in the
        // row vector itself (push-grown, so up to ~2x the live length).
        let tuples = self.rows.capacity() * std::mem::size_of::<FactRow>() + self.string_bytes;
        // Inverted index: key strings + posting vectors (capacity, not len —
        // push-grown vectors carry spare capacity) + bucket overhead.
        let inverted: usize = self
            .inverted
            .iter()
            .map(|(k, v)| k.len() + std::mem::size_of::<Box<str>>() + v.capacity() * 4 + 48)
            .sum();
        let mut components = vec![("tuples", tuples), ("inverted-index", inverted)];
        components.extend(self.dir.components());
        components.push(scratch_component(self.len()));
        MemoryBreakdown {
            engine: "Row",
            components,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::sample_rows;

    #[test]
    fn postings_are_sorted_positions_of_value() {
        let s = RowStore::build(sample_rows());
        let ps = s.postings("berlin");
        assert_eq!(ps.len(), 2);
        assert!(ps.windows(2).all(|w| w[0] < w[1]));
        for &p in ps {
            assert_eq!(s.value_at(p as usize), "berlin");
        }
        assert!(s.postings("nonexistent").is_empty());
    }

    #[test]
    fn table_ranges_contain_only_their_table() {
        let s = RowStore::build(sample_rows());
        for t in 0..s.n_tables() {
            for pos in s.directory().table_postings(t) {
                assert_eq!(s.table_at(pos), t);
            }
        }
        // Out-of-range table id yields an empty range, not a panic.
        assert!(s.directory().table_postings(99).is_empty());
    }

    #[test]
    fn probe_matches_in_list_semantics() {
        let s = RowStore::build(sample_rows());
        let probe = s.make_probe(&["berlin", "rome", "ghost-value"]);
        // ghost-value filtered at probe build
        assert!(matches!(&probe, ValuePred::Strings(set) if set.len() == 2));
        let hits: Vec<usize> = (0..s.len()).filter(|&p| s.probe_at(p, &probe)).collect();
        assert_eq!(hits.len(), 4); // berlin x2, rome x2
        for p in hits {
            assert!(matches!(s.value_at(p), "berlin" | "rome"));
        }
    }

    #[test]
    fn stats_reflect_content() {
        let s = RowStore::build(sample_rows());
        assert_eq!(s.stats().n_rows, s.len());
        assert_eq!(s.stats().n_tables, 3);
        assert!(s.stats().numeric_fraction > 0.0);
        assert_eq!(s.postings("berlin").len(), 2);
    }

    #[test]
    fn empty_store() {
        let s = RowStore::build(Vec::new());
        assert!(s.is_empty());
        assert_eq!(s.n_tables(), 0);
        assert!(s.postings("x").is_empty());
        // Only the directory's end markers: the first row ordinal and the
        // first position past the last run.
        assert_eq!(s.size_bytes(), 8);
    }

    #[test]
    fn filter_degenerate_ranges_append_nothing_and_keep_prefix() {
        let s = RowStore::build(sample_rows());
        let kernel = FilterKernel {
            rowid_lt: Some(u32::MAX),
            ..FilterKernel::default()
        };
        // lo == hi and reversed ranges: no-ops that never touch sel[..start].
        let mut sel = vec![7u32, 8];
        s.filter_range(&kernel, 3, 3, &mut sel);
        s.filter_range(&kernel, 5, 2, &mut sel);
        assert_eq!(sel, vec![7, 8]);
        // Empty position batch: same contract.
        s.filter_batch(&kernel, &[], &mut sel);
        assert_eq!(sel, vec![7, 8]);
        // A selection vector already at capacity must keep its prefix
        // bytes across the (reallocating) append.
        let mut sel: Vec<u32> = Vec::with_capacity(2);
        sel.extend([7u32, 8]);
        s.filter_range(&kernel, 0, s.len(), &mut sel);
        assert_eq!(&sel[..2], &[7, 8]);
        assert_eq!(sel.len(), 2 + s.len());
    }

    #[test]
    fn gather_superkeys_and_quadrants_match_scalar_accessors() {
        let s = RowStore::build(sample_rows());
        let positions: Vec<u32> = (0..s.len() as u32).rev().collect();
        let mut sks = Vec::new();
        s.gather_superkeys(&positions, &mut sks);
        let mut quads = Vec::new();
        s.gather_quadrants(&positions, &mut quads);
        for (i, &p) in positions.iter().enumerate() {
            assert_eq!(sks[i], s.superkey_at(p as usize));
            assert_eq!(quads[i], s.quadrant_at(p as usize));
        }
    }
}
