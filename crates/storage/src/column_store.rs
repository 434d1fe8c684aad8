//! Dictionary-encoded columnar engine — the commercial column store
//! analogue.

use blend_common::{FxHashMap, FxHashSet};

use crate::fact::{
    canonical_sort, decode_quadrant, scratch_component, table_ranges, FactRow, FactTable,
    MemoryBreakdown, ValueProbe, QUADRANT_NULL,
};
use crate::filter::{compact_by, extend_filtered_range, FilterKernel, IdSet, ValuePred};
use crate::stats::FactStats;

/// Column-store implementation of [`FactTable`].
///
/// `CellValue` is dictionary-encoded: the distinct normalized strings live
/// once in `dict`, and the column itself is a `Vec<u32>` of codes. The other
/// five attributes are plain column vectors (`Quadrant` packed into one
/// byte). Compared to [`crate::RowStore`] this
///
/// * shrinks the footprint (duplicated strings stored once — web-table lakes
///   are extremely repetitive), and
/// * turns IN-list probes into integer-set membership tests,
///
/// which together produce the column store's consistent win in the paper's
/// runtime figures.
pub struct ColumnStore {
    /// Distinct values; index = dictionary code.
    dict: Vec<Box<str>>,
    /// Value lookup: string → code.
    dict_index: FxHashMap<Box<str>, u32>,
    /// Per-position dictionary codes.
    codes: Vec<u32>,
    tables: Vec<u32>,
    columns: Vec<u32>,
    rows: Vec<u32>,
    superkeys: Vec<u128>,
    quadrants: Vec<u8>,
    /// Inverted index keyed by dictionary code (dense).
    postings_by_code: Vec<Vec<u32>>,
    ranges: Vec<(u32, u32)>,
    stats: FactStats,
}

impl ColumnStore {
    /// Build the store: canonical sort, dictionary, postings, statistics.
    pub fn build(mut fact_rows: Vec<FactRow>) -> Self {
        canonical_sort(&mut fact_rows);
        let ranges = table_ranges(&fact_rows);
        let n = fact_rows.len();

        let mut dict: Vec<Box<str>> = Vec::new();
        let mut dict_index: FxHashMap<Box<str>, u32> = FxHashMap::default();
        let mut codes = Vec::with_capacity(n);
        let mut tables = Vec::with_capacity(n);
        let mut columns = Vec::with_capacity(n);
        let mut rows = Vec::with_capacity(n);
        let mut superkeys = Vec::with_capacity(n);
        let mut quadrants = Vec::with_capacity(n);
        let mut numeric_rows = 0usize;

        for r in &fact_rows {
            let code = match dict_index.get(&r.value) {
                Some(&c) => c,
                None => {
                    let c = dict.len() as u32;
                    dict.push(r.value.clone());
                    dict_index.insert(r.value.clone(), c);
                    c
                }
            };
            codes.push(code);
            tables.push(r.table);
            columns.push(r.column);
            rows.push(r.row);
            superkeys.push(r.superkey);
            quadrants.push(r.quadrant_code());
            if r.quadrant.is_some() {
                numeric_rows += 1;
            }
        }

        let mut postings_by_code: Vec<Vec<u32>> = vec![Vec::new(); dict.len()];
        for (pos, &code) in codes.iter().enumerate() {
            postings_by_code[code as usize].push(pos as u32);
        }

        let n_tables = ranges.iter().filter(|(s, e)| e > s).count();
        let stats = FactStats::compute(
            n,
            n_tables,
            postings_by_code.iter().map(Vec::len),
            numeric_rows,
        );

        ColumnStore {
            dict,
            dict_index,
            codes,
            tables,
            columns,
            rows,
            superkeys,
            quadrants,
            postings_by_code,
            ranges,
            stats,
        }
    }

    /// Dictionary size (distinct values).
    pub fn dict_len(&self) -> usize {
        self.dict.len()
    }

    /// Run the remaining predicates of a kernel as compaction passes over
    /// `sel[start..]`, one tight loop per predicate, each indexing its
    /// contiguous column array directly — dispatched through the
    /// `blend_simd` block-mask kernels ([`compact_by`] keeps the scalar
    /// twin alive as the parity oracle). `skip` names the predicate a
    /// range pass already consumed (see [`FactTable::filter_range`]);
    /// [`Pass::None`] runs them all.
    fn kernel_passes(&self, kernel: &FilterKernel, skip: Pass, sel: &mut Vec<u32>, start: usize) {
        if let Some(bound) = kernel.rowid_lt {
            if skip != Pass::RowId {
                let rows = &self.rows;
                compact_by(sel, start, |p| rows[p as usize] < bound);
            }
        }
        if let Some(set) = &kernel.table_in {
            if skip != Pass::TableIn {
                let tables = &self.tables;
                compact_by(sel, start, |p| set.contains(tables[p as usize]));
            }
        }
        if let Some(set) = &kernel.table_not_in {
            if skip != Pass::TableNotIn {
                let tables = &self.tables;
                compact_by(sel, start, |p| !set.contains(tables[p as usize]));
            }
        }
        if let Some(want_null) = kernel.quadrant_null {
            if skip != Pass::Quadrant {
                let quads = &self.quadrants;
                compact_by(sel, start, |p| {
                    (quads[p as usize] == QUADRANT_NULL) == want_null
                });
            }
        }
        if skip != Pass::Value {
            match &kernel.value {
                None => {}
                Some(ValuePred::Codes(set)) => {
                    let codes = &self.codes;
                    compact_by(sel, start, |p| set.contains(codes[p as usize]));
                }
                Some(ValuePred::Strings(set)) => {
                    // Cross-engine probe (slow path; the SQL layer always
                    // builds probes via the same engine).
                    compact_by(sel, start, |p| set.contains(self.value_at(p as usize)));
                }
            }
        }
    }

    /// Dictionary-code probe set of a kernel, when present.
    fn code_set(kernel: &FilterKernel) -> Option<&IdSet> {
        match &kernel.value {
            Some(ValuePred::Codes(set)) => Some(set),
            _ => None,
        }
    }
}

/// Which predicate a range pass already evaluated (so the compaction
/// cascade skips it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    None,
    RowId,
    TableIn,
    TableNotIn,
    Quadrant,
    Value,
}

impl FactTable for ColumnStore {
    fn engine(&self) -> &'static str {
        "Column"
    }

    fn len(&self) -> usize {
        self.codes.len()
    }

    fn n_tables(&self) -> u32 {
        self.ranges.len() as u32
    }

    #[inline]
    fn value_at(&self, pos: usize) -> &str {
        &self.dict[self.codes[pos] as usize]
    }

    #[inline]
    fn table_at(&self, pos: usize) -> u32 {
        self.tables[pos]
    }

    #[inline]
    fn column_at(&self, pos: usize) -> u32 {
        self.columns[pos]
    }

    #[inline]
    fn row_at(&self, pos: usize) -> u32 {
        self.rows[pos]
    }

    #[inline]
    fn superkey_at(&self, pos: usize) -> u128 {
        self.superkeys[pos]
    }

    #[inline]
    fn quadrant_at(&self, pos: usize) -> Option<bool> {
        decode_quadrant(self.quadrants[pos])
    }

    fn postings(&self, value: &str) -> &[u32] {
        match self.dict_index.get(value) {
            Some(&code) => &self.postings_by_code[code as usize],
            None => &[],
        }
    }

    fn table_postings(&self, table: u32) -> std::ops::Range<usize> {
        match self.ranges.get(table as usize) {
            Some(&(s, e)) => s as usize..e as usize,
            None => 0..0,
        }
    }

    fn make_probe(&self, values: &[&str]) -> ValueProbe {
        // Translate the IN-list to dictionary codes once; unknown values
        // vanish (they can never match).
        let set: FxHashSet<u32> = values
            .iter()
            .filter_map(|v| self.dict_index.get(*v).copied())
            .collect();
        ValueProbe::Codes(set)
    }

    #[inline]
    fn probe_at(&self, pos: usize, probe: &ValueProbe) -> bool {
        match probe {
            ValueProbe::Codes(set) => set.contains(&self.codes[pos]),
            ValueProbe::Strings(set) => set.contains(self.value_at(pos)),
        }
    }

    fn has_value_codes(&self) -> bool {
        true
    }

    #[inline]
    fn value_code_at(&self, pos: usize) -> Option<u32> {
        Some(self.codes[pos])
    }

    fn code_of_value(&self, value: &str) -> Option<u32> {
        self.dict_index.get(value).copied()
    }

    fn value_of_code(&self, code: u32) -> Option<&str> {
        self.dict.get(code as usize).map(|s| &**s)
    }

    fn gather_tables(&self, positions: &[u32], out: &mut Vec<u32>) {
        out.extend(positions.iter().map(|&p| self.tables[p as usize]));
    }

    fn gather_columns(&self, positions: &[u32], out: &mut Vec<u32>) {
        out.extend(positions.iter().map(|&p| self.columns[p as usize]));
    }

    fn gather_rows(&self, positions: &[u32], out: &mut Vec<u32>) {
        out.extend(positions.iter().map(|&p| self.rows[p as usize]));
    }

    fn gather_value_codes(&self, positions: &[u32], out: &mut Vec<u32>) -> bool {
        out.extend(positions.iter().map(|&p| self.codes[p as usize]));
        true
    }

    fn gather_superkeys(&self, positions: &[u32], out: &mut Vec<u128>) {
        out.extend(positions.iter().map(|&p| self.superkeys[p as usize]));
    }

    fn gather_quadrants(&self, positions: &[u32], out: &mut Vec<Option<bool>>) {
        out.extend(
            positions
                .iter()
                .map(|&p| decode_quadrant(self.quadrants[p as usize])),
        );
    }

    /// Column-at-a-time kernel evaluation: candidates land in the selection
    /// vector once, then each predicate compacts it with a branch-free pass
    /// indexing the contiguous `rows`/`tables`/`quadrants`/`codes` arrays
    /// directly — no virtual calls, no string compares (value probes are
    /// dictionary-code [`IdSet`] tests).
    fn filter_batch(&self, kernel: &FilterKernel, positions: &[u32], sel: &mut Vec<u32>) {
        if kernel.never_matches() {
            return;
        }
        let start = sel.len();
        sel.extend_from_slice(positions);
        self.kernel_passes(kernel, Pass::None, sel, start);
    }

    /// Range scans never materialize the candidate list: the first active
    /// predicate streams survivors straight off its column slice, and the
    /// rest compact the selection vector.
    fn filter_range(&self, kernel: &FilterKernel, lo: usize, hi: usize, sel: &mut Vec<u32>) {
        if hi <= lo || kernel.never_matches() {
            return;
        }
        let start = sel.len();
        // The first active predicate streams survivors straight off its
        // column slice through the value-form kernel (`extend_range_over`):
        // block loads come off the contiguous array, the keep-mask build
        // auto-vectorizes, and rejected candidates cost no store at all.
        let first = if let Some(bound) = kernel.rowid_lt {
            blend_simd::extend_range_over(sel, lo, hi, &self.rows, |r| r < bound);
            Pass::RowId
        } else if let Some(set) = &kernel.table_in {
            blend_simd::extend_range_over(sel, lo, hi, &self.tables, |t| set.contains(t));
            Pass::TableIn
        } else if let Some(set) = &kernel.table_not_in {
            blend_simd::extend_range_over(sel, lo, hi, &self.tables, |t| !set.contains(t));
            Pass::TableNotIn
        } else if let Some(want_null) = kernel.quadrant_null {
            blend_simd::extend_range_over(sel, lo, hi, &self.quadrants, |q| {
                (q == QUADRANT_NULL) == want_null
            });
            Pass::Quadrant
        } else if let Some(set) = Self::code_set(kernel) {
            // Short IN-lists (the common SC probe: a handful of dictionary
            // codes) hand their padded needle block straight to the
            // broadcast-compare kernel — no per-element set probe at all.
            if let Some(needles) = set.small_needles() {
                blend_simd::extend_range_in8(sel, lo, hi, &self.codes, &needles);
            } else {
                blend_simd::extend_range_over(sel, lo, hi, &self.codes, |c| set.contains(c));
            }
            Pass::Value
        } else if let Some(ValuePred::Strings(set)) = &kernel.value {
            extend_filtered_range(sel, lo, hi, |p| set.contains(self.value_at(p as usize)));
            Pass::Value
        } else {
            // Empty kernel: the range itself is the selection.
            sel.extend((lo..hi).map(|p| p as u32));
            return;
        };
        self.kernel_passes(kernel, first, sel, start);
    }

    fn stats(&self) -> &FactStats {
        &self.stats
    }

    fn memory_breakdown(&self) -> MemoryBreakdown {
        let box_str = std::mem::size_of::<Box<str>>();
        let dict_strings: usize = self.dict.iter().map(|s| s.len() + box_str).sum();
        // The dictionary index owns a *second* copy of every distinct
        // string (keys are cloned on insert) plus hash-bucket overhead —
        // the payload the pre-kernel estimate missed.
        let dict_index: usize = self.dict_index.keys().map(|k| k.len() + box_str + 16).sum();
        let columns = self.codes.len() * (4 + 4 + 4 + 4 + 16 + 1);
        // Posting vectors are push-grown: their spare capacity is resident
        // memory too, so charge capacity, not length (the pre-governor
        // accounting undercounted by the growth slack). The outer Vec's
        // own slack is charged the same way.
        let postings: usize = self
            .postings_by_code
            .iter()
            .map(|v| v.capacity() * 4 + std::mem::size_of::<Vec<u32>>())
            .sum::<usize>()
            + (self.postings_by_code.capacity() - self.postings_by_code.len())
                * std::mem::size_of::<Vec<u32>>();
        MemoryBreakdown {
            engine: "Column",
            components: vec![
                ("dict-strings", dict_strings),
                ("dict-index", dict_index),
                ("columns", columns),
                ("postings", postings),
                ("table-ranges", self.ranges.len() * 8),
                scratch_component(self.len()),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::sample_rows;

    #[test]
    fn dictionary_deduplicates() {
        let s = ColumnStore::build(sample_rows());
        // "berlin" and "rome" appear twice each but are stored once.
        let n_values = sample_rows().len();
        assert!(s.dict_len() < n_values);
        let berlin = s.code_of_value("berlin").expect("berlin is indexed");
        assert_eq!(s.value_of_code(berlin), Some("berlin"));
        assert!(s.code_of_value("ghost").is_none());
        assert!(s.value_of_code(s.dict_len() as u32).is_none());
    }

    #[test]
    fn postings_by_code_match_values() {
        let s = ColumnStore::build(sample_rows());
        for &p in s.postings("rome") {
            assert_eq!(s.value_at(p as usize), "rome");
        }
        assert_eq!(s.postings("rome").len(), 2);
    }

    #[test]
    fn codes_probe_filters() {
        let s = ColumnStore::build(sample_rows());
        let probe = s.make_probe(&["100", "200", "missing"]);
        assert_eq!(probe.len(), 2);
        let hits = (0..s.len()).filter(|&p| s.probe_at(p, &probe)).count();
        assert_eq!(hits, 2);
    }

    #[test]
    fn string_probe_also_accepted() {
        // Cross-engine probes should still work (slow path) — the SQL layer
        // always builds probes via the same engine, but the contract is
        // total.
        let s = ColumnStore::build(sample_rows());
        let mut set: blend_common::FxHashSet<Box<str>> = Default::default();
        set.insert("berlin".into());
        let hits = (0..s.len())
            .filter(|&p| s.probe_at(p, &ValueProbe::Strings(set.clone())))
            .count();
        assert_eq!(hits, 2);
    }

    #[test]
    fn quadrants_roundtrip() {
        let s = ColumnStore::build(sample_rows());
        let numerics = (0..s.len()).filter(|&p| s.quadrant_at(p).is_some()).count();
        assert_eq!(numerics, 7); // 3 pop cells + 4 table-2 cells
    }

    #[test]
    fn empty_store() {
        let s = ColumnStore::build(Vec::new());
        assert_eq!(s.len(), 0);
        assert_eq!(s.dict_len(), 0);
        assert!(s.postings("x").is_empty());
    }

    #[test]
    fn filter_degenerate_ranges_append_nothing_and_keep_prefix() {
        let s = ColumnStore::build(sample_rows());
        let kernel = FilterKernel {
            rowid_lt: Some(u32::MAX),
            ..FilterKernel::empty()
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
        let s = ColumnStore::build(sample_rows());
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
