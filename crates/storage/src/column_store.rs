//! Dictionary-encoded columnar engine — the commercial column store
//! analogue.

use crate::directory::Directory;
use crate::fact::{
    decode_quadrant, scratch_component, FactRow, FactTable, MemoryBreakdown, Resolved,
    QUADRANT_NULL,
};
use crate::filter::{compact, extend_range, FilterKernel, IdSet, ValuePred};
use crate::hashtable::{DenseKey, GroupIndex};
use crate::radix::{radix_partition, RadixPartitions};
use crate::stats::FactStats;

/// Column-store implementation of [`FactTable`].
///
/// `CellValue` is dictionary-encoded: the distinct normalized strings live
/// once in `dict`, a [`GroupIndex`] whose ids are the codes, and the column
/// itself is a `Vec<u32>` of codes. Every other attribute is stored once
/// per thing it belongs to: `Quadrant` per cell (one byte), `SuperKey` per
/// row (a super key is the XASH of its row), and `TableId`, `ColumnId` and
/// `RowId` in the [`Directory`] — per run and per row, which a cell reaches
/// through its run and row ordinals. Compared to [`crate::RowStore`] this
///
/// * shrinks the footprint (duplicated strings stored once — web-table lakes
///   are extremely repetitive), and
/// * turns IN-list probes into integer-set membership tests,
///
/// which together produce the column store's consistent win in the paper's
/// runtime figures.
///
/// Layout, as [`memory_breakdown`](FactTable::memory_breakdown) charges it
/// — `n` cells, `r` rows (distinct (`TableId`, `RowId`) pairs), `d`
/// distinct values, `E` distinct (value, run) pairs; every vector is held
/// at exact capacity:
///
/// | component      | contents                                              | bytes                  |
/// |----------------|-------------------------------------------------------|------------------------|
/// | `dict-strings` | `dict`'s keys: one `Box<str>` per distinct value      | `16 d + Σ len`         |
/// | `dict-index`   | `dict`'s slots: `u32` codes by string hash, ≤ half full | `4 · (2d)↑2`         |
/// | `cells`        | per cell: code (`u32`), quadrant (`u8`)               | `5 n`                  |
/// | `superkeys`    | per row ordinal: super key (`u128`)                   | `16 r`                 |
/// | `postings`     | per code, its ascending positions ([`RadixPartitions`]) | `4 (d + 1) + 4 n`    |
/// | `column-index` | per code, its ascending runs ([`ColumnIndex`])         | `4 (d + 1) + 4 E`     |
///
/// (`(2d)↑2` is the next power of two at or above `2d`, at least 2.) Plus
/// the [`Directory`]'s components (`8 n + 12 R + 4 r + 12 T + 8` over `R`
/// runs and `T` table ids) and the `scan-scratch` estimate both
/// engines charge.
pub struct ColumnStore {
    /// Distinct values numbered by first sight in canonical order: id =
    /// dictionary code, and `&str` lookups find the code.
    dict: GroupIndex<Box<str>>,
    /// Per position: dictionary code and quadrant.
    codes: Vec<u32>,
    quadrants: Vec<u8>,
    /// Per row ordinal: super key.
    superkeys: Vec<u128>,
    /// Inverted index keyed by dictionary code: ascending positions.
    postings: RadixPartitions,
    /// Per dictionary code, its runs.
    column_index: ColumnIndex,
    dir: Directory,
    stats: FactStats,
}

impl ColumnStore {
    /// Build the store: the [`Directory`]'s one pass over canonical order
    /// fills the dictionary and the per-cell and per-row arrays beside it,
    /// then postings and the column index are counting-sorted by code (span
    /// `index.postings`), then statistics.
    ///
    /// The dictionary copies each value at its first sight, so its strings
    /// lie in code order. The fact rows are dropped before the indexes are
    /// sorted, so the build's high-water mark is the rows plus the plain
    /// arrays, never the rows beside the indexes.
    pub fn build(mut fact_rows: Vec<FactRow>) -> Self {
        let n = fact_rows.len();
        let fits = "the dictionary fits in memory";
        let mut dict = GroupIndex::with_capacity(0).expect(fits);
        let mut codes = Vec::with_capacity(n);
        let mut quadrants = Vec::with_capacity(n);
        let (mut superkeys, mut numeric_rows) = (Vec::new(), 0usize);
        let dir = Directory::build(&mut fact_rows, |r, ord| {
            let hash = r.value.hash64();
            codes.push(match dict.get_hashed(&*r.value, hash) {
                Some(code) => code,
                None => dict
                    .insert_or_get_hashed(r.value.clone(), hash)
                    .expect(fits),
            });
            let ord = ord as usize;
            if ord >= superkeys.len() {
                superkeys.resize(ord + 1, 0);
            }
            superkeys[ord] = r.superkey;
            quadrants.push(r.quadrant_code());
            numeric_rows += usize::from(r.quadrant.is_some());
        });
        drop(fact_rows);
        dict.shrink_to_fit();
        superkeys.shrink_to_fit();
        let span = blend_obs::span("index.postings");
        let (postings, runs_of) = index_codes(&codes, &dir, dict.len());
        drop(span);
        let stats = FactStats::compute(
            n,
            dir.present_tables(),
            (0..dict.len()).map(|c| postings.part(c).len()),
            numeric_rows,
        );
        ColumnStore {
            dict,
            codes,
            quadrants,
            superkeys,
            postings,
            column_index: ColumnIndex { runs_of },
            dir,
            stats,
        }
    }

    /// Dictionary size (distinct values).
    pub fn dict_len(&self) -> usize {
        self.dict.len()
    }

    /// Run the remaining predicates of a kernel as compaction passes over
    /// `sel[start..]`, one tight [`compact`] loop per predicate, each
    /// reading its attribute through the cell's array (and, for `RowId`
    /// and `TableId`, the row's or the run's). `skip` names the
    /// predicate a range pass already consumed (see
    /// [`FactTable::filter_range`]); [`Pass::None`] runs them all.
    fn kernel_passes(&self, kernel: &FilterKernel, skip: Pass, sel: &mut Vec<u32>, start: usize) {
        if let Some(bound) = kernel.rowid_lt {
            if skip != Pass::RowId {
                compact(sel, start, |p| self.row_at(p as usize) < bound);
            }
        }
        if let Some(set) = &kernel.table_in {
            if skip != Pass::TableIn {
                compact(sel, start, |p| set.contains(self.table_at(p as usize)));
            }
        }
        if let Some(set) = &kernel.table_not_in {
            if skip != Pass::TableNotIn {
                compact(sel, start, |p| !set.contains(self.table_at(p as usize)));
            }
        }
        if let Some(want_null) = kernel.quadrant_null {
            if skip != Pass::Quadrant {
                let quads = &self.quadrants;
                compact(sel, start, |p| {
                    (quads[p as usize] == QUADRANT_NULL) == want_null
                });
            }
        }
        if skip != Pass::Value {
            match &kernel.value {
                None => {}
                Some(ValuePred::Codes(set)) => {
                    let codes = &self.codes;
                    compact(sel, start, |p| set.contains(codes[p as usize]));
                }
                Some(ValuePred::Strings(set)) => {
                    // Cross-engine probe (slow path; the SQL layer always
                    // builds probes via the same engine).
                    compact(sel, start, |p| set.contains(self.value_at(p as usize)));
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

/// Value → column index of the column store: the set-overlap index the SC
/// and KW seekers ask (how many query values does each column, or table,
/// hold). Per dictionary code it lists, ascending, the ordinals of the
/// [`Directory`]'s runs that hold the value: each (value, column) pair
/// once, however often the value repeats inside the column.
#[derive(Debug)]
pub struct ColumnIndex {
    /// Per dictionary code, its ascending run ordinals.
    runs_of: RadixPartitions,
}

impl ColumnIndex {
    /// Ascending ordinals of the runs holding dictionary code `code`
    /// (empty for an unknown code).
    #[inline]
    pub fn ordinals(&self, code: u32) -> &[u32] {
        match code as usize {
            c if c < self.runs_of.n_parts() => self.runs_of.part(c),
            _ => &[],
        }
    }
}

/// Postings and the column index's runs per code, both keyed by dictionary
/// code and both counting-sorted by it ([`radix_partition`]): the column
/// index sorts one (code, run) pair per value's first cell in each run —
/// found in one pass over the directory's per-cell runs with a per-code
/// "last run" — and keeps the runs; the postings sort every position. The
/// pairs (at most one per position) are dropped before the postings are
/// sorted, so the build never holds both.
fn index_codes(
    codes: &[u32],
    dir: &Directory,
    n_codes: usize,
) -> (RadixPartitions, RadixPartitions) {
    let fits = "the store's indexes fit in memory";
    let mut pair_codes = Vec::with_capacity(codes.len());
    let mut pair_runs = Vec::with_capacity(codes.len());
    let mut last_run = vec![u32::MAX; n_codes];
    for (&code, &run) in codes.iter().zip(dir.cell_run_ordinals()) {
        if std::mem::replace(&mut last_run[code as usize], run) != run {
            pair_codes.push(code);
            pair_runs.push(run);
        }
    }
    drop(last_run);
    let runs_of = radix_partition(&pair_codes, n_codes).expect(fits);
    drop(pair_codes);
    let runs_of = runs_of.map_items(&pair_runs);
    drop(pair_runs);
    (radix_partition(codes, n_codes).expect(fits), runs_of)
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

    fn directory(&self) -> &Directory {
        &self.dir
    }

    #[inline]
    fn value_at(&self, pos: usize) -> &str {
        &self.dict.keys()[self.codes[pos] as usize]
    }

    #[inline]
    fn table_at(&self, pos: usize) -> u32 {
        self.dir.key_at(pos).0
    }

    #[inline]
    fn column_at(&self, pos: usize) -> u32 {
        self.dir.key_at(pos).1
    }

    #[inline]
    fn row_at(&self, pos: usize) -> u32 {
        self.dir.row_at(pos)
    }

    #[inline]
    fn superkey_at(&self, pos: usize) -> u128 {
        self.superkeys[self.dir.row_ordinal_at(pos) as usize]
    }

    #[inline]
    fn quadrant_at(&self, pos: usize) -> Option<bool> {
        decode_quadrant(self.quadrants[pos])
    }

    fn postings(&self, value: &str) -> &[u32] {
        self.dict.get(value).map_or(&[], |c| self.code_postings(c))
    }

    fn resolve<'a>(&'a self, values: &[&str], postings: bool, out: &mut Vec<Resolved<'a>>) {
        self.dict.get_batch(values, |code| {
            let postings = match (code, postings) {
                (Some(c), true) => self.postings.part(c as usize),
                _ => &[],
            };
            out.push(Resolved { code, postings });
        });
    }

    fn has_dictionary(&self) -> bool {
        true
    }

    fn code_postings(&self, code: u32) -> &[u32] {
        match (code as usize) < self.dict.len() {
            true => self.postings.part(code as usize),
            false => &[],
        }
    }

    fn make_probe(&self, values: &[&str]) -> ValuePred {
        ValuePred::Codes(IdSet::build(
            values.iter().filter_map(|v| self.dict.get(*v)),
        ))
    }

    #[inline]
    fn probe_at(&self, pos: usize, probe: &ValuePred) -> bool {
        match probe {
            ValuePred::Codes(set) => set.contains(self.codes[pos]),
            ValuePred::Strings(set) => set.contains(self.value_at(pos)),
        }
    }

    fn value_of_code(&self, code: u32) -> Option<&str> {
        self.dict.keys().get(code as usize).map(|s| &**s)
    }

    fn column_index(&self) -> Option<&ColumnIndex> {
        Some(&self.column_index)
    }

    fn gather_value_codes(&self, positions: &[u32], out: &mut Vec<u32>) -> bool {
        out.extend(positions.iter().map(|&p| self.codes[p as usize]));
        true
    }

    /// Column-at-a-time kernel evaluation: candidates land in the selection
    /// vector once, then each predicate compacts it with a branch-free pass
    /// over the cells' `codes`/`quadrants` arrays, or the directory's
    /// `RowId`s and `TableId`s — no virtual calls, no string
    /// compares (value probes are dictionary-code [`IdSet`] tests).
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
        // column slice, and the rest compact them.
        let first = if let Some(bound) = kernel.rowid_lt {
            extend_range(sel, lo, hi, |p| self.row_at(p as usize) < bound);
            Pass::RowId
        } else if let Some(set) = &kernel.table_in {
            extend_range(sel, lo, hi, |p| set.contains(self.table_at(p as usize)));
            Pass::TableIn
        } else if let Some(set) = &kernel.table_not_in {
            extend_range(sel, lo, hi, |p| !set.contains(self.table_at(p as usize)));
            Pass::TableNotIn
        } else if let Some(want_null) = kernel.quadrant_null {
            let quads = &self.quadrants;
            extend_range(sel, lo, hi, |p| {
                (quads[p as usize] == QUADRANT_NULL) == want_null
            });
            Pass::Quadrant
        } else if let Some(set) = Self::code_set(kernel) {
            // Short IN-lists (the common SC probe: a handful of dictionary
            // codes) hand their padded needle block straight to the
            // broadcast-compare kernel — no per-element set probe at all.
            if let Some(needles) = set.small_needles() {
                blend_simd::extend_range_in8(sel, lo, hi, &self.codes, &needles);
            } else {
                let codes = &self.codes;
                extend_range(sel, lo, hi, |p| set.contains(codes[p as usize]));
            }
            Pass::Value
        } else if let Some(ValuePred::Strings(set)) = &kernel.value {
            extend_range(sel, lo, hi, |p| set.contains(self.value_at(p as usize)));
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

    /// The capacities held, per component of the layout table on
    /// [`ColumnStore`].
    fn memory_breakdown(&self) -> MemoryBreakdown {
        let dict_strings = self.dict.key_capacity() * std::mem::size_of::<Box<str>>()
            + self.dict.keys().iter().map(|s| s.len()).sum::<usize>();
        let mut components = vec![
            ("dict-strings", dict_strings),
            ("dict-index", self.dict.slot_count() * 4),
            (
                "cells",
                self.codes.capacity() * 4 + self.quadrants.capacity(),
            ),
            ("superkeys", self.superkeys.capacity() * 16),
            ("postings", self.postings.heap_bytes()),
            ("column-index", self.column_index.runs_of.heap_bytes()),
        ];
        components.extend(self.dir.components());
        components.push(scratch_component(self.len()));
        MemoryBreakdown {
            engine: "Column",
            components,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::canonical_sort;
    use crate::test_support::sample_rows;
    use proptest::prelude::*;

    #[test]
    fn dictionary_deduplicates() {
        let s = ColumnStore::build(sample_rows());
        // "berlin" and "rome" appear twice each but are stored once.
        let n_values = sample_rows().len();
        assert!(s.dict_len() < n_values);
        let berlin = s.dict.get("berlin").expect("berlin is indexed");
        assert_eq!(s.value_of_code(berlin), Some("berlin"));
        assert!(s.dict.get("ghost").is_none());
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
        assert!(matches!(&probe, ValuePred::Codes(set) if set.len() == 2));
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
            .filter(|&p| s.probe_at(p, &ValuePred::Strings(set.clone())))
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

    /// Fact rows over table ids with gaps (`3t`: two ids in three hold no
    /// cell, and a generated table may have none either), sparse
    /// `ColumnId`s, and values from a vocabulary of `vocab` — repeated
    /// inside a column and across columns, and, at the larger sizes, far
    /// more distinct values than a small dictionary index holds without its
    /// probes colliding.
    fn sparse_rows(seed: u64, n_tables: u32, vocab: u64) -> Vec<FactRow> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut rows = Vec::new();
        for t in 0..n_tables {
            for c in 0..next() % 4 {
                let column = c as u32 * 1_000 + (next() % 1_000) as u32;
                for r in 0..next() % 6 {
                    let value = format!("v{}", next() % vocab);
                    let quadrant = (next() % 3 == 0).then_some(r % 2 == 0);
                    rows.push(FactRow::new(&value, 3 * t, column, r as u32, 0, quadrant));
                }
            }
        }
        rows
    }

    /// Fact rows for the accessor test: table ids with gaps (`3t`, and a
    /// generated table may hold no cell), sparse `ColumnId`s, null gaps (a
    /// cell in four is dropped), a super key per (table, row), a one-cell
    /// table past the others and, in table 0, a cell at `RowId`
    /// `u32::MAX - 1`.
    fn gapped_rows(seed: u64, n_tables: u32, vocab: u64) -> Vec<FactRow> {
        let mut rows = sparse_rows(seed, n_tables, vocab);
        rows.retain(|r| (r.row + r.column + seed as u32) % 4 != 3);
        rows.push(FactRow::new("v0", 0, 7, u32::MAX - 1, 0, None));
        rows.push(FactRow::new("one", 3 * n_tables + 1, 5, 2, 0, Some(true)));
        for r in &mut rows {
            r.superkey = (r.table as u128) << 64 | r.row as u128 ^ seed as u128;
        }
        rows
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// CSR postings, the column index and the dictionary against a
        /// brute-force reading of the store's own accessors, and the memory
        /// breakdown against the capacities the store holds.
        #[test]
        fn indexes_match_brute_force_and_are_charged_exactly(
            seed in any::<u64>(),
            n_tables in 0u32..12,
            vocab in 1u64..300,
        ) {
            let s = ColumnStore::build(sparse_rows(seed, n_tables, vocab));
            let dir = s.directory();
            let keys: Vec<(u32, u32)> = (0..s.len()).map(|p| (s.table_at(p), s.column_at(p))).collect();
            // Run ordinal of every position: canonical order, numbered at
            // each key change.
            let mut run_of = Vec::with_capacity(keys.len());
            for p in 0..keys.len() {
                let run = run_of.last().copied().unwrap_or(0);
                run_of.push(if p > 0 && keys[p] != keys[p - 1] { run + 1 } else { run });
            }
            let index = s.column_index().expect("the column store has a column index");
            prop_assert_eq!(dir.runs(), run_of.last().map_or(0, |&r| r as usize + 1));
            for code in 0..s.dict_len() as u32 {
                let value = s.value_of_code(code).expect("dictionary code");
                prop_assert_eq!(s.dict.get(value), Some(code));
                let want: Vec<u32> = (0..s.len() as u32)
                    .filter(|&p| s.value_at(p as usize) == value)
                    .collect();
                prop_assert_eq!(s.postings(value), &want[..]);
                let mut runs: Vec<u32> = want.iter().map(|&p| run_of[p as usize]).collect();
                runs.dedup();
                prop_assert_eq!(index.ordinals(code), &runs[..]);
                for &p in &want {
                    prop_assert_eq!(dir.key(run_of[p as usize]), keys[p as usize]);
                }
            }
            for absent in ["", "v", "absent", "v-1", &format!("v{vocab}")] {
                prop_assert_eq!(s.dict.get(absent), None);
                prop_assert!(s.postings(absent).is_empty());
            }
            prop_assert!(index.ordinals(s.dict_len() as u32).is_empty());

            // Exact capacity: the build leaves no growth slack behind (the
            // directory's components are pinned to their lengths below).
            let csr_len = |c: &RadixPartitions| 4 * (c.offsets().len() + c.items().len());
            for (len, cap) in [
                (csr_len(&s.postings), s.postings.heap_bytes()),
                (csr_len(&index.runs_of), index.runs_of.heap_bytes()),
                (s.superkeys.len(), s.superkeys.capacity()),
                (s.dict.len(), s.dict.key_capacity()),
            ] {
                prop_assert_eq!(len, cap);
            }
            let (d, n, t) = (s.dict_len(), s.len(), s.n_tables() as usize);
            let mut pairs: Vec<(u32, u32)> = (0..n).map(|p| (s.table_at(p), s.row_at(p))).collect();
            pairs.sort_unstable();
            pairs.dedup();
            let entries: usize = (0..d as u32).map(|c| index.ordinals(c).len()).sum();
            let strings: usize = (0..d as u32).map(|c| s.value_of_code(c).map_or(0, str::len)).sum();
            let breakdown = s.memory_breakdown();
            let charged = |name: &str| breakdown.get(name).expect("component");
            prop_assert_eq!(charged("dict-strings"), 16 * d + strings);
            prop_assert_eq!(charged("dict-index"), 4 * (2 * d).next_power_of_two().max(2));
            prop_assert_eq!(charged("cells"), 5 * n);
            prop_assert_eq!(charged("superkeys"), 16 * pairs.len());
            prop_assert_eq!(charged("postings"), 4 * (d + 1) + 4 * n);
            prop_assert_eq!(charged("column-index"), 4 * (d + 1) + 4 * entries);
            prop_assert_eq!(charged("table-ranges"), 8 * t);
            prop_assert_eq!(charged("runs"), 12 * dir.runs() + 4);
            prop_assert_eq!(charged("row-directory"), 4 * (t + 1) + 4 * pairs.len());
            prop_assert_eq!(charged("cell-ordinals"), 8 * n);
        }

        /// Every accessor of both stores against a scan of the input rows in
        /// canonical order: the point accessors, every gather, and the
        /// directory — both stores build equal ones, whose column runs,
        /// `locate` (rows asked out of order, absent, far) and row ordinals
        /// (a bijection of the present (table, row) pairs onto `0..rows`
        /// that ascends with them) each store answers alike.
        #[test]
        fn accessors_match_a_scan_of_the_input_on_both_stores(
            seed in any::<u64>(),
            n_tables in 0u32..8,
            vocab in 1u64..50,
        ) {
            let mut want = gapped_rows(seed, n_tables, vocab);
            canonical_sort(&mut want);
            let stores: [Box<dyn FactTable>; 2] = [
                Box::new(ColumnStore::build(want.clone())),
                Box::new(crate::RowStore::build(want.clone())),
            ];
            prop_assert_eq!(stores[0].directory(), stores[1].directory());
            let n = want.len();
            let mut positions: Vec<u32> = (0..n as u32).rev().collect();
            positions.extend((0..n as u32).filter(|p| p % 3 == seed as u32 % 3));
            let picked = |f: &dyn Fn(&FactRow) -> u32| -> Vec<u32> {
                positions.iter().map(|&p| f(&want[p as usize])).collect()
            };
            let asked: Vec<u32> = vec![5, 0, 3, 1, 4, 2, 9, u32::MAX - 1, u32::MAX];
            let mut columns: Vec<u32> = want.iter().map(|r| r.column).chain([1, 999_999]).collect();
            columns.sort_unstable();
            columns.dedup();
            let mut pairs: Vec<(u32, u32)> = want.iter().map(|r| (r.table, r.row)).collect();
            pairs.sort_unstable();
            pairs.dedup();
            for s in &stores {
                let engine = s.engine();
                prop_assert_eq!(s.len(), n);
                for (p, r) in want.iter().enumerate() {
                    prop_assert_eq!(s.value_at(p), &*r.value, "{} {}", engine, p);
                    prop_assert_eq!(s.table_at(p), r.table, "{} {}", engine, p);
                    prop_assert_eq!(s.column_at(p), r.column, "{} {}", engine, p);
                    prop_assert_eq!(s.row_at(p), r.row, "{} {}", engine, p);
                    prop_assert_eq!(s.superkey_at(p), r.superkey, "{} {}", engine, p);
                    prop_assert_eq!(s.quadrant_at(p), r.quadrant, "{} {}", engine, p);
                }
                let mut got = vec![7u32];
                s.gather_tables(&positions, &mut got);
                prop_assert_eq!(&got[1..], &picked(&|r| r.table)[..], "{}", engine);
                got.truncate(1);
                s.gather_columns(&positions, &mut got);
                prop_assert_eq!(&got[1..], &picked(&|r| r.column)[..], "{}", engine);
                got.truncate(1);
                s.gather_rows(&positions, &mut got);
                prop_assert_eq!(&got[1..], &picked(&|r| r.row)[..], "{}", engine);
                got.truncate(1);
                if s.gather_value_codes(&positions, &mut got) {
                    for (&code, &p) in got[1..].iter().zip(&positions) {
                        prop_assert_eq!(s.value_of_code(code), Some(&*want[p as usize].value));
                    }
                } else {
                    prop_assert_eq!(&got, &[7u32]);
                }
                let mut superkeys = vec![7u128];
                s.gather_superkeys(&positions, &mut superkeys);
                let sks: Vec<u128> = positions.iter().map(|&p| want[p as usize].superkey).collect();
                prop_assert_eq!(&superkeys[1..], &sks[..], "{}", engine);
                let mut quadrants = vec![None];
                s.gather_quadrants(&positions, &mut quadrants);
                let qs: Vec<Option<bool>> = positions.iter().map(|&p| want[p as usize].quadrant).collect();
                prop_assert_eq!(&quadrants[1..], &qs[..], "{}", engine);

                let dir = s.directory();
                for table in 0..3 * n_tables + 3 {
                    let mut runs = vec![(7, 7)];
                    dir.column_runs(table, &mut runs);
                    let mut scan: Vec<(u32, u32)> = Vec::new();
                    for p in (0..n).filter(|&p| want[p].table == table) {
                        match scan.last_mut() {
                            Some(last) if last.0 == want[p].column => last.1 = p as u32 + 1,
                            _ => scan.push((want[p].column, p as u32 + 1)),
                        }
                    }
                    prop_assert_eq!(&runs[..1], &[(7, 7)]);
                    prop_assert_eq!(&runs[1..], &scan[..], "{} t{}", engine, table);
                    for &column in &columns {
                        let mut got = vec![Some(7)];
                        dir.locate(table, column, &asked, &mut got);
                        let found = asked.iter().map(|&r| {
                            (want.iter().position(|w| (w.table, w.column, w.row) == (table, column, r)))
                                .map(|p| p as u32)
                        });
                        let found: Vec<Option<u32>> = std::iter::once(Some(7)).chain(found).collect();
                        prop_assert_eq!(got, found, "{} t{} c{}", engine, table, column);
                    }
                }

                let all: Vec<u32> = (0..n as u32).collect();
                let mut ords = vec![7];
                let space = dir.row_ordinals(&all, &mut ords);
                prop_assert_eq!(space, pairs.len(), "{}", engine);
                prop_assert_eq!(ords[0], 7);
                for (p, &ord) in ords[1..].iter().enumerate() {
                    let pair = (want[p].table, want[p].row);
                    prop_assert_eq!(pairs.binary_search(&pair), Ok(ord as usize), "{} {}", engine, p);
                }
            }
        }

        /// Each value's postings on the row store, mapped to their runs
        /// ([`Directory::cell_runs`]), are its column-index list on the
        /// column store — the run lists the SC/KW walk reads on each.
        #[test]
        fn postings_derived_runs_are_the_column_index_lists(
            seed in any::<u64>(),
            n_tables in 0u32..12,
            vocab in 1u64..300,
        ) {
            let rows = gapped_rows(seed, n_tables, vocab);
            let column = ColumnStore::build(rows.clone());
            let row = crate::RowStore::build(rows);
            prop_assert!(row.column_index().is_none());
            let index = column.column_index().expect("the column store has a column index");
            let mut runs = Vec::new();
            for code in 0..=column.dict_len() as u32 {
                let value = column.value_of_code(code).unwrap_or("absent");
                runs.clear();
                row.directory().cell_runs(row.postings(value), &mut runs);
                prop_assert_eq!(&runs[..], index.ordinals(code), "{}", value);
            }
        }
    }
}
