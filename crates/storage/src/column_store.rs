//! Dictionary-encoded columnar engine — the commercial column store
//! analogue.

use blend_common::hash::hash_str;
use blend_common::FxHashMap;

use crate::fact::{
    canonical_sort, decode_quadrant, scratch_component, table_ranges, FactRow, FactTable,
    MemoryBreakdown, QUADRANT_NULL,
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
///
/// Layout, as [`memory_breakdown`](FactTable::memory_breakdown) charges it
/// — `n` cells, `d` distinct values, `R` (`TableId`, `ColumnId`) runs of
/// canonical order, `E` distinct (value, run) pairs, `T` table ids; every
/// vector is held at exact capacity:
///
/// | component      | contents                                              | bytes                  |
/// |----------------|-------------------------------------------------------|------------------------|
/// | `dict-strings` | `dict`: one `Box<str>` per distinct value              | `16 d + Σ len`         |
/// | `dict-index`   | `dict_index`: `u32` codes by string hash, ≤ half full | `4 · (2d)↑2`           |
/// | `columns`      | codes, tables, columns, rows (`u32`), super keys (`u128`), quadrants (`u8`) | `33 n` |
/// | `postings`     | per code, its ascending positions (CSR)               | `4 (d + 1) + 4 n`      |
/// | `column-index` | per run its key; per code, its ascending runs ([`ColumnIndex`]) | `8 R + 4 (d + 1) + 4 E` |
/// | `table-ranges` | per table id, its position range                      | `8 T`                  |
/// | `row-directory` | per table id, the row ordinal of its `RowId` 0 (`row_base`) | `4 T`, or 0 without one |
///
/// (`(2d)↑2` is the next power of two at or above `2d`, at least 2.) Plus
/// the per-worker `scan-scratch` estimate both engines charge.
///
/// The row directory numbers the lake's rows densely: a cell's row ordinal
/// is `row_base[TableId] + RowId`, so table `t` owns the ordinals
/// `row_base[t] .. row_base[t] + max RowId + 1` and the ordinal space is
/// `Σ (max RowId + 1)` over the tables. The store keeps one only when that
/// space is at most `len()` — a bitmap over it then costs at most one bit
/// per cell, and no ordinal overflows `u32` — and hands ordinals out
/// through [`FactTable::row_ordinals`].
pub struct ColumnStore {
    /// Distinct values; index = dictionary code.
    dict: Vec<Box<str>>,
    /// Value lookup: string → code, comparing against `dict`.
    dict_index: CodeTable,
    /// Per-position dictionary codes.
    codes: Vec<u32>,
    tables: Vec<u32>,
    columns: Vec<u32>,
    rows: Vec<u32>,
    superkeys: Vec<u128>,
    quadrants: Vec<u8>,
    /// Inverted index keyed by dictionary code: ascending positions.
    postings: Csr,
    /// Value → (`TableId`, `ColumnId`) runs.
    column_index: ColumnIndex,
    ranges: Vec<(u32, u32)>,
    /// Row directory: per table id, the row ordinal of its `RowId` 0;
    /// `None` where the ordinal space would exceed `len()`.
    row_base: Option<Vec<u32>>,
    /// The row ordinal space, `Σ (max RowId + 1)` (0 without a directory).
    row_space: usize,
    stats: FactStats,
}

impl ColumnStore {
    /// Build the store: canonical sort, dictionary, then postings and the
    /// column index in two passes over canonical order, then statistics.
    ///
    /// The fact rows and the string → code map that borrows from them are
    /// dropped before the postings passes, so the build's high-water mark
    /// is the rows plus the plain columns, never the rows beside the
    /// indexes.
    pub fn build(mut fact_rows: Vec<FactRow>) -> Self {
        canonical_sort(&mut fact_rows);
        let ranges = table_ranges(&fact_rows);
        let n = fact_rows.len();

        let mut dict: Vec<Box<str>> = Vec::new();
        let mut codes = Vec::with_capacity(n);
        let mut tables = Vec::with_capacity(n);
        let mut columns = Vec::with_capacity(n);
        let mut rows = Vec::with_capacity(n);
        let mut superkeys = Vec::with_capacity(n);
        let mut quadrants = Vec::with_capacity(n);
        let mut numeric_rows = 0usize;

        let mut code_of: FxHashMap<&str, u32> = FxHashMap::default();
        for r in &fact_rows {
            let code = *code_of.entry(&r.value).or_insert_with(|| {
                dict.push(r.value.clone());
                dict.len() as u32 - 1
            });
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
        drop(code_of);
        drop(fact_rows);
        dict.shrink_to_fit();
        let dict_index = CodeTable::build(&dict);
        let (postings, column_index) = index_codes(&codes, &tables, &columns, dict.len());
        let (row_base, row_space) =
            row_directory(&ranges, &rows).map_or((None, 0), |(b, s)| (Some(b), s));

        let n_tables = ranges.iter().filter(|(s, e)| e > s).count();
        let stats = FactStats::compute(
            n,
            n_tables,
            (0..dict.len()).map(|c| postings.list(c as u32).len()),
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
            postings,
            column_index,
            ranges,
            row_base,
            row_space,
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

/// The row directory of [`ColumnStore`] over its table ranges: per table
/// id, the running sum of `max RowId + 1` before it, and the whole sum —
/// or `None` as soon as that sum exceeds the number of cells.
fn row_directory(ranges: &[(u32, u32)], rows: &[u32]) -> Option<(Vec<u32>, usize)> {
    let mut base = Vec::with_capacity(ranges.len());
    let mut space = 0usize;
    for &(s, e) in ranges {
        base.push(u32::try_from(space).ok()?);
        space += rows[s as usize..e as usize]
            .iter()
            .max()
            .map_or(0, |&r| r as usize + 1);
        if space > rows.len() {
            return None;
        }
    }
    Some((base, space))
}

/// Compressed sparse rows over `u32` items: list `k` is
/// `items[offsets[k]..offsets[k + 1]]`. Built by [`CsrBuilder`] in two
/// passes, so both vectors are allocated once, at exact capacity.
#[derive(Debug)]
pub(crate) struct Csr {
    offsets: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    /// List `k` (empty past the last list).
    #[inline]
    pub fn list(&self, k: u32) -> &[u32] {
        match (
            self.offsets.get(k as usize),
            self.offsets.get(k as usize + 1),
        ) {
            (Some(&s), Some(&e)) => &self.items[s as usize..e as usize],
            _ => &[],
        }
    }

    fn heap_bytes(&self) -> usize {
        (self.offsets.capacity() + self.items.capacity()) * 4
    }
}

/// Two-pass [`Csr`] construction: [`count`](Self::count) every item's list,
/// [`start_placing`](Self::start_placing), then [`place`](Self::place) the
/// same items in the same order. During placing `offsets[k]` is list `k`'s
/// write cursor, so no cursor array is allocated.
pub(crate) struct CsrBuilder {
    offsets: Vec<u32>,
    items: Vec<u32>,
}

impl CsrBuilder {
    /// A builder of `n_lists` lists, all empty.
    pub fn new(n_lists: usize) -> Self {
        CsrBuilder {
            offsets: vec![0; n_lists + 1],
            items: Vec::new(),
        }
    }

    /// Count one item of `list`.
    #[inline]
    pub fn count(&mut self, list: u32) {
        self.offsets[list as usize + 1] += 1;
    }

    /// Counts become list starts, and the item vector is allocated.
    pub fn start_placing(&mut self) {
        for k in 1..self.offsets.len() {
            self.offsets[k] += self.offsets[k - 1];
        }
        self.items = vec![0; self.offsets.last().map_or(0, |&n| n as usize)];
    }

    /// Append `item` to `list`, in counting order.
    #[inline]
    pub fn place(&mut self, list: u32, item: u32) {
        let at = &mut self.offsets[list as usize];
        self.items[*at as usize] = item;
        *at += 1;
    }

    /// Every cursor now sits at its list's end, i.e. the next list's start:
    /// shift them up one to restore the starts.
    pub fn finish(mut self) -> Csr {
        let n_lists = self.offsets.len() - 1;
        self.offsets.copy_within(..n_lists, 1);
        self.offsets[0] = 0;
        Csr {
            offsets: self.offsets,
            items: self.items,
        }
    }
}

/// Value → column index of the column store: the set-overlap index the SC
/// and KW seekers ask (how many query values does each column, or table,
/// hold).
///
/// The (`TableId`, `ColumnId`) runs of canonical order — maximal stretches
/// of positions sharing both — are numbered `0..R` in order, so ordinals
/// ascend with (table, column) and a table's ordinals are contiguous. Per
/// dictionary code the index lists, ascending, the ordinals of the runs
/// that hold the value: each (value, column) pair once, however often the
/// value repeats inside the column.
#[derive(Debug)]
pub struct ColumnIndex {
    /// (`TableId`, `ColumnId`) per run ordinal.
    keys: Vec<(u32, u32)>,
    /// Per dictionary code, its ascending run ordinals.
    runs_of: Csr,
}

impl ColumnIndex {
    /// Number of (`TableId`, `ColumnId`) runs, `R`.
    pub fn runs(&self) -> usize {
        self.keys.len()
    }

    /// (`TableId`, `ColumnId`) of run `ordinal` (`ordinal < runs()`).
    #[inline]
    pub fn key(&self, ordinal: u32) -> (u32, u32) {
        self.keys[ordinal as usize]
    }

    /// Ascending ordinals of the runs holding dictionary code `code`
    /// (empty for an unknown code).
    #[inline]
    pub fn ordinals(&self, code: u32) -> &[u32] {
        self.runs_of.list(code)
    }

    fn heap_bytes(&self) -> usize {
        self.keys.capacity() * 8 + self.runs_of.heap_bytes()
    }
}

/// Postings and the column index, both keyed by dictionary code, in two
/// sequential passes over canonical order: the first counts each code's
/// positions and distinct runs (a per-code "last run" marks the first cell
/// of a value in a run), the second places them.
fn index_codes(
    codes: &[u32],
    tables: &[u32],
    columns: &[u32],
    n_codes: usize,
) -> (Csr, ColumnIndex) {
    /// Visit every position with its run ordinal and whether it heads its
    /// run.
    fn walk(tables: &[u32], columns: &[u32], mut f: impl FnMut(usize, u32, bool)) {
        let mut run = 0u32;
        for p in 0..tables.len() {
            let head = p == 0 || (tables[p], columns[p]) != (tables[p - 1], columns[p - 1]);
            run += (head && p > 0) as u32;
            f(p, run, head);
        }
    }
    let mut postings = CsrBuilder::new(n_codes);
    let mut runs_of = CsrBuilder::new(n_codes);
    let mut last_run = vec![u32::MAX; n_codes];
    let mut n_runs = 0usize;
    walk(tables, columns, |p, run, head| {
        let code = codes[p];
        postings.count(code);
        if std::mem::replace(&mut last_run[code as usize], run) != run {
            runs_of.count(code);
        }
        n_runs += head as usize;
    });
    postings.start_placing();
    runs_of.start_placing();
    last_run.fill(u32::MAX);
    let mut keys = Vec::with_capacity(n_runs);
    walk(tables, columns, |p, run, head| {
        let code = codes[p];
        postings.place(code, p as u32);
        if std::mem::replace(&mut last_run[code as usize], run) != run {
            runs_of.place(code, run);
        }
        if head {
            keys.push((tables[p], columns[p]));
        }
    });
    let index = ColumnIndex {
        keys,
        runs_of: runs_of.finish(),
    };
    (postings.finish(), index)
}

/// The dictionary's string → code lookup without a second copy of the
/// strings: an open-addressing table of codes, at most half full, probed
/// linearly from the high bits of a multiplicative mix of the string's Fx
/// hash (`FxHasher::finish` returns the raw state, whose low bits are
/// weak), each occupied slot compared against `dict`.
struct CodeTable {
    slots: Vec<u32>,
    shift: u32,
}

impl CodeTable {
    const EMPTY: u32 = u32::MAX;

    fn build(dict: &[Box<str>]) -> Self {
        let n_slots = (dict.len() * 2).next_power_of_two().max(2);
        let mut table = CodeTable {
            slots: vec![Self::EMPTY; n_slots],
            shift: 64 - n_slots.trailing_zeros(),
        };
        let mask = n_slots - 1;
        for (code, s) in dict.iter().enumerate() {
            let mut i = table.home(s);
            while table.slots[i] != Self::EMPTY {
                i = (i + 1) & mask;
            }
            table.slots[i] = code as u32;
        }
        table
    }

    #[inline]
    fn home(&self, s: &str) -> usize {
        (hash_str(s).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Code of `s`: a table at most half full always holds an empty slot,
    /// so the probe ends.
    fn get(&self, dict: &[Box<str>], s: &str) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(s);
        loop {
            let code = self.slots[i];
            if code == Self::EMPTY {
                return None;
            }
            if *dict[code as usize] == *s {
                return Some(code);
            }
            i = (i + 1) & mask;
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
        match self.code_of_value(value) {
            Some(code) => self.postings.list(code),
            None => &[],
        }
    }

    fn table_postings(&self, table: u32) -> std::ops::Range<usize> {
        match self.ranges.get(table as usize) {
            Some(&(s, e)) => s as usize..e as usize,
            None => 0..0,
        }
    }

    fn make_probe(&self, values: &[&str]) -> ValuePred {
        ValuePred::Codes(IdSet::build(
            values.iter().filter_map(|v| self.code_of_value(v)),
        ))
    }

    #[inline]
    fn probe_at(&self, pos: usize, probe: &ValuePred) -> bool {
        match probe {
            ValuePred::Codes(set) => set.contains(self.codes[pos]),
            ValuePred::Strings(set) => set.contains(self.value_at(pos)),
        }
    }

    fn code_of_value(&self, value: &str) -> Option<u32> {
        self.dict_index.get(&self.dict, value)
    }

    fn value_of_code(&self, code: u32) -> Option<&str> {
        self.dict.get(code as usize).map(|s| &**s)
    }

    fn column_index(&self) -> Option<&ColumnIndex> {
        Some(&self.column_index)
    }

    fn row_ordinals(&self, positions: &[u32], out: &mut Vec<u32>) -> Option<usize> {
        let base = self.row_base.as_deref()?;
        out.extend(positions.iter().map(|&p| {
            let p = p as usize;
            base[self.tables[p] as usize] + self.rows[p]
        }));
        Some(self.row_space)
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

    /// The capacities held, per component of the layout table on
    /// [`ColumnStore`].
    fn memory_breakdown(&self) -> MemoryBreakdown {
        let dict_strings = self.dict.capacity() * std::mem::size_of::<Box<str>>()
            + self.dict.iter().map(|s| s.len()).sum::<usize>();
        let columns = (self.codes.capacity()
            + self.tables.capacity()
            + self.columns.capacity()
            + self.rows.capacity())
            * 4
            + self.superkeys.capacity() * 16
            + self.quadrants.capacity();
        MemoryBreakdown {
            engine: "Column",
            components: vec![
                ("dict-strings", dict_strings),
                ("dict-index", self.dict_index.slots.capacity() * 4),
                ("columns", columns),
                ("postings", self.postings.heap_bytes()),
                ("column-index", self.column_index.heap_bytes()),
                ("table-ranges", self.ranges.capacity() * 8),
                (
                    "row-directory",
                    self.row_base.as_ref().map_or(0, |b| b.capacity() * 4),
                ),
                scratch_component(self.len()),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::sample_rows;
    use proptest::prelude::*;

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
    /// more distinct values than a small code table holds without its
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// CSR postings, the column index and the code table against a
        /// brute-force reading of the store's own columns, and the memory
        /// breakdown against the capacities the store holds.
        #[test]
        fn indexes_match_brute_force_and_are_charged_exactly(
            seed in any::<u64>(),
            n_tables in 0u32..12,
            vocab in 1u64..300,
        ) {
            let s = ColumnStore::build(sparse_rows(seed, n_tables, vocab));
            let keys: Vec<(u32, u32)> = (0..s.len()).map(|p| (s.table_at(p), s.column_at(p))).collect();
            // Run ordinal of every position: canonical order, numbered at
            // each key change.
            let mut run_of = Vec::with_capacity(keys.len());
            for p in 0..keys.len() {
                let run = run_of.last().copied().unwrap_or(0);
                run_of.push(if p > 0 && keys[p] != keys[p - 1] { run + 1 } else { run });
            }
            let index = s.column_index().expect("the column store has a column index");
            prop_assert_eq!(index.runs(), run_of.last().map_or(0, |&r| r as usize + 1));
            for code in 0..s.dict_len() as u32 {
                let value = s.value_of_code(code).expect("dictionary code");
                prop_assert_eq!(s.code_of_value(value), Some(code));
                let want: Vec<u32> = (0..s.len() as u32)
                    .filter(|&p| s.value_at(p as usize) == value)
                    .collect();
                prop_assert_eq!(s.postings(value), &want[..]);
                let mut runs: Vec<u32> = want.iter().map(|&p| run_of[p as usize]).collect();
                runs.dedup();
                prop_assert_eq!(index.ordinals(code), &runs[..]);
                for &p in &want {
                    prop_assert_eq!(index.key(run_of[p as usize]), keys[p as usize]);
                }
            }
            for absent in ["", "v", "absent", "v-1", &format!("v{vocab}")] {
                prop_assert_eq!(s.code_of_value(absent), None);
                prop_assert!(s.postings(absent).is_empty());
            }
            prop_assert!(index.ordinals(s.dict_len() as u32).is_empty());

            // Exact capacity: the build leaves no growth slack behind.
            for (len, cap) in [
                (s.postings.offsets.len(), s.postings.offsets.capacity()),
                (s.postings.items.len(), s.postings.items.capacity()),
                (index.runs_of.offsets.len(), index.runs_of.offsets.capacity()),
                (index.runs_of.items.len(), index.runs_of.items.capacity()),
                (index.keys.len(), index.keys.capacity()),
                (s.dict.len(), s.dict.capacity()),
            ] {
                prop_assert_eq!(len, cap);
            }
            let (d, n) = (s.dict_len(), s.len());
            let pairs: usize = (0..d as u32).map(|c| index.ordinals(c).len()).sum();
            let strings: usize = (0..d as u32).map(|c| s.value_of_code(c).map_or(0, str::len)).sum();
            let breakdown = s.memory_breakdown();
            let charged = |name: &str| breakdown.get(name).expect("component");
            prop_assert_eq!(charged("dict-strings"), 16 * d + strings);
            prop_assert_eq!(charged("dict-index"), 4 * (2 * d).next_power_of_two().max(2));
            prop_assert_eq!(charged("columns"), 33 * n);
            prop_assert_eq!(charged("postings"), 4 * (d + 1) + 4 * n);
            prop_assert_eq!(
                charged("column-index"),
                8 * index.runs() + 4 * (d + 1) + 4 * pairs
            );
            prop_assert_eq!(charged("table-ranges"), 8 * s.ranges.len());

            // The row directory numbers the (table, row) pairs present
            // one-to-one onto ordinals below `Σ (max RowId + 1)`.
            let all: Vec<u32> = (0..n as u32).collect();
            let mut ords = Vec::new();
            let space = s.row_ordinals(&all, &mut ords);
            let mut extent: FxHashMap<u32, usize> = FxHashMap::default();
            for p in 0..n {
                let e = extent.entry(s.table_at(p)).or_default();
                *e = (*e).max(s.row_at(p) as usize + 1);
            }
            prop_assert_eq!(space, Some(extent.values().sum::<usize>()));
            prop_assert_eq!(ords.len(), n);
            let mut ord_of: FxHashMap<(u32, u32), u32> = FxHashMap::default();
            let mut pair_of: FxHashMap<u32, (u32, u32)> = FxHashMap::default();
            for (p, &ord) in ords.iter().enumerate() {
                let pair = (s.table_at(p), s.row_at(p));
                prop_assert!((ord as usize) < space.unwrap_or(0));
                prop_assert_eq!(*ord_of.entry(pair).or_insert(ord), ord);
                prop_assert_eq!(*pair_of.entry(ord).or_insert(pair), pair);
            }
            prop_assert_eq!(charged("row-directory"), 4 * s.ranges.len());

            // One huge `RowId` makes the space outgrow the cells: no
            // directory, nothing charged, nothing gathered.
            let mut rows = sparse_rows(seed, n_tables, vocab);
            rows.push(FactRow::new("v0", 0, 0, u32::MAX - 1, 0, None));
            let sparse = ColumnStore::build(rows);
            let mut untouched = vec![7u32];
            prop_assert_eq!(sparse.row_ordinals(&[0], &mut untouched), None);
            prop_assert_eq!(untouched, vec![7u32]);
            prop_assert_eq!(sparse.memory_breakdown().get("row-directory"), Some(0));
        }
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
