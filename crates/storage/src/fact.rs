//! The `AllTables` fact-table schema and the engine-neutral [`FactTable`]
//! trait.

use crate::column_store::ColumnIndex;
use crate::filter::{FilterKernel, ScanScratch, ValuePred};
use crate::stats::FactStats;

/// Encoded quadrant: cell is non-numeric (SQL NULL).
pub const QUADRANT_NULL: u8 = 0;
/// Encoded quadrant: numeric cell below its column average.
pub const QUADRANT_ZERO: u8 = 1;
/// Encoded quadrant: numeric cell at or above its column average.
pub const QUADRANT_ONE: u8 = 2;

/// One row of the unified index, i.e. one non-null cell of some lake table.
///
/// Mirrors the paper's Fig. 3: `CellValue, TableId, ColumnId, RowId,
/// SuperKey, Quadrant`. `SuperKey` is the XASH aggregate of the cell's whole
/// *row* (so every cell of a row carries the same super key), and `Quadrant`
/// is the boolean QCR bit, NULL for non-numeric cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactRow {
    /// Normalized cell value.
    pub value: Box<str>,
    /// Lake table identifier.
    pub table: u32,
    /// Column position within the table.
    pub column: u32,
    /// Row position within the table.
    pub row: u32,
    /// XASH super key of the containing row.
    pub superkey: u128,
    /// Quadrant bit; `None` encodes SQL NULL (non-numeric cell).
    pub quadrant: Option<bool>,
}

impl FactRow {
    /// Convenience constructor used by the indexer and tests.
    pub fn new(
        value: &str,
        table: u32,
        column: u32,
        row: u32,
        superkey: u128,
        quadrant: Option<bool>,
    ) -> Self {
        FactRow {
            value: value.into(),
            table,
            column,
            row,
            superkey,
            quadrant,
        }
    }

    /// Encode the quadrant for compact columnar storage.
    #[inline]
    pub fn quadrant_code(&self) -> u8 {
        match self.quadrant {
            None => QUADRANT_NULL,
            Some(false) => QUADRANT_ZERO,
            Some(true) => QUADRANT_ONE,
        }
    }
}

/// Decode a stored quadrant code.
#[inline]
pub fn decode_quadrant(code: u8) -> Option<bool> {
    match code {
        QUADRANT_ZERO => Some(false),
        QUADRANT_ONE => Some(true),
        _ => None,
    }
}

/// Engine-neutral interface to the `AllTables` fact table.
///
/// Positions (`pos`) are dense `0..len()` physical offsets. Rows are
/// clustered by `TableId` (both engines sort on build), so the in-DB table
/// index can hand out contiguous ranges.
pub trait FactTable: Send + Sync {
    /// `"Row"` or `"Column"`, for experiment labels.
    fn engine(&self) -> &'static str;

    /// Number of index rows (= non-null cells in the lake).
    fn len(&self) -> usize;

    /// True when the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct lake tables.
    fn n_tables(&self) -> u32;

    /// `CellValue` at a position.
    fn value_at(&self, pos: usize) -> &str;

    /// `TableId` at a position.
    fn table_at(&self, pos: usize) -> u32;

    /// `ColumnId` at a position.
    fn column_at(&self, pos: usize) -> u32;

    /// `RowId` at a position.
    fn row_at(&self, pos: usize) -> u32;

    /// `SuperKey` at a position.
    fn superkey_at(&self, pos: usize) -> u128;

    /// `Quadrant` at a position (`None` = SQL NULL).
    fn quadrant_at(&self, pos: usize) -> Option<bool>;

    /// In-DB inverted index: positions holding this exact normalized value,
    /// in ascending position order. Empty slice when absent.
    fn postings(&self, value: &str) -> &[u32];

    /// Length of the postings list without materializing it (catalog
    /// statistic used for cost estimates).
    fn posting_len(&self, value: &str) -> usize {
        self.postings(value).len()
    }

    /// In-DB table index: the contiguous position range of a table,
    /// returned as positions for uniformity.
    fn table_postings(&self, table: u32) -> std::ops::Range<usize>;

    /// Compile an IN-list into this engine's value predicate: dictionary
    /// codes on the column store, owned strings on the row store. Values
    /// absent from the table vanish (they can never match).
    fn make_probe(&self, values: &[&str]) -> ValuePred;

    /// Test `CellValue[pos] IN probe` for a predicate from
    /// [`make_probe`](FactTable::make_probe).
    fn probe_at(&self, pos: usize, probe: &ValuePred) -> bool;

    /// Dictionary code of a value — the inverse of
    /// [`value_of_code`](FactTable::value_of_code). `None` when the value
    /// is not in the table, and on engines without a dictionary.
    fn code_of_value(&self, _value: &str) -> Option<u32> {
        None
    }

    /// The value a dictionary code stands for (`None` for an unknown code,
    /// and on engines without a dictionary).
    fn value_of_code(&self, _code: u32) -> Option<&str> {
        None
    }

    /// The value → column index, keyed by the dictionary codes of
    /// [`code_of_value`](FactTable::code_of_value): per value, the
    /// (`TableId`, `ColumnId`) runs of canonical order that hold it. It
    /// answers `COUNT(DISTINCT CellValue) … GROUP BY TableId[, ColumnId]`
    /// over a value list (the SC and KW seekers) without visiting a cell.
    /// `None` on engines without one — the row store stays the literal
    /// relation.
    fn column_index(&self) -> Option<&ColumnIndex> {
        None
    }

    /// Batch accessor: append `TableId` for each position to `out`. One
    /// virtual dispatch per batch instead of one per position.
    fn gather_tables(&self, positions: &[u32], out: &mut Vec<u32>) {
        out.extend(positions.iter().map(|&p| self.table_at(p as usize)));
    }

    /// Batch accessor: append `ColumnId` for each position to `out`.
    fn gather_columns(&self, positions: &[u32], out: &mut Vec<u32>) {
        out.extend(positions.iter().map(|&p| self.column_at(p as usize)));
    }

    /// Batch accessor: append `RowId` for each position to `out`.
    fn gather_rows(&self, positions: &[u32], out: &mut Vec<u32>) {
        out.extend(positions.iter().map(|&p| self.row_at(p as usize)));
    }

    /// Batch accessor: append the dictionary code of `CellValue` for each
    /// position to `out`. Returns `false` (leaving `out` untouched) when the
    /// engine has no dictionary.
    fn gather_value_codes(&self, _positions: &[u32], _out: &mut Vec<u32>) -> bool {
        false
    }

    /// Batch accessor: append the *row ordinal* of each position to `out`
    /// — `row_base[TableId] + RowId` through the store's row directory, a
    /// dense numbering of the lake's (`TableId`, `RowId`) pairs, so two
    /// positions share an ordinal exactly when they share both ids. Returns
    /// the ordinal space (every ordinal is below it, and it is at most
    /// [`len`](FactTable::len)). `None`, leaving `out` untouched, on
    /// engines without a directory: the row store, and a column store
    /// whose space `Σ (max RowId + 1)` would exceed its cell count.
    fn row_ordinals(&self, _positions: &[u32], _out: &mut Vec<u32>) -> Option<usize> {
        None
    }

    /// Batch accessor: append `SuperKey` for each position to `out` — the
    /// projection path's wide gather (16 bytes per row), specialized by the
    /// column store into a straight slice-indexed loop.
    fn gather_superkeys(&self, positions: &[u32], out: &mut Vec<u128>) {
        out.extend(positions.iter().map(|&p| self.superkey_at(p as usize)));
    }

    /// Batch accessor: append `Quadrant` (`None` = SQL NULL) for each
    /// position to `out`.
    fn gather_quadrants(&self, positions: &[u32], out: &mut Vec<Option<bool>>) {
        out.extend(positions.iter().map(|&p| self.quadrant_at(p as usize)));
    }

    /// Batched filter: append the subset of `positions` passing `kernel` to
    /// the selection vector `sel`, preserving input order. One virtual
    /// dispatch per batch; each engine evaluates it as per-predicate passes
    /// over its own layout.
    fn filter_batch(&self, kernel: &FilterKernel, positions: &[u32], sel: &mut Vec<u32>);

    /// Batched filter over the contiguous position range `lo..hi`
    /// (a table-index range or a whole-table scan), appending survivors to
    /// `sel` in position order without materializing the candidate list.
    fn filter_range(&self, kernel: &FilterKernel, lo: usize, hi: usize, sel: &mut Vec<u32>);

    /// Exact catalog statistics.
    fn stats(&self) -> &FactStats;

    /// Structured estimate of resident bytes — the debug report the bench
    /// harness prints (per-component: dictionary payload, column vectors,
    /// in-DB indexes, per-worker scan scratch, ...). [`size_bytes`] is its
    /// total.
    ///
    /// [`size_bytes`]: FactTable::size_bytes
    fn memory_breakdown(&self) -> MemoryBreakdown;

    /// Estimated resident bytes of the table plus its in-DB indexes
    /// (Table VIII input).
    fn size_bytes(&self) -> usize {
        self.memory_breakdown().total()
    }
}

/// Per-component resident-memory estimate of an engine (the
/// [`FactTable::memory_breakdown`] debug report).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryBreakdown {
    /// Engine label (`"Row"` / `"Column"`).
    pub engine: &'static str,
    /// `(component, bytes)` pairs, in engine-defined order.
    pub components: Vec<(&'static str, usize)>,
}

impl MemoryBreakdown {
    /// Total estimated bytes across all components.
    pub fn total(&self) -> usize {
        self.components.iter().map(|(_, b)| b).sum()
    }

    /// Bytes of one named component, if present.
    pub fn get(&self, name: &str) -> Option<usize> {
        self.components
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, b)| *b)
    }

    /// Multi-line human-readable report (bench-harness output).
    pub fn report(&self) -> String {
        use std::fmt::Write;
        let mut out = format!("{} store memory breakdown:\n", self.engine);
        for (name, bytes) in &self.components {
            let _ = writeln!(out, "  {name:<16} {bytes:>12} B");
        }
        let _ = write!(out, "  {:<16} {:>12} B", "total", self.total());
        out
    }
}

/// Estimated per-worker scan-scratch component shared by both engines'
/// breakdowns: the selection-vector high-water mark of a scan over a table
/// with `n_rows` positions.
pub(crate) fn scratch_component(n_rows: usize) -> (&'static str, usize) {
    ("scan-scratch", ScanScratch::estimate_bytes(n_rows))
}

/// Sort raw fact rows into the canonical physical order shared by both
/// engines: clustered by table, then column, then row. Clustering by table
/// is what makes the `TableId` index a range; column-major order within a
/// table gives scans the locality a real column store would have.
///
/// This order is an **invariant** downstream code relies on:
/// [`table_ranges`] requires it (and `debug_assert`s it) to hand out
/// contiguous per-table ranges, and the parallel executor's
/// order-preserving merges assume both engines share one physical order.
/// Every engine build must call this before deriving ranges.
pub fn canonical_sort(rows: &mut [FactRow]) {
    rows.sort_by(|a, b| {
        (a.table, a.column, a.row)
            .cmp(&(b.table, b.column, b.row))
            .then_with(|| a.value.cmp(&b.value))
    });
}

/// Compute per-table contiguous ranges. Index in the returned vec = table
/// id; tables absent from the index get an empty range.
///
/// **Requires** `rows` to be in [`canonical_sort`] order — each table's
/// rows must form one contiguous run. The invariant is `debug_assert`ed
/// here (release builds skip the O(n) check); violating it would silently
/// truncate ranges to a table's *last* run and corrupt every table-index
/// scan built on top.
pub fn table_ranges(rows: &[FactRow]) -> Vec<(u32, u32)> {
    debug_assert!(
        rows.windows(2).all(|w| {
            (w[0].table, w[0].column, w[0].row) <= (w[1].table, w[1].column, w[1].row)
        }),
        "table_ranges requires rows in canonical_sort order"
    );
    let max_table = rows.iter().map(|r| r.table).max().map_or(0, |t| t + 1);
    let mut ranges = vec![(0u32, 0u32); max_table as usize];
    let mut i = 0usize;
    while i < rows.len() {
        let t = rows[i].table;
        let start = i;
        while i < rows.len() && rows[i].table == t {
            i += 1;
        }
        ranges[t as usize] = (start as u32, i as u32);
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadrant_encoding_roundtrips() {
        for q in [None, Some(false), Some(true)] {
            let r = FactRow::new("x", 0, 0, 0, 0, q);
            assert_eq!(decode_quadrant(r.quadrant_code()), q);
        }
    }

    #[test]
    fn canonical_sort_clusters_tables() {
        let mut rows = vec![
            FactRow::new("b", 1, 0, 0, 0, None),
            FactRow::new("a", 0, 1, 0, 0, None),
            FactRow::new("c", 0, 0, 1, 0, None),
            FactRow::new("d", 0, 0, 0, 0, None),
        ];
        canonical_sort(&mut rows);
        let order: Vec<(u32, u32, u32)> = rows.iter().map(|r| (r.table, r.column, r.row)).collect();
        assert_eq!(order, vec![(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]);
    }

    #[test]
    fn table_ranges_cover_and_handle_gaps() {
        let mut rows = vec![
            FactRow::new("a", 0, 0, 0, 0, None),
            FactRow::new("b", 2, 0, 0, 0, None),
            FactRow::new("c", 2, 0, 1, 0, None),
        ];
        canonical_sort(&mut rows);
        let ranges = table_ranges(&rows);
        assert_eq!(ranges, vec![(0, 1), (0, 0), (1, 3)]);
    }

    #[test]
    fn empty_rows_have_no_ranges() {
        assert!(table_ranges(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "canonical_sort order")]
    #[cfg(debug_assertions)]
    fn unsorted_rows_trip_the_invariant_assert() {
        let rows = vec![
            FactRow::new("b", 1, 0, 0, 0, None),
            FactRow::new("a", 0, 0, 0, 0, None),
        ];
        let _ = table_ranges(&rows);
    }
}
