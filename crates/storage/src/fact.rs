//! The `AllTables` fact-table schema and the engine-neutral [`FactTable`]
//! trait.

use crate::column_store::ColumnIndex;
use crate::directory::Directory;
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
}

/// Encode a quadrant (`None` = SQL NULL) for compact columnar storage.
#[inline]
pub fn encode_quadrant(quadrant: Option<bool>) -> u8 {
    match quadrant {
        None => QUADRANT_NULL,
        Some(false) => QUADRANT_ZERO,
        Some(true) => QUADRANT_ONE,
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

/// A normalized value looked up by [`FactTable::resolve`]: its dictionary
/// code (`None` for a value the store does not hold, and on engines without
/// a dictionary) and its postings, ascending (empty when absent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolved<'a> {
    pub code: Option<u32>,
    pub postings: &'a [u32],
}

/// Engine-neutral interface to the `AllTables` fact table.
///
/// Positions (`pos`) are dense `0..len()` physical offsets in the canonical
/// order both engines hold, put in on build ([`canonical_sort`]). Where a
/// table's cells, column runs and rows lie in that order is the store's
/// [`Directory`]: the table index's ranges, the column runs, `locate` and
/// the row ordinals are read there, the same on either store.
pub trait FactTable: Send + Sync {
    /// `"Row"` or `"Column"`, for experiment labels.
    fn engine(&self) -> &'static str;

    /// The canonical-order directory: table ranges, column runs, rows.
    fn directory(&self) -> &Directory;

    /// Number of index rows (= non-null cells in the lake).
    fn len(&self) -> usize {
        self.directory().len()
    }

    /// True when the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of table ids: one past the largest that holds a cell.
    fn n_tables(&self) -> u32 {
        self.directory().n_tables()
    }

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

    /// Look `values` up, appending each one's [`Resolved`] to `out`: value
    /// by value here, a block at a time on the column store
    /// ([`GroupIndex::get_batch`](crate::GroupIndex::get_batch)). Without
    /// `postings` a store with a dictionary reads only the codes and
    /// leaves each value's postings empty.
    fn resolve<'a>(&'a self, values: &[&str], _postings: bool, out: &mut Vec<Resolved<'a>>) {
        out.extend(values.iter().map(|v| Resolved {
            code: None,
            postings: self.postings(v),
        }));
    }

    /// Whether `CellValue` is dictionary-encoded: [`resolve`] finds the
    /// code of every value the table holds, and [`code_postings`] reads a
    /// code's postings without a second lookup.
    ///
    /// [`resolve`]: FactTable::resolve
    /// [`code_postings`]: FactTable::code_postings
    fn has_dictionary(&self) -> bool {
        false
    }

    /// The postings of the value whose dictionary code is `code`: what
    /// [`postings`](FactTable::postings) returns for it, with no string
    /// lookup. Empty for an unknown code and on engines without a
    /// dictionary.
    fn code_postings(&self, _code: u32) -> &[u32] {
        &[]
    }

    /// Compile an IN-list into this engine's value predicate: dictionary
    /// codes on the column store, owned strings on the row store. Values
    /// absent from the table vanish (they can never match).
    fn make_probe(&self, values: &[&str]) -> ValuePred;

    /// Test `CellValue[pos] IN probe` for a predicate from
    /// [`make_probe`](FactTable::make_probe).
    fn probe_at(&self, pos: usize, probe: &ValuePred) -> bool;

    /// The value a dictionary code stands for — the inverse of
    /// [`resolve`](FactTable::resolve)'s codes (`None` for an unknown code,
    /// and on engines without a dictionary).
    fn value_of_code(&self, _code: u32) -> Option<&str> {
        None
    }

    /// The value → column index, keyed by the dictionary codes of
    /// [`resolve`](FactTable::resolve): per value, the
    /// [`Directory`]'s runs that hold it. It answers `COUNT(DISTINCT
    /// CellValue) … GROUP BY TableId[, ColumnId]` over a value list (the
    /// SC and KW seekers) without visiting a cell. `None` on engines
    /// without one: the row store derives a value's runs from its postings
    /// ([`Directory::cell_runs`]).
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

    /// Batch accessor: append `SuperKey` for each position to `out` — the
    /// projection path's wide gather (16 bytes per row).
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
    /// in-DB indexes, scan scratch, ...). [`size_bytes`] is its
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

/// Emit the runs of the ascending `items` that lie in the ascending,
/// disjoint `ranges`, each bound found by binary search. Every round
/// consumes a range, and one that holds no item moves the items past it,
/// so the rounds are at most about twice the smaller input.
pub fn cut_to_ranges<'p>(
    items: &'p [u32],
    ranges: &[std::ops::Range<u32>],
    mut emit: impl FnMut(&'p [u32]),
) {
    let (mut p, mut r) = (items, ranges);
    while let Some(&first) = p.first() {
        r = &r[r.partition_point(|x| x.end <= first)..];
        let Some(range) = r.first() else {
            break;
        };
        let lo = p.partition_point(|&x| x < range.start);
        let hi = lo + p[lo..].partition_point(|&x| x < range.end);
        if hi > lo {
            emit(&p[lo..hi]);
        }
        (p, r) = (&p[hi..], &r[1..]);
    }
}

/// A set of row ordinals ([`Directory::row_ordinals`]) numbered densely by
/// rank: a bitmap over the ordinal space and, per 64-bit word, the members
/// below it. A member's id is its rank, so ids ascend with ordinals and no
/// key is hashed. The SQL executor's row-key join and the MC seeker's
/// operator number rows through it.
#[derive(Debug, Clone)]
pub struct OrdinalRank {
    bits: Vec<u64>,
    prefix: Vec<u32>,
    len: usize,
}

impl OrdinalRank {
    /// Resident bytes of a rank over an ordinal space of `space`.
    pub fn estimate_bytes(space: usize) -> usize {
        space.div_ceil(64) * 12
    }

    /// The rank of `ordinals` (each below `space`; repeats allowed).
    pub fn build(space: usize, ordinals: &[u32]) -> Self {
        let mut bits = vec![0u64; space.div_ceil(64)];
        for &o in ordinals {
            bits[o as usize >> 6] |= 1 << (o & 63);
        }
        let mut prefix = Vec::with_capacity(bits.len());
        let mut len = 0u32;
        for &w in &bits {
            prefix.push(len);
            len += w.count_ones();
        }
        OrdinalRank {
            bits,
            prefix,
            len: len as usize,
        }
    }

    /// Number of distinct members: their ids are `0..len()`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set has no member.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The id of `ordinal`, or `None` when it is not a member.
    #[inline]
    pub fn rank(&self, ordinal: u32) -> Option<u32> {
        let w = *self.bits.get(ordinal as usize >> 6)?;
        (w & (1 << (ordinal & 63)) != 0).then(|| self.rank_in(ordinal, w))
    }

    /// Replace each ordinal by its id; every one must be a member (the
    /// ordinals the rank was built from).
    pub fn rank_members(&self, ordinals: &mut [u32]) {
        for o in ordinals {
            *o = self.rank_in(*o, self.bits[*o as usize >> 6]);
        }
    }

    #[inline]
    fn rank_in(&self, ordinal: u32, word: u64) -> u32 {
        let below = word & ((1 << (ordinal & 63)) - 1);
        self.prefix[ordinal as usize >> 6] + below.count_ones()
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
}

/// Estimated scan-scratch component shared by both engines'
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
/// This order is an **invariant** downstream code relies on: the
/// [`Directory`] built over it (which puts its rows in it first) hands out
/// contiguous per-table ranges and column runs, and the parallel executor's
/// order-preserving merges assume both engines share one physical order.
///
/// Rows already in that order (the index builder's) cost one pass that
/// checks it; only other input is sorted.
pub fn canonical_sort(rows: &mut [FactRow]) {
    let order = |a: &FactRow, b: &FactRow| {
        (a.table, a.column, a.row)
            .cmp(&(b.table, b.column, b.row))
            .then_with(|| a.value.cmp(&b.value))
    };
    if !rows.is_sorted_by(|a, b| order(a, b).is_le()) {
        rows.sort_by(order);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadrant_encoding_roundtrips() {
        for q in [None, Some(false), Some(true)] {
            let r = FactRow::new("x", 0, 0, 0, 0, q);
            assert_eq!(decode_quadrant(encode_quadrant(r.quadrant)), q);
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
    fn ordinal_rank_numbers_members_in_ordinal_order() {
        // Repeats, word boundaries and the last ordinal of the space.
        let ordinals = [130u32, 3, 64, 3, 63, 199, 130];
        let rank = OrdinalRank::build(200, &ordinals);
        assert_eq!(rank.len(), 5);
        let members = [3u32, 63, 64, 130, 199];
        for o in 0..200u32 {
            let want = members.iter().position(|&m| m == o).map(|i| i as u32);
            assert_eq!(rank.rank(o), want, "ordinal {o}");
        }
        assert_eq!(rank.rank(200), None);
        let mut ids = ordinals.to_vec();
        rank.rank_members(&mut ids);
        assert_eq!(ids, [3, 0, 2, 0, 1, 4, 3]);
        assert!(OrdinalRank::build(0, &[]).is_empty());
    }
}
