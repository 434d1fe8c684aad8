//! Embedded storage engines for BLEND's unified index.
//!
//! The paper deploys BLEND on two database engines — PostgreSQL (a row
//! store) and a commercial column store — and stores the entire unified
//! index as one relational fact table:
//!
//! ```text
//! AllTables(CellValue nvarchar, TableId int, ColumnId int, RowId int,
//!           SuperKey byte, Quadrant bool)
//! ```
//!
//! This crate provides both engines as in-process data structures behind the
//! common [`FactTable`] trait:
//!
//! * [`RowStore`] — tuples stored contiguously, strings inline; the analogue
//!   of the PostgreSQL deployment.
//! * [`ColumnStore`] — dictionary-encoded column vectors; the analogue of
//!   the commercial column store. IN-list probes compare 4-byte dictionary
//!   codes instead of strings, and per-row storage is much smaller — the two
//!   mechanisms behind every Row-vs-Column gap in the paper's figures.
//!
//! Both engines maintain the two *in-database indexes* the paper creates on
//! `AllTables` (Section V): an inverted index on `CellValue` (value →
//! positions) and an index on `TableId` (table → contiguous position range).
//! The column store adds a value → column index ([`ColumnIndex`]) that the
//! SC/KW seekers' distinct counts read instead of scanning.
//! They also expose exact cardinality statistics, which the SQL layer's
//! access-path chooser uses the way a DBMS optimizer uses its catalog.
//!
//! Scan predicates evaluate through compiled [`FilterKernel`]s (see
//! [`filter`]): the SQL planner builds one per scan — `TableId` lists as
//! [`IdSet`]s, `CellValue IN` as the engine's [`ValuePred`] — and the
//! engines run it a batch at a time over selection vectors —
//! dictionary-code probes on the column store, fused tuple checks on the
//! row store — through their only two evaluators,
//! [`FactTable::filter_batch`] and [`FactTable::filter_range`].

pub mod column_store;
pub mod fact;
pub mod filter;
pub mod row_store;
pub mod stats;

pub use column_store::{ColumnIndex, ColumnStore};
pub use fact::{
    decode_quadrant, FactRow, FactTable, MemoryBreakdown, QUADRANT_NULL, QUADRANT_ONE,
    QUADRANT_ZERO,
};
pub use filter::{FilterKernel, IdSet, ScanScratch, ValuePred};
pub use row_store::RowStore;
pub use stats::FactStats;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide store generation, bumped whenever an index/lake rebuild
/// installs a new fact table (see [`bump_store_generation`]). Layers that
/// memoize query results key their entries on the generation observed when
/// the result was produced: after a rebuild the counter has moved on, so
/// stale entries can never match a post-rebuild lookup. Starts at 1 so 0
/// can serve as a "never observed" sentinel.
static STORE_GENERATION: AtomicU64 = AtomicU64::new(1);

/// The current store generation.
pub fn store_generation() -> u64 {
    STORE_GENERATION.load(Ordering::Acquire)
}

/// Advance the store generation (called on index/lake rebuild and catalog
/// swaps) and return the new value.
pub fn bump_store_generation() -> u64 {
    STORE_GENERATION.fetch_add(1, Ordering::AcqRel) + 1
}

/// Which engine to build — row store (PostgreSQL analogue) or column store
/// (commercial column store analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Tuple-at-a-time storage with inline strings.
    Row,
    /// Dictionary-encoded columnar storage.
    Column,
}

impl EngineKind {
    /// Human-readable engine label used in experiment output, matching the
    /// paper's "(Row)" / "(Column)" suffixes.
    pub fn label(&self) -> &'static str {
        match self {
            EngineKind::Row => "Row",
            EngineKind::Column => "Column",
        }
    }
}

/// Build a fact table with the chosen engine from raw index rows.
pub fn build_engine(kind: EngineKind, rows: Vec<FactRow>) -> Arc<dyn FactTable> {
    match kind {
        EngineKind::Row => Arc::new(RowStore::build(rows)),
        EngineKind::Column => Arc::new(ColumnStore::build(rows)),
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// A small, hand-checkable fact table used by both engine test suites:
    /// three tables, mixed text/numeric cells.
    pub fn sample_rows() -> Vec<FactRow> {
        let mut rows = Vec::new();
        // Table 0: columns [city, pop] with 3 rows.
        let data0 = [
            ("berlin", Some(false)),
            ("paris", None),
            ("rome", Some(true)),
        ];
        for (r, (city, _)) in data0.iter().enumerate() {
            rows.push(FactRow::new(city, 0, 0, r as u32, 0xF0 + r as u128, None));
        }
        for (r, q) in [Some(false), Some(true), Some(true)]
            .into_iter()
            .enumerate()
        {
            rows.push(FactRow::new(
                &format!("{}", 100 * (r + 1)),
                0,
                1,
                r as u32,
                0xF0 + r as u128,
                q,
            ));
        }
        // Table 1: one column sharing "berlin" and "rome".
        for (r, v) in ["berlin", "munich", "rome"].into_iter().enumerate() {
            rows.push(FactRow::new(v, 1, 0, r as u32, 0xA0 + r as u128, None));
        }
        // Table 2: numeric-only column.
        for r in 0..4u32 {
            rows.push(FactRow::new(
                &format!("{}", r * 10),
                2,
                0,
                r,
                0xB0 + r as u128,
                Some(r >= 2),
            ));
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both engines must answer identically; this is also covered by a
    /// property test in the SQL crate, but a direct spot check here keeps
    /// the contract local.
    #[test]
    fn engines_agree_on_sample() {
        let rows = test_support::sample_rows();
        let row = build_engine(EngineKind::Row, rows.clone());
        let col = build_engine(EngineKind::Column, rows);
        assert_eq!(row.len(), col.len());
        assert_eq!(row.n_tables(), col.n_tables());
        for pos in 0..row.len() {
            assert_eq!(row.value_at(pos), col.value_at(pos), "pos {pos}");
            assert_eq!(row.table_at(pos), col.table_at(pos));
            assert_eq!(row.column_at(pos), col.column_at(pos));
            assert_eq!(row.row_at(pos), col.row_at(pos));
            assert_eq!(row.superkey_at(pos), col.superkey_at(pos));
            assert_eq!(row.quadrant_at(pos), col.quadrant_at(pos));
        }
        assert_eq!(row.postings("berlin"), col.postings("berlin"));
        assert_eq!(row.table_postings(1), col.table_postings(1));
    }

    #[test]
    fn column_store_is_smaller() {
        // The storage claim behind Table VIII / the Row-vs-Column figures:
        // dictionary encoding shrinks the index footprint.
        let mut rows = Vec::new();
        for t in 0..20u32 {
            for r in 0..200u32 {
                rows.push(FactRow::new(
                    &format!("value-{}", r % 13), // heavy duplication
                    t,
                    0,
                    r,
                    r as u128,
                    None,
                ));
            }
        }
        let row = build_engine(EngineKind::Row, rows.clone());
        let col = build_engine(EngineKind::Column, rows);
        assert!(
            col.size_bytes() < row.size_bytes(),
            "column {} !< row {}",
            col.size_bytes(),
            row.size_bytes()
        );
    }

    #[test]
    fn value_codes_only_on_the_column_store() {
        let rows = test_support::sample_rows();
        let row = build_engine(EngineKind::Row, rows.clone());
        let col = build_engine(EngineKind::Column, rows);
        let all: Vec<u32> = (0..col.len() as u32).collect();
        let mut codes = Vec::new();
        assert!(!row.gather_value_codes(&all, &mut codes));
        assert!(codes.is_empty());
        assert!(col.gather_value_codes(&all, &mut codes));
        // Codes are bijective with values: equal code <=> equal value.
        for (pos, &code) in codes.iter().enumerate() {
            assert_eq!(col.value_of_code(code), Some(col.value_at(pos)));
            for (other, &other_code) in codes.iter().enumerate() {
                assert_eq!(other_code == code, col.value_at(other) == col.value_at(pos));
            }
        }
    }

    #[test]
    fn batch_gathers_match_point_accessors() {
        let rows = test_support::sample_rows();
        for kind in [EngineKind::Row, EngineKind::Column] {
            let t = build_engine(kind, rows.clone());
            let positions: Vec<u32> = (0..t.len() as u32).rev().collect();
            let (mut tables, mut columns, mut row_ids, mut codes) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            t.gather_tables(&positions, &mut tables);
            t.gather_columns(&positions, &mut columns);
            t.gather_rows(&positions, &mut row_ids);
            let has_codes = t.gather_value_codes(&positions, &mut codes);
            assert_eq!(has_codes, kind == EngineKind::Column);
            for (i, &p) in positions.iter().enumerate() {
                assert_eq!(tables[i], t.table_at(p as usize));
                assert_eq!(columns[i], t.column_at(p as usize));
                assert_eq!(row_ids[i], t.row_at(p as usize));
                if has_codes {
                    assert_eq!(t.value_of_code(codes[i]), Some(t.value_at(p as usize)));
                }
            }
        }
    }

    #[test]
    fn engine_labels() {
        assert_eq!(EngineKind::Row.label(), "Row");
        assert_eq!(EngineKind::Column.label(), "Column");
    }
}
