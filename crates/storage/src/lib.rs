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
//! Both hold their cells in one canonical order and own its [`Directory`]:
//! the table ranges, the (`TableId`, `ColumnId`) runs, the rows numbered
//! densely, and each cell's run and row ordinal. The column store adds a
//! value → runs index ([`ColumnIndex`]); the SC/KW seekers' distinct
//! counts walk run lists ([`Directory::walk`]) instead of scanning.
//! They also expose exact cardinality statistics, which the SQL layer's
//! access-path chooser uses the way a DBMS optimizer uses its catalog.
//! Both build from the lake dictionary-coded ([`coded`]): the index
//! builder's [`CodedPart`]s, or fact rows coded as one ([`build_engine`]).
//!
//! Scan predicates evaluate through compiled [`FilterKernel`]s (see
//! [`filter`]): the SQL planner builds one per scan — `TableId` lists as
//! [`IdSet`]s, `CellValue IN` as the engine's [`ValuePred`] — and the
//! engines run it a batch at a time over selection vectors —
//! dictionary-code probes on the column store, fused tuple checks on the
//! row store — through their only two evaluators,
//! [`FactTable::filter_batch`] and [`FactTable::filter_range`].
//!
//! Two structures serve every layer above: [`GroupIndex`] ([`hashtable`]),
//! the one index that numbers keys densely — the column store's dictionary,
//! and the SQL executor's GROUP BY, joins, interned keys and result text —
//! and [`RadixPartitions`] ([`radix`]), the one CSR — the postings, the
//! column index, and the executor's partitions and per-id row lists.
//! Row ordinals are numbered densely by [`OrdinalRank`], which the
//! executor's row-key join and the MC seeker's operator share.

#![forbid(unsafe_code)]

pub mod coded;
pub mod column_store;
pub mod directory;
pub mod fact;
pub mod filter;
pub mod hashtable;
pub mod radix;
pub mod row_store;
pub mod stats;

pub use coded::{fact_rows, CodedCell, CodedPart};
pub use column_store::{ColumnIndex, ColumnStore};
pub use directory::{Directory, Walk};
pub use fact::{
    cut_to_ranges, decode_quadrant, encode_quadrant, FactRow, FactTable, MemoryBreakdown,
    OrdinalRank, Resolved, QUADRANT_NULL, QUADRANT_ONE, QUADRANT_ZERO,
};
pub use filter::{FilterKernel, IdSet, ScanScratch, ValuePred};
pub use hashtable::{DenseKey, GroupIndex, PROBE_BLOCK};
pub use radix::{radix_partition, radix_scratch_bytes, RadixPartitions};
pub use row_store::RowStore;
pub use stats::FactStats;

use std::sync::Arc;

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

/// Build a fact table with the chosen engine from raw index rows: the
/// one-part case of [`build_parts`] ([`CodedPart::from_rows`]).
pub fn build_engine(kind: EngineKind, rows: Vec<FactRow>) -> Arc<dyn FactTable> {
    build_parts(kind, vec![CodedPart::from_rows(rows)])
}

/// Build a fact table with the chosen engine from the lake's coded parts,
/// whose cells are in canonical order end to end.
pub fn build_parts(kind: EngineKind, parts: Vec<CodedPart>) -> Arc<dyn FactTable> {
    match kind {
        EngineKind::Row => Arc::new(RowStore::build(parts)),
        EngineKind::Column => Arc::new(ColumnStore::build(parts)),
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// Fact rows coded as the one part the stores build from.
    pub fn one_part(rows: Vec<FactRow>) -> Vec<CodedPart> {
        vec![CodedPart::from_rows(rows)]
    }

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
        assert_eq!(
            row.directory().table_postings(1),
            col.directory().table_postings(1)
        );
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

    /// [`FactTable::resolve`] against each value's own lookup on both
    /// stores: its postings (on the column store, only when asked for), and
    /// on the column store the code its cells hold (`None` on a miss and on
    /// the row store). Value lists mix hits, misses, `""` and duplicates, at
    /// lengths on both sides of each [`PROBE_BLOCK`] boundary; the resolved
    /// values are appended after what `out` held.
    #[test]
    fn resolve_matches_the_per_value_lookup_on_both_stores() {
        let rows: Vec<FactRow> = (0..3_000u32)
            .map(|i| FactRow::new(&format!("v{}", i % 1_500), i % 7, i % 3, i, 0, None))
            .collect();
        let words: Vec<String> = (0..2_000)
            .map(|i| match i % 5 {
                0 => format!("miss{i}"),
                1 => String::new(),
                2 => "v7".to_string(),
                _ => format!("v{}", i * 7 % 1_600),
            })
            .collect();
        for kind in [EngineKind::Row, EngineKind::Column] {
            let t = build_engine(kind, rows.clone());
            let cases = [0, 1, 63, 64, 65, 129, 1_000].into_iter();
            for (n, postings) in cases.flat_map(|n| [(n, true), (n, false)]) {
                let values: Vec<&str> = words[..n].iter().map(String::as_str).collect();
                let sentinel = Resolved {
                    code: Some(9),
                    postings: &[],
                };
                let mut got = vec![sentinel];
                t.resolve(&values, postings, &mut got);
                assert_eq!(got.len(), n + 1);
                assert_eq!(got[0], sentinel);
                for (v, r) in values.iter().zip(&got[1..]) {
                    let mut code = Vec::new();
                    t.gather_value_codes(&t.postings(v)[..t.postings(v).len().min(1)], &mut code);
                    let read = postings || kind == EngineKind::Row;
                    let want = Resolved {
                        code: code.first().copied(),
                        postings: if read { t.postings(v) } else { &[] },
                    };
                    assert_eq!(*r, want, "{kind:?} n {n} postings {postings} value {v:?}");
                    if let Some(c) = r.code {
                        assert_eq!(t.value_of_code(c), Some(*v));
                    }
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
