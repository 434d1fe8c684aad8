//! Filter-kernel parity: the batched selection-vector kernels
//! (`FactTable::filter_batch` / `filter_range`) must reproduce a brute
//! force over the raw predicate inputs **byte-for-byte** — for random
//! predicate sets, on both storage engines, over position lists and
//! contiguous ranges, chunk by chunk as the executor's scan runs them,
//! and, for the two seeker scan shapes, on both forced SIMD
//! dispatch paths.
//!
//! The oracle ([`Preds::keeps`]) reads cells through the point accessors
//! and compares them with the value strings, id lists, bound and null flag
//! as written: it shares no set type and no probe with the kernels.
//!
//! The three selection loops under every engine kernel (`blend_storage::
//! filter`'s `compact`, `extend_filtered` and `extend_range`) are held to
//! `iter().filter()` on their own, over random lengths, prefixes and
//! offsets, degenerate ranges and all-keep / all-drop predicates.

use blend_sql::SqlEngine;
use blend_storage::filter::{compact, extend_filtered, extend_range};
use blend_storage::{
    build_engine, EngineKind, FactRow, FactTable, FilterKernel, IdSet, ScanScratch,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Deterministic fact rows: `n_tables` tables × `rows_per` rows × 3 columns
/// (text key, numeric with quadrant bits, extra text), vocabulary `w0..wV`.
fn fact_rows(n_tables: u32, rows_per: u32, vocab: u32, seed: u64) -> Vec<FactRow> {
    let mut rows = Vec::new();
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    for t in 0..n_tables {
        for r in 0..rows_per {
            let sk = ((t as u128) << 64) | ((next() as u128) & 0xFFFF_FFFF);
            rows.push(FactRow::new(
                &format!("w{}", next() % vocab as u64),
                t,
                0,
                r,
                sk,
                None,
            ));
            let num = next() % 100;
            rows.push(FactRow::new(&num.to_string(), t, 1, r, sk, Some(num >= 50)));
            rows.push(FactRow::new(
                &format!("w{}", next() % vocab as u64),
                t,
                2,
                r,
                sk,
                None,
            ));
        }
    }
    rows
}

/// The raw inputs of a scan's cheap predicates; `None` = absent.
#[derive(Debug)]
struct Preds {
    values: Option<Vec<String>>,
    table_in: Option<Vec<u32>>,
    table_not_in: Option<Vec<u32>>,
    rowid_lt: Option<u32>,
    quadrant_null: Option<bool>,
}

impl Preds {
    /// Random predicates: every one independently present or absent, the
    /// lists deliberately mixing hits with misses (values absent from the
    /// dictionary, table ids past the range directory).
    fn new(
        vocab: u32,
        value_sel: Option<(u64, usize)>,
        table_in: Option<Vec<u32>>,
        table_not_in: Option<Vec<u32>>,
        rowid_lt: Option<u32>,
        quadrant_null: Option<bool>,
    ) -> Self {
        let values = value_sel.map(|(seed, n)| {
            (0..n as u64)
                .map(|i| {
                    let w = seed.wrapping_mul(31).wrapping_add(i * 7) % (vocab as u64 + 3);
                    format!("w{w}")
                })
                .collect()
        });
        Preds {
            values,
            table_in,
            table_not_in,
            rowid_lt,
            quadrant_null,
        }
    }

    /// The kernel the planner would build from these inputs.
    fn kernel(&self, table: &dyn FactTable) -> FilterKernel {
        let ids = |v: &Vec<u32>| IdSet::build(v.iter().copied());
        FilterKernel {
            value: self.values.as_ref().map(|vs| {
                let refs: Vec<&str> = vs.iter().map(String::as_str).collect();
                table.make_probe(&refs)
            }),
            table_in: self.table_in.as_ref().map(ids),
            table_not_in: self.table_not_in.as_ref().map(ids),
            rowid_lt: self.rowid_lt,
            quadrant_null: self.quadrant_null,
        }
    }

    /// Oracle: does position `p` pass every present predicate?
    fn keeps(&self, table: &dyn FactTable, p: usize) -> bool {
        let value = table.value_at(p);
        let t = table.table_at(p);
        self.values
            .as_ref()
            .is_none_or(|vs| vs.iter().any(|v| v == value))
            && self.table_in.as_ref().is_none_or(|ts| ts.contains(&t))
            && self.table_not_in.as_ref().is_none_or(|ts| !ts.contains(&t))
            && self.rowid_lt.is_none_or(|bound| table.row_at(p) < bound)
            && self
                .quadrant_null
                .is_none_or(|null| table.quadrant_at(p).is_none() == null)
    }

    /// Oracle over every position in `lo..hi`.
    fn positions(&self, table: &dyn FactTable, lo: usize, hi: usize) -> Vec<u32> {
        (lo..hi)
            .filter(|&p| self.keeps(table, p))
            .map(|p| p as u32)
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batched_kernels_match_the_scalar_oracle(
        n_tables in 2u32..7,
        rows_per in 3u32..20,
        vocab in 3u32..12,
        seed in any::<u64>(),
        value_sel in proptest::option::of((any::<u64>(), 1usize..8)),
        table_in in proptest::option::of(proptest::collection::vec(0u32..9, 1..5)),
        table_not_in in proptest::option::of(proptest::collection::vec(0u32..9, 1..5)),
        rowid_lt in proptest::option::of(0u32..24),
        quadrant_null in proptest::option::of(proptest::prelude::any::<bool>()),
        subrange in (any::<u64>(), any::<u64>()),
    ) {
        let rows = fact_rows(n_tables, rows_per, vocab, seed);
        for kind in [EngineKind::Row, EngineKind::Column] {
            let table = build_engine(kind, rows.clone());
            let preds = Preds::new(
                vocab,
                value_sel,
                table_in.clone(),
                table_not_in.clone(),
                rowid_lt,
                quadrant_null,
            );
            let kernel = preds.kernel(table.as_ref());
            let n = table.len();
            let want = preds.positions(table.as_ref(), 0, n);

            // Batch over the full position list.
            let all: Vec<u32> = (0..n as u32).collect();
            let mut sel = Vec::new();
            table.filter_batch(&kernel, &all, &mut sel);
            prop_assert_eq!(&sel, &want, "{:?} filter_batch(full)", kind);

            // Range over the full table (no candidate list materialized).
            sel.clear();
            table.filter_range(&kernel, 0, n, &mut sel);
            prop_assert_eq!(&sel, &want, "{:?} filter_range(full)", kind);

            // A random sub-range and the matching batch slice agree with
            // the oracle restricted to that window.
            let (a, b) = (subrange.0 as usize % (n + 1), subrange.1 as usize % (n + 1));
            let (lo, hi) = (a.min(b), a.max(b));
            let want_window = preds.positions(table.as_ref(), lo, hi);
            sel.clear();
            table.filter_range(&kernel, lo, hi, &mut sel);
            prop_assert_eq!(&sel, &want_window, "{:?} filter_range({}..{})", kind, lo, hi);
            sel.clear();
            table.filter_batch(&kernel, &all[lo..hi], &mut sel);
            prop_assert_eq!(&sel, &want_window, "{:?} filter_batch({}..{})", kind, lo, hi);

            // Postings-driven batch: candidates from the inverted index.
            let postings = table.postings(&format!("w{}", seed % vocab as u64));
            let want_postings: Vec<u32> = postings
                .iter()
                .copied()
                .filter(|&p| preds.keeps(table.as_ref(), p as usize))
                .collect();
            sel.clear();
            table.filter_batch(&kernel, postings, &mut sel);
            prop_assert_eq!(&sel, &want_postings, "{:?} filter_batch(postings)", kind);

            // Seven-position chunks through one reused ScanScratch, as the
            // executor's filtered scan runs: concatenating the per-chunk
            // selection vectors in order must reproduce the oracle list
            // exactly.
            let (mut merged, mut scratch) = (Vec::new(), ScanScratch::default());
            for start in (0..n).step_by(7) {
                scratch.sel.clear();
                table.filter_range(&kernel, start, (start + 7).min(n), &mut scratch.sel);
                merged.extend_from_slice(&scratch.sel);
            }
            prop_assert_eq!(&merged, &want, "{:?} chunked", kind);
        }
    }
}

/// A keep-bound over values in `0..1000` plus its saturated edges: 0 drops
/// every value, 1000 keeps every one.
fn bounds(sampled: u32) -> [u32; 3] {
    [0, 1000, sampled]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `compact` keeps `sel[..start]` as it was and slides the survivors
    /// of the rest to the front in order.
    #[test]
    fn compaction_matches_a_filter(
        vals in proptest::collection::vec(0u32..1000, 0..300),
        start_seed in any::<u64>(),
        b_raw in 1u32..1000,
    ) {
        let start = start_seed as usize % (vals.len() + 1);
        for b in bounds(b_raw) {
            let mut sel = vals.clone();
            compact(&mut sel, start, |v| v < b);
            let kept = vals[start..].iter().copied().filter(|&v| v < b);
            let want: Vec<u32> = vals[..start].iter().copied().chain(kept).collect();
            prop_assert_eq!(sel, want, "start {} bound {}", start, b);
        }
    }

    /// `extend_filtered` appends the survivors of a candidate list.
    #[test]
    fn candidate_filtering_matches_a_filter(
        prefix in proptest::collection::vec(any::<u32>(), 0..8),
        cands in proptest::collection::vec(0u32..1000, 0..300),
        b_raw in 1u32..1000,
    ) {
        for b in bounds(b_raw) {
            let mut sel = prefix.clone();
            extend_filtered(&mut sel, &cands, |v| v < b);
            let kept = cands.iter().copied().filter(|&v| v < b);
            let want: Vec<u32> = prefix.iter().copied().chain(kept).collect();
            prop_assert_eq!(sel, want, "bound {}", b);
        }
    }

    /// `extend_range` with a predicate on the position itself (the row
    /// store's form); `span == 0` gives `lo == hi` and `reversed` `hi < lo`.
    #[test]
    fn position_range_filtering_matches_a_filter(
        prefix in proptest::collection::vec(any::<u32>(), 0..8),
        lo in 0usize..200,
        span in 0usize..300,
        reversed in any::<bool>(),
        b_raw in 1u32..1000,
    ) {
        let (lo, hi) = if reversed { (lo + span, lo) } else { (lo, lo + span) };
        for b in bounds(b_raw) {
            let keep = |p: u32| p.wrapping_mul(0x9E37_79B9) % 1000 < b;
            let mut sel = prefix.clone();
            extend_range(&mut sel, lo, hi, keep);
            let kept = (lo..hi).map(|p| p as u32).filter(|&p| keep(p));
            let want: Vec<u32> = prefix.iter().copied().chain(kept).collect();
            prop_assert_eq!(sel, want, "{}..{} bound {}", lo, hi, b);
        }
    }

    /// `extend_range` with a predicate on a column's value at the position
    /// (the column store's form), over sub-ranges of the column that may
    /// be empty, inverted or whole.
    #[test]
    fn column_value_range_filtering_matches_a_filter(
        prefix in proptest::collection::vec(any::<u32>(), 0..8),
        vals in proptest::collection::vec(0u32..1000, 0..300),
        lo_seed in any::<u64>(),
        hi_seed in any::<u64>(),
        b_raw in 1u32..1000,
    ) {
        let lo = lo_seed as usize % (vals.len() + 1);
        let hi = hi_seed as usize % (vals.len() + 1);
        for b in bounds(b_raw) {
            let mut sel = prefix.clone();
            extend_range(&mut sel, lo, hi, |p| vals[p as usize] < b);
            let kept = (lo..hi).filter(|&p| vals[p] < b).map(|p| p as u32);
            let want: Vec<u32> = prefix.iter().copied().chain(kept).collect();
            prop_assert_eq!(sel, want, "{}..{} bound {}", lo, hi, b);
        }
    }
}

/// The two scan shapes of the seekers at a size where the IN-8 kernel runs
/// whole 64-code blocks plus a tail: a selective `CellValue IN` list (~0.5 %
/// of rows) and a non-selective quadrant + table + rowid mix (~half of
/// them), on both engines, with the IN-8 kernel and its scalar twin each
/// forced in turn.
#[test]
fn seeker_scan_shapes_match_the_scalar_oracle_on_both_simd_paths() {
    let rows = fact_rows(40, 250, 997, 0xF117E2);
    for kind in [EngineKind::Row, EngineKind::Column] {
        let table = build_engine(kind, rows.clone());
        let n = table.len();
        let selective = Preds::new(997, Some((7, 5)), None, None, None, None);
        let non_selective = Preds::new(
            997,
            None,
            None,
            Some(vec![3, 17, 31]),
            Some(200),
            Some(true),
        );
        for (label, preds) in [("selective", selective), ("non_selective", non_selective)] {
            let kernel = preds.kernel(table.as_ref());
            let want = preds.positions(table.as_ref(), 0, n);
            assert!(!want.is_empty() && want.len() < n, "{kind:?}/{label}");
            let all: Vec<u32> = (0..n as u32).collect();
            for vector in [false, true] {
                blend_simd::force(Some(vector));
                let mut sel = Vec::new();
                table.filter_range(&kernel, 0, n, &mut sel);
                assert_eq!(sel, want, "{kind:?}/{label} range, vector={vector}");
                sel.clear();
                table.filter_batch(&kernel, &all, &mut sel);
                assert_eq!(sel, want, "{kind:?}/{label} batch, vector={vector}");
            }
            blend_simd::force(None);
        }
    }
}

/// End-to-end: a query exercising every kernel predicate at once runs
/// through the kernelized scan on both engines and both executor paths, at
/// default and three-row chunks, with identical results.
#[test]
fn kernelized_scans_are_engine_path_and_thread_invariant() {
    let rows = fact_rows(6, 24, 8, 0xB1E4D);
    let sql = "SELECT TableId AS t, COUNT(DISTINCT CellValue) AS score FROM AllTables \
               WHERE CellValue IN ('w0','w2','w5','w9') AND TableId NOT IN (3) \
               AND RowId < 20 GROUP BY TableId, ColumnId ORDER BY score DESC, t";
    for kind in [EngineKind::Row, EngineKind::Column] {
        let reference = SqlEngine::with_alltables(build_engine(kind, rows.clone()))
            .with_parallel(Arc::new(blend_sql::ParallelCtx::sequential()));
        let (want, want_rep) = reference.execute_reference(sql).unwrap();
        let eng = SqlEngine::with_alltables(build_engine(kind, rows.clone()))
            .with_parallel(Arc::new(blend_sql::ParallelCtx::with_tuning(1, 3)));
        for eng in [&reference, &eng] {
            let (got, rep) = eng.execute_with_report(sql).unwrap();
            assert_eq!(rep.path, "positional", "{kind:?}");
            assert_eq!(got, want, "{kind:?} diverged from the reference");
            assert_eq!(rep.scans, want_rep.scans, "{kind:?} telemetry");
        }
    }
}
