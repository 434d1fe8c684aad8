//! Row-key join parity: the MC (paper Listing 2) and C (Listing 3) seeker
//! joins on (`TableId`, `RowId`) match row ordinals through the store's
//! row directory, and return the reference executor's bytes.
//!
//! The lakes are built to make the row numbering matter: table ids with
//! gaps (and tables without a cell), `RowId`s with gaps, and a small
//! vocabulary that repeats a value across the columns of one row, so a
//! row matches several build rows and a value meets itself on both join
//! sides. Every seeker query runs bare and with a `TableId IN` / `NOT IN`
//! injection, in five-row chunks, under both SIMD dispatch paths:
//!
//! * on either store every `join.build` span says `path=rows` and no join
//!   hash table is recorded — also where one huge `RowId` sits far past
//!   the others, which the store's ranked ordinals absorb;
//! * where the first scan reads a second catalog table built from the same
//!   rows (`Twin`), the two sides' ordinals are not one directory's, so
//!   every join says `path=hash`;
//!
//! and every result is byte-identical to `execute_reference`.

use std::sync::Arc;

use blend::seekers::{seeker_sql, Injected, TID_PLACEHOLDER};
use blend::Seeker;
use blend_obs::ProfileNode;
use blend_parallel::ParallelCtx;
use blend_sql::{QueryReport, SqlEngine};
use blend_storage::{ColumnStore, FactRow, FactTable, RowStore};
use proptest::prelude::*;

/// Resets the process-global SIMD override when a case ends, pass or fail.
struct ForceScope;

impl Drop for ForceScope {
    fn drop(&mut self) {
        blend_simd::force(None);
    }
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A lake of `n_tables` tables at ids `0, 3, 6, …` (every fourth one
/// empty). Row `r` sits at `RowId` `2r` or `2r + 1`, so the ids have gaps.
/// Column 1 is numeric, with quadrant bits; the text columns draw from
/// `w0 … w{vocab}`, and column 2 repeats column 0's value one time in
/// three.
fn lake(seed: u64, n_tables: u32, vocab: u64) -> Vec<FactRow> {
    let mut rng = Rng(seed | 1);
    let mut rows = Vec::new();
    for t in 0..n_tables {
        if t % 4 == 3 {
            continue;
        }
        let n_rows = 1 + rng.below(9) as u32;
        let n_cols = 3 + rng.below(2) as u32;
        for r in 0..n_rows {
            let row = 2 * r + rng.below(2) as u32;
            let sk = ((t as u128) << 64) | row as u128;
            let key = format!("w{}", rng.below(vocab));
            let num = rng.below(100);
            rows.push(FactRow::new(&key, 3 * t, 0, row, sk, None));
            rows.push(FactRow::new(
                &num.to_string(),
                3 * t,
                1,
                row,
                sk,
                Some(num >= 50),
            ));
            for c in 2..n_cols {
                let value = match rng.below(3) {
                    0 => key.clone(),
                    _ => format!("w{}", rng.below(vocab)),
                };
                if rng.below(8) != 0 {
                    rows.push(FactRow::new(&value, 3 * t, c, row, sk, None));
                }
            }
        }
    }
    rows
}

/// The text values of the lake's rows, row by row (query rows are read off
/// them, so the joins find planted matches).
fn text_rows(rows: &[FactRow]) -> Vec<Vec<String>> {
    let mut by_row: std::collections::BTreeMap<(u32, u32), Vec<String>> = Default::default();
    for f in rows.iter().filter(|f| f.quadrant.is_none()) {
        by_row
            .entry((f.table, f.row))
            .or_default()
            .push(f.value.to_string());
    }
    by_row.into_values().collect()
}

/// MC at arities 2–4 and C, each bare and with a `TableId IN` / `NOT IN`
/// injection (over the lake's ids, a missing one among them).
fn queries(rows: &[FactRow], rng: &mut Rng) -> Vec<(String, String)> {
    let lake_rows = text_rows(rows);
    let mut seekers = Vec::new();
    for arity in 2..=4 {
        let mut mc = Vec::new();
        for _ in 0..6 {
            let row = &lake_rows[rng.below(lake_rows.len() as u64) as usize];
            mc.push((0..arity).map(|c| row[c % row.len()].clone()).collect());
        }
        mc.push((0..arity).map(|c| format!("absent-{c}")).collect());
        seekers.push((format!("mc{arity}"), Seeker::Mc { rows: mc }));
    }
    let keys: Vec<String> = (0..8).map(|i| format!("w{i}")).collect();
    let target: Vec<f64> = (0..8).map(|_| rng.below(1000) as f64).collect();
    seekers.push(("c".to_string(), Seeker::C { keys, target }));

    let mut tables: Vec<u32> = rows.iter().map(|f| f.table).collect();
    tables.dedup();
    let mut pick: Vec<u32> = tables.into_iter().filter(|_| rng.below(2) == 0).collect();
    pick.push(1);
    let injections = [
        ("bare", String::new()),
        ("in", Injected::In(pick.clone()).fragment()),
        ("not-in", Injected::NotIn(pick).fragment()),
    ];
    let mut out = Vec::new();
    for (label, seeker) in &seekers {
        let sql = seeker_sql(seeker, 10, 16);
        for (how, fragment) in &injections {
            out.push((
                format!("{label}/{how}"),
                sql.replace(TID_PLACEHOLDER, fragment),
            ));
        }
    }
    out
}

/// Every span named `name` under `node`.
fn spans<'p>(node: &'p ProfileNode, name: &str, out: &mut Vec<&'p ProfileNode>) {
    if node.name == name {
        out.push(node);
    }
    for child in &node.children {
        spans(child, name, out);
    }
}

/// The `path` attr of every `join.build` span of a run, which must all be
/// `want`; row-key builds record their distinct ordinals and no hash table,
/// and every probe the rows whose key found no id (`skipped`).
fn check_join_path(report: &QueryReport, want: &str, what: &str) {
    let profile = report.profile.as_ref().expect("profile collected");
    let mut builds = Vec::new();
    spans(&profile.root, "join.build", &mut builds);
    let mut probes = Vec::new();
    spans(&profile.root, "join.probe", &mut probes);
    assert!(!builds.is_empty(), "{what}: no join ran");
    assert_eq!(builds.len(), report.joins.len(), "{what}");
    for span in builds.iter().chain(&probes) {
        let path = span.attr("path").map(ToString::to_string);
        assert_eq!(path.as_deref(), Some(want), "{what}: {}", span.name);
    }
    let rows = want == "rows";
    assert!(
        builds.iter().all(|b| b.attr("ordinals").is_some() == rows),
        "{what}"
    );
    // Every probe reports the rows whose key found no id, on either path.
    assert!(probes.iter().all(|p| p.attr("skipped").is_some()), "{what}");
    let join_tables = report.hash_tables.iter().filter(|h| h.phase == "join");
    assert_eq!(
        join_tables.count(),
        if rows { 0 } else { builds.len() },
        "{what}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn row_key_joins_match_the_reference_on_rows_and_hash_paths(
        seed in any::<u64>(),
        n_tables in 2u32..16,
        vocab in 3u64..12,
    ) {
        let _scope = ForceScope;
        let rows = lake(seed, n_tables, vocab);
        let queries = queries(&rows, &mut Rng(seed ^ 0x5EED));
        let mut sparse = rows.clone();
        sparse.push(FactRow::new("w0", 0, 9, u32::MAX - 1, 0, None));
        let row: Arc<dyn FactTable> = Arc::new(RowStore::build(rows.clone()));
        let twin: Arc<dyn FactTable> = Arc::new(RowStore::build(rows.clone()));
        let stores: [(&str, Arc<dyn FactTable>, &str); 4] = [
            ("column", Arc::new(ColumnStore::build(rows.clone())), "rows"),
            ("row", row.clone(), "rows"),
            ("sparse", Arc::new(ColumnStore::build(sparse)), "rows"),
            ("twin", row, "hash"),
        ];
        let ordinals = |s: &dyn FactTable| s.directory().rows();
        let mut pairs: Vec<(u32, u32)> = rows.iter().map(|r| (r.table, r.row)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        prop_assert_eq!(ordinals(&*stores[0].1), pairs.len());
        prop_assert_eq!(ordinals(&*stores[1].1), pairs.len());
        prop_assert_eq!(ordinals(&*stores[2].1), pairs.len() + 1);

        for (store, fact, path) in &stores {
            // The twin arm's first scan reads `Twin`, the others `AllTables`.
            let with_twin = *store == "twin";
            let engine = |ctx: ParallelCtx| {
                let eng = SqlEngine::with_alltables(fact.clone()).with_parallel(Arc::new(ctx));
                if with_twin {
                    eng.database().register("Twin", twin.clone());
                }
                eng
            };
            let reference = engine(ParallelCtx::sequential());
            for (label, sql) in &queries {
                let sql = match with_twin {
                    true => sql.replacen("FROM AllTables", "FROM Twin", 1),
                    false => sql.clone(),
                };
                let (want, _) = reference.execute_reference(&sql).unwrap();
                if label == "mc2/bare" {
                    prop_assert!(!want.is_empty(), "{store}: planted MC rows must join");
                }
                    let eng = engine(ParallelCtx::with_tuning(1, 5));
                    for simd in [false, true] {
                        blend_simd::force(Some(simd));
                        let what = format!("{store}/{label}/simd={simd}");
                        let (got, report) = eng.execute_with_report(&sql).unwrap();
                        prop_assert_eq!(
                            format!("{:?}", got),
                            format!("{:?}", want),
                            "{} vs the reference",
                            &what
                        );
                        check_join_path(&report, path, &what);
                    }
            }
        }
    }
}
