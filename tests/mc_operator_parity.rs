//! The MC operator against Listing 2's SQL. `seekers::run` answers an MC
//! seeker with one operator over the index, not with SQL; its hits and
//! `McStats` must be what the seeker's SQL text (`OpExecution::sql`, spelled
//! by `common/seeker_text.rs` and run through the reference interpreter, `execute_reference`) gives under the
//! paper's two filter steps, as the row oracle of `common/mc_oracle.rs`
//! applies them.
//!
//! Covered: arity 2–4, both stores, five-row chunks; no injection, `In`
//! over a few tables and over most, `NotIn` and an empty `NotIn`; a value
//! in several columns of a row, a value shared by two query columns,
//! absent values and duplicate query rows; and a store holding `RowId`s
//! near `u32::MAX`, which either store's row directory numbers by rank
//! (the `mc.rows` span's `rows`, alike on both stores).

#[path = "common/mc_oracle.rs"]
mod mc_oracle;
#[path = "common/seeker_text.rs"]
mod seeker_text;

use std::sync::Arc;

use blend::seekers::{self, Injected};
use blend::{Blend, Plan, Seeker};
use blend_index::IndexBuilder;
use blend_lake::web::{generate, WebLakeConfig};
use blend_lake::DataLake;
use blend_obs::AttrValue;
use blend_parallel::{Interrupt, ParallelCtx};
use blend_storage::{build_engine, EngineKind, FactTable};
use mc_oracle::mc_postprocess_rows;
use proptest::prelude::*;
use seeker_text::{engine, sql_text};

const K: usize = 10;

/// A lake over a small vocabulary, so values repeat across the columns of
/// a row, across rows and across tables.
fn lake(seed: u64, n_tables: usize, vocab: usize) -> DataLake {
    generate(&WebLakeConfig {
        name: "mc-operator".into(),
        n_tables,
        rows: (3, 14),
        cols: (2, 5),
        vocab,
        zipf_s: 0.8,
        numeric_col_ratio: 0.2,
        null_ratio: 0.05,
        seed,
    })
}

/// Query rows of `arity` read off the lake's rows from table `pick` on
/// (planted overlaps), plus: the first row repeated and re-spelled
/// (duplicates after normalization), its first value in every column (one
/// value shared by all query columns), and a row no table holds.
fn query_rows(lake: &DataLake, arity: usize, pick: usize) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = Vec::new();
    let tables = lake.tables.len();
    for i in (0..tables).step_by(2) {
        let t = &lake.tables[(pick + i) % tables];
        let r = (pick + i) % t.n_rows().max(1);
        let cells: Vec<String> = (t.row(r).filter_map(|v| v.normalized()))
            .map(|v| v.into_owned())
            .collect();
        if cells.len() >= arity {
            rows.push(cells[..arity].to_vec());
        }
    }
    if let Some(first) = rows.first().cloned() {
        rows.push(first.clone());
        rows.push(
            first
                .iter()
                .map(|v| format!(" {} ", v.to_uppercase()))
                .collect(),
        );
        rows.push(vec![first[0].clone(); arity]);
    }
    rows.push((0..arity).map(|c| format!("absent-{c}")).collect());
    rows
}

/// The lake's index with the last table's `RowId`s moved up to just below
/// `u32::MAX`: a column store's row ordinals are then ranks far from the
/// `RowId`s.
fn far_row_ids(lake: &DataLake, kind: EngineKind) -> Arc<dyn FactTable> {
    let mut rows = IndexBuilder::new().index_lake(&lake.tables);
    let last = rows.iter().map(|r| r.table).max().unwrap_or(0);
    for r in rows.iter_mut().filter(|r| r.table == last) {
        r.row += u32::MAX - 64;
    }
    build_engine(kind, rows)
}

/// No injection, `In` over two tables and over all but two, `NotIn` over
/// every third table, and an empty `NotIn`.
fn injections(n_tables: u32) -> Vec<Option<Injected>> {
    vec![
        None,
        Some(Injected::In(vec![n_tables / 2, 1])),
        Some(Injected::In((2..n_tables).rev().collect())),
        Some(Injected::NotIn((0..n_tables).step_by(3).collect())),
        Some(Injected::NotIn(Vec::new())),
    ]
}

/// `seekers::run` equals the row oracle over `execute_reference` of its text;
/// returns the validated count.
fn check(blend: &Blend, rows: &[Vec<String>], injected: Option<&Injected>, what: &str) -> usize {
    let seeker = Seeker::mc(rows.to_vec());
    let run = seekers::run(blend, &seeker, K, injected, &Interrupt::never()).unwrap();
    let sql = sql_text(blend, &seeker, K, injected);
    if let Some(Injected::In(ids)) = injected.filter(|_| sql.is_empty()) {
        // An empty intersection returns before reading the index.
        assert!(ids.is_empty() && run.hits.is_empty(), "{what}");
        assert_eq!(run.mc_stats, Some(Default::default()), "{what}");
        return 0;
    }
    let (reference, _) = engine(blend).execute_reference(&sql).unwrap();
    let (hits, stats) = mc_postprocess_rows(&reference, rows, K);
    assert_eq!(run.hits, hits, "{what}");
    assert_eq!(run.mc_stats, Some(stats), "{what}");
    stats.validated
}

/// The numbering path the operator's `mc.rows` span names for `rows`.
fn numbered_rows(blend: &Blend, rows: &[Vec<String>]) -> u64 {
    let mut plan = Plan::new();
    plan.add_seeker("mc", Seeker::mc(rows.to_vec()), K).unwrap();
    let (_, report) = blend.execute_with_report(&plan).unwrap();
    let profile = report.profile.expect("profile collected");
    let span = profile.find("mc.rows");
    assert!(
        span.is_some_and(|s| s.attr("path").is_none()),
        "one numbering"
    );
    match span.and_then(|s| s.attr("rows")) {
        Some(AttrValue::U64(rows)) => *rows,
        other => panic!("mc.rows rows = {other:?}\n{}", profile.render()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn operator_equals_the_row_oracle_over_the_reference(
        seed in any::<u64>(),
        n_tables in 6usize..16,
        vocab in 6usize..16,
        arity in 2usize..=4,
        pick in 0usize..32,
    ) {
        let lake = lake(seed, n_tables, vocab);
        let rows = query_rows(&lake, arity, pick);
        for kind in [EngineKind::Row, EngineKind::Column] {
            let facts = [
                ("dense rows", IndexBuilder::new().build(&lake.tables, kind)),
                ("far rows", far_row_ids(&lake, kind)),
            ];
            for (layout, fact) in facts {
                let mut blend = Blend::new(fact);
                    blend.set_parallel(Arc::new(ParallelCtx::with_tuning(1, 5)));
                    for injected in injections(n_tables as u32) {
                        let what = format!("{kind:?} {layout} {injected:?} {rows:?}");
                        check(&blend, &rows, injected.as_ref(), &what);
                    }
            }
        }
    }
}

/// The planted rows of `columnar_mc_phase…` before the operator: six
/// repetitive lakes, arity 2 and 3, both stores; the text path's rows give
/// the oracle the same answer as the reference's, and planted rows
/// validate.
#[test]
fn columnar_mc_phase_matches_the_row_oracle_on_every_path() {
    for seed in 0..6u64 {
        let lake = lake(seed, 24, 14);
        for kind in [EngineKind::Row, EngineKind::Column] {
            let blend = Blend::from_lake(&lake, kind);
            for arity in [2usize, 3] {
                let rows = query_rows(&lake, arity, seed as usize);
                let what = format!("seed {seed} {kind:?} arity {arity}");
                let validated = check(&blend, &rows, None, &what);
                let seeker = Seeker::mc(rows.clone());
                let run = seekers::run(&blend, &seeker, K, None, &Interrupt::never()).unwrap();
                let sql = sql_text(&blend, &seeker, K, None);
                let (text, _) = (engine(&blend))
                    .execute_columns_interruptible(&sql, Interrupt::never())
                    .unwrap();
                let want = mc_postprocess_rows(&text.to_result_set(), &rows, K);
                assert_eq!((run.hits, run.mc_stats), (want.0, Some(want.1)), "{what}");
                assert!(
                    arity > 2 || validated > 0,
                    "{what}: planted rows must validate"
                );
            }
        }
    }
}

/// One value in two columns of a row and in both query columns: the cell
/// pairs with itself in the SQL join, which the distinct-column check
/// drops, and with its twin in the other column, which it keeps.
#[test]
fn a_value_in_several_columns_of_a_row() {
    use blend_common::{Column, Table, TableId};
    let table = |id: u32, a: Vec<&str>, b: Vec<&str>| {
        Table::new(
            TableId(id),
            "t",
            vec![Column::new("a", a), Column::new("b", b)],
        )
        .unwrap()
    };
    let lake = DataLake::new(
        "twins",
        vec![
            table(0, vec!["x", "x", "y"], vec!["x", "z", "x"]),
            table(1, vec!["x", "q"], vec!["q", "x"]),
        ],
    );
    let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<String>>();
    let cases = [
        vec![s(&["x", "x"])],
        vec![s(&["x", "x"]), s(&["x", "z"]), s(&["X", " x "])],
        vec![s(&["x", "q"]), s(&["y", "x"]), s(&["absent", "x"])],
    ];
    for kind in [EngineKind::Row, EngineKind::Column] {
        let blend = Blend::from_lake(&lake, kind);
        for rows in &cases {
            for injected in injections(2) {
                check(
                    &blend,
                    rows,
                    injected.as_ref(),
                    &format!("{kind:?} {rows:?} {injected:?}"),
                );
            }
        }
        // Only table 0's row 0 holds "x" twice, in distinct columns.
        let run = seekers::run(
            &blend,
            &Seeker::mc(cases[0].clone()),
            K,
            None,
            &Interrupt::never(),
        )
        .unwrap();
        assert_eq!(run.mc_stats.map(|s| s.validated), Some(1), "{kind:?}");
    }
}

/// Both stores number rows through their row directory, far `RowId`s
/// included: the `mc.rows` span carries no path, and every store numbers
/// the same rows.
#[test]
fn numbering_path_follows_the_row_directory() {
    let lake = lake(7, 10, 10);
    let rows = query_rows(&lake, 2, 0);
    let numbered = |fact| numbered_rows(&Blend::new(fact), &rows);
    let column = numbered(IndexBuilder::new().build(&lake.tables, EngineKind::Column));
    assert!(column > 0, "planted rows are numbered");
    let row = numbered(IndexBuilder::new().build(&lake.tables, EngineKind::Row));
    assert_eq!(row, column);
    assert_eq!(numbered(far_row_ids(&lake, EngineKind::Column)), column);
    assert_eq!(numbered(far_row_ids(&lake, EngineKind::Row)), column);
}
