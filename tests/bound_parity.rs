//! Every seeker's operator against its SQL text. `seekers::run` answers
//! each kind with one operator over the index (SC and KW `crate::sc`, MC
//! `crate::mc`, C `crate::c`) and renders no text; a plan's report carries
//! the SQL text that spells every list as literals (`OpExecution::sql`,
//! spelled here by `common/seeker_text.rs`). Its hits and MC statistics
//! must be what that text gives: run through the engine's text entry, whose rows
//! equal the reference interpreter's (`execute_reference`), and then the
//! application phase the operator replaced (the oracles of
//! `common/sc_oracle.rs`, `common/mc_oracle.rs` and `common/c_oracle.rs`).
//!
//! Every seeker kind, MC arity 2–4, both stores, five-row chunks, and
//! `In` / `NotIn` / no injection; the lists hold values that need escaping
//! (`O'Brien`), duplicates before and after normalization, values absent
//! from the dictionary, and one-value lists. Listing 1's edges have a test
//! of their own. The golden strings at the end pin `seeker_sql` and
//! `OpExecution::sql` to the text the served workloads' templates have
//! always had.

#[path = "common/c_oracle.rs"]
mod c_oracle;
#[path = "common/mc_oracle.rs"]
mod mc_oracle;
#[path = "common/sc_oracle.rs"]
mod sc_oracle;
#[path = "common/seeker_text.rs"]
mod seeker_text;

use std::sync::Arc;

use blend::seekers::{self, seeker_sql, Injected, TID_PLACEHOLDER};
use blend::{Blend, BlendOptions, Plan, Seeker};
use blend_common::{Column, Table, TableId};
use blend_lake::web::{generate, WebLakeConfig};
use blend_lake::DataLake;
use blend_parallel::{Interrupt, ParallelCtx};
use blend_storage::EngineKind;
use seeker_text::{engine, sql_text};

const K: usize = 10;

/// A small web lake with repetitive values, plus one table whose cells
/// need escaping and one numeric column, so every seeker has hits.
fn lake() -> DataLake {
    let mut lake = generate(&WebLakeConfig {
        name: "bound-parity".into(),
        n_tables: 30,
        rows: (6, 20),
        cols: (2, 5),
        vocab: 40,
        zipf_s: 0.8,
        numeric_col_ratio: 0.3,
        null_ratio: 0.03,
        seed: 39,
    });
    let names = ["O'Brien", "o'brien", "D'Arcy", "rome", "Paris", "berlin"];
    let sizes = ["3", "9", "4", "12", "6", "15"];
    let quotes = Table::new(
        TableId(0),
        "quotes",
        vec![
            Column::new("name", names.to_vec()),
            Column::new("size", sizes.to_vec()),
        ],
    )
    .unwrap();
    lake.tables.push(quotes);
    DataLake::new("bound-parity", lake.tables)
}

/// Normalized text cells of the lake, in table order.
fn cells(lake: &DataLake) -> Vec<String> {
    (lake.tables.iter().flat_map(|t| &t.columns))
        .flat_map(|c| &c.values)
        .filter_map(|v| v.normalized().map(|n| n.into_owned()))
        .filter(|v| v.parse::<f64>().is_err())
        .collect()
}

/// Rows of `arity` values read off the lake's own rows, re-spelled and
/// repeated, plus one row no table holds.
fn mc_rows(lake: &DataLake, arity: usize) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = Vec::new();
    for t in lake.tables.iter().step_by(4) {
        for r in (0..t.n_rows()).step_by(5) {
            let row: Vec<String> = (t.row(r).filter_map(|v| v.normalized()))
                .map(|v| v.into_owned())
                .collect();
            if row.len() >= arity {
                rows.push(row[..arity].to_vec());
            }
        }
    }
    if let Some(first) = rows.first().cloned() {
        rows.push(
            first
                .iter()
                .map(|v| format!("  {} ", v.to_uppercase()))
                .collect(),
        );
    }
    rows.push((0..arity).map(|c| format!("absent-{c}")).collect());
    rows
}

fn seekers(lake: &DataLake) -> Vec<(String, Seeker)> {
    let cells = cells(lake);
    let mut values: Vec<String> = cells.iter().step_by(7).take(12).cloned().collect();
    // Escaping, duplicates before and after normalization, and values the
    // dictionary lacks.
    values.extend(
        [
            "O'Brien",
            "o'brien",
            "  O'BRIEN ",
            "Rome",
            "rome",
            "absent-x",
        ]
        .map(String::from),
    );
    values.push(values[0].clone());
    let keys: Vec<String> = cells.iter().step_by(3).take(16).cloned().collect();
    let target: Vec<f64> = (0..keys.len()).map(|i| ((i * 7) % 11) as f64).collect();
    let mut c_keys = keys.clone();
    c_keys.extend(["O'Brien", "D'Arcy", "ROME", "rome", "absent-y"].map(String::from));
    let mut c_target = target.clone();
    c_target.extend([3.0, 9.0, 4.0, 12.0, 1.0]);
    let mut out = vec![
        ("sc".to_string(), Seeker::sc(values.clone())),
        ("kw".to_string(), Seeker::kw(values.clone())),
        ("sc-one".to_string(), Seeker::sc(vec!["O'Brien".into()])),
        ("kw-absent".to_string(), Seeker::kw(vec!["absent-z".into()])),
        ("c".to_string(), Seeker::c(keys, target)),
        ("c-quotes".to_string(), Seeker::c(c_keys, c_target)),
    ];
    for arity in 2..=4 {
        out.push((format!("mc{arity}"), Seeker::mc(mc_rows(lake, arity))));
    }
    out.push((
        "mc-one".to_string(),
        Seeker::mc(vec![vec!["O'Brien".into(), "3".into()]]),
    ));
    out
}

#[test]
fn bound_runs_equal_their_sql_text_through_the_reference() {
    let lake = lake();
    let n = lake.tables.len() as u32;
    let injections = [
        None,
        Some(Injected::In((0..n).step_by(2).chain([n - 1]).collect())),
        Some(Injected::NotIn((0..n).step_by(3).collect())),
    ];
    let seekers = seekers(&lake);
    let mut hits_seen = 0;
    for kind in [EngineKind::Row, EngineKind::Column] {
        let mut blend = Blend::from_lake(&lake, kind);
        // Chunks of 5 rows: every loop crosses chunk boundaries.
        blend.set_parallel(Arc::new(ParallelCtx::with_tuning(1, 5)));
        for (name, seeker) in &seekers {
            for injected in &injections {
                let what = format!("{name} {kind:?} {injected:?}");
                let never = Interrupt::never();
                let run = seekers::run(&blend, seeker, K, injected.as_ref(), &never).unwrap();
                let sql = sql_text(&blend, seeker, K, injected.as_ref());
                let engine = engine(&blend);
                let (text, _) = engine.execute_columns_interruptible(&sql, never).unwrap();
                let (reference, _) = engine.execute_reference(&sql).unwrap();
                assert_eq!(text.to_result_set(), reference, "{what}");
                let (hits, mc_stats) = match seeker {
                    Seeker::Mc { rows } => {
                        let (hits, stats) = mc_oracle::mc_postprocess_rows(&reference, rows, K);
                        (hits, Some(stats))
                    }
                    Seeker::C { .. } => {
                        let min_matches = blend.options().corr_min_matches;
                        (c_oracle::c_postprocess(&text, K, min_matches).0, None)
                    }
                    _ => (sc_oracle::sc_postprocess(&text, K), None),
                };
                assert_eq!(run.hits, hits, "{what}");
                assert_eq!(run.mc_stats, mc_stats, "{what}");
                let fragment = injected.as_ref().map_or(String::new(), Injected::fragment);
                let template = seeker_sql(seeker, K, blend.options().h);
                assert_eq!(sql, template.replace(TID_PLACEHOLDER, &fragment));
                hits_seen += usize::from(!run.hits.is_empty());
            }
        }
    }
    // Most runs (two stores × three injections a seeker) find something:
    // the parity is not between empty results.
    assert!(
        hits_seen * 2 > seekers.len() * 6,
        "{hits_seen} runs with hits"
    );
}

/// Listing 1's edges, SC and KW on both stores at five-row chunks, each
/// run equal to the oracle over its SQL text's rows (which equal the
/// reference's). The lake: table 0 holds `a`, `b` and `c` in each of its
/// 20 columns; tables 1–6 hold two query values in column 0 and one in
/// column 1, table 6 also the value that sorts first, so it is touched
/// first; table 7 spells `a` and `b` in a way that normalizes to them;
/// tables 8–207 hold `a` once. So at `k = 2` table 0's columns fill the
/// whole `4k + 8` window and one table comes back; at `k = 5` tables 1–6
/// tie at 2 and `TableId` breaks the tie; KW ties tables 0–6 at 3.
#[test]
fn listing_1_edges_match_the_sql_text() {
    let col = |name: String, vals: &[&str]| Column::new(name, vals.to_vec());
    let mut tables = vec![Table::new(
        TableId(0),
        "wide",
        (0..20)
            .map(|c| col(format!("w{c}"), &["a", "b", "c"]))
            .collect(),
    )
    .unwrap()];
    for t in 1..=6u32 {
        let first = if t == 6 { "0first" } else { "b" };
        tables.push(
            Table::new(
                TableId(t),
                format!("tie-{t}"),
                vec![
                    col("k".into(), &[first, "a", "x"]),
                    col("v".into(), &["c", "y", "z"]),
                ],
            )
            .unwrap(),
        );
    }
    tables.push(
        Table::new(
            TableId(7),
            "spelled",
            vec![col("k".into(), &["  A ", "B", "q"])],
        )
        .unwrap(),
    );
    for t in 8..208u32 {
        let name = format!("filler-{t}");
        tables.push(Table::new(TableId(t), name, vec![col("k".into(), &["a", "f"])]).unwrap());
    }
    let lake = DataLake::new("listing-1-edges", tables);
    let values: Vec<String> = ["a", " B", "c", "C ", "b", "0first", "absent", "A"]
        .map(String::from)
        .to_vec();
    let n = lake.tables.len() as u32;
    let injections = [
        None,
        Some(Injected::In(vec![])),
        Some(Injected::NotIn(vec![])),
        Some(Injected::In(vec![6, 2, 9])),
        Some(Injected::NotIn(
            (0..n).filter(|t| ![3, 5, 7].contains(t)).collect(),
        )),
    ];
    for kind in [EngineKind::Row, EngineKind::Column] {
        let mut blend = Blend::from_lake(&lake, kind);
        blend.set_parallel(Arc::new(ParallelCtx::with_tuning(1, 5)));
        for seeker in [Seeker::sc(values.clone()), Seeker::kw(values.clone())] {
            for k in [1, 2, 5, 10] {
                for injected in &injections {
                    let what = format!("{seeker:?} k={k} {kind:?} {injected:?}");
                    let never = Interrupt::never();
                    let run = seekers::run(&blend, &seeker, k, injected.as_ref(), &never);
                    let run = run.unwrap();
                    let sql = sql_text(&blend, &seeker, k, injected.as_ref());
                    if injected == &Some(Injected::In(vec![])) {
                        assert!(sql.is_empty() && run.hits.is_empty(), "{what}");
                        continue;
                    }
                    let engine = engine(&blend);
                    let text = engine.execute_columns_interruptible(&sql, never);
                    let (text, _) = text.unwrap();
                    let (reference, _) = engine.execute_reference(&sql).unwrap();
                    assert_eq!(text.to_result_set(), reference, "{what}");
                    assert_eq!(run.hits, sc_oracle::sc_postprocess(&text, k), "{what}");
                }
            }
        }
        let hits = |seeker: &Seeker, k: usize| {
            let run = seekers::run(&blend, seeker, k, None, &Interrupt::never()).unwrap();
            (run.hits.iter())
                .map(|h| (h.table.0, h.score))
                .collect::<Vec<_>>()
        };
        let sc = Seeker::sc(values.clone());
        assert_eq!(hits(&sc, 2), [(0, 3.0)], "{kind:?}");
        assert_eq!(hits(&sc, 1), [(0, 3.0)], "{kind:?}");
        let want = [(0, 3.0), (1, 2.0), (2, 2.0), (3, 2.0), (4, 2.0)];
        assert_eq!(hits(&sc, 5), want, "{kind:?}");
        let kw = Seeker::kw(values.clone());
        assert_eq!(hits(&kw, 3), [(0, 3.0), (1, 3.0), (2, 3.0)], "{kind:?}");
    }
}

/// The SQL text of one seeker of each kind, with injection, as the served
/// workloads' templates and Table III's line count read it, and as a
/// plan's report carries it (where a one-seeker plan injects nothing).
#[test]
fn seeker_sql_is_pinned() {
    let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<String>>();
    let golden = [
        (
            Seeker::sc(s(&["O'Brien", "  o'brien ", "Rome", "rome", "Zürich", "x"])),
            10,
            Injected::In(vec![3, 1, 2]),
            "SELECT TableId AS t, COUNT(DISTINCT CellValue) AS score FROM AllTables WHERE CellValue IN ('o''brien','rome','zürich','x') AND TableId IN (3,1,2) GROUP BY TableId, ColumnId ORDER BY score DESC LIMIT 48",
        ),
        (
            Seeker::kw(s(&["Alpha Beta", "alpha  beta", "Gamma"])),
            5,
            Injected::NotIn(vec![7]),
            "SELECT TableId AS t, COUNT(DISTINCT CellValue) AS score FROM AllTables WHERE CellValue IN ('alpha beta','gamma') AND TableId NOT IN (7) GROUP BY TableId ORDER BY score DESC LIMIT 28",
        ),
        (
            Seeker::mc(vec![s(&["HR", "Firenze"]), s(&["it", "Tom Riddle"]), s(&["hr", "firenze"])]),
            10,
            Injected::In(vec![0, 5]),
            "SELECT q0.TableId AS tid, q0.RowId AS rid, q0.SuperKey AS sk, q0.CellValue AS v0, q0.ColumnId AS c0, q1.CellValue AS v1, q1.ColumnId AS c1 FROM (SELECT * FROM AllTables WHERE CellValue IN ('hr','it') AND TableId IN (0,5)) AS q0 INNER JOIN (SELECT * FROM AllTables WHERE CellValue IN ('firenze','tom riddle')) AS q1 ON q0.TableId = q1.TableId AND q0.RowId = q1.RowId",
        ),
        (
            Seeker::c(s(&["a", "B", "c", "b", "O'Neil"]), vec![1.0, 4.0, 2.0, 5.0, 1.5]),
            10,
            Injected::NotIn(vec![2, 9]),
            "SELECT keys.TableId AS t, keys.ColumnId AS kc, nums.ColumnId AS nc, ABS((2 * SUM(((keys.CellValue IN ('a','c','o''neil') AND nums.Quadrant = 0) OR (keys.CellValue IN ('b') AND nums.Quadrant = 1))::int) - COUNT(*)) / COUNT(*)) AS score, COUNT(*) AS n FROM (SELECT * FROM AllTables WHERE RowId < 64 AND CellValue IN ('a','b','c','o''neil') AND TableId NOT IN (2,9)) keys INNER JOIN (SELECT * FROM AllTables WHERE RowId < 64 AND Quadrant IS NOT NULL) nums ON keys.TableId = nums.TableId AND keys.RowId = nums.RowId AND keys.ColumnId <> nums.ColumnId GROUP BY keys.TableId, nums.ColumnId, keys.ColumnId ORDER BY score DESC",
        ),
    ];
    let fact = Blend::from_lake(&lake(), EngineKind::Column).fact_table();
    let options = BlendOptions {
        h: 64,
        ..BlendOptions::default()
    };
    let blend = Blend::with_options(fact, options);
    for (seeker, k, injected, sql) in golden {
        let template = seeker_sql(&seeker, k, 64);
        assert_eq!(template.replace(TID_PLACEHOLDER, &injected.fragment()), sql);
        let run = seekers::run(&blend, &seeker, k, Some(&injected), &Interrupt::never());
        assert_eq!(sql_text(&blend, &seeker, k, Some(&injected)), sql);
        assert!(run.is_ok(), "{seeker:?}");
        let mut plan = Plan::new();
        plan.add_seeker("s", seeker, k).unwrap();
        let (_, report) = blend.execute_with_report(&plan).unwrap();
        let plain = template.replace(TID_PLACEHOLDER, "");
        assert_eq!(report.ops[0].sql.as_deref(), Some(plain.as_str()));
    }
}
