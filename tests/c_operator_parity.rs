//! The C operator against Listing 3's SQL. `seekers::run` answers a C
//! seeker with one operator over the index, not with SQL; its hits, and
//! the candidates and validated tables its `postprocess` span reports,
//! must be what the seeker's SQL text (`OpExecution::sql`, spelled by
//! `common/seeker_text.rs`) gives under the
//! application phase of `common/c_oracle.rs`. The text runs through the
//! engine's columnar entry, whose rows must equal the reference
//! interpreter's (`execute_reference`); the span's `rows_in` must be the
//! SQL's row count and `c.pairs`' `matched` the sum of its `n` column.
//!
//! Covered: both stores, five-row chunks, and stores whose last table's
//! `RowId`s sit near `u32::MAX` (ranked row ordinals on the column store,
//! a binary search over the point accessors on the row store); no injection,
//! `In`, `NotIn` and an empty `NotIn`; keys at `RowId` h − 1 and h, null
//! and non-numeric cells in a numeric column, a numeric key column, a key
//! in two columns of one row, a key in both `k0` and `k1`, duplicate keys
//! after normalization, an absent key, support exactly at
//! `corr_min_matches`, and a 10,000-key seeker.

#[path = "common/c_oracle.rs"]
mod c_oracle;
#[path = "common/seeker_text.rs"]
mod seeker_text;

use std::sync::Arc;

use blend::seekers::{self, Injected};
use blend::{Blend, BlendOptions, Seeker};
use blend_common::{Column, Table, TableId, Value};
use blend_index::IndexBuilder;
use blend_lake::web::{generate, WebLakeConfig};
use blend_lake::DataLake;
use blend_obs::AttrValue;
use blend_parallel::{Interrupt, ParallelCtx};
use blend_storage::{build_engine, EngineKind, FactTable};
use c_oracle::c_postprocess;
use proptest::prelude::*;
use seeker_text::{engine, sql_text};

const K: usize = 10;

/// A web lake with numeric columns, plus the planted table of [`edges`].
fn lake(seed: u64, n_tables: usize, vocab: usize, h: usize) -> DataLake {
    let mut lake = generate(&WebLakeConfig {
        name: "c-operator".into(),
        n_tables,
        rows: (3, 20),
        cols: (2, 5),
        vocab,
        zipf_s: 0.7,
        numeric_col_ratio: 0.5,
        null_ratio: 0.05,
        seed,
    });
    lake.tables.push(edges(TableId(n_tables as u32), h));
    DataLake::new("c-operator", lake.tables)
}

/// A table of `h + 2` rows, at least 8: key `kx` at `RowId` h − 1 and h;
/// key `twin` in the columns `key` and `alt` of row 0; the numeric column
/// `num` with a non-numeric cell and a null; and the numeric key column
/// `code`.
fn edges(id: TableId, h: usize) -> Table {
    let n = h.saturating_add(2).clamp(8, 22);
    let key = |r: usize| match r {
        0 => "twin".to_string(),
        r if r + 1 == h || r == h => "kx".to_string(),
        r => ["ka", "kb", "kc"][r % 3].to_string(),
    };
    let num = |r: usize| match r {
        2 => Value::from("n/a"),
        3 => Value::Null,
        r => Value::Int((r * 7 % 11) as i64),
    };
    let columns = vec![
        Column::new("key", (0..n).map(key).collect()),
        Column::new("alt", (0..n).map(|r| ["twin", "x", "y"][r % 3]).collect()),
        Column::new("num", (0..n).map(num).collect()),
        Column::new("code", (0..n).map(|r| Value::Int((r % 4) as i64)).collect()),
    ];
    Table::new(id, "edges", columns).unwrap()
}

/// Up to `n` distinct values of the lake from table `pick` on, the planted
/// keys, a re-spelled duplicate of `ka` whose target lies on the other side
/// of the mean (so `ka` is in `k0` and `k1`), numeric keys and an absent
/// key; with targets.
fn keys(lake: &DataLake, n: usize, pick: usize) -> (Vec<String>, Vec<f64>) {
    let tables = lake.tables.len();
    let mut keys: Vec<String> = Vec::new();
    let values = (0..tables)
        .map(|i| &lake.tables[(pick + i) % tables])
        .flat_map(|t| &t.columns)
        .flat_map(|c| &c.values)
        .filter_map(|v| v.normalized().map(|v| v.into_owned()));
    for v in values {
        if keys.len() == n {
            break;
        }
        if !keys.contains(&v) {
            keys.push(v);
        }
    }
    let planted = ["ka", "kb", "kx", "twin", "2", "3", "  KA ", "absent-key"];
    keys.extend(planted.map(String::from));
    let mut target: Vec<f64> = (0..keys.len())
        .map(|i| ((i * 13 + pick) % 17) as f64)
        .collect();
    let ka = keys.iter().position(|k| k == "ka").unwrap();
    let respelled = keys.len() - 2;
    (target[ka], target[respelled]) = (-100.0, 100.0);
    (keys, target)
}

/// The lake's index with the last table's `RowId`s moved up to just below
/// `u32::MAX`: a column store's `locate` then ranks each asked `RowId`
/// among the table's instead of reading it as an offset.
fn far_row_ids(lake: &DataLake, kind: EngineKind) -> Arc<dyn FactTable> {
    let mut rows = IndexBuilder::new().index_lake(&lake.tables);
    let last = rows.iter().map(|r| r.table).max().unwrap_or(0);
    for r in rows.iter_mut().filter(|r| r.table == last) {
        r.row += u32::MAX - 64;
    }
    build_engine(kind, rows)
}

/// No injection, `In` over a few tables, `NotIn` over every third table,
/// and an empty `NotIn`.
fn injections(n_tables: u32) -> Vec<Option<Injected>> {
    vec![
        None,
        Some(Injected::In(vec![n_tables, n_tables / 2, 1])),
        Some(Injected::NotIn((0..n_tables).step_by(3).collect())),
        Some(Injected::NotIn(Vec::new())),
    ]
}

/// An integer attribute of the first span named `name` in `profile`.
fn attr(profile: &blend_obs::Profile, name: &str, key: &str) -> u64 {
    match profile.find(name).and_then(|s| s.attr(key)) {
        Some(AttrValue::U64(v)) => *v,
        other => panic!("{name}.{key} = {other:?}\n{}", profile.render()),
    }
}

/// `seekers::run` equals the oracle over the SQL text's rows, which equal
/// the reference's; returns the hits.
fn check(
    blend: &Blend,
    seeker: &Seeker,
    injected: Option<&Injected>,
    what: &str,
) -> Vec<blend::TableHit> {
    let trace = blend_obs::trace_begin("c-operator");
    let run = seekers::run(blend, seeker, K, injected, &Interrupt::never()).unwrap();
    let profile = trace.finish().expect("instrumentation is on");
    assert_eq!(run.mc_stats, None, "{what}");
    let (engine, sql) = (engine(blend), sql_text(blend, seeker, K, injected));
    let (text, _) = (engine.execute_columns_interruptible(&sql, Interrupt::never())).unwrap();
    let (reference, _) = engine.execute_reference(&sql).unwrap();
    assert_eq!(text.to_result_set(), reference, "{what}");
    let (hits, stats) = c_postprocess(&text, K, blend.options().corr_min_matches);
    assert_eq!(run.hits, hits, "{what}");
    assert_eq!(
        attr(&profile, "postprocess", "candidates"),
        stats.candidates as u64
    );
    assert_eq!(
        attr(&profile, "postprocess", "validated"),
        stats.validated as u64
    );
    assert_eq!(
        attr(&profile, "postprocess", "rows_in"),
        reference.len() as u64
    );
    let n = text.col("n").expect("n column");
    let pairs: i64 = (0..n.len()).filter_map(|i| n.value(i).as_i64()).sum();
    assert_eq!(attr(&profile, "c.pairs", "matched"), pairs as u64, "{what}");
    run.hits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn operator_equals_the_oracle_over_the_reference(
        seed in any::<u64>(),
        n_tables in 4usize..14,
        vocab in 4usize..14,
        n_keys in 2usize..12,
        h in 1usize..16,
        min_matches in 0usize..4,
        pick in 0usize..32,
    ) {
        // 1 stands for an `h` past every `RowId`, the far ones included.
        let h = if h == 1 { u32::MAX as usize } else { h };
        let lake = lake(seed, n_tables, vocab, h);
        let (keys, target) = keys(&lake, n_keys, pick);
        let seeker = Seeker::c(keys, target);
        let options = BlendOptions { h, corr_min_matches: min_matches, ..BlendOptions::default() };
        for kind in [EngineKind::Row, EngineKind::Column] {
            let facts = [
                ("directory", IndexBuilder::new().build(&lake.tables, kind)),
                ("far rows", far_row_ids(&lake, kind)),
            ];
            for (layout, fact) in facts {
                let mut blend = Blend::with_options(fact, options.clone());
                    blend.set_parallel(Arc::new(ParallelCtx::with_tuning(1, 5)));
                    for injected in injections(n_tables as u32) {
                        let what = format!("{kind:?} {layout} h {h} {injected:?}");
                        check(&blend, &seeker, injected.as_ref(), &what);
                    }
            }
        }
    }
}

/// Two tables whose key column pairs with a numeric column on exactly 3
/// and on 2 rows: at `corr_min_matches` 3 the first is a hit and the
/// second is not; at 2 both are.
#[test]
fn support_exactly_at_the_minimum_counts() {
    let table = |id: u32, n: usize| {
        let keys: Vec<&str> = ["a", "b", "c"][..n].to_vec();
        let nums: Vec<i64> = [1, 9, 2][..n].to_vec();
        Table::new(
            TableId(id),
            "t",
            vec![Column::new("k", keys), Column::new("x", nums)],
        )
        .unwrap()
    };
    let lake = DataLake::new("support", vec![table(0, 3), table(1, 2)]);
    let seeker = Seeker::c(
        ["a", "b", "c"].map(String::from).to_vec(),
        vec![1.0, 9.0, 2.0],
    );
    for kind in [EngineKind::Row, EngineKind::Column] {
        for (min_matches, want) in [(3, vec![0]), (2, vec![0, 1])] {
            let fact = IndexBuilder::new().build(&lake.tables, kind);
            let options = BlendOptions {
                corr_min_matches: min_matches,
                ..BlendOptions::default()
            };
            let blend = Blend::with_options(fact, options);
            let hits = check(
                &blend,
                &seeker,
                None,
                &format!("{kind:?} min {min_matches}"),
            );
            let tables: Vec<u32> = hits.iter().map(|h| h.table.0).collect();
            assert_eq!(tables, want, "{kind:?} min {min_matches}");
        }
    }
}

/// A 10,000-key seeker: every distinct value of the lake, then absent
/// keys, with targets spread on both sides of the mean.
#[test]
fn ten_thousand_keys() {
    let lake = lake(41, 12, 60, 12);
    let mut keys: Vec<String> = (lake.tables.iter().flat_map(|t| &t.columns))
        .flat_map(|c| &c.values)
        .filter_map(|v| v.normalized().map(|v| v.into_owned()))
        .collect();
    keys.sort();
    keys.dedup();
    let present = keys.len();
    keys.extend((present..10_000).map(|i| format!("absent-{i}")));
    let target: Vec<f64> = (0..keys.len()).map(|i| ((i * 31) % 23) as f64).collect();
    let seeker = Seeker::c(keys, target);
    let options = BlendOptions {
        h: 12,
        ..BlendOptions::default()
    };
    for kind in [EngineKind::Row, EngineKind::Column] {
        let fact = IndexBuilder::new().build(&lake.tables, kind);
        let blend = Blend::with_options(fact, options.clone());
        for injected in [None, Some(Injected::NotIn(vec![0, 5]))] {
            let hits = check(&blend, &seeker, injected.as_ref(), &format!("{kind:?}"));
            assert!(
                !hits.is_empty(),
                "{kind:?}: the lake's own values correlate"
            );
        }
    }
}
