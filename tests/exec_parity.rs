//! Executor × engine parity: the positional executor runs every query and
//! must produce byte-identical `ResultSet`s — and identical scan/join
//! telemetry — to the tuple-at-a-time reference
//! (`SqlEngine::execute_reference`), on both storage engines (SC and KW on
//! the column store count off its column index and report that instead of a
//! scan). The columnar entry (`execute_columns_interruptible`) turned into
//! rows must be those same bytes: rows are a view over the flat columns,
//! built in one place.

mod common;
#[path = "common/seeker_text.rs"]
mod seeker_text;

use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

use blend::plan::Seeker;
use blend::seekers::{self, Injected, TID_PLACEHOLDER};
use blend::Blend;
use blend_sql::{BlendError, ParallelCtx, ResultSet, ScanReport, SqlEngine, SqlValue};
use blend_storage::EngineKind;
use blend_storage::{build_engine, FactRow};
use common::{fragments, lake, render, seeker_suite};
use proptest::prelude::*;
use seeker_text::{engine, sql_text};

/// The scan report of the column-index path (`exec_positional`'s
/// *Column-index grouping*) for an SC/KW query over `values` on the column
/// store, read off the store by brute force — or `None` where the query
/// must take the hash path: a table-index drive, or the never-true
/// fragment of an empty intersection (a residual). Every (value,
/// (`TableId`, `ColumnId`) run) its postings touch is an entry visited;
/// the entries whose table the injected set keeps are the entries kept.
fn column_index_report(
    blend: &Blend,
    values: &[String],
    injected: &Option<Injected>,
    tuple_scan: &ScanReport,
) -> Option<ScanReport> {
    if tuple_scan.access != "value-index" || injected == &Some(Injected::In(vec![])) {
        return None;
    }
    let keeps = |t: u32| match injected {
        None => true,
        Some(Injected::In(ids)) => ids.contains(&t),
        Some(Injected::NotIn(ids)) => !ids.contains(&t),
    };
    let fact = blend.fact_table();
    let (mut scanned, mut emitted) = (0, 0);
    for v in values.iter().collect::<BTreeSet<_>>() {
        let mut runs: Vec<(u32, u32)> = fact
            .postings(v)
            .iter()
            .map(|&p| (fact.table_at(p as usize), fact.column_at(p as usize)))
            .collect();
        runs.dedup();
        scanned += runs.len();
        emitted += runs.iter().filter(|(t, _)| keeps(*t)).count();
    }
    Some(ScanReport {
        access: "column-index".to_string(),
        scanned,
        emitted,
        ..tuple_scan.clone()
    })
}

#[test]
fn positional_path_is_selected_and_identical_for_all_seeker_shapes() {
    let lake = lake();
    for kind in [EngineKind::Row, EngineKind::Column] {
        let blend = Blend::from_lake(&lake, kind);
        for (label, seeker) in seeker_suite(&lake) {
            let template = seekers::seeker_sql(&seeker, 10, 64);
            let sc_kw_values = match (&seeker, kind) {
                (Seeker::Sc { values } | Seeker::Kw { keywords: values }, EngineKind::Column) => {
                    Some(values)
                }
                _ => None,
            };
            for (frag_label, injected) in fragments() {
                let sql = render(&template, &injected);
                let (rs_auto, rep_auto) = engine(&blend)
                    .execute_with_report(&sql)
                    .unwrap_or_else(|e| panic!("{label}/{frag_label} auto: {e}"));
                let (rs_tuple, rep_tuple) = engine(&blend)
                    .execute_reference(&sql)
                    .unwrap_or_else(|e| panic!("{label}/{frag_label} tuple: {e}"));

                assert_eq!(
                    rep_auto.path, "positional",
                    "{kind:?}/{label}/{frag_label}: seeker shapes must route positionally"
                );
                assert_eq!(rep_tuple.path, "reference");
                assert_eq!(
                    rs_auto, rs_tuple,
                    "{kind:?}/{label}/{frag_label}: executors disagree"
                );
                // Telemetry parity: same access paths, visit counts, and
                // join cardinalities — except where SC/KW count off the
                // column index, whose report is exactly its own.
                let column = sc_kw_values.and_then(|values| {
                    column_index_report(&blend, values, &injected, &rep_tuple.scans[0])
                });
                // `NOT IN` never drives, so these two always count off it.
                let drives_by_value = matches!(frag_label, "plain" | "not-in");
                assert!(column.is_some() || sc_kw_values.is_none() || !drives_by_value);
                let want_scans = match column {
                    Some(report) => vec![report],
                    None => rep_tuple.scans.clone(),
                };
                assert_eq!(rep_auto.scans, want_scans, "{kind:?}/{label}/{frag_label}");
                assert_eq!(
                    rep_auto.joins, rep_tuple.joins,
                    "{kind:?}/{label}/{frag_label}"
                );
                assert_eq!(rep_auto.result_rows, rep_tuple.result_rows);
            }
        }
    }
}

#[test]
fn engines_agree_under_the_positional_path() {
    let lake = lake();
    let row = Blend::from_lake(&lake, EngineKind::Row);
    let col = Blend::from_lake(&lake, EngineKind::Column);
    for (label, seeker) in seeker_suite(&lake) {
        let sql = seekers::seeker_sql(&seeker, 10, 64).replace(TID_PLACEHOLDER, "");
        let (a, ra) = engine(&row).execute_with_report(&sql).unwrap();
        let (b, rb) = engine(&col).execute_with_report(&sql).unwrap();
        assert_eq!(ra.path, "positional", "{label}");
        assert_eq!(rb.path, "positional", "{label}");
        assert_eq!(a, b, "{label}: row and column stores disagree");
    }
}

/// Non-seeker SQL — grouping on an expression, not a bare fact column —
/// runs on the positional executor too (its key is interned) and returns
/// the reference's bytes.
#[test]
fn unrecognized_shapes_fall_back_to_tuple() {
    let lake = lake();
    let blend = Blend::from_lake(&lake, EngineKind::Column);
    let sql = "SELECT TableId % 7, COUNT(*) AS n FROM AllTables GROUP BY TableId % 7";
    let (rs, report) = engine(&blend).execute_with_report(sql).unwrap();
    assert_eq!(report.path, "positional");
    assert!(!rs.is_empty());
    let (want, _) = engine(&blend).execute_reference(sql).unwrap();
    assert_eq!(bytes_of(&rs), bytes_of(&want));
}

/// End-to-end: full seeker plans (including the optimizer's injections)
/// return the hits the reference returns for the same SQL.
#[test]
fn seeker_runs_match_direct_sql_results() {
    let lake = lake();
    let blend = Blend::from_lake(&lake, EngineKind::Column);
    for (label, seeker) in seeker_suite(&lake) {
        let run = seekers::run(&blend, &seeker, 10, None, &blend::Interrupt::never());
        assert!(run.is_ok(), "{label}");
        // The run's SQL text, executed on both executors, agrees.
        let sql = sql_text(&blend, &seeker, 10, None);
        let (a, _) = engine(&blend).execute_with_report(&sql).unwrap();
        let (b, _) = engine(&blend).execute_reference(&sql).unwrap();
        assert_eq!(a, b, "{label}");
    }
}

/// Non-grouped shapes for the flat-column tail: (select list and FROM,
/// ORDER BY variants). Repeated text values, `SuperKey`, NULL `Quadrant`,
/// computed expressions, ties under every ORDER BY, and empty results.
const PROJECTIONS: &[(&str, &[&str])] = &[
    (
        "SELECT CellValue, TableId, RowId FROM AllTables WHERE ColumnId = 0",
        &["CellValue ASC, RowId DESC", "CellValue DESC", "RowId"],
    ),
    (
        "SELECT SuperKey, CellValue FROM AllTables WHERE RowId < 3",
        &["SuperKey DESC, CellValue", "CellValue ASC"],
    ),
    (
        "SELECT Quadrant, CellValue, ColumnId FROM AllTables WHERE TableId IN (1, 2, 3)",
        &["Quadrant ASC, CellValue DESC", "Quadrant DESC"],
    ),
    (
        "SELECT TableId * 2 + RowId AS x, (Quadrant = 1)::int AS q, CellValue \
         FROM AllTables WHERE RowId < 2",
        &["x DESC, q", "q ASC"],
    ),
    ("SELECT * FROM AllTables WHERE RowId < 1", &["TableId DESC"]),
    (
        "SELECT q0.CellValue AS v0, q1.CellValue AS v1, q0.SuperKey AS sk, q1.Quadrant AS qd \
         FROM (SELECT * FROM AllTables WHERE RowId < 3) AS q0 \
         INNER JOIN (SELECT * FROM AllTables WHERE RowId < 3) AS q1 \
         ON q0.TableId = q1.TableId AND q0.RowId = q1.RowId",
        &["v0, v1 DESC", "qd DESC, sk"],
    ),
    (
        "SELECT CellValue, SuperKey, Quadrant FROM AllTables \
         WHERE CellValue IN ('no-such-value')",
        &["CellValue DESC"],
    ),
];

/// Labels and rows, byte for byte (`SqlValue: PartialEq` equates `1` with
/// `1.0`). The heap cost is not part of it: rows built from columns share
/// one `Arc<str>` per distinct id, the reference's own rows need not,
/// and `approx_bytes` counts each allocation once.
fn bytes_of(rs: &ResultSet) -> String {
    format!("{:?} {:?}", rs.columns, rs.rows)
}

/// `execute_columns(…).to_result_set()` == `execute(…)` == the reference's
/// rows, on both engines, for the seeker corpus and for every projection
/// shape × ORDER BY × LIMIT.
#[test]
fn columnar_entry_builds_the_row_entries_rows_byte_for_byte() {
    let lake = lake();
    let mut corpus: Vec<String> = Vec::new();
    for (_, seeker) in seeker_suite(&lake) {
        let template = seekers::seeker_sql(&seeker, 10, 64);
        for (_, injected) in fragments() {
            corpus.push(render(&template, &injected));
        }
    }
    for kind in [EngineKind::Row, EngineKind::Column] {
        let blend = Blend::from_lake(&lake, kind);
        let engine = engine(&blend);
        let check = |sql: &str| {
            let (want, _) = engine
                .execute_reference(sql)
                .unwrap_or_else(|e| panic!("{kind:?}: {e}: {sql}"));
            let (rows, report) = engine
                .execute_with_report(sql)
                .unwrap_or_else(|e| panic!("{kind:?}: {e}: {sql}"));
            assert_eq!(report.path, "positional");
            assert_eq!(
                bytes_of(&rows),
                bytes_of(&want),
                "{kind:?}: row entry: {sql}"
            );
            let (cols, report) = engine
                .execute_columns_interruptible(sql, blend::Interrupt::never())
                .unwrap_or_else(|e| panic!("{kind:?}: {e}: {sql}"));
            assert_eq!(cols.len(), report.result_rows, "{kind:?}: {sql}");
            let built = bytes_of(&cols.to_result_set());
            assert_eq!(built, bytes_of(&want), "{kind:?}: columns: {sql}");
            want.len()
        };
        for sql in &corpus {
            check(sql);
        }
        let mut nonempty = 0;
        for (base, orders) in PROJECTIONS {
            let n = check(base);
            nonempty += (n > 0) as usize;
            for order in orders
                .iter()
                .map(|o| format!("ORDER BY {o}"))
                .chain([String::new()])
            {
                for limit in [0, 1, n, n + 3] {
                    check(&format!("{base} {order} LIMIT {limit}"));
                }
                check(&format!("{base} {order}"));
            }
        }
        assert_eq!(
            nonempty,
            PROJECTIONS.len() - 1,
            "one shape is the empty result"
        );
    }
}

/// Select-list items over one `AllTables` leaf: every result column kind
/// the positional executor hands out (`Key`, `U128`, store- or dense-coded
/// `Text`, NULL-able `Quadrant` and computed `Val`s).
const ITEMS: &[&str] = &[
    "TableId",
    "ColumnId",
    "RowId",
    "SuperKey",
    "CellValue",
    "Quadrant",
    "TableId * 2 + RowId",
    "CellValue AS again",
];

/// Both engines over the parity lake, built once for every case.
fn engines() -> &'static [Blend] {
    static ENGINES: OnceLock<Vec<Blend>> = OnceLock::new();
    ENGINES.get_or_init(|| {
        let lake = lake();
        [EngineKind::Row, EngineKind::Column]
            .into_iter()
            .map(|kind| Blend::from_lake(&lake, kind))
            .collect()
    })
}

/// Rows built from the columns hold each column's cells
/// (`ResultColumn::value`), share one `Arc<str>` per distinct id of a text
/// column, and cost exactly what `ResultColumns::rows_bytes` said before
/// they existed — the row entry's rows too, and the reference's bytes — over
/// random select lists and both engines, with 0, 1 and many rows.
fn check_built_rows(sql: &str) {
    for blend in engines() {
        let engine = engine(blend);
        let (cols, _) = engine
            .execute_columns_interruptible(sql, blend::Interrupt::never())
            .unwrap_or_else(|e| panic!("{e}: {sql}"));
        let rs = cols.to_result_set();
        let (direct, _) = engine.execute_with_report(sql).unwrap();
        assert_eq!(bytes_of(&rs), bytes_of(&direct), "{sql}");
        let (reference, _) = engine.execute_reference(sql).unwrap();
        assert_eq!(bytes_of(&rs), bytes_of(&reference), "{sql}");
        assert_eq!(cols.rows_bytes(), rs.approx_bytes(), "{sql}");
        for (c, col) in cols.columns.iter().enumerate() {
            for (i, row) in rs.rows.iter().enumerate() {
                assert_eq!(row[c], col.value(i), "{sql}");
            }
            let Some(ids) = col.as_text().map(|t| t.ids()) else {
                continue;
            };
            let text = |i: usize| match &rs.rows[i][c] {
                SqlValue::Text(s) => s.clone(),
                v => panic!("text column {c} built {v:?}: {sql}"),
            };
            for i in 0..rs.len() {
                for j in 0..rs.len() {
                    assert_eq!(
                        Arc::ptr_eq(&text(i), &text(j)),
                        ids[i] == ids[j],
                        "rows {i}, {j} of column {c}: {sql}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rows_built_from_random_column_mixes_share_strings_and_are_priced_exactly(
        picked in proptest::collection::vec(0usize..ITEMS.len(), 1..7),
        rows_below in 1u32..6,
    ) {
        let select: Vec<&str> = picked.iter().map(|&i| ITEMS[i]).collect();
        let base = format!(
            "SELECT {} FROM AllTables WHERE RowId < {rows_below}",
            select.join(", ")
        );
        for limit in [" LIMIT 0", " LIMIT 1", ""] {
            check_built_rows(&format!("{base}{limit}"));
        }
    }
}

/// A small fact table with repeated cell values, numeric cells with and
/// without a quadrant, and text cells (NULL quadrant) in every table,
/// executed in three-row chunks.
fn interning_engine(kind: EngineKind) -> SqlEngine {
    let mut rows = Vec::new();
    for t in 0..4u32 {
        for r in 0..8u32 {
            let sk = ((t as u128) << 32) | r as u128;
            let quadrant = (r % 3 != 0).then_some(r % 2 == 0);
            rows.push(FactRow::new(
                &format!("v{}", (t * 3 + r) % 7),
                t,
                0,
                r,
                sk,
                None,
            ));
            rows.push(FactRow::new(
                &format!("{}", r * 10 % 40),
                t,
                1,
                r,
                sk,
                quadrant,
            ));
            rows.push(FactRow::new(&format!("k{}", r % 3), t, 2, r, sk, None));
        }
    }
    let ctx = Arc::new(ParallelCtx::with_tuning(1, 3));
    SqlEngine::with_alltables(build_engine(kind, rows)).with_parallel(ctx)
}

/// Join and GROUP BY keys that do not pack into at most four integer fact
/// columns are interned and stay on the positional executor — over
/// three-row chunks, on both stores — with the reference's
/// bytes and telemetry: NULL join keys never match, GROUP BY keeps one NULL
/// group. Nested `SELECT *` subqueries inline into one scan that keeps the
/// innermost alias; every other derived table is a planning error on both
/// executors.
#[test]
fn interned_keys_run_positionally_and_derived_tables_are_plan_errors() {
    let cases = [
        "SELECT a.TableId AS t, b.TableId AS u, COUNT(*) AS n FROM AllTables a \
         INNER JOIN AllTables b ON a.CellValue = b.CellValue GROUP BY a.TableId, b.TableId",
        "SELECT a.Quadrant AS q, a.TableId AS t, b.RowId AS r FROM AllTables a \
         INNER JOIN AllTables b ON a.Quadrant = b.Quadrant",
        "SELECT a.CellValue AS v, b.SuperKey AS sk FROM \
         (SELECT * FROM AllTables WHERE RowId < 5) a INNER JOIN AllTables b \
         ON a.TableId = b.TableId AND a.RowId = b.RowId AND a.ColumnId = b.ColumnId \
         AND a.CellValue = b.CellValue AND a.SuperKey = b.SuperKey",
        "SELECT CellValue, COUNT(*) AS n FROM AllTables GROUP BY CellValue",
        "SELECT Quadrant, COUNT(*) AS n, SUM(RowId) AS s FROM AllTables GROUP BY Quadrant",
        "SELECT RowId % 2 AS parity, COUNT(*) AS n FROM AllTables GROUP BY RowId % 2",
        "SELECT TableId, ColumnId, RowId, CellValue, SuperKey, COUNT(*) AS n FROM AllTables \
         GROUP BY TableId, ColumnId, RowId, CellValue, SuperKey",
        "SELECT TableId * 10 + RowId % 3 AS k, COUNT(DISTINCT CellValue) AS d FROM AllTables \
         GROUP BY TableId * 10 + RowId % 3 ORDER BY d DESC, k LIMIT 3",
        "SELECT * FROM (SELECT * FROM (SELECT * FROM AllTables WHERE RowId < 3) y \
         WHERE y.TableId = 1) x WHERE x.ColumnId = 0",
    ];
    let derived = [
        "SELECT * FROM (SELECT CellValue, TableId FROM AllTables) x",
        "SELECT * FROM (SELECT TableId, COUNT(*) AS n FROM AllTables GROUP BY TableId) x \
         WHERE x.n > 1",
        "SELECT * FROM (SELECT * FROM AllTables LIMIT 3) x",
        "SELECT * FROM (SELECT * FROM AllTables a INNER JOIN AllTables b \
         ON a.TableId = b.TableId) x",
    ];
    for kind in [EngineKind::Row, EngineKind::Column] {
        let engine = interning_engine(kind);
        for sql in cases {
            let (got, report) = engine.execute_with_report(sql).unwrap();
            let (want, reference) = engine.execute_reference(sql).unwrap();
            assert_eq!(report.path, "positional", "{kind:?}: {sql}");
            assert_eq!(bytes_of(&got), bytes_of(&want), "{kind:?}: {sql}");
            assert_eq!(report.scans, reference.scans, "{kind:?}: {sql}");
            assert_eq!(report.joins, reference.joins, "{kind:?}: {sql}");
            assert!(!got.is_empty(), "{kind:?}: {sql}");
            assert!(report
                .scans
                .iter()
                .all(|s| s.alias != "x" && s.alias != "y"));
        }
        // NULL never joins NULL; GROUP BY Quadrant has one NULL group.
        let (joined, _) = engine.execute_with_report(cases[1]).unwrap();
        assert!(joined.rows.iter().all(|r| !r[0].is_null()));
        let (grouped, _) = engine.execute_with_report(cases[4]).unwrap();
        assert_eq!(grouped.rows.iter().filter(|r| r[0].is_null()).count(), 1);
        for sql in derived {
            let err = engine.execute(sql).unwrap_err();
            assert!(matches!(err, BlendError::SqlPlan(_)), "{sql}: {err}");
            let err = engine.execute_reference(sql).unwrap_err();
            assert!(matches!(err, BlendError::SqlPlan(_)), "{sql}: {err}");
        }
    }
}
