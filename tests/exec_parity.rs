//! Cross-path × cross-engine parity: the positional (late-materialization)
//! executor must be selected for every seeker SQL shape and must produce
//! byte-identical `ResultSet`s — and identical scan/join telemetry — to the
//! tuple executor, on both storage engines (SC and KW on the column store
//! count off its column index and report that instead of a scan). The
//! columnar entry (`execute_columns_interruptible`) turned into rows must be
//! those same bytes: rows are a view over the flat columns, built in one
//! place.

use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

use blend::plan::Seeker;
use blend::seekers::{self, Injected, TID_PLACEHOLDER};
use blend::Blend;
use blend_lake::web::{generate, WebLakeConfig};
use blend_lake::DataLake;
use blend_sql::{ExecPath, ResultSet, ScanReport, SqlValue};
use blend_storage::EngineKind;
use proptest::prelude::*;

fn lake() -> DataLake {
    generate(&WebLakeConfig {
        name: "exec-parity".into(),
        n_tables: 60,
        rows: (10, 30),
        cols: (2, 5),
        vocab: 400,
        zipf_s: 1.0,
        numeric_col_ratio: 0.3,
        null_ratio: 0.02,
        seed: 20_260_731,
    })
}

/// Values drawn from the lake so every shape produces non-trivial results.
fn sample_values(lake: &DataLake, n: usize) -> Vec<String> {
    lake.tables
        .iter()
        .flat_map(|t| t.columns.iter())
        .flat_map(|c| c.values.iter())
        .filter_map(|v| v.normalized().map(|c| c.into_owned()))
        .filter(|v| v.parse::<f64>().is_err()) // text keys join more tables
        .take(n)
        .collect()
}

fn seeker_suite(lake: &DataLake) -> Vec<(&'static str, Seeker)> {
    let vals = sample_values(lake, 10);
    assert!(vals.len() >= 10, "lake must supply sample values");
    vec![
        ("sc", Seeker::sc(vals[..6].to_vec())),
        ("kw", Seeker::kw(vals[..6].to_vec())),
        (
            "mc",
            Seeker::mc(vec![
                vec![vals[0].clone(), vals[1].clone()],
                vec![vals[2].clone(), vals[3].clone()],
            ]),
        ),
        (
            "c",
            Seeker::c(vals[4..10].to_vec(), vec![3.0, 17.0, 5.0, 29.0, 11.0, 23.0]),
        ),
    ]
}

/// The injected-fragment variants the optimizer's rewriter produces.
fn fragments() -> Vec<(&'static str, Option<Injected>)> {
    vec![
        ("plain", None),
        ("in", Some(Injected::In(vec![1, 3, 5, 7, 11, 13]))),
        ("not-in", Some(Injected::NotIn(vec![2, 4]))),
        ("in-empty", Some(Injected::In(vec![]))),
    ]
}

fn render(template: &str, injected: &Option<Injected>) -> String {
    template.replace(
        TID_PLACEHOLDER,
        &injected.as_ref().map_or(String::new(), Injected::fragment),
    )
}

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
                let (rs_auto, rep_auto) = blend
                    .engine()
                    .execute_with_report_path(&sql, ExecPath::Auto)
                    .unwrap_or_else(|e| panic!("{label}/{frag_label} auto: {e}"));
                let (rs_tuple, rep_tuple) = blend
                    .engine()
                    .execute_with_report_path(&sql, ExecPath::TupleOnly)
                    .unwrap_or_else(|e| panic!("{label}/{frag_label} tuple: {e}"));

                assert_eq!(
                    rep_auto.path, "positional",
                    "{kind:?}/{label}/{frag_label}: seeker shapes must route positionally"
                );
                assert_eq!(rep_tuple.path, "tuple");
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
        let (a, ra) = row
            .engine()
            .execute_with_report_path(&sql, ExecPath::Auto)
            .unwrap();
        let (b, rb) = col
            .engine()
            .execute_with_report_path(&sql, ExecPath::Auto)
            .unwrap();
        assert_eq!(ra.path, "positional", "{label}");
        assert_eq!(rb.path, "positional", "{label}");
        assert_eq!(a, b, "{label}: row and column stores disagree");
    }
}

/// Non-seeker SQL (expressions the positional evaluator cannot prove safe
/// or shapes with non-fact join keys) must fall back to the tuple path and
/// still return correct answers.
#[test]
fn unrecognized_shapes_fall_back_to_tuple() {
    let lake = lake();
    let blend = Blend::from_lake(&lake, EngineKind::Column);
    // Grouping on an expression (not a bare fact column) is not admitted.
    let sql = "SELECT TableId % 7, COUNT(*) AS n FROM AllTables GROUP BY TableId % 7";
    let (rs, report) = blend
        .engine()
        .execute_with_report_path(sql, ExecPath::Auto)
        .unwrap();
    assert_eq!(report.path, "tuple");
    assert!(!rs.is_empty());
    let (rs_forced, _) = blend
        .engine()
        .execute_with_report_path(sql, ExecPath::TupleOnly)
        .unwrap();
    assert_eq!(rs, rs_forced);
}

/// End-to-end: full seeker plans (including the optimizer's injections)
/// return the same hits regardless of which executor backs the SQL engine.
#[test]
fn seeker_runs_match_direct_sql_results() {
    let lake = lake();
    let blend = Blend::from_lake(&lake, EngineKind::Column);
    for (label, seeker) in seeker_suite(&lake) {
        let run = seekers::run(&blend, &seeker, 10, None, &blend::Interrupt::never()).unwrap();
        // The SQL recorded on the run, re-executed on both paths, agrees.
        let (a, _) = blend
            .engine()
            .execute_with_report_path(&run.sql, ExecPath::Auto)
            .unwrap();
        let (b, _) = blend
            .engine()
            .execute_with_report_path(&run.sql, ExecPath::TupleOnly)
            .unwrap();
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
/// one `Arc<str>` per distinct id, the tuple executor's own rows need not,
/// and `approx_bytes` counts each allocation once.
fn bytes_of(rs: &ResultSet) -> String {
    format!("{:?} {:?}", rs.columns, rs.rows)
}

/// `execute_columns(…).to_result_set()` == `execute(…)` == the
/// `TupleOnly` rows, on both executors and both engines, for the seeker
/// corpus and for every projection shape × ORDER BY × LIMIT.
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
        let engine = blend.engine();
        let rows = |sql: &str, path| {
            let (rs, report) = engine
                .execute_with_report_path(sql, path)
                .unwrap_or_else(|e| panic!("{kind:?}/{path:?}: {e}: {sql}"));
            (bytes_of(&rs), report.path, rs.len())
        };
        let columns = |sql: &str, path| {
            let (cols, report) = engine
                .execute_columns_interruptible(sql, path, blend::Interrupt::never())
                .unwrap_or_else(|e| panic!("{kind:?}/{path:?}: {e}: {sql}"));
            assert_eq!(cols.len(), report.result_rows, "{kind:?}/{path:?}: {sql}");
            bytes_of(&cols.to_result_set())
        };
        let check = |sql: &str| {
            let (want, tuple_path, n) = rows(sql, ExecPath::TupleOnly);
            let (auto, auto_path, _) = rows(sql, ExecPath::Auto);
            assert_eq!(
                (tuple_path.as_str(), auto_path.as_str()),
                ("tuple", "positional")
            );
            assert_eq!(auto, want, "{kind:?}: row entry: {sql}");
            assert_eq!(
                columns(sql, ExecPath::Auto),
                want,
                "{kind:?}: columns: {sql}"
            );
            assert_eq!(
                columns(sql, ExecPath::TupleOnly),
                want,
                "{kind:?}: wrapped rows: {sql}"
            );
            n
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
/// they existed — the row entry's rows too — over random select lists, both
/// executors and both engines, with 0, 1 and many rows.
fn check_built_rows(sql: &str) {
    for blend in engines() {
        let engine = blend.engine();
        for path in [ExecPath::Auto, ExecPath::TupleOnly] {
            let (cols, _) = engine
                .execute_columns_interruptible(sql, path, blend::Interrupt::never())
                .unwrap_or_else(|e| panic!("{path:?}: {e}: {sql}"));
            let rs = cols.to_result_set();
            let (direct, _) = engine.execute_with_report_path(sql, path).unwrap();
            assert_eq!(bytes_of(&rs), bytes_of(&direct), "{path:?}: {sql}");
            assert_eq!(cols.rows_bytes(), rs.approx_bytes(), "{path:?}: {sql}");
            for (c, col) in cols.columns.iter().enumerate() {
                for (i, row) in rs.rows.iter().enumerate() {
                    assert_eq!(row[c], col.value(i), "{path:?}: {sql}");
                }
                let Some(ids) = col.as_text().map(|t| t.ids()) else {
                    continue;
                };
                let text = |i: usize| match &rs.rows[i][c] {
                    SqlValue::Text(s) => s.clone(),
                    v => panic!("{path:?}: text column {c} built {v:?}: {sql}"),
                };
                for i in 0..rs.len() {
                    for j in 0..rs.len() {
                        assert_eq!(
                            Arc::ptr_eq(&text(i), &text(j)),
                            ids[i] == ids[j],
                            "{path:?}: rows {i}, {j} of column {c}: {sql}"
                        );
                    }
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
