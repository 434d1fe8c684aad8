//! SQL engine edge-case battery: behaviours the seekers rely on implicitly
//! and that regressions would silently corrupt.

use std::sync::Arc;

use blend_sql::{BlendError, ResultSet, SqlEngine, SqlValue};
use blend_storage::{build_engine, EngineKind, FactRow, FactTable};

/// Mini index: two tables. Table 0 has text col 0 and numeric col 1
/// (quadrants 0,0,1,1); table 1 shares two values with table 0.
fn fixture() -> Arc<dyn FactTable> {
    let mut rows = Vec::new();
    for (r, (v, q)) in [
        ("alpha", None),
        ("beta", None),
        ("gamma", None),
        ("delta", None),
    ]
    .into_iter()
    .enumerate()
    {
        rows.push(FactRow::new(v, 0, 0, r as u32, 0xA0 + r as u128, q));
    }
    for (r, q) in [false, false, true, true].into_iter().enumerate() {
        rows.push(FactRow::new(
            &format!("{}", 10 * (r + 1)),
            0,
            1,
            r as u32,
            0xA0 + r as u128,
            Some(q),
        ));
    }
    for (r, v) in ["alpha", "delta", "omega"].into_iter().enumerate() {
        rows.push(FactRow::new(v, 1, 0, r as u32, 0xB0 + r as u128, None));
    }
    // Table 2: numeric-only ballast, shares no values with the queries —
    // exactly what sideways pushdown should let joins skip.
    for r in 0..12u32 {
        rows.push(FactRow::new(
            &format!("{}", 1000 + r),
            2,
            0,
            r,
            0xC0 + r as u128,
            Some(r % 2 == 0),
        ));
    }
    build_engine(EngineKind::Column, rows)
}

fn engine() -> SqlEngine {
    SqlEngine::with_alltables(fixture())
}

#[test]
fn count_star_vs_count_column() {
    let e = engine();
    // COUNT(*) counts rows; COUNT(Quadrant) skips NULLs.
    let rs = e
        .execute("SELECT COUNT(*) AS all_rows, COUNT(Quadrant) AS numeric_rows FROM AllTables")
        .unwrap();
    assert_eq!(rs.i64(0, "all_rows"), Some(23));
    assert_eq!(rs.i64(0, "numeric_rows"), Some(16));
}

#[test]
fn global_aggregate_without_group_by() {
    let e = engine();
    let rs = e
        .execute("SELECT MIN(RowId) AS lo, MAX(RowId) AS hi, AVG(RowId) AS mid FROM AllTables WHERE TableId = 1")
        .unwrap();
    assert_eq!(rs.i64(0, "lo"), Some(0));
    assert_eq!(rs.i64(0, "hi"), Some(2));
    assert_eq!(rs.f64(0, "mid"), Some(1.0));
}

#[test]
fn global_aggregate_on_empty_input_returns_one_row() {
    let e = engine();
    let rs = e
        .execute("SELECT COUNT(*) AS n, SUM(RowId) AS s FROM AllTables WHERE TableId = 99")
        .unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(rs.i64(0, "n"), Some(0));
    assert!(rs.rows[0][rs.col("s").unwrap()].is_null());
}

#[test]
fn group_by_expression_not_just_column() {
    let e = engine();
    // Group parity of RowId — exercises expression group keys.
    let rs = e
        .execute(
            "SELECT RowId % 2 AS parity, COUNT(*) AS n FROM AllTables \
             WHERE TableId = 0 GROUP BY RowId % 2 ORDER BY parity",
        )
        .unwrap();
    assert_eq!(rs.len(), 2);
    assert_eq!(rs.i64(0, "n"), Some(4)); // rows 0 and 2, two columns each
    assert_eq!(rs.i64(1, "n"), Some(4));
}

#[test]
fn order_by_multiple_keys_and_direction() {
    let e = engine();
    let rs = e
        .execute(
            "SELECT TableId AS t, RowId AS r FROM AllTables WHERE ColumnId = 0 \
             AND TableId IN (0, 1) ORDER BY TableId DESC, RowId ASC",
        )
        .unwrap();
    let pairs: Vec<(i64, i64)> = (0..rs.len())
        .map(|i| (rs.i64(i, "t").unwrap(), rs.i64(i, "r").unwrap()))
        .collect();
    assert_eq!(
        pairs,
        vec![(1, 0), (1, 1), (1, 2), (0, 0), (0, 1), (0, 2), (0, 3)]
    );
}

#[test]
fn limit_zero_and_oversized() {
    let e = engine();
    let rs = e.execute("SELECT TableId FROM AllTables LIMIT 0").unwrap();
    assert!(rs.is_empty());
    let rs = e
        .execute("SELECT TableId FROM AllTables LIMIT 9999")
        .unwrap();
    assert_eq!(rs.len(), 23);
}

#[test]
fn self_join_on_rowid_respects_null_keys() {
    let e = engine();
    // Join text cells to numeric cells of the same row in table 0.
    let rs = e
        .execute(
            "SELECT a.CellValue AS word, b.CellValue AS num FROM \
             (SELECT * FROM AllTables WHERE TableId = 0 AND ColumnId = 0) a \
             INNER JOIN (SELECT * FROM AllTables WHERE TableId = 0 AND ColumnId = 1) b \
             ON a.RowId = b.RowId AND a.TableId = b.TableId \
             ORDER BY b.RowId",
        )
        .unwrap();
    assert_eq!(rs.len(), 4);
    assert_eq!(rs.str(0, "word"), Some("alpha"));
    assert_eq!(rs.str(0, "num"), Some("10"));
}

#[test]
fn join_residual_predicates_filter() {
    let e = engine();
    // Non-equi residual in ON: only pairs with different column ids.
    let rs = e
        .execute(
            "SELECT COUNT(*) AS n FROM \
             (SELECT * FROM AllTables WHERE TableId = 0) a \
             INNER JOIN (SELECT * FROM AllTables WHERE TableId = 0) b \
             ON a.RowId = b.RowId AND a.ColumnId <> b.ColumnId",
        )
        .unwrap();
    // 4 rows x 2 ordered (col0,col1)/(col1,col0) pairs.
    assert_eq!(rs.i64(0, "n"), Some(8));
}

#[test]
fn quadrant_comparisons_coerce_bool_to_int() {
    let e = engine();
    let rs = e
        .execute("SELECT COUNT(*) AS n FROM AllTables WHERE Quadrant = 1 AND TableId = 0")
        .unwrap();
    assert_eq!(rs.i64(0, "n"), Some(2));
    let rs = e
        .execute("SELECT COUNT(*) AS n FROM AllTables WHERE Quadrant = 0")
        .unwrap();
    assert_eq!(rs.i64(0, "n"), Some(8));
}

#[test]
fn cast_int_sums_boolean_expressions() {
    let e = engine();
    // The Listing-3 idiom: SUM((predicate)::int).
    let rs = e
        .execute(
            "SELECT SUM((CellValue IN ('alpha','delta'))::int) AS hits FROM AllTables \
             WHERE ColumnId = 0 GROUP BY TableId ORDER BY TableId",
        )
        .unwrap();
    assert_eq!(rs.i64(0, "hits"), Some(2)); // table 0: alpha, delta
    assert_eq!(rs.i64(1, "hits"), Some(2)); // table 1: alpha, delta
}

#[test]
fn superkey_column_is_opaque_but_projectable() {
    let e = engine();
    let rs = e
        .execute("SELECT SuperKey FROM AllTables WHERE TableId = 1 AND RowId = 0")
        .unwrap();
    assert_eq!(rs.rows[0][0], SqlValue::U128(0xB0));
}

#[test]
fn parse_errors_are_reported_not_panicked() {
    let e = engine();
    for bad in [
        "SELECT FROM AllTables",
        "SELECT * FROM",
        "SELECT * FROM AllTables WHERE",
        "SELECT * FROM AllTables GROUP BY",
        "SELECT * FROM AllTables LIMIT -1",
        "SELECT UNKNOWN_FUNC(x) FROM AllTables",
        "SELECT * FROM AllTables ORDER",
    ] {
        assert!(e.execute(bad).is_err(), "`{bad}` should fail to parse/plan");
    }
}

#[test]
fn plan_errors_name_the_problem() {
    let e = engine();
    let err = e
        .execute("SELECT ghost_column FROM AllTables")
        .unwrap_err()
        .to_string();
    assert!(err.contains("ghost_column"), "{err}");
    let err = e
        .execute("SELECT TableId, COUNT(*) FROM AllTables GROUP BY ColumnId")
        .unwrap_err()
        .to_string();
    assert!(err.contains("GROUP BY"), "{err}");
}

#[test]
fn distinct_count_interacts_with_rewriting_filters() {
    let e = engine();
    // The rewritten form of the SC seeker: value IN list + injected NOT IN.
    let rs = e
        .execute(
            "SELECT TableId AS t, COUNT(DISTINCT CellValue) AS score FROM AllTables \
             WHERE CellValue IN ('alpha','delta','omega') AND TableId NOT IN (0) \
             GROUP BY TableId, ColumnId ORDER BY score DESC",
        )
        .unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(rs.i64(0, "t"), Some(1));
    assert_eq!(rs.i64(0, "score"), Some(3));
}

#[test]
fn sideways_pushdown_changes_access_path_but_not_results() {
    // The correlation-shaped join: selective keys side + quadrant side.
    let e = engine();
    let sql = "SELECT keys.TableId AS t, COUNT(*) AS n FROM \
               (SELECT * FROM AllTables WHERE CellValue IN ('alpha','beta')) keys \
               INNER JOIN (SELECT * FROM AllTables WHERE Quadrant IS NOT NULL) nums \
               ON keys.TableId = nums.TableId AND keys.RowId = nums.RowId \
               GROUP BY keys.TableId";
    let (rs, report) = e.execute_with_report(sql).unwrap();
    // The nums side must have been driven through the table index (pushed
    // from the keys side), not a full seq scan.
    let nums_scan = report
        .scans
        .iter()
        .find(|s| s.alias == "alltables" && s.access != "value-index")
        .expect("nums scan present");
    assert_eq!(nums_scan.access, "table-index", "{report:?}");
    // Results: table 0 rows 0 and 1 have both a text key and a numeric cell.
    assert_eq!(rs.i64(0, "t"), Some(0));
    assert_eq!(rs.i64(0, "n"), Some(2));
}

/// A number never equals a text cell, so `CellValue IN (1)` matches
/// nothing — like `CellValue = 1`, on every store, and on the reference. Planning it
/// as an index drive on the string `"1"` would also make `IN (1) OR RowId >
/// 5` return fewer rows than its first arm.
#[test]
fn numeric_literals_never_match_text_cells() {
    let rows = vec![
        FactRow::new("1", 0, 0, 0, 0, None),
        FactRow::new("x", 0, 0, 1, 0, None),
        FactRow::new("2.5", 0, 0, 2, 0, None),
    ];
    let values = |where_clause: &str| -> Vec<Vec<String>> {
        let sql = format!("SELECT CellValue FROM AllTables WHERE {where_clause} ORDER BY RowId");
        [EngineKind::Row, EngineKind::Column]
            .into_iter()
            .flat_map(|kind| {
                let e = SqlEngine::with_alltables(build_engine(kind, rows.clone()));
                [
                    e.execute(&sql).unwrap(),
                    e.execute_reference(&sql).unwrap().0,
                ]
            })
            .map(|rs| {
                rs.rows
                    .iter()
                    .map(|r| r[0].as_str().unwrap().to_string())
                    .collect()
            })
            .collect()
    };
    for (where_clause, want) in [
        ("CellValue IN (1)", vec![]),
        ("CellValue IN (2.5)", vec![]),
        ("CellValue = 1", vec![]),
        ("CellValue IN (1) OR RowId > 5", vec![]),
        ("CellValue IN ('1')", vec!["1"]),
        ("CellValue IN ('x', 1)", vec!["x"]),
    ] {
        for got in values(where_clause) {
            assert_eq!(got, want, "{where_clause}");
        }
    }
}

/// `i64::MIN % -1`, `-i64::MIN` and `ABS(i64::MIN)` wrap instead of
/// panicking — in a select list and in a WHERE — on both stores and on the
/// reference: the remainder is 0, the negation and the absolute value are
/// `i64::MIN` again.
#[test]
fn integer_overflow_never_panics() {
    let min = "(0 - 9223372036854775807 - 1)";
    for kind in [EngineKind::Row, EngineKind::Column] {
        let e = SqlEngine::with_alltables(build_engine(
            kind,
            vec![
                FactRow::new("a", 0, 0, 0, 0, None),
                FactRow::new("b", 0, 0, 1, 0, None),
            ],
        ));
        let run = |sql: &str| -> [ResultSet; 2] {
            [e.execute(sql).unwrap(), e.execute_reference(sql).unwrap().0]
        };
        let select =
            format!("SELECT {min} % -1 AS r, -{min} AS n, ABS({min}) AS a FROM AllTables LIMIT 1");
        for rs in run(&select) {
            assert_eq!(rs.i64(0, "r"), Some(0), "{kind:?}");
            assert_eq!(rs.i64(0, "n"), Some(i64::MIN), "{kind:?}");
            assert_eq!(rs.i64(0, "a"), Some(i64::MIN), "{kind:?}");
        }
        let filter = format!("SELECT RowId FROM AllTables WHERE {min} % -1 = 0 AND -{min} < 0");
        for rs in run(&filter) {
            assert_eq!(rs.len(), 2, "{kind:?}");
        }
    }
}

/// `-9223372036854775808` is the literal `i64::MIN` wherever a literal may
/// stand — a select item, a WHERE comparison, an IN list — on both stores
/// and on the reference. Its magnitude alone, and one past it, stay parse
/// errors.
#[test]
fn i64_min_literal_parses() {
    let min = "-9223372036854775808";
    for kind in [EngineKind::Row, EngineKind::Column] {
        let e = SqlEngine::with_alltables(build_engine(
            kind,
            vec![
                FactRow::new("a", 0, 0, 0, 0, None),
                FactRow::new("b", 0, 0, 1, 0, None),
            ],
        ));
        let run = |sql: &str| -> [ResultSet; 2] {
            [e.execute(sql).unwrap(), e.execute_reference(sql).unwrap().0]
        };
        for rs in run(&format!(
            "SELECT {min} AS x, {min} + 1 AS y FROM AllTables LIMIT 1"
        )) {
            assert_eq!(rs.i64(0, "x"), Some(i64::MIN), "{kind:?}");
            assert_eq!(rs.i64(0, "y"), Some(i64::MIN + 1), "{kind:?}");
        }
        for rs in run(&format!("SELECT RowId FROM AllTables WHERE RowId > {min}")) {
            assert_eq!(rs.len(), 2, "{kind:?}");
        }
        for rs in run(&format!(
            "SELECT RowId AS r FROM AllTables WHERE RowId IN ({min}, 1)"
        )) {
            assert_eq!(rs.len(), 1, "{kind:?}");
            assert_eq!(rs.i64(0, "r"), Some(1), "{kind:?}");
        }
        for bad in ["9223372036854775808", "-9223372036854775809"] {
            let sql = format!("SELECT {bad} AS x FROM AllTables");
            assert!(
                matches!(e.execute(&sql), Err(BlendError::SqlParse(_))),
                "{sql}"
            );
            let reference = e.execute_reference(&sql);
            assert!(matches!(reference, Err(BlendError::SqlParse(_))), "{sql}");
        }
    }
}

/// An integer `SUM` is exact above 2^53 and wraps like `+`, on both stores
/// and on the reference; a `Float` turns the rest of the sum to `f64`.
#[test]
fn integer_sum_is_exact_above_2_pow_53() {
    for kind in [EngineKind::Row, EngineKind::Column] {
        let e = SqlEngine::with_alltables(build_engine(
            kind,
            (0..3)
                .map(|r| FactRow::new(&format!("v{r}"), 0, 0, r, 0, None))
                .collect(),
        ));
        let run = |sql: &str| -> [ResultSet; 2] {
            [e.execute(sql).unwrap(), e.execute_reference(sql).unwrap().0]
        };
        for rs in run("SELECT SUM(9007199254740993) AS s, \
                       SUM(9223372036854775807) AS w, SUM(RowId + 0.5) AS f FROM AllTables")
        {
            assert_eq!(rs.i64(0, "s"), Some(27021597764222979), "{kind:?}");
            assert_eq!(rs.i64(0, "w"), Some(9223372036854775805), "{kind:?}");
            assert_eq!(rs.f64(0, "f"), Some(4.5), "{kind:?}");
        }
    }
}

/// Nesting past `parser::MAX_DEPTH` is a typed parse error wherever SQL
/// enters — `execute`, the reference, fingerprinting and the serving queue
/// — instead of a stack overflow that aborts the process, and queries at
/// the bound (an `AND` chain, nested `NOT`s, parentheses, `ABS` calls and
/// `::int` casts) return the reference's rows. All of it on a spawned
/// thread with the default 2 MiB stack, the stack of serving threads.
#[test]
fn nesting_past_the_bound_is_a_parse_error_on_a_default_stack() {
    use blend_parallel::Deadline;
    use blend_serve::{ServeConfig, ServeQueue};
    use blend_sql::{fingerprint_sql, parser::MAX_DEPTH};

    let run = std::thread::spawn(|| {
        let e = Arc::new(engine());
        let queue = ServeQueue::new(e.clone(), ServeConfig::default());
        let served = |sql: &str| queue.submit(sql, Deadline::none())?.wait();
        let select = "SELECT TableId, RowId FROM AllTables WHERE ";
        let chain = |links: usize| format!("{select}RowId < 3{}", " AND TableId = 0".repeat(links));
        let nested = |open: &str, close: &str, n: usize| {
            format!(
                "{select}{}RowId < 3{} AND TableId = 0",
                open.repeat(n),
                close.repeat(n)
            )
        };
        let wrapped = |open: &str, close: &str, n: usize| {
            format!(
                "{select}{}RowId{} < 3 AND TableId = 0",
                open.repeat(n),
                close.repeat(n)
            )
        };
        for sql in [
            nested("(", ")", 2000),
            chain(MAX_DEPTH + 1),
            wrapped("ABS(", ")", MAX_DEPTH + 1),
            wrapped("", "::int", MAX_DEPTH + 1),
        ] {
            let parse_error = |r: blend_sql::Result<()>| matches!(r, Err(BlendError::SqlParse(_)));
            assert!(parse_error(e.execute(&sql).map(drop)));
            assert!(parse_error(e.execute_reference(&sql).map(drop)));
            assert!(parse_error(fingerprint_sql(&sql).map(drop)));
            assert!(parse_error(served(&sql).map(drop)));
        }
        for sql in [
            chain(MAX_DEPTH),
            // Pairs of NOTs keep the predicate; `MAX_DEPTH` is even.
            nested("NOT NOT ", "", MAX_DEPTH / 2),
            nested("(", ")", MAX_DEPTH),
            wrapped("ABS(", ")", MAX_DEPTH),
            wrapped("", "::int", MAX_DEPTH),
        ] {
            let (want, _) = e.execute_reference(&sql).unwrap();
            assert_eq!(want.len(), 6, "{sql}");
            assert_eq!(
                format!("{:?}", e.execute(&sql).unwrap()),
                format!("{want:?}")
            );
            fingerprint_sql(&sql).unwrap();
            assert_eq!(
                format!("{:?}", served(&sql).unwrap().0),
                format!("{want:?}")
            );
        }
    });
    run.join().expect("the nesting checks pass");
}

/// A `$` outside an identifier is no token of the dialect: `$n` in an
/// `IN` list or as a select item, a `$n` past `usize`, a bare `$` — each
/// is a typed `SqlParse` error wherever text enters: `execute`, the
/// reference, fingerprinting and the serving queue; none panics and none
/// leaves a cache entry.
#[test]
fn hostile_slots_are_typed_errors_through_every_entry() {
    use blend_parallel::Deadline;
    use blend_serve::{ServeConfig, ServeQueue};
    use blend_sql::fingerprint_sql;

    let e = Arc::new(engine());
    let queue = ServeQueue::new(e.clone(), ServeConfig::default());
    let typed = |r: blend_sql::Result<()>| matches!(r, Err(BlendError::SqlParse(_)));
    for sql in [
        "SELECT TableId FROM AllTables WHERE CellValue IN ($0)",
        "SELECT $0 FROM AllTables",
        "SELECT TableId FROM AllTables WHERE TableId IN ($99999999999999999999)",
        "SELECT TableId FROM AllTables WHERE CellValue IN ($)",
        "SELECT $ FROM AllTables",
    ] {
        assert!(typed(e.execute(sql).map(drop)), "{sql}");
        assert!(typed(e.execute_reference(sql).map(drop)), "{sql}");
        assert!(typed(fingerprint_sql(sql).map(drop)), "{sql}");
        let served = queue.submit(sql, Deadline::none()).and_then(|t| t.wait());
        assert!(typed(served.map(drop)), "{sql}");
    }
    assert_eq!(queue.cached_results(), 0);
}
