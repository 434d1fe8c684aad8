//! `ORDER BY … LIMIT k` as a bounded selection must be invisible: every
//! engine, executor and SIMD dispatch returns, byte for byte,
//! what sorting *all* rows stably and truncating returned before.
//!
//! The oracle lives here and shares no code with the engine's selection. It
//! runs each query once more with ORDER BY and LIMIT removed and the ORDER
//! BY expressions appended to the select list — so it sees every row, in
//! the engine's unordered (first-seen) order, together with its sort keys —
//! and then does what the old query tail did: a **stable** sort on (order
//! keys, projected values), a truncate, and nothing else. A stable sort is
//! what decides between rows that compare equal, and the generated lakes
//! tie heavily (tiny vocabularies, equal table shapes), so any selection
//! that is not total over (keys, projection, first-seen order) shows up.

use std::cmp::Ordering;
use std::sync::{Arc, Mutex};

use blend_parallel::{Interrupt, ParallelCtx};
use blend_simd as simd;
use blend_sql::{QueryReport, ResultSet, SqlEngine, SqlValue};
use blend_storage::{build_engine, EngineKind, FactRow};
use proptest::prelude::*;

/// `blend_simd::force` is process-global.
static FORCE_LOCK: Mutex<()> = Mutex::new(());

struct ForceScope(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);

impl Drop for ForceScope {
    fn drop(&mut self) {
        simd::force(None);
    }
}

/// Three columns per table: a text key from a tiny vocabulary, a number
/// with a quadrant bit, and a second text key. Small vocabularies and
/// equal table shapes make distinct counts, row counts and sums tie.
fn tie_heavy_rows(n_tables: u32, rows_per: u32, vocab: u64, seed: u64) -> Vec<FactRow> {
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
            let sk = ((t as u128) << 64) | r as u128;
            rows.push(FactRow::new(
                &format!("w{}", next() % vocab),
                t,
                0,
                r,
                sk,
                None,
            ));
            let num = next() % 4;
            rows.push(FactRow::new(&num.to_string(), t, 1, r, sk, Some(num >= 2)));
            rows.push(FactRow::new(
                &format!("w{}", next() % vocab),
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

/// A query in pieces: the select list, the ORDER BY expressions spelled
/// out in full (no aliases, so they can move into a select list), and
/// everything between the select list and ORDER BY — plus the grouping
/// path the positional executor must take for it.
struct Shape {
    label: &'static str,
    select: &'static [&'static str],
    order: &'static [&'static str],
    from: &'static str,
    group: Group,
}

/// The grouping path a shape takes (`exec_positional`'s *Column-index
/// grouping*): observable as the `group` hash table the hash path records
/// and the column path does not.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Group {
    /// No GROUP BY at all.
    Ungrouped,
    /// The column store's column index; the hash path on the row store.
    Columns,
    Hash,
    /// As `Columns` where the planner chose the value-index drive, `Hash`
    /// where it chose the table index.
    ByDrive,
}

/// The IN list of the SC/KW shapes: three words and two numbers.
macro_rules! sc_values {
    () => {
        "CellValue IN ('w0','w1','w2','0','3')"
    };
}

const SHAPES: &[Shape] = &[
    // The SC seeker (paper Listing 1): one flat integer key.
    Shape {
        label: "sc",
        select: &["TableId AS t", "COUNT(DISTINCT CellValue) AS score"],
        order: &["COUNT(DISTINCT CellValue)"],
        from: "FROM AllTables WHERE CellValue IN ('w0','w1','w2') GROUP BY TableId, ColumnId",
        group: Group::Columns,
    },
    // The KW seeker: the same count per table, over text and numbers.
    Shape {
        label: "kw",
        select: &["TableId AS t", "COUNT(DISTINCT CellValue) AS score"],
        order: &["COUNT(DISTINCT CellValue)"],
        from: concat!("FROM AllTables WHERE ", sc_values!(), " GROUP BY TableId"),
        group: Group::Columns,
    },
    // SC with its keys the other way round, both projected.
    Shape {
        label: "sc-column-first",
        select: &[
            "ColumnId AS c",
            "TableId AS t",
            "COUNT(DISTINCT CellValue) AS score",
        ],
        order: &["COUNT(DISTINCT CellValue)"],
        from: concat!(
            "FROM AllTables WHERE ",
            sc_values!(),
            " GROUP BY ColumnId, TableId",
        ),
        group: Group::Columns,
    },
    // SC behind injected table filters: `NOT IN` never drives, `IN` drives
    // only where it is the smaller side.
    Shape {
        label: "sc-not-in",
        select: &["TableId AS t", "COUNT(DISTINCT CellValue) AS score"],
        order: &["COUNT(DISTINCT CellValue)"],
        from: concat!(
            "FROM AllTables WHERE ",
            sc_values!(),
            " AND TableId NOT IN (1, 4) GROUP BY TableId, ColumnId",
        ),
        group: Group::Columns,
    },
    Shape {
        label: "sc-table-in",
        select: &["TableId AS t", "COUNT(DISTINCT CellValue) AS score"],
        order: &["COUNT(DISTINCT CellValue)"],
        from: concat!(
            "FROM AllTables WHERE ",
            sc_values!(),
            " AND TableId IN (0, 2, 3, 5, 7) GROUP BY TableId, ColumnId",
        ),
        group: Group::ByDrive,
    },
    // Near misses of the column path, on the hash path with the same
    // bytes: a key that is not a table's run, a second aggregate, a RowId
    // key, and (mostly) a table-index drive.
    Shape {
        label: "column-key",
        select: &["ColumnId AS c", "COUNT(DISTINCT CellValue) AS score"],
        order: &["COUNT(DISTINCT CellValue)"],
        from: concat!("FROM AllTables WHERE ", sc_values!(), " GROUP BY ColumnId"),
        group: Group::Hash,
    },
    // ORDER BY led by a group key, not a count: the key column is what
    // the counting threshold reads, ties broken by the score after it.
    Shape {
        label: "key-led",
        select: &[
            "TableId AS t",
            "RowId AS r",
            "COUNT(DISTINCT CellValue) AS score",
        ],
        order: &["TableId", "COUNT(DISTINCT CellValue)"],
        from: concat!(
            "FROM AllTables WHERE ",
            sc_values!(),
            " GROUP BY TableId, RowId",
        ),
        group: Group::Hash,
    },
    Shape {
        label: "distinct-and-count",
        select: &[
            "TableId AS t",
            "COUNT(DISTINCT CellValue) AS score",
            "COUNT(*) AS n",
        ],
        order: &["COUNT(DISTINCT CellValue)"],
        from: concat!("FROM AllTables WHERE ", sc_values!(), " GROUP BY TableId"),
        group: Group::Hash,
    },
    Shape {
        label: "row-key",
        select: &[
            "TableId AS t",
            "RowId AS r",
            "COUNT(DISTINCT CellValue) AS score",
        ],
        order: &["COUNT(DISTINCT CellValue)"],
        from: concat!(
            "FROM AllTables WHERE ",
            sc_values!(),
            " GROUP BY TableId, RowId",
        ),
        group: Group::Hash,
    },
    Shape {
        label: "table-drive",
        select: &["TableId AS t", "COUNT(DISTINCT CellValue) AS score"],
        order: &["COUNT(DISTINCT CellValue)"],
        from: "FROM AllTables WHERE CellValue IN ('w0','w1','w2','w3','0','1','2','3') \
               AND TableId = 0 GROUP BY TableId, ColumnId",
        group: Group::ByDrive,
    },
    // Two keys, the first of them absent from the projection.
    Shape {
        label: "multi-key",
        select: &["TableId", "ColumnId", "COUNT(*) AS n"],
        order: &["COUNT(DISTINCT CellValue)", "COUNT(*)"],
        from: "FROM AllTables GROUP BY TableId, ColumnId",
        group: Group::Hash,
    },
    // NULL keys: text columns have no quadrant, so their SUM is NULL.
    Shape {
        label: "null-key",
        select: &["TableId AS t", "ColumnId AS c", "SUM(Quadrant) AS q"],
        order: &["SUM(Quadrant)", "COUNT(*)"],
        from: "FROM AllTables GROUP BY TableId, ColumnId",
        group: Group::Hash,
    },
    // MIN/MAX of fact columns: the other flat integer aggregates.
    Shape {
        label: "min-max",
        select: &["ColumnId AS c", "MIN(RowId) AS lo", "MAX(TableId) AS hi"],
        order: &["MAX(TableId)", "MIN(RowId)"],
        from: "FROM AllTables WHERE RowId > 0 GROUP BY ColumnId, TableId",
        group: Group::Hash,
    },
    // Keys that differ in their bytes and still compare equal: ORDER BY
    // compares numerics as f64, and above 2^53 neighbouring integers share
    // one. (The SQL subset types an expression the same in every row, so
    // `Int(1)` beside `Float(1.0)` in one column is reachable only at the
    // unit level — `exec::tests` covers it against the same oracle.)
    Shape {
        label: "equal-not-identical",
        select: &[
            "TableId AS t",
            "COUNT(DISTINCT CellValue) + 9007199254740992 AS big",
        ],
        order: &["COUNT(DISTINCT CellValue) + 9007199254740992"],
        from: "FROM AllTables GROUP BY TableId, ColumnId",
        group: Group::Hash,
    },
    // A computed float key (the C seeker's score shape), 3 group keys.
    Shape {
        label: "computed-float",
        select: &[
            "TableId AS t",
            "ABS((2 * SUM((Quadrant = 1)::int) - COUNT(*)) / COUNT(*)) AS score",
        ],
        order: &["ABS((2 * SUM((Quadrant = 1)::int) - COUNT(*)) / COUNT(*))"],
        from: "FROM AllTables WHERE Quadrant IS NOT NULL GROUP BY TableId, ColumnId, RowId",
        group: Group::Hash,
    },
    // No GROUP BY: the reference's decorated rows against the
    // positional executor's flat columns — dictionary-coded text first.
    Shape {
        label: "ungrouped",
        select: &["CellValue", "TableId"],
        order: &["CellValue", "RowId"],
        from: "FROM AllTables WHERE ColumnId = 0",
        group: Group::Ungrouped,
    },
    // Typed flat columns as sort keys: a NULL-able quadrant, a super key.
    Shape {
        label: "ungrouped-typed",
        select: &["SuperKey", "Quadrant", "CellValue"],
        order: &["Quadrant", "SuperKey"],
        from: "FROM AllTables WHERE RowId < 3",
        group: Group::Ungrouped,
    },
    // A computed key beside text from both sides of the MC self-join.
    Shape {
        label: "ungrouped-join",
        select: &[
            "q0.CellValue AS v0",
            "q1.CellValue AS v1",
            "q0.SuperKey AS sk",
        ],
        order: &["q0.TableId + q1.ColumnId", "q1.CellValue"],
        from: "FROM (SELECT * FROM AllTables WHERE ColumnId = 0) AS q0 \
               INNER JOIN (SELECT * FROM AllTables WHERE ColumnId = 2) AS q1 \
               ON q0.TableId = q1.TableId AND q0.RowId = q1.RowId",
        group: Group::Ungrouped,
    },
];

impl Group {
    /// The path a run of this shape must have taken on `kind`, given its
    /// report.
    fn expected(self, kind: EngineKind, report: &QueryReport) -> Group {
        match self {
            Group::Columns | Group::ByDrive if kind == EngineKind::Row => Group::Hash,
            Group::ByDrive if report.scans[0].access == "table-index" => Group::Hash,
            Group::ByDrive => Group::Columns,
            other => other,
        }
    }
}

/// The grouping path a positional run took, read off its profile (`None`
/// where profiles are not collected): the `group` span's `path` attr, which
/// must agree with the hash tables recorded — one for the hash path, none
/// for the column path.
fn group_path(report: &QueryReport) -> Option<Group> {
    let profile = report.profile.as_ref()?;
    let Some(span) = profile.find("group") else {
        return Some(Group::Ungrouped);
    };
    let hashed = report.hash_tables.iter().any(|h| h.phase == "group");
    Some(
        match span.attr("path").map(ToString::to_string).as_deref() {
            Some("columns") if !hashed => Group::Columns,
            Some("hash") if hashed => Group::Hash,
            other => panic!("group span path {other:?}, hash table recorded: {hashed}"),
        },
    )
}

/// The old tail, on the unordered rows of `base` (`width` projected
/// columns, then one column per ORDER BY key).
fn sort_all_then_truncate(
    base: &ResultSet,
    width: usize,
    desc: &[bool],
    limit: Option<usize>,
) -> Vec<Vec<SqlValue>> {
    let mut rows = base.rows.clone();
    if !desc.is_empty() {
        rows.sort_by(|a, b| {
            for (i, d) in desc.iter().enumerate() {
                let ord = a[width + i].order_cmp(&b[width + i]);
                let ord = if *d { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            for (x, y) in a[..width].iter().zip(&b[..width]) {
                let ord = x.order_cmp(y);
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }
    if let Some(k) = limit {
        rows.truncate(k);
    }
    rows.into_iter()
        .map(|mut r| {
            r.truncate(width);
            r
        })
        .collect()
}

/// LIMITs at the edges of the leading ORDER BY key's tie band around the
/// middle row, where a counting selection's threshold moves: with `T` that
/// row's key, the number of rows whose key ranks strictly before `T` and
/// the number ranking at or before it, each of them ±1.
fn tie_band_limits(base: &ResultSet, width: usize, desc: &[bool]) -> Vec<usize> {
    let Some(&desc) = desc.first() else {
        return Vec::new();
    };
    let cmp = |a: &SqlValue, b: &SqlValue| match desc {
        true => a.order_cmp(b).reverse(),
        false => a.order_cmp(b),
    };
    let mut keys: Vec<&SqlValue> = base.rows.iter().map(|r| &r[width]).collect();
    keys.sort_by(|a, b| cmp(a, b));
    let Some(t) = keys.get(keys.len() / 2) else {
        return Vec::new();
    };
    let before = keys.iter().filter(|k| cmp(k, t).is_lt()).count();
    let through = keys.iter().filter(|k| cmp(k, t).is_le()).count();
    [before, through]
        .into_iter()
        .flat_map(|c| [c.saturating_sub(1), c, c + 1])
        .collect()
}

/// Where a LIMIT runs: the SIMD dispatches of the positional executor,
/// and whether the reference runs it too.
type Runs = (&'static [bool], bool);

/// The fixed LIMITs run both dispatches, and the reference.
const EVERY_RUN: Runs = (&[false, true], true);

/// The tie-band LIMITs aim at the positional executor's counting
/// selection; the reference never counts.
const TIE_BAND_RUNS: Runs = (&[false, true], false);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bounded_selection_matches_sort_all_then_truncate(
        n_tables in 1u32..9,
        rows_per in 1u32..7,
        vocab in 1u64..4,
        seed in any::<u64>(),
        dirs in any::<u64>(),
    ) {
        let _scope = ForceScope(FORCE_LOCK.lock().unwrap_or_else(|p| p.into_inner()));
        let rows = tie_heavy_rows(n_tables, rows_per, vocab, seed);
        for kind in [EngineKind::Row, EngineKind::Column] {
            let fact = build_engine(kind, rows.clone());
            simd::force(Some(false));
            let reference = SqlEngine::with_alltables(fact.clone())
                .with_parallel(Arc::new(ParallelCtx::sequential()));
            for (si, shape) in SHAPES.iter().enumerate() {
                let width = shape.select.len();
                // ASC/DESC per key from the generated bits (four a shape,
                // wrapping round); one variant in four drops ORDER BY and
                // keeps only the LIMIT.
                let bits = dirs.rotate_right(4 * si as u32);
                let ordered = bits & 3 != 3;
                let desc: Vec<bool> = shape
                    .order
                    .iter()
                    .enumerate()
                    .filter(|_| ordered)
                    .map(|(i, _)| (bits >> (2 + i)) & 1 == 1)
                    .collect();
                let order_sql = if desc.is_empty() {
                    String::new()
                } else {
                    let keys: Vec<String> = shape
                        .order
                        .iter()
                        .zip(&desc)
                        .map(|(e, d)| format!("{e} {}", if *d { "DESC" } else { "ASC" }))
                        .collect();
                    format!("ORDER BY {}", keys.join(", "))
                };

                let mut base_items: Vec<&str> = shape.select.to_vec();
                base_items.extend(&shape.order[..desc.len()]);
                let base_sql = format!("SELECT {} {}", base_items.join(", "), shape.from);
                simd::force(Some(false));
                let base = reference
                    .execute_reference(&base_sql)
                    .unwrap_or_else(|e| panic!("{}: {e}: {base_sql}", shape.label))
                    .0;
                let n = base.len();
                let fixed = [None, Some(0), Some(1), Some(n / 2), Some(n), Some(n + 3)];
                let mut tie_band: Vec<Option<usize>> = tie_band_limits(&base, width, &desc)
                    .into_iter()
                    .map(Some)
                    .filter(|limit| !fixed.contains(limit))
                    .collect();
                tie_band.sort_unstable();
                tie_band.dedup();
                let limits = fixed
                    .iter()
                    .map(|&limit| (limit, EVERY_RUN))
                    .chain(tie_band.into_iter().map(|limit| (limit, TIE_BAND_RUNS)));

                for (limit, (configs, with_reference)) in limits {
                    let want = sort_all_then_truncate(&base, width, &desc, limit);
                    let sql = format!(
                        "SELECT {} {} {order_sql} {}",
                        shape.select.join(", "),
                        shape.from,
                        limit.map_or(String::new(), |k| format!("LIMIT {k}")),
                    );
                    // `SqlValue: PartialEq` equates 2^53 with 2^53 + 1;
                    // compare the bytes.
                    if with_reference {
                        let (got, _) = reference
                            .execute_reference(&sql)
                            .unwrap_or_else(|e| panic!("{}: {e}: {sql}", shape.label));
                        prop_assert_eq!(
                            format!("{:?}", got.rows),
                            format!("{:?}", want),
                            "{:?}/reference: {}", kind, sql
                        );
                    }
                    for &vector in configs {
                        simd::force(Some(vector));
                        // Chunks of 5 rows: every loop of even these small
                        // inputs crosses chunk boundaries.
                        let eng = SqlEngine::with_alltables(fact.clone())
                            .with_parallel(Arc::new(ParallelCtx::with_tuning(1, 5)));
                        let (got, report) = eng
                            .execute_with_report(&sql)
                            .unwrap_or_else(|e| panic!("{}: {e}: {sql}", shape.label));
                        prop_assert_eq!(&report.path, "positional", "{}", shape.label);
                        if let Some(group) = group_path(&report) {
                            prop_assert_eq!(
                                group,
                                shape.group.expected(kind, &report),
                                "{}: {}", shape.label, sql
                            );
                        }
                        prop_assert_eq!(
                            format!("{:?}", got.rows),
                            format!("{:?}", want),
                            "{:?}/vector={}: {}",
                            kind, vector, sql
                        );
                        // The columnar entry, asked for rows afterwards.
                        let (cols, _) = eng
                            .execute_columns_interruptible(&sql, Interrupt::never())
                            .unwrap_or_else(|e| panic!("{}: {e}: {sql}", shape.label));
                        prop_assert_eq!(
                            format!("{:?}", cols.to_result_set().rows),
                            format!("{:?}", want),
                            "{:?}/columns/vector={}: {}",
                            kind, vector, sql
                        );
                    }
                }
            }
        }
    }
}
