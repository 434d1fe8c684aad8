//! Expression parity: random expression trees, evaluated by the positional
//! executor's batch evaluator, return the bytes of the tuple interpreter
//! behind `execute_reference`.
//!
//! Each tree is built over the six fact columns and `Int` / `Float` /
//! text / `NULL` / boolean literals — among them `2^53 + 1`, `i64::MAX`,
//! `i64::MIN` and the integer above it, `-0.0`, and `1e308`, whose products
//! overflow to infinity — with arithmetic, comparisons, `AND` / `OR` /
//! `NOT`, `IS [NOT] NULL`, `IN` lists with number and `NULL` members, `ABS`
//! and `::int`. It is placed in every position the batch evaluator serves:
//!
//! * a select item;
//! * a scan's `WHERE` residual;
//! * a join's `ON` residual and a post-join `WHERE`;
//! * an interned `GROUP BY` key;
//! * the argument of `SUM`, `MIN`, `MAX`, `AVG` and `COUNT`, grouped over a
//!   scan and over a join.
//!
//! The lake has `NULL` quadrants, zeros in every integer column (for
//! division) and repeated values. Every query runs on both stores in
//! five-row chunks, under both SIMD dispatch paths, and must equal the
//! reference byte for byte.

use std::sync::Arc;

use blend_parallel::ParallelCtx;
use blend_sql::{ResultSet, SqlEngine};
use blend_storage::{build_engine, EngineKind, FactRow};
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
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len() as u64) as usize]
    }
}

/// Three tables of up to four rows: a text column (small vocabulary, a
/// `"0"` among it), a numeric column with quadrant bits and a text column
/// with `NULL` quadrants that now and then repeats column 0.
fn lake(rng: &mut Rng) -> Vec<FactRow> {
    let mut rows = Vec::new();
    for t in 0..3u32 {
        for r in 0..1 + rng.below(4) as u32 {
            let sk = rng.below(1 << 20) as u128 | ((t as u128) << 100);
            let key = ["w0", "w1", "w2", "0"][rng.below(4) as usize];
            rows.push(FactRow::new(key, t, 0, r, sk, None));
            let num = rng.below(4);
            rows.push(FactRow::new(&num.to_string(), t, 1, r, sk, Some(num >= 2)));
            if rng.below(3) != 0 {
                let other = if rng.below(2) == 0 { key } else { "w3" };
                rows.push(FactRow::new(other, t, 2, r, sk, None));
            }
        }
    }
    rows
}

const LITERALS: &[&str] = &[
    "0",
    "1",
    "2",
    "-1",
    "9007199254740993",
    "9223372036854775807",
    "(0 - 9223372036854775807 - 1)",
    "(0 - 9223372036854775807)",
    "0.5",
    "-2.25",
    "0.0",
    "-0.0",
    "1e308",
    "'w1'",
    "'0'",
    "NULL",
    "TRUE",
    "FALSE",
];

const IN_MEMBERS: &[&str] = &["0", "1", "2", "0.5", "NULL", "9007199254740993", "'w1'"];

const BINARY: &[&str] = &[
    "+", "-", "*", "/", "%", "=", "<>", "<", "<=", ">", ">=", "AND", "OR",
];

const COLUMNS: &[&str] = &[
    "CellValue",
    "TableId",
    "ColumnId",
    "RowId",
    "SuperKey",
    "Quadrant",
];

/// A random expression of at most `depth` levels over `cols` (each column
/// name with its qualifier, if any), fully parenthesized.
fn expr(rng: &mut Rng, cols: &[String], depth: u32) -> String {
    if depth == 0 || rng.below(4) == 0 {
        return match rng.below(5) {
            0 | 1 => rng.pick(LITERALS).to_string(),
            _ => cols[rng.below(cols.len() as u64) as usize].clone(),
        };
    }
    let mut sub = || expr(rng, cols, depth - 1);
    let e = sub();
    match rng.below(14) {
        0 => format!("(- {e})"),
        1 => format!("(NOT {e})"),
        2 => format!("ABS({e})"),
        3 => format!("({e})::int"),
        4 => format!("({e} IS NULL)"),
        5 => format!("({e} IS NOT NULL)"),
        6 | 7 => {
            let members: Vec<&str> = (0..1 + rng.below(3))
                .map(|_| rng.pick(IN_MEMBERS))
                .collect();
            let not = if rng.below(2) == 0 { "" } else { "NOT " };
            format!("({e} {not}IN ({}))", members.join(", "))
        }
        _ => {
            let op = rng.pick(BINARY);
            let r = expr(rng, cols, depth - 1);
            format!("({e} {op} {r})")
        }
    }
}

/// The queries placing one tree over a scan (`e`) and one over a
/// self-join's two sides (`j`) in every position.
fn queries(e: &str, j: &str) -> Vec<String> {
    let join = "FROM AllTables a INNER JOIN AllTables b \
                ON a.TableId = b.TableId AND a.RowId = b.RowId";
    let aggs = |x: &str| {
        format!(
            "SUM({x}) AS s, MIN({x}) AS lo, MAX({x}) AS hi, AVG({x}) AS m, COUNT({x}) AS c, \
             COUNT(*) AS n"
        )
    };
    vec![
        format!("SELECT RowId, {e} AS x FROM AllTables"),
        format!("SELECT TableId, ColumnId, RowId FROM AllTables WHERE {e}"),
        format!("SELECT a.ColumnId, b.ColumnId, {j} AS x {join} AND {j}"),
        format!("SELECT a.ColumnId, b.ColumnId {join} WHERE {j}"),
        format!("SELECT {e} AS k, COUNT(*) AS n FROM AllTables GROUP BY {e}"),
        format!(
            "SELECT TableId, {} FROM AllTables GROUP BY TableId",
            aggs(e)
        ),
        format!(
            "SELECT a.TableId, b.ColumnId, {} {join} GROUP BY a.TableId, b.ColumnId",
            aggs(j)
        ),
    ]
}

/// Labels and rows, byte for byte (`SqlValue: PartialEq` equates `1` with
/// `1.0`; the debug rendering does not).
fn bytes_of(rs: &ResultSet) -> String {
    format!("{:?} {:?}", rs.columns, rs.rows)
}

/// Run every tree — one over a scan, one over a self-join — in every
/// position of [`queries`] on both stores, and hold each result to the
/// reference's bytes.
fn check(rows: &[FactRow], trees: &[(String, String)]) {
    let _scope = ForceScope;
    for kind in [EngineKind::Row, EngineKind::Column] {
        let table = build_engine(kind, rows.to_vec());
        let reference = SqlEngine::with_alltables(table.clone());
        let engine = SqlEngine::with_alltables(table.clone())
            .with_parallel(Arc::new(ParallelCtx::with_tuning(1, 5)));
        for (e, j) in trees {
            for sql in queries(e, j) {
                let want = match reference.execute_reference(&sql) {
                    Ok((rs, _)) => bytes_of(&rs),
                    Err(err) => panic!("{kind:?}: the reference rejects {sql}: {err}"),
                };
                for simd in [false, true] {
                    blend_simd::force(Some(simd));
                    let (got, report) = engine.execute_with_report(&sql).unwrap();
                    assert_eq!(report.path, "positional");
                    assert_eq!(bytes_of(&got), want, "{kind:?}, SIMD {simd}: {sql}");
                }
            }
        }
    }
}

/// The lake's six columns, bare and as `a.` / `b.` of the self-join.
fn columns() -> (Vec<String>, Vec<String>) {
    let single = COLUMNS.iter().map(|c| c.to_string()).collect();
    let joined = (["a.", "b."].iter())
        .flat_map(|q| COLUMNS.iter().map(move |c| format!("{q}{c}")))
        .collect();
    (single, joined)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn batch_evaluator_matches_the_reference_in_every_position(seed in any::<u64>()) {
        let mut rng = Rng(seed | 1);
        let rows = lake(&mut rng);
        let (single, joined) = columns();
        let trees: Vec<(String, String)> = (0..4)
            .map(|_| (expr(&mut rng, &single, 4), expr(&mut rng, &joined, 4)))
            .collect();
        check(&rows, &trees);
    }
}

/// Edges a random tree seldom reaches: signed zeros and NaN under `=` and
/// the orderings, integers past 2^53 compared through `f64`, wrapping at
/// `i64::MIN`, division and remainder by zero, NULL quadrants in logic and
/// text comparisons. `$` stands for the qualifier (`b.` in the join).
#[test]
fn edge_expressions_match_the_reference_in_every_position() {
    const EDGES: &[&str] = &[
        "((- 0.0) < 0.0)",
        "((- 0.0) = 0.0)",
        "(((1e308 * 10) - (1e308 * 10)) >= 0)",
        "((1e308 * 10) - (1e308 * 10))",
        "(9007199254740993 = 9007199254740992)",
        "((0 - 9223372036854775807 - 1) % -1)",
        "((0 - 9223372036854775807 - 1) * -1)",
        "($RowId / 0)",
        "($RowId % 0)",
        "($Quadrant / $RowId)",
        "((($Quadrant = 1) AND ($CellValue IN ('w1'))) OR ($Quadrant = 0))::int",
        "(NOT $Quadrant)",
        "($TableId IN (1, NULL))",
        "($CellValue < 'w1')",
        "($CellValue = '0')",
        "($SuperKey = $SuperKey)",
    ];
    let rows = lake(&mut Rng(7));
    let trees: Vec<(String, String)> = (EDGES.iter())
        .map(|e| (e.replace('$', ""), e.replace('$', "b.")))
        .collect();
    check(&rows, &trees);
}
