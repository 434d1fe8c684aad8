//! Canonical query fingerprints: the key under which the serving tier
//! coalesces in-flight duplicates and memoizes results.
//!
//! BLEND's seekers compile to a handful of SQL templates, so a serving
//! workload is dominated by queries that differ only in spelling:
//! whitespace, identifier case, the order of `IN`-list literals, the order
//! of `AND`ed predicates, `1.0` vs `1`, or the rewriter's empty-postings
//! rendering (`TableId IN ()` vs the literal `1 = 0` it emits instead).
//! [`fingerprint_sql`] parses a query and normalizes the AST into a
//! canonical encoding such that **fingerprint-equal queries produce
//! byte-identical results** — the contract the result cache and coalescer
//! depend on, pinned by the `fingerprint_parity` proptest suite.
//!
//! Normalizations applied (each is justified against engine semantics):
//!
//! * **Case/whitespace/comments** — free: the lexer skips comments and the
//!   parser lowercases identifiers and keywords.
//! * **Constant folding** — literal-only subtrees with no arithmetic are
//!   evaluated through the engine's own [`CExpr`](crate::expr::CExpr)
//!   evaluator, so `1 = 0`, `NOT (1 = 1)`, and `'a' IN ('b','a')` all
//!   canonicalize to their value. Using the real evaluator (not a
//!   re-implementation) means folds cannot drift from execution semantics.
//! * **Float literals** — `-0.0` ≡ `0.0`, and integral floats fold to
//!   integers (`1.0` ≡ `1`): [`SqlValue`] compares and hashes these equal,
//!   and the planner classifies integral-float id literals exactly like
//!   their integer spellings.
//! * **`IN`-list order and duplicates** — elements sort and dedup. Sound
//!   because membership sets are order-free *and* the planner visits
//!   driving postings in sorted-deduped order (see `plan_scan`), so row
//!   order cannot depend on list spelling.
//! * **`AND`/`OR` chains** — flattened, operands sorted and deduped,
//!   identities dropped (`x AND TRUE` ≡ `x`, `x OR FALSE` ≡ `x`) and
//!   annihilators folded (`x AND FALSE` ≡ `FALSE`, `x OR TRUE` ≡ `TRUE`),
//!   all valid in the engine's three-valued logic. A `WHERE` that folds to
//!   `TRUE` canonicalizes as absent.
//! * **Empty `IN` ≡ `1 = 0`** — the rewriter renders an empty injected
//!   postings list as `AND 1 = 0`; both spellings canonicalize to `FALSE`.
//!   Restricted to never-null id columns (`TableId`/`ColumnId`/`RowId`) in
//!   queries over named base tables, because `x IN ()` evaluates to `NULL`
//!   (not `FALSE`) for a `NULL` `x`, which differs under `NOT`.
//!
//! Deliberately **not** normalized: select-item order and aliases (they
//!   name output columns), join order, `GROUP BY` key order, `ORDER BY`
//!   keys, and comparison operand order (`TableId = 1` vs `1 = TableId`
//!   classify differently in the planner and could drive different scan
//!   orders). The fingerprint is conservative: a missed equivalence only
//!   costs a cache miss, while a false equivalence serves wrong bytes.
//!
//! The canonical text itself rides in the [`QueryFingerprint`] alongside
//! its [`blend_common::hash`] digest: cache keys compare the full text, so
//! a 64-bit hash collision can cost sharding quality but never correctness.

use std::sync::Arc;

use blend_common::hash::hash_str;
use blend_common::Result;

use crate::ast::{AggFunc, BinOp, Expr, Query, SelectItem, TableSource, UnaryOp};
use crate::expr::{compile, Schema};
use crate::parser::parse;
use crate::value::SqlValue;

/// A stable identity for all spellings of one query. Equality compares
/// the full canonical text — the hash is a routing/sharding accelerator,
/// never the authority.
#[derive(Debug, Clone)]
pub struct QueryFingerprint {
    hash: u64,
    canon: Arc<str>,
}

impl QueryFingerprint {
    /// 64-bit digest of the canonical text (shard selection, quick reject).
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The canonical encoding (the authoritative identity).
    pub fn canon(&self) -> &str {
        &self.canon
    }
}

impl PartialEq for QueryFingerprint {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.canon == other.canon
    }
}

impl Eq for QueryFingerprint {}

impl std::hash::Hash for QueryFingerprint {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Parse `sql` and fingerprint it. Fails only when the query does not
/// parse — callers treat that as "not coalescable" and let execution
/// surface the real error.
pub fn fingerprint_sql(sql: &str) -> Result<QueryFingerprint> {
    parse(sql).map(|q| fingerprint_query(&q))
}

/// Fingerprint an already-parsed query.
pub fn fingerprint_query(q: &Query) -> QueryFingerprint {
    let canon = canon_query(q);
    QueryFingerprint {
        hash: hash_str(&canon),
        canon: Arc::from(canon.as_str()),
    }
}

/// Canonical markers for folded boolean constants.
const TRUE: &str = "b:true";
const FALSE: &str = "b:false";
const NULL: &str = "null";

fn canon_query(q: &Query) -> String {
    // The empty-IN ⇄ FALSE fold is only sound when id columns certainly
    // come from a base fact table (a subquery could alias a nullable
    // expression AS tableid). One flag for the whole tree keeps the rule
    // simple and conservative.
    let fold_empty_in = !query_has_subquery(q);
    let mut out = String::with_capacity(128);
    canon_query_into(q, fold_empty_in, &mut out);
    out
}

fn query_has_subquery(q: &Query) -> bool {
    let is_sub = |s: &TableSource| matches!(s, TableSource::Subquery(_));
    is_sub(&q.from.source) || q.joins.iter().any(|j| is_sub(&j.item.source))
}

fn canon_query_into(q: &Query, fold: bool, out: &mut String) {
    out.push_str("sel[");
    for (i, item) in q.select.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match item {
            SelectItem::Wildcard => out.push('*'),
            SelectItem::Expr { expr, alias } => {
                out.push_str(&canon_expr(expr, fold));
                if let Some(a) = alias {
                    out.push_str(" as ");
                    out.push_str(a);
                }
            }
        }
    }
    out.push_str("]from[");
    canon_from(&q.from.source, q.from.alias.as_deref(), fold, out);
    out.push_str("]join[");
    for (i, j) in q.joins.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        canon_from(&j.item.source, j.item.alias.as_deref(), fold, out);
        out.push_str(" on ");
        out.push_str(&canon_expr(&j.on, fold));
    }
    out.push_str("]where[");
    if let Some(w) = &q.where_clause {
        let c = canon_expr(w, fold);
        // `WHERE TRUE` keeps every row exactly like no WHERE at all.
        if c != TRUE {
            out.push_str(&c);
        }
    }
    out.push_str("]group[");
    for (i, g) in q.group_by.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&canon_expr(g, fold));
    }
    out.push_str("]order[");
    for (i, o) in q.order_by.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&canon_expr(&o.expr, fold));
        out.push_str(if o.desc { " desc" } else { " asc" });
    }
    out.push_str("]limit[");
    if let Some(n) = q.limit {
        out.push_str(&n.to_string());
    }
    out.push(']');
}

fn canon_from(src: &TableSource, alias: Option<&str>, fold: bool, out: &mut String) {
    match src {
        TableSource::Named(name) => {
            out.push_str("n:");
            out.push_str(name);
        }
        TableSource::Subquery(sub) => {
            out.push('(');
            canon_query_into(sub, fold, out);
            out.push(')');
        }
    }
    if let Some(a) = alias {
        out.push(' ');
        out.push_str(a);
    }
}

/// Canonical value encoding. `Float` literals normalize `-0.0` to `0.0`
/// and fold integral values to `Int` — [`SqlValue`]'s `PartialEq`/`Hash`
/// already treat those pairs as equal, so execution cannot tell the
/// spellings apart.
fn canon_value(v: &SqlValue) -> String {
    match v {
        SqlValue::Null => NULL.to_string(),
        SqlValue::Bool(b) => format!("b:{b}"),
        SqlValue::Int(i) => format!("i:{i}"),
        SqlValue::Float(f) => {
            let f = if *f == 0.0 { 0.0 } else { *f };
            const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
            if f.fract() == 0.0 && f.abs() < MAX_EXACT {
                format!("i:{}", f as i64)
            } else {
                // Bit pattern: total, and distinguishes every non-equal
                // float (NaN literals are unreachable from SQL text).
                format!("f:{:016x}", f.to_bits())
            }
        }
        // Length prefix keeps arbitrary payload bytes unambiguous inside
        // the canonical encoding.
        SqlValue::Text(s) => format!("s:{}:{s}", s.len()),
        SqlValue::U128(u) => format!("u:{u}"),
    }
}

/// A bare literal's value, without going through the compiler. This is
/// the hot case — seeker `IN` lists are hundreds of plain literals — and
/// skipping `compile` for it keeps fingerprinting cheap enough to sit on
/// the serving tier's submission path.
fn literal_value(e: &Expr) -> Option<SqlValue> {
    match e {
        Expr::Int(i) => Some(SqlValue::Int(*i)),
        Expr::Float(f) => Some(SqlValue::Float(*f)),
        Expr::Str(s) => Some(SqlValue::Text(Arc::from(s.as_str()))),
        Expr::Bool(b) => Some(SqlValue::Bool(*b)),
        Expr::Null => Some(SqlValue::Null),
        _ => None,
    }
}

/// Fold a literal-only subtree to its value by compiling it against an
/// empty schema and evaluating with the engine's own evaluator — fold
/// semantics cannot drift from execution semantics that way. `fold_safe`
/// prunes subtrees that certainly cannot fold (any column reference,
/// aggregate, or `*`) so the compile attempt is only paid where it can
/// succeed. Arithmetic is excluded wholesale: `1/0` and overflow must
/// surface at execution, not panic at fingerprint time, and no
/// equivalence the cache needs depends on folding arithmetic.
fn try_fold(e: &Expr) -> Option<SqlValue> {
    if let Some(v) = literal_value(e) {
        return Some(v);
    }
    if !fold_safe(e) {
        return None;
    }
    let compiled = compile(e, &Schema::default()).ok()?;
    Some(compiled.eval(&[]))
}

pub(crate) fn fold_safe(e: &Expr) -> bool {
    let here = match e {
        Expr::Binary { op, .. } => !matches!(
            op,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod
        ),
        Expr::Agg { .. } | Expr::Star | Expr::Abs(_) | Expr::CastInt(_) => false,
        // A column can never compile against the empty schema; saying so
        // here spares every enclosing subtree a doomed compile attempt.
        Expr::Column { .. } => false,
        _ => true,
    };
    here && e.children().all(fold_safe)
}

/// Columns that can never hold NULL in a base fact table: the storage
/// position ids. Gates the empty-IN fold (see module docs).
fn is_never_null_id_col(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Column { name, .. } if matches!(name.as_str(), "tableid" | "columnid" | "rowid")
    )
}

fn canon_expr(e: &Expr, fold: bool) -> String {
    if let Some(v) = try_fold(e) {
        return canon_value(&v);
    }
    match e {
        Expr::Column { qualifier, name } => match qualifier {
            Some(q) => format!("c:{q}.{name}"),
            None => format!("c:{name}"),
        },
        // Literal arms are normally handled by the fold above; kept for
        // totality.
        Expr::Int(i) => canon_value(&SqlValue::Int(*i)),
        Expr::Float(f) => canon_value(&SqlValue::Float(*f)),
        Expr::Str(s) => canon_value(&SqlValue::Text(Arc::from(s.as_str()))),
        Expr::Bool(b) => canon_value(&SqlValue::Bool(*b)),
        Expr::Null => NULL.to_string(),
        Expr::Star => "*".to_string(),
        Expr::Unary { op, expr } => {
            let inner = canon_expr(expr, fold);
            match op {
                UnaryOp::Neg => format!("neg({inner})"),
                UnaryOp::Not => match inner.as_str() {
                    // Three-valued NOT over an operand that normalized to
                    // a constant.
                    TRUE => FALSE.to_string(),
                    FALSE => TRUE.to_string(),
                    NULL => NULL.to_string(),
                    _ => format!("not({inner})"),
                },
            }
        }
        Expr::Binary { op, .. } if matches!(op, BinOp::And | BinOp::Or) => {
            canon_logic(e, *op, fold)
        }
        Expr::Binary { left, op, right } => {
            let l = canon_expr(left, fold);
            let r = canon_expr(right, fold);
            format!("{}({l},{r})", op_tag(*op))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let lhs = canon_expr(expr, fold);
            let mut items: Vec<String> = list.iter().map(|i| canon_expr(i, fold)).collect();
            items.sort_unstable();
            items.dedup();
            if items.is_empty() && fold && is_never_null_id_col(expr) {
                // `id IN ()` matches nothing, `id NOT IN ()` matches
                // everything — exactly FALSE/TRUE for a non-null lhs.
                // This is what unifies the rewriter's `AND 1 = 0`
                // empty-postings rendering with `TableId IN ()`.
                return if *negated { TRUE } else { FALSE }.to_string();
            }
            format!(
                "{}({lhs};{})",
                if *negated { "nin" } else { "in" },
                items.join(",")
            )
        }
        Expr::IsNull { expr, negated } => {
            let inner = canon_expr(expr, fold);
            format!("{}({inner})", if *negated { "notnull" } else { "isnull" })
        }
        Expr::Agg {
            func,
            distinct,
            arg,
        } => {
            let name = match func {
                AggFunc::Count => "count",
                AggFunc::Sum => "sum",
                AggFunc::Min => "min",
                AggFunc::Max => "max",
                AggFunc::Avg => "avg",
            };
            let inner = match arg {
                None => "*".to_string(),
                Some(a) => canon_expr(a, fold),
            };
            format!(
                "{name}({}{inner})",
                if *distinct { "distinct " } else { "" }
            )
        }
        Expr::Abs(inner) => format!("abs({})", canon_expr(inner, fold)),
        Expr::CastInt(inner) => format!("castint({})", canon_expr(inner, fold)),
    }
}

fn op_tag(op: BinOp) -> &'static str {
    match op {
        BinOp::Or => "or",
        BinOp::And => "and",
        BinOp::Eq => "eq",
        BinOp::Neq => "neq",
        BinOp::Lt => "lt",
        BinOp::Le => "le",
        BinOp::Gt => "gt",
        BinOp::Ge => "ge",
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
        BinOp::Div => "div",
        BinOp::Mod => "mod",
    }
}

/// Canonicalize an `AND`/`OR` chain: flatten, normalize each operand,
/// apply identity/annihilator folds, then sort + dedup. All steps are
/// sound in three-valued logic (`combine_and`/`combine_or` are
/// commutative, associative, and idempotent, with `TRUE`/`FALSE` as the
/// respective identities and `FALSE`/`TRUE` as annihilators).
fn canon_logic(e: &Expr, op: BinOp, fold: bool) -> String {
    let mut operands = Vec::new();
    flatten_logic(e, op, &mut operands);
    let (identity, annihilator, tag) = match op {
        BinOp::And => (TRUE, FALSE, "and"),
        _ => (FALSE, TRUE, "or"),
    };
    let mut items = Vec::with_capacity(operands.len());
    for o in operands {
        let c = canon_expr(o, fold);
        if c == annihilator {
            return annihilator.to_string();
        }
        if c != identity {
            items.push(c);
        }
    }
    items.sort_unstable();
    items.dedup();
    match items.len() {
        0 => identity.to_string(),
        1 => items.pop().unwrap(),
        _ => format!("{tag}({})", items.join(",")),
    }
}

fn flatten_logic<'a>(e: &'a Expr, op: BinOp, out: &mut Vec<&'a Expr>) {
    if let Expr::Binary { left, op: o, right } = e {
        if *o == op {
            flatten_logic(left, op, out);
            flatten_logic(right, op, out);
            return;
        }
    }
    out.push(e);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(sql: &str) -> QueryFingerprint {
        fingerprint_sql(sql).expect("query parses")
    }

    fn assert_same(a: &str, b: &str) {
        let (fa, fb) = (fp(a), fp(b));
        assert_eq!(fa, fb, "\n  {a}\n  {b}\n  {} != {}", fa.canon(), fb.canon());
        assert_eq!(fa.hash(), fb.hash());
    }

    fn assert_differ(a: &str, b: &str) {
        assert_ne!(fp(a), fp(b), "{a} vs {b} must not collide");
    }

    #[test]
    fn whitespace_case_and_comments_normalize() {
        assert_same(
            "SELECT TableId FROM AllTables WHERE CellValue IN ('a')",
            "select   tableid\nFROM alltables  -- comment\nWHERE cellvalue IN ('a')",
        );
    }

    #[test]
    fn in_list_order_and_duplicates_normalize() {
        assert_same(
            "SELECT TableId FROM AllTables WHERE CellValue IN ('a','b','c')",
            "SELECT TableId FROM AllTables WHERE CellValue IN ('c','a','b','a')",
        );
        assert_differ(
            "SELECT TableId FROM AllTables WHERE CellValue IN ('a','b')",
            "SELECT TableId FROM AllTables WHERE CellValue IN ('a','d')",
        );
    }

    #[test]
    fn conjunct_order_normalizes() {
        assert_same(
            "SELECT * FROM AllTables WHERE CellValue IN ('x') AND TableId IN (1,2) AND RowId < 5",
            "SELECT * FROM AllTables WHERE RowId < 5 AND TableId IN (2,1) AND CellValue IN ('x')",
        );
    }

    #[test]
    fn float_literals_normalize() {
        assert_same(
            "SELECT * FROM AllTables WHERE TableId = 1",
            "SELECT * FROM AllTables WHERE TableId = 1.0",
        );
        assert_same(
            "SELECT * FROM AllTables WHERE RowId < 0.0",
            "SELECT * FROM AllTables WHERE RowId < -0.0",
        );
        assert_differ(
            "SELECT * FROM AllTables WHERE RowId < 1.5",
            "SELECT * FROM AllTables WHERE RowId < 1",
        );
    }

    #[test]
    fn empty_in_matches_rewriter_false_rendering() {
        assert_same(
            "SELECT TableId FROM AllTables WHERE CellValue IN ('a') AND TableId IN ()",
            "SELECT TableId FROM AllTables WHERE CellValue IN ('a') AND 1 = 0",
        );
        // NOT IN () keeps every row, like no conjunct at all.
        assert_same(
            "SELECT TableId FROM AllTables WHERE CellValue IN ('a') AND TableId NOT IN ()",
            "SELECT TableId FROM AllTables WHERE CellValue IN ('a')",
        );
    }

    #[test]
    fn empty_in_on_nullable_lhs_does_not_fold() {
        // CellValue is not in the never-null id set; `cellvalue IN ()` must
        // not unify with FALSE.
        assert_differ(
            "SELECT TableId FROM AllTables WHERE CellValue IN ()",
            "SELECT TableId FROM AllTables WHERE 1 = 0",
        );
        // Inside a subquery-shaped query, even id columns stay unfolded.
        assert_differ(
            "SELECT * FROM (SELECT TableId FROM AllTables) q WHERE TableId IN ()",
            "SELECT * FROM (SELECT TableId FROM AllTables) q WHERE 1 = 0",
        );
    }

    #[test]
    fn tautologies_drop_and_annihilate() {
        assert_same(
            "SELECT TableId FROM AllTables WHERE CellValue IN ('a') AND 1 = 1",
            "SELECT TableId FROM AllTables WHERE CellValue IN ('a')",
        );
        assert_same(
            "SELECT TableId FROM AllTables WHERE 2 > 1",
            "SELECT TableId FROM AllTables",
        );
        assert_same(
            "SELECT TableId FROM AllTables WHERE CellValue IN ('a') OR 1 = 1",
            "SELECT TableId FROM AllTables",
        );
    }

    #[test]
    fn semantic_differences_stay_distinct() {
        assert_differ(
            "SELECT TableId FROM AllTables LIMIT 5",
            "SELECT TableId FROM AllTables LIMIT 6",
        );
        assert_differ(
            "SELECT TableId FROM AllTables ORDER BY TableId",
            "SELECT TableId FROM AllTables ORDER BY TableId DESC",
        );
        assert_differ(
            "SELECT TableId FROM AllTables",
            "SELECT ColumnId FROM AllTables",
        );
        // Comparison operand order is NOT normalized (planner classification
        // is side-sensitive).
        assert_differ(
            "SELECT * FROM AllTables WHERE TableId = 1 AND CellValue IN ('a')",
            "SELECT * FROM AllTables WHERE 1 = TableId AND CellValue IN ('a')",
        );
    }

    #[test]
    fn group_and_join_shapes_fingerprint_stably() {
        let a = "SELECT q1.TableId FROM (SELECT * FROM AllTables WHERE CellValue IN ('a','b')) q1 \
                 INNER JOIN (SELECT * FROM AllTables WHERE CellValue IN ('c')) q2 \
                 ON q1.TableId = q2.TableId AND q1.RowId = q2.RowId";
        let b = "select q1.tableid from (select * from alltables where cellvalue in ('b','a')) q1 \
                 inner join (select * from alltables where cellvalue in ('c')) q2 \
                 on q1.rowid = q2.rowid and q1.tableid = q2.tableid";
        assert_same(a, b);
    }

    #[test]
    fn unparseable_sql_is_an_error() {
        assert!(fingerprint_sql("SELECT FROM WHERE").is_err());
    }
}
