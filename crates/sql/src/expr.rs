//! Compilation of AST expressions against a schema, and evaluation over
//! tuples.
//!
//! Column references are resolved to tuple offsets at plan time so the
//! per-row evaluator never touches names. `IN`-lists of constants are
//! pre-materialized into hash sets once.

use std::sync::Arc;

use blend_common::{BlendError, FxHashSet, Result};

use crate::ast::{BinOp, Expr, UnaryOp};
use crate::value::SqlValue;

/// A named output column of an operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColInfo {
    /// Table alias the column came from (if any).
    pub qualifier: Option<String>,
    /// Column name (lowercase).
    pub name: String,
}

impl ColInfo {
    /// Unqualified column.
    pub fn bare(name: &str) -> Self {
        ColInfo {
            qualifier: None,
            name: name.to_string(),
        }
    }

    /// Qualified column.
    pub fn qualified(qualifier: &str, name: &str) -> Self {
        ColInfo {
            qualifier: Some(qualifier.to_string()),
            name: name.to_string(),
        }
    }
}

/// Operator output schema.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    pub cols: Vec<ColInfo>,
}

impl Schema {
    /// Build from column infos.
    pub fn new(cols: Vec<ColInfo>) -> Self {
        Schema { cols }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Resolve a (possibly qualified) name to a tuple offset.
    ///
    /// Bare names must be unambiguous; qualified names must match both the
    /// alias and the column name.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        let mut found: Option<usize> = None;
        for (i, c) in self.cols.iter().enumerate() {
            let name_ok = c.name == name;
            let qual_ok = match qualifier {
                None => true,
                Some(q) => c.qualifier.as_deref() == Some(q),
            };
            if name_ok && qual_ok {
                if found.is_some() {
                    return Err(BlendError::SqlPlan(format!(
                        "ambiguous column reference `{}`",
                        display_name(qualifier, name)
                    )));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| {
            BlendError::SqlPlan(format!(
                "unknown column `{}` (schema: {})",
                display_name(qualifier, name),
                self.cols
                    .iter()
                    .map(|c| display_name(c.qualifier.as_deref(), &c.name))
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })
    }

    /// Concatenate two schemas (join output).
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut cols = self.cols.clone();
        cols.extend(other.cols.iter().cloned());
        Schema { cols }
    }
}

fn display_name(qualifier: Option<&str>, name: &str) -> String {
    match qualifier {
        Some(q) => format!("{q}.{name}"),
        None => name.to_string(),
    }
}

/// A compiled, schema-resolved expression.
#[derive(Debug, Clone)]
pub enum CExpr {
    Col(usize),
    Const(SqlValue),
    Unary(UnaryOp, Box<CExpr>),
    Binary(Box<CExpr>, BinOp, Box<CExpr>),
    /// Membership in a pre-materialized constant set.
    InSet(Box<CExpr>, Arc<FxHashSet<SqlValue>>, bool),
    IsNull(Box<CExpr>, bool),
    CastInt(Box<CExpr>),
    Abs(Box<CExpr>),
}

/// Compile an AST expression against a schema. Aggregate calls are
/// rejected — the planner substitutes them with column references before
/// calling this.
pub fn compile(expr: &Expr, schema: &Schema) -> Result<CExpr> {
    let compile = |e: &Expr| compile(e, schema);
    Ok(match expr {
        Expr::Column { qualifier, name } => CExpr::Col(schema.resolve(qualifier.as_deref(), name)?),
        Expr::Int(i) => CExpr::Const(SqlValue::Int(*i)),
        Expr::Float(f) => CExpr::Const(SqlValue::Float(*f)),
        Expr::Str(s) => CExpr::Const(SqlValue::Text(Arc::from(s.as_str()))),
        Expr::Bool(b) => CExpr::Const(SqlValue::Bool(*b)),
        Expr::Null => CExpr::Const(SqlValue::Null),
        Expr::Star => {
            return Err(BlendError::SqlPlan(
                "`*` is only valid in COUNT(*) or as a select item".into(),
            ))
        }
        Expr::Unary { op, expr } => CExpr::Unary(*op, Box::new(compile(expr)?)),
        Expr::Binary { left, op, right } => {
            CExpr::Binary(Box::new(compile(left)?), *op, Box::new(compile(right)?))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            // Constant lists become hash sets; non-constant members are not
            // produced by any BLEND operator and are rejected for clarity.
            let mut set = FxHashSet::default();
            for item in list {
                match compile(item)? {
                    CExpr::Const(v) => {
                        set.insert(v);
                    }
                    _ => {
                        return Err(BlendError::SqlPlan(
                            "IN lists must contain constants".into(),
                        ))
                    }
                }
            }
            CExpr::InSet(Box::new(compile(expr)?), Arc::new(set), *negated)
        }
        Expr::IsNull { expr, negated } => CExpr::IsNull(Box::new(compile(expr)?), *negated),
        Expr::Agg { .. } => {
            return Err(BlendError::SqlPlan(
                "aggregate call outside GROUP BY context".into(),
            ))
        }
        Expr::Abs(e) => CExpr::Abs(Box::new(compile(e)?)),
        Expr::CastInt(e) => CExpr::CastInt(Box::new(compile(e)?)),
    })
}

impl CExpr {
    /// Evaluate over a tuple.
    pub fn eval(&self, tuple: &[SqlValue]) -> SqlValue {
        match self {
            CExpr::Col(i) => tuple[*i].clone(),
            CExpr::Const(v) => v.clone(),
            CExpr::Unary(op, e) => eval_unary_value(*op, e.eval(tuple)),
            CExpr::Binary(l, op, r) => eval_binary(l, *op, r, tuple),
            CExpr::InSet(e, set, negated) => {
                let v = e.eval(tuple);
                if v.is_null() {
                    return SqlValue::Null;
                }
                let contained = set.contains(&v);
                SqlValue::Bool(contained != *negated)
            }
            CExpr::IsNull(e, negated) => {
                let isnull = e.eval(tuple).is_null();
                SqlValue::Bool(isnull != *negated)
            }
            CExpr::CastInt(e) => eval_cast_int_value(e.eval(tuple)),
            CExpr::Abs(e) => eval_abs_value(e.eval(tuple)),
        }
    }

    /// Evaluate as a WHERE predicate (NULL ⇒ false).
    #[inline]
    pub fn eval_predicate(&self, tuple: &[SqlValue]) -> bool {
        self.eval(tuple).truthy()
    }
}

fn eval_binary(l: &CExpr, op: BinOp, r: &CExpr, tuple: &[SqlValue]) -> SqlValue {
    match op {
        BinOp::And => {
            // Three-valued AND with short circuit on FALSE.
            let lv = l.eval(tuple);
            if matches!(lv, SqlValue::Bool(false)) {
                return SqlValue::Bool(false);
            }
            combine_and(lv, r.eval(tuple))
        }
        BinOp::Or => {
            let lv = l.eval(tuple);
            if matches!(lv, SqlValue::Bool(true)) {
                return SqlValue::Bool(true);
            }
            combine_or(lv, r.eval(tuple))
        }
        _ => eval_cmp_arith(op, l.eval(tuple), r.eval(tuple)),
    }
}

// The value-level operator semantics below are the tuple evaluator's. The
// positional executor's batch evaluator (`crate::pexpr`) restates each as a
// typed kernel and calls them for the type mixes no kernel covers;
// `tests/expr_parity.rs` holds the two to the same bytes.

/// Three-valued AND over both evaluated operands (callers short-circuit on
/// a FALSE left side before evaluating the right).
pub(crate) fn combine_and(lv: SqlValue, rv: SqlValue) -> SqlValue {
    match (lv, rv) {
        (_, SqlValue::Bool(false)) => SqlValue::Bool(false),
        (SqlValue::Bool(true), SqlValue::Bool(true)) => SqlValue::Bool(true),
        _ => SqlValue::Null,
    }
}

/// Three-valued OR over both evaluated operands (callers short-circuit on
/// a TRUE left side before evaluating the right).
pub(crate) fn combine_or(lv: SqlValue, rv: SqlValue) -> SqlValue {
    match (lv, rv) {
        (_, SqlValue::Bool(true)) => SqlValue::Bool(true),
        (SqlValue::Bool(false), SqlValue::Bool(false)) => SqlValue::Bool(false),
        _ => SqlValue::Null,
    }
}

/// Unary operator on an evaluated operand.
pub(crate) fn eval_unary_value(op: UnaryOp, v: SqlValue) -> SqlValue {
    match op {
        UnaryOp::Neg => match v {
            SqlValue::Int(i) => SqlValue::Int(i.wrapping_neg()),
            SqlValue::Float(f) => SqlValue::Float(-f),
            _ => SqlValue::Null,
        },
        UnaryOp::Not => match v {
            SqlValue::Bool(b) => SqlValue::Bool(!b),
            _ => SqlValue::Null,
        },
    }
}

/// `::int` cast on an evaluated operand.
pub(crate) fn eval_cast_int_value(v: SqlValue) -> SqlValue {
    match v {
        SqlValue::Null => SqlValue::Null,
        SqlValue::Bool(b) => SqlValue::Int(b as i64),
        SqlValue::Int(i) => SqlValue::Int(i),
        SqlValue::Float(f) => SqlValue::Int(f as i64),
        SqlValue::Text(s) => s
            .trim()
            .parse::<i64>()
            .map(SqlValue::Int)
            .unwrap_or(SqlValue::Null),
        SqlValue::U128(_) => SqlValue::Null,
    }
}

/// `ABS` on an evaluated operand.
pub(crate) fn eval_abs_value(v: SqlValue) -> SqlValue {
    match v {
        SqlValue::Int(i) => SqlValue::Int(i.wrapping_abs()),
        SqlValue::Float(f) => SqlValue::Float(f.abs()),
        _ => SqlValue::Null,
    }
}

/// Apply a non-logical binary operator to already-evaluated operands.
pub(crate) fn eval_cmp_arith(op: BinOp, lv: SqlValue, rv: SqlValue) -> SqlValue {
    match op {
        BinOp::And | BinOp::Or => {
            unreachable!("logical ops are short-circuited by the caller")
        }
        BinOp::Eq | BinOp::Neq => match lv.sql_eq(&rv) {
            SqlValue::Bool(b) => SqlValue::Bool(if op == BinOp::Eq { b } else { !b }),
            _ => SqlValue::Null,
        },
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => match lv.sql_cmp(&rv) {
            None => SqlValue::Null,
            Some(ord) => SqlValue::Bool(match op {
                BinOp::Lt => ord.is_lt(),
                BinOp::Le => ord.is_le(),
                BinOp::Gt => ord.is_gt(),
                BinOp::Ge => ord.is_ge(),
                _ => unreachable!(),
            }),
        },
        BinOp::Add | BinOp::Sub | BinOp::Mul => {
            if lv.is_null() || rv.is_null() {
                return SqlValue::Null;
            }
            match (&lv, &rv) {
                (SqlValue::Int(a), SqlValue::Int(b)) => SqlValue::Int(match op {
                    BinOp::Add => a.wrapping_add(*b),
                    BinOp::Sub => a.wrapping_sub(*b),
                    _ => a.wrapping_mul(*b),
                }),
                _ => match (lv.as_f64(), rv.as_f64()) {
                    (Some(a), Some(b)) => SqlValue::Float(match op {
                        BinOp::Add => a + b,
                        BinOp::Sub => a - b,
                        _ => a * b,
                    }),
                    _ => SqlValue::Null,
                },
            }
        }
        BinOp::Div => {
            // Division always yields a float: Listing 3 relies on
            // `(2*SUM(..)-COUNT(*))/COUNT(*)` being fractional.
            match (lv.as_f64(), rv.as_f64()) {
                (Some(a), Some(b)) if b != 0.0 => SqlValue::Float(a / b),
                _ => SqlValue::Null,
            }
        }
        BinOp::Mod => match (lv.as_i64(), rv.as_i64()) {
            (Some(a), Some(b)) if b != 0 => SqlValue::Int(a.wrapping_rem_euclid(b)),
            _ => SqlValue::Null,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn schema() -> Schema {
        Schema::new(vec![
            ColInfo::bare("a"),
            ColInfo::bare("b"),
            ColInfo::qualified("t", "c"),
        ])
    }

    fn compile_where(sql_where: &str, schema: &Schema) -> CExpr {
        let q = parse(&format!("SELECT * FROM x WHERE {sql_where}")).unwrap();
        compile(&q.where_clause.unwrap(), schema).unwrap()
    }

    #[test]
    fn resolve_qualified_and_bare() {
        let s = schema();
        assert_eq!(s.resolve(None, "a").unwrap(), 0);
        assert_eq!(s.resolve(Some("t"), "c").unwrap(), 2);
        assert!(s.resolve(None, "zzz").is_err());
        assert!(s.resolve(Some("x"), "a").is_err());
    }

    #[test]
    fn ambiguity_detected() {
        let s = Schema::new(vec![
            ColInfo::qualified("l", "tableid"),
            ColInfo::qualified("r", "tableid"),
        ]);
        assert!(s.resolve(None, "tableid").is_err());
        assert_eq!(s.resolve(Some("r"), "tableid").unwrap(), 1);
    }

    #[test]
    fn arithmetic_and_comparison() {
        let s = schema();
        let e = compile_where("a + 2 * b >= 7", &s);
        let t = vec![SqlValue::Int(1), SqlValue::Int(3), SqlValue::Null];
        assert!(e.eval_predicate(&t));
        let t = vec![SqlValue::Int(0), SqlValue::Int(3), SqlValue::Null];
        assert!(!e.eval_predicate(&t));
    }

    #[test]
    fn division_is_float() {
        let s = schema();
        let e = compile_where("a / b = 2.5", &s);
        let t = vec![SqlValue::Int(5), SqlValue::Int(2), SqlValue::Null];
        assert!(e.eval_predicate(&t));
    }

    #[test]
    fn div_and_mod_by_zero_is_null() {
        let s = schema();
        let e = compile_where("a / b IS NULL AND a % b IS NULL", &s);
        let t = vec![SqlValue::Int(5), SqlValue::Int(0), SqlValue::Null];
        assert!(e.eval_predicate(&t));
    }

    #[test]
    fn three_valued_logic() {
        let s = schema();
        // NULL AND FALSE = FALSE, NULL AND TRUE = NULL (falsy), NULL OR TRUE = TRUE.
        let t = vec![SqlValue::Null, SqlValue::Int(1), SqlValue::Null];
        assert!(!compile_where("a = 1 AND b = 2", &s).eval_predicate(&t));
        assert!(compile_where("a = 1 OR b = 1", &s).eval_predicate(&t));
        assert!(!compile_where("a = 1", &s).eval_predicate(&t));
        assert!(!compile_where("NOT (a = 1)", &s).eval_predicate(&t));
    }

    #[test]
    fn in_set_semantics() {
        let s = schema();
        let e = compile_where("a IN (1, 2, 3)", &s);
        assert!(e.eval_predicate(&[SqlValue::Int(2), SqlValue::Null, SqlValue::Null]));
        assert!(!e.eval_predicate(&[SqlValue::Int(9), SqlValue::Null, SqlValue::Null]));
        // NULL IN (...) is NULL -> falsy.
        assert!(!e.eval_predicate(&[SqlValue::Null, SqlValue::Null, SqlValue::Null]));
        let ne = compile_where("a NOT IN (1, 2)", &s);
        assert!(ne.eval_predicate(&[SqlValue::Int(9), SqlValue::Null, SqlValue::Null]));
        assert!(!ne.eval_predicate(&[SqlValue::Int(1), SqlValue::Null, SqlValue::Null]));
    }

    #[test]
    fn empty_in_list_matches_nothing() {
        let s = schema();
        let e = compile_where("a IN ()", &s);
        assert!(!e.eval_predicate(&[SqlValue::Int(1), SqlValue::Null, SqlValue::Null]));
        let ne = compile_where("a NOT IN ()", &s);
        assert!(ne.eval_predicate(&[SqlValue::Int(1), SqlValue::Null, SqlValue::Null]));
    }

    #[test]
    fn cast_int_of_bool_expr() {
        let s = schema();
        let q = parse("SELECT (a = 1)::int FROM x").unwrap();
        let item = match &q.select[0] {
            crate::ast::SelectItem::Expr { expr, .. } => expr.clone(),
            _ => panic!(),
        };
        let e = compile(&item, &s).unwrap();
        assert_eq!(
            e.eval(&[SqlValue::Int(1), SqlValue::Null, SqlValue::Null]),
            SqlValue::Int(1)
        );
        assert_eq!(
            e.eval(&[SqlValue::Int(2), SqlValue::Null, SqlValue::Null]),
            SqlValue::Int(0)
        );
    }

    #[test]
    fn abs_and_neg() {
        let s = schema();
        let q = parse("SELECT ABS(-a) FROM x").unwrap();
        let item = match &q.select[0] {
            crate::ast::SelectItem::Expr { expr, .. } => expr.clone(),
            _ => panic!(),
        };
        let e = compile(&item, &s).unwrap();
        assert_eq!(
            e.eval(&[SqlValue::Int(-5), SqlValue::Null, SqlValue::Null]),
            SqlValue::Int(5)
        );
    }

    #[test]
    fn aggregates_rejected_outside_group_context() {
        let s = schema();
        let q = parse("SELECT COUNT(*) FROM x").unwrap();
        let item = match &q.select[0] {
            crate::ast::SelectItem::Expr { expr, .. } => expr.clone(),
            _ => panic!(),
        };
        assert!(compile(&item, &s).is_err());
    }

    #[test]
    fn is_null_on_quadrant_style_column() {
        let s = schema();
        let e = compile_where("t.c IS NOT NULL", &s);
        assert!(e.eval_predicate(&[SqlValue::Null, SqlValue::Null, SqlValue::Int(1)]));
        assert!(!e.eval_predicate(&[SqlValue::Null, SqlValue::Null, SqlValue::Null]));
    }
}
