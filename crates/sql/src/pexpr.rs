//! Positional expressions and their batch evaluator.
//!
//! A [`PExpr`] is a [`CExpr`] compiled for the positional executor: a column
//! reference reads a fact column at a leaf's storage position, and a
//! constant `CellValue IN (…)` list becomes the engine's [`ValuePred`].
//!
//! A `PExpr` is evaluated a batch of [`Rows`] at a time ([`PExpr::eval`]). A
//! leaf is one bulk gather through the [`FactTable`] batch accessors over
//! its positions ([`Leaves`]); `CellValue IN` tests the gathered dictionary
//! codes. Every operator is a tight loop over typed vectors ([`Col`]):
//! integers and floats with validity, booleans as tri-state bytes. A
//! `SqlValue` column serves only the type mixes no kernel covers (text and
//! `SuperKey` operands, `NOT` of a number, …), through the scalar helpers of
//! [`crate::expr`].
//!
//! Each kernel restates the helper it replaces, NULL propagation included:
//! `eval_cmp_arith` (`Int` × `Int` arithmetic wraps, `/` gives a `Float` or
//! NULL, comparisons go through `f64` as `SqlValue::sql_eq` / `sql_cmp` do),
//! `combine_and` / `combine_or` (Kleene logic), the unary, cast and `ABS`
//! helpers, and [`AggState`]'s update ([`Col::fold`]). AND and OR evaluate
//! both sides: expressions are pure and cannot fail. The tuple interpreter
//! ([`CExpr::eval`], behind `execute_reference`) is the oracle, and
//! `tests/expr_parity.rs` holds random trees in every position to it.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use blend_common::{FxHashSet, Result};
use blend_parallel::ParallelCtx;
use blend_storage::{FactTable, ValuePred};

use crate::ast::{BinOp, UnaryOp};
use crate::exec::AggState;
use crate::exec_positional::executor_bug;
use crate::expr::{eval_abs_value, eval_cast_int_value, eval_cmp_arith, eval_unary_value, CExpr};
use crate::plan::ScanPlan;
use crate::value::SqlValue;

/// Width of the canonical fact tuple.
pub(crate) const FACT_WIDTH: usize = 6;

/// The three u32-valued fact columns usable as join/group keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IntCol {
    Table,
    Column,
    Row,
}

impl IntCol {
    pub(crate) fn gather(self, table: &dyn FactTable, positions: &[u32], out: &mut Vec<u32>) {
        match self {
            IntCol::Table => table.gather_tables(positions, out),
            IntCol::Column => table.gather_columns(positions, out),
            IntCol::Row => table.gather_rows(positions, out),
        }
    }
}

/// A compiled positional expression: like [`CExpr`], but column references
/// fetch directly from a leaf's storage position instead of a materialized
/// tuple, and constant `CellValue IN (...)` lists are specialized into
/// engine [`ValuePred`]s (dictionary-code comparisons on the column store).
pub(crate) enum PExpr {
    Const(SqlValue),
    /// `CellValue` of a leaf.
    Value(usize),
    /// An integer fact column of a leaf.
    Int(usize, IntCol),
    Superkey(usize),
    Quadrant(usize),
    /// `CellValue IN (constant strings)`, pre-compiled as an engine probe.
    InProbe {
        leaf: usize,
        probe: ValuePred,
        negated: bool,
    },
    InSet(Box<PExpr>, Arc<FxHashSet<SqlValue>>, bool),
    IsNull(Box<PExpr>, bool),
    Unary(UnaryOp, Box<PExpr>),
    Binary(Box<PExpr>, BinOp, Box<PExpr>),
    CastInt(Box<PExpr>),
    Abs(Box<PExpr>),
}

/// Compile a tuple expression into a positional one. `base` is the global
/// index of the first leaf in the schema the expression was compiled
/// against.
pub(crate) fn compile_pexpr(e: &CExpr, base: usize, leaves: &[&ScanPlan]) -> Result<PExpr> {
    let sub = |e: &CExpr| compile_pexpr(e, base, leaves).map(Box::new);
    Ok(match e {
        CExpr::Const(v) => PExpr::Const(v.clone()),
        CExpr::Col(i) => {
            let leaf = base + i / FACT_WIDTH;
            if leaf >= leaves.len() {
                return Err(executor_bug("a column outside the plan's scans"));
            }
            match i % FACT_WIDTH {
                0 => PExpr::Value(leaf),
                1 => PExpr::Int(leaf, IntCol::Table),
                2 => PExpr::Int(leaf, IntCol::Column),
                3 => PExpr::Int(leaf, IntCol::Row),
                4 => PExpr::Superkey(leaf),
                _ => PExpr::Quadrant(leaf),
            }
        }
        CExpr::Unary(op, inner) => PExpr::Unary(*op, sub(inner)?),
        CExpr::Binary(l, op, r) => PExpr::Binary(sub(l)?, *op, sub(r)?),
        CExpr::InSet(inner, set, negated) => match *sub(inner)? {
            // Constant IN-list over CellValue: translate once into an engine
            // probe (dictionary codes on the column store). Non-text
            // constants can never equal a text cell, so dropping them
            // preserves the reference's semantics.
            PExpr::Value(leaf) => {
                let texts: Vec<&str> = set.iter().filter_map(SqlValue::as_str).collect();
                let probe = leaves[leaf].table.make_probe(&texts);
                PExpr::InProbe {
                    leaf,
                    probe,
                    negated: *negated,
                }
            }
            compiled => PExpr::InSet(Box::new(compiled), Arc::clone(set), *negated),
        },
        CExpr::IsNull(inner, negated) => PExpr::IsNull(sub(inner)?, *negated),
        CExpr::CastInt(inner) => PExpr::CastInt(sub(inner)?),
        CExpr::Abs(inner) => PExpr::Abs(sub(inner)?),
    })
}

/// The rows a batch evaluates over: `stride` storage positions per row, the
/// first of them global leaf `base`'s, stored flat; `sel` picks the rows
/// (all of them when `None`).
#[derive(Clone, Copy)]
pub(crate) struct Rows<'a> {
    pub(crate) data: &'a [u32],
    pub(crate) stride: usize,
    pub(crate) base: usize,
    pub(crate) sel: Option<&'a [u32]>,
}

impl<'a> Rows<'a> {
    /// Every row of `data`.
    pub(crate) fn all(data: &'a [u32], stride: usize, base: usize) -> Self {
        let sel = None;
        Rows {
            data,
            stride,
            base,
            sel,
        }
    }

    pub(crate) fn len(&self) -> usize {
        let all = self.data.len().checked_div(self.stride).unwrap_or(0);
        self.sel.map_or(all, <[u32]>::len)
    }

    /// The rows `range` of these.
    pub(crate) fn slice(&self, range: Range<usize>) -> Rows<'a> {
        let mut rows = *self;
        match self.sel {
            Some(sel) => rows.sel = Some(&sel[range]),
            None => rows.data = &self.data[range.start * self.stride..range.end * self.stride],
        }
        rows
    }

    /// Global leaf `leaf`'s positions, borrowed where they are the data.
    pub(crate) fn positions(&self, leaf: usize) -> Cow<'a, [u32]> {
        let (data, stride, off) = (self.data, self.stride, leaf - self.base);
        match self.sel {
            None if stride == 1 => Cow::Borrowed(data),
            None => data.iter().skip(off).step_by(stride).copied().collect(),
            Some(sel) => sel
                .iter()
                .map(|&r| data[r as usize * stride + off])
                .collect(),
        }
    }
}

/// A batch's rows and, per leaf, its positions, extracted once.
pub(crate) struct Leaves<'a> {
    rows: Rows<'a>,
    positions: Vec<Option<Cow<'a, [u32]>>>,
}

impl<'a> Leaves<'a> {
    pub(crate) fn new(rows: Rows<'a>) -> Self {
        let positions = vec![None; rows.stride];
        Leaves { rows, positions }
    }

    /// Global leaf `leaf`'s positions.
    pub(crate) fn positions(&mut self, leaf: usize) -> &[u32] {
        let rows = self.rows;
        self.positions[leaf - rows.base].get_or_insert_with(|| rows.positions(leaf))
    }
}

/// Per-row validity; `None`: no row is NULL.
type Valid = Option<Vec<bool>>;

// Tri-state booleans, ordered FALSE (0) < NULL < TRUE: AND is the minimum,
// OR the maximum and NOT `TRUE - x`.
const NULL: u8 = 1;
const TRUE: u8 = 2;

fn tri(b: bool) -> u8 {
    2 * b as u8
}

/// One expression's values over a batch.
pub(crate) enum Col {
    /// `Int`s, NULL where not valid.
    Int(Vec<i64>, Valid),
    /// `Float`s, NULL where not valid.
    Float(Vec<f64>, Valid),
    /// `Bool`s or NULL, as tri-states.
    Bool(Vec<u8>),
    /// Any other mix, value by value.
    Any(Vec<SqlValue>),
}

/// A numeric column read row by row as `SqlValue::as_f64` / `as_i64` read
/// it (`Bool` is 0 or 1, a float truncates), `None` where NULL.
#[derive(Clone, Copy)]
enum Num<'c> {
    Int(&'c [i64], Option<&'c [bool]>),
    Float(&'c [f64], Option<&'c [bool]>),
    Bool(&'c [u8]),
}

impl Num<'_> {
    #[inline(always)]
    fn f64(self, i: usize) -> Option<f64> {
        match self {
            Num::Int(v, ok) => ok.is_none_or(|ok| ok[i]).then(|| v[i] as f64),
            Num::Float(v, ok) => ok.is_none_or(|ok| ok[i]).then(|| v[i]),
            Num::Bool(v) => (v[i] != NULL).then(|| (v[i] == TRUE) as i64 as f64),
        }
    }

    #[inline(always)]
    fn i64(self, i: usize) -> Option<i64> {
        match self {
            Num::Int(v, ok) => ok.is_none_or(|ok| ok[i]).then(|| v[i]),
            Num::Float(v, ok) => ok.is_none_or(|ok| ok[i]).then(|| v[i] as i64),
            Num::Bool(v) => (v[i] != NULL).then(|| (v[i] == TRUE) as i64),
        }
    }
}

/// `f` over both operands' `f64` views into floats, NULL where either side
/// is or `f` gives `None`.
fn floats(n: usize, x: Num, y: Num, f: impl Fn(f64, f64) -> Option<f64>) -> Col {
    let at = |i| x.f64(i).zip(y.f64(i)).and_then(|(a, b)| f(a, b));
    let (v, ok) = (0..n)
        .map(|i| at(i).map_or((0.0, false), |v| (v, true)))
        .unzip();
    Col::Float(v, Some(ok))
}

/// `f` over both operands' `i64` views into integers, NULL where either
/// side is or `f` gives `None`.
fn ints(n: usize, x: Num, y: Num, f: impl Fn(i64, i64) -> Option<i64>) -> Col {
    let at = |i| x.i64(i).zip(y.i64(i)).and_then(|(a, b)| f(a, b));
    let (v, ok) = (0..n)
        .map(|i| at(i).map_or((0, false), |v| (v, true)))
        .unzip();
    Col::Int(v, Some(ok))
}

/// A comparison over both operands' `f64` views, as tri-states.
fn compare(n: usize, x: Num, y: Num, f: impl Fn(f64, f64) -> bool) -> Col {
    Col::Bool(match (x, y) {
        // Two integer columns (a fact column against a literal, say): one
        // pass, then NULL where either side is.
        (Num::Int(a, a_ok), Num::Int(b, b_ok)) => {
            let at = |(&a, &b): (&i64, &i64)| tri(f(a as f64, b as f64));
            let mut v: Vec<u8> = a.iter().zip(b).map(at).collect();
            for ok in [a_ok, b_ok].into_iter().flatten() {
                (v.iter_mut().zip(ok)).for_each(|(t, &ok)| *t = if ok { *t } else { NULL });
            }
            v
        }
        _ => {
            let at = |i| x.f64(i).zip(y.f64(i)).map_or(NULL, |(a, b)| tri(f(a, b)));
            (0..n).map(at).collect()
        }
    })
}

impl Col {
    /// `v` on each of `n` rows.
    fn splat(v: &SqlValue, n: usize) -> Col {
        match v {
            SqlValue::Int(i) => Col::Int(vec![*i; n], None),
            SqlValue::Float(f) => Col::Float(vec![*f; n], None),
            SqlValue::Bool(b) => Col::Bool(vec![tri(*b); n]),
            SqlValue::Null => Col::Bool(vec![NULL; n]),
            v => Col::Any(vec![v.clone(); n]),
        }
    }

    fn len(&self) -> usize {
        match self {
            Col::Int(v, _) => v.len(),
            Col::Float(v, _) => v.len(),
            Col::Bool(v) => v.len(),
            Col::Any(v) => v.len(),
        }
    }

    /// Row `i` as a value.
    fn value(&self, i: usize) -> SqlValue {
        let valid = |ok: &Valid| ok.as_ref().is_none_or(|ok| ok[i]);
        match self {
            Col::Int(v, ok) if valid(ok) => SqlValue::Int(v[i]),
            Col::Float(v, ok) if valid(ok) => SqlValue::Float(v[i]),
            Col::Bool(v) if v[i] != NULL => SqlValue::Bool(v[i] == TRUE),
            Col::Any(v) => v[i].clone(),
            _ => SqlValue::Null,
        }
    }

    /// Every row as a value.
    pub(crate) fn into_values(self) -> Vec<SqlValue> {
        match self {
            Col::Any(v) => v,
            col => (0..col.len()).map(|i| col.value(i)).collect(),
        }
    }

    /// The predicate view: TRUE rows pass; NULL and non-`Bool`s fail.
    pub(crate) fn truthy(&self) -> Vec<bool> {
        self.logic().iter().map(|&t| t == TRUE).collect()
    }

    /// As an operand of AND / OR / NOT: a `Bool` is itself, anything else
    /// NULL.
    fn logic(&self) -> Cow<'_, [u8]> {
        let of = |v: &SqlValue| {
            if let SqlValue::Bool(b) = v {
                tri(*b)
            } else {
                NULL
            }
        };
        match self {
            Col::Bool(v) => Cow::Borrowed(v),
            Col::Any(v) => v.iter().map(of).collect(),
            col => Cow::Owned(vec![NULL; col.len()]),
        }
    }

    /// Row by row IS NULL.
    fn nulls(&self) -> Vec<bool> {
        match self {
            Col::Int(_, Some(ok)) | Col::Float(_, Some(ok)) => ok.iter().map(|&v| !v).collect(),
            Col::Bool(v) => v.iter().map(|&b| b == NULL).collect(),
            Col::Any(v) => v.iter().map(SqlValue::is_null).collect(),
            col => vec![false; col.len()],
        }
    }

    /// The numeric view; `None` for a mixed column.
    fn num(&self) -> Option<Num<'_>> {
        Some(match self {
            Col::Int(v, ok) => Num::Int(v, ok.as_deref()),
            Col::Float(v, ok) => Num::Float(v, ok.as_deref()),
            Col::Bool(v) => Num::Bool(v),
            Col::Any(_) => return None,
        })
    }

    /// Value by value through a scalar helper: the mixes no kernel covers.
    fn map(&self, f: impl Fn(SqlValue) -> SqlValue) -> Col {
        Col::Any((0..self.len()).map(|i| f(self.value(i))).collect())
    }

    /// Fold row `i` into `states[gids[i]]` as [`AggState::update_value`]
    /// would its value: numbers through the typed entries, NULL skipped.
    pub(crate) fn fold(&self, gids: &[u32], states: &mut [AggState]) {
        let valid = |ok: &Valid, i: usize| ok.as_ref().is_none_or(|ok| ok[i]);
        for (i, &g) in gids.iter().enumerate() {
            let state = &mut states[g as usize];
            match self {
                Col::Int(v, ok) if valid(ok, i) => state.add_int(v[i]),
                Col::Float(v, ok) if valid(ok, i) => state.add_float(v[i]),
                Col::Int(..) | Col::Float(..) => {}
                col => state.update_value(Some(col.value(i))),
            }
        }
    }
}

/// A binary operator over two evaluated columns of `n` rows.
fn binary(op: BinOp, a: Col, b: Col, n: usize) -> Col {
    if matches!(op, BinOp::And | BinOp::Or) {
        let (x, y, and) = (a.logic(), b.logic(), op == BinOp::And);
        let pick = |(&x, &y): (&u8, &u8)| if and { x.min(y) } else { x.max(y) };
        return Col::Bool(x.iter().zip(y.iter()).map(pick).collect());
    }
    let (Some(x), Some(y)) = (a.num(), b.num()) else {
        let v = (0..n).map(|i| eval_cmp_arith(op, a.value(i), b.value(i)));
        return Col::Any(v.collect());
    };
    let both_int = matches!((x, y), (Num::Int(..), Num::Int(..)));
    match op {
        BinOp::Add if both_int => ints(n, x, y, |a, b| Some(a.wrapping_add(b))),
        BinOp::Sub if both_int => ints(n, x, y, |a, b| Some(a.wrapping_sub(b))),
        BinOp::Mul if both_int => ints(n, x, y, |a, b| Some(a.wrapping_mul(b))),
        BinOp::Eq => compare(n, x, y, |a, b| a == b),
        BinOp::Neq => compare(n, x, y, |a, b| a != b),
        BinOp::Lt => compare(n, x, y, |a, b| a.total_cmp(&b).is_lt()),
        BinOp::Le => compare(n, x, y, |a, b| a.total_cmp(&b).is_le()),
        BinOp::Gt => compare(n, x, y, |a, b| a.total_cmp(&b).is_gt()),
        BinOp::Ge => compare(n, x, y, |a, b| a.total_cmp(&b).is_ge()),
        BinOp::Add => floats(n, x, y, |a, b| Some(a + b)),
        BinOp::Sub => floats(n, x, y, |a, b| Some(a - b)),
        BinOp::Mul => floats(n, x, y, |a, b| Some(a * b)),
        BinOp::Div => floats(n, x, y, |a, b| (b != 0.0).then(|| a / b)),
        // `%` (AND and OR returned above).
        _ => ints(n, x, y, |a, b| (b != 0).then(|| a.wrapping_rem_euclid(b))),
    }
}

impl PExpr {
    /// The values of the expression over every row of `rows`; `tables` is
    /// indexed by global leaf.
    pub(crate) fn eval(&self, tables: &[&dyn FactTable], rows: Rows<'_>) -> Col {
        self.eval_in(tables, &mut Leaves::new(rows))
    }

    /// The values over `rows` a morsel of rows at a time: one morsel's
    /// scratch reserved first, the interrupt polled before each, and
    /// `f(range, values)` handed each morsel's row range and values.
    pub(crate) fn eval_morsels(
        &self,
        tables: &[&dyn FactTable],
        rows: Rows<'_>,
        par: &ParallelCtx,
        mut f: impl FnMut(Range<usize>, Col),
    ) -> Result<()> {
        let (n, morsel) = (rows.len(), par.morsel_len());
        let _scratch =
            (par.memory()).try_reserve("expr_scratch", self.scratch_bytes(morsel.min(n)))?;
        for start in (0..n).step_by(morsel) {
            par.check_interrupt()?;
            let range = start..(start + morsel).min(n);
            f(range.clone(), self.eval(tables, rows.slice(range)));
        }
        Ok(())
    }

    /// The bytes one evaluation over `n` rows holds at once: per row and
    /// node, a column with its validity or a `SqlValue`, and a leaf's
    /// positions and codes (a text leaf's strings are not counted).
    pub(crate) fn scratch_bytes(&self, n: usize) -> usize {
        let below = match self {
            PExpr::InSet(e, ..)
            | PExpr::IsNull(e, _)
            | PExpr::Unary(_, e)
            | PExpr::CastInt(e)
            | PExpr::Abs(e) => e.scratch_bytes(n),
            PExpr::Binary(l, _, r) => l.scratch_bytes(n) + r.scratch_bytes(n),
            _ => 0,
        };
        32 * n + below
    }

    fn eval_in(&self, tables: &[&dyn FactTable], l: &mut Leaves<'_>) -> Col {
        let n = l.rows.len();
        match self {
            PExpr::Const(v) => Col::splat(v, n),
            PExpr::Value(leaf) => {
                let text = |&p: &u32| SqlValue::from(tables[*leaf].value_at(p as usize));
                Col::Any(l.positions(*leaf).iter().map(text).collect())
            }
            PExpr::Int(leaf, col) => {
                let mut v = Vec::with_capacity(n);
                col.gather(tables[*leaf], l.positions(*leaf), &mut v);
                Col::Int(v.into_iter().map(i64::from).collect(), None)
            }
            PExpr::Superkey(leaf) => {
                let mut v = Vec::with_capacity(n);
                tables[*leaf].gather_superkeys(l.positions(*leaf), &mut v);
                Col::Any(v.into_iter().map(SqlValue::U128).collect())
            }
            PExpr::Quadrant(leaf) => {
                let mut q = Vec::with_capacity(n);
                tables[*leaf].gather_quadrants(l.positions(*leaf), &mut q);
                let split = |q: Option<bool>| (q.unwrap_or(false) as i64, q.is_some());
                let (v, ok) = q.into_iter().map(split).unzip();
                Col::Int(v, Some(ok))
            }
            PExpr::InProbe {
                leaf,
                probe,
                negated,
            } => {
                // CellValue is never NULL: this is InSet on a non-null text.
                let (table, hit) = (tables[*leaf], |yes: bool| tri(yes != *negated));
                let mut gathered = Vec::new();
                Col::Bool(match probe {
                    ValuePred::Codes(set)
                        if table.gather_value_codes(l.positions(*leaf), &mut gathered) =>
                    {
                        gathered.iter().map(|&c| hit(set.contains(c))).collect()
                    }
                    _ => (l.positions(*leaf).iter())
                        .map(|&p| hit(table.probe_at(p as usize, probe)))
                        .collect(),
                })
            }
            PExpr::InSet(e, set, negated) => {
                let c = e.eval_in(tables, l);
                let test = |i| match c.value(i) {
                    SqlValue::Null => NULL,
                    v => tri(set.contains(&v) != *negated),
                };
                Col::Bool((0..n).map(test).collect())
            }
            PExpr::IsNull(e, negated) => {
                let null = |null: bool| tri(null != *negated);
                Col::Bool(e.eval_in(tables, l).nulls().into_iter().map(null).collect())
            }
            PExpr::Unary(op, e) => match (op, e.eval_in(tables, l)) {
                (UnaryOp::Neg, Col::Int(v, ok)) => {
                    Col::Int(v.into_iter().map(i64::wrapping_neg).collect(), ok)
                }
                (UnaryOp::Neg, Col::Float(v, ok)) => {
                    Col::Float(v.into_iter().map(|f| -f).collect(), ok)
                }
                (UnaryOp::Not, Col::Bool(v)) => {
                    Col::Bool(v.into_iter().map(|t| TRUE - t).collect())
                }
                (op, c) => c.map(|v| eval_unary_value(*op, v)),
            },
            PExpr::Binary(left, op, right) => {
                let (a, b) = (left.eval_in(tables, l), right.eval_in(tables, l));
                binary(*op, a, b, n)
            }
            PExpr::CastInt(e) => match e.eval_in(tables, l) {
                c @ Col::Int(..) => c,
                Col::Float(v, ok) => Col::Int(v.into_iter().map(|f| f as i64).collect(), ok),
                Col::Bool(v) => {
                    let split = |t| ((t == TRUE) as i64, t != NULL);
                    let (v, ok) = v.into_iter().map(split).unzip();
                    Col::Int(v, Some(ok))
                }
                c => c.map(eval_cast_int_value),
            },
            PExpr::Abs(e) => match e.eval_in(tables, l) {
                Col::Int(v, ok) => Col::Int(v.into_iter().map(i64::wrapping_abs).collect(), ok),
                Col::Float(v, ok) => Col::Float(v.into_iter().map(f64::abs).collect(), ok),
                c => c.map(eval_abs_value),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blend_storage::{build_engine, EngineKind, FactRow, IdSet};

    /// Literals whose dictionary codes sit far from code 0 but close to each
    /// other get an engine probe that is a bitmap over their own range, and
    /// the expression answers as the probe does — on a miss below, inside
    /// and above the range.
    #[test]
    fn in_probe_over_distant_codes_matches_the_engine_probe() {
        let rows = (0..9000u32)
            .map(|r| FactRow::new(&format!("v{r:05}"), r / 100, 0, r % 100, 0, None))
            .collect();
        let table = build_engine(EngineKind::Column, rows);
        let texts = ["v08500", "v08503", "v08650"];
        let probe = table.make_probe(&texts);
        assert!(matches!(&probe, ValuePred::Codes(IdSet::Bitmap { .. })));
        let positions: Vec<u32> = (0..table.len() as u32).collect();
        let tables = [table.as_ref()];
        for negated in [false, true] {
            let e = PExpr::InProbe {
                leaf: 0,
                probe: table.make_probe(&texts),
                negated,
            };
            let got = e.eval(&tables, Rows::all(&positions, 1, 0)).truthy();
            let want: Vec<bool> = (positions.iter())
                .map(|&p| table.probe_at(p as usize, &probe) != negated)
                .collect();
            assert_eq!(got, want);
            assert_eq!(got.iter().filter(|&&hit| hit != negated).count(), 3);
        }
    }

    /// Integer `%` by zero and `/` by zero are NULL; `Int` arithmetic wraps;
    /// comparisons read two `Int`s through `f64`, as `SqlValue::sql_eq` does.
    #[test]
    fn integer_kernels_restate_the_scalar_helpers() {
        let ints = |v: &[i64]| Col::Int(v.to_vec(), None);
        let vals = |c: Col| c.into_values();
        let (a, b) = (&[i64::MIN, 7, 9007199254740993], &[-1, 0, 9007199254740992]);
        for op in [
            BinOp::Add,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Mod,
            BinOp::Eq,
            BinOp::Lt,
        ] {
            let want: Vec<SqlValue> = (a.iter().zip(b))
                .map(|(&x, &y)| eval_cmp_arith(op, SqlValue::Int(x), SqlValue::Int(y)))
                .collect();
            let got = vals(binary(op, ints(a), ints(b), 3));
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{op:?}");
        }
    }
}
