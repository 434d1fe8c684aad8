//! Abstract syntax tree for the supported SQL subset.

/// Binary operators, in ascending precedence groups (Or < And < cmp < add <
/// mul).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Or,
    And,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Neg,
    Not,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

/// Expressions. Identifier payloads are lowercased by the parser so later
/// stages compare case-insensitively for free.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `alias.column` or bare `column`.
    Column {
        qualifier: Option<String>,
        name: String,
    },
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
    Null,
    /// `*` — only valid inside `COUNT(*)`.
    Star,
    Unary {
        op: UnaryOp,
        expr: Box<Expr>,
    },
    Binary {
        left: Box<Expr>,
        op: BinOp,
        right: Box<Expr>,
    },
    /// `expr [NOT] IN (e1, e2, ...)`.
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    /// Aggregate call: `COUNT(*)`, `COUNT(DISTINCT x)`, `SUM(x)`, ...
    Agg {
        func: AggFunc,
        distinct: bool,
        /// `None` encodes `COUNT(*)`.
        arg: Option<Box<Expr>>,
    },
    /// Scalar function (currently only `ABS`).
    Abs(Box<Expr>),
    /// `expr::int` cast (booleans → 0/1, the paper's Listing 3 idiom).
    CastInt(Box<Expr>),
}

impl Expr {
    /// Bare column reference helper.
    pub fn col(name: &str) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.to_lowercase(),
        }
    }

    /// Qualified column reference helper.
    pub fn qcol(qualifier: &str, name: &str) -> Expr {
        Expr::Column {
            qualifier: Some(qualifier.to_lowercase()),
            name: name.to_lowercase(),
        }
    }

    /// Split a conjunction into its conjuncts (flattening nested ANDs).
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            if let Expr::Binary {
                left,
                op: BinOp::And,
                right,
            } = e
            {
                walk(left, out);
                walk(right, out);
            } else {
                out.push(e);
            }
        }
        walk(self, &mut out);
        out
    }

    /// Rebuild a conjunction from conjuncts; `None` if empty.
    pub fn and_all(exprs: Vec<Expr>) -> Option<Expr> {
        exprs.into_iter().reduce(|acc, e| Expr::Binary {
            left: Box::new(acc),
            op: BinOp::And,
            right: Box::new(e),
        })
    }

    /// The direct children of this node, in source order: the one child
    /// traversal every recursion over expressions goes through.
    pub(crate) fn children(&self) -> impl Iterator<Item = &Expr> {
        let (first, second, rest): (Option<&Expr>, Option<&Expr>, &[Expr]) = match self {
            Expr::Unary { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::Abs(expr)
            | Expr::CastInt(expr) => (Some(expr), None, &[]),
            Expr::Binary { left, right, .. } => (Some(left), Some(right), &[]),
            Expr::InList { expr, list, .. } => (Some(expr), None, list),
            Expr::Agg { arg, .. } => (arg.as_deref(), None, &[]),
            Expr::Column { .. }
            | Expr::Int(_)
            | Expr::Float(_)
            | Expr::Str(_)
            | Expr::Bool(_)
            | Expr::Null
            | Expr::Star => (None, None, &[]),
        };
        first.into_iter().chain(second).chain(rest)
    }

    /// This node rebuilt over its children mapped through `f`, in the order
    /// [`children`](Self::children) visits them; the first error ends it.
    pub(crate) fn try_map_children<E>(
        &self,
        mut f: impl FnMut(&Expr) -> std::result::Result<Expr, E>,
    ) -> std::result::Result<Expr, E> {
        Ok(match self {
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: Box::new(f(expr)?),
            },
            Expr::Binary { left, op, right } => Expr::Binary {
                left: Box::new(f(left)?),
                op: *op,
                right: Box::new(f(right)?),
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(f(expr)?),
                list: {
                    let mut items = Vec::with_capacity(list.len());
                    for e in list {
                        items.push(f(e)?);
                    }
                    items
                },
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(f(expr)?),
                negated: *negated,
            },
            Expr::Agg {
                func,
                distinct,
                arg,
            } => Expr::Agg {
                func: *func,
                distinct: *distinct,
                arg: match arg {
                    Some(a) => Some(Box::new(f(a)?)),
                    None => None,
                },
            },
            Expr::Abs(expr) => Expr::Abs(Box::new(f(expr)?)),
            Expr::CastInt(expr) => Expr::CastInt(Box::new(f(expr)?)),
            leaf => leaf.clone(),
        })
    }

    /// Does this subtree contain an aggregate call?
    pub fn contains_agg(&self) -> bool {
        matches!(self, Expr::Agg { .. }) || self.children().any(Expr::contains_agg)
    }

    /// Collect every distinct aggregate call in the subtree, in first-seen
    /// order. An aggregate's argument is not searched.
    pub fn collect_aggs<'a>(&'a self, out: &mut Vec<&'a Expr>) {
        match self {
            Expr::Agg { .. } if !out.contains(&self) => out.push(self),
            Expr::Agg { .. } => {}
            _ => self.children().for_each(|c| c.collect_aggs(out)),
        }
    }
}

/// One item of a select list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*` — expand to all input columns.
    Wildcard,
    /// `expr [AS alias]`.
    Expr { expr: Expr, alias: Option<String> },
}

/// A table source in `FROM`/`JOIN`.
#[derive(Debug, Clone, PartialEq)]
pub enum TableSource {
    /// Catalog table by (lowercased) name.
    Named(String),
    /// Parenthesized subquery.
    Subquery(Box<Query>),
}

/// `FROM` item with optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct FromItem {
    pub source: TableSource,
    pub alias: Option<String>,
}

/// `INNER JOIN <item> ON <expr>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub item: FromItem,
    pub on: Expr,
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub desc: bool,
}

/// A full query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub select: Vec<SelectItem>,
    pub from: FromItem,
    pub joins: Vec<Join>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use blend_common::FxHashSet;

    #[test]
    fn conjuncts_flatten_nested_ands() {
        let e = Expr::and_all(vec![Expr::col("a"), Expr::col("b"), Expr::col("c")]).unwrap();
        let cs = e.conjuncts();
        assert_eq!(cs.len(), 3);
        assert_eq!(cs[0], &Expr::col("a"));
        assert_eq!(cs[2], &Expr::col("c"));
    }

    #[test]
    fn and_all_of_empty_is_none() {
        assert!(Expr::and_all(vec![]).is_none());
        assert_eq!(Expr::and_all(vec![Expr::col("x")]), Some(Expr::col("x")));
    }

    #[test]
    fn contains_and_collect_aggs() {
        let agg = Expr::Agg {
            func: AggFunc::Count,
            distinct: true,
            arg: Some(Box::new(Expr::col("cellvalue"))),
        };
        let wrapped = Expr::Abs(Box::new(Expr::Binary {
            left: Box::new(agg.clone()),
            op: BinOp::Sub,
            right: Box::new(Expr::Int(1)),
        }));
        assert!(wrapped.contains_agg());
        let mut aggs = Vec::new();
        wrapped.collect_aggs(&mut aggs);
        // Also collect the same agg from another expression — deduped.
        agg.collect_aggs(&mut aggs);
        assert_eq!(aggs.len(), 1);
    }

    /// The six recursions over expressions on one tree holding every
    /// variant, qualified columns in every child position (an `IN` list
    /// item, under `IS NULL`, `ABS`, a cast and `NOT`, both sides of a
    /// comparison, an aggregate's argument). They part ways at `Agg`:
    /// `contains_agg` stops there, `collect_aggs` collects it without
    /// searching its argument, `collect_qualifiers` enters the argument,
    /// `strip_qualifier` keeps the call as it is, `substitute_agg` replaces
    /// a listed call and keeps any other, and `fold_safe` refuses it.
    #[test]
    fn the_six_recursions_over_one_tree_of_every_variant() {
        use crate::fingerprint::fold_safe;
        use crate::plan::{collect_qualifiers, strip_qualifier, substitute_agg};
        let nested = Expr::Agg {
            func: AggFunc::Count,
            distinct: false,
            arg: None,
        };
        let agg = Expr::Agg {
            func: AggFunc::Sum,
            distinct: false,
            arg: Some(Box::new(Expr::Binary {
                left: Box::new(Expr::qcol("c", "w")),
                op: BinOp::Add,
                right: Box::new(nested.clone()),
            })),
        };
        let literals = vec![
            Expr::Int(1),
            Expr::Float(2.5),
            Expr::Str("s".into()),
            Expr::Bool(true),
            Expr::Null,
            Expr::Star,
        ];
        let in_list = |lhs: Expr, item: Expr| Expr::InList {
            expr: Box::new(lhs),
            list: [vec![item], literals.clone()].concat(),
            negated: true,
        };
        let under_is_null = |e: Expr| Expr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(Expr::IsNull {
                expr: Box::new(Expr::Abs(Box::new(Expr::CastInt(Box::new(e))))),
                negated: false,
            }),
        };
        let tree = |x: Expr, y: Expr, z: Expr, v: Expr, sum: Expr| Expr::Binary {
            left: Box::new(in_list(x, y)),
            op: BinOp::Or,
            right: Box::new(Expr::Binary {
                left: Box::new(under_is_null(z)),
                op: BinOp::And,
                right: Box::new(Expr::Binary {
                    left: Box::new(v),
                    op: BinOp::Gt,
                    right: Box::new(sum),
                }),
            }),
        };
        let e = tree(
            Expr::qcol("a", "x"),
            Expr::qcol("a", "y"),
            Expr::qcol("b", "z"),
            Expr::col("v"),
            agg.clone(),
        );

        assert!(e.contains_agg());
        assert!(!in_list(Expr::col("x"), Expr::col("y")).contains_agg());
        let mut aggs = Vec::new();
        e.collect_aggs(&mut aggs);
        assert_eq!(aggs, vec![&agg], "the nested COUNT(*) is not collected");

        let mut quals = FxHashSet::default();
        collect_qualifiers(&e, &mut quals);
        let mut quals: Vec<&str> = quals.into_iter().collect();
        quals.sort_unstable();
        assert_eq!(quals, ["\0unqualified", "a", "b", "c"]);

        let stripped = tree(
            Expr::col("x"),
            Expr::col("y"),
            Expr::qcol("b", "z"),
            Expr::col("v"),
            agg.clone(),
        );
        assert_eq!(strip_qualifier(&e, "a"), stripped);
        assert_eq!(strip_qualifier(&e, "c"), e, "an aggregate is not entered");

        let groups = [
            Expr::qcol("a", "x"),
            Expr::qcol("a", "y"),
            Expr::qcol("b", "z"),
            Expr::col("v"),
        ];
        let substituted = tree(
            Expr::col("__g0"),
            Expr::col("__g1"),
            Expr::col("__g2"),
            Expr::col("__g3"),
            Expr::col("__a0"),
        );
        let listed = [agg.clone()];
        assert_eq!(substitute_agg(&e, &groups, &listed), Some(substituted));
        let kept = tree(
            Expr::col("__g0"),
            Expr::col("__g1"),
            Expr::col("__g2"),
            Expr::col("__g3"),
            agg.clone(),
        );
        assert_eq!(substitute_agg(&e, &groups, &[]), Some(kept));
        assert_eq!(substitute_agg(&e, &groups[..3], &listed), None);

        assert!(!fold_safe(&e));
        assert!(!fold_safe(&agg));
        let literal = tree(
            Expr::Int(1),
            Expr::Int(2),
            Expr::Null,
            Expr::Bool(false),
            Expr::Float(0.5),
        );
        assert!(!fold_safe(&literal), "ABS, a cast and `*` never fold");
        let foldable = Expr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(Expr::InList {
                expr: Box::new(Expr::Int(1)),
                list: vec![Expr::Str("s".into()), Expr::Null],
                negated: false,
            }),
        };
        assert!(fold_safe(&foldable));
        let arithmetic = Expr::Binary {
            left: Box::new(Expr::Int(1)),
            op: BinOp::Add,
            right: Box::new(Expr::Int(1)),
        };
        assert!(!fold_safe(&arithmetic));
    }

    #[test]
    fn helpers_lowercase() {
        assert_eq!(
            Expr::qcol("Keys", "TableId"),
            Expr::Column {
                qualifier: Some("keys".into()),
                name: "tableid".into()
            }
        );
    }
}
