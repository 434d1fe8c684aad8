//! Recursive-descent parser for the SQL subset.

use blend_common::{BlendError, Result};

use crate::ast::*;
use crate::lexer::{tokenize, Token};

/// The deepest nesting a query may reach. Each parenthesis, prefix
/// operator (`NOT`, `-`), function call, `IN` list, subquery, join and link
/// of an operator chain (`AND`, `OR`, arithmetic, `::int`) is one level.
/// Every stage after the parser recurses over the tree it builds, so the
/// bound keeps a query's stack use within a default 2 MiB thread stack, on
/// the serving tier's threads and any caller's alike (crate docs).
pub const MAX_DEPTH: usize = 64;

/// Parse one query (a trailing `;` is tolerated and ignored).
pub fn parse(sql: &str) -> Result<Query> {
    let sql = sql.trim().trim_end_matches(';');
    let tokens = tokenize(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let q = p.query()?;
    if p.pos != p.tokens.len() {
        return Err(BlendError::SqlParse(format!(
            "trailing tokens starting at {:?}",
            p.tokens[p.pos]
        )));
    }
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting levels entered so far (see [`MAX_DEPTH`]).
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    /// Consume the current token. Nothing reads a consumed token again, so
    /// it is moved out, not cloned.
    fn next(&mut self) -> Option<Token> {
        let t = std::mem::replace(self.tokens.get_mut(self.pos)?, Token::Comma);
        self.pos += 1;
        Some(t)
    }

    /// Is the current token the given keyword (case-insensitive)?
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    /// Consume a keyword if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(BlendError::SqlParse(format!(
                "expected `{kw}`, found {:?}",
                self.peek()
            )))
        }
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(BlendError::SqlParse(format!(
                "expected {t:?}, found {:?}",
                self.peek()
            )))
        }
    }

    /// Enter one more nesting level, refusing the query past [`MAX_DEPTH`].
    fn deeper(&mut self) -> Result<()> {
        self.depth += 1;
        match self.depth > MAX_DEPTH {
            true => Err(BlendError::SqlParse(format!(
                "query nested deeper than {MAX_DEPTH} levels"
            ))),
            false => Ok(()),
        }
    }

    /// Parse with `f` one nesting level deeper.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.deeper()?;
        let out = f(self)?;
        self.depth -= 1;
        Ok(out)
    }

    /// An identifier, lowercased in place (identifiers are ASCII).
    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Ident(mut s)) => {
                s.make_ascii_lowercase();
                Ok(s)
            }
            other => Err(BlendError::SqlParse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    // ---- query ---------------------------------------------------------

    fn query(&mut self) -> Result<Query> {
        self.expect_kw("SELECT")?;
        let select = self.select_list()?;
        self.expect_kw("FROM")?;
        let from = self.parse_from_item()?;
        let mut joins = Vec::new();
        let depth = self.depth;
        loop {
            let inner = self.eat_kw("INNER");
            if self.eat_kw("JOIN") {
                self.deeper()?;
                let item = self.parse_from_item()?;
                self.expect_kw("ON")?;
                let on = self.expr()?;
                joins.push(Join { item, on });
            } else if inner {
                return Err(BlendError::SqlParse("`INNER` without `JOIN`".into()));
            } else {
                break;
            }
        }
        self.depth = depth;
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.next() {
                Some(Token::Int(n)) => Some(int_literal(n)? as usize),
                other => {
                    return Err(BlendError::SqlParse(format!(
                        "expected LIMIT count, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };
        Ok(Query {
            select,
            from,
            joins,
            where_clause,
            group_by,
            order_by,
            limit,
        })
    }

    fn select_list(&mut self) -> Result<Vec<SelectItem>> {
        let mut items = Vec::new();
        loop {
            if self.eat(&Token::Star) {
                items.push(SelectItem::Wildcard);
            } else {
                let expr = self.expr()?;
                let alias = if self.eat_kw("AS") {
                    Some(self.ident()?)
                } else if let Some(Token::Ident(s)) = self.peek() {
                    // Bare alias, unless the ident is a clause keyword.
                    if is_clause_keyword(s) {
                        None
                    } else {
                        Some(self.ident()?)
                    }
                } else {
                    None
                };
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok(items)
    }

    fn parse_from_item(&mut self) -> Result<FromItem> {
        let source = if self.eat(&Token::LParen) {
            let q = self.nested(Self::query)?;
            self.expect(&Token::RParen)?;
            TableSource::Subquery(Box::new(q))
        } else {
            TableSource::Named(self.ident()?)
        };
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else if let Some(Token::Ident(s)) = self.peek() {
            if is_clause_keyword(s) {
                None
            } else {
                Some(self.ident()?)
            }
        } else {
            None
        };
        Ok(FromItem { source, alias })
    }

    // ---- expressions -----------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.binary(0)
    }

    /// The binary operator at the current token and its binding level:
    /// `OR` 0, `AND` 1, `+ -` 3, `* / %` 4 (level 2 is `NOT` and the
    /// comparisons, which [`comparison`](Self::comparison) parses).
    fn binary_op(&self) -> Option<(BinOp, u8)> {
        Some(match self.peek()? {
            Token::Ident(s) if s.eq_ignore_ascii_case("OR") => (BinOp::Or, 0),
            Token::Ident(s) if s.eq_ignore_ascii_case("AND") => (BinOp::And, 1),
            Token::Plus => (BinOp::Add, 3),
            Token::Minus => (BinOp::Sub, 3),
            Token::Star => (BinOp::Mul, 4),
            Token::Slash => (BinOp::Div, 4),
            Token::Percent => (BinOp::Mod, 4),
            _ => return None,
        })
    }

    /// Left-associative chains of the binary operators binding at level
    /// `min` or tighter (precedence climbing), over comparisons below level
    /// 3 and casts from there on; each link is one nesting level deeper.
    fn binary(&mut self, min: u8) -> Result<Expr> {
        let depth = self.depth;
        let mut left = match min {
            0..=2 => self.comparison()?,
            _ => self.cast_expr()?,
        };
        while let Some((op, level)) = self.binary_op().filter(|&(_, l)| l >= min) {
            self.pos += 1;
            self.deeper()?;
            let right = self.binary(level + 1)?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        self.depth = depth;
        Ok(left)
    }

    /// `NOT` (binding looser than comparisons), then at most one comparison,
    /// `IS [NOT] NULL` or `[NOT] IN (...)` over arithmetic.
    fn comparison(&mut self) -> Result<Expr> {
        if self.eat_kw("NOT") {
            let inner = self.nested(Self::comparison)?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            });
        }
        let left = self.binary(3)?;
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        let next_is_in = |p: &Self, at: usize| matches!(p.tokens.get(at), Some(Token::Ident(s)) if s.eq_ignore_ascii_case("IN"));
        let negated = self.at_kw("NOT") && next_is_in(self, self.pos + 1);
        if negated || next_is_in(self, self.pos) {
            self.pos += 1 + negated as usize;
            self.expect(&Token::LParen)?;
            let list = self.nested(|p| {
                let mut list = Vec::new();
                if !p.eat(&Token::RParen) {
                    loop {
                        list.push(p.expr()?);
                        if !p.eat(&Token::Comma) {
                            break;
                        }
                    }
                    p.expect(&Token::RParen)?;
                }
                Ok(list)
            })?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        let op = match self.peek() {
            Some(Token::Eq) => BinOp::Eq,
            Some(Token::Neq) => BinOp::Neq,
            Some(Token::Lt) => BinOp::Lt,
            Some(Token::Le) => BinOp::Le,
            Some(Token::Gt) => BinOp::Gt,
            Some(Token::Ge) => BinOp::Ge,
            _ => return Ok(left),
        };
        self.pos += 1;
        let right = self.binary(3)?;
        Ok(Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        })
    }

    fn cast_expr(&mut self) -> Result<Expr> {
        let depth = self.depth;
        let mut e = self.primary()?;
        while self.eat(&Token::DoubleColon) {
            self.deeper()?;
            let ty = self.ident()?;
            match ty.as_str() {
                "int" | "integer" | "int4" | "int8" => e = Expr::CastInt(Box::new(e)),
                other => {
                    return Err(BlendError::SqlParse(format!(
                        "unsupported cast target `{other}`"
                    )))
                }
            }
        }
        self.depth = depth;
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.next() {
            Some(Token::Int(n)) => Ok(Expr::Int(int_literal(n)?)),
            Some(Token::Float(f)) => Ok(Expr::Float(f)),
            Some(Token::Str(s)) => Ok(Expr::Str(s)),
            // The one literal whose magnitude is not an `i64`.
            Some(Token::Minus) if self.peek() == Some(&Token::Int(i64::MIN.unsigned_abs())) => {
                self.next();
                Ok(Expr::Int(i64::MIN))
            }
            Some(Token::Minus) => {
                let inner = self.nested(Self::primary)?;
                Ok(Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(inner),
                })
            }
            Some(Token::LParen) => {
                self.deeper()?;
                let e = self.binary(0)?;
                self.depth -= 1;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(id)) => self.ident_tail(id),
            other => Err(BlendError::SqlParse(format!(
                "unexpected token in expression: {other:?}"
            ))),
        }
    }

    /// Continue parsing after an identifier: literal keywords, function
    /// calls, or (qualified) column references.
    fn ident_tail(&mut self, mut id: String) -> Result<Expr> {
        for (kw, literal) in [
            ("NULL", Expr::Null),
            ("TRUE", Expr::Bool(true)),
            ("FALSE", Expr::Bool(false)),
        ] {
            if id.eq_ignore_ascii_case(kw) {
                return Ok(literal);
            }
        }
        if self.peek() == Some(&Token::LParen) {
            self.pos += 1; // consume (
            id.make_ascii_uppercase();
            return self.call_tail(&id);
        }
        id.make_ascii_lowercase();
        if self.eat(&Token::Dot) {
            let name = self.ident()?;
            return Ok(Expr::Column {
                qualifier: Some(id),
                name,
            });
        }
        Ok(Expr::Column {
            qualifier: None,
            name: id,
        })
    }

    fn call_tail(&mut self, func: &str) -> Result<Expr> {
        let agg = match func {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            "AVG" => Some(AggFunc::Avg),
            _ => None,
        };
        if let Some(func) = agg {
            if self.eat(&Token::Star) {
                self.expect(&Token::RParen)?;
                if func != AggFunc::Count {
                    return Err(BlendError::SqlParse("only COUNT(*) accepts `*`".into()));
                }
                return Ok(Expr::Agg {
                    func,
                    distinct: false,
                    arg: None,
                });
            }
            let distinct = self.eat_kw("DISTINCT");
            let arg = self.nested(Self::expr)?;
            self.expect(&Token::RParen)?;
            return Ok(Expr::Agg {
                func,
                distinct,
                arg: Some(Box::new(arg)),
            });
        }
        match func {
            "ABS" => {
                let arg = self.nested(Self::expr)?;
                self.expect(&Token::RParen)?;
                Ok(Expr::Abs(Box::new(arg)))
            }
            other => Err(BlendError::SqlParse(format!(
                "unsupported function `{other}`"
            ))),
        }
    }
}

/// An unsigned integer literal as an `i64`, or the lexer's error for a
/// magnitude past `i64::MAX`.
fn int_literal(n: u64) -> Result<i64> {
    i64::try_from(n).map_err(|_| BlendError::SqlParse(format!("bad integer `{n}`")))
}

fn is_clause_keyword(s: &str) -> bool {
    [
        "FROM", "WHERE", "GROUP", "ORDER", "LIMIT", "INNER", "JOIN", "ON", "AND", "OR", "NOT",
        "IN", "IS", "AS", "BY", "ASC", "DESC", "SELECT", "UNION",
    ]
    .iter()
    .any(|kw| s.eq_ignore_ascii_case(kw))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_listing_1() {
        // Paper Listing 1: the SC seeker.
        let q = parse(
            "SELECT TableId FROM AllTables \
             WHERE CellValue IN ('hr', 'marketing') \
             GROUP BY TableId, ColumnId \
             ORDER BY COUNT(DISTINCT CellValue) DESC \
             LIMIT 10;",
        )
        .unwrap();
        assert_eq!(q.select.len(), 1);
        assert_eq!(q.group_by.len(), 2);
        assert_eq!(q.order_by.len(), 1);
        assert!(q.order_by[0].desc);
        assert_eq!(q.limit, Some(10));
        assert!(matches!(
            q.order_by[0].expr,
            Expr::Agg {
                func: AggFunc::Count,
                distinct: true,
                ..
            }
        ));
    }

    #[test]
    fn parses_listing_2() {
        // Paper Listing 2: first phase of the MC seeker.
        let q = parse(
            "SELECT * FROM \
             (SELECT * FROM AllTables WHERE CellValue IN ('a')) AS Q1_index_hits \
             INNER JOIN \
             (SELECT * FROM AllTables WHERE CellValue IN ('b')) AS Q2_index_hits \
             ON Q1_index_hits.TableId = Q2_index_hits.TableId \
             AND Q1_index_hits.RowId = Q2_index_hits.RowId",
        )
        .unwrap();
        assert_eq!(q.joins.len(), 1);
        assert!(matches!(q.from.source, TableSource::Subquery(_)));
        assert_eq!(q.from.alias.as_deref(), Some("q1_index_hits"));
        let on = &q.joins[0].on;
        assert_eq!(on.conjuncts().len(), 2);
    }

    #[test]
    fn parses_listing_3_style_score() {
        // The QCR score expression of Listing 3.
        let q = parse(
            "SELECT keys.TableId FROM \
             (SELECT * FROM AllTables WHERE RowId < 256 AND CellValue IN ('x')) keys \
             INNER JOIN \
             (SELECT * FROM AllTables WHERE RowId < 256 AND Quadrant IS NOT NULL) nums \
             ON keys.TableId = nums.TableId AND keys.RowId = nums.RowId \
             GROUP BY keys.TableId, nums.ColumnId, keys.ColumnId \
             ORDER BY ABS((2 * SUM(((keys.CellValue IN ('k0') AND nums.Quadrant = 0) OR \
             (keys.CellValue IN ('k1') AND nums.Quadrant = 1))::int) - COUNT(*)) / COUNT(*)) DESC \
             LIMIT 5",
        )
        .unwrap();
        assert_eq!(q.group_by.len(), 3);
        assert!(q.order_by[0].expr.contains_agg());
        let mut aggs = Vec::new();
        q.order_by[0].expr.collect_aggs(&mut aggs);
        assert_eq!(aggs.len(), 2); // SUM(...) and COUNT(*)
    }

    #[test]
    fn bare_and_as_aliases() {
        let q = parse("SELECT TableId tid, COUNT(*) AS c FROM AllTables GROUP BY TableId").unwrap();
        match &q.select[0] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("tid")),
            _ => panic!(),
        }
        match &q.select[1] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("c")),
            _ => panic!(),
        }
    }

    #[test]
    fn not_in_parses() {
        let q = parse("SELECT * FROM AllTables WHERE TableId NOT IN (1, 2, 3)").unwrap();
        match q.where_clause.unwrap() {
            Expr::InList { negated, list, .. } => {
                assert!(negated);
                assert_eq!(list.len(), 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_in_list_allowed() {
        // The rewriter can inject an empty intermediate result.
        let q = parse("SELECT * FROM AllTables WHERE TableId IN ()").unwrap();
        match q.where_clause.unwrap() {
            Expr::InList { list, .. } => assert!(list.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn precedence_or_and() {
        let q = parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        // Must parse as a OR (b AND c).
        match q.where_clause.unwrap() {
            Expr::Binary {
                op: BinOp::Or,
                right,
                ..
            } => {
                assert!(matches!(*right, Expr::Binary { op: BinOp::And, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        let q = parse("SELECT 1 + 2 * 3 FROM t").unwrap();
        match &q.select[0] {
            SelectItem::Expr { expr, .. } => match expr {
                Expr::Binary {
                    op: BinOp::Add,
                    right,
                    ..
                } => {
                    assert!(matches!(**right, Expr::Binary { op: BinOp::Mul, .. }));
                }
                other => panic!("{other:?}"),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn rejects_trailing_tokens_and_garbage() {
        assert!(parse("SELECT * FROM t WHERE").is_err());
        assert!(parse("SELECT * FROM t extra stuff everywhere (").is_err());
        assert!(parse("FROM t").is_err());
    }

    #[test]
    fn rejects_sum_star() {
        assert!(parse("SELECT SUM(*) FROM t").is_err());
    }

    #[test]
    fn cast_int_and_is_null() {
        let q = parse("SELECT (a = 1)::int FROM t WHERE b IS NOT NULL").unwrap();
        match &q.select[0] {
            SelectItem::Expr { expr, .. } => assert!(matches!(expr, Expr::CastInt(_))),
            _ => panic!(),
        }
        assert!(matches!(
            q.where_clause.unwrap(),
            Expr::IsNull { negated: true, .. }
        ));
    }

    #[test]
    fn unary_minus_and_not() {
        let q = parse("SELECT -x FROM t WHERE NOT a = 1 AND NOT (b = 2)").unwrap();
        match &q.select[0] {
            SelectItem::Expr { expr, .. } => {
                assert!(matches!(
                    expr,
                    Expr::Unary {
                        op: UnaryOp::Neg,
                        ..
                    }
                ))
            }
            _ => panic!(),
        }
        let w = q.where_clause.unwrap();
        assert_eq!(w.conjuncts().len(), 2);
    }
}
