//! Query planning: AST → physical plan.
//!
//! The planner performs the three in-DB optimizations the paper's design
//! depends on:
//!
//! 1. **Predicate pushdown** — top-level conjuncts that reference a single
//!    join input are pushed into that input (this is what makes BLEND's
//!    injected `alias.TableId IN (...)` rewrites restrict the *scan*, not
//!    just the join output).
//! 2. **Access-path selection** — each scan compares the exact cardinality
//!    of an inverted-index probe, a table-range probe, and a sequential
//!    scan, and drives the scan with the cheapest (the "database-level query
//!    optimizations" of Section V).
//! 3. **Aggregate extraction** — aggregate calls in SELECT/ORDER BY are
//!    deduplicated and computed once per group; outer expressions are
//!    rewritten to reference them.

use std::sync::Arc;

use blend_common::{BlendError, FxHashMap, FxHashSet, Result};
use blend_storage::{FactTable, FilterKernel, IdSet, ValuePred, ValueProbe};

use crate::ast::*;
use crate::expr::{compile, CExpr, ColInfo, Schema};
use crate::value::SqlValue;

/// One immutable view of a catalog: every registered fact table by
/// lowercase name.
pub type CatalogSnapshot = Arc<FxHashMap<String, Arc<dyn FactTable>>>;

/// Catalog interface the planner needs (implemented by `engine::Database`).
pub trait Catalog {
    /// The tables registered right now. [`plan_query`] takes exactly one
    /// snapshot per call and resolves every FROM item — subqueries
    /// included — against it, so a self-join can never pair the table from
    /// before a concurrent `SqlEngine::replace_table` with the one after.
    fn snapshot(&self) -> CatalogSnapshot;
}

/// How a scan reaches its rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessPath {
    /// Drive by inverted-index postings of the IN-list values.
    ValueIndex { n_values: usize, estimated: usize },
    /// Drive by the TableId range directory.
    TableIndex { n_tables: usize, estimated: usize },
    /// Full sequential scan.
    SeqScan { estimated: usize },
}

impl AccessPath {
    /// Estimated driving cardinality.
    pub fn estimated(&self) -> usize {
        match self {
            AccessPath::ValueIndex { estimated, .. }
            | AccessPath::TableIndex { estimated, .. }
            | AccessPath::SeqScan { estimated } => *estimated,
        }
    }

    /// Short label for reports ("value-index" / "table-index" / "seq").
    pub fn label(&self) -> &'static str {
        match self {
            AccessPath::ValueIndex { .. } => "value-index",
            AccessPath::TableIndex { .. } => "table-index",
            AccessPath::SeqScan { .. } => "seq",
        }
    }
}

/// Cheap per-position predicates evaluated before tuple materialization.
pub struct FastFilters {
    /// `CellValue IN (...)` probe (when not the driving access).
    pub value_probe: Option<ValueProbe>,
    /// `TableId IN (...)` set (when not the driving access).
    pub table_set: Option<FxHashSet<u32>>,
    /// `TableId NOT IN (...)` set.
    pub table_not_set: Option<FxHashSet<u32>>,
    /// `RowId < n` bound (exclusive).
    pub rowid_lt: Option<u32>,
    /// `Quadrant IS NOT NULL` (true) / `IS NULL` (false) requirement.
    pub quadrant_null: Option<bool>,
}

impl FastFilters {
    fn empty() -> Self {
        FastFilters {
            value_probe: None,
            table_set: None,
            table_not_set: None,
            rowid_lt: None,
            quadrant_null: None,
        }
    }

    /// Lower the filters into the batched [`FilterKernel`] both executors
    /// evaluate through [`FactTable::filter_batch`] /
    /// [`FactTable::filter_range`]. Compiled once per scan at plan time:
    /// the value probe keeps its engine lowering (dictionary codes on the
    /// column store — u32 compares instead of `probe_at` string compares),
    /// and the table hash sets lower into [`IdSet`]s (sorted slice or dense
    /// bitmap, chosen by cardinality). Field-for-field equivalent to the
    /// scalar [`fast_filters_pass`] oracle.
    pub fn compile_kernel(&self) -> FilterKernel {
        FilterKernel {
            value: self.value_probe.as_ref().map(|p| match p {
                ValueProbe::Codes(set) => ValuePred::Codes(IdSet::build(set.iter().copied())),
                ValueProbe::Strings(set) => ValuePred::Strings(set.clone()),
            }),
            table_in: self
                .table_set
                .as_ref()
                .map(|s| IdSet::build(s.iter().copied())),
            table_not_in: self
                .table_not_set
                .as_ref()
                .map(|s| IdSet::build(s.iter().copied())),
            rowid_lt: self.rowid_lt,
            quadrant_null: self.quadrant_null,
        }
    }
}

/// A physical scan of the fact table.
pub struct ScanPlan {
    pub table: Arc<dyn FactTable>,
    /// Alias used to qualify output columns.
    pub alias: String,
    pub access: AccessPath,
    /// Driving values (for `ValueIndex`).
    pub driving_values: Vec<String>,
    /// Driving table ids (for `TableIndex`).
    pub driving_tables: Vec<u32>,
    /// The scan's cheap per-position predicates, compiled once at plan time
    /// ([`FastFilters::compile_kernel`]) and evaluated by both executors'
    /// scan loops via the engine's [`FactTable::filter_batch`] /
    /// [`FactTable::filter_range`].
    pub kernel: FilterKernel,
    /// Residual predicate over the materialized 6-column tuple.
    pub residual: Option<CExpr>,
    pub schema: Schema,
}

/// A leaf input: a scan or a nested query.
pub enum InputPlan {
    Scan(Box<ScanPlan>),
    /// Subquery with its outer alias; output columns are re-qualified.
    Query(Box<QueryPlan>, String),
}

impl InputPlan {
    /// Output schema of the input.
    pub fn schema(&self) -> &Schema {
        match self {
            InputPlan::Scan(s) => &s.schema,
            InputPlan::Query(q, _) => &q.requalified_schema,
        }
    }
}

/// A left-deep join tree.
pub enum Tree {
    Leaf(InputPlan),
    Join {
        left: Box<Tree>,
        right: Box<Tree>,
        /// Equi-join keys as (left tuple offset, right tuple offset).
        keys: Vec<(usize, usize)>,
        /// Non-equi residual over the concatenated tuple.
        residual: Option<CExpr>,
        schema: Schema,
    },
}

impl Tree {
    /// Output schema.
    pub fn schema(&self) -> &Schema {
        match self {
            Tree::Leaf(i) => i.schema(),
            Tree::Join { schema, .. } => schema,
        }
    }
}

/// Compiled aggregate.
pub struct AggPlan {
    pub func: AggFunc,
    pub distinct: bool,
    /// `None` = COUNT(*).
    pub arg: Option<CExpr>,
}

/// Aggregation stage.
pub struct GroupPlan {
    pub group_exprs: Vec<CExpr>,
    pub aggs: Vec<AggPlan>,
}

/// A fully planned query.
pub struct QueryPlan {
    pub tree: Tree,
    /// Filter applied on the join output (conjuncts that could not be
    /// pushed down).
    pub post_filter: Option<CExpr>,
    pub group: Option<GroupPlan>,
    /// Output columns (qualifier retained for label disambiguation) and
    /// their expressions over the pre-projection schema.
    pub projection: Vec<(ColInfo, CExpr)>,
    pub order_by: Vec<(CExpr, bool)>,
    pub limit: Option<usize>,
    /// Output schema as seen by an *outer* query (bare names).
    pub output_schema: Schema,
    /// Output schema with this subquery's alias applied (set by the parent).
    pub requalified_schema: Schema,
}

impl QueryPlan {
    /// Human-readable result labels: bare column names unless duplicated,
    /// in which case the qualifier disambiguates (`q1.tableid`).
    pub fn output_labels(&self) -> Vec<String> {
        let names: Vec<&str> = self
            .projection
            .iter()
            .map(|(c, _)| c.name.as_str())
            .collect();
        self.projection
            .iter()
            .map(|(c, _)| {
                let dup = names.iter().filter(|n| **n == c.name).count() > 1;
                match (&c.qualifier, dup) {
                    (Some(q), true) => format!("{q}.{}", c.name),
                    _ => c.name.clone(),
                }
            })
            .collect()
    }
}

/// The six fact-table columns, in physical order.
pub const FACT_COLUMNS: [&str; 6] = [
    "cellvalue",
    "tableid",
    "columnid",
    "rowid",
    "superkey",
    "quadrant",
];

/// Plan a parsed query against one snapshot of a catalog.
pub fn plan_query(q: &Query, catalog: &dyn Catalog) -> Result<QueryPlan> {
    plan_on(q, &catalog.snapshot())
}

/// [`plan_query`] against an already-taken snapshot.
fn plan_on(q: &Query, catalog: &CatalogSnapshot) -> Result<QueryPlan> {
    // 1. Distribute top-level WHERE conjuncts: single-input conjuncts are
    //    pushed to their input, the rest stays as a post-filter.
    let mut from_items: Vec<&FromItem> = vec![&q.from];
    for j in &q.joins {
        from_items.push(&j.item);
    }
    let aliases: Vec<String> = from_items.iter().map(|f| item_alias(f)).collect();
    require_unique(&aliases)?;

    let mut pushed: Vec<Vec<Expr>> = vec![Vec::new(); from_items.len()];
    let mut post: Vec<Expr> = Vec::new();
    if let Some(w) = &q.where_clause {
        for conjunct in w.conjuncts() {
            match sole_input(conjunct, &aliases) {
                Some(idx) if from_items.len() > 1 => {
                    pushed[idx].push(strip_qualifier(conjunct, &aliases[idx]))
                }
                _ if from_items.len() == 1 => {
                    pushed[0].push(strip_qualifier(conjunct, &aliases[0]))
                }
                _ => post.push(conjunct.clone()),
            }
        }
    }

    // 2. Plan inputs left-deep.
    let mut tree = Tree::Leaf(plan_input(
        &q.from,
        Expr::and_all(pushed[0].clone()),
        catalog,
    )?);
    for (i, join) in q.joins.iter().enumerate() {
        let right = Tree::Leaf(plan_input(
            &join.item,
            Expr::and_all(pushed[i + 1].clone()),
            catalog,
        )?);
        let schema = tree.schema().concat(right.schema());
        // Split ON into equi-keys and residuals.
        let mut keys = Vec::new();
        let mut residuals = Vec::new();
        for c in join.on.conjuncts() {
            match as_equi_key(c, tree.schema(), right.schema()) {
                Some(k) => keys.push(k),
                None => residuals.push(compile(c, &schema)?),
            }
        }
        if keys.is_empty() {
            return Err(BlendError::SqlPlan(
                "JOIN requires at least one equality condition".into(),
            ));
        }
        let residual = fold_cexpr_and(residuals);
        let mut right = right;
        sideways_pushdown(&mut tree, &mut right, &keys);
        tree = Tree::Join {
            left: Box::new(tree),
            right: Box::new(right),
            keys,
            residual,
            schema,
        };
    }

    let input_schema = tree.schema().clone();
    let post_filter = match Expr::and_all(post) {
        Some(e) => Some(compile(&e, &input_schema)?),
        None => None,
    };

    // 3. Aggregation.
    let select_exprs: Vec<(Option<String>, Expr)> = expand_select(&q.select, &input_schema)?;
    // Resolve ORDER BY references to select aliases up front, so alias
    // sorting works with and without GROUP BY.
    let order_pre: Vec<(Expr, bool)> = q
        .order_by
        .iter()
        .map(|o| (resolve_alias(&o.expr, &select_exprs), o.desc))
        .collect();
    let has_agg = !q.group_by.is_empty()
        || select_exprs.iter().any(|(_, e)| e.contains_agg())
        || order_pre.iter().any(|(e, _)| e.contains_agg());

    #[allow(clippy::type_complexity)]
    let (group, current_schema, select_final, order_final): (
        Option<GroupPlan>,
        Schema,
        Vec<(Option<String>, Expr)>,
        Vec<(Expr, bool)>,
    ) = if has_agg {
        // Collect aggregates from everywhere they may appear.
        let mut agg_asts: Vec<&Expr> = Vec::new();
        for (_, e) in &select_exprs {
            e.collect_aggs(&mut agg_asts);
        }
        for (e, _) in &order_pre {
            e.collect_aggs(&mut agg_asts);
        }
        let agg_asts: Vec<Expr> = agg_asts.into_iter().cloned().collect();

        let group_exprs: Vec<CExpr> = q
            .group_by
            .iter()
            .map(|g| compile(g, &input_schema))
            .collect::<Result<_>>()?;
        let aggs: Vec<AggPlan> = agg_asts
            .iter()
            .map(|a| match a {
                Expr::Agg {
                    func,
                    distinct,
                    arg,
                } => {
                    if *distinct && *func != AggFunc::Count {
                        return Err(BlendError::SqlPlan(
                            "DISTINCT is only supported with COUNT".into(),
                        ));
                    }
                    Ok(AggPlan {
                        func: *func,
                        distinct: *distinct,
                        arg: arg
                            .as_ref()
                            .map(|e| compile(e, &input_schema))
                            .transpose()?,
                    })
                }
                _ => unreachable!("collect_aggs returns Agg nodes"),
            })
            .collect::<Result<_>>()?;

        // Post-aggregation schema: __g0..__gN, __a0..__aM.
        let mut cols = Vec::new();
        for i in 0..q.group_by.len() {
            cols.push(ColInfo::bare(&format!("__g{i}")));
        }
        for i in 0..aggs.len() {
            cols.push(ColInfo::bare(&format!("__a{i}")));
        }
        let post_schema = Schema::new(cols);

        // Rewrite select/order expressions onto the post-agg schema.
        let select_final = select_exprs
            .iter()
            .map(|(a, e)| {
                Ok((
                    a.clone(),
                    substitute_agg(e, &q.group_by, &agg_asts).ok_or_else(|| {
                        BlendError::SqlPlan(format!(
                            "expression {e:?} must appear in GROUP BY or be an aggregate"
                        ))
                    })?,
                ))
            })
            .collect::<Result<Vec<_>>>()?;
        let order_final = order_pre
            .iter()
            .map(|(e, desc)| {
                Ok((
                    substitute_agg(e, &q.group_by, &agg_asts).ok_or_else(|| {
                        BlendError::SqlPlan(
                            "ORDER BY expression must be grouped or aggregated".into(),
                        )
                    })?,
                    *desc,
                ))
            })
            .collect::<Result<Vec<_>>>()?;

        (
            Some(GroupPlan { group_exprs, aggs }),
            post_schema,
            select_final,
            order_final,
        )
    } else {
        (None, input_schema.clone(), select_exprs.clone(), order_pre)
    };

    // 4. Compile the projection. Output names come from the *original*
    // select expressions (aliases, then column names), not the rewritten
    // post-aggregation forms.
    let out_infos: Vec<ColInfo> = select_exprs
        .iter()
        .enumerate()
        .map(|(i, (alias, e))| match alias {
            Some(a) => ColInfo::bare(a),
            None => match e {
                Expr::Column { qualifier, name } => ColInfo {
                    qualifier: qualifier.clone(),
                    name: name.clone(),
                },
                _ => ColInfo::bare(&format!("col{i}")),
            },
        })
        .collect();
    let mut projection = Vec::new();
    for (info, (_, e)) in out_infos.iter().zip(select_final.iter()) {
        projection.push((info.clone(), compile(e, &current_schema)?));
    }

    // 5. Compile ORDER BY (aliases were resolved up front).
    let mut order_by = Vec::new();
    for (e, desc) in order_final {
        order_by.push((compile(&e, &current_schema)?, desc));
    }

    let out_cols: Vec<ColInfo> = out_infos.iter().map(|c| ColInfo::bare(&c.name)).collect();
    Ok(QueryPlan {
        tree,
        post_filter,
        group,
        projection,
        order_by,
        limit: q.limit,
        output_schema: Schema::new(out_cols.clone()),
        requalified_schema: Schema::new(out_cols),
    })
}

/// Replace a bare column reference that names a select alias with the
/// aliased expression (standard SQL ORDER BY alias resolution).
fn resolve_alias(e: &Expr, select: &[(Option<String>, Expr)]) -> Expr {
    if let Expr::Column {
        qualifier: None,
        name,
    } = e
    {
        if let Some((_, aliased)) = select
            .iter()
            .find(|(a, _)| a.as_deref() == Some(name.as_str()))
        {
            return aliased.clone();
        }
    }
    e.clone()
}

/// Effective alias of a FROM item (explicit alias, else the table name;
/// subqueries require an alias only when referenced, so default to "__sq").
fn item_alias(f: &FromItem) -> String {
    if let Some(a) = &f.alias {
        return a.clone();
    }
    match &f.source {
        TableSource::Named(n) => n.clone(),
        TableSource::Subquery(_) => "__sq".to_string(),
    }
}

fn require_unique(aliases: &[String]) -> Result<()> {
    let mut seen = FxHashSet::default();
    for a in aliases {
        if !seen.insert(a.clone()) {
            return Err(BlendError::SqlPlan(format!("duplicate table alias `{a}`")));
        }
    }
    Ok(())
}

/// If every column in `e` is qualified with the same single alias, return
/// that input's index.
fn sole_input(e: &Expr, aliases: &[String]) -> Option<usize> {
    let mut quals: FxHashSet<&str> = FxHashSet::default();
    collect_qualifiers(e, &mut quals);
    if quals.len() != 1 {
        return None;
    }
    let q = *quals.iter().next().expect("len 1");
    aliases.iter().position(|a| a == q)
}

fn collect_qualifiers<'a>(e: &'a Expr, out: &mut FxHashSet<&'a str>) {
    match e {
        Expr::Column { qualifier, .. } => {
            // Unqualified columns poison pushdown (can't attribute them).
            out.insert(qualifier.as_deref().unwrap_or("\0unqualified"));
        }
        Expr::Unary { expr, .. } | Expr::Abs(expr) | Expr::CastInt(expr) => {
            collect_qualifiers(expr, out)
        }
        Expr::Binary { left, right, .. } => {
            collect_qualifiers(left, out);
            collect_qualifiers(right, out);
        }
        Expr::InList { expr, list, .. } => {
            collect_qualifiers(expr, out);
            for i in list {
                collect_qualifiers(i, out);
            }
        }
        Expr::IsNull { expr, .. } => collect_qualifiers(expr, out),
        Expr::Agg { arg: Some(a), .. } => collect_qualifiers(a, out),
        _ => {}
    }
}

/// Remove a qualifier from column references so a pushed-down predicate
/// compiles inside the single-input context.
fn strip_qualifier(e: &Expr, alias: &str) -> Expr {
    match e {
        Expr::Column { qualifier, name } if qualifier.as_deref() == Some(alias) => Expr::Column {
            qualifier: None,
            name: name.clone(),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(strip_qualifier(expr, alias)),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(strip_qualifier(left, alias)),
            op: *op,
            right: Box::new(strip_qualifier(right, alias)),
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(strip_qualifier(expr, alias)),
            list: list.iter().map(|i| strip_qualifier(i, alias)).collect(),
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(strip_qualifier(expr, alias)),
            negated: *negated,
        },
        Expr::Abs(inner) => Expr::Abs(Box::new(strip_qualifier(inner, alias))),
        Expr::CastInt(inner) => Expr::CastInt(Box::new(strip_qualifier(inner, alias))),
        other => other.clone(),
    }
}

/// Plan one FROM item, ANDing `extra` into its predicate.
fn plan_input(f: &FromItem, extra: Option<Expr>, catalog: &CatalogSnapshot) -> Result<InputPlan> {
    let alias = item_alias(f);
    match &f.source {
        TableSource::Named(name) => {
            let table = catalog
                .get(&name.to_lowercase())
                .ok_or_else(|| BlendError::SqlPlan(format!("unknown table `{name}` in catalog")))?;
            plan_scan(table.clone(), &alias, extra).map(|s| InputPlan::Scan(Box::new(s)))
        }
        TableSource::Subquery(sub) => {
            // Push the extra predicate inside the subquery when that is
            // semantics-preserving (no GROUP BY / LIMIT under it).
            let mut sub = (**sub).clone();
            if let Some(extra) = extra {
                if sub.group_by.is_empty() && sub.limit.is_none() {
                    let inner_alias = item_alias(&sub.from);
                    // Only safe with a single input; otherwise keep it at
                    // subquery level via WHERE.
                    let rewritten = if sub.joins.is_empty() {
                        strip_qualifier(&extra, &inner_alias)
                    } else {
                        extra
                    };
                    sub.where_clause = match sub.where_clause.take() {
                        Some(w) => Expr::and_all(vec![w, rewritten]),
                        None => Some(rewritten),
                    };
                } else {
                    return Err(BlendError::SqlPlan(
                        "cannot push predicate into aggregated subquery".into(),
                    ));
                }
            }
            let mut plan = plan_on(&sub, catalog)?;
            // Re-qualify output columns with the outer alias.
            plan.requalified_schema = Schema::new(
                plan.output_schema
                    .cols
                    .iter()
                    .map(|c| ColInfo::qualified(&alias, &c.name))
                    .collect(),
            );
            Ok(InputPlan::Query(Box::new(plan), alias))
        }
    }
}

/// Plan a base-table scan: classify predicate conjuncts, choose the access
/// path by exact cardinality, and compile what remains as residual.
fn plan_scan(table: Arc<dyn FactTable>, alias: &str, predicate: Option<Expr>) -> Result<ScanPlan> {
    let schema = Schema::new(
        FACT_COLUMNS
            .iter()
            .map(|c| ColInfo::qualified(alias, c))
            .collect(),
    );

    let mut fast = FastFilters::empty();
    let mut value_list: Option<Vec<String>> = None;
    let mut table_list: Option<Vec<u32>> = None;
    let mut generic: Vec<Expr> = Vec::new();

    if let Some(pred) = &predicate {
        for c in pred.conjuncts() {
            match classify_conjunct(c) {
                Classified::ValueIn(vs) => merge_value_list(&mut value_list, vs),
                Classified::TableIn(ts) => merge_table_list(&mut table_list, ts),
                Classified::TableNotIn(ts) => {
                    let set = fast.table_not_set.get_or_insert_with(FxHashSet::default);
                    set.extend(ts);
                }
                Classified::RowIdLt(n) => {
                    let bound = fast.rowid_lt.get_or_insert(n);
                    *bound = (*bound).min(n);
                }
                Classified::QuadrantNull(want_null) => match fast.quadrant_null {
                    // `Quadrant IS NULL AND Quadrant IS NOT NULL` is
                    // unsatisfiable; an impossible row-id bound makes the
                    // scan match nothing (last-conjunct-wins would silently
                    // drop one side and depend on predicate order).
                    Some(prev) if prev != want_null => fast.rowid_lt = Some(0),
                    _ => fast.quadrant_null = Some(want_null),
                },
                Classified::Other => generic.push(c.clone()),
            }
        }
    }

    // Canonical driving order: postings are visited in sorted, deduplicated
    // literal order, so the chosen plan and the emitted row order do not
    // depend on how the predicate happened to spell its IN lists. (A
    // duplicated literal would otherwise also emit its postings twice.)
    // Query fingerprinting (`fingerprint`) relies on this to treat
    // list-order-permuted queries as one cacheable query.
    if let Some(vs) = value_list.as_mut() {
        vs.sort_unstable();
        vs.dedup();
    }
    if let Some(ts) = table_list.as_mut() {
        ts.sort_unstable();
        ts.dedup();
    }

    // Exact cardinalities from the engine's catalog.
    let n_rows = table.len();
    let value_card = value_list
        .as_ref()
        .map(|vs| vs.iter().map(|v| table.posting_len(v)).sum::<usize>());
    let table_card = table_list.as_ref().map(|ts| {
        ts.iter()
            .map(|t| table.table_postings(*t).len())
            .sum::<usize>()
    });

    let access = match (value_card, table_card) {
        (Some(vc), Some(tc)) if vc <= tc => AccessPath::ValueIndex {
            n_values: value_list.as_ref().map_or(0, Vec::len),
            estimated: vc,
        },
        (Some(_), Some(tc)) => AccessPath::TableIndex {
            n_tables: table_list.as_ref().map_or(0, Vec::len),
            estimated: tc,
        },
        (Some(vc), None) => AccessPath::ValueIndex {
            n_values: value_list.as_ref().map_or(0, Vec::len),
            estimated: vc,
        },
        (None, Some(tc)) => AccessPath::TableIndex {
            n_tables: table_list.as_ref().map_or(0, Vec::len),
            estimated: tc,
        },
        (None, None) => AccessPath::SeqScan { estimated: n_rows },
    };

    // Whichever candidate is not driving becomes a fast residual.
    let mut driving_values = Vec::new();
    let mut driving_tables = Vec::new();
    match &access {
        AccessPath::ValueIndex { .. } => {
            driving_values = value_list.unwrap_or_default();
            if let Some(ts) = table_list {
                fast.table_set = Some(ts.into_iter().collect());
            }
        }
        AccessPath::TableIndex { .. } => {
            driving_tables = table_list.unwrap_or_default();
            if let Some(vs) = value_list {
                let refs: Vec<&str> = vs.iter().map(String::as_str).collect();
                fast.value_probe = Some(table.make_probe(&refs));
            }
        }
        AccessPath::SeqScan { .. } => {
            if let Some(vs) = value_list {
                let refs: Vec<&str> = vs.iter().map(String::as_str).collect();
                fast.value_probe = Some(table.make_probe(&refs));
            }
            if let Some(ts) = table_list {
                fast.table_set = Some(ts.into_iter().collect());
            }
        }
    }

    let residual = match Expr::and_all(generic) {
        Some(e) => Some(compile(&e, &schema)?),
        None => None,
    };

    Ok(ScanPlan {
        table,
        alias: alias.to_string(),
        access,
        driving_values,
        driving_tables,
        kernel: fast.compile_kernel(),
        residual,
        schema,
    })
}

enum Classified {
    ValueIn(Vec<String>),
    TableIn(Vec<u32>),
    TableNotIn(Vec<u32>),
    RowIdLt(u32),
    QuadrantNull(bool),
    Other,
}

fn classify_conjunct(e: &Expr) -> Classified {
    match e {
        Expr::InList {
            expr,
            list,
            negated,
        } => match unqualified_fact_col(expr) {
            Some("cellvalue") if !negated => {
                let mut vs = Vec::with_capacity(list.len());
                for item in list {
                    match item {
                        Expr::Str(s) => vs.push(s.clone()),
                        Expr::Int(i) => vs.push(i.to_string()),
                        Expr::Float(f) => vs.push(f.to_string()),
                        _ => return Classified::Other,
                    }
                }
                Classified::ValueIn(vs)
            }
            Some("tableid") => {
                let mut ts = Vec::with_capacity(list.len());
                for item in list {
                    match u32_literal(item) {
                        Some(t) => ts.push(t),
                        None => return Classified::Other,
                    }
                }
                if *negated {
                    Classified::TableNotIn(ts)
                } else {
                    Classified::TableIn(ts)
                }
            }
            _ => Classified::Other,
        },
        Expr::Binary {
            left,
            op: BinOp::Eq,
            right,
        } => match (unqualified_fact_col(left), u32_literal(right)) {
            (Some("cellvalue"), _) => match right.as_ref() {
                Expr::Str(s) => Classified::ValueIn(vec![s.clone()]),
                _ => Classified::Other,
            },
            (Some("tableid"), Some(t)) => Classified::TableIn(vec![t]),
            _ => Classified::Other,
        },
        Expr::Binary {
            left,
            op: BinOp::Lt,
            right,
        } => match (unqualified_fact_col(left), u32_literal(right)) {
            (Some("rowid"), Some(n)) => Classified::RowIdLt(n),
            _ => Classified::Other,
        },
        Expr::Binary {
            left,
            op: BinOp::Le,
            right,
        } => match (unqualified_fact_col(left), u32_literal(right)) {
            (Some("rowid"), Some(n)) => Classified::RowIdLt(n.saturating_add(1)),
            _ => Classified::Other,
        },
        Expr::IsNull { expr, negated } => match unqualified_fact_col(expr) {
            Some("quadrant") => Classified::QuadrantNull(!negated),
            _ => Classified::Other,
        },
        _ => Classified::Other,
    }
}

/// A literal usable as a `u32` id/bound: a non-negative `Int`, or an
/// integral `Float` spelling of one (`TableId = 2.0` must classify — and
/// therefore plan and order rows — exactly like `TableId = 2`, which it
/// compares equal to). Out-of-range literals fall back to the generic
/// residual path instead of wrapping.
fn u32_literal(e: &Expr) -> Option<u32> {
    match e {
        Expr::Int(i) => u32::try_from(*i).ok(),
        Expr::Float(f) if f.fract() == 0.0 && *f >= 0.0 && *f <= u32::MAX as f64 => Some(*f as u32),
        _ => None,
    }
}

/// Column name if `e` is a (possibly alias-qualified) fact column.
fn unqualified_fact_col(e: &Expr) -> Option<&str> {
    match e {
        Expr::Column { name, .. } if FACT_COLUMNS.contains(&name.as_str()) => Some(name.as_str()),
        _ => None,
    }
}

fn merge_value_list(acc: &mut Option<Vec<String>>, vs: Vec<String>) {
    match acc {
        // Two CellValue IN conjuncts intersect; keep the smaller for the
        // access path (the other is re-checked by residual anyway — but we
        // conservatively keep the intersection).
        Some(existing) => {
            let set: FxHashSet<&str> = vs.iter().map(String::as_str).collect();
            existing.retain(|v| set.contains(v.as_str()));
        }
        None => *acc = Some(vs),
    }
}

fn merge_table_list(acc: &mut Option<Vec<u32>>, ts: Vec<u32>) {
    match acc {
        Some(existing) => {
            let set: FxHashSet<u32> = ts.into_iter().collect();
            existing.retain(|t| set.contains(t));
        }
        None => *acc = Some(ts),
    }
}

/// Sideways information passing: when two identity scans of the same fact
/// table join on `TableId`, and one side is selective (index-driven) while
/// the other would scan sequentially, derive the selective side's distinct
/// table ids from its postings and drive the other side through the table
/// index instead.
///
/// This is what a real column store's optimizer does with join bloom
/// filters / zone maps, and it is the reason the paper's correlation seeker
/// (Listing 3) is viable: the `Quadrant IS NOT NULL` side would otherwise
/// scan the whole lake index for every query.
fn sideways_pushdown(left: &mut Tree, right: &mut Tree, keys: &[(usize, usize)]) {
    // TableId lives at offset 1 in the canonical fact-tuple layout; both
    // sides must be identity projections over a base scan.
    if !keys.contains(&(FACT_TABLEID_OFFSET, FACT_TABLEID_OFFSET)) {
        return;
    }
    let (Some(l_est), Some(r_est)) = (
        identity_scan(left).map(|s| s.access.estimated()),
        identity_scan(right).map(|s| s.access.estimated()),
    ) else {
        return;
    };
    // Feed the smaller index-driven side into the larger sequential side.
    let (src_est, dst_est, src_first) = if l_est <= r_est {
        (l_est, r_est, true)
    } else {
        (r_est, l_est, false)
    };
    // Only worthwhile when the destination is a seq scan and the source is
    // meaningfully selective.
    const MAX_SOURCE_POSITIONS: usize = 200_000;
    if src_est > MAX_SOURCE_POSITIONS || src_est * 2 > dst_est {
        return;
    }
    let (src_tree, dst_tree) = if src_first {
        (&mut *left, &mut *right)
    } else {
        (&mut *right, &mut *left)
    };
    let Some(src) = identity_scan_mut(src_tree) else {
        return;
    };
    if !matches!(
        src.access,
        AccessPath::ValueIndex { .. } | AccessPath::TableIndex { .. }
    ) {
        return;
    }
    let ids = scan_table_ids(src);
    let Some(dst) = identity_scan_mut(dst_tree) else {
        return;
    };
    if !matches!(dst.access, AccessPath::SeqScan { .. }) {
        return;
    }
    let new_est: usize = ids.iter().map(|&t| dst.table.table_postings(t).len()).sum();
    if new_est >= dst.access.estimated() {
        return;
    }
    // A previously chosen value probe (if any) stays as a fast residual.
    dst.access = AccessPath::TableIndex {
        n_tables: ids.len(),
        estimated: new_est,
    };
    dst.driving_tables = ids;
}

/// Offset of `TableId` in the canonical fact-tuple layout.
const FACT_TABLEID_OFFSET: usize = 1;

/// The base scan behind a tree, provided every intermediate query is an
/// identity projection (no grouping/limit/filter/ordering), so tuple
/// offsets line up with the physical fact columns. Also used by the
/// positional executor to unwrap the identity subqueries the MC/C seeker
/// templates generate.
pub(crate) fn identity_scan(tree: &Tree) -> Option<&ScanPlan> {
    match tree {
        Tree::Leaf(InputPlan::Scan(s)) => Some(s),
        Tree::Leaf(InputPlan::Query(qp, _))
            if qp.group.is_none()
                && qp.limit.is_none()
                && qp.post_filter.is_none()
                && qp.order_by.is_empty()
                && qp
                    .projection
                    .iter()
                    .enumerate()
                    .all(|(i, (_, e))| matches!(e, CExpr::Col(j) if *j == i)) =>
        {
            identity_scan(&qp.tree)
        }
        _ => None,
    }
}

fn identity_scan_mut(tree: &mut Tree) -> Option<&mut ScanPlan> {
    match tree {
        Tree::Leaf(InputPlan::Scan(s)) => Some(s),
        Tree::Leaf(InputPlan::Query(qp, _))
            if qp.group.is_none()
                && qp.limit.is_none()
                && qp.post_filter.is_none()
                && qp.order_by.is_empty()
                && qp
                    .projection
                    .iter()
                    .enumerate()
                    .all(|(i, (_, e))| matches!(e, CExpr::Col(j) if *j == i)) =>
        {
            identity_scan_mut(&mut qp.tree)
        }
        _ => None,
    }
}

/// Distinct table ids a scan's driving access can produce (a safe
/// over-approximation: kernel predicates other than the table filters are
/// ignored).
fn scan_table_ids(scan: &ScanPlan) -> Vec<u32> {
    let mut ids: FxHashSet<u32> = FxHashSet::default();
    match &scan.access {
        AccessPath::ValueIndex { .. } => {
            for v in &scan.driving_values {
                for &pos in scan.table.postings(v) {
                    ids.insert(scan.table.table_at(pos as usize));
                }
            }
        }
        AccessPath::TableIndex { .. } => {
            ids.extend(scan.driving_tables.iter().copied());
        }
        AccessPath::SeqScan { .. } => {
            return Vec::new();
        }
    }
    if let Some(set) = &scan.kernel.table_in {
        ids.retain(|&t| set.contains(t));
    }
    if let Some(set) = &scan.kernel.table_not_in {
        ids.retain(|&t| !set.contains(t));
    }
    let mut out: Vec<u32> = ids.into_iter().collect();
    out.sort_unstable();
    out
}

/// Recognize `a.x = b.y` with sides in different inputs.
fn as_equi_key(e: &Expr, left: &Schema, right: &Schema) -> Option<(usize, usize)> {
    if let Expr::Binary {
        left: l,
        op: BinOp::Eq,
        right: r,
    } = e
    {
        if let (
            Expr::Column {
                qualifier: ql,
                name: nl,
            },
            Expr::Column {
                qualifier: qr,
                name: nr,
            },
        ) = (l.as_ref(), r.as_ref())
        {
            let l_in_left = left.resolve(ql.as_deref(), nl).ok();
            let r_in_right = right.resolve(qr.as_deref(), nr).ok();
            if let (Some(a), Some(b)) = (l_in_left, r_in_right) {
                return Some((a, b));
            }
            // Reversed orientation.
            let l_in_right = right.resolve(ql.as_deref(), nl).ok();
            let r_in_left = left.resolve(qr.as_deref(), nr).ok();
            if let (Some(b), Some(a)) = (l_in_right, r_in_left) {
                return Some((a, b));
            }
        }
    }
    None
}

fn fold_cexpr_and(mut es: Vec<CExpr>) -> Option<CExpr> {
    let first = if es.is_empty() {
        return None;
    } else {
        es.remove(0)
    };
    Some(es.into_iter().fold(first, |acc, e| {
        CExpr::Binary(Box::new(acc), BinOp::And, Box::new(e))
    }))
}

/// Expand the select list; `*` becomes one item per input column.
fn expand_select(items: &[SelectItem], input: &Schema) -> Result<Vec<(Option<String>, Expr)>> {
    let mut out = Vec::new();
    for item in items {
        match item {
            SelectItem::Wildcard => {
                for c in &input.cols {
                    out.push((
                        None,
                        Expr::Column {
                            qualifier: c.qualifier.clone(),
                            name: c.name.clone(),
                        },
                    ));
                }
            }
            SelectItem::Expr { expr, alias } => out.push((alias.clone(), expr.clone())),
        }
    }
    Ok(out)
}

/// Rewrite an expression onto the post-aggregation schema: group-by
/// subtrees become `__gN`, aggregate calls become `__aM`. Returns `None`
/// if a bare column survives (i.e. is neither grouped nor aggregated).
fn substitute_agg(e: &Expr, groups: &[Expr], aggs: &[Expr]) -> Option<Expr> {
    if let Some(i) = groups.iter().position(|g| g == e) {
        return Some(Expr::col(&format!("__g{i}")));
    }
    if let Some(i) = aggs.iter().position(|a| a == e) {
        return Some(Expr::col(&format!("__a{i}")));
    }
    Some(match e {
        Expr::Column { .. } => return None,
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(substitute_agg(expr, groups, aggs)?),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(substitute_agg(left, groups, aggs)?),
            op: *op,
            right: Box::new(substitute_agg(right, groups, aggs)?),
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(substitute_agg(expr, groups, aggs)?),
            list: list.clone(),
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(substitute_agg(expr, groups, aggs)?),
            negated: *negated,
        },
        Expr::Abs(inner) => Expr::Abs(Box::new(substitute_agg(inner, groups, aggs)?)),
        Expr::CastInt(inner) => Expr::CastInt(Box::new(substitute_agg(inner, groups, aggs)?)),
        leaf => leaf.clone(),
    })
}

/// Scalar evaluation of the fast filters for one physical position.
///
/// No executor runs this anymore — scans evaluate the compiled
/// [`FilterKernel`] a batch at a time through
/// [`FactTable::filter_batch`] / [`FactTable::filter_range`] — but it stays
/// alive as the **test oracle**: the `filter_kernel_parity` proptest suite
/// pins every engine's batched output to this function byte-for-byte.
#[inline]
pub fn fast_filters_pass(table: &dyn FactTable, pos: usize, fast: &FastFilters) -> bool {
    if let Some(bound) = fast.rowid_lt {
        if table.row_at(pos) >= bound {
            return false;
        }
    }
    if let Some(set) = &fast.table_set {
        if !set.contains(&table.table_at(pos)) {
            return false;
        }
    }
    if let Some(set) = &fast.table_not_set {
        if set.contains(&table.table_at(pos)) {
            return false;
        }
    }
    if let Some(want_null) = fast.quadrant_null {
        if table.quadrant_at(pos).is_none() != want_null {
            return false;
        }
    }
    if let Some(probe) = &fast.value_probe {
        if !table.probe_at(pos, probe) {
            return false;
        }
    }
    true
}

/// Materialize the 6-column tuple for a physical position.
#[inline]
pub fn materialize(table: &dyn FactTable, pos: usize) -> Vec<SqlValue> {
    vec![
        SqlValue::Text(Arc::from(table.value_at(pos))),
        SqlValue::Int(table.table_at(pos) as i64),
        SqlValue::Int(table.column_at(pos) as i64),
        SqlValue::Int(table.row_at(pos) as i64),
        SqlValue::U128(table.superkey_at(pos)),
        match table.quadrant_at(pos) {
            None => SqlValue::Null,
            Some(b) => SqlValue::Int(b as i64),
        },
    ]
}
