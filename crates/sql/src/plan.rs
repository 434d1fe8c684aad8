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
//!
//! **One resolution per scan:** a scan's `CellValue IN` lists become one
//! list of `&str`s, sorted and deduplicated once in string order (the
//! postings' visit order, so rows never depend on spelling), then looked
//! up once as dictionary codes ([`ValueList`]) for the cardinality, the
//! driving postings, the probe and the column-index grouping alike; the
//! row store, with no dictionary, finds postings by string.

use std::convert::Infallible;
use std::sync::Arc;

use blend_common::{BlendError, FxHashMap, FxHashSet, Result};
use blend_storage::{FactTable, FilterKernel, IdSet, ValuePred};

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

/// A physical scan of the fact table.
pub struct ScanPlan {
    pub table: Arc<dyn FactTable>,
    /// Alias used to qualify output columns.
    pub alias: String,
    pub access: AccessPath,
    /// Driving values (for `ValueIndex`), resolved against `table`.
    pub driving_values: ValueList,
    /// Driving table ids (for `TableIndex`).
    pub driving_tables: Vec<u32>,
    /// The scan's cheap per-position predicates, built once by the planner
    /// (`TableId` lists as [`IdSet`]s, `CellValue IN` as the engine's
    /// [`make_probe`](FactTable::make_probe)) and evaluated by both
    /// executors through `ScanPlan::filter`.
    pub kernel: FilterKernel,
    /// Residual predicate over the materialized 6-column tuple.
    pub residual: Option<CExpr>,
    pub schema: Schema,
}

/// One ordered input segment of a scan: a postings list or a contiguous
/// position range. Segments in [`ScanPlan::segments`] order, positions in
/// segment order, are the scan's visit order — which is what makes both
/// executors' scans, and the parallel scan's morsel-order merge, agree
/// byte for byte.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Seg<'a> {
    /// Inverted-index postings of one driving value.
    Postings(&'a [u32]),
    /// Physical positions `[lo, hi)` (a table range or the whole table).
    Range(usize, usize),
}

impl Seg<'_> {
    /// Number of candidate positions in the segment.
    pub(crate) fn len(&self) -> usize {
        match self {
            Seg::Postings(p) => p.len(),
            Seg::Range(lo, hi) => hi - lo,
        }
    }
}

impl ScanPlan {
    /// The access path's segments in visit order: the driving values'
    /// postings, the driving tables' ranges, or the whole table.
    pub(crate) fn segments(&self) -> Vec<Seg<'_>> {
        let table = self.table.as_ref();
        match &self.access {
            AccessPath::ValueIndex { .. } => (self.driving_values.postings(table).into_iter())
                .map(Seg::Postings)
                .collect(),
            AccessPath::TableIndex { .. } => self
                .driving_tables
                .iter()
                .map(|&t| {
                    let r = table.directory().table_postings(t);
                    Seg::Range(r.start, r.end)
                })
                .collect(),
            AccessPath::SeqScan { .. } => vec![Seg::Range(0, table.len())],
        }
    }

    /// Append the positions of `seg[start..end]` that pass the kernel to
    /// `sel`, in order: postings through [`FactTable::filter_batch`], ranges
    /// straight off the engine's columns through [`FactTable::filter_range`].
    /// Filtering consecutive sub-ranges appends what one call over the
    /// whole segment would.
    pub(crate) fn filter(&self, seg: Seg<'_>, start: usize, end: usize, sel: &mut Vec<u32>) {
        let (table, kernel) = (self.table.as_ref(), &self.kernel);
        match seg {
            Seg::Postings(p) => table.filter_batch(kernel, &p[start..end], sel),
            Seg::Range(lo, _) => table.filter_range(kernel, lo + start, lo + end, sel),
        }
    }
}

/// A scan's `CellValue IN` list, distinct and in canonical order, looked
/// up once (module docs).
#[derive(Debug, Clone)]
pub enum ValueList {
    /// The codes of the values in the dictionary (the column store).
    Codes(Vec<u32>),
    /// The values (the row store, which has no dictionary).
    Strings(Vec<Box<str>>),
}

impl ValueList {
    /// `values` (sorted, distinct) as `table` reads them.
    fn resolve(table: &dyn FactTable, values: &[&str]) -> ValueList {
        let mut found = Vec::with_capacity(values.len());
        match table.has_dictionary() {
            true => {
                table.resolve(values, false, &mut found);
                ValueList::Codes(found.iter().filter_map(|v| v.code).collect())
            }
            false => ValueList::Strings(values.iter().map(|&v| Box::from(v)).collect()),
        }
    }

    /// Each value's postings in `table`, in list order.
    pub(crate) fn postings<'t>(&'t self, table: &'t dyn FactTable) -> Vec<&'t [u32]> {
        match self {
            ValueList::Codes(codes) => codes.iter().map(|&c| table.code_postings(c)).collect(),
            ValueList::Strings(strings) => strings.iter().map(|s| table.postings(s)).collect(),
        }
    }

    /// The engine's probe for the list ([`FactTable::make_probe`]).
    fn into_probe(self, table: &dyn FactTable) -> ValuePred {
        match self {
            ValueList::Codes(codes) => ValuePred::Codes(IdSet::build(codes)),
            ValueList::Strings(vs) => {
                table.make_probe(&vs.iter().map(|v| &**v).collect::<Vec<_>>())
            }
        }
    }
}

/// A left-deep join tree over fact-table scans (a FROM subquery is inlined
/// into the scan it reads: `plan_input`).
pub enum Tree {
    Leaf(Box<ScanPlan>),
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
            Tree::Leaf(scan) => &scan.schema,
            Tree::Join { schema, .. } => schema,
        }
    }

    /// Its scans, left to right.
    pub(crate) fn scans(&self) -> Vec<&ScanPlan> {
        match self {
            Tree::Leaf(scan) => vec![scan],
            Tree::Join { left, right, .. } => [left.scans(), right.scans()].concat(),
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
    let catalog = &catalog.snapshot();
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
    let mut leaf = |item: &FromItem, i: usize| -> Result<Tree> {
        let scan = plan_input(item, std::mem::take(&mut pushed[i]), catalog)?;
        Ok(Tree::Leaf(Box::new(scan)))
    };
    let mut tree = leaf(&q.from, 0)?;
    for (i, join) in q.joins.iter().enumerate() {
        let right = leaf(&join.item, i + 1)?;
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

    Ok(QueryPlan {
        tree,
        post_filter,
        group,
        projection,
        order_by,
        limit: q.limit,
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

pub(crate) fn collect_qualifiers<'a>(e: &'a Expr, out: &mut FxHashSet<&'a str>) {
    match e {
        // Unqualified columns poison pushdown (can't attribute them).
        Expr::Column { qualifier, .. } => {
            out.insert(qualifier.as_deref().unwrap_or("\0unqualified"));
        }
        _ => e.children().for_each(|c| collect_qualifiers(c, out)),
    }
}

/// Remove a qualifier from column references so a pushed-down predicate
/// compiles inside the single-input context. An aggregate is kept as it is.
pub(crate) fn strip_qualifier(e: &Expr, alias: &str) -> Expr {
    match e {
        Expr::Column { qualifier, name } if qualifier.as_deref() == Some(alias) => Expr::Column {
            qualifier: None,
            name: name.clone(),
        },
        Expr::Agg { .. } => e.clone(),
        _ => {
            let stripped = e.try_map_children(|c| Ok::<_, Infallible>(strip_qualifier(c, alias)));
            let Ok(stripped) = stripped;
            stripped
        }
    }
}

/// The fact columns qualified by `alias`.
fn fact_schema(alias: &str) -> Schema {
    Schema::new(
        FACT_COLUMNS
            .iter()
            .map(|c| ColInfo::qualified(alias, c))
            .collect(),
    )
}

/// Plan one FROM item as a scan, ANDing `extra` into its predicate.
///
/// A FROM subquery is the listings' `SELECT * FROM t [WHERE …]`: it is
/// inlined into the scan of `t` (recursively, for nested ones), with its own
/// WHERE ahead of `extra`, and its columns qualified by the outer alias. The
/// scan keeps `t`'s alias for its reports. Any other derived table is a
/// planning error.
fn plan_input(f: &FromItem, extra: Vec<Expr>, catalog: &CatalogSnapshot) -> Result<ScanPlan> {
    let alias = item_alias(f);
    match &f.source {
        TableSource::Named(name) => {
            let table = catalog
                .get(&name.to_lowercase())
                .ok_or_else(|| BlendError::SqlPlan(format!("unknown table `{name}` in catalog")))?;
            plan_scan(table.clone(), &alias, &extra)
        }
        TableSource::Subquery(sub) => {
            let plain = sub.select == [SelectItem::Wildcard]
                && sub.joins.is_empty()
                && sub.group_by.is_empty()
                && sub.order_by.is_empty()
                && sub.limit.is_none();
            if !plain {
                return Err(BlendError::SqlPlan(format!(
                    "FROM subquery `{alias}` must be SELECT * over one input, \
                     without GROUP BY, ORDER BY, LIMIT or JOIN"
                )));
            }
            let inner_alias = item_alias(&sub.from);
            let conjuncts = sub.where_clause.iter().flat_map(Expr::conjuncts);
            let predicate = (conjuncts.chain(&extra))
                .map(|c| strip_qualifier(c, &inner_alias))
                .collect();
            let mut scan = plan_input(&sub.from, predicate, catalog)?;
            scan.schema = fact_schema(&alias);
            Ok(scan)
        }
    }
}

/// Plan a base-table scan: classify predicate conjuncts, choose the access
/// path by exact cardinality, and compile what remains as residual.
fn plan_scan(table: Arc<dyn FactTable>, alias: &str, predicate: &[Expr]) -> Result<ScanPlan> {
    let schema = fact_schema(alias);

    let mut kernel = FilterKernel::empty();
    let mut value_list: Option<Vec<&str>> = None;
    let mut table_list: Option<Vec<u32>> = None;
    let mut table_not_list: Option<Vec<u32>> = None;
    let mut generic: Vec<Expr> = Vec::new();

    for c in predicate {
        match classify_conjunct(c) {
            Classified::ValueIn(vs) => merge_list(&mut value_list, vs),
            Classified::TableIn(ts) => merge_list(&mut table_list, ts),
            Classified::TableNotIn(ts) => table_not_list.get_or_insert_with(Vec::new).extend(ts),
            Classified::RowIdLt(n) => {
                let bound = kernel.rowid_lt.get_or_insert(n);
                *bound = (*bound).min(n);
            }
            Classified::QuadrantNull(want_null) => match kernel.quadrant_null {
                // `Quadrant IS NULL AND Quadrant IS NOT NULL` is
                // unsatisfiable; an impossible row-id bound makes the
                // scan match nothing (last-conjunct-wins would silently
                // drop one side and depend on predicate order).
                Some(prev) if prev != want_null => kernel.rowid_lt = Some(0),
                _ => kernel.quadrant_null = Some(want_null),
            },
            Classified::Other => generic.push(c.clone()),
        }
    }
    kernel.table_not_in = table_not_list.map(IdSet::build);

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
    let values = value_list.map(|vs| (vs.len(), ValueList::resolve(&*table, &vs)));
    let value_card =
        (values.as_ref()).map(|(_, list)| list.postings(&*table).iter().map(|p| p.len()).sum());
    let table_card = table_list.as_ref().map(|ts| {
        ts.iter()
            .map(|t| table.directory().table_postings(*t).len())
            .sum::<usize>()
    });

    // The cheaper index drives; values win a tie.
    let access = match (value_card, table_card) {
        (Some(vc), tc) if tc.is_none_or(|tc| vc <= tc) => AccessPath::ValueIndex {
            n_values: values.as_ref().map_or(0, |(n, _)| *n),
            estimated: vc,
        },
        (_, Some(tc)) => AccessPath::TableIndex {
            n_tables: table_list.as_ref().map_or(0, Vec::len),
            estimated: tc,
        },
        _ => AccessPath::SeqScan { estimated: n_rows },
    };

    // Whichever candidate is not driving becomes a kernel predicate.
    let mut driving_values = ValueList::Codes(Vec::new());
    let mut driving_tables = Vec::new();
    let values = values.map(|(_, list)| list);
    match &access {
        AccessPath::ValueIndex { .. } => {
            driving_values = values.unwrap_or(driving_values);
            kernel.table_in = table_list.map(IdSet::build);
        }
        AccessPath::TableIndex { .. } => {
            driving_tables = table_list.unwrap_or_default();
            kernel.value = values.map(|list| list.into_probe(&*table));
        }
        AccessPath::SeqScan { .. } => {
            kernel.value = values.map(|list| list.into_probe(&*table));
            kernel.table_in = table_list.map(IdSet::build);
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
        kernel,
        residual,
        schema,
    })
}

enum Classified<'a> {
    ValueIn(Vec<&'a str>),
    TableIn(Vec<u32>),
    TableNotIn(Vec<u32>),
    RowIdLt(u32),
    QuadrantNull(bool),
    Other,
}

/// What a scan conjunct is, its lists borrowed from the literals.
fn classify_conjunct(e: &Expr) -> Classified<'_> {
    match e {
        Expr::InList {
            expr,
            list,
            negated,
        } => match unqualified_fact_col(expr) {
            // Only strings: a number never equals a text cell (`CellValue
            // IN (1)` matches nothing), so a list holding one stays a
            // residual.
            Some("cellvalue") if !negated => (list.iter())
                .map(|item| match item {
                    Expr::Str(s) => Some(s.as_str()),
                    _ => None,
                })
                .collect::<Option<_>>()
                .map_or(Classified::Other, Classified::ValueIn),
            Some("tableid") => match (list.iter().map(u32_literal).collect(), negated) {
                (Some(ts), true) => Classified::TableNotIn(ts),
                (Some(ts), false) => Classified::TableIn(ts),
                (None, _) => Classified::Other,
            },
            _ => Classified::Other,
        },
        Expr::Binary {
            left,
            op: BinOp::Eq,
            right,
        } => match (unqualified_fact_col(left), u32_literal(right)) {
            (Some("cellvalue"), _) => match right.as_ref() {
                Expr::Str(s) => Classified::ValueIn(vec![s.as_str()]),
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
            // `RowId <= u32::MAX` has no `u32` strict bound: a residual.
            (Some("rowid"), Some(n)) => n
                .checked_add(1)
                .map_or(Classified::Other, Classified::RowIdLt),
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

/// Column name if `e` is an unqualified fact column. Pushdown has already
/// stripped the scan's own alias, so a column still qualified names another
/// input (or none): it stays in the residual, whose compile reports it.
fn unqualified_fact_col(e: &Expr) -> Option<&str> {
    match e {
        Expr::Column {
            qualifier: None,
            name,
        } if FACT_COLUMNS.contains(&name.as_str()) => Some(name.as_str()),
        _ => None,
    }
}

/// Two `IN` conjuncts on one column intersect: the first list keeps the
/// items the second also holds, in its own order.
fn merge_list<T: Eq + std::hash::Hash>(acc: &mut Option<Vec<T>>, items: Vec<T>) {
    match acc {
        Some(existing) => {
            let set: FxHashSet<T> = items.into_iter().collect();
            existing.retain(|t| set.contains(t));
        }
        None => *acc = Some(items),
    }
}

/// Sideways information passing: when two scans of the same fact table
/// join on `TableId`, and one side is selective (index-driven) while the
/// other would scan sequentially, derive the selective side's distinct
/// table ids from its postings and drive the other side through the table
/// index instead.
///
/// This is what a real column store's optimizer does with join bloom
/// filters / zone maps, and it is what keeps the correlation seeker's SQL
/// text (Listing 3, run on the served path; `seekers::run` reads the index
/// instead) viable: the `Quadrant IS NOT NULL` side would otherwise scan
/// the whole lake index for every query.
fn sideways_pushdown(left: &mut Tree, right: &mut Tree, keys: &[(usize, usize)]) {
    // TableId lives at offset 1 in the canonical fact-tuple layout; both
    // sides must be scans.
    if !keys.contains(&(FACT_TABLEID_OFFSET, FACT_TABLEID_OFFSET)) {
        return;
    }
    let (Tree::Leaf(l), Tree::Leaf(r)) = (left, right) else {
        return;
    };
    // Feed the smaller index-driven side into the larger sequential side.
    let (src, dst) = match l.access.estimated() <= r.access.estimated() {
        true => (l, r),
        false => (r, l),
    };
    // Only worthwhile when the destination is a seq scan and the source is
    // meaningfully selective.
    const MAX_SOURCE_POSITIONS: usize = 200_000;
    let (src_est, dst_est) = (src.access.estimated(), dst.access.estimated());
    if src_est > MAX_SOURCE_POSITIONS || src_est * 2 > dst_est {
        return;
    }
    // The destination check first: collecting the source's table ids walks
    // every source posting.
    if !matches!(
        src.access,
        AccessPath::ValueIndex { .. } | AccessPath::TableIndex { .. }
    ) || !matches!(dst.access, AccessPath::SeqScan { .. })
    {
        return;
    }
    let ids = scan_table_ids(src);
    let dir = dst.table.directory();
    let new_est: usize = ids.iter().map(|&t| dir.table_postings(t).len()).sum();
    if new_est >= dst.access.estimated() {
        return;
    }
    // A previously chosen value probe (if any) stays a kernel predicate.
    dst.access = AccessPath::TableIndex {
        n_tables: ids.len(),
        estimated: new_est,
    };
    dst.driving_tables = ids;
}

/// Offset of `TableId` in the canonical fact-tuple layout.
const FACT_TABLEID_OFFSET: usize = 1;

/// Distinct table ids a scan's driving access can produce (a safe
/// over-approximation: kernel predicates other than the table filters are
/// ignored).
fn scan_table_ids(scan: &ScanPlan) -> Vec<u32> {
    let mut ids: FxHashSet<u32> = FxHashSet::default();
    match &scan.access {
        AccessPath::ValueIndex { .. } => {
            let table = scan.table.as_ref();
            for postings in scan.driving_values.postings(table) {
                ids.extend(postings.iter().map(|&pos| table.table_at(pos as usize)));
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

fn fold_cexpr_and(es: Vec<CExpr>) -> Option<CExpr> {
    (es.into_iter()).reduce(|acc, e| CExpr::Binary(Box::new(acc), BinOp::And, Box::new(e)))
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
/// if a bare column survives (i.e. is neither grouped nor aggregated); an
/// aggregate not in `aggs` is kept as it is.
pub(crate) fn substitute_agg(e: &Expr, groups: &[Expr], aggs: &[Expr]) -> Option<Expr> {
    if let Some(i) = groups.iter().position(|g| g == e) {
        return Some(Expr::col(&format!("__g{i}")));
    }
    if let Some(i) = aggs.iter().position(|a| a == e) {
        return Some(Expr::col(&format!("__a{i}")));
    }
    match e {
        Expr::Column { .. } => None,
        Expr::Agg { .. } => Some(e.clone()),
        _ => (e.try_map_children(|c| substitute_agg(c, groups, aggs).ok_or(()))).ok(),
    }
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
