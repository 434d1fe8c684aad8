//! Query results and telemetry, and the reference interpreter.
//!
//! Every production entry runs the positional executor
//! ([`crate::exec_positional`]). What stays here is the tuple-at-a-time
//! interpreter it is checked against, `execute_reference`: it
//! materializes the six-column tuple of every position a scan keeps, joins
//! and groups on `Vec<SqlValue>` keys, and sorts decorated rows —
//! sequentially, with no span, no memory reservation and no interrupt poll.
//! It is the parity suites' oracle (`SqlEngine::execute_reference`), not a
//! path a query can take.
//!
//! `ORDER BY … LIMIT` has one implementation, `select_top`, a bounded
//! selection over row ordinals. The reference reaches it through
//! `finish_decorated`; both tails of the positional executor call it over
//! flat columns, and build no row at all.

use std::cmp::Ordering;

use blend_common::{BlendError, FxHashMap, FxHashSet, Result};

use crate::ast::AggFunc;
use crate::expr::CExpr;
use crate::plan::{materialize, AggPlan, GroupPlan, QueryPlan, ScanPlan, Tree};
use crate::value::SqlValue;

/// One tuple.
pub type Tuple = Vec<SqlValue>;

/// Per-scan execution telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanReport {
    /// Alias of the FROM item that names the scanned table. An inlined
    /// `(SELECT * FROM t …) q` reports `t`'s, not `q` — `alltables` in every
    /// seeker template.
    pub alias: String,
    /// Chosen access path label.
    pub access: String,
    /// Cardinality estimate the access path was chosen with.
    pub estimated: usize,
    /// Positions actually visited.
    pub scanned: usize,
    /// Tuples surviving all scan predicates.
    pub emitted: usize,
}

impl ScanReport {
    /// The report of `scan` after visiting `scanned` positions and emitting
    /// `emitted` of them.
    pub(crate) fn new(scan: &ScanPlan, scanned: usize, emitted: usize) -> Self {
        ScanReport {
            alias: scan.alias.clone(),
            access: scan.access.label().to_string(),
            estimated: scan.access.estimated(),
            scanned,
            emitted,
        }
    }
}

/// Telemetry for one executor phase that ran on more than one thread.
/// Every phase runs on the query's thread, so no query records one:
/// [`QueryReport::parallel`] is always empty, and the type stays for the
/// readers of that field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelPhase {
    /// Phase label.
    pub phase: String,
    /// Number of work partitions.
    pub partitions: usize,
    /// Threads the phase ran on, the calling thread included.
    pub granted: usize,
    /// Busy wall-clock time per participating worker, in nanoseconds.
    pub worker_nanos: Vec<u64>,
}

/// Hash-index telemetry for one keyed phase of the positional executor —
/// a GROUP BY, or a join on packed keys (see `blend_storage::hashtable`): how
/// its [`GroupIndex`](blend_storage::GroupIndex)es were built and how
/// healthy the key distribution is. Row-keyed and interned joins record
/// none. Printed by the bench harness alongside
/// [`memory_breakdown`].
///
/// [`memory_breakdown`]: blend_storage::FactTable::memory_breakdown
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashTableStats {
    /// Phase label: `"join"` or `"group"`.
    pub phase: String,
    /// Wall-clock nanos of the keyed phase. For a join this is numbering
    /// the build keys, radix partitioning included; listing each id's
    /// build rows and probing are in the `join.build` / `join.probe` spans.
    /// For GROUP BY it is the group-id pass *and* the aggregate
    /// accumulation passes, which have no separable "probe" side — so join
    /// and group nanos are not directly comparable.
    pub build_nanos: u64,
    /// Index slots across all radix partitions
    /// ([`GroupIndex::slot_count`](blend_storage::GroupIndex::slot_count)).
    pub buckets: usize,
    /// Longest probe sequence any insert walked, across all radix
    /// partitions
    /// ([`GroupIndex::max_probe`](blend_storage::GroupIndex::max_probe)).
    pub max_chain: usize,
    /// Radix partition count (1 = the sequential, unpartitioned path).
    pub partitions: usize,
}

/// Per-request serving telemetry: where a request's wall-clock went and
/// how it ended. The `blend_serve` queue attaches the full view (queue
/// wait + execution); direct engine calls record execution time from the
/// root span with a zero queue wait, so every successful query has
/// end-to-end timing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServingStats {
    /// Nanoseconds between enqueue and the start of execution (queue
    /// residency plus the blocking admission wait).
    pub queue_wait_nanos: u64,
    /// Nanoseconds spent executing (0 when the request never started).
    pub exec_nanos: u64,
    /// Terminal outcome: `"ok"`, `"timeout"`, `"cancelled"`,
    /// `"overloaded"`, or — through the serving tier's workload-shape
    /// layer — `"cache_hit"` (served from the fingerprint-keyed result
    /// cache) or `"coalesced_hit"` (resolved from a fingerprint-identical
    /// in-flight execution).
    pub outcome: String,
}

/// Whole-query execution telemetry (the `EXPLAIN ANALYZE` stand-in used by
/// tests and the optimizer experiments).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryReport {
    pub scans: Vec<ScanReport>,
    /// (build side rows, probe side rows, output rows) per join.
    pub joins: Vec<(usize, usize, usize)>,
    pub result_rows: usize,
    /// Executor that ran the query: `"positional"` on every production
    /// entry, `"reference"` from `SqlEngine::execute_reference`.
    pub path: String,
    /// Phases that ran on more than one thread: none, since every query
    /// runs on its caller's thread (see [`ParallelPhase`]).
    pub parallel: Vec<ParallelPhase>,
    /// Flat join/group hash-table builds, in execution order.
    pub hash_tables: Vec<HashTableStats>,
    /// End-to-end serving telemetry (queue wait is 0 for direct calls).
    pub serving: Option<ServingStats>,
    /// The unified `EXPLAIN ANALYZE` span tree for this query: scan, join
    /// build/probe, group (`group.global` without keys), sort, project and
    /// materialize phases with wall nanos and attributes, rooted at the
    /// engine's `query` span. `None` when instrumentation is disabled
    /// ([`blend_obs::set_enabled`]).
    pub profile: Option<blend_obs::Profile>,
}

impl QueryReport {
    /// Heap bytes behind the logical telemetry (the vectors and their
    /// strings; the profile tree is not counted): what a memoized report
    /// costs its cache.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let scans = self.scans.iter();
        let phases = self.parallel.iter();
        let strings = (scans.map(|s| s.alias.capacity() + s.access.capacity()))
            .chain(phases.map(|p| p.phase.capacity() + p.worker_nanos.capacity() * 8))
            .chain(self.hash_tables.iter().map(|h| h.phase.capacity()));
        self.path.capacity()
            + strings.sum::<usize>()
            + self.scans.capacity() * size_of::<ScanReport>()
            + self.joins.capacity() * size_of::<(usize, usize, usize)>()
            + self.parallel.capacity() * size_of::<ParallelPhase>()
            + self.hash_tables.capacity() * size_of::<HashTableStats>()
    }

    /// Logical-telemetry equality: same scans, join cardinalities, result
    /// rows, and executor path. Ignores [`QueryReport::parallel`],
    /// [`QueryReport::hash_tables`], [`QueryReport::serving`], and
    /// [`QueryReport::profile`], whose table sizing and timings
    /// legitimately vary with chunk length and serving conditions —
    /// everything else must be byte-identical (the parity suites'
    /// contract).
    pub fn logical_eq(&self, other: &QueryReport) -> bool {
        self.scans == other.scans
            && self.joins == other.joins
            && self.result_rows == other.result_rows
            && self.path == other.path
    }
}

/// A materialized query result.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column labels, in select-list order.
    pub columns: Vec<String>,
    /// Row-major values.
    pub rows: Vec<Tuple>,
}

impl ResultSet {
    /// Index of a column label.
    pub fn col(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Typed accessor: i64 at (row, column label).
    pub fn i64(&self, row: usize, col: &str) -> Option<i64> {
        self.rows.get(row)?.get(self.col(col)?)?.as_i64()
    }

    /// Typed accessor: f64 at (row, column label).
    pub fn f64(&self, row: usize, col: &str) -> Option<f64> {
        self.rows.get(row)?.get(self.col(col)?)?.as_f64()
    }

    /// Typed accessor: str at (row, column label).
    pub fn str(&self, row: usize, col: &str) -> Option<&str> {
        self.rows.get(row)?.get(self.col(col)?)?.as_str()
    }

    /// Approximate heap footprint in bytes: what the memory governor
    /// reserves for a materialized result. Counts *capacities*, not lengths
    /// — spare `Vec` capacity and string over-allocation are resident bytes
    /// too — and every `Arc<str>` allocation once, with its header, however
    /// many values share it (`Text`/`U128` payloads dominate real seeker
    /// results). Same per-value accounting style as the storage engines'
    /// `memory_breakdown`.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        // An `Arc<str>` allocation carries strong + weak counts ahead of
        // the string bytes.
        const ARC_HEADER: usize = 2 * size_of::<usize>();
        let mut bytes = size_of::<Self>();
        bytes += self.columns.capacity() * size_of::<String>();
        for c in &self.columns {
            bytes += c.capacity();
        }
        bytes += self.rows.capacity() * size_of::<Tuple>();
        let mut seen = blend_common::FxHashSet::default();
        for row in &self.rows {
            bytes += row.capacity() * size_of::<SqlValue>();
            for s in row.iter().filter_map(SqlValue::as_str) {
                if seen.insert(s.as_ptr()) {
                    bytes += ARC_HEADER + s.len();
                }
            }
        }
        bytes
    }

    /// Entire column as u32s (lossy on purpose: ids are u32 everywhere).
    pub fn column_u32(&self, col: &str) -> Vec<u32> {
        match self.col(col) {
            None => Vec::new(),
            Some(i) => self
                .rows
                .iter()
                .filter_map(|r| r[i].as_i64().map(|v| v as u32))
                .collect(),
        }
    }
}

/// Run `plan` on the reference interpreter (module docs): the result and a
/// report with `path = "reference"` and the scan, join and result-row
/// telemetry the parity suites compare.
pub(crate) fn execute_reference(plan: &QueryPlan) -> Result<(ResultSet, QueryReport)> {
    let mut report = QueryReport {
        path: "reference".to_string(),
        ..QueryReport::default()
    };
    let mut tuples = exec_tree(&plan.tree, &mut report);
    if let Some(f) = &plan.post_filter {
        tuples.retain(|t| f.eval_predicate(t));
    }
    if let Some(group) = &plan.group {
        tuples = exec_group(group, tuples);
    }
    let rs = project_sort_limit(plan, &tuples, &mut report)?;
    Ok((rs, report))
}

/// The reference's query tail: evaluate the projection and order keys over
/// every input tuple, then hand the decorated rows to [`finish_decorated`].
/// The positional executor selects over flat columns instead (see
/// `exec_positional`).
fn project_sort_limit(
    plan: &QueryPlan,
    tuples: &[Tuple],
    report: &mut QueryReport,
) -> Result<ResultSet> {
    let mut decorated: Vec<(Vec<SqlValue>, Tuple)> = Vec::with_capacity(tuples.len());
    for t in tuples {
        let out: Tuple = plan.projection.iter().map(|(_, e)| e.eval(t)).collect();
        let keys: Vec<SqlValue> = plan.order_by.iter().map(|(e, _)| e.eval(t)).collect();
        decorated.push((keys, out));
    }
    finish_decorated(plan, decorated, report)
}

/// The one `ORDER BY … LIMIT` implementation, shared by both executors and
/// every path through them: the ordinals in `0..n` of the rows that survive,
/// in output order. With a LIMIT below `n` it is a bounded selection
/// (`select_nth_unstable_by`, then a sort of the `k` survivors only);
/// without one it is a full sort. `None` keeps input order. The positional
/// executor's grouped tail may first narrow the rows to a count
/// threshold's tie band and run this over the band alone
/// (`exec_positional`'s `threshold_band`); the order is still this one's.
///
/// `cmp` must be a **total** order: callers end it with a key that is unique
/// per row and ascends in input order (the ordinal itself, or a group's
/// first-seen row). `SqlValue::order_cmp` alone is not total — `Int(1)` and
/// `Float(1.0)` compare equal — and the unique last key settles such ties
/// exactly the way a stable sort of the input would, so the unstable
/// algorithms used here cannot be observed.
pub(crate) fn select_top(
    n: usize,
    limit: Option<usize>,
    cmp: Option<impl Fn(u32, u32) -> Ordering>,
) -> Result<Vec<u32>> {
    let n = u32::try_from(n)
        .map_err(|_| BlendError::SqlExec(format!("{n} rows exceed the 2^32 ORDER BY bound")))?;
    let k = limit.map_or(n, |k| k.min(n as usize) as u32);
    let Some(cmp) = cmp else {
        return Ok((0..k).collect());
    };
    if k == 0 {
        return Ok(Vec::new());
    }
    let mut ords: Vec<u32> = (0..n).collect();
    if k < n {
        ords.select_nth_unstable_by(k as usize - 1, |a, b| cmp(*a, *b));
        ords.truncate(k as usize);
    }
    ords.sort_unstable_by(|a, b| cmp(*a, *b));
    Ok(ords)
}

/// Order decorated rows (`(order keys, projected tuple)`, in input order) by
/// their keys, then by the projected tuple, then by input position; keep
/// LIMIT of them; and build the final [`ResultSet`]. The tail of the
/// reference; the positional executor runs the same [`select_top`] over its
/// flat output columns.
pub(crate) fn finish_decorated(
    plan: &QueryPlan,
    mut decorated: Vec<(Vec<SqlValue>, Tuple)>,
    report: &mut QueryReport,
) -> Result<ResultSet> {
    // Order keys, then the projected tuple as a deterministic tiebreak,
    // then input position.
    let cmp = |a: u32, b: u32| {
        let (ra, rb) = (&decorated[a as usize], &decorated[b as usize]);
        let keys = ra.0.iter().zip(&rb.0).zip(&plan.order_by);
        keys.map(|((x, y), (_, desc))| match desc {
            true => x.order_cmp(y).reverse(),
            false => x.order_cmp(y),
        })
        .chain(ra.1.iter().zip(&rb.1).map(|(x, y)| x.order_cmp(y)))
        .find(|ord| ord.is_ne())
        .unwrap_or_else(|| a.cmp(&b))
    };
    let ordered = !plan.order_by.is_empty();
    let ords = select_top(decorated.len(), plan.limit, ordered.then_some(cmp))?;
    let rows: Vec<Tuple> = ords
        .iter()
        .map(|&o| std::mem::take(&mut decorated[o as usize].1))
        .collect();
    report.result_rows = rows.len();
    Ok(ResultSet {
        columns: plan.output_labels(),
        rows,
    })
}

fn exec_tree(tree: &Tree, report: &mut QueryReport) -> Vec<Tuple> {
    match tree {
        Tree::Leaf(scan) => exec_scan(scan, report),
        Tree::Join {
            left,
            right,
            keys,
            residual,
            ..
        } => {
            let lt = exec_tree(left, report);
            let rt = exec_tree(right, report);
            hash_join(lt, rt, keys, residual.as_ref(), report)
        }
    }
}

/// The plan's segments in order, each one batched kernel pass; only the
/// survivors materialize tuples (the residual still needs them).
fn exec_scan(scan: &ScanPlan, report: &mut QueryReport) -> Vec<Tuple> {
    let table = scan.table.as_ref();
    let (mut out, mut sel, mut scanned) = (Vec::new(), Vec::new(), 0);
    let residual = scan.residual.as_ref();
    for seg in scan.segments() {
        scanned += seg.len();
        sel.clear();
        scan.filter(seg, 0, seg.len(), &mut sel);
        for &pos in &sel {
            let tuple = materialize(table, pos as usize);
            if residual.is_none_or(|r| r.eval_predicate(&tuple)) {
                out.push(tuple);
            }
        }
    }
    report.scans.push(ScanReport::new(scan, scanned, out.len()));
    out
}

fn hash_join(
    left: Vec<Tuple>,
    right: Vec<Tuple>,
    keys: &[(usize, usize)],
    residual: Option<&CExpr>,
    report: &mut QueryReport,
) -> Vec<Tuple> {
    // Build on the smaller side; output column order is always left++right.
    let build_left = left.len() <= right.len();
    let (build, probe) = if build_left {
        (&left, &right)
    } else {
        (&right, &left)
    };
    let key = |t: &Tuple, on_left: bool| -> Vec<SqlValue> {
        keys.iter()
            .map(|&(l, r)| t[if on_left { l } else { r }].clone())
            .collect()
    };

    let mut table: FxHashMap<Vec<SqlValue>, Vec<usize>> = FxHashMap::default();
    for (i, t) in build.iter().enumerate() {
        // SQL join semantics: NULL keys never match.
        let k = key(t, build_left);
        if !k.iter().any(SqlValue::is_null) {
            table.entry(k).or_default().push(i);
        }
    }

    let mut out = Vec::new();
    for pt in probe {
        // A probe key holding NULL finds nothing: no built key holds one.
        let Some(matches) = table.get(&key(pt, !build_left)) else {
            continue;
        };
        for &bi in matches {
            let bt = &build[bi];
            let (lt, rt) = if build_left { (bt, pt) } else { (pt, bt) };
            let joined: Tuple = lt.iter().chain(rt).cloned().collect();
            if residual.is_none_or(|res| res.eval_predicate(&joined)) {
                out.push(joined);
            }
        }
    }
    report.joins.push((build.len(), probe.len(), out.len()));
    out
}

// ---- aggregation -----------------------------------------------------------

pub(crate) enum AggState {
    Count(i64),
    CountDistinct(FxHashSet<SqlValue>),
    /// SUM before its first number.
    SumNone,
    /// SUM while every number was an integer (a `Bool` counts 0 or 1):
    /// exact, and wrapping like `+`.
    SumInt(i64),
    /// SUM once a `Float` arrived.
    SumFloat(f64),
    Min(Option<SqlValue>),
    Max(Option<SqlValue>),
    Avg {
        sum: f64,
        n: i64,
    },
}

impl AggState {
    pub(crate) fn new(plan: &AggPlan) -> AggState {
        match (plan.func, plan.distinct) {
            (AggFunc::Count, true) => AggState::CountDistinct(FxHashSet::default()),
            (AggFunc::Count, false) => AggState::Count(0),
            (AggFunc::Sum, _) => AggState::SumNone,
            (AggFunc::Min, _) => AggState::Min(None),
            (AggFunc::Max, _) => AggState::Max(None),
            (AggFunc::Avg, _) => AggState::Avg { sum: 0.0, n: 0 },
        }
    }

    fn update(&mut self, plan: &AggPlan, tuple: &Tuple) {
        self.update_value(plan.arg.as_ref().map(|e| e.eval(tuple)));
    }

    /// Fold one already-evaluated argument (`None` = no argument, i.e.
    /// `COUNT(*)`). The positional executor's typed columns fold through
    /// [`add_int`](Self::add_int) and [`add_float`](Self::add_float), which
    /// this defers to.
    pub(crate) fn update_value(&mut self, arg: Option<SqlValue>) {
        let keep = |cur: &mut Option<SqlValue>, v: SqlValue, want: Ordering| {
            if cur.as_ref().is_none_or(|c| v.order_cmp(c) == want) {
                *cur = Some(v);
            }
        };
        match (self, arg) {
            (AggState::Count(n), None) => *n += 1,
            (_, None | Some(SqlValue::Null)) => {}
            (AggState::Count(n), Some(_)) => *n += 1,
            (AggState::CountDistinct(set), Some(v)) => drop(set.insert(v)),
            (AggState::Min(cur), Some(v)) => keep(cur, v, Ordering::Less),
            (AggState::Max(cur), Some(v)) => keep(cur, v, Ordering::Greater),
            // SUM and AVG: numbers only.
            (s, Some(SqlValue::Int(i))) => s.add_int(i),
            (s, Some(SqlValue::Bool(b))) => s.add_int(b as i64),
            (s, Some(SqlValue::Float(f))) => s.add_float(f),
            (_, Some(_)) => {}
        }
    }

    /// Fold a non-NULL `Int`.
    #[inline]
    pub(crate) fn add_int(&mut self, i: i64) {
        match self {
            AggState::SumNone => *self = AggState::SumInt(i),
            AggState::SumInt(acc) => *acc = acc.wrapping_add(i),
            AggState::SumFloat(acc) => *acc += i as f64,
            AggState::Avg { sum, n } => (*sum, *n) = (*sum + i as f64, *n + 1),
            AggState::Count(n) => *n += 1,
            _ => self.update_value(Some(SqlValue::Int(i))),
        }
    }

    /// Fold a non-NULL `Float`.
    #[inline]
    pub(crate) fn add_float(&mut self, f: f64) {
        match self {
            AggState::SumNone => *self = AggState::SumFloat(0.0 + f),
            AggState::SumInt(acc) => *self = AggState::SumFloat(*acc as f64 + f),
            AggState::SumFloat(acc) => *acc += f,
            AggState::Avg { sum, n } => (*sum, *n) = (*sum + f, *n + 1),
            AggState::Count(n) => *n += 1,
            _ => self.update_value(Some(SqlValue::Float(f))),
        }
    }

    pub(crate) fn finish(self) -> SqlValue {
        match self {
            AggState::Count(n) => SqlValue::Int(n),
            AggState::CountDistinct(set) => SqlValue::Int(set.len() as i64),
            AggState::SumNone => SqlValue::Null,
            AggState::SumInt(acc) => SqlValue::Int(acc),
            AggState::SumFloat(acc) => SqlValue::Float(acc),
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(SqlValue::Null),
            AggState::Avg { sum, n } => {
                if n == 0 {
                    SqlValue::Null
                } else {
                    SqlValue::Float(sum / n as f64)
                }
            }
        }
    }
}

fn exec_group(group: &GroupPlan, tuples: Vec<Tuple>) -> Vec<Tuple> {
    // Key order must be deterministic for stable results; keep first-seen
    // order via an index map built on top of the hash map.
    let mut index: FxHashMap<Vec<SqlValue>, usize> = FxHashMap::default();
    let mut groups: Vec<(Vec<SqlValue>, Vec<AggState>)> = Vec::new();

    let global = group.group_exprs.is_empty();
    if global {
        groups.push((Vec::new(), group.aggs.iter().map(AggState::new).collect()));
    }

    for t in &tuples {
        let key: Vec<SqlValue> = group.group_exprs.iter().map(|e| e.eval(t)).collect();
        let gi = if global {
            0
        } else {
            *index.entry(key).or_insert_with_key(|key| {
                groups.push((key.clone(), group.aggs.iter().map(AggState::new).collect()));
                groups.len() - 1
            })
        };
        for (state, plan) in groups[gi].1.iter_mut().zip(&group.aggs) {
            state.update(plan, t);
        }
    }

    groups
        .into_iter()
        .map(|(key, states)| {
            let mut row = key;
            row.extend(states.into_iter().map(AggState::finish));
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tail this module had before [`select_top`]: stable-sort every
    /// decorated row, then truncate. Kept as the selection's oracle.
    fn sort_all_then_truncate(
        plan: &QueryPlan,
        mut decorated: Vec<(Vec<SqlValue>, Tuple)>,
    ) -> Vec<Tuple> {
        if !plan.order_by.is_empty() {
            decorated.sort_by(|a, b| {
                for (i, (_, desc)) in plan.order_by.iter().enumerate() {
                    let ord = a.0[i].order_cmp(&b.0[i]);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                for (x, y) in a.1.iter().zip(&b.1) {
                    let ord = x.order_cmp(y);
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
        }
        if let Some(k) = plan.limit {
            decorated.truncate(k);
        }
        decorated.into_iter().map(|(_, t)| t).collect()
    }

    #[test]
    fn selection_is_byte_identical_to_sort_all_then_truncate() {
        use crate::engine::Database;
        use blend_storage::{build_engine, EngineKind, FactRow};

        let db = Database::with_alltables(build_engine(
            EngineKind::Column,
            vec![FactRow::new("x", 0, 0, 0, 0, None)],
        ));
        // Values that tie under `order_cmp` yet differ in their bytes:
        // the numerics 1 / 1.0 / TRUE, and two NULLs next to them.
        let pool = [
            SqlValue::Null,
            SqlValue::Int(0),
            SqlValue::Int(1),
            SqlValue::Float(1.0),
            SqlValue::Bool(true),
            SqlValue::Float(0.5),
            SqlValue::from("a"),
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as usize
        };
        for n in [0usize, 1, 2, 7, 64, 300] {
            let decorated: Vec<(Vec<SqlValue>, Tuple)> = (0..n)
                .map(|_| {
                    let keys = vec![pool[next() % 7].clone(), pool[next() % 7].clone()];
                    let out = vec![pool[next() % 7].clone(), pool[next() % 5].clone()];
                    (keys, out)
                })
                .collect();
            for order in [
                "",
                "ORDER BY TableId, RowId",
                "ORDER BY TableId DESC, RowId",
            ] {
                for limit in [None, Some(0), Some(1), Some(n / 2), Some(n), Some(n + 5)] {
                    let limit = limit.map_or(String::new(), |k| format!("LIMIT {k}"));
                    let sql = format!("SELECT TableId, RowId FROM AllTables {order} {limit}");
                    let plan =
                        crate::plan::plan_query(&crate::parser::parse(&sql).unwrap(), &db).unwrap();
                    let want = sort_all_then_truncate(&plan, decorated.clone());
                    let got =
                        finish_decorated(&plan, decorated.clone(), &mut QueryReport::default())
                            .unwrap();
                    // `SqlValue: PartialEq` equates 1 and 1.0; compare bytes.
                    assert_eq!(
                        format!("{:?}", got.rows),
                        format!("{want:?}"),
                        "n={n}: {sql}"
                    );
                }
            }
        }
    }

    #[test]
    fn result_set_accessors() {
        let rs = ResultSet {
            columns: vec!["tableid".into(), "score".into()],
            rows: vec![
                vec![SqlValue::Int(3), SqlValue::Float(0.5)],
                vec![SqlValue::Int(7), SqlValue::Float(0.25)],
            ],
        };
        assert_eq!(rs.col("score"), Some(1));
        assert_eq!(rs.i64(0, "tableid"), Some(3));
        assert_eq!(rs.f64(1, "score"), Some(0.25));
        assert_eq!(rs.column_u32("tableid"), vec![3, 7]);
        assert_eq!(rs.len(), 2);
        assert!(rs.str(0, "tableid").is_none());
    }

    #[test]
    fn approx_bytes_counts_capacities_and_arc_headers() {
        use std::mem::size_of;
        // Over-allocated vectors: the spare capacity is resident and must
        // be charged, or a budget check under-admits real memory use.
        let mut rows: Vec<Tuple> = Vec::with_capacity(8);
        let mut row: Tuple = Vec::with_capacity(4);
        row.push(SqlValue::Int(1));
        row.push(SqlValue::Text(std::sync::Arc::from("hello")));
        rows.push(row);
        let mut columns: Vec<String> = Vec::with_capacity(3);
        let mut label = String::with_capacity(16);
        label.push_str("id");
        columns.push(label);
        columns.push("v".to_string());
        let rs = ResultSet { columns, rows };

        let expect = size_of::<ResultSet>()
            + 3 * size_of::<String>()            // columns vec capacity
            + 16 + 1                             // label capacities
            + 8 * size_of::<Tuple>()             // rows vec capacity
            + 4 * size_of::<SqlValue>()          // row capacity
            + 2 * size_of::<usize>() + 5; // Arc<str> header + "hello"
        assert_eq!(rs.approx_bytes(), expect);

        // Tightening capacities can only shrink the estimate, never below
        // the length-based floor.
        let floor = size_of::<ResultSet>()
            + 2 * size_of::<String>()
            + 3
            + size_of::<Tuple>()
            + 2 * size_of::<SqlValue>()
            + 2 * size_of::<usize>()
            + 5;
        assert!(rs.approx_bytes() >= floor);
    }

    #[test]
    fn agg_state_count_and_distinct() {
        let plan_star = AggPlan {
            func: AggFunc::Count,
            distinct: false,
            arg: None,
        };
        let mut s = AggState::new(&plan_star);
        for _ in 0..3 {
            s.update(&plan_star, &vec![]);
        }
        assert_eq!(s.finish(), SqlValue::Int(3));

        let plan_d = AggPlan {
            func: AggFunc::Count,
            distinct: true,
            arg: Some(CExpr::Col(0)),
        };
        let mut s = AggState::new(&plan_d);
        for v in ["a", "b", "a"] {
            s.update(&plan_d, &vec![SqlValue::from(v)]);
        }
        s.update(&plan_d, &vec![SqlValue::Null]); // nulls don't count
        assert_eq!(s.finish(), SqlValue::Int(2));
    }

    #[test]
    fn agg_state_sum_min_max_avg() {
        let mk = |func| AggPlan {
            func,
            distinct: false,
            arg: Some(CExpr::Col(0)),
        };
        let data = [SqlValue::Int(4), SqlValue::Null, SqlValue::Int(1)];

        let p = mk(AggFunc::Sum);
        let mut s = AggState::new(&p);
        for v in &data {
            s.update(&p, &vec![v.clone()]);
        }
        assert_eq!(s.finish(), SqlValue::Int(5));

        let p = mk(AggFunc::Min);
        let mut s = AggState::new(&p);
        for v in &data {
            s.update(&p, &vec![v.clone()]);
        }
        assert_eq!(s.finish(), SqlValue::Int(1));

        let p = mk(AggFunc::Max);
        let mut s = AggState::new(&p);
        for v in &data {
            s.update(&p, &vec![v.clone()]);
        }
        assert_eq!(s.finish(), SqlValue::Int(4));

        let p = mk(AggFunc::Avg);
        let mut s = AggState::new(&p);
        for v in &data {
            s.update(&p, &vec![v.clone()]);
        }
        assert_eq!(s.finish(), SqlValue::Float(2.5));
    }

    #[test]
    fn sum_of_floats_stays_float() {
        let p = AggPlan {
            func: AggFunc::Sum,
            distinct: false,
            arg: Some(CExpr::Col(0)),
        };
        let mut s = AggState::new(&p);
        s.update(&p, &vec![SqlValue::Float(0.5)]);
        s.update(&p, &vec![SqlValue::Int(1)]);
        assert_eq!(s.finish(), SqlValue::Float(1.5));
    }

    #[test]
    fn empty_sum_is_null() {
        let p = AggPlan {
            func: AggFunc::Sum,
            distinct: false,
            arg: Some(CExpr::Col(0)),
        };
        let s = AggState::new(&p);
        assert_eq!(s.finish(), SqlValue::Null);
    }
}
