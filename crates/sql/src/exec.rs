//! Physical execution of planned queries.
//!
//! Execution is materializing (each operator returns a `Vec` of tuples),
//! which keeps the engine simple and is appropriate for the highly selective
//! index workloads BLEND generates: access paths cut candidate sets down
//! before anything is materialized.
//!
//! `ORDER BY … LIMIT` has one implementation, [`select_top`], a bounded
//! selection over row ordinals. This executor reaches it through
//! [`finish_decorated`]; both tails of the positional executor call it over
//! flat columns, and build no row at all.

use std::cmp::Ordering;

use blend_common::{BlendError, FxHashMap, FxHashSet, Result};
use blend_parallel::ParallelCtx;

use blend_storage::ScanScratch;

use crate::ast::AggFunc;
use crate::columns::ResultColumns;
use crate::expr::CExpr;
use crate::plan::{
    materialize, AccessPath, AggPlan, GroupPlan, InputPlan, QueryPlan, ScanPlan, Tree,
};
use crate::value::SqlValue;

/// One tuple.
pub type Tuple = Vec<SqlValue>;

/// Per-scan execution telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanReport {
    /// Scan alias (`keys`, `nums`, `alltables`, ...).
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

/// Parallel-execution telemetry for one positional-executor phase that ran
/// on the worker pool. Sequential fallbacks record nothing, so a
/// single-threaded context — or a phase denied by admission control under
/// concurrent load — leaves no entry here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelPhase {
    /// Phase label: `scan:<alias>`, `join-build`, `join-probe`, `group`,
    /// `sort` (the partitions' local top-k under a LIMIT).
    pub phase: String,
    /// Number of work partitions (morsels or contiguous chunks).
    pub partitions: usize,
    /// Workers the admission controller granted this phase, **including
    /// the calling thread**. Equals the context's thread budget when the
    /// machine is idle; smaller under concurrent load (the machine-wide
    /// token budget is shared by every in-flight query).
    pub granted: usize,
    /// Busy wall-clock time per participating worker, in nanoseconds.
    pub worker_nanos: Vec<u64>,
}

/// Flat hash-table telemetry for one join or GROUP BY phase of the
/// positional executor (see `blend_sql::hashtable`): how the table was
/// built and how healthy its key distribution is. Printed by the bench
/// harness alongside [`memory_breakdown`].
///
/// [`memory_breakdown`]: blend_storage::FactTable::memory_breakdown
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashTableStats {
    /// Phase label: `"join"` or `"group"`.
    pub phase: String,
    /// Wall-clock nanos spent building the flat structure. For joins this
    /// covers radix partitioning plus the counting/scatter table builds
    /// (probing is excluded — it is the separately-timed phase output).
    /// For GROUP BY it covers the whole fused grouping phase: the
    /// group-id index pass *and* the aggregate accumulation passes, which
    /// have no separable "probe" side — so join and group nanos are not
    /// directly comparable.
    pub build_nanos: u64,
    /// Total buckets (join) / index slots (group) across all radix
    /// partitions.
    pub buckets: usize,
    /// Fullest bucket run (join) / longest probe sequence (group) across
    /// all radix partitions.
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
    /// Executor that ran the top-level query: `"positional"` (the
    /// late-materialization path for recognized BLEND shapes) or `"tuple"`
    /// (the general materializing path).
    pub path: String,
    /// Pool-backed phases of the positional executor, in execution order.
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
    /// [`QueryReport::profile`], whose partition counts, table sizing, and
    /// timings legitimately vary with the thread count and serving
    /// conditions — everything else must be byte-identical at every thread
    /// count (the parity suite's contract).
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

/// What an executor hands the engine: the positional executor's flat
/// columns or the tuple executor's rows. Either converts to the shape a
/// caller asked for, and costs nothing when it already has it.
pub(crate) enum Output {
    Columns(ResultColumns),
    Rows(ResultSet),
}

impl Output {
    pub(crate) fn into_rows(self) -> ResultSet {
        match self {
            Output::Columns(cols) => cols.to_result_set(),
            Output::Rows(rs) => rs,
        }
    }

    /// Rows wrap column by column, so a caller of the columnar entry sees
    /// one shape whichever executor ran.
    pub(crate) fn into_columns(self) -> ResultColumns {
        match self {
            Output::Columns(cols) => cols,
            Output::Rows(rs) => rs.into(),
        }
    }

    /// Heap bytes, for the memory governor.
    pub(crate) fn approx_bytes(&self) -> usize {
        match self {
            Output::Columns(cols) => cols.approx_bytes(),
            Output::Rows(rs) => rs.approx_bytes(),
        }
    }
}

/// Execute a plan, collecting telemetry. Recognized BLEND shapes route to
/// the late-materialization positional executor, everything else runs on
/// the general tuple-at-a-time path;
/// `allow_positional = false` forces the tuple path everywhere (benchmark
/// baseline and parity tests). `par` is the shared worker-pool context the
/// positional executor's scan/join/group phases ride; the tuple path is
/// always sequential (it is the reference implementation).
pub(crate) fn execute_plan_path(
    plan: &QueryPlan,
    report: &mut QueryReport,
    allow_positional: bool,
    par: &ParallelCtx,
) -> Result<Output> {
    if allow_positional {
        if let Some(pos) = crate::exec_positional::plan_positional(plan) {
            report.path = "positional".to_string();
            return crate::exec_positional::execute(plan, &pos, report, par).map(Output::Columns);
        }
    }
    report.path = "tuple".to_string();
    execute_tuple(plan, report, allow_positional, par).map(Output::Rows)
}

/// Subquery dispatch: same routing as the top level, but without touching
/// `QueryReport::path` (which describes the top-level query only).
fn execute_sub(
    plan: &QueryPlan,
    report: &mut QueryReport,
    allow_positional: bool,
    par: &ParallelCtx,
) -> Result<ResultSet> {
    if allow_positional {
        if let Some(pos) = crate::exec_positional::plan_positional(plan) {
            return crate::exec_positional::execute(plan, &pos, report, par)
                .map(|cols| cols.to_result_set());
        }
    }
    execute_tuple(plan, report, allow_positional, par)
}

/// The materializing tuple-at-a-time executor.
fn execute_tuple(
    plan: &QueryPlan,
    report: &mut QueryReport,
    allow_positional: bool,
    par: &ParallelCtx,
) -> Result<ResultSet> {
    par.check_interrupt()?;
    let mut tuples = exec_tree(&plan.tree, report, allow_positional, par)?;

    if let Some(f) = &plan.post_filter {
        par.check_interrupt()?;
        tuples.retain(|t| f.eval_predicate(t));
    }

    if let Some(group) = &plan.group {
        tuples = exec_group(group, tuples, par)?;
    }

    par.check_interrupt()?;
    project_sort_limit(plan, &tuples, report)
}

/// The tuple executor's query tail: evaluate the projection and order keys
/// over every input tuple, then hand the decorated rows to
/// [`finish_decorated`]. The positional executor selects over flat columns
/// instead (see `exec_positional`).
fn project_sort_limit(
    plan: &QueryPlan,
    tuples: &[Tuple],
    report: &mut QueryReport,
) -> Result<ResultSet> {
    let span = blend_obs::span("project");
    span.attr_u64("rows", tuples.len() as u64);
    let mut decorated: Vec<(Vec<SqlValue>, Tuple)> = Vec::with_capacity(tuples.len());
    for t in tuples {
        let out: Tuple = plan.projection.iter().map(|(_, e)| e.eval(t)).collect();
        let keys: Vec<SqlValue> = plan.order_by.iter().map(|(e, _)| e.eval(t)).collect();
        decorated.push((keys, out));
    }
    drop(span);
    finish_decorated(plan, decorated, report)
}

/// The one `ORDER BY … LIMIT` implementation, shared by both executors and
/// every path through them: the ordinals in `0..n` of the rows that survive,
/// in output order. With a LIMIT below `n` it is a bounded selection
/// (`select_nth_unstable_by`, then a sort of the `k` survivors only);
/// without one it is a full sort. `None` keeps input order.
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
/// LIMIT of them; and build the final [`ResultSet`]. The tail of the tuple
/// executor; the positional executor runs the same [`select_top`] over its
/// flat output columns.
pub(crate) fn finish_decorated(
    plan: &QueryPlan,
    mut decorated: Vec<(Vec<SqlValue>, Tuple)>,
    report: &mut QueryReport,
) -> Result<ResultSet> {
    let span = blend_obs::span("sort");
    span.attr_u64("rows_in", decorated.len() as u64);
    span.attr_u64("k", plan.limit.unwrap_or(decorated.len()) as u64);
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
    span.attr_u64("selected", ords.len() as u64);
    drop(span);

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

fn exec_tree(
    tree: &Tree,
    report: &mut QueryReport,
    allow_positional: bool,
    par: &ParallelCtx,
) -> Result<Vec<Tuple>> {
    match tree {
        Tree::Leaf(InputPlan::Scan(scan)) => exec_scan(scan, report, par),
        Tree::Leaf(InputPlan::Query(sub, _)) => {
            let rs = execute_sub(sub, report, allow_positional, par)?;
            Ok(rs.rows)
        }
        Tree::Join {
            left,
            right,
            keys,
            residual,
            ..
        } => {
            let lt = exec_tree(left, report, allow_positional, par)?;
            let rt = exec_tree(right, report, allow_positional, par)?;
            hash_join(lt, rt, keys, residual.as_ref(), report, par)
        }
    }
}

fn exec_scan(scan: &ScanPlan, report: &mut QueryReport, par: &ParallelCtx) -> Result<Vec<Tuple>> {
    par.check_interrupt()?;
    let span = blend_obs::span_owned(format!("scan:{}", scan.alias));
    let table = scan.table.as_ref();
    let mut out = Vec::new();
    let mut scanned = 0usize;
    let mut scratch = ScanScratch::default();

    // Fast filters run through the same compiled kernel as the positional
    // executor — one batched `filter_batch`/`filter_range` call per
    // candidate segment into the reusable selection vector. Only the
    // survivors materialize tuples (the residual still needs them).
    let emit = |sel: &[u32], out: &mut Vec<Tuple>| {
        for &pos in sel {
            let tuple = materialize(table, pos as usize);
            if let Some(res) = &scan.residual {
                if !res.eval_predicate(&tuple) {
                    continue;
                }
            }
            out.push(tuple);
        }
    };

    match &scan.access {
        AccessPath::ValueIndex { .. } => {
            for v in &scan.driving_values {
                par.check_interrupt()?;
                let postings = table.postings(v);
                scanned += postings.len();
                scratch.sel.clear();
                table.filter_batch(&scan.kernel, postings, &mut scratch.sel);
                emit(&scratch.sel, &mut out);
            }
        }
        AccessPath::TableIndex { .. } => {
            for &t in &scan.driving_tables {
                par.check_interrupt()?;
                let range = table.table_postings(t);
                scanned += range.len();
                scratch.sel.clear();
                table.filter_range(&scan.kernel, range.start, range.end, &mut scratch.sel);
                emit(&scratch.sel, &mut out);
            }
        }
        AccessPath::SeqScan { .. } => {
            // One batched kernel pass per morsel-sized range so a deadline
            // is observed mid-table (survivors concatenate identically to
            // a single whole-table call).
            let n = table.len();
            let mut lo = 0usize;
            while lo < n {
                par.check_interrupt()?;
                let hi = (lo + par.morsel_len()).min(n);
                scanned += hi - lo;
                scratch.sel.clear();
                table.filter_range(&scan.kernel, lo, hi, &mut scratch.sel);
                emit(&scratch.sel, &mut out);
                lo = hi;
            }
        }
    }

    span.attr_str("access", scan.access.label());
    span.attr_u64("scanned", scanned as u64);
    span.attr_u64("rows", out.len() as u64);
    report.scans.push(ScanReport {
        alias: scan.alias.clone(),
        access: scan.access.label().to_string(),
        estimated: scan.access.estimated(),
        scanned,
        emitted: out.len(),
    });
    Ok(out)
}

fn hash_join(
    left: Vec<Tuple>,
    right: Vec<Tuple>,
    keys: &[(usize, usize)],
    residual: Option<&CExpr>,
    report: &mut QueryReport,
    par: &ParallelCtx,
) -> Result<Vec<Tuple>> {
    par.check_interrupt()?;
    // Build on the smaller side; output column order is always left++right.
    let build_left = left.len() <= right.len();
    let (build, probe) = if build_left {
        (&left, &right)
    } else {
        (&right, &left)
    };
    let build_key = |t: &Tuple| -> Vec<SqlValue> {
        keys.iter()
            .map(|&(l, r)| t[if build_left { l } else { r }].clone())
            .collect()
    };
    let probe_key = |t: &Tuple| -> Vec<SqlValue> {
        keys.iter()
            .map(|&(l, r)| t[if build_left { r } else { l }].clone())
            .collect()
    };

    let build_span = blend_obs::span("join.build");
    let mut table: FxHashMap<Vec<SqlValue>, Vec<usize>> = FxHashMap::default();
    for (i, t) in build.iter().enumerate() {
        if i & 0xFFF == 0 {
            par.check_interrupt()?;
        }
        // SQL join semantics: NULL keys never match.
        let k = build_key(t);
        if k.iter().any(SqlValue::is_null) {
            continue;
        }
        table.entry(k).or_default().push(i);
    }
    build_span.attr_u64("rows", build.len() as u64);
    drop(build_span);

    let probe_span = blend_obs::span("join.probe");
    let mut out = Vec::new();
    for (pi, pt) in probe.iter().enumerate() {
        if pi & 0xFFF == 0 {
            par.check_interrupt()?;
        }
        let k = probe_key(pt);
        if k.iter().any(SqlValue::is_null) {
            continue;
        }
        if let Some(matches) = table.get(&k) {
            for &bi in matches {
                let bt = &build[bi];
                let (lt, rt) = if build_left { (bt, pt) } else { (pt, bt) };
                let mut joined = Vec::with_capacity(lt.len() + rt.len());
                joined.extend(lt.iter().cloned());
                joined.extend(rt.iter().cloned());
                if let Some(res) = residual {
                    if !res.eval_predicate(&joined) {
                        continue;
                    }
                }
                out.push(joined);
            }
        }
    }
    probe_span.attr_u64("rows", probe.len() as u64);
    probe_span.attr_u64("matched", out.len() as u64);
    drop(probe_span);
    report.joins.push((build.len(), probe.len(), out.len()));
    Ok(out)
}

// ---- aggregation -----------------------------------------------------------

pub(crate) enum AggState {
    Count(i64),
    CountDistinct(FxHashSet<SqlValue>),
    Sum { acc: f64, all_int: bool, seen: bool },
    Min(Option<SqlValue>),
    Max(Option<SqlValue>),
    Avg { sum: f64, n: i64 },
}

impl AggState {
    pub(crate) fn new(plan: &AggPlan) -> AggState {
        match (plan.func, plan.distinct) {
            (AggFunc::Count, true) => AggState::CountDistinct(FxHashSet::default()),
            (AggFunc::Count, false) => AggState::Count(0),
            (AggFunc::Sum, _) => AggState::Sum {
                acc: 0.0,
                all_int: true,
                seen: false,
            },
            (AggFunc::Min, _) => AggState::Min(None),
            (AggFunc::Max, _) => AggState::Max(None),
            (AggFunc::Avg, _) => AggState::Avg { sum: 0.0, n: 0 },
        }
    }

    fn update(&mut self, plan: &AggPlan, tuple: &Tuple) {
        self.update_value(plan.arg.as_ref().map(|e| e.eval(tuple)));
    }

    /// Fold one already-evaluated argument (`None` = no argument, i.e.
    /// `COUNT(*)`). The positional executor evaluates arguments from
    /// storage positions and feeds them here.
    pub(crate) fn update_value(&mut self, arg: Option<SqlValue>) {
        match self {
            AggState::Count(n) => match &arg {
                // COUNT(*) counts rows; COUNT(x) counts non-null x.
                None => *n += 1,
                Some(v) if !v.is_null() => *n += 1,
                _ => {}
            },
            AggState::CountDistinct(set) => {
                if let Some(v) = arg {
                    if !v.is_null() {
                        set.insert(v);
                    }
                }
            }
            AggState::Sum { acc, all_int, seen } => {
                if let Some(v) = arg {
                    if let Some(f) = v.as_f64() {
                        *acc += f;
                        *seen = true;
                        if matches!(v, SqlValue::Float(_)) {
                            *all_int = false;
                        }
                    }
                }
            }
            AggState::Min(cur) => {
                if let Some(v) = arg {
                    if !v.is_null() {
                        let replace = match cur {
                            None => true,
                            Some(c) => v.order_cmp(c).is_lt(),
                        };
                        if replace {
                            *cur = Some(v);
                        }
                    }
                }
            }
            AggState::Max(cur) => {
                if let Some(v) = arg {
                    if !v.is_null() {
                        let replace = match cur {
                            None => true,
                            Some(c) => v.order_cmp(c).is_gt(),
                        };
                        if replace {
                            *cur = Some(v);
                        }
                    }
                }
            }
            AggState::Avg { sum, n } => {
                if let Some(f) = arg.and_then(|v| v.as_f64()) {
                    *sum += f;
                    *n += 1;
                }
            }
        }
    }

    pub(crate) fn finish(self) -> SqlValue {
        match self {
            AggState::Count(n) => SqlValue::Int(n),
            AggState::CountDistinct(set) => SqlValue::Int(set.len() as i64),
            AggState::Sum { acc, all_int, seen } => {
                if !seen {
                    SqlValue::Null
                } else if all_int {
                    SqlValue::Int(acc as i64)
                } else {
                    SqlValue::Float(acc)
                }
            }
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

fn exec_group(group: &GroupPlan, tuples: Vec<Tuple>, par: &ParallelCtx) -> Result<Vec<Tuple>> {
    par.check_interrupt()?;
    let span = blend_obs::span(if group.group_exprs.is_empty() {
        "group.global"
    } else {
        "group"
    });
    span.attr_u64("rows", tuples.len() as u64);
    // Key order must be deterministic for stable results; keep first-seen
    // order via an index map built on top of the hash map.
    let mut index: FxHashMap<Vec<SqlValue>, usize> = FxHashMap::default();
    let mut groups: Vec<(Vec<SqlValue>, Vec<AggState>)> = Vec::new();

    let global = group.group_exprs.is_empty();
    if global {
        groups.push((Vec::new(), group.aggs.iter().map(AggState::new).collect()));
    }

    for (ti, t) in tuples.iter().enumerate() {
        if ti & 0xFFF == 0 {
            par.check_interrupt()?;
        }
        let key: Vec<SqlValue> = group.group_exprs.iter().map(|e| e.eval(t)).collect();
        let gi = if global {
            0
        } else {
            match index.get(&key) {
                Some(&i) => i,
                None => {
                    let i = groups.len();
                    index.insert(key.clone(), i);
                    groups.push((key.clone(), group.aggs.iter().map(AggState::new).collect()));
                    i
                }
            }
        };
        for (state, plan) in groups[gi].1.iter_mut().zip(&group.aggs) {
            state.update(plan, t);
        }
    }

    Ok(groups
        .into_iter()
        .map(|(key, states)| {
            let mut row = key;
            row.extend(states.into_iter().map(AggState::finish));
            row
        })
        .collect())
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
