//! The database facade: catalog + parse/plan/execute entry points.

use std::borrow::Cow;
use std::sync::{Arc, OnceLock, RwLock};

use blend_common::{FxHashMap, Result};
use blend_parallel::{Interrupt, ParallelCtx, QueryMemory};
use blend_storage::FactTable;

use crate::ast::Query;
use crate::columns::ResultColumns;
use crate::exec::{QueryReport, ResultSet, ServingStats};
use crate::parser::parse;
use crate::plan::{plan_query, Catalog, CatalogSnapshot};

/// Engine-level metric cells (`blend_sql_*`). Queries are labeled by the
/// executor that ran them, which is always the positional one.
struct SqlMetrics {
    queries: Arc<blend_obs::Counter>,
    errors: Arc<blend_obs::Counter>,
    exec_time: Arc<blend_obs::Histogram>,
}

fn sql_metrics() -> &'static SqlMetrics {
    static METRICS: OnceLock<SqlMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = blend_obs::registry();
        SqlMetrics {
            queries: r.counter("blend_sql_queries_total{path=\"positional\"}"),
            errors: r.counter("blend_sql_query_errors_total"),
            exec_time: r.histogram("blend_sql_exec_nanos"),
        }
    })
}

/// A named collection of fact tables (the catalog). BLEND registers a
/// single table, `AllTables`, but tests register small auxiliary tables.
///
/// The catalog is interiorly mutable: a running deployment swaps in a
/// rebuilt `AllTables` via [`SqlEngine::replace_table`] while queries are
/// in flight. A query planned against the old table keeps its `Arc` and
/// finishes against the snapshot it started with.
///
/// The table map is copy-on-write behind the lock: [`register`](Self::register)
/// publishes a new map, and [`snapshot`](Self::snapshot) hands a planner the
/// whole current one, so one query never sees two versions of the catalog.
#[derive(Default)]
pub struct Database {
    tables: RwLock<CatalogSnapshot>,
}

impl Database {
    /// Empty catalog.
    pub fn new() -> Self {
        Database::default()
    }

    /// Catalog with `AllTables` registered — the standard BLEND deployment.
    pub fn with_alltables(table: Arc<dyn FactTable>) -> Self {
        let db = Database::new();
        db.register("alltables", table);
        db
    }

    /// Register a table under a (case-insensitive) name, replacing any
    /// previous table of that name.
    pub fn register(&self, name: &str, table: Arc<dyn FactTable>) {
        // Every update leaves a complete map behind, so a poisoned lock
        // still guards a valid catalog.
        let mut current = self.tables.write().unwrap_or_else(|e| e.into_inner());
        let mut next = FxHashMap::clone(&current);
        next.insert(name.to_lowercase(), table);
        *current = Arc::new(next);
    }

    /// The tables registered right now, as one immutable map.
    pub fn snapshot(&self) -> CatalogSnapshot {
        self.tables
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Fetch a registered table.
    pub fn get(&self, name: &str) -> Option<Arc<dyn FactTable>> {
        self.snapshot().get(&name.to_lowercase()).cloned()
    }

    /// The `AllTables` handle, if registered.
    pub fn alltables(&self) -> Option<Arc<dyn FactTable>> {
        self.get("alltables")
    }
}

impl Catalog for Database {
    fn snapshot(&self) -> CatalogSnapshot {
        Database::snapshot(self)
    }
}

/// Parse → plan → execute pipeline over a [`Database`].
pub struct SqlEngine {
    db: Database,
    /// This engine's catalog generation: 1 at construction (0 is the "never
    /// observed" sentinel) and advanced by [`replace_table`](Self::replace_table).
    /// Engine-local, so one deployment's rebuilds don't invalidate another
    /// engine's memoized results (and tests sharing a process stay
    /// independent).
    generation: std::sync::atomic::AtomicU64,
    /// The context every query runs under: its interrupt, memory scope and
    /// chunk length. Defaults to [`ParallelCtx::shared_from_env`] (width
    /// from `BLEND_THREADS`): every engine in the process shares **one**
    /// admission budget, so serving queues across engines draw from a
    /// single machine-wide allotment.
    parallel: Arc<ParallelCtx>,
}

impl SqlEngine {
    /// Engine over a catalog.
    pub fn new(db: Database) -> Self {
        SqlEngine {
            db,
            generation: std::sync::atomic::AtomicU64::new(1),
            parallel: ParallelCtx::shared_from_env(),
        }
    }

    /// Engine over a catalog holding only `AllTables`.
    pub fn with_alltables(table: Arc<dyn FactTable>) -> Self {
        SqlEngine::new(Database::with_alltables(table))
    }

    /// Replace the parallel-execution context (builder style).
    pub fn with_parallel(mut self, ctx: Arc<ParallelCtx>) -> Self {
        self.parallel = ctx;
        self
    }

    /// Replace the parallel-execution context.
    pub fn set_parallel(&mut self, ctx: Arc<ParallelCtx>) {
        self.parallel = ctx;
    }

    /// The parallel-execution context queries run with.
    pub fn parallel_ctx(&self) -> &Arc<ParallelCtx> {
        &self.parallel
    }

    /// Access the catalog.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The generation of this engine's catalog. Result caches key entries
    /// on the generation observed when the result was produced;
    /// [`replace_table`](Self::replace_table) advances it, so stale
    /// entries can never match a post-rebuild lookup.
    pub fn generation(&self) -> u64 {
        self.generation.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Swap a catalog table for a rebuilt one and advance this engine's
    /// generation. In-flight queries finish
    /// against the snapshot they planned with; queries planned after this
    /// call see the new table, and memoized results from before it stop
    /// matching — the generation bump is ordered *after* the catalog swap,
    /// so a reader observing the new generation always resolves the new
    /// table.
    pub fn replace_table(&self, name: &str, table: Arc<dyn FactTable>) {
        self.db.register(name, table);
        self.generation
            .fetch_add(1, std::sync::atomic::Ordering::AcqRel);
    }

    /// Execute a SQL string.
    pub fn execute(&self, sql: &str) -> Result<ResultSet> {
        self.execute_with_report(sql).map(|(rs, _)| rs)
    }

    /// Execute a SQL string and return execution telemetry alongside the
    /// result (used by the optimizer experiments and tests).
    pub fn execute_with_report(&self, sql: &str) -> Result<(ResultSet, QueryReport)> {
        self.execute_interruptible(sql, Interrupt::never())
    }

    /// The test oracle: parse and plan `sql` like [`execute`](Self::execute),
    /// then run the plan on the tuple-at-a-time reference interpreter
    /// (`exec` module docs) — sequentially, with no span, no memory
    /// reservation and no interrupt. Its report says `path = "reference"`
    /// and carries the scan, join and result-row telemetry. Parity tests
    /// compare the production entries against it; nothing else calls it.
    pub fn execute_reference(&self, sql: &str) -> Result<(ResultSet, QueryReport)> {
        crate::exec::execute_reference(&plan_query(&parse(sql)?, &self.db)?)
    }

    /// Execute under a cancellation/deadline [`Interrupt`], scoped onto the
    /// shared [`ParallelCtx`] for the query's run; an interrupted query
    /// returns a typed `BlendError::{Cancelled, Timeout}` with no partial
    /// results.
    pub fn execute_interruptible(
        &self,
        sql: &str,
        interrupt: Interrupt,
    ) -> Result<(ResultSet, QueryReport)> {
        let ast = || spanned("parse", || parse(sql)).map(Cow::Owned);
        self.run(ast, interrupt, true, |cols| cols.to_result_set())
    }

    /// Execute an already-parsed query and return the result as flat
    /// columns. The serving tier parses once at submission (it needs the
    /// AST for fingerprinting anyway), builds one `Interrupt` per request,
    /// and keeps the columns as they are: no `SqlValue` row is built until a
    /// caller reads typed slices ([`ResultColumns::col`]) or asks for rows
    /// itself ([`ResultColumns::to_result_set`]).
    pub fn execute_parsed_interruptible(
        &self,
        ast: &Query,
        interrupt: Interrupt,
    ) -> Result<(ResultColumns, QueryReport)> {
        let parsed = || Ok(Cow::Borrowed(ast));
        self.run(parsed, interrupt, false, |cols| cols)
    }

    /// [`execute_parsed_interruptible`](Self::execute_parsed_interruptible)
    /// of a SQL string.
    pub fn execute_columns_interruptible(
        &self,
        sql: &str,
        interrupt: Interrupt,
    ) -> Result<(ResultColumns, QueryReport)> {
        let ast = || spanned("parse", || parse(sql)).map(Cow::Owned);
        self.run(ast, interrupt, false, |cols| cols)
    }

    /// Inside the query's root span: take the query from `ast` (SQL text is
    /// parsed there, under a `parse` span), plan it under `plan` and run it on the positional executor — the one path under
    /// every entry — then `finish` its flat columns into what the caller
    /// asked for (rows when `rows`, else the columns as they are) under the
    /// `materialize` span, the last child of the root.
    fn run<'q, T>(
        &self,
        ast: impl FnOnce() -> Result<Cow<'q, Query>>,
        interrupt: Interrupt,
        rows: bool,
        finish: impl FnOnce(ResultColumns) -> T,
    ) -> Result<(T, QueryReport)> {
        interrupt.check()?;
        // The root span of this query's profile tree: every phase span the
        // executors record below nests under it.
        let trace = blend_obs::trace_begin("query");
        // Fresh per-query memory scope on the shared governor: operator
        // reservations charge through it, and its high-water mark lands on
        // the profile root below. Dropping the scope (with every
        // reservation) on any exit path returns the bytes.
        let memory = Arc::new(QueryMemory::new(self.parallel.governor().clone()));
        let outcome = (|| {
            let ast = ast()?;
            let plan = spanned("plan", || plan_query(&ast, &self.db))?;
            let par = self
                .parallel
                .with_interrupt(interrupt)
                .with_query_memory(memory.clone());
            let mut report = QueryReport {
                path: "positional".to_string(),
                ..QueryReport::default()
            };
            let cols = crate::exec_positional::execute(&plan, &mut report, &par)?;
            // Charge the result as the executor left it. Rows are priced
            // from the columns (`rows_bytes`) and charged on top before they
            // are built; a result too large for the remaining budget
            // resolves typed like any other site.
            let mut charged = memory.try_reserve("result_rows", cols.approx_bytes())?;
            let span = blend_obs::span("materialize");
            if rows {
                charged.grow(cols.rows_bytes())?;
            }
            let out = finish(cols);
            // The `SqlValue` rows the caller gets, and what `result_rows`
            // holds for them.
            span.attr_u64("rows", if rows { report.result_rows as u64 } else { 0 });
            span.attr_u64("bytes", charged.bytes() as u64);
            Ok((out, report))
        })();
        let m = sql_metrics();
        match outcome {
            Ok((out, mut report)) => {
                trace.attr_str("path", report.path.clone());
                trace.attr_u64("mem_peak_bytes", memory.peak_bytes() as u64);
                report.profile = trace.finish();
                m.queries.inc();
                let exec_nanos = report.profile.as_ref().map_or(0, |p| p.root.nanos);
                m.exec_time.record(exec_nanos);
                // End-to-end timing for *direct* calls too, sourced from
                // the root span; the serving tier overwrites this with the
                // queue-side view (which adds the real queue wait) when
                // the query arrived through `blend_serve`.
                if report.serving.is_none() && exec_nanos > 0 {
                    report.serving = Some(ServingStats {
                        queue_wait_nanos: 0,
                        exec_nanos,
                        outcome: "ok".into(),
                    });
                }
                Ok((out, report))
            }
            Err(e) => {
                drop(trace);
                m.errors.inc();
                Err(e)
            }
        }
    }
}

/// `f` under a span named `name`.
fn spanned<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = blend_obs::span(name);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use blend_storage::{build_engine, EngineKind, FactRow};

    /// Build a lake of three mini tables mirroring the paper's Fig. 1:
    /// T1 (2022 staff), T2 (outdated staff incl. "tom riddle"), T3 (2024
    /// staff), each with (lead, year, team) columns, plus numeric sizes.
    fn fig1_rows() -> Vec<FactRow> {
        let mut rows = Vec::new();
        let mut push_table = |tid: u32, leads: &[&str], year: &str, teams: &[&str]| {
            for (r, (lead, team)) in leads.iter().zip(teams).enumerate() {
                let sk: u128 = (1u128 << (tid * 7 + r as u32 % 7)) | 0x8000;
                rows.push(FactRow::new(lead, tid, 0, r as u32, sk, None));
                rows.push(FactRow::new(year, tid, 1, r as u32, sk, Some(r % 2 == 0)));
                rows.push(FactRow::new(team, tid, 2, r as u32, sk, None));
            }
        };
        // T1 = table 0 (sizes table in the paper, simplified to same shape)
        push_table(
            0,
            &["finance", "marketing", "hr", "it", "sales"],
            "31",
            &["finance", "marketing", "hr", "it", "sales"],
        );
        // T2 = table 1: 2022 listing with tom riddle
        push_table(
            1,
            &[
                "tom riddle",
                "draco malfoy",
                "harry potter",
                "cho chang",
                "firenze",
            ],
            "2022",
            &["it", "marketing", "finance", "r&d", "hr"],
        );
        // T3 = table 2: 2024 listing, riddle replaced
        push_table(
            2,
            &[
                "ronald weasley",
                "draco malfoy",
                "harry potter",
                "cho chang",
                "firenze",
            ],
            "2024",
            &["it", "marketing", "finance", "r&d", "hr"],
        );
        rows
    }

    fn engines() -> Vec<SqlEngine> {
        vec![
            SqlEngine::with_alltables(build_engine(EngineKind::Row, fig1_rows())),
            SqlEngine::with_alltables(build_engine(EngineKind::Column, fig1_rows())),
        ]
    }

    #[test]
    fn listing_1_sc_seeker_shape() {
        for eng in engines() {
            let rs = eng
                .execute(
                    "SELECT TableId, COUNT(DISTINCT CellValue) AS score FROM AllTables \
                     WHERE CellValue IN ('hr','marketing','finance','it','r&d','sales') \
                     GROUP BY TableId, ColumnId \
                     ORDER BY COUNT(DISTINCT CellValue) DESC LIMIT 10",
                )
                .unwrap();
            assert!(!rs.is_empty());
            // Best single column must be one of the team columns with 5
            // overlapping values.
            assert_eq!(rs.i64(0, "score"), Some(5));
            // Scores never increase down the list.
            let scores: Vec<i64> = (0..rs.len()).map(|r| rs.i64(r, "score").unwrap()).collect();
            assert!(scores.windows(2).all(|w| w[0] >= w[1]));
        }
    }

    #[test]
    fn listing_2_mc_join_alignment() {
        for eng in engines() {
            // Find tables containing ("hr" and "firenze") in the same row —
            // paper Example 1's positive examples. Expect T2 (=1) and T3 (=2).
            let rs = eng
                .execute(
                    "SELECT * FROM \
                     (SELECT * FROM AllTables WHERE CellValue IN ('firenze')) AS q1 \
                     INNER JOIN \
                     (SELECT * FROM AllTables WHERE CellValue IN ('hr')) AS q2 \
                     ON q1.TableId = q2.TableId AND q1.RowId = q2.RowId",
                )
                .unwrap();
            let mut tables: Vec<u32> = rs.column_u32("q1.tableid");
            tables.sort_unstable();
            tables.dedup();
            assert_eq!(tables, vec![1, 2]);
        }
    }

    #[test]
    fn reports_expose_access_paths() {
        for eng in engines() {
            let (_, report) = eng
                .execute_with_report("SELECT TableId FROM AllTables WHERE CellValue IN ('firenze')")
                .unwrap();
            assert_eq!(report.scans.len(), 1);
            assert_eq!(report.scans[0].access, "value-index");
            // firenze appears twice (T2, T3); the index visits exactly those.
            assert_eq!(report.scans[0].scanned, 2);
        }
    }

    #[test]
    fn rewrite_predicate_switches_to_table_index() {
        for eng in engines() {
            // A rewritten query with a very selective TableId IN list should
            // drive by the table index when the value list is broader.
            let (rs, report) = eng
                .execute_with_report(
                    "SELECT TableId FROM AllTables \
                     WHERE CellValue IN ('hr','marketing','finance','it','r&d','sales','2022','2024') \
                     AND TableId IN (2) GROUP BY TableId",
                )
                .unwrap();
            assert_eq!(rs.column_u32("tableid"), vec![2]);
            assert_eq!(report.scans[0].access, "table-index");
        }
    }

    #[test]
    fn not_in_filters_tables() {
        for eng in engines() {
            let rs = eng
                .execute(
                    "SELECT TableId FROM AllTables WHERE CellValue IN ('firenze') \
                     AND TableId NOT IN (1) GROUP BY TableId",
                )
                .unwrap();
            assert_eq!(rs.column_u32("tableid"), vec![2]);
        }
    }

    #[test]
    fn quadrant_is_not_null_seq_scan() {
        for eng in engines() {
            let (rs, report) = eng
                .execute_with_report(
                    "SELECT TableId, COUNT(*) AS n FROM AllTables \
                     WHERE Quadrant IS NOT NULL GROUP BY TableId ORDER BY TableId",
                )
                .unwrap();
            assert_eq!(report.scans[0].access, "seq");
            assert_eq!(rs.len(), 3);
            for r in 0..3 {
                assert_eq!(rs.i64(r, "n"), Some(5)); // 5 numeric year/size cells each
            }
        }
    }

    #[test]
    fn rowid_bound_limits_sampling() {
        for eng in engines() {
            let rs = eng
                .execute("SELECT COUNT(*) AS n FROM AllTables WHERE RowId < 2 AND TableId = 0")
                .unwrap();
            // 3 columns x 2 rows.
            assert_eq!(rs.i64(0, "n"), Some(6));
        }
    }

    #[test]
    fn order_by_alias_and_limit() {
        for eng in engines() {
            let rs = eng
                .execute(
                    "SELECT TableId AS t, COUNT(*) AS n FROM AllTables \
                     GROUP BY TableId ORDER BY t DESC LIMIT 2",
                )
                .unwrap();
            assert_eq!(rs.column_u32("t"), vec![2, 1]);
        }
    }

    #[test]
    fn unknown_table_is_planning_error() {
        let eng = SqlEngine::new(Database::new());
        let err = eng.execute("SELECT * FROM AllTables").unwrap_err();
        assert!(err.to_string().contains("unknown table"));
    }

    #[test]
    fn engines_produce_identical_results() {
        let queries = [
            "SELECT TableId, ColumnId, COUNT(DISTINCT CellValue) AS s FROM AllTables \
             WHERE CellValue IN ('hr','it','2022','draco malfoy') \
             GROUP BY TableId, ColumnId ORDER BY s DESC, TableId, ColumnId",
            "SELECT * FROM AllTables WHERE RowId < 1 AND Quadrant IS NOT NULL",
            "SELECT TableId FROM AllTables GROUP BY TableId ORDER BY COUNT(*) DESC, TableId",
        ];
        let row = SqlEngine::with_alltables(build_engine(EngineKind::Row, fig1_rows()));
        let col = SqlEngine::with_alltables(build_engine(EngineKind::Column, fig1_rows()));
        for q in queries {
            let a = row.execute(q).unwrap();
            let b = col.execute(q).unwrap();
            assert_eq!(a, b, "query {q}");
        }
    }

    #[test]
    fn correlation_style_query_runs() {
        // Structural smoke test of the Listing-3 shape (semantics are
        // validated end-to-end in the core crate where quadrants are real).
        for eng in engines() {
            let rs = eng
                .execute(
                    "SELECT keys.TableId AS t, keys.ColumnId AS kc, nums.ColumnId AS nc, \
                     ABS((2 * SUM(((keys.CellValue IN ('it','hr') AND nums.Quadrant = 0) OR \
                     (keys.CellValue IN ('finance','marketing','r&d','sales') AND nums.Quadrant = 1))::int) \
                     - COUNT(*)) / COUNT(*)) AS score \
                     FROM (SELECT * FROM AllTables WHERE RowId < 256 AND CellValue IN \
                     ('it','hr','finance','marketing','r&d','sales')) keys \
                     INNER JOIN (SELECT * FROM AllTables WHERE RowId < 256 AND Quadrant IS NOT NULL) nums \
                     ON keys.TableId = nums.TableId AND keys.RowId = nums.RowId \
                     GROUP BY keys.TableId, nums.ColumnId, keys.ColumnId \
                     ORDER BY score DESC LIMIT 5",
                )
                .unwrap();
            assert!(!rs.is_empty());
            let s0 = rs.f64(0, "score").unwrap();
            assert!((0.0..=1.0).contains(&s0), "QCR must be in [0,1], got {s0}");
        }
    }
}
