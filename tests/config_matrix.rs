//! Every configuration a deployment or a test can give the engine, in one
//! process: pool width × admission budget, forced SIMD dispatch, an
//! unbounded or a 64 MiB memory governor, and the row or column store.
//!
//! The corpus is `exec_parity`'s — the four seeker shapes under every
//! injected fragment — plus a zero-key aggregate and a `CellValue`
//! self-join, which takes the tuple path. Under each configuration every
//! query must return, byte for byte, what a sequential, unbounded
//! `ExecPath::TupleOnly` run returns: through the row entry, and through
//! the columnar entry once its columns are turned into rows. The bounded
//! governor must hold nothing after each query, and a serving queue with a
//! 64 KiB result cache on that governor must deliver the same bytes twice
//! over and give every byte back when it is dropped.
//!
//! One `#[test]`, because `blend_simd::force` is process-global.

mod common;

use std::sync::Arc;

use blend::seekers;
use blend::Blend;
use blend_parallel::{Deadline, Interrupt, MemoryGovernor, ParallelCtx};
use blend_serve::{ServeConfig, ServeQueue, Ticket};
use blend_sql::{ExecPath, SqlEngine};
use blend_storage::EngineKind;

/// `(threads, admission budget)`: sequential; the whole pool; a budget
/// smaller than the pool, so concurrent phases degrade.
const POOLS: [(usize, usize); 3] = [(1, 0), (4, 3), (4, 2)];

const ZERO_KEY_AGGREGATE: &str =
    "SELECT COUNT(*) AS n, SUM(RowId) AS s, COUNT(DISTINCT CellValue) AS d \
     FROM AllTables WHERE ColumnId < 2";

const CELLVALUE_SELF_JOIN: &str = "SELECT a.TableId, b.TableId, COUNT(*) AS n \
     FROM AllTables a INNER JOIN AllTables b ON a.CellValue = b.CellValue \
     WHERE a.ColumnId = 0 AND b.RowId < 3 AND a.TableId <> b.TableId \
     GROUP BY a.TableId, b.TableId ORDER BY n DESC, a.TableId, b.TableId LIMIT 25";

/// Resets the process-global SIMD override when the test ends, pass or fail.
struct Unforce;

impl Drop for Unforce {
    fn drop(&mut self) {
        blend_simd::force(None);
    }
}

#[test]
fn every_configuration_returns_the_sequential_tuple_bytes() {
    let _unforce = Unforce;
    let lake = common::lake();
    // (SQL, is a seeker shape)
    let mut corpus: Vec<(String, bool)> = Vec::new();
    for (_, seeker) in common::seeker_suite(&lake) {
        let template = seekers::seeker_sql(&seeker, 10, 64);
        for (_, injected) in common::fragments() {
            corpus.push((common::render(&template, &injected), true));
        }
    }
    corpus.push((ZERO_KEY_AGGREGATE.to_string(), false));
    corpus.push((CELLVALUE_SELF_JOIN.to_string(), false));

    for kind in [EngineKind::Row, EngineKind::Column] {
        let fact = Blend::from_lake(&lake, kind).fact_table();
        let engine_on = |ctx: ParallelCtx| {
            Arc::new(SqlEngine::with_alltables(fact.clone()).with_parallel(Arc::new(ctx)))
        };
        let reference = engine_on(
            ParallelCtx::sequential().with_governor(Arc::new(MemoryGovernor::unbounded())),
        );
        let want: Vec<String> = corpus
            .iter()
            .map(|(sql, seeker)| {
                let (rs, report) = reference
                    .execute_with_report_path(sql, ExecPath::TupleOnly)
                    .unwrap_or_else(|e| panic!("{kind:?} reference: {e}: {sql}"));
                assert_eq!(report.path, "tuple");
                assert!(*seeker || !rs.is_empty(), "{kind:?}: empty result: {sql}");
                format!("{rs:?}")
            })
            .collect();
        let (_, self_join_report) = reference
            .execute_with_report_path(CELLVALUE_SELF_JOIN, ExecPath::Auto)
            .unwrap();
        assert_eq!(self_join_report.path, "tuple", "{kind:?}: self-join path");

        for (threads, budget) in POOLS {
            for vector in [false, true] {
                blend_simd::force(Some(vector));
                for bounded in [false, true] {
                    let label = format!(
                        "{kind:?}/{threads} threads/{budget} tokens/vector={vector}/bounded={bounded}"
                    );
                    let gov = Arc::new(if bounded {
                        MemoryGovernor::with_budget(64 << 20)
                    } else {
                        MemoryGovernor::unbounded()
                    });
                    let engine = engine_on(
                        ParallelCtx::with_admission(threads, 1, 32, budget)
                            .with_governor(gov.clone()),
                    );
                    for ((sql, seeker), want) in corpus.iter().zip(&want) {
                        let (rs, report) = engine
                            .execute_with_report_path(sql, ExecPath::Auto)
                            .unwrap_or_else(|e| panic!("{label}: {e}: {sql}"));
                        assert_eq!(&format!("{rs:?}"), want, "{label}: row entry: {sql}");
                        if *seeker {
                            assert_eq!(report.path, "positional", "{label}: {sql}");
                        }
                        let (cols, _) = engine
                            .execute_columns_interruptible(sql, ExecPath::Auto, Interrupt::never())
                            .unwrap_or_else(|e| panic!("{label}: columns: {e}: {sql}"));
                        let rs = cols.to_result_set();
                        assert_eq!(&format!("{rs:?}"), want, "{label}: columns: {sql}");
                        assert_eq!(gov.reserved_bytes(), 0, "{label}: leaked: {sql}");
                    }
                    if bounded {
                        serve_twice(engine, &gov, &corpus, &want, &label);
                    }
                }
            }
        }
    }
}

/// The corpus, submitted whole, twice, through a queue whose 64 KiB result
/// cache charges `gov`: too small for every result, so the second round
/// is served partly from the cache and partly by fresh executions.
fn serve_twice(
    engine: Arc<SqlEngine>,
    gov: &MemoryGovernor,
    corpus: &[(String, bool)],
    want: &[String],
    label: &str,
) {
    let queue = ServeQueue::new(
        engine,
        ServeConfig {
            result_cache_bytes: 64 << 10,
            ..ServeConfig::default()
        },
    );
    for round in 0..2 {
        let tickets: Vec<Ticket> = corpus
            .iter()
            .map(|(sql, _)| {
                queue
                    .submit(sql, Deadline::none())
                    .unwrap_or_else(|e| panic!("{label}: submit: {e}: {sql}"))
            })
            .collect();
        for ((ticket, (sql, _)), want) in tickets.into_iter().zip(corpus).zip(want) {
            let (rs, _) = ticket
                .wait()
                .unwrap_or_else(|e| panic!("{label}: served: {e}: {sql}"));
            assert_eq!(
                &format!("{rs:?}"),
                want,
                "{label}: served round {round}: {sql}"
            );
        }
    }
    assert!(queue.stats().cache_hits > 0, "{label}: no cache hit");
    drop(queue);
    assert_eq!(gov.reserved_bytes(), 0, "{label}: the cache must drain");
}
