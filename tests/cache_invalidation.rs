//! Cache invalidation under rebuild: swap the catalog mid-storm and prove
//! **no stale result is ever served**. The serving tier's result cache
//! keys on the engine's catalog generation, observed at dequeue; the swap
//! advances the generation *after* registering the new table, so every
//! request submitted after the swap returns must see post-rebuild data —
//! whether it executes fresh, coalesces, or hits the cache.
//!
//! The oracle: pre-rebuild rows carry the marker value `old`, post-rebuild
//! rows carry `new`. A storm of fingerprint-equal queries hammers the
//! queue while the main thread swaps the table; each storm result must be
//! homogeneous (one generation's rows, never a mix), and anything
//! submitted after the swap must be pure `new`. The whole run sits behind
//! the suite's 30 s watchdog so a stranded ticket fails loudly.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use blend_parallel::{Deadline, ParallelCtx};
use blend_serve::{FaultPlan, ServeConfig, ServeQueue};
use blend_sql::{SqlEngine, SqlValue};
use blend_storage::{build_engine, EngineKind, FactRow, FactTable};

const WATCHDOG: Duration = Duration::from_secs(30);

/// One generation of the fact table: every cell carries `marker` so a
/// result's provenance is visible in its bytes.
fn generation_fact(marker: &str) -> Arc<dyn FactTable> {
    let mut rows = Vec::new();
    for t in 0..4u32 {
        for r in 0..50u32 {
            let sk = ((t as u128) << 64) | r as u128;
            rows.push(FactRow::new(
                &format!("{marker}-{}", (t + r) % 5),
                t,
                0,
                r,
                sk,
                None,
            ));
        }
    }
    build_engine(EngineKind::Column, rows)
}

/// Which generation produced this result — `Err` if rows are mixed or
/// unrecognizable (both are correctness violations).
fn provenance(rows: &[Vec<SqlValue>]) -> Result<&'static str, String> {
    let mut saw_old = false;
    let mut saw_new = false;
    for row in rows {
        match &row[0] {
            SqlValue::Text(s) if s.starts_with("old-") => saw_old = true,
            SqlValue::Text(s) if s.starts_with("new-") => saw_new = true,
            other => return Err(format!("unrecognizable cell {other:?}")),
        }
    }
    match (saw_old, saw_new) {
        (true, true) => Err("mixed-generation result".into()),
        (false, true) => Ok("new"),
        _ => Ok("old"),
    }
}

#[test]
fn rebuild_mid_storm_never_serves_stale_results() {
    // Fingerprint-equal spellings: the storm exercises cache hits and
    // coalescing across the swap, not just fresh executions.
    let spellings = [
        "SELECT CellValue, TableId, RowId FROM AllTables \
         WHERE RowId < 40 ORDER BY CellValue, TableId, RowId LIMIT 60",
        "select cellvalue, tableid, rowid from alltables \
         where rowid < 40 order by cellvalue, tableid, rowid limit 60",
        "SELECT CellValue, TableId, RowId FROM AllTables \
         WHERE RowId < 40.0 ORDER BY CellValue, TableId, RowId LIMIT 60",
    ];

    let engine = Arc::new(
        SqlEngine::with_alltables(generation_fact("old"))
            .with_parallel(Arc::new(ParallelCtx::with_admission(4, 32, 2))),
    );
    let queue = Arc::new(ServeQueue::new(
        engine.clone(),
        ServeConfig {
            depth: 64,
            workers: 2,
            faults: FaultPlan::none(),
            result_cache_bytes: 4 << 20,
            coalesce: true,
        },
    ));

    // Warm the cache so the swap demonstrably invalidates a *hot* entry.
    let (warm, report) = queue
        .submit(spellings[0], Deadline::after(Duration::from_secs(20)))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(provenance(&warm.rows).unwrap(), "old");
    assert_eq!(report.serving.unwrap().outcome, "ok");
    assert!(queue.cached_results() >= 1, "warm-up populated the cache");

    // Storm: hammer fingerprint-equal spellings, recording each request's
    // submission time and the provenance of its bytes. The swap is
    // synchronized with storm progress (cache hits resolve in
    // microseconds, so a wall-clock sleep would let the whole storm
    // finish pre-swap): the storm runs until told to stop, and the main
    // thread stops it only after enough post-swap rounds have resolved.
    let rounds = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel();
    let storm_queue = queue.clone();
    let storm_rounds = rounds.clone();
    let storm_stop = stop.clone();
    let storm = std::thread::spawn(move || {
        let mut outcomes: Vec<(Instant, &'static str)> = Vec::new();
        while !storm_stop.load(Ordering::Acquire) {
            let round = storm_rounds.fetch_add(1, Ordering::AcqRel);
            let sql = spellings[round % spellings.len()];
            let submitted = Instant::now();
            let result = storm_queue
                .submit(sql, Deadline::after(Duration::from_secs(20)))
                .and_then(|t| t.wait());
            match result {
                Ok((rs, _)) => match provenance(&rs.rows) {
                    Ok(gen) => outcomes.push((submitted, gen)),
                    Err(e) => panic!("round {round}: corrupt result: {e}"),
                },
                Err(e) => panic!("round {round}: unexpected storm error: {e}"),
            }
        }
        let _ = tx.send(outcomes);
    });

    let wait_for_rounds = |target: usize| {
        let deadline = Instant::now() + WATCHDOG;
        while rounds.load(Ordering::Acquire) < target {
            assert!(
                Instant::now() < deadline,
                "storm stalled before reaching round {target}"
            );
            std::thread::yield_now();
        }
    };

    // Mid-storm rebuild: swap in the `new` generation. `replace_table`
    // registers the table first and bumps the generation after, so once
    // this call returns, every subsequent submission keys past the old
    // cache entries.
    wait_for_rounds(25);
    engine.replace_table("alltables", generation_fact("new"));
    let swap_done = Instant::now();
    let post_swap_target = rounds.load(Ordering::Acquire) + 100;
    wait_for_rounds(post_swap_target);
    stop.store(true, Ordering::Release);

    let outcomes = rx
        .recv_timeout(WATCHDOG)
        .expect("invalidation storm deadlocked");
    storm.join().expect("storm thread");

    let stale_after_swap = outcomes
        .iter()
        .filter(|(submitted, gen)| *submitted >= swap_done && *gen == "old")
        .count();
    assert_eq!(
        stale_after_swap, 0,
        "post-rebuild requests served pre-rebuild bytes"
    );
    let fresh = outcomes.iter().filter(|(_, gen)| *gen == "new").count();
    assert!(
        fresh > 0,
        "storm never observed the new generation (swap raced past the whole storm?)"
    );

    // And at quiesce: a fingerprint-equal request is served post-rebuild
    // data *from cache* — invalidation evicts stale entries, it does not
    // disable memoization.
    let (rs, report) = queue
        .submit(spellings[1], Deadline::after(Duration::from_secs(20)))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(provenance(&rs.rows).unwrap(), "new");
    let outcome = report.serving.unwrap().outcome;
    assert!(
        outcome == "cache_hit" || outcome == "ok",
        "post-swap steady state should memoize again, got `{outcome}`"
    );
}

/// A table whose every cell carries `marker`, with the text and the numeric
/// column laid out so an MC self-join finds rows in both versions.
fn mc_fact(marker: &str) -> Arc<dyn FactTable> {
    let mut rows = Vec::new();
    for t in 0..6u32 {
        for r in 0..40u32 {
            let sk = ((t as u128) << 64) | r as u128;
            rows.push(FactRow::new(
                &format!("{marker}-k{}", r % 4),
                t,
                0,
                r,
                sk,
                None,
            ));
            rows.push(FactRow::new(
                &format!("{marker}-v{}", r % 3),
                t,
                1,
                r,
                sk,
                None,
            ));
        }
    }
    build_engine(EngineKind::Column, rows)
}

/// One query plans against one catalog: an MC self-join that runs beside a
/// loop of bare `replace_table` calls, with no serving tier and no lock in
/// between, returns version A's rows or version B's, never a join of A's
/// `q0` with B's `q1`. (Planning used to look every FROM item up on its
/// own, so a swap between the two lookups mixed the versions.)
///
/// The IN lists name both versions' values, so a mixed plan is not empty:
/// it pairs `a-k1` cells with `b-v2` cells and matches neither reference.
#[test]
fn self_join_plans_against_one_catalog_snapshot() {
    const QUERIES: usize = 400;
    let sql = "SELECT q0.TableId AS tid, q0.RowId AS rid, q0.CellValue AS v0, \
               q1.CellValue AS v1 FROM \
               (SELECT * FROM AllTables WHERE CellValue IN ('a-k1','b-k1')) AS q0 \
               INNER JOIN (SELECT * FROM AllTables WHERE CellValue IN ('a-v2','b-v2')) AS q1 \
               ON q0.TableId = q1.TableId AND q0.RowId = q1.RowId";

    let (fact_a, fact_b) = (mc_fact("a"), mc_fact("b"));
    let reference = |fact: &Arc<dyn FactTable>| {
        SqlEngine::with_alltables(fact.clone())
            .execute(sql)
            .expect("reference run")
    };
    let (want_a, want_b) = (reference(&fact_a), reference(&fact_b));
    assert!(!want_a.is_empty() && want_a != want_b);

    let engine = SqlEngine::with_alltables(fact_a.clone());
    let start = std::sync::Barrier::new(2);
    let done = AtomicBool::new(false);
    let neither = std::thread::scope(|s| {
        // The swapper is bounded by the querying thread's iterations.
        s.spawn(|| {
            start.wait();
            let mut versions = [&fact_b, &fact_a].into_iter().cycle();
            while !done.load(Ordering::Acquire) {
                let next = versions.next().expect("cycle never ends");
                engine.replace_table("alltables", next.clone());
            }
        });
        start.wait();
        let neither = (0..QUERIES)
            .filter(|_| {
                let rs = engine.execute(sql).expect("query beside swaps");
                rs != want_a && rs != want_b
            })
            .count();
        done.store(true, Ordering::Release);
        neither
    });
    assert_eq!(
        neither, 0,
        "{neither} of {QUERIES} self-joins mixed two catalog versions"
    );
}

/// A memoized result never pins a replaced index. The column store codes
/// `CellValue` with its own dictionary, so a fresh result's text columns
/// hold the fact table; stale generations are purged lazily, shard by
/// shard, so an entry that kept that handle would keep the whole replaced
/// table alive beside its successor. Entries are detached on the way in:
/// once the catalog lets the old table go, nothing holds it — while the old
/// entries are still resident.
#[test]
fn memoized_results_never_pin_a_replaced_table() {
    let old = mc_fact("old");
    let replaced = Arc::downgrade(&old);
    let engine =
        Arc::new(SqlEngine::with_alltables(old).with_parallel(Arc::new(ParallelCtx::sequential())));
    let queue = ServeQueue::new(
        engine.clone(),
        ServeConfig {
            result_cache_bytes: 4 << 20,
            ..ServeConfig::default()
        },
    );
    let text_results = [
        "SELECT q0.CellValue AS v0, q1.CellValue AS v1, q0.TableId AS tid FROM \
         (SELECT * FROM AllTables WHERE CellValue IN ('old-k1')) AS q0 \
         INNER JOIN (SELECT * FROM AllTables WHERE CellValue IN ('old-v2')) AS q1 \
         ON q0.TableId = q1.TableId AND q0.RowId = q1.RowId",
        "SELECT CellValue, TableId FROM AllTables WHERE RowId < 3 ORDER BY CellValue LIMIT 20",
    ];
    for sql in text_results {
        let (rs, _) = queue
            .submit(sql, Deadline::none())
            .and_then(|t| t.wait())
            .expect("served");
        assert!(!rs.is_empty(), "{sql}");
        assert_eq!(provenance(&rs.rows), Ok("old"), "{sql}");
    }
    assert_eq!(queue.cached_results(), text_results.len());

    engine.replace_table("alltables", mc_fact("new"));
    // No request has named the new generation yet, so no shard has purged.
    assert_eq!(queue.cached_results(), text_results.len());
    assert!(
        replaced.upgrade().is_none(),
        "a memoized result kept the replaced table alive"
    );
}
