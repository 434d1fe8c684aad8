//! Memory-governor pressure suite: byte-budgeted execution resolves every
//! request typed, degrades along the ladder, and never leaks reserved
//! bytes.
//!
//! The contract under test (see `blend_parallel::memory`):
//!
//! 1. **Typed outcomes** — under any byte budget, a query either completes
//!    or resolves `Err(BlendError::MemoryExceeded)`; nothing aborts, no
//!    partial results escape.
//! 2. **Invisible degradation** — results produced at narrowed or
//!    sequential ladder rungs are byte-identical to an unbudgeted run
//!    (the executor's partition-count invariance makes width changes
//!    unobservable in output).
//! 3. **Accounting** — reserved bytes never exceed the budget, drain to
//!    zero after every query, and the serving tier's outcome conservation
//!    identity extends with `mem_exceeded`.
//! 4. **Ladder coverage** — full → narrowed → sequential → typed shed all
//!    fire: real budgets exercise rungs 2–3, injected `alloc:fail` faults
//!    exercise rung 4 deterministically.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use blend_common::BlendError;
use blend_parallel::{
    reserve_laddered, Deadline, LadderRung, MemoryGovernor, ParallelCtx, QueryMemory,
};
use blend_serve::{FaultPlan, ServeConfig, ServeQueue};
use blend_sql::{ResultSet, SqlEngine};
use blend_storage::{build_engine, EngineKind, FactRow, FactTable};

/// Watchdog budget for the storms. A deadlock (e.g. a reclaim pass
/// deadlocking against a cache shard lock) shows up as a timeout here
/// instead of a hung suite.
const WATCHDOG: Duration = Duration::from_secs(60);

fn fact_rows(n_tables: u32, rows_per: u32, vocab: u32, seed: u64) -> Vec<FactRow> {
    let mut rows = Vec::new();
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    for t in 0..n_tables {
        for r in 0..rows_per {
            let sk = ((t as u128) << 64) | ((next() as u128) & 0xFFFF_FFFF);
            let key = format!("w{}", next() % vocab as u64);
            rows.push(FactRow::new(&key, t, 0, r, sk, None));
            let num = next() % 100;
            rows.push(FactRow::new(&num.to_string(), t, 1, r, sk, Some(num >= 50)));
        }
    }
    rows
}

/// Query mix covering the allocation-heavy phases: scan output, join
/// build + probe output, and grouped aggregation state. The first (KW)
/// query counts off the column index, which has no ladder; the join
/// and the two-key `COUNT(*)` group are the hash-path shapes whose builds
/// walk it.
fn queries(vocab: u32) -> Vec<String> {
    let in_list: Vec<String> = (0..4).map(|i| format!("'w{}'", i % vocab)).collect();
    vec![
        format!(
            "SELECT TableId, COUNT(DISTINCT CellValue) AS n FROM AllTables \
             WHERE CellValue IN ({}) GROUP BY TableId ORDER BY n DESC, TableId LIMIT 10",
            in_list.join(",")
        ),
        "SELECT TableId, RowId, CellValue FROM AllTables \
         WHERE ColumnId = 0 ORDER BY TableId, RowId, CellValue LIMIT 40"
            .to_string(),
        "SELECT a.TableId, COUNT(*) AS n FROM AllTables a \
         INNER JOIN AllTables b ON a.CellValue = b.CellValue \
         WHERE b.ColumnId = 0 GROUP BY a.TableId ORDER BY n DESC, a.TableId LIMIT 10"
            .to_string(),
        "SELECT TableId, ColumnId, COUNT(*) AS n FROM AllTables \
         GROUP BY TableId, ColumnId ORDER BY n DESC, TableId, ColumnId LIMIT 20"
            .to_string(),
    ]
}

fn storm_fact() -> Arc<dyn FactTable> {
    build_engine(EngineKind::Column, fact_rows(5, 40, 6, 0x9E377))
}

/// Unbudgeted sequential references: the parity oracle for `Ok` results.
/// Pinned to an explicitly unbounded governor so a deployment's
/// `BLEND_MEMORY_BUDGET` on the process-wide governor cannot starve the
/// oracle itself.
fn references(fact: &Arc<dyn FactTable>, queries: &[String]) -> Vec<ResultSet> {
    let ctx = ParallelCtx::sequential().with_governor(Arc::new(MemoryGovernor::unbounded()));
    let reference = SqlEngine::with_alltables(fact.clone()).with_parallel(Arc::new(ctx));
    queries
        .iter()
        .map(|sql| reference.execute(sql).expect("unbudgeted reference run"))
        .collect()
}

/// Engine charging a private governor (the global governor is shared by
/// every test in the process, so budgets under test must be private).
fn budgeted_engine(fact: &Arc<dyn FactTable>, gov: &Arc<MemoryGovernor>) -> Arc<SqlEngine> {
    let ctx = ParallelCtx::with_admission(4, 1, 32, 2).with_governor(gov.clone());
    Arc::new(SqlEngine::with_alltables(fact.clone()).with_parallel(Arc::new(ctx)))
}

/// Rungs 1–4 fire deterministically at the reservation API: full width,
/// narrowed, sequential, typed shed — with nothing leaked at any rung.
#[test]
fn every_ladder_rung_fires() {
    // cost(w) = w KiB: full 8 → 8 KiB, narrowed 4 → 4 KiB, seq → 1 KiB.
    let cost = |w: usize| w * 1024;
    let rungs = [
        (16 * 1024, 8, LadderRung::Full),
        (5 * 1024, 4, LadderRung::Narrowed),
        (2 * 1024, 1, LadderRung::Sequential),
    ];
    for (budget, want_width, want_rung) in rungs {
        let gov = Arc::new(MemoryGovernor::with_budget(budget));
        let qm = Arc::new(QueryMemory::new(gov.clone()));
        let (res, width, rung) = reserve_laddered(&qm, "storm_op", 8, cost).unwrap();
        assert_eq!(
            (width, rung),
            (want_width, want_rung),
            "budget {budget} should land on {want_rung:?}"
        );
        drop(res);
        assert_eq!(gov.reserved_bytes(), 0, "rung {want_rung:?} leaked bytes");
    }
    // Rung 4: even the sequential footprint does not fit.
    let gov = Arc::new(MemoryGovernor::with_budget(512));
    let qm = Arc::new(QueryMemory::new(gov.clone()));
    let err = reserve_laddered(&qm, "storm_op", 8, cost).unwrap_err();
    assert!(matches!(err, BlendError::MemoryExceeded(_)));
    assert_eq!(gov.stats().exceeded, 1);
    assert_eq!(gov.reserved_bytes(), 0, "shed rung leaked bytes");
}

/// Sweep budgets from comfortable to impossible at the engine level:
/// every run resolves typed, `Ok` results are byte-identical to the
/// unbudgeted reference, reservations drain to zero after every query,
/// and somewhere in the sweep the ladder demonstrably degraded
/// (narrowed or sequential) before budgets small enough to shed.
#[test]
fn budget_sweep_degrades_gracefully_with_parity() {
    let fact = storm_fact();
    let queries = queries(6);
    let want = references(&fact, &queries);

    let mut ok_under_budget = 0usize;
    let mut exceeded = 0usize;
    let mut degraded = false;
    for shift in [22usize, 16, 15, 14, 13, 12, 11, 10, 9, 8] {
        let budget = 1usize << shift;
        let gov = Arc::new(MemoryGovernor::with_budget(budget));
        let engine = budgeted_engine(&fact, &gov);
        for (qi, sql) in queries.iter().enumerate() {
            match engine.execute(sql) {
                Ok(rs) => {
                    ok_under_budget += 1;
                    assert_eq!(
                        rs, want[qi],
                        "budget {budget}: result diverged from unbudgeted reference"
                    );
                }
                Err(BlendError::MemoryExceeded(_)) => exceeded += 1,
                Err(other) => panic!("budget {budget}: untyped outcome {other}"),
            }
            assert!(
                gov.reserved_bytes() <= budget,
                "budget {budget}: accounting exceeded the budget"
            );
            assert_eq!(
                gov.reserved_bytes(),
                0,
                "budget {budget}: reservations must drain after each query"
            );
        }
        let stats = gov.stats();
        if stats.narrowed > 0 || stats.sequential_fallbacks > 0 {
            degraded = true;
        }
    }
    assert!(ok_under_budget > 0, "no query succeeded under any budget");
    assert!(exceeded > 0, "no budget was small enough to shed");
    assert!(
        degraded,
        "no budget exercised the narrowed/sequential rungs"
    );
}

/// The serving-tier storm under a tight byte budget: mixed waves through
/// an undersized queue, watchdog-guarded. Every request resolves typed,
/// `Ok` results match the unbudgeted references, the extended conservation
/// identity (`ok + cache_hit + coalesced_hit + timeout + cancelled +
/// mem_exceeded + failed == submitted`) holds post-storm, and the
/// governor's reserved-bytes gauge drains to zero once the queue is gone.
#[test]
fn storm_under_memory_budget_resolves_typed_with_conservation() {
    const DEPTH: usize = 4;
    const WAVES: usize = 4;
    // Below the sequential-rung footprint of the widest query in the mix
    // (the two-key GROUP BY needs ~12 KiB even at width 1), above what
    // every other query needs alone: the storm must both shed and serve.
    const BUDGET: usize = 8 * 1024;

    let fact = storm_fact();
    let queries = queries(6);
    let want = references(&fact, &queries);

    let gov = Arc::new(MemoryGovernor::with_budget(BUDGET));
    let engine = budgeted_engine(&fact, &gov);
    let queue = Arc::new(ServeQueue::new(
        engine,
        ServeConfig {
            depth: DEPTH,
            workers: 2,
            // The cache pool is a child of the same budget: fills the
            // governor cannot fund are skipped, and reclaim evicts here.
            result_cache_bytes: 16 * 1024,
            coalesce: true,
            faults: FaultPlan::none(),
        },
    ));

    let (tx, rx) = mpsc::channel();
    let storm_queue = queue.clone();
    let storm_gov = gov.clone();
    let storm_queries = queries.clone();
    let storm_want = want.clone();
    let storm = std::thread::spawn(move || {
        let (queries, want) = (storm_queries, storm_want);
        let mut ok = 0usize;
        let mut shed = 0usize;
        let mut mem_exceeded = 0usize;
        for wave in 0..WAVES {
            let tickets: Vec<_> = (0..2 * DEPTH)
                .map(|i| {
                    let qi = (i + wave) % queries.len();
                    (qi, storm_queue.submit(&queries[qi], Deadline::none()))
                })
                .collect();
            for (qi, ticket) in tickets {
                let outcome = match ticket {
                    Ok(t) => t.wait(),
                    Err(e) => Err(e),
                };
                match outcome {
                    Ok((rs, _)) => {
                        ok += 1;
                        assert_eq!(
                            rs, want[qi],
                            "budgeted Ok result diverged from unbudgeted reference"
                        );
                    }
                    Err(BlendError::Overloaded(_)) => shed += 1,
                    Err(BlendError::MemoryExceeded(_)) => mem_exceeded += 1,
                    Err(other) => panic!("untyped storm outcome: {other}"),
                }
            }
            assert!(
                storm_gov.reserved_bytes() <= BUDGET,
                "accounted bytes exceeded the budget mid-storm"
            );
        }
        let _ = tx.send((ok, shed, mem_exceeded));
    });

    let (ok, shed, mem_exceeded) = rx
        .recv_timeout(WATCHDOG)
        .expect("memory-pressure storm deadlocked");
    // The storm thread holds a queue handle until it returns.
    storm.join().expect("storm thread");
    assert_eq!(
        ok + shed + mem_exceeded,
        WAVES * 2 * DEPTH,
        "every submission must resolve exactly once"
    );
    assert!(ok > 0, "storm produced no successful results under budget");
    assert!(
        mem_exceeded > 0,
        "budget below the storm working set must shed at least one request \
         (ok {ok}, shed {shed}, mem_exceeded {mem_exceeded})"
    );

    // Extended conservation identity at quiesce, and client/queue
    // agreement on the mem_exceeded count.
    let s = queue.stats();
    assert_eq!(
        s.ok + s.cache_hits
            + s.coalesced_hits
            + s.timeouts
            + s.cancellations
            + s.mem_exceeded
            + s.failures,
        s.submitted,
        "outcome conservation identity violated: {s:?}"
    );
    assert_eq!(s.shed as usize, shed, "shed accounting");
    assert_eq!(
        s.mem_exceeded as usize, mem_exceeded,
        "mem_exceeded accounting"
    );

    // Post-storm: dropping the queue purges the cache pool; nothing may
    // remain charged against the budget.
    drop(queue);
    assert_eq!(
        gov.reserved_bytes(),
        0,
        "reserved bytes failed to drain to zero post-storm"
    );
}

/// Injected `alloc:fail` faults (rung-4 forcing: reclaim cannot rescue a
/// synthetic failure) drive typed `MemoryExceeded` outcomes through the
/// serving tier without any real budget, the conservation identity holds,
/// and the engine recovers to full service once disarmed.
#[test]
fn alloc_fault_storm_sheds_typed_and_recovers() {
    const DEPTH: usize = 8;
    const WAVES: usize = 3;

    let fact = storm_fact();
    let queries = queries(6);
    let want = references(&fact, &queries);

    let gov = Arc::new(MemoryGovernor::unbounded());
    let engine = budgeted_engine(&fact, &gov);
    // The spec grammar and the rate the queue arms the governor with agree.
    let faults = FaultPlan::parse("alloc:fail@7").unwrap();
    assert_eq!(faults.alloc_fail_every(), Some(7));
    let queue = Arc::new(ServeQueue::new(
        engine,
        ServeConfig {
            depth: DEPTH,
            workers: 2,
            result_cache_bytes: 1 << 20,
            coalesce: false,
            faults,
        },
    ));

    let (tx, rx) = mpsc::channel();
    let storm_queue = queue.clone();
    let storm_queries = queries.clone();
    let storm_want = want.clone();
    let storm = std::thread::spawn(move || {
        let (queries, want) = (storm_queries, storm_want);
        let mut ok = 0usize;
        let mut shed = 0usize;
        let mut mem_exceeded = 0usize;
        for wave in 0..WAVES {
            let tickets: Vec<_> = (0..DEPTH)
                .map(|i| {
                    let qi = (i + wave) % queries.len();
                    (qi, storm_queue.submit(&queries[qi], Deadline::none()))
                })
                .collect();
            for (qi, ticket) in tickets {
                let outcome = match ticket {
                    Ok(t) => t.wait(),
                    Err(e) => Err(e),
                };
                match outcome {
                    Ok((rs, _)) => {
                        ok += 1;
                        assert_eq!(rs, want[qi], "faulted Ok result diverged");
                    }
                    Err(BlendError::Overloaded(_)) => shed += 1,
                    Err(BlendError::MemoryExceeded(_)) => mem_exceeded += 1,
                    Err(other) => panic!("untyped fault-storm outcome: {other}"),
                }
            }
        }
        let _ = tx.send((ok, shed, mem_exceeded));
    });

    let (ok, shed, mem_exceeded) = rx
        .recv_timeout(WATCHDOG)
        .expect("alloc-fault storm deadlocked");
    // The storm thread holds a queue handle until it returns.
    storm.join().expect("storm thread");
    assert_eq!(ok + shed + mem_exceeded, WAVES * DEPTH);
    assert!(
        mem_exceeded > 0,
        "alloc faults at rate 7 must shed at least one request"
    );
    assert!(
        gov.stats().reservation_fails > 0,
        "injected failures must be counted as reservation failures"
    );

    let s = queue.stats();
    assert_eq!(
        s.ok + s.cache_hits
            + s.coalesced_hits
            + s.timeouts
            + s.cancellations
            + s.mem_exceeded
            + s.failures,
        s.submitted,
        "conservation identity under injected alloc faults: {s:?}"
    );
    assert_eq!(s.mem_exceeded as usize, mem_exceeded);

    // Disarm and prove the tier recovered: a fresh request completes with
    // full parity (no lingering degradation, no leaked reservations).
    gov.set_alloc_fail_every(0);
    let (rs, _) = queue
        .submit(&queries[2], Deadline::none())
        .expect("post-storm submit")
        .wait()
        .expect("post-storm request must succeed once disarmed");
    assert_eq!(rs, want[2], "post-recovery result diverged");

    drop(queue);
    assert_eq!(gov.reserved_bytes(), 0, "reserved bytes drain to zero");
}

/// 26 000 two-row tables, each value in column 0 or 1, and the SC query
/// (paper Listing 1) over all of them: 52 000 groups.
fn sc_lake() -> (Arc<dyn FactTable>, String) {
    const TABLES: u32 = 26_000;
    let mut rows = Vec::new();
    for t in 0..TABLES {
        for r in 0..2u32 {
            let sk = ((t as u128) << 64) | r as u128;
            rows.push(FactRow::new(
                &format!("w{}", (t + r) % 6),
                t,
                0,
                r,
                sk,
                None,
            ));
            rows.push(FactRow::new(
                &((t * 7 + r) % 10).to_string(),
                t,
                1,
                r,
                sk,
                None,
            ));
        }
    }
    let in_list: Vec<String> = (0..6)
        .map(|i| format!("'w{i}'"))
        .chain((0..10).map(|i| format!("'{i}'")))
        .collect();
    let sql = format!(
        "SELECT TableId AS t, COUNT(DISTINCT CellValue) AS score FROM AllTables \
         WHERE CellValue IN ({}) GROUP BY TableId, ColumnId ORDER BY score DESC",
        in_list.join(",")
    );
    (build_engine(EngineKind::Column, rows), sql)
}

/// Rows, the profile root's peak, and the bytes charged for the result of
/// an unbudgeted run, checking which grouping path ran.
fn peak_of(fact: &Arc<dyn FactTable>, sql: &str, group_path: &str) -> (ResultSet, usize, usize) {
    let gov = Arc::new(MemoryGovernor::unbounded());
    let (rs, report) = budgeted_engine(fact, &gov)
        .execute_with_report(sql)
        .expect("unbudgeted run");
    let profile = report.profile.expect("profile (instrumentation is on)");
    let attr =
        |node: Option<&blend_obs::ProfileNode>, key: &str| match node.and_then(|n| n.attr(key)) {
            Some(blend_obs::AttrValue::U64(bytes)) => *bytes as usize,
            other => panic!("no {key}: {other:?}\n{}", profile.render()),
        };
    let path = profile.find("group").and_then(|g| g.attr("path"));
    assert_eq!(
        path.map(ToString::to_string).as_deref(),
        Some(group_path),
        "{sql}"
    );
    let peak = attr(Some(&profile.root), "mem_peak_bytes");
    (rs, peak, attr(profile.find("materialize"), "bytes"))
}

/// Top-k pushdown in the accounting: an SC query (paper Listing 1) with
/// LIMIT 48 over 52 000 groups reserves its flat group columns plus 48
/// rows, never a row per group, and the same query with `COUNT(*)` beside
/// the distinct count — a hash-path shape — still walks the ladder with
/// results byte-identical to the unbudgeted run.
///
/// "Less than before" has two readings, and both are asserted. The old
/// executor built one `(u32, Vec<SqlValue>)` per group before it sorted —
/// and never reserved them — so its group output *alone* outweighed
/// everything this query reserves now. And the same query without LIMIT,
/// which has to build a row per group, is charged strictly more for its
/// result (`result_rows`: the flat columns plus the rows — the `materialize`
/// span's `bytes`). Its whole-query peak is strictly higher wherever the
/// rows outweigh the grouping state, which is asserted with a four-column
/// select list. With this two-column one they weigh a little less, and they
/// are built after that state is released, so both queries peak inside the
/// grouping phase and `<=` is all that holds between them.
#[test]
fn limit_48_over_50k_groups_reserves_k_rows_and_walks_the_ladder() {
    use blend_sql::SqlValue;
    use std::mem::size_of;

    let (fact, unlimited) = sc_lake();
    let limited = format!("{unlimited} LIMIT 48");
    let n_groups = 52_000;

    let (all, peak_unlimited, result_unlimited) = peak_of(&fact, &unlimited, "columns");
    let (want, peak_limited, result_limited) = peak_of(&fact, &limited, "columns");
    assert_eq!(all.len(), n_groups);
    assert_eq!(
        want.rows[..],
        all.rows[..48],
        "LIMIT 48 is the sorted prefix"
    );

    // keys (t, c) + one aggregate per group in the old tuple layout.
    let old_group_output =
        n_groups * (size_of::<(u32, Vec<SqlValue>)>() + 3 * size_of::<SqlValue>());
    assert!(
        peak_limited < old_group_output,
        "LIMIT-48 peak {peak_limited} B; the old per-group tuples alone were {old_group_output} B"
    );
    // 48 rows and their columns against 52 000: what the result holds is
    // what the caller gets, not what was grouped.
    assert!(
        result_limited < result_unlimited && result_limited < want.approx_bytes() * 2,
        "LIMIT-48 result charges {result_limited} B, all groups {result_unlimited} B"
    );
    assert!(
        peak_limited <= peak_unlimited,
        "LIMIT-48 peak {peak_limited} B; materializing all groups peaks at {peak_unlimited} B"
    );

    // Two more values per row and the rows outweigh the grouping state:
    // there the whole-query peaks differ strictly.
    // `COUNT(*)` beside the distinct count keeps this shape on the hash
    // path.
    let wide = unlimited.replace(" AS t,", " AS t, ColumnId AS c, COUNT(*) AS n,");
    let wide_limited = format!("{wide} LIMIT 48");
    let (wide_all, peak_wide, _) = peak_of(&fact, &wide, "hash");
    let (want_wide, peak_wide_limited, _) = peak_of(&fact, &wide_limited, "hash");
    assert_eq!(wide_all.len(), n_groups);
    assert!(
        peak_wide_limited < peak_wide,
        "four columns: LIMIT-48 peak {peak_wide_limited} B, all groups {peak_wide} B"
    );

    // The ladder, on the hash path (the column path has no rung to walk:
    // `column_grouping_fails_typed_with_no_partial_result`): from the
    // full-width footprint down to nothing.
    let (mut ok, mut exceeded, mut degraded) = (0usize, 0usize, false);
    for percent in [100usize, 90, 80, 70, 60, 50, 25, 5] {
        let budget = peak_wide_limited / 100 * percent;
        let gov = Arc::new(MemoryGovernor::with_budget(budget));
        match budgeted_engine(&fact, &gov).execute(&wide_limited) {
            Ok(rs) => {
                ok += 1;
                assert_eq!(
                    rs, want_wide,
                    "budget {budget}: diverged from the unbudgeted run"
                );
            }
            Err(BlendError::MemoryExceeded(_)) => exceeded += 1,
            Err(other) => panic!("budget {budget}: untyped outcome {other}"),
        }
        assert_eq!(
            gov.reserved_bytes(),
            0,
            "budget {budget}: reservations must drain"
        );
        let stats = gov.stats();
        degraded |= stats.narrowed > 0 || stats.sequential_fallbacks > 0;
    }
    assert!(ok > 0 && exceeded > 0, "ok {ok}, exceeded {exceeded}");
    assert!(
        degraded,
        "no budget exercised the narrowed/sequential rungs"
    );
}

/// The column path (SC distinct counts off the column store's column
/// index) runs sequentially and has no ladder: under a budget sweep it
/// either completes byte-identical to the unbudgeted run or fails
/// `MemoryExceeded` — at its own reservation somewhere in the sweep — with
/// no partial result and nothing left charged.
#[test]
fn column_grouping_fails_typed_with_no_partial_result() {
    let (fact, sql) = sc_lake();
    let sql = format!("{sql} LIMIT 48");
    let (want, peak, _) = peak_of(&fact, &sql, "columns");
    let (mut ok, mut at_columns) = (0usize, 0usize);
    for percent in [100usize, 90, 80, 70, 60, 50, 40, 25, 5] {
        let budget = peak * percent / 100;
        let gov = Arc::new(MemoryGovernor::with_budget(budget));
        match budgeted_engine(&fact, &gov).execute(&sql) {
            Ok(rs) => {
                ok += 1;
                assert_eq!(
                    rs, want,
                    "budget {budget}: diverged from the unbudgeted run"
                );
            }
            Err(BlendError::MemoryExceeded(msg)) => {
                at_columns += usize::from(msg.contains("group_columns"));
            }
            Err(other) => panic!("budget {budget}: untyped outcome {other}"),
        }
        assert_eq!(gov.reserved_bytes(), 0, "budget {budget}: must drain");
        let stats = gov.stats();
        assert_eq!(
            stats.narrowed + stats.sequential_fallbacks,
            0,
            "no rung to walk"
        );
    }
    assert!(ok > 0, "the unbudgeted peak must suffice");
    assert!(
        at_columns > 0,
        "no budget failed at the column path's own reservation"
    );
}

/// The top-k scratch in the accounting: SC with LIMIT 48 over 52 000 groups
/// that all score 2 selects through a count threshold whose histogram and
/// tie band (here every group) are reserved under `sort_scratch` beside the
/// flat group columns, which is where the query peaks. Under a budget sweep
/// every run ends `Ok` with the unbudgeted bytes or in a typed
/// `MemoryExceeded`, nothing stays reserved, and one byte short of the peak
/// fails at the scratch itself.
#[test]
fn top_k_scratch_is_reserved_and_fails_typed() {
    let (fact, sql) = sc_lake();
    let sql = format!("{sql} LIMIT 48");
    let (want, peak, _) = peak_of(&fact, &sql, "columns");
    let budgets = [
        peak,
        peak - 1,
        peak * 9 / 10,
        peak * 3 / 4,
        peak / 2,
        peak / 20,
    ];
    let mut outcomes = Vec::new();
    for budget in budgets {
        let gov = Arc::new(MemoryGovernor::with_budget(budget));
        match budgeted_engine(&fact, &gov).execute(&sql) {
            Ok(rs) => {
                assert_eq!(
                    rs, want,
                    "budget {budget}: diverged from the unbudgeted run"
                );
                outcomes.push((budget, "ok".to_string()));
            }
            Err(BlendError::MemoryExceeded(msg)) => outcomes.push((budget, msg)),
            Err(other) => panic!("budget {budget}: untyped outcome {other}"),
        }
        assert_eq!(gov.reserved_bytes(), 0, "budget {budget}: must drain");
    }
    assert_eq!(outcomes[0].1, "ok", "the unbudgeted peak must suffice");
    assert!(
        outcomes[1].1.starts_with("sort_scratch"),
        "one byte short of the peak: {outcomes:?}"
    );
}

/// The MC join of the two tests below (paper Listing 2): every row of
/// 3 000 tables holds ('a', 'b'), so one joined row per fact row. With
/// `sparse`, one more cell ('z', unmatched) sits at a `RowId` far past the
/// cell count, so the store keeps no row directory and the join hashes;
/// without it the join is row-keyed.
fn mc_lake(sparse: bool) -> (Arc<dyn FactTable>, &'static str) {
    let mut rows = Vec::new();
    for t in 0..3_000u32 {
        for r in 0..8u32 {
            let sk = ((t as u128) << 64) | r as u128;
            rows.push(FactRow::new("a", t, 0, r, sk, None));
            rows.push(FactRow::new("b", t, 1, r, sk, None));
        }
    }
    if sparse {
        rows.push(FactRow::new("z", 0, 2, u32::MAX - 1, 0, None));
    }
    let sql = "SELECT q0.TableId AS tid, q0.RowId AS rid, q0.SuperKey AS sk, \
               q0.CellValue AS v0, q0.ColumnId AS c0, q1.CellValue AS v1, q1.ColumnId AS c1 \
               FROM (SELECT * FROM AllTables WHERE CellValue IN ('a')) AS q0 \
               INNER JOIN (SELECT * FROM AllTables WHERE CellValue IN ('b')) AS q1 \
               ON q0.TableId = q1.TableId AND q0.RowId = q1.RowId";
    (build_engine(EngineKind::Column, rows), sql)
}

/// Which path the profile's `join.build` span names.
fn join_path(report: &blend_sql::QueryReport) -> String {
    let profile = report.profile.as_ref().expect("profile collected");
    let build = profile.find("join.build").expect("join.build span");
    build
        .attr("path")
        .map(ToString::to_string)
        .unwrap_or_default()
}

/// The columnar entry in the accounting: an MC join whose result outweighs
/// its join state reserves the flat result columns only, so it peaks below
/// the same query through `execute`, which builds — and reserves — a
/// `SqlValue` row per joined row on top of them. Both entries walk the
/// ladder with results byte-identical to the unbudgeted run. The lake has
/// no row directory, so the join hashes and its build has rungs to walk.
#[test]
fn columnar_entry_peaks_below_the_row_entry_and_walks_the_ladder() {
    use blend_parallel::Interrupt;

    let (fact, sql) = mc_lake(true);

    // One run through either entry: the rows and the profile root's peak.
    let run = |gov: &Arc<MemoryGovernor>, columnar: bool| {
        let engine = budgeted_engine(&fact, gov);
        let (rs, report) = if columnar {
            let (cols, report) = engine.execute_columns_interruptible(sql, Interrupt::never())?;
            (cols.to_result_set(), report)
        } else {
            engine.execute_with_report(sql)?
        };
        assert_eq!(join_path(&report), "hash");
        let peak = match report
            .profile
            .and_then(|p| p.root.attr("mem_peak_bytes").cloned())
        {
            Some(blend_obs::AttrValue::U64(peak)) => peak as usize,
            other => panic!("no mem_peak_bytes on the profile root: {other:?}"),
        };
        Ok::<_, BlendError>((rs, peak))
    };
    let unbounded = Arc::new(MemoryGovernor::unbounded());
    let (want, peak_rows) = run(&unbounded, false).expect("unbudgeted run");
    let (columnar, peak_columns) = run(&unbounded, true).expect("unbudgeted run");
    assert_eq!(want.len(), 24_000);
    assert_eq!(columnar, want);
    assert!(
        peak_columns < peak_rows,
        "columnar entry peaks at {peak_columns} B, `execute` at {peak_rows} B"
    );

    for columnar in [false, true] {
        let (mut ok, mut exceeded, mut degraded) = (0usize, 0usize, false);
        // The row entry's peak is its last reservation, the rows, which no
        // rung can narrow: it needs its whole peak.
        for percent in [110usize, 80, 60, 40, 30, 20, 10, 2] {
            let budget = peak_rows / 100 * percent;
            let gov = Arc::new(MemoryGovernor::with_budget(budget));
            match run(&gov, columnar) {
                Ok((rs, _)) => {
                    ok += 1;
                    assert_eq!(
                        rs, want,
                        "budget {budget}: diverged from the unbudgeted run"
                    );
                }
                Err(BlendError::MemoryExceeded(_)) => exceeded += 1,
                Err(other) => panic!("budget {budget}: untyped outcome {other}"),
            }
            assert_eq!(gov.reserved_bytes(), 0, "budget {budget}: must drain");
            let stats = gov.stats();
            degraded |= stats.narrowed > 0 || stats.sequential_fallbacks > 0;
        }
        assert!(
            ok > 0 && exceeded > 0 && degraded,
            "columnar {columnar}: ok {ok}, exceeded {exceeded}, degraded {degraded}"
        );
    }
}

/// The row-key join (the same MC query over a lake with a row directory)
/// reserves its bitmap, rank, CSR and ordinals under `join_build` in one
/// piece: there is no width to narrow, so a budget walk from 110 % of the
/// row entry's peak down to 2 % ends every run `Ok` with the unbudgeted
/// bytes or in a typed `MemoryExceeded` — at the build's own reservation
/// somewhere in the walk — and leaves nothing reserved.
#[test]
fn row_key_join_walks_budgets_typed_and_drains() {
    let (fact, sql) = mc_lake(false);
    let unbounded = Arc::new(MemoryGovernor::unbounded());
    let (want, report) = budgeted_engine(&fact, &unbounded)
        .execute_with_report(sql)
        .expect("unbudgeted run");
    assert_eq!(want.len(), 24_000);
    assert_eq!(join_path(&report), "rows");
    assert!(report.hash_tables.is_empty(), "{:?}", report.hash_tables);
    let peak = match report
        .profile
        .as_ref()
        .and_then(|p| p.root.attr("mem_peak_bytes"))
    {
        Some(blend_obs::AttrValue::U64(peak)) => *peak as usize,
        other => panic!("no mem_peak_bytes on the profile root: {other:?}"),
    };

    let (mut ok, mut at_build) = (0usize, 0usize);
    for percent in [110usize, 80, 60, 40, 30, 20, 10, 5, 2] {
        let budget = peak / 100 * percent;
        let gov = Arc::new(MemoryGovernor::with_budget(budget));
        match budgeted_engine(&fact, &gov).execute(sql) {
            Ok(rs) => {
                ok += 1;
                assert_eq!(
                    rs, want,
                    "budget {budget}: diverged from the unbudgeted run"
                );
            }
            Err(BlendError::MemoryExceeded(msg)) => {
                at_build += usize::from(msg.starts_with("join_build"));
            }
            Err(other) => panic!("budget {budget}: untyped outcome {other}"),
        }
        assert_eq!(gov.reserved_bytes(), 0, "budget {budget}: must drain");
        let stats = gov.stats();
        assert_eq!(
            stats.narrowed + stats.sequential_fallbacks,
            0,
            "no rung to walk"
        );
    }
    assert!(ok > 0, "the unbudgeted peak must suffice");
    assert!(
        at_build > 0,
        "no budget failed at the join build's reservation"
    );
}

/// A GROUP BY's reservation covers what its keyed phase holds. Over 100 000
/// distinct (`TableId`, `RowId`) keys the group index grows far past the
/// quarter of its rows it starts at, and every growth is charged, so the
/// query's peak covers the gathered key columns, the packed `u64` keys, the
/// per-row group ids, the index's slots (`HashTableStats::buckets`) and one
/// `u64` key per group, all live at the phase's end.
#[test]
fn group_reservation_covers_the_grown_index() {
    use blend_parallel::Interrupt;

    const TABLES: u32 = 20;
    const ROWS: u32 = 5_000;
    let mut rows = Vec::new();
    for t in 0..TABLES {
        for r in 0..ROWS {
            let sk = ((t as u128) << 64) | r as u128;
            rows.push(FactRow::new(&format!("v{}", r % 7), t, 0, r, sk, None));
        }
    }
    let ctx = ParallelCtx::sequential().with_governor(Arc::new(MemoryGovernor::unbounded()));
    let engine = SqlEngine::with_alltables(build_engine(EngineKind::Column, rows))
        .with_parallel(Arc::new(ctx));
    let sql = "SELECT TableId, RowId, COUNT(*) AS n FROM AllTables \
               GROUP BY TableId, RowId ORDER BY n DESC, TableId, RowId LIMIT 10";
    let (cols, report) = engine
        .execute_columns_interruptible(sql, Interrupt::never())
        .expect("unbudgeted run");
    assert_eq!(cols.to_result_set().len(), 10);
    let group = (report.hash_tables.iter())
        .find(|h| h.phase == "group")
        .expect("the group hashes");
    assert_eq!(group.partitions, 1);
    // Every row is its own group.
    let n = (TABLES * ROWS) as usize;
    let live = n * 2 * 4 + n * 8 + n * 4 + group.buckets * 4 + n * 8;
    let peak = match report
        .profile
        .as_ref()
        .and_then(|p| p.root.attr("mem_peak_bytes"))
    {
        Some(blend_obs::AttrValue::U64(peak)) => *peak as usize,
        other => panic!("no mem_peak_bytes on the profile root: {other:?}"),
    };
    assert!(
        peak >= live,
        "peak {peak} B under the phase's live {live} B ({} slots)",
        group.buckets
    );
}
