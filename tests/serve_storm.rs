//! Serving-tier storm: liveness, typed outcomes, and parity under faults.
//!
//! The resilient serving tier's whole contract in one test: drive **2×
//! queue-depth offered load** through an undersized [`ServeQueue`] with
//! fault injection (delays, cancellations, poisoned requests) and assert
//!
//! 1. **Liveness** — the storm finishes under a watchdog; no deadlock, no
//!    ticket waits forever, serving threads survive poisoned requests.
//! 2. **Typed outcomes** — every submission resolves to exactly one of
//!    `Ok`, `Timeout`, `Cancelled`, `Overloaded` (shed at submit), or the
//!    poison error; nothing else escapes.
//! 3. **Bounded overshoot** — a request with a deadline resolves within
//!    deadline + a generous scheduling tolerance, never unboundedly late.
//! 4. **Parity** — every `Ok` result is byte-identical to the same query's
//!    sequential single-query reference run. Cancellation never corrupts:
//!    a query either completes exactly or returns no data.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use blend_common::BlendError;
use blend_parallel::{Deadline, MemoryGovernor, ParallelCtx};
use blend_serve::{
    CacheKey, FaultAction, FaultPlan, ServeConfig, ServeQueue, SITE_DEQUEUE, SITE_EXEC,
};
use blend_sql::{ResultSet, SqlEngine};
use blend_storage::{build_engine, EngineKind, FactRow};

/// Watchdog budget for the whole storm. A deadlock shows up as a timeout
/// here instead of a hung suite.
const WATCHDOG: Duration = Duration::from_secs(30);

/// Tolerance on deadline overshoot: covers the 10 ms admission poll
/// cadence, injected 5 ms delays, morsel granularity, and CI scheduling
/// noise with a wide margin.
const OVERSHOOT_TOLERANCE: Duration = Duration::from_secs(5);

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

/// Query mix covering scans, a self-join, and grouped aggregation — the
/// phases with distinct interrupt check sites.
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

fn storm_once(context: &str, faults: FaultPlan, tiny_deadlines: bool) {
    const DEPTH: usize = 4;
    const WAVES: usize = 4;

    let fact = build_engine(EngineKind::Column, fact_rows(5, 40, 6, 0x57012));
    let queries = queries(6);

    // Sequential single-query references: the parity oracle for Ok results.
    let reference =
        SqlEngine::with_alltables(fact.clone()).with_parallel(Arc::new(ParallelCtx::sequential()));
    let want: Vec<ResultSet> = queries
        .iter()
        .map(|sql| reference.execute(sql).expect("reference run"))
        .collect();

    // Undersized serving tier: 4-deep queue, 2 serving threads, a 4-wide
    // context with an admission budget of 2 — far less than offered load —
    // charging a private 64 MiB governor, in front of a 64 KiB result
    // cache so CLOCK eviction churns mid-storm.
    let ctx = ParallelCtx::with_admission(4, 32, 2)
        .with_governor(Arc::new(MemoryGovernor::with_budget(64 << 20)));
    let engine = Arc::new(SqlEngine::with_alltables(fact).with_parallel(Arc::new(ctx)));
    let queue = Arc::new(ServeQueue::new(
        engine,
        ServeConfig {
            depth: DEPTH,
            workers: 2,
            faults,
            result_cache_bytes: 64 << 10,
            ..ServeConfig::default()
        },
    ));

    // Run the whole storm behind a watchdog channel; a deadlock anywhere
    // (queue, admission, ticket wait) trips the timeout below.
    let (tx, rx) = mpsc::channel();
    let storm_queue = queue.clone();
    let storm_queries = queries.clone();
    let storm_want = want.clone();
    std::thread::spawn(move || {
        let (queries, want) = (storm_queries, storm_want);
        let mut ok = 0usize;
        let mut timeout = 0usize;
        let mut cancelled = 0usize;
        let mut overloaded = 0usize;
        let mut mem_exceeded = 0usize;
        let mut poisoned = 0usize;
        // Each wave offers 2× queue depth concurrently.
        for wave in 0..WAVES {
            let tickets: Vec<_> = (0..2 * DEPTH)
                .map(|i| {
                    let qi = (i + wave) % queries.len();
                    let budget = if tiny_deadlines && i % 3 == 0 {
                        // Tight budget: expires while queued or mid-phase.
                        Duration::from_millis(2)
                    } else {
                        Duration::from_secs(20)
                    };
                    let submitted = Instant::now();
                    let ticket = storm_queue.submit(&queries[qi], Deadline::after(budget));
                    (qi, submitted, budget, ticket)
                })
                .collect();
            for (qi, submitted, budget, ticket) in tickets {
                let outcome = match ticket {
                    Ok(t) => t.wait(),
                    Err(e) => Err(e),
                };
                let elapsed = submitted.elapsed();
                match outcome {
                    Ok((rs, report)) => {
                        ok += 1;
                        assert_eq!(
                            rs, want[qi],
                            "ok result diverged from the sequential reference"
                        );
                        let serving = report.serving.expect("serving telemetry");
                        assert!(
                            ["ok", "cache_hit", "coalesced_hit"]
                                .contains(&serving.outcome.as_str()),
                            "unexpected success outcome `{}`",
                            serving.outcome
                        );
                    }
                    Err(BlendError::Timeout(_)) => {
                        timeout += 1;
                        assert!(
                            elapsed <= budget + OVERSHOOT_TOLERANCE,
                            "deadline overshoot unbounded: budget {budget:?}, \
                             resolved after {elapsed:?}"
                        );
                    }
                    Err(BlendError::Cancelled(_)) => cancelled += 1,
                    Err(BlendError::Overloaded(_)) => overloaded += 1,
                    // The bounded governor may shed requests, typed.
                    Err(BlendError::MemoryExceeded(_)) => mem_exceeded += 1,
                    Err(BlendError::SqlExec(m)) if m.contains("panicked") => poisoned += 1,
                    Err(other) => panic!("untyped storm outcome: {other}"),
                }
            }
        }
        let _ = tx.send((ok, timeout, cancelled, overloaded, mem_exceeded, poisoned));
    });

    let (ok, timeout, cancelled, overloaded, mem_exceeded, poisoned) = rx
        .recv_timeout(WATCHDOG)
        .unwrap_or_else(|_| panic!("{context}: serving storm deadlocked"));

    let total = ok + timeout + cancelled + overloaded + mem_exceeded + poisoned;
    assert_eq!(
        total,
        WAVES * 2 * DEPTH,
        "{context}: every submission must resolve exactly once"
    );
    // 2× depth offered instantaneously: some waves must shed unless the
    // servers drained implausibly fast; with zero-worker determinism tested
    // elsewhere, just require the storm produced real completions.
    assert!(ok > 0, "{context}: storm produced no successful results");

    // Accounting: the queue's counters agree with what the clients saw.
    let stats = queue.stats();
    assert_eq!(
        stats.shed as usize, overloaded,
        "{context}: shed accounting"
    );
    assert_eq!(
        stats.submitted as usize,
        total - overloaded,
        "{context}: submission accounting"
    );

    // The tier survives the storm: a fresh, fault-free-deadline request
    // still completes and matches its reference.
    let after = queue
        .submit(&queries[1], Deadline::after(Duration::from_secs(20)))
        .and_then(|t| t.wait());
    match after {
        Ok((rs, _)) => assert_eq!(rs, want[1], "{context}: post-storm result diverged"),
        // Injected faults may still fire on this request; any typed outcome
        // is acceptable, a hang or panic is not.
        Err(BlendError::Timeout(_))
        | Err(BlendError::Cancelled(_))
        | Err(BlendError::Overloaded(_))
        | Err(BlendError::MemoryExceeded(_)) => {}
        Err(BlendError::SqlExec(m)) if m.contains("panicked") => {}
        Err(other) => panic!("{context}: post-storm request failed oddly: {other}"),
    }
}

/// Clean storm: no faults, generous deadlines. Everything that is not shed
/// completes and matches its reference.
#[test]
fn storm_without_faults_completes_with_parity() {
    storm_once("clean", FaultPlan::none(), false);
}

/// Deadline storm: a third of the load carries a 2 ms budget through an
/// undersized queue, so requests expire queued, in admission, and
/// mid-execution — all must resolve as typed `Timeout` with no partial
/// results and bounded overshoot.
#[test]
fn storm_with_tiny_deadlines_times_out_cleanly() {
    storm_once("deadlines", FaultPlan::none(), true);
}

/// Full fault storm: scheduler delays, injected cancellations, poisoned
/// (panicking) requests, and tiny deadlines at once. The liveness
/// acceptance test for the serving tier.
#[test]
fn storm_with_injected_faults_stays_live() {
    let faults = FaultPlan::none()
        .with(
            SITE_DEQUEUE,
            FaultAction::Delay(Duration::from_millis(5)),
            3,
        )
        .with(SITE_EXEC, FaultAction::Cancel, 7)
        .with(SITE_EXEC, FaultAction::Poison, 11);
    storm_once("faults", faults, true);
}

/// Coalesced-group leader failure: a burst of fingerprint-equal requests
/// forms one in-flight group, the leader is killed mid-execution, and the
/// contract is that **every waiter still resolves typed** — the earliest
/// live waiter is promoted to re-execute, the rest are served from its
/// result, and nobody hangs (a stranded waiter shows up as the watchdog
/// timeout).
fn leader_failure_storm(context: &str, leader_fault: FaultAction) {
    const BURST: usize = 8;

    let fact = build_engine(EngineKind::Column, fact_rows(5, 40, 6, 0x57012));
    // The self-join: slow enough that the burst attaches to the leader's
    // group even without the injected delay below.
    let sql = queries(6)[2].clone();
    let reference =
        SqlEngine::with_alltables(fact.clone()).with_parallel(Arc::new(ParallelCtx::sequential()));
    let want = reference.execute(&sql).expect("reference run");

    // Hold the first execution at the exec site long enough for every
    // other submission to attach, then kill it. Both rules fire exactly
    // once, on the first SITE_EXEC visit — which is necessarily the
    // group's leader (waiters never reach the exec site).
    let faults = FaultPlan::none()
        .with(
            SITE_EXEC,
            FaultAction::Delay(Duration::from_millis(100)),
            1_000_000,
        )
        .with(SITE_EXEC, leader_fault, 1_000_000);
    let engine = Arc::new(
        SqlEngine::with_alltables(fact)
            .with_parallel(Arc::new(ParallelCtx::with_admission(4, 32, 2))),
    );
    let queue = Arc::new(ServeQueue::new(
        engine,
        ServeConfig {
            depth: BURST,
            workers: 2,
            faults,
            result_cache_bytes: 1 << 20,
            coalesce: true,
        },
    ));

    let (tx, rx) = mpsc::channel();
    let storm_queue = queue.clone();
    let want_clone = want.clone();
    std::thread::spawn(move || {
        let tickets: Vec<_> = (0..BURST)
            .map(|_| {
                storm_queue
                    .submit(&sql, Deadline::after(Duration::from_secs(20)))
                    .expect("queue depth covers the whole burst")
            })
            .collect();
        let mut ok = 0usize;
        let mut leader_failures = 0usize;
        for t in tickets {
            match t.wait() {
                Ok((rs, report)) => {
                    ok += 1;
                    assert_eq!(rs, want_clone, "promoted/coalesced result diverged");
                    let serving = report.serving.expect("serving telemetry");
                    assert!(
                        ["ok", "cache_hit", "coalesced_hit"].contains(&serving.outcome.as_str()),
                        "unexpected success outcome `{}`",
                        serving.outcome
                    );
                }
                Err(BlendError::Cancelled(_)) => leader_failures += 1,
                Err(BlendError::SqlExec(m)) if m.contains("panicked") => leader_failures += 1,
                Err(other) => panic!("untyped outcome after leader failure: {other}"),
            }
        }
        let _ = tx.send((ok, leader_failures));
    });

    let (ok, leader_failures) = rx.recv_timeout(WATCHDOG).unwrap_or_else(|_| {
        panic!("{context}: leader-failure storm deadlocked — waiters stranded")
    });
    assert_eq!(
        leader_failures, 1,
        "{context}: exactly the killed leader fails"
    );
    assert_eq!(
        ok,
        BURST - 1,
        "{context}: every waiter resolves with the shared result"
    );
    let stats = queue.stats();
    assert!(
        stats.coalesced_hits >= 1,
        "{context}: burst never coalesced — promotion path untested ({stats:?})"
    );
}

/// Leader cancelled mid-flight (a user killing their own query must not
/// kill everyone coalesced behind it).
#[test]
fn cancelled_coalesced_leader_never_strands_waiters() {
    leader_failure_storm("leader-cancel", FaultAction::Cancel);
}

/// Leader poisoned (panicking) mid-flight: the panic resolves only the
/// leader's ticket; the group is promoted, not poisoned.
#[test]
fn poisoned_coalesced_leader_never_strands_waiters() {
    leader_failure_storm("leader-poison", FaultAction::Poison);
}

/// Waiters outliving their leader. Four requests coalesce behind a leader
/// held at the exec site: one is cancelled and one's deadline runs out
/// while the leader executes, and both still resolve typed — no columns, no
/// rows — when the leader delivers. The other two resolve `Ok` and are
/// never read: a ticket's share of the execution's columns is a handle on
/// the cached entry's allocation, and dropping the ticket gives it back.
#[test]
fn unread_and_failed_waiters_hold_no_share_of_the_columns() {
    let fact = build_engine(EngineKind::Column, fact_rows(5, 40, 6, 0x57012));
    let sql = queries(6)[2].clone();
    let engine = Arc::new(
        SqlEngine::with_alltables(fact)
            .with_parallel(Arc::new(ParallelCtx::with_admission(4, 32, 2))),
    );
    let queue = ServeQueue::new(
        engine.clone(),
        ServeConfig {
            depth: 8,
            workers: 2,
            faults: FaultPlan::none().with(
                SITE_EXEC,
                FaultAction::Delay(Duration::from_millis(300)),
                1_000_000,
            ),
            result_cache_bytes: 1 << 20,
            coalesce: true,
        },
    );
    let submit = |budget| queue.submit(&sql, Deadline::after(budget)).expect("depth");
    let long = Duration::from_secs(20);
    let leader = submit(long);
    let (unread_a, unread_b, cancelled) = (submit(long), submit(long), submit(long));
    let timed_out = submit(Duration::from_millis(30));
    cancelled.cancel();

    let watchdog = Instant::now() + WATCHDOG;
    let eventually = |what: &str, done: &dyn Fn() -> bool| {
        while !done() {
            assert!(Instant::now() < watchdog, "never: {what}");
            std::thread::yield_now();
        }
    };
    // (Which of the five a serving thread makes the leader is the
    // scheduler's choice; the counts below hold whichever it is.)
    let (rs, _) = leader.wait().expect("the first request succeeds");
    assert!(!rs.is_empty());
    assert!(matches!(cancelled.wait(), Err(BlendError::Cancelled(_))));
    assert!(matches!(timed_out.wait(), Err(BlendError::Timeout(_))));
    eventually("both unread waiters are delivered", &|| {
        queue.stats().coalesced_hits == 2
    });

    let entry = {
        let key = CacheKey {
            fp: blend_sql::fingerprint_sql(&sql).expect("the SQL parses"),
            generation: engine.generation(),
        };
        let cached = queue.result_cache().get(&key);
        let cached = cached.expect("the leader's result is memoized");
        assert_eq!(cached.columns.to_result_set(), rs);
        Arc::downgrade(&cached)
    };
    // The cache's handle and the two unread tickets'.
    eventually("the leader's thread lets go", &|| entry.strong_count() == 3);
    drop(unread_a);
    assert_eq!(entry.strong_count(), 2);
    // Cancelling a resolved request changes nothing; dropping it does.
    unread_b.cancel();
    drop(unread_b);
    assert_eq!(entry.strong_count(), 1, "only the cache holds the entry");
}
