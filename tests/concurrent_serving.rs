//! Concurrent multi-query serving: stress & parity.
//!
//! The persistent worker pool serves many in-flight queries from one
//! machine-wide thread budget (admission control). This suite pins the two
//! contracts that design must never break:
//!
//! 1. **Parity under concurrency** — M OS threads firing K mixed
//!    seeker/SQL queries against one shared engine produce results
//!    **byte-identical** to each query's sequential single-query run, at
//!    every thread count and under admission budgets smaller than the
//!    offered load (phases silently degrade to fewer workers or the
//!    sequential fallback; the order-preserving merges make that invisible
//!    in the output).
//! 2. **Liveness and accounting** — random grant/release sequences never
//!    exceed the token budget and always drain (no lost wakeups, no
//!    deadlock), every recorded phase stays within its grant, and the
//!    budget is fully returned once the storm ends.
//! 3. **One result, however it is delivered** — through the serving tier a
//!    result is shared flat columns, and the rows a client reads from a
//!    fresh execution, a cache hit or a coalesced execution are the direct
//!    engine's, for every seeker class on both storage engines.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use blend::plan::Seeker;
use blend::seekers::{self, TID_PLACEHOLDER};
use blend_parallel::{Admission, Deadline, ParallelCtx};
use blend_serve::{FaultAction, FaultPlan, ServeConfig, ServeQueue, SITE_EXEC};
use blend_sql::{ExecPath, QueryReport, ResultSet, SqlEngine};
use blend_storage::{build_engine, EngineKind, FactRow};
use proptest::prelude::*;

/// OS threads firing queries concurrently (the "M" of the suite).
const IN_FLIGHT: usize = 8;

/// Rounds each thread replays the whole query mix.
const ROUNDS: usize = 2;

/// Deterministic random-ish fact rows: `n_tables` tables, each with one
/// text key column, one numeric column with quadrant bits, and one extra
/// text column, sharing a `w{i}` vocabulary so seekers hit many tables.
fn fact_rows(n_tables: u32, rows_per: u32, vocab: u32, seed: u64) -> Vec<FactRow> {
    let mut rows = Vec::new();
    let mut state = seed | 1;
    let mut next = move || {
        // xorshift64* — cheap, deterministic, good enough for test data.
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
            let extra = format!("w{}", next() % vocab as u64);
            rows.push(FactRow::new(&extra, t, 2, r, sk, None));
        }
    }
    rows
}

/// The mixed query set: all four seeker SQL shapes plus two ad-hoc SQL
/// queries (a broad grouped scan and a plain ordered selection), so the
/// storm covers the positional executor's scan/join/group phases *and* the
/// tuple path at once.
fn mixed_queries(vocab: u32) -> Vec<(&'static str, String)> {
    let w = |i: u32| format!("w{}", i % vocab);
    let vals: Vec<String> = (0..6).map(w).collect();
    let seeker_shapes = vec![
        ("sc", Seeker::sc(vals.clone())),
        ("kw", Seeker::kw(vals.clone())),
        ("mc", Seeker::mc(vec![vec![w(0), w(1)], vec![w(2), w(3)]])),
        ("c", Seeker::c(vals, vec![3.0, 17.0, 5.0, 29.0, 11.0, 23.0])),
    ];
    let mut queries: Vec<(&'static str, String)> = seeker_shapes
        .into_iter()
        .map(|(label, s)| {
            (
                label,
                seekers::seeker_sql(&s, 10, 8).replace(TID_PLACEHOLDER, ""),
            )
        })
        .collect();
    queries.push((
        "adhoc-group",
        "SELECT TableId, ColumnId, COUNT(*) AS n FROM AllTables \
         GROUP BY TableId, ColumnId ORDER BY n DESC, TableId, ColumnId LIMIT 20"
            .to_string(),
    ));
    queries.push((
        "adhoc-select",
        "SELECT TableId, RowId, CellValue FROM AllTables \
         WHERE RowId < 3 AND TableId NOT IN (1) \
         ORDER BY TableId, RowId, CellValue LIMIT 50"
            .to_string(),
    ));
    queries
}

/// Sequential single-query reference runs (the parity oracle).
fn reference_results(
    fact: &Arc<dyn blend_storage::FactTable>,
    queries: &[(&'static str, String)],
) -> Vec<(ResultSet, QueryReport)> {
    let engine =
        SqlEngine::with_alltables(fact.clone()).with_parallel(Arc::new(ParallelCtx::sequential()));
    queries
        .iter()
        .map(|(label, sql)| {
            engine
                .execute_with_report_path(sql, ExecPath::Auto)
                .unwrap_or_else(|e| panic!("{label}: {e}"))
        })
        .collect()
}

/// Fire the whole query mix from `IN_FLIGHT` OS threads (each thread
/// rotates through the mix `ROUNDS` times starting at a different offset)
/// and assert every result byte-identical to its sequential reference.
/// Returns every recorded parallel phase's granted width for invariant
/// checks.
fn storm(
    engine: &SqlEngine,
    queries: &[(&'static str, String)],
    want: &[(ResultSet, QueryReport)],
    context: &str,
) -> Vec<usize> {
    let grants = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..IN_FLIGHT)
            .map(|worker| {
                scope.spawn(move || {
                    let mut grants = Vec::new();
                    for round in 0..ROUNDS {
                        for qi in 0..queries.len() {
                            // Offset per worker/round so different queries
                            // genuinely overlap in time.
                            let qi = (qi + worker + round) % queries.len();
                            let (label, sql) = &queries[qi];
                            let (got, rep) = engine
                                .execute_with_report_path(sql, ExecPath::Auto)
                                .unwrap_or_else(|e| panic!("{context}/{label}: {e}"));
                            let (want_rs, want_rep) = &want[qi];
                            assert_eq!(
                                &got, want_rs,
                                "{context}/{label}: concurrent result diverged from \
                                 the sequential single-query run"
                            );
                            assert!(
                                rep.logical_eq(want_rep),
                                "{context}/{label}: logical telemetry diverged"
                            );
                            grants.extend(rep.parallel.iter().map(|p| p.granted));
                        }
                    }
                    grants
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("storm worker panicked"))
            .collect::<Vec<usize>>()
    });
    grants
}

#[test]
fn concurrent_mixed_queries_match_sequential_across_thread_counts_and_budgets() {
    let rows = fact_rows(5, 28, 8, 0xC0C0);
    for kind in [EngineKind::Row, EngineKind::Column] {
        let fact = build_engine(kind, rows.clone());
        let queries = mixed_queries(8);
        let want = reference_results(&fact, &queries);

        for threads in [1usize, 2, 8] {
            // Budgets strictly smaller than the offered load: IN_FLIGHT
            // concurrent queries each ask for `threads - 1` tokens per
            // phase, so even the full-pool budget is contended.
            let budgets: &[usize] = match threads {
                1 => &[0],
                2 => &[1],
                _ => &[1, 2, 7],
            };
            for &budget in budgets {
                // Thresholds forced to 1 so the pool engages on
                // property-sized inputs (as in tests/parallel_parity.rs).
                let ctx = Arc::new(ParallelCtx::with_admission(threads, 1, 5, budget));
                let engine = SqlEngine::with_alltables(fact.clone()).with_parallel(ctx.clone());
                let context = format!("{kind:?}/{threads}t/budget{budget}");

                let grants = storm(&engine, &queries, &want, &context);

                for &granted in &grants {
                    assert!(
                        granted >= 2 && granted <= budget + 1 && granted <= threads,
                        "{context}: phase granted {granted} workers outside \
                         [2, min(budget+1, threads)]"
                    );
                }
                if threads == 1 || budget == 0 {
                    assert!(
                        grants.is_empty(),
                        "{context}: sequential config must record no pool phases"
                    );
                }

                // The storm drained: every token returned, workers parked
                // (not leaked), pool still serves a fresh query.
                assert_eq!(
                    ctx.admission().available(),
                    budget,
                    "{context}: outstanding admission tokens after drain"
                );
                assert_eq!(
                    ctx.pool().live_workers(),
                    threads - 1,
                    "{context}: parked worker count changed"
                );
                let (rs, _) = engine
                    .execute_with_report_path(&queries[0].1, ExecPath::Auto)
                    .unwrap();
                assert_eq!(rs, want[0].0, "{context}: engine unusable after storm");
            }
        }
    }
}

/// End-to-end seeker runs (SQL generation + application phases) through
/// one shared `Blend` system under concurrent fire agree with sequential
/// runs — the whole-system view of the same invariant.
#[test]
fn concurrent_end_to_end_seeker_runs_match_sequential() {
    let rows = fact_rows(5, 30, 8, 0xB1EBD);
    let fact = build_engine(EngineKind::Column, rows);
    let vals: Vec<String> = (0..5).map(|i| format!("w{i}")).collect();
    let seekers_under_test = vec![
        ("sc", Seeker::sc(vals.clone())),
        ("kw", Seeker::kw(vals.clone())),
        (
            "mc",
            Seeker::mc(vec![
                vec!["w0".into(), "w1".into()],
                vec!["w2".into(), "w3".into()],
            ]),
        ),
        ("c", Seeker::c(vals, vec![1.0, 9.0, 2.0, 8.0, 3.0])),
    ];

    let mut reference = blend::Blend::new(fact.clone());
    reference.set_parallel(Arc::new(ParallelCtx::sequential()));
    let hits = |run: &seekers::SeekerRun| -> Vec<(u32, f64)> {
        run.hits.iter().map(|h| (h.table.0, h.score)).collect()
    };
    let want: Vec<_> = seekers_under_test
        .iter()
        .map(|(label, s)| {
            let run = seekers::run(&reference, s, 10, None, &blend::Interrupt::never())
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            (run.sql.clone(), hits(&run))
        })
        .collect();

    // Shared system: 4 threads, admission budget 2 — less than the
    // IN_FLIGHT * 3 tokens of offered load.
    let mut shared = blend::Blend::new(fact);
    shared.set_parallel(Arc::new(ParallelCtx::with_admission(4, 1, 5, 2)));
    std::thread::scope(|scope| {
        for worker in 0..IN_FLIGHT {
            let shared = &shared;
            let seekers_under_test = &seekers_under_test;
            let want = &want;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    for si in 0..seekers_under_test.len() {
                        let si = (si + worker + round) % seekers_under_test.len();
                        let (label, seeker) = &seekers_under_test[si];
                        let got =
                            seekers::run(shared, seeker, 10, None, &blend::Interrupt::never())
                                .unwrap_or_else(|e| panic!("{label}: {e}"));
                        assert_eq!(got.sql, want[si].0, "{label}: generated SQL diverged");
                        assert_eq!(
                            hits(&got),
                            want[si].1,
                            "{label}: concurrent seeker hits diverged from sequential"
                        );
                    }
                }
            });
        }
    });
    assert_eq!(shared.parallel_ctx().admission().available(), 2);
}

/// Engines built with default configuration share **one** process-wide
/// context (pool + admission budget of `threads - 1`), and serving through
/// it concurrently stays byte-identical to sequential runs. The width is
/// the machine's (or `BLEND_THREADS`); forced contention — 4 threads, 2
/// tokens — runs on private contexts above and in `config_matrix`.
#[test]
fn default_engines_share_one_process_pool_and_serve_consistently() {
    // Larger lake so default thresholds (min_parallel = 4096) still let
    // grouped phases reach the pool on a multi-core machine.
    let rows = fact_rows(8, 450, 10, 0x5EED);
    for kind in [EngineKind::Row, EngineKind::Column] {
        let fact = build_engine(kind, rows.clone());
        let engine = SqlEngine::with_alltables(fact.clone());
        let peer = SqlEngine::with_alltables(fact.clone());
        // Exactly one pool per process: default construction always hands
        // back the same shared context.
        assert!(
            Arc::ptr_eq(engine.parallel_ctx(), peer.parallel_ctx()),
            "default engines must share the process context"
        );
        assert!(Arc::ptr_eq(
            engine.parallel_ctx().admission(),
            ParallelCtx::shared_from_env().admission()
        ));

        let queries = mixed_queries(10);
        let want = reference_results(&fact, &queries);
        let grants = storm(&engine, &queries, &want, &format!("{kind:?}/default"));
        let budget = engine.parallel_ctx().admission().budget();
        for &granted in &grants {
            assert!(granted <= budget + 1);
        }
        assert_eq!(engine.parallel_ctx().admission().available(), budget);
    }
}

/// The six seeker classes of the served workloads (SC over 10, 100 and
/// 1000 values, KW, MC, C), on the row store (whose text columns come out
/// dense) and the column store (store codes, detached for sharing): two
/// overlapping submissions are one fresh execution and one coalesced
/// delivery, a third is a cache hit, and all three are `SqlEngine::execute`'s
/// result value for value and label for label.
#[test]
fn every_delivery_kind_reads_the_direct_engines_rows() {
    let w = |i: u32| format!("w{}", i % 10);
    let sc = |n: u32| Seeker::sc((0..n).map(w).collect());
    let classes = [
        ("sc10", sc(10)),
        ("sc100", sc(100)),
        ("sc1000", sc(1000)),
        ("kw", Seeker::kw((0..6).map(w).collect())),
        (
            "mc",
            Seeker::mc((0..10).map(|r| vec![w(r), w(r + 3)]).collect()),
        ),
        (
            "c",
            Seeker::c(
                (0..6).map(w).collect(),
                vec![3.0, 17.0, 5.0, 29.0, 11.0, 23.0],
            ),
        ),
    ];
    for kind in [EngineKind::Row, EngineKind::Column] {
        // A context of its own: the process-wide one is another test's to
        // count tokens on.
        let fact = build_engine(kind, fact_rows(8, 60, 10, 0xD15C));
        let ctx = Arc::new(ParallelCtx::with_admission(4, 1, 5, 2));
        let engine = Arc::new(SqlEngine::with_alltables(fact).with_parallel(ctx));
        for (class, seeker) in &classes {
            let sql = seekers::seeker_sql(seeker, 10, 8).replace(TID_PLACEHOLDER, "");
            let want = engine.execute(&sql).expect("direct run");
            assert!(!want.is_empty(), "{kind:?}/{class}: empty reference");
            // A queue per class: the delay holds its first execution, so
            // the second submission finds it in flight.
            let queue = ServeQueue::new(
                engine.clone(),
                ServeConfig {
                    faults: FaultPlan::none().with(
                        SITE_EXEC,
                        FaultAction::Delay(Duration::from_millis(60)),
                        1_000_000,
                    ),
                    result_cache_bytes: 4 << 20,
                    ..ServeConfig::default()
                },
            );
            let submit = || queue.submit(&sql, Deadline::none()).expect("accepted");
            let read = |ticket: blend_serve::Ticket| {
                let (rs, report) = ticket.wait().expect("served");
                let how = report.serving.expect("telemetry").outcome;
                // Debug text: `SqlValue: PartialEq` would equate `1` with `1.0`.
                assert_eq!(rs.columns, want.columns, "{kind:?}/{class}/{how}: labels");
                assert_eq!(
                    format!("{:?}", rs.rows),
                    format!("{:?}", want.rows),
                    "{kind:?}/{class}/{how}: values"
                );
                how
            };
            let mut overlapping = [submit(), submit()].map(read);
            overlapping.sort();
            assert_eq!(overlapping, ["coalesced_hit", "ok"], "{kind:?}/{class}");
            assert_eq!(read(submit()), "cache_hit", "{kind:?}/{class}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random admission grant/release storms: the number of concurrently
    /// held tokens never exceeds the budget, blocking acquires are always
    /// eventually satisfied (no lost wakeups / deadlock — enforced with a
    /// watchdog timeout), and the budget drains back to full.
    #[test]
    fn admission_grants_never_exceed_budget_and_always_drain(
        budget in 1usize..5,
        n_threads in 2usize..6,
        ops in 5usize..25,
        seed in any::<u64>(),
    ) {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let admission = Admission::new(budget);
            let outstanding = Arc::new(AtomicUsize::new(0));
            let max_seen = Arc::new(AtomicUsize::new(0));
            let mut joins = Vec::new();
            for t in 0..n_threads {
                let admission = admission.clone();
                let outstanding = outstanding.clone();
                let max_seen = max_seen.clone();
                joins.push(std::thread::spawn(move || {
                    let mut state =
                        (seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
                    let mut next = move || {
                        state ^= state >> 12;
                        state ^= state << 25;
                        state ^= state >> 27;
                        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
                    };
                    for _ in 0..ops {
                        let desired = (next() as usize % (budget + 2)) + 1;
                        let grant = if next() % 2 == 0 {
                            admission.acquire(desired)
                        } else {
                            admission.try_acquire(desired)
                        };
                        let now = outstanding.fetch_add(grant.tokens(), Ordering::SeqCst)
                            + grant.tokens();
                        max_seen.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        outstanding.fetch_sub(grant.tokens(), Ordering::SeqCst);
                        drop(grant);
                    }
                }));
            }
            for j in joins {
                j.join().expect("grant storm thread panicked");
            }
            let _ = tx.send((max_seen.load(Ordering::SeqCst), admission.available()));
        });

        // The watchdog: a lost wakeup or deadlock shows up as a timeout
        // here, not as a hung test suite.
        let (max_seen, available) = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("admission storm deadlocked (lost wakeup?)");
        prop_assert!(
            max_seen <= budget,
            "held {max_seen} tokens concurrently on a budget of {budget}"
        );
        prop_assert_eq!(available, budget, "tokens leaked after drain");
    }

    /// Deadline-aware acquire against an exhausted budget: with every token
    /// held and the deadline already expired, `acquire_within` must return
    /// `Err(Timeout)` — never block forever (watchdog) and never leak a
    /// token, even when a release races the expiry.
    #[test]
    fn expired_deadline_acquire_always_times_out_and_never_leaks(
        budget in 1usize..5,
        desired in 1usize..8,
        racing_release in any::<bool>(),
        expiry_micros in 0u64..500,
    ) {
        use blend_parallel::{CancellationToken, Deadline, Interrupt};

        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let admission = Admission::new(budget);
            let held = admission.try_acquire(budget);
            assert_eq!(held.tokens(), budget, "failed to exhaust the budget");

            // A release racing the expired-deadline acquire must not let a
            // grant slip out after the deadline check.
            let releaser = racing_release.then(|| {
                let admission = admission.clone();
                std::thread::spawn(move || {
                    let refill = admission.try_acquire(0); // no-op grant
                    drop(refill);
                    std::thread::yield_now();
                })
            });

            let interrupt = Interrupt::new(
                CancellationToken::new(),
                Deadline::after(Duration::from_micros(expiry_micros)),
            );
            // Let sub-millisecond deadlines actually expire.
            std::thread::sleep(Duration::from_micros(expiry_micros + 1));
            let result = admission.acquire_within(desired, &interrupt);

            if let Some(r) = releaser {
                r.join().expect("racing releaser panicked");
            }
            let timed_out = matches!(result, Err(blend_common::BlendError::Timeout(_)));
            drop(result);
            drop(held);
            let _ = tx.send((timed_out, admission.available()));
        });

        let (timed_out, available) = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("expired-deadline acquire hung (deadline ignored?)");
        prop_assert!(
            timed_out,
            "acquire_within on a full budget with an expired deadline must \
             return Err(Timeout)"
        );
        prop_assert_eq!(
            available, budget,
            "expired-deadline acquire leaked a grant"
        );
    }
}
