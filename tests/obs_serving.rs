//! Post-storm metrics snapshot validation: after an overload storm through
//! the serving tier, the process-global registry must expose the serving,
//! admission, and SQL metric families, and the serving counters must
//! satisfy the conservation identity
//!
//! ```text
//! shed + ok + cache_hit + coalesced_hit + timeout + cancelled
//!     + mem_exceeded + failed == submitted
//! ```
//!
//! Lives in its own integration binary with a single test: the identity is
//! only exact at a quiescent point, and the registry is process-global, so
//! no other serving test may run in this process.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use blend_parallel::{Deadline, ParallelCtx};
use blend_serve::{FaultPlan, ServeConfig, ServeQueue};
use blend_sql::SqlEngine;
use blend_storage::{build_engine, EngineKind, FactRow};

const WATCHDOG: Duration = Duration::from_secs(30);

fn fact_rows() -> Vec<FactRow> {
    let mut rows = Vec::new();
    for t in 0..5u32 {
        for r in 0..60u32 {
            let sk = ((t as u128) << 64) | r as u128;
            rows.push(FactRow::new(
                &format!("w{}", (t + r) % 6),
                t,
                0,
                r,
                sk,
                None,
            ));
            rows.push(FactRow::new(&(r % 10).to_string(), t, 1, r, sk, None));
        }
    }
    rows
}

#[test]
fn post_storm_snapshot_exposes_families_and_counter_identity() {
    const DEPTH: usize = 4;
    const WAVES: usize = 4;

    let fact = build_engine(EngineKind::Column, fact_rows());
    // Chunks of 32 rows on a few-hundred-row table, and two admission
    // tokens for the two serving threads.
    let engine = Arc::new(
        SqlEngine::with_alltables(fact)
            .with_parallel(Arc::new(ParallelCtx::with_admission(4, 32, 2))),
    );
    let queue = Arc::new(ServeQueue::new(
        engine,
        ServeConfig {
            depth: DEPTH,
            workers: 2,
            faults: FaultPlan::none(),
            // Explicit budget: the identity must hold with memoization on,
            // and the storm repeats queries so hits are guaranteed.
            result_cache_bytes: 1 << 20,
            coalesce: true,
        },
    ));

    let queries = [
        "SELECT TableId, COUNT(DISTINCT CellValue) AS n FROM AllTables \
         WHERE CellValue IN ('w0','w1','w2') GROUP BY TableId ORDER BY n DESC, TableId LIMIT 10",
        "SELECT a.TableId, COUNT(*) AS n FROM AllTables a \
         INNER JOIN AllTables b ON a.CellValue = b.CellValue \
         WHERE b.ColumnId = 0 GROUP BY a.TableId ORDER BY n DESC, a.TableId LIMIT 10",
        "SELECT TableId, RowId, CellValue FROM AllTables \
         WHERE ColumnId = 0 ORDER BY TableId, RowId, CellValue LIMIT 40",
    ];

    // 2× queue depth per wave, a third on 1 ms budgets: produces ok, shed,
    // and timeout outcomes. Behind a watchdog like the main storm suite.
    let (tx, rx) = mpsc::channel();
    let storm_queue = queue.clone();
    let storm = std::thread::spawn(move || {
        let mut resolved = 0usize;
        for wave in 0..WAVES {
            let tickets: Vec<_> = (0..2 * DEPTH)
                .map(|i| {
                    let budget = if i % 3 == 0 {
                        Duration::from_millis(1)
                    } else {
                        Duration::from_secs(20)
                    };
                    let sql = queries[(i + wave) % queries.len()];
                    storm_queue.submit(sql, Deadline::after(budget))
                })
                .collect();
            for ticket in tickets {
                let _ = ticket.and_then(|t| t.wait());
                resolved += 1;
            }
        }
        let _ = tx.send(resolved);
    });
    let resolved = rx.recv_timeout(WATCHDOG).expect("metrics storm deadlocked");
    // The storm thread holds a queue handle until it returns.
    storm.join().expect("storm thread");
    assert_eq!(resolved, WAVES * 2 * DEPTH);

    // One cold request on the now idle tier.
    let lone = "SELECT TableId, COUNT(*) AS n FROM AllTables GROUP BY TableId ORDER BY TableId";
    let (rs, fresh) = queue
        .submit(lone, Deadline::none())
        .and_then(|t| t.wait())
        .expect("a lone request on an idle tier succeeds");

    // The same request again is a memoized delivery. Its synthesized root
    // says what was delivered (rows, and the bytes the cache charged for
    // them), and on either delivery the rows a client reads were built by
    // `Ticket::wait`, under a `materialize` span like the engine's own.
    let (_, hit) = queue
        .submit(lone, Deadline::none())
        .and_then(|t| t.wait())
        .expect("the repeat is served");
    let rows = Some(&blend_obs::AttrValue::U64(rs.len() as u64));
    let root = &hit.profile.as_ref().expect("hits carry a profile").root;
    assert_eq!(
        root.attr("cache"),
        Some(&blend_obs::AttrValue::Str("hit".into()))
    );
    assert_eq!(root.attr("rows"), rows);
    assert!(
        matches!(root.attr("result_bytes"), Some(blend_obs::AttrValue::U64(b)) if *b > 0),
        "memoized root lacks result_bytes: {root:?}"
    );
    for (how, report) in [("fresh", &fresh), ("cache hit", &hit)] {
        let root = &report.profile.as_ref().expect("profiled").root;
        let built = root.children.iter().filter(|c| c.name == "materialize");
        assert!(
            built.clone().any(|c| c.attr("rows") == rows),
            "{how}: no materialize span for the rows read: {root:?}"
        );
        assert!(root.nanos >= built.map(|c| c.nanos).sum());
    }
    // The resident-bytes gauge is the cache's own columnar cost.
    assert_eq!(
        blend_obs::registry()
            .snapshot()
            .gauges
            .get("blend_cache_bytes"),
        Some(&(queue.result_cache().bytes() as i64)),
    );
    assert!(queue.result_cache().bytes() > 0);

    // Quiesce: joining the serving threads guarantees every accepted
    // request's outcome counter was bumped before the snapshot.
    drop(queue);

    let snap = blend_obs::registry().snapshot();
    let submitted = snap.counter("blend_serve_submitted_total");
    assert_eq!(
        submitted,
        (WAVES * 2 * DEPTH + 2) as u64,
        "metrics-level submitted counts every submission attempt"
    );
    let outcomes: u64 = [
        "shed",
        "ok",
        "cache_hit",
        "coalesced_hit",
        "timeout",
        "cancelled",
        "mem_exceeded",
        "failed",
    ]
    .iter()
    .map(|o| snap.counter(&format!("blend_serve_outcomes_total{{outcome=\"{o}\"}}")))
    .sum();
    assert_eq!(
        outcomes, submitted,
        "shed + ok + cache_hit + coalesced_hit + timeout + cancelled + \
         mem_exceeded + failed must equal submitted"
    );
    assert!(
        snap.counter("blend_serve_outcomes_total{outcome=\"ok\"}") > 0,
        "storm produced no successes"
    );
    // The storm repeats three query templates with a warm cache: memoized
    // deliveries must have happened, and the cache counters must agree
    // with the serving-level outcome counters.
    let hits = snap.counter("blend_cache_hits_total");
    let coalesced = snap.counter("blend_cache_coalesced_total");
    assert!(
        hits + coalesced > 0,
        "repeated templates produced no memoized deliveries"
    );
    assert_eq!(
        hits,
        snap.counter("blend_serve_outcomes_total{outcome=\"cache_hit\"}"),
        "cache-level and serving-level hit counters must agree"
    );
    assert_eq!(
        coalesced,
        snap.counter("blend_serve_outcomes_total{outcome=\"coalesced_hit\"}"),
        "cache-level and serving-level coalesced counters must agree"
    );
    assert!(
        snap.counter("blend_cache_misses_total") > 0,
        "cold executions must record misses"
    );
    assert_eq!(
        snap.gauges.get("blend_serve_queue_depth").copied(),
        Some(0),
        "queue depth gauge must drain to zero"
    );

    // Family presence: serving histograms, admission, and SQL cells
    // all moved during the storm.
    for hist in ["blend_serve_queue_wait_nanos", "blend_serve_exec_nanos"] {
        let h = snap
            .histograms
            .get(hist)
            .unwrap_or_else(|| panic!("missing histogram family `{hist}`"));
        assert!(h.count > 0, "`{hist}` recorded nothing");
    }
    assert!(
        snap.counter("blend_admission_grants_total") > 0,
        "no admission grants recorded"
    );
    assert_eq!(
        snap.gauges.get("blend_admission_tokens_in_use").copied(),
        Some(0),
        "admission tokens must drain back"
    );
    assert!(
        snap.counter("blend_sql_queries_total{path=\"positional\"}")
            + snap.counter("blend_sql_queries_total{path=\"tuple\"}")
            > 0,
        "no SQL executions recorded"
    );

    // The Prometheus rendering carries every family with type headers.
    let rendered = blend_obs::registry().render_prometheus();
    for family in [
        "# TYPE blend_serve_submitted_total counter",
        "# TYPE blend_serve_outcomes_total counter",
        "# TYPE blend_serve_queue_depth gauge",
        "# TYPE blend_serve_queue_wait_nanos histogram",
        "# TYPE blend_serve_exec_nanos histogram",
        "# TYPE blend_admission_grants_total counter",
    ] {
        assert!(rendered.contains(family), "rendering lost `{family}`");
    }
}
