//! Observability layer invariants: metric conservation under concurrency
//! and the EXPLAIN ANALYZE profile tree on real queries.
//!
//! 1. **Conservation** — counters and histograms hammered from many
//!    threads lose no updates: the counter total, the histogram count,
//!    the bucket mass, and the value sum all equal what the writers
//!    recorded. Runs behind a watchdog so a lost wakeup or deadlock in
//!    the sharded cells shows up as a timeout, not a hung suite.
//! 2. **Parse-back** — the Prometheus text rendering round-trips: the
//!    `_total`, `_count`, and `+Inf` bucket lines parse back to exactly
//!    the in-process values.
//! 3. **Profile tree** — an SC-shaped query (scan → join build/probe →
//!    group) executed directly through [`SqlEngine`] carries a
//!    [`QueryProfile`] with the full span tree and non-zero timings, and
//!    direct calls get exec-time telemetry with zero queue wait. The
//!    `group` span names the grouping path that ran (`columns` | `hash`)
//!    and covers the whole phase.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use proptest::prelude::*;

use blend_parallel::ParallelCtx;
use blend_sql::SqlEngine;
use blend_storage::{build_engine, EngineKind, FactRow};

/// Watchdog budget for one hammer round.
const WATCHDOG: Duration = Duration::from_secs(20);

/// Unique metric names per proptest case so cases never share cells and
/// every assertion can be absolute instead of delta-based.
fn unique_name(prefix: &str) -> String {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    format!("{prefix}_{}", NEXT.fetch_add(1, Ordering::Relaxed))
}

/// Extract the value of the first rendered line whose name part equals
/// `name` (exact match on everything before the final space).
fn parse_line(rendered: &str, name: &str) -> Option<u64> {
    rendered.lines().find_map(|l| {
        let (n, v) = l.rsplit_once(' ')?;
        (n == name).then(|| v.parse().ok())?
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn concurrent_hammer_conserves_counts(
        base in proptest::collection::vec(0u64..1_000_000, 1..200),
        extreme_picks in proptest::collection::vec(0usize..6, 0..6),
        threads in 2usize..6,
    ) {
        // Mix boundary values (0 → first bucket, u64::MAX → last, the
        // 2^62 edge of the overflow bucket) into every case: conservation
        // and the wrapping sum must hold at the extremes too.
        const EXTREMES: [u64; 6] =
            [0, 1, (1 << 62) - 1, 1 << 62, u64::MAX - 1, u64::MAX];
        let mut values = base;
        values.extend(extreme_picks.iter().map(|&i| EXTREMES[i]));
        let counter_name = unique_name("obs_test_hammer_total");
        let hist_name = unique_name("obs_test_hammer_nanos");
        let counter = blend_obs::registry().counter(&counter_name);
        let hist = blend_obs::registry().histogram(&hist_name);

        // Hammer behind a watchdog: all threads record every value.
        let (tx, rx) = mpsc::channel();
        {
            let values = values.clone();
            let (counter, hist) = (counter.clone(), hist.clone());
            std::thread::spawn(move || {
                let workers: Vec<_> = (0..threads)
                    .map(|_| {
                        let values = values.clone();
                        let (counter, hist) = (counter.clone(), hist.clone());
                        std::thread::spawn(move || {
                            for &v in &values {
                                counter.inc();
                                hist.record(v);
                            }
                        })
                    })
                    .collect();
                for w in workers {
                    w.join().expect("hammer thread panicked");
                }
                let _ = tx.send(());
            });
        }
        rx.recv_timeout(WATCHDOG).expect("metric hammer deadlocked");

        // Conservation: nothing lost, nothing invented.
        let expected_count = (threads * values.len()) as u64;
        let expected_sum = values
            .iter()
            .fold(0u64, |acc, &v| acc.wrapping_add(v))
            .wrapping_mul(threads as u64);
        prop_assert_eq!(counter.get(), expected_count);
        let snap = hist.snapshot();
        prop_assert_eq!(snap.count, expected_count);
        prop_assert_eq!(snap.sum, expected_sum);
        prop_assert_eq!(
            snap.buckets.iter().sum::<u64>(),
            expected_count,
            "bucket mass must equal the record count"
        );

        // Prometheus parse-back on the live registry rendering.
        let rendered = blend_obs::registry().render_prometheus();
        prop_assert_eq!(parse_line(&rendered, &counter_name), Some(expected_count));
        prop_assert_eq!(
            parse_line(&rendered, &format!("{hist_name}_count")),
            Some(expected_count)
        );
        prop_assert_eq!(
            parse_line(&rendered, &format!("{hist_name}_bucket{{le=\"+Inf\"}}")),
            Some(expected_count),
            "+Inf bucket must be cumulative over everything"
        );
    }
}

fn sc_engine() -> SqlEngine {
    let mut rows = Vec::new();
    for t in 0..6u32 {
        for r in 0..40u32 {
            let sk = ((t as u128) << 64) | r as u128;
            rows.push(FactRow::new(
                &format!("w{}", (t + r) % 7),
                t,
                0,
                r,
                sk,
                None,
            ));
            rows.push(FactRow::new(&(r % 10).to_string(), t, 1, r, sk, None));
        }
    }
    let fact = build_engine(EngineKind::Column, rows);
    SqlEngine::with_alltables(fact).with_parallel(Arc::new(ParallelCtx::sequential()))
}

/// The SC shape (Listing 1): index scan → self-join build/probe → grouped
/// aggregation. Its profile must contain the whole span tree with real
/// timings.
#[test]
fn sc_query_profile_has_full_span_tree() {
    let engine = sc_engine();
    let sql = "SELECT a.TableId, COUNT(DISTINCT a.CellValue) AS n FROM AllTables a \
               INNER JOIN AllTables b ON a.CellValue = b.CellValue \
               WHERE b.ColumnId = 0 GROUP BY a.TableId ORDER BY n DESC, a.TableId LIMIT 10";
    let (_, report) = engine.execute_with_report(sql).expect("SC query");

    let profile = report.profile.as_ref().expect("profile collected");
    assert_eq!(profile.root.name, "query");
    assert!(profile.root.nanos > 0, "root span must have wall time");
    assert_eq!(
        profile.root.attr("path").map(|a| a.to_string()).as_deref(),
        Some(report.path.as_str()),
        "root records which executor ran"
    );

    let scan = profile
        .find_prefix("scan:")
        .expect("scan span under the query root");
    assert!(scan.nanos > 0, "scan span must have wall time");
    assert!(scan.attr("rows").is_some(), "scan records emitted rows");
    for phase in ["join.build", "join.probe", "group"] {
        assert!(
            profile.find(phase).is_some(),
            "missing span `{phase}` in profile:\n{}",
            profile.render()
        );
    }

    // The tree printer shows every phase with a duration.
    let rendered = profile.render();
    for needle in ["query", "join.build", "join.probe", "group"] {
        assert!(rendered.contains(needle), "renderer lost `{needle}`");
    }

    // Direct (unqueued) execution still carries exec-time telemetry.
    let serving = report.serving.as_ref().expect("direct-call serving stats");
    assert_eq!(serving.outcome, "ok");
    assert_eq!(serving.queue_wait_nanos, 0, "no queue on the direct path");
    assert!(
        serving.exec_nanos > 0,
        "exec time measured from the root span"
    );
}

/// The sort/top-k, project and materialize layers are spans of their own,
/// direct children of `query`, on the row and the columnar entry (the
/// reference opens no span) — and on the positional GROUP BY they show the
/// pushdown: `sort` sees every group, `project` only the LIMIT's rows. `group` stays grouping plus
/// aggregation. `materialize` counts the `SqlValue` rows actually built:
/// the result's rows on a row entry, none on the columnar entry. On the
/// positional executor `sort` also says how it selected: `path=threshold`
/// where a count histogram chose the `candidates` the comparator ranked,
/// `path=compare` with every group a candidate where the counts spread
/// wider than the groups.
#[test]
fn sort_project_and_materialize_are_query_level_spans_on_both_executors() {
    use blend_obs::AttrValue;
    use blend_parallel::Interrupt;

    let engine = sc_engine();
    let sql = "SELECT TableId AS t, COUNT(DISTINCT CellValue) AS score FROM AllTables \
               WHERE CellValue IN ('w0','w1','w2','w3') GROUP BY TableId, ColumnId \
               ORDER BY score DESC LIMIT 4";
    let (want, reference) = engine.execute_reference(sql).expect("SC query");
    assert!(
        reference.profile.is_none(),
        "the reference records no profile"
    );
    for columnar in [false, true] {
        let (rows, report) = if columnar {
            let (cols, report) = engine
                .execute_columns_interruptible(sql, Interrupt::never())
                .expect("SC query");
            (cols.to_result_set(), report)
        } else {
            engine.execute_with_report(sql).expect("SC query")
        };
        assert_eq!(rows, want);
        assert_eq!((report.path.as_str(), rows.len()), ("positional", 4));
        let profile = report.profile.expect("profile collected");
        let child = |span: &str| {
            let found = profile.root.children.iter().find(|c| c.name == span);
            found.unwrap_or_else(|| {
                panic!(
                    "columnar={columnar}: no `{span}` under query:\n{}",
                    profile.render()
                )
            })
        };
        let u64_attr = |span: &str, key: &str| match child(span).attr(key) {
            Some(AttrValue::U64(v)) => *v,
            other => panic!("columnar={columnar}: {span}.{key} = {other:?}"),
        };
        // Six tables hold a 'w' value in column 0 only: six groups.
        assert_eq!(u64_attr("sort", "rows_in"), 6);
        assert_eq!(u64_attr("sort", "k"), 4);
        assert_eq!(u64_attr("sort", "selected"), 4);
        // The score leads ORDER BY: a counting threshold picks the
        // groups the comparator ranks.
        let path = child("sort").attr("path").map(ToString::to_string);
        assert_eq!(path.as_deref(), Some("threshold"));
        let candidates = u64_attr("sort", "candidates");
        assert!((4..=6).contains(&candidates), "candidates {candidates}");
        assert_eq!(u64_attr("project", "rows"), 4, "columnar={columnar}");
        let built = if columnar { 0 } else { 4 };
        assert_eq!(
            u64_attr("materialize", "rows"),
            built,
            "columnar={columnar}"
        );
        // Selection is not part of `group`: it is a sibling, after it,
        // and building rows comes last.
        let names: Vec<&str> = profile
            .root
            .children
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        let at = |span: &str| names.iter().position(|n| *n == span);
        assert!(at("group") < at("sort"), "columnar={columnar}: {names:?}");
        assert_eq!(
            at("materialize"),
            Some(names.len() - 1),
            "columnar={columnar}: {names:?}"
        );
    }

    // A hash-path `COUNT(*)` whose counts spread wider (34 against 72) than
    // its two groups: no histogram, the comparator ranks every group.
    let wide = "SELECT ColumnId AS c, COUNT(*) AS n FROM AllTables \
                WHERE CellValue IN ('w0','0','1','2') GROUP BY ColumnId \
                ORDER BY n DESC LIMIT 1";
    let (rs, report) = engine.execute_with_report(wide).expect("hash-path group");
    assert_eq!(rs.i64(0, "n"), Some(72));
    let profile = report.profile.expect("profile collected");
    let group = profile.find("group").and_then(|g| g.attr("path"));
    assert_eq!(group.map(ToString::to_string).as_deref(), Some("hash"));
    let sort = profile.find("sort").expect("sort span");
    let attr = |key: &str| sort.attr(key).map(ToString::to_string);
    assert_eq!(attr("path").as_deref(), Some("compare"));
    assert_eq!(attr("rows_in").as_deref(), Some("2"));
    assert_eq!(attr("candidates"), attr("rows_in"));
}

/// The `group` span says which grouping path ran. The SC shape counts off
/// the column index: `path=columns`, one entry per (value, table) here
/// (each value sits in column 0 of every table), one group per table, no
/// hash table and no scan span. A `COUNT(*)` group takes the hash path, and its
/// key gathers and packing run inside the `group` span, not as the query's
/// own time.
#[test]
fn group_span_names_its_path_runs_and_groups() {
    use blend_obs::AttrValue;

    let engine = sc_engine();
    let attr = |node: &blend_obs::ProfileNode, key: &str| match node.attr(key) {
        Some(AttrValue::U64(v)) => v.to_string(),
        Some(AttrValue::Str(s)) => s.clone(),
        other => panic!("group.{key} = {other:?}"),
    };
    let sc = "SELECT TableId AS t, COUNT(DISTINCT CellValue) AS score FROM AllTables \
              WHERE CellValue IN ('w0','w1','w2','w3') GROUP BY TableId, ColumnId \
              ORDER BY score DESC LIMIT 4";
    let (_, report) = engine.execute_with_report(sc).expect("SC query");
    let profile = report.profile.expect("profile collected");
    let group = profile.find("group").expect("group span");
    assert_eq!(attr(group, "path"), "columns");
    assert_eq!(attr(group, "rows"), "24");
    assert_eq!(attr(group, "groups"), "6");
    assert!(report.hash_tables.is_empty(), "{:?}", report.hash_tables);
    assert!(
        profile.find_prefix("scan:").is_none(),
        "{}",
        profile.render()
    );

    // 240 000 rows through the hash path: the query's own time (planning,
    // dispatch) stays a sliver of the group span once the gathers and the
    // key packing are inside it. Best of three runs against a 10x margin.
    let mut rows = Vec::new();
    for t in 0..6u32 {
        for r in 0..20_000u32 {
            let sk = ((t as u128) << 64) | r as u128;
            rows.push(FactRow::new(&format!("w{}", r % 7), t, 0, r, sk, None));
            rows.push(FactRow::new(&(r % 10).to_string(), t, 1, r, sk, None));
        }
    }
    let big = SqlEngine::with_alltables(build_engine(EngineKind::Column, rows))
        .with_parallel(Arc::new(ParallelCtx::sequential()));
    let hash = "SELECT TableId, ColumnId, COUNT(*) AS n FROM AllTables GROUP BY TableId, ColumnId";
    let best = (0..3)
        .map(|_| {
            let (_, report) = big.execute_with_report(hash).expect("hash-path group");
            let profile = report.profile.expect("profile collected");
            let group = profile.find("group").expect("group span");
            assert_eq!(attr(group, "path"), "hash");
            assert_eq!(attr(group, "rows"), "240000");
            assert_eq!(attr(group, "groups"), "12");
            assert!(report.hash_tables.iter().any(|h| h.phase == "group"));
            let children: u64 = profile.root.children.iter().map(|c| c.nanos).sum();
            let own = profile.root.nanos.saturating_sub(children);
            own as f64 / group.nanos as f64
        })
        .fold(f64::INFINITY, f64::min);
    assert!(best < 0.1, "query self time is {best:.3} of the group span");
}

/// The application phases of MC and C are a `postprocess` span under their
/// `seeker:` span, carrying what went in and what the filter and the
/// validation kept; neither seeker runs SQL (their operators read the
/// index).
#[test]
fn mc_and_c_postprocess_are_spans_under_their_seeker() {
    use blend::{Blend, Plan, Seeker};
    use blend_obs::AttrValue;

    let mut rows = Vec::new();
    for t in 0..5u32 {
        for r in 0..12u32 {
            let sk = blend_index::xash::row_superkey(["lead", "team"]);
            rows.push(FactRow::new("lead", t, 0, r, sk, None));
            rows.push(FactRow::new("team", t, 1, r, sk, None));
            rows.push(FactRow::new(&r.to_string(), t, 2, r, sk, Some(r >= 6)));
        }
    }
    let blend = Blend::new(build_engine(EngineKind::Column, rows));
    let mut plan = Plan::new();
    let mc = Seeker::mc(vec![vec!["lead".into(), "team".into()]]);
    plan.add_seeker("mc", mc, 10).unwrap();
    let keys = vec!["lead".to_string(), "team".to_string()];
    plan.add_seeker("c", Seeker::c(keys, vec![1.0, 9.0]), 10)
        .unwrap();
    plan.add_combiner("both", blend::Combiner::Union, 10, &["mc", "c"])
        .unwrap();
    let (_, report) = blend.execute_with_report(&plan).expect("plan runs");
    let profile = report.profile.expect("profile collected");

    let u64_attr = |node: &blend_obs::ProfileNode, key: &str| match node.attr(key) {
        Some(AttrValue::U64(v)) => *v,
        other => panic!("{}.{key} = {other:?}\n{}", node.name, profile.render()),
    };
    for seeker in ["seeker:MC", "seeker:C"] {
        let span = profile.find(seeker).expect("seeker span");
        let post = span
            .find("postprocess")
            .expect("postprocess under the seeker");
        assert!(u64_attr(post, "rows_in") > 0, "{seeker}");
        assert!(
            u64_attr(post, "candidates") >= u64_attr(post, "validated"),
            "{seeker}"
        );
        assert!(span.find("query").is_none(), "{}", profile.render());
    }
    // MC: 60 lake rows, each holding the query row once in distinct
    // columns. C: per table, the key columns 0 and 1 each pair with the
    // numeric column 2 on 12 rows, so 10 groups, all supported, in 5 tables.
    for (seeker, want) in [("seeker:MC", [60, 60, 60]), ("seeker:C", [10, 10, 5])] {
        let post = profile
            .find(seeker)
            .and_then(|s| s.find("postprocess"))
            .unwrap();
        let got = ["rows_in", "candidates", "validated"].map(|key| u64_attr(post, key));
        assert_eq!(got, want, "{seeker}");
    }
}
