//! Edge cases of the plan API and executor: degenerate inputs, deep DAGs,
//! k-limits, and rewriting corner cases.

use blend::{tasks, Blend, Combiner, Plan, Seeker};
use blend_common::{Column, Table, TableId, Value};
use blend_lake::DataLake;
use blend_sql::SqlEngine;
use blend_storage::{build_engine, EngineKind, FactRow};

fn small_lake() -> DataLake {
    let mk = |id: u32, vals: Vec<&str>, nums: Vec<i64>| {
        Table::new(
            TableId(id),
            format!("t{id}"),
            vec![
                Column::new("k", vals.into_iter().map(Value::from).collect::<Vec<_>>()),
                Column::new("n", nums.into_iter().map(Value::from).collect::<Vec<_>>()),
            ],
        )
        .unwrap()
    };
    DataLake::new(
        "edge",
        vec![
            mk(0, vec!["a", "b", "c", "d"], vec![1, 2, 3, 4]),
            mk(1, vec!["a", "b", "x", "y"], vec![4, 3, 2, 1]),
            mk(2, vec!["p", "q", "r", "s"], vec![9, 9, 9, 1]),
            mk(3, vec!["a", "q", "c", "y"], vec![2, 4, 6, 8]),
        ],
    )
}

fn system() -> Blend {
    Blend::from_lake(&small_lake(), EngineKind::Column)
}

#[test]
fn seeker_with_only_unknown_values_returns_empty() {
    let s = system();
    let mut p = Plan::new();
    p.add_seeker("sc", Seeker::sc(vec!["zzz".into(), "yyy".into()]), 5)
        .unwrap();
    assert!(s.execute(&p).unwrap().is_empty());
}

#[test]
fn k_one_returns_single_best() {
    let s = system();
    let mut p = Plan::new();
    p.add_seeker(
        "sc",
        Seeker::sc(vec!["a".into(), "b".into(), "c".into()]),
        1,
    )
    .unwrap();
    let hits = s.execute(&p).unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].table, TableId(0)); // overlap 3
    assert_eq!(hits[0].score, 3.0);
}

#[test]
fn difference_of_everything_is_empty() {
    let s = system();
    let mut p = Plan::new();
    let q = vec!["a".into(), "b".into()];
    p.add_seeker("x", Seeker::sc(q.clone()), 10).unwrap();
    p.add_seeker("y", Seeker::sc(q), 10).unwrap();
    p.add_combiner("d", Combiner::Difference, 10, &["x", "y"])
        .unwrap();
    assert!(s.execute(&p).unwrap().is_empty());
}

#[test]
fn deep_combiner_chain_executes() {
    // ((x ∩ y) ∪ z) \ w — four levels, mixed combiners.
    let s = system();
    let mut p = Plan::new();
    p.add_seeker("x", Seeker::sc(vec!["a".into()]), 10).unwrap(); // 0,1,3
    p.add_seeker("y", Seeker::sc(vec!["c".into()]), 10).unwrap(); // 0,3
    p.add_seeker("z", Seeker::sc(vec!["p".into()]), 10).unwrap(); // 2
    p.add_seeker("w", Seeker::sc(vec!["d".into()]), 10).unwrap(); // 0
    p.add_combiner("i", Combiner::Intersect, 10, &["x", "y"])
        .unwrap();
    p.add_combiner("u", Combiner::Union, 10, &["i", "z"])
        .unwrap();
    p.add_combiner("d", Combiner::Difference, 10, &["u", "w"])
        .unwrap();
    let ids: std::collections::BTreeSet<u32> =
        s.execute(&p).unwrap().iter().map(|h| h.table.0).collect();
    // (({0,1,3} ∩ {0,3}) ∪ {2}) \ {0} = {2, 3}.
    assert_eq!(ids, [2u32, 3].into_iter().collect());
}

#[test]
fn counter_over_single_input_is_identity_set() {
    let s = system();
    let mut p = Plan::new();
    p.add_seeker("x", Seeker::sc(vec!["a".into()]), 10).unwrap();
    p.add_combiner("c", Combiner::Counter, 10, &["x"]).unwrap();
    let hits = s.execute(&p).unwrap();
    assert_eq!(hits.len(), 3);
    assert!(hits.iter().all(|h| h.score == 1.0));
}

#[test]
fn mc_seeker_scores_count_joinable_rows() {
    let s = system();
    let mut p = Plan::new();
    p.add_seeker(
        "mc",
        Seeker::mc(vec![
            vec!["a".into(), "1".into()],
            vec!["b".into(), "2".into()],
        ]),
        10,
    )
    .unwrap();
    let hits = s.execute(&p).unwrap();
    // Table 0 rows (a,1) and (b,2) align exactly.
    assert_eq!(hits[0].table, TableId(0));
    assert_eq!(hits[0].score, 2.0);
}

#[test]
fn correlation_prefers_strong_negative_too() {
    // |QCR| ranks inverse correlation as strongly as positive.
    let s = system();
    let mut p = Plan::new();
    p.add_seeker(
        "c",
        Seeker::c(
            vec!["a".into(), "b".into(), "x".into(), "y".into()],
            vec![4.0, 3.0, 2.0, 1.0], // matches table 1's n inverted order
        ),
        2,
    )
    .unwrap();
    let hits = s.execute(&p).unwrap();
    assert!(!hits.is_empty());
    assert_eq!(hits[0].table, TableId(1));
    assert!(hits[0].score >= 0.9, "|QCR| {}", hits[0].score);
}

#[test]
fn union_search_task_on_tiny_table() {
    let lake = small_lake();
    let s = Blend::from_lake(&lake, EngineKind::Column);
    let plan = tasks::union_search(lake.table(TableId(0)), 3, 10).unwrap();
    let hits = s.execute(&plan).unwrap();
    // Table 0 must rank first (it matches itself on both columns).
    assert_eq!(hits[0].table, TableId(0));
    assert_eq!(hits[0].score, 2.0);
}

#[test]
fn reports_are_complete_and_ordered() {
    let s = system();
    let mut p = Plan::new();
    p.add_seeker("x", Seeker::sc(vec!["a".into()]), 10).unwrap();
    p.add_seeker("y", Seeker::sc(vec!["c".into()]), 10).unwrap();
    p.add_combiner("i", Combiner::Intersect, 10, &["x", "y"])
        .unwrap();
    let (_, report) = s.execute_with_report(&p).unwrap();
    // Two seekers + one combiner, combiner last.
    assert_eq!(report.ops.len(), 3);
    assert_eq!(report.ops.last().unwrap().id, "i");
    assert!(report.total >= report.ops.iter().map(|o| o.runtime).sum());
    // Seeker SQL is recorded for reproducibility.
    for op in &report.ops[..2] {
        assert!(op.sql.as_deref().unwrap().contains("SELECT"));
    }
}

#[test]
fn same_plan_is_deterministic_across_runs() {
    let s = system();
    let mut p = Plan::new();
    p.add_seeker(
        "x",
        Seeker::sc(vec!["a".into(), "c".into(), "q".into()]),
        10,
    )
    .unwrap();
    p.add_seeker("y", Seeker::kw(vec!["a".into(), "q".into()]), 10)
        .unwrap();
    p.add_combiner("u", Combiner::Union, 10, &["x", "y"])
        .unwrap();
    let a = s.execute(&p).unwrap();
    let b = s.execute(&p).unwrap();
    assert_eq!(
        a.iter()
            .map(|h| (h.table, h.score.to_bits()))
            .collect::<Vec<_>>(),
        b.iter()
            .map(|h| (h.table, h.score.to_bits()))
            .collect::<Vec<_>>()
    );
}

#[test]
fn row_engine_handles_all_tasks_too() {
    let lake = small_lake();
    let s = Blend::from_lake(&lake, EngineKind::Row);
    let plan = tasks::imputation(
        &[("a".into(), "1".into()), ("b".into(), "2".into())],
        &["c".into(), "d".into()],
        5,
    )
    .unwrap();
    let hits = s.execute(&plan).unwrap();
    assert_eq!(hits[0].table, TableId(0));
}

/// `RowId <= 4294967295` keeps every cell, the one whose `RowId` is
/// `u32::MAX` too: the bound has no strict `u32` form, so it runs as a
/// residual, not as a `RowId <` kernel bound that would drop that cell.
#[test]
fn rowid_upper_bound_at_u32_max_keeps_every_cell() {
    let sql = "SELECT RowId AS r FROM AllTables WHERE RowId <= 4294967295";
    for kind in [EngineKind::Row, EngineKind::Column] {
        let rows = vec![
            FactRow::new("a", 0, 0, 0, 0, None),
            FactRow::new("b", 0, 0, 7, 0, None),
            FactRow::new("c", 1, 0, u32::MAX, 0, None),
        ];
        let engine = SqlEngine::with_alltables(build_engine(kind, rows));
        for rs in [
            engine.execute(sql),
            engine.execute_reference(sql).map(|r| r.0),
        ] {
            let mut ids = rs.unwrap().column_u32("r");
            ids.sort_unstable();
            assert_eq!(ids, vec![0, 7, u32::MAX], "{kind:?}");
        }
    }
}

/// A conjunct naming an alias the query does not have is a typed planning
/// error on both stores, through the positional executor and the
/// reference alike (it was pushed to the scan and filtered as if
/// unqualified). The scan's own alias still classifies into an index probe.
#[test]
fn a_conjunct_naming_an_unknown_alias_is_a_plan_error() {
    let rows: Vec<FactRow> = (0..3u32)
        .flat_map(|t| (0..2u32).map(move |r| FactRow::new("v", t, 0, r, 0, None)))
        .collect();
    for kind in [EngineKind::Row, EngineKind::Column] {
        let e = SqlEngine::with_alltables(build_engine(kind, rows.clone()));
        for sql in [
            "SELECT TableId FROM AllTables WHERE bogus.TableId = 1",
            "SELECT TableId FROM AllTables WHERE bogus.TableId + 0 = 1",
            "SELECT TableId FROM AllTables a WHERE b.TableId = 1",
            "SELECT TableId FROM (SELECT * FROM AllTables WHERE zz.TableId = 1) q",
            "SELECT TableId FROM (SELECT * FROM AllTables) q WHERE zz.TableId = 1",
        ] {
            for got in [e.execute(sql).map(drop), e.execute_reference(sql).map(drop)] {
                assert!(
                    matches!(got, Err(blend_common::BlendError::SqlPlan(_))),
                    "{kind:?}: {sql}: {got:?}"
                );
            }
        }
        let sql = "SELECT TableId FROM AllTables a WHERE a.TableId = 1";
        let (got, report) = e.execute_with_report(sql).unwrap();
        assert_eq!(report.scans[0].access, "table-index", "{kind:?}");
        assert_eq!(got.len(), 2, "{kind:?}");
        assert_eq!(got, e.execute_reference(sql).unwrap().0, "{kind:?}");
    }
}
