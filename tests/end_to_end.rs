//! Full-pipeline integration tests: lake generation → offline indexing →
//! BLEND plans → results, across both storage engines.

use blend::{tasks, Blend, Combiner, Plan, Seeker};
use blend_common::TableId;
use blend_lake::web::{generate, WebLakeConfig};
use blend_lake::{ground_truth, workloads};
use blend_storage::EngineKind;

fn test_lake() -> blend_lake::DataLake {
    generate(&WebLakeConfig {
        name: "e2e".into(),
        n_tables: 60,
        rows: (10, 30),
        cols: (3, 5),
        vocab: 400,
        zipf_s: 1.0,
        numeric_col_ratio: 0.3,
        null_ratio: 0.02,
        seed: 1234,
    })
}

#[test]
fn sc_seeker_matches_exact_ground_truth_on_both_engines() {
    let lake = test_lake();
    for kind in [EngineKind::Row, EngineKind::Column] {
        let system = Blend::from_lake(&lake, kind);
        for (_, queries) in workloads::sc_queries(&lake, &[10, 40], 3, 7) {
            for q in queries {
                let mut plan = Plan::new();
                plan.add_seeker("sc", Seeker::sc(q.clone()), 10).unwrap();
                let hits = system.execute(&plan).unwrap();
                let gt = ground_truth::exact_sc_topk(&lake, &q, 10);
                assert_eq!(
                    hits.iter().map(|h| h.score as usize).collect::<Vec<_>>(),
                    gt.iter().map(|(_, o)| *o).collect::<Vec<_>>(),
                    "overlap sequence diverged from oracle ({kind:?})"
                );
                assert_eq!(
                    hits.iter().map(|h| h.table).collect::<Vec<_>>(),
                    gt.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
                );
            }
        }
    }
}

#[test]
fn kw_seeker_matches_exact_ground_truth() {
    let lake = test_lake();
    let system = Blend::from_lake(&lake, EngineKind::Column);
    for q in workloads::kw_queries(&lake, 4, 8, 11) {
        let mut plan = Plan::new();
        plan.add_seeker("kw", Seeker::kw(q.clone()), 10).unwrap();
        let hits = system.execute(&plan).unwrap();
        let gt = ground_truth::exact_kw_topk(&lake, &q, 10);
        assert_eq!(
            hits.iter()
                .map(|h| (h.table, h.score as usize))
                .collect::<Vec<_>>(),
            gt,
        );
    }
}

#[test]
fn mc_seeker_counts_match_exact_join_ground_truth() {
    let lake = test_lake();
    let system = Blend::from_lake(&lake, EngineKind::Column);
    for q in workloads::mc_queries(&lake, 5, 2, 5, 13) {
        let mut plan = Plan::new();
        plan.add_seeker("mc", Seeker::mc(q.rows.clone()), usize::MAX)
            .unwrap();
        let hits = system.execute(&plan).unwrap();
        let gt = ground_truth::exact_mc_join_counts(&lake, &q.rows);
        // Every reported table/count must be exactly right.
        for h in &hits {
            assert_eq!(
                gt.get(&h.table).copied().unwrap_or(0),
                h.score as usize,
                "joinable-row count wrong for {:?}",
                h.table
            );
        }
        // And no joinable table may be missed (bloom filters cannot create
        // false negatives).
        for t in gt.keys() {
            assert!(hits.iter().any(|h| h.table == *t), "missed {t:?}");
        }
    }
}

#[test]
fn correlation_seeker_recovers_planted_correlations() {
    let bench = blend_lake::corr_bench::generate(&blend_lake::CorrBenchConfig {
        name: "e2e-corr".into(),
        n_queries: 3,
        correlated_per_query: 8,
        rows: (60, 120),
        key_domain: 100,
        fraction_numeric_keys: 0.0,
        corr_levels: vec![0.95, 0.7, 0.4],
        noise_columns: 1,
        noise_tables: 8,
        seed: 55,
    });
    let system = Blend::from_lake(&bench.lake, EngineKind::Column);
    for q in &bench.queries {
        let mut plan = Plan::new();
        plan.add_seeker("c", Seeker::c(q.keys.clone(), q.target.clone()), 8)
            .unwrap();
        let hits = system.execute(&plan).unwrap();
        let gt: std::collections::HashSet<TableId> =
            blend_lake::corr_bench::exact_topk_tables(&bench.lake, q, 8, 5)
                .into_iter()
                .map(|(t, _)| t)
                .collect();
        let hit_count = hits.iter().filter(|h| gt.contains(&h.table)).count();
        assert!(
            hit_count * 2 >= gt.len().min(8),
            "too few ground-truth tables recovered: {hit_count}/{}",
            gt.len()
        );
        // Scores are valid QCR magnitudes.
        for h in &hits {
            assert!((0.0..=1.0).contains(&h.score));
        }
    }
}

#[test]
fn union_search_plan_finds_cluster_mates() {
    let bench = blend_lake::union_bench::generate(&blend_lake::UnionBenchConfig {
        name: "e2e-union".into(),
        n_clusters: 4,
        tables_per_cluster: 6,
        rows: (10, 25),
        cols: 3,
        domain_size: 60,
        overlap: 0.6,
        confusable_pairs: 0,
        noise_tables: 10,
        seed: 77,
    });
    let system = Blend::from_lake(&bench.lake, EngineKind::Column);
    for q in &bench.queries {
        let plan = tasks::union_search(bench.lake.table(*q), 5, 60).unwrap();
        let hits = system.execute(&plan).unwrap();
        let gt = &bench.ground_truth[q];
        let good = hits
            .iter()
            .filter(|h| h.table != *q)
            .filter(|h| gt.contains(&h.table))
            .count();
        assert!(good >= 3, "union plan precision collapsed: {good}/5");
    }
}

#[test]
fn row_and_column_engines_agree_on_all_seekers() {
    let lake = test_lake();
    let row = Blend::from_lake(&lake, EngineKind::Row);
    let col = Blend::from_lake(&lake, EngineKind::Column);
    let mc = workloads::mc_queries(&lake, 1, 2, 4, 3).remove(0);
    let sc = workloads::sc_queries(&lake, &[15], 1, 4)
        .remove(0)
        .1
        .remove(0);

    let mut plan = Plan::new();
    plan.add_seeker("mc", Seeker::mc(mc.rows), 10).unwrap();
    plan.add_seeker("sc", Seeker::sc(sc), 10).unwrap();
    plan.add_combiner("both", Combiner::Union, 20, &["mc", "sc"])
        .unwrap();

    let a = row.execute(&plan).unwrap();
    let b = col.execute(&plan).unwrap();
    assert_eq!(
        a.iter().map(|h| h.table).collect::<Vec<_>>(),
        b.iter().map(|h| h.table).collect::<Vec<_>>()
    );
}

#[test]
fn shuffled_index_preserves_seeker_semantics() {
    // BLEND (rand) shuffles row order; overlap-based results must not
    // change (only RowId-sampled correlation differs).
    let lake = test_lake();
    let plain = Blend::from_lake(&lake, EngineKind::Column);
    let shuffled = Blend::from_lake_shuffled(&lake, EngineKind::Column, 99);
    let q = workloads::sc_queries(&lake, &[20], 1, 5)
        .remove(0)
        .1
        .remove(0);
    let mut plan = Plan::new();
    plan.add_seeker("sc", Seeker::sc(q), 10).unwrap();
    let a = plain.execute(&plan).unwrap();
    let b = shuffled.execute(&plan).unwrap();
    assert_eq!(
        a.iter()
            .map(|h| (h.table, h.score as i64))
            .collect::<Vec<_>>(),
        b.iter()
            .map(|h| (h.table, h.score as i64))
            .collect::<Vec<_>>()
    );
}

/// `Blend::execute` renders no SQL text and builds no report, yet returns
/// what `execute_with_report` returns; the report carries each seeker's
/// text: its template with the injected fragment, or `""` where an empty
/// intersection short-circuited it. The five `tasks` plans, both stores,
/// the optimizer on and off.
#[test]
fn execute_returns_the_reported_hits_and_the_report_carries_each_seekers_text() {
    use blend::plan::Node;
    use blend::seekers::{seeker_sql, Injected, TID_PLACEHOLDER};

    let lake = test_lake();
    let qt = &lake.tables[3];
    let norm_col = |c: usize| -> Vec<String> {
        (qt.columns[c].values.iter())
            .filter_map(|v| v.normalized().map(|n| n.into_owned()))
            .collect()
    };
    let pair_rows = |t: &blend_common::Table| -> Vec<Vec<String>> {
        (0..t.n_rows().min(6))
            .map(|r| {
                (t.row(r).take(2))
                    .filter_map(|v| v.normalized().map(|n| n.into_owned()))
                    .collect::<Vec<String>>()
            })
            .filter(|r| r.len() == 2)
            .collect()
    };
    let keys = norm_col(0);
    let target: Vec<f64> = (0..keys.len()).map(|i| i as f64).collect();
    let f1: Vec<f64> = target.iter().map(|t| t * 0.9 + 0.1).collect();
    let f2: Vec<f64> = (0..keys.len()).map(|i| ((i * 7) % 5) as f64).collect();
    let imputation = workloads::imputation_workload(&lake, 1, 5, 21).remove(0);
    let keywords: Vec<String> = keys.iter().take(5).cloned().collect();
    let plans = [
        tasks::union_search(qt, 10, 60),
        tasks::imputation(&imputation.examples, &imputation.queries, 10),
        tasks::negative_examples(&pair_rows(qt), &pair_rows(&lake.tables[7]), 10),
        tasks::feature_discovery(&keys, &target, &[f1, f2], 10),
        tasks::multi_objective(&keywords, qt, &keys, &target, 10, 60),
    ]
    .map(|p| p.unwrap());

    let (mut texts, mut injected) = (0, 0);
    for kind in [EngineKind::Row, EngineKind::Column] {
        let mut system = Blend::from_lake(&lake, kind);
        for optimize in [true, false] {
            system.set_optimize(optimize);
            for (i, plan) in plans.iter().enumerate() {
                let what = format!("plan {i} {kind:?} optimize={optimize}");
                let hits = system.execute(plan).unwrap();
                let (reported, report) = system.execute_with_report(plan).unwrap();
                assert_eq!(hits, reported, "{what}");
                for op in &report.ops {
                    let Some(Node::Seeker { seeker, k }) = plan.node(&op.id) else {
                        assert_eq!(op.sql, None, "{what}: {}", op.id);
                        continue;
                    };
                    let sql = op.sql.as_deref().unwrap();
                    if sql.is_empty() {
                        assert!(op.injected && op.n_results == 0, "{what}: {}", op.id);
                        continue;
                    }
                    // The fragment sits where the template has the
                    // placeholder; it must be what `Injected` renders.
                    let template = seeker_sql(seeker, *k, system.options().h);
                    let (head, tail) = template.split_once(TID_PLACEHOLDER).unwrap();
                    let fragment = (sql.strip_prefix(head))
                        .and_then(|s| s.strip_suffix(tail))
                        .unwrap_or_else(|| panic!("{what}: {sql}"));
                    let ids = |list: &str| -> Vec<u32> {
                        let list = list.strip_suffix(')').unwrap();
                        list.split(',').map(|t| t.parse().unwrap()).collect()
                    };
                    let inject = if let Some(l) = fragment.strip_prefix("AND TableId IN (") {
                        Some(Injected::In(ids(l)))
                    } else if let Some(l) = fragment.strip_prefix("AND TableId NOT IN (") {
                        Some(Injected::NotIn(ids(l)))
                    } else {
                        assert_eq!(fragment, "", "{what}: {}", op.id);
                        None
                    };
                    let fragment = inject.as_ref().map_or(String::new(), Injected::fragment);
                    assert_eq!(sql, template.replace(TID_PLACEHOLDER, &fragment), "{what}");
                    // An empty `NotIn` renders no fragment.
                    assert!(op.injected || inject.is_none(), "{what}: {}", op.id);
                    texts += 1;
                    injected += usize::from(inject.is_some());
                }
            }
        }
    }
    assert!(
        texts > 40 && injected > 4,
        "{texts} texts, {injected} injected"
    );
}
