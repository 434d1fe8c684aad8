//! SC and KW seeker truth: the hits `Blend::execute` returns for a
//! single-column join (paper Listing 1) and for a keyword search (the same
//! query grouped by table) are what a brute-force reading of the lake gives
//! (`blend_lake::ground_truth::{exact_sc_topk, exact_kw_topk}`), on every
//! engine and SIMD dispatch — and so are the hits under the
//! optimizer's injected `TableId IN` / `NOT IN` fragments, the truth
//! restricted to the tables the fragment keeps.
//!
//! On the column store both seekers count distinct query values per group
//! off its value → column index (`exec_positional`'s *Column-index
//! grouping*); on the row store the hash path counts them over the value
//! index's postings. So the lakes are built to make that count matter: a
//! small vocabulary repeats values across the rows and columns of a table
//! (a value is counted once per group however often it occurs), every
//! query carries values no table holds and a duplicated literal (neither
//! may count), and half the cases index the lake with sparse `ColumnId`s
//! (the index numbers runs, not column ids). One injected `IN` set keeps
//! no table with a hit.
//!
//! Truth breaks score ties by table id, BLEND by first-seen row, so the
//! comparison is the score list plus every returned table's exact overlap
//! — which pins the ranking without pinning the tie order.

use std::collections::HashMap;
use std::sync::Arc;

use blend::seekers::{self, Injected};
use blend::{Blend, Interrupt, Plan, Seeker};
use blend_common::TableId;
use blend_lake::ground_truth::{exact_kw_topk, exact_sc_topk};
use blend_lake::web::{generate, WebLakeConfig};
use blend_lake::DataLake;
use blend_parallel::ParallelCtx;
use blend_storage::{build_engine, EngineKind};
use proptest::prelude::*;

/// Resets the process-global SIMD override when a case ends, pass or fail.
struct ForceScope;

impl Drop for ForceScope {
    fn drop(&mut self) {
        blend_simd::force(None);
    }
}

/// Up to `n` distinct values read off the lake's cells, starting at table
/// `pick` and walking its columns; then two values no table holds and the
/// first value again.
fn query_values(lake: &DataLake, n: usize, pick: usize) -> Vec<String> {
    let mut values: Vec<String> = Vec::new();
    let tables = lake.tables.len();
    let cells = (0..tables)
        .map(|i| &lake.tables[(pick + i) % tables])
        .flat_map(|t| t.columns.iter())
        .flat_map(|c| c.values.iter().skip(pick % 3).step_by(2))
        .filter_map(|v| v.normalized());
    for v in cells {
        if values.len() == n {
            break;
        }
        if !values.iter().any(|have| *have == *v) {
            values.push(v.into_owned());
        }
    }
    let duplicate = values.first().cloned();
    values.extend(["absent-0".to_string(), "absent-1".to_string()]);
    values.extend(duplicate);
    values
}

/// Every table's exact overlap: the truth ranking with no cut.
fn overlaps(ranked: &[(TableId, usize)]) -> HashMap<TableId, usize> {
    ranked.iter().copied().collect()
}

/// The lake's index on `kind`; with `sparse`, every `ColumnId` spread to
/// `1000 c + t mod 7` — still ascending within a table, far from dense.
fn index(lake: &DataLake, kind: EngineKind, sparse: bool) -> Blend {
    let mut rows = blend_index::IndexBuilder::new().index_lake(&lake.tables);
    if sparse {
        for r in &mut rows {
            r.column = r.column * 1_000 + r.table % 7;
        }
    }
    Blend::new(build_engine(kind, rows))
}

/// The fragments to inject, given the truth ranking: none; `IN` every
/// other hit table plus a table without hits; `NOT IN` the best third of
/// the hit tables; and `IN` only tables without hits (and an id past the
/// lake).
fn injections(lake: &DataLake, truth: &[(TableId, usize)]) -> Vec<Option<Injected>> {
    let hit: Vec<u32> = truth.iter().map(|(t, _)| t.0).collect();
    let missed: Vec<u32> = lake
        .tables
        .iter()
        .map(|t| t.id.0)
        .filter(|t| !hit.contains(t))
        .collect();
    let past = lake.tables.iter().map(|t| t.id.0 + 1).max().unwrap_or(0);
    let every_other = hit.iter().step_by(2).chain(missed.first()).copied();
    vec![
        None,
        Some(Injected::In(every_other.collect())),
        Some(Injected::NotIn(hit[..hit.len().div_ceil(3)].to_vec())),
        Some(Injected::In(missed.into_iter().chain([past]).collect())),
    ]
}

fn keeps(injected: &Option<Injected>, table: TableId) -> bool {
    match injected {
        None => true,
        Some(Injected::In(ids)) => ids.contains(&table.0),
        Some(Injected::NotIn(ids)) => !ids.contains(&table.0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sc_and_kw_hits_equal_the_brute_force_overlaps(
        seed in any::<u64>(),
        n_tables in 6usize..24,
        vocab in 5usize..20,
        n_values in 1usize..24,
        k in 1usize..12,
        pick in 0usize..64,
        sparse in any::<bool>(),
    ) {
        let _scope = ForceScope;
        // At most four columns a table: SC over-fetches 4k + 8 (table,
        // column) groups, which then always span more than k tables.
        let lake = generate(&WebLakeConfig {
            name: "sc-kw-truth".into(),
            n_tables,
            rows: (3, 14),
            cols: (2, 4),
            vocab,
            zipf_s: 0.7,
            numeric_col_ratio: 0.15,
            null_ratio: 0.05,
            seed,
        });
        let values = query_values(&lake, n_values, pick);
        let all = lake.tables.len();
        let cases = [
            ("sc", Seeker::sc(values.clone()), exact_sc_topk(&lake, &values, all)),
            ("kw", Seeker::kw(values.clone()), exact_kw_topk(&lake, &values, all)),
        ];
        for (label, seeker, truth) in cases {
            prop_assert!(!truth.is_empty(), "{}: query values come from the lake", label);
            let exact = overlaps(&truth);
            let mut plan = Plan::new();
            plan.add_seeker(label, seeker.clone(), k).unwrap();
            let fragments = injections(&lake, &truth);
            for kind in [EngineKind::Row, EngineKind::Column] {
                let mut blend = index(&lake, kind, sparse);
                for vector in [false, true] {
                    blend_simd::force(Some(vector));
                        // Chunks of 5 rows: every loop crosses chunk
                        // boundaries.
                        blend.set_parallel(Arc::new(ParallelCtx::with_tuning(1, 5)));
                        for injected in &fragments {
                            let hits = match injected {
                                None => blend.execute(&plan).unwrap(),
                                Some(fragment) => {
                                    seekers::run(&blend, &seeker, k, Some(fragment), &Interrupt::never())
                                        .unwrap()
                                        .hits
                                }
                            };
                            let want: Vec<usize> = truth
                                .iter()
                                .filter(|(t, _)| keeps(injected, *t))
                                .take(k)
                                .map(|&(_, o)| o)
                                .collect();
                            let got: Vec<usize> = hits.iter().map(|h| h.score as usize).collect();
                            prop_assert_eq!(
                                &got, &want,
                                "{}/{:?}/vector={}/sparse={}/{:?}: {:?}",
                                label, kind, vector, sparse, injected, values
                            );
                            for h in &hits {
                                prop_assert!(keeps(injected, h.table), "{:?}: {:?}", injected, h.table);
                                prop_assert_eq!(
                                    exact.get(&h.table).copied(),
                                    Some(h.score as usize),
                                    "{}/{:?}/vector={}/sparse={}: overlap of {:?}",
                                    label, kind, vector, sparse, h.table
                                );
                            }
                        }
                }
            }
        }
    }
}
