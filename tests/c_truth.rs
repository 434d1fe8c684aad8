//! C seeker truth: the hits `Blend::execute` returns for a correlation
//! seeker (paper Listing 3, the QCR over quadrant bits) are what a
//! brute-force reading of the lake gives
//! (`blend_lake::ground_truth::exact_c_topk`), on both engines.
//!
//! The lakes mix categorical and numeric columns over a small vocabulary,
//! so key values repeat across rows and tables; the sample size `h` cuts
//! tables short, `corr_min_matches` drops thin (key, numeric) column pairs,
//! and every query carries a key no table holds.
//!
//! Truth and BLEND both break score ties by table id, so the comparison is
//! the (table, score) list itself.

use std::sync::Arc;

use blend::{Blend, BlendOptions, Plan, Seeker};
use blend_lake::ground_truth::exact_c_topk;
use blend_lake::web::{generate, WebLakeConfig};
use blend_lake::DataLake;
use blend_parallel::ParallelCtx;
use blend_storage::EngineKind;
use proptest::prelude::*;

/// Up to `n` distinct categorical values read off the lake, starting at
/// table `pick`; then one value no table holds.
fn query_keys(lake: &DataLake, n: usize, pick: usize) -> Vec<String> {
    let mut keys: Vec<String> = Vec::new();
    let tables = lake.tables.len();
    let cells = (0..tables)
        .map(|i| &lake.tables[(pick + i) % tables])
        .flat_map(|t| t.columns.iter())
        .flat_map(|c| c.values.iter().skip(pick % 2))
        .filter(|v| v.as_f64().is_none())
        .filter_map(|v| v.normalized());
    for v in cells {
        if keys.len() == n {
            break;
        }
        if !keys.iter().any(|have| *have == *v) {
            keys.push(v.into_owned());
        }
    }
    keys.push("absent-key".to_string());
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn c_hits_equal_the_brute_force_qcr(
        seed in any::<u64>(),
        n_tables in 4usize..16,
        vocab in 4usize..12,
        n_keys in 2usize..10,
        targets in proptest::collection::vec(-50.0f64..50.0, 10),
        h in 2usize..16,
        min_matches in 0usize..4,
        k in 1usize..8,
        pick in 0usize..32,
    ) {
        let lake = generate(&WebLakeConfig {
            name: "c-truth".into(),
            n_tables,
            rows: (3, 20),
            cols: (2, 5),
            vocab,
            zipf_s: 0.7,
            numeric_col_ratio: 0.5,
            null_ratio: 0.05,
            seed,
        });
        let keys = query_keys(&lake, n_keys, pick);
        let target = targets[..keys.len()].to_vec();
        let want = exact_c_topk(&lake, &keys, &target, h, min_matches, k);
        prop_assume!(!want.is_empty());
        let mut plan = Plan::new();
        plan.add_seeker("c", Seeker::c(keys.clone(), target.clone()), k).unwrap();
        let options = BlendOptions {
            h,
            corr_min_matches: min_matches,
            ..BlendOptions::default()
        };
        for kind in [EngineKind::Row, EngineKind::Column] {
            let fact = blend_index::IndexBuilder::new().build(&lake.tables, kind);
            let mut blend = Blend::with_options(fact, options.clone());
                // Chunks of 5 rows: every loop crosses chunk boundaries.
                blend.set_parallel(Arc::new(ParallelCtx::with_tuning(1, 5)));
                let hits = blend.execute(&plan).unwrap();
                let got: Vec<_> = hits.iter().map(|h| (h.table, h.score)).collect();
                prop_assert_eq!(
                    &got, &want,
                    "{:?}: keys {:?}, target {:?}, h {}, min {}",
                    kind, keys, target, h, min_matches
                );
        }
    }
}
