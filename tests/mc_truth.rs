//! MC seeker truth: the hits `Blend::execute` returns for a multi-column
//! join are what a brute-force reading of the lake gives
//! (`blend_lake::ground_truth::exact_mc_join_counts`), on every engine and
//! SIMD dispatch, and the application phase's statistics do not depend on
//! either.
//!
//! The application phase runs on dictionary ids and integer columns, so
//! the lakes are built to make ids matter: a small vocabulary repeats
//! values across the columns of a row and across query columns (the same
//! cell then matches two join sides, and only the distinct-column check
//! keeps it from validating against itself), and every query carries
//! values no table holds (absent from every dictionary).
//!
//! The ground truth reads a query row as a *set* of values, so query rows
//! here hold pairwise distinct values; rows that repeat a value, and the
//! reference executor's rows, are covered against the row-based oracle in
//! `crates/core/src/seekers.rs`, next to the private function they test.

use std::sync::Arc;

use blend::{Blend, Plan, Seeker};
use blend_lake::ground_truth::exact_mc_join_counts;
use blend_lake::web::{generate, WebLakeConfig};
use blend_lake::DataLake;
use blend_parallel::ParallelCtx;
use blend_storage::EngineKind;
use proptest::prelude::*;

const K: usize = 10;

/// Resets the process-global SIMD override when a case ends, pass or fail.
struct ForceScope;

impl Drop for ForceScope {
    fn drop(&mut self) {
        blend_simd::force(None);
    }
}

/// Query rows of `arity` distinct values each, read off the lake's own rows
/// starting at table `pick` (planted overlaps); then one row of values no
/// table holds, and one that pairs a real value with an absent one.
fn query_rows(lake: &DataLake, arity: usize, pick: usize) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = Vec::new();
    let n = lake.tables.len();
    for t in (0..n).map(|i| &lake.tables[(pick + i) % n]).take(6) {
        for r in (0..t.n_rows()).skip(pick % 3).step_by(3) {
            let mut cells: Vec<String> = Vec::new();
            for v in t.row(r).filter_map(|v| v.normalized()) {
                if !cells.iter().any(|c| *c == *v) {
                    cells.push(v.into_owned());
                }
            }
            if cells.len() >= arity {
                rows.push(cells[..arity].to_vec());
            }
        }
    }
    let absent: Vec<String> = (0..arity).map(|c| format!("absent-{c}")).collect();
    if let Some(real) = rows.first().map(|r| r[0].clone()) {
        let mut mixed = absent.clone();
        mixed[0] = real;
        rows.push(mixed);
    }
    rows.push(absent);
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn mc_hits_equal_the_brute_force_join_counts(
        seed in any::<u64>(),
        n_tables in 6usize..24,
        vocab in 5usize..20,
        arity in 2usize..4,
        pick in 0usize..64,
    ) {
        let _scope = ForceScope;
        let lake = generate(&WebLakeConfig {
            name: "mc-truth".into(),
            n_tables,
            rows: (3, 14),
            cols: (arity, arity + 2),
            vocab,
            zipf_s: 0.7,
            numeric_col_ratio: 0.15,
            null_ratio: 0.05,
            seed,
        });
        let rows = query_rows(&lake, arity, pick);
        let truth = exact_mc_join_counts(&lake, &rows);
        let joinable_rows: usize = truth.values().sum();
        prop_assert!(joinable_rows > 0, "planted rows must join: {:?}", rows);
        let mut want: Vec<usize> = truth.into_values().collect();
        want.sort_unstable_by(|a, b| b.cmp(a));
        want.truncate(K);

        let mut plan = Plan::new();
        plan.add_seeker("mc", Seeker::mc(rows.clone()), K).unwrap();
        let mut first = None;
        for kind in [EngineKind::Row, EngineKind::Column] {
            let mut blend = Blend::from_lake(&lake, kind);
            for vector in [false, true] {
                blend_simd::force(Some(vector));
                    // Chunks of 5 rows: every loop crosses chunk boundaries.
                    blend.set_parallel(Arc::new(ParallelCtx::with_tuning(1, 5)));
                    let (hits, report) = blend.execute_with_report(&plan).unwrap();
                    let got: Vec<usize> = hits.iter().map(|h| h.score as usize).collect();
                    prop_assert_eq!(
                        &got, &want,
                        "{:?}/vector={}: {:?}", kind, vector, rows
                    );
                    // Every joinable row validates, exactly once, and none
                    // validates that the filter did not pass.
                    let stats = report.mc_totals();
                    prop_assert_eq!(stats.validated, joinable_rows);
                    prop_assert!(stats.candidates >= stats.validated);
                    prop_assert_eq!(*first.get_or_insert(stats), stats);
            }
        }
    }
}
