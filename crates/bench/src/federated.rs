//! The "federated baseline" implementations for Table III: each complex
//! discovery task wired together from standalone systems plus application
//! glue, exactly the way a practitioner without BLEND would do it.
//!
//! `// LOC-BEGIN(...)` / `// LOC-END(...)` markers delimit the code counted
//! by the LOC column of Table III (see [`crate::loc`]); the BLEND
//! equivalents live in [`blend_side`] below with the same markers. The
//! baselines are real implementations — their runtimes are measured, their
//! outputs validated against BLEND's in the integration tests.

use blend_baselines::josie::JosieIndex;
use blend_baselines::mate::MateIndex;
use blend_baselines::qcr::QcrIndex;
use blend_baselines::starmie::StarmieIndex;
use blend_common::{FxHashSet, TableId};
use blend_lake::DataLake;

/// Task 1 — data discovery with negative examples: MATE for the positive
/// composite keys, then application-level row-by-row validation to drop
/// tables containing any negative example (the baseline's bottleneck).
pub fn negative_examples(
    lake: &DataLake,
    mate: &MateIndex,
    positives: &[Vec<String>],
    negatives: &[Vec<String>],
    k: usize,
) -> Vec<TableId> {
    // LOC-BEGIN(baseline_negative_examples)
    let candidates = mate.query(lake, positives, k * 4);
    let negative_sets: Vec<FxHashSet<&str>> = negatives
        .iter()
        .map(|row| row.iter().map(String::as_str).collect())
        .collect();
    let mut result = Vec::new();
    'tables: for (tid, _) in candidates.tables {
        let table = lake.table(tid);
        // Row-by-row validation: reject the table if any row contains all
        // values of any negative example.
        for r in 0..table.n_rows() {
            let row_vals: FxHashSet<String> = table
                .row(r)
                .filter_map(|v| v.normalized().map(|n| n.into_owned()))
                .collect();
            for neg in &negative_sets {
                if neg.iter().all(|v| row_vals.contains(*v)) {
                    continue 'tables;
                }
            }
        }
        result.push(tid);
        if result.len() >= k {
            break;
        }
    }
    result
    // LOC-END(baseline_negative_examples)
}

/// Task 2 — example-based data imputation: MATE finds tables containing the
/// complete example rows, JOSIE finds tables joinable on the incomplete
/// keys; the intersection is computed in application code.
pub fn imputation(
    lake: &DataLake,
    mate: &MateIndex,
    josie: &JosieIndex,
    examples: &[(String, String)],
    queries: &[String],
    k: usize,
) -> Vec<TableId> {
    // LOC-BEGIN(baseline_imputation)
    let example_rows: Vec<Vec<String>> = examples
        .iter()
        .map(|(a, b)| vec![a.clone(), b.clone()])
        .collect();
    let complete = mate.query(lake, &example_rows, k * 4);
    let partial = josie.query(queries, k * 4);
    // Application-level intersection, ranked by combined position.
    let partial_ranks: std::collections::HashMap<TableId, usize> = partial
        .iter()
        .enumerate()
        .map(|(i, (t, _))| (*t, i))
        .collect();
    let mut merged: Vec<(usize, TableId)> = complete
        .tables
        .iter()
        .enumerate()
        .filter_map(|(i, (t, _))| partial_ranks.get(t).map(|j| (i + j, *t)))
        .collect();
    merged.sort_by_key(|&(rank, t)| (rank, t.0));
    merged.into_iter().take(k).map(|(_, t)| t).collect()
    // LOC-END(baseline_imputation)
}

/// Task 3 — multicollinearity-aware feature discovery: repeated QCR-sketch
/// rounds (target, then each existing feature) with application-level
/// filtering, plus JOSIE for joinability, all intersected by hand.
pub fn feature_discovery(
    qcr: &QcrIndex,
    josie: &JosieIndex,
    keys: &[String],
    target: &[f64],
    features: &[Vec<f64>],
    k: usize,
) -> Vec<TableId> {
    // LOC-BEGIN(baseline_feature_discovery)
    let mut correlated: Vec<TableId> = qcr
        .query(keys, target, k * 4, 3)
        .into_iter()
        .map(|(t, _)| t)
        .collect();
    // One additional QCR round per existing feature; drop its hits.
    for feature in features {
        let collinear: FxHashSet<TableId> = qcr
            .query(keys, feature, k * 4, 3)
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        correlated.retain(|t| !collinear.contains(t));
    }
    // Joinability via a separate join-discovery system.
    let joinable: FxHashSet<TableId> = josie
        .query(keys, k * 8)
        .into_iter()
        .map(|(t, _)| t)
        .collect();
    correlated.retain(|t| joinable.contains(t));
    correlated.truncate(k);
    correlated
    // LOC-END(baseline_feature_discovery)
}

/// Task 4 — multi-objective discovery: JOSIE (keyword + per-column union
/// voting), Starmie (semantic union), and the QCR sketch (correlation),
/// merged in application code — three systems, three indexes.
#[allow(clippy::too_many_arguments)]
pub fn multi_objective(
    lake: &DataLake,
    josie: &JosieIndex,
    starmie: &StarmieIndex,
    qcr: &QcrIndex,
    keywords: &[String],
    query_table: &blend_common::Table,
    keys: &[String],
    target: &[f64],
    k: usize,
) -> Vec<TableId> {
    // LOC-BEGIN(baseline_multi_objective)
    let mut seen: FxHashSet<TableId> = FxHashSet::default();
    let mut merged: Vec<TableId> = Vec::new();
    let push = |t: TableId, merged: &mut Vec<TableId>, seen: &mut FxHashSet<TableId>| {
        if seen.insert(t) {
            merged.push(t);
        }
    };
    // Keyword search approximated with the join system, as practitioners do.
    for (t, _) in josie.query(keywords, k) {
        push(t, &mut merged, &mut seen);
    }
    // Union search via the semantic system.
    for (t, _) in starmie.query(query_table, k) {
        push(t, &mut merged, &mut seen);
    }
    // Correlation via the sketch index.
    for (t, _) in qcr.query(keys, target, k, 3) {
        push(t, &mut merged, &mut seen);
    }
    let _ = lake;
    merged.truncate(4 * k);
    merged
    // LOC-END(baseline_multi_objective)
}

/// The BLEND-side implementations with the same LOC markers: these are the
/// plan definitions the paper counts (5–8 lines each).
pub mod blend_side {
    use blend::{tasks, Plan};
    use blend_common::{Result, Table};

    /// BLEND plan for task 1.
    pub fn negative_examples(
        positives: &[Vec<String>],
        negatives: &[Vec<String>],
        k: usize,
    ) -> Result<Plan> {
        tasks::negative_examples(positives, negatives, k)
    }

    /// BLEND plan for task 2.
    pub fn imputation(examples: &[(String, String)], queries: &[String], k: usize) -> Result<Plan> {
        tasks::imputation(examples, queries, k)
    }

    /// BLEND plan for task 3.
    pub fn feature_discovery(
        keys: &[String],
        target: &[f64],
        features: &[Vec<f64>],
        k: usize,
    ) -> Result<Plan> {
        tasks::feature_discovery(keys, target, features, k)
    }

    /// BLEND plan for task 4.
    pub fn multi_objective(
        keywords: &[String],
        query: &Table,
        keys: &[String],
        target: &[f64],
        k: usize,
    ) -> Result<Plan> {
        tasks::multi_objective(keywords, query, keys, target, k, 10 * k)
    }
}
