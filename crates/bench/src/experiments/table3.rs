//! Table III — complex discovery tasks: BLEND vs B-NO vs the federated
//! baselines, comparing runtime, LOC, number of systems and indexes.

use std::time::Duration;

use rand::{Rng, SeedableRng};

use blend::Blend;
use blend_baselines::josie::JosieIndex;
use blend_baselines::mate::MateIndex;
use blend_baselines::qcr::QcrIndex;
use blend_baselines::starmie::{StarmieConfig, StarmieIndex};
use blend_lake::{
    corr_bench, union_bench, web, workloads, CorrBenchConfig, DataLake, UnionBenchConfig,
    WebLakeConfig,
};
use blend_storage::EngineKind;

use crate::harness::{fmt_duration, TextTable, Timer};
use crate::{federated, loc};

struct TaskRow {
    name: &'static str,
    blend: Duration,
    bno: Duration,
    baseline: Duration,
    blend_loc: usize,
    baseline_loc: usize,
    baseline_systems: usize,
}

fn blend_pair(lake: &DataLake) -> (Blend, Blend) {
    let optimized = Blend::from_lake(lake, EngineKind::Column);
    let mut naive = Blend::from_lake(lake, EngineKind::Column);
    naive.set_optimize(false);
    (optimized, naive)
}

/// Run all four tasks and render the table.
pub fn run(scale: f64) -> String {
    let rows = vec![
        negative_examples_task(scale),
        imputation_task(scale),
        feature_discovery_task(scale),
        multi_objective_task(scale),
    ];

    let mut t = TextTable::new(&[
        "task",
        "BLEND",
        "B-NO",
        "Baseline",
        "LOC (BLEND/Base)",
        "#Systems (BLEND/Base)",
        "#Indexes",
    ]);
    for r in &rows {
        t.row(&[
            r.name.to_string(),
            fmt_duration(r.blend),
            fmt_duration(r.bno),
            fmt_duration(r.baseline),
            format!("{} / {}", r.blend_loc, r.baseline_loc),
            format!("1 / {}", r.baseline_systems),
            "Single / Multi".to_string(),
        ]);
    }
    format!(
        "Table III — complex discovery tasks at scale {scale} \
         (paper: BLEND 2-8.5x faster than baselines, ~10x fewer LOC)\n\n{}",
        t.render()
    )
}

fn negative_examples_task(scale: f64) -> TaskRow {
    let bench = union_bench::generate(&UnionBenchConfig::santos_like(scale));
    let lake = &bench.lake;
    let (blend_sys, bno_sys) = blend_pair(lake);
    let mate = MateIndex::build(lake);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x7AB3);

    let mut t_blend = Timer::new();
    let mut t_bno = Timer::new();
    let mut t_base = Timer::new();
    let n_queries = bench.queries.len().min(12);
    for q in bench.queries.iter().take(n_queries) {
        // Positives: rows of the query table; negatives: rows sampled from
        // one ground-truth mate (which therefore must be excluded).
        let qt = lake.table(*q);
        let positives: Vec<Vec<String>> = (0..qt.n_rows().min(4))
            .map(|r| {
                qt.row(r)
                    .take(2)
                    .filter_map(|v| v.normalized().map(|n| n.into_owned()))
                    .collect()
            })
            .filter(|r: &Vec<String>| r.len() == 2)
            .collect();
        // The paper uses ~1k negative examples per query; sample many rows
        // across several cluster mates (scaled down with the lake).
        let mut negatives: Vec<Vec<String>> = Vec::new();
        let mates: Vec<_> = bench.ground_truth[q].iter().copied().collect();
        for _ in 0..3 {
            let mate_table = mates[rng.random_range(0..mates.len())];
            let nt = lake.table(mate_table);
            for r in 0..nt.n_rows().min(20) {
                let row: Vec<String> = nt
                    .row(r)
                    .take(2)
                    .filter_map(|v| v.normalized().map(|n| n.into_owned()))
                    .collect();
                if row.len() == 2 {
                    negatives.push(row);
                }
            }
        }
        if positives.is_empty() || negatives.is_empty() {
            continue;
        }
        let plan = federated::blend_side::negative_examples(&positives, &negatives, 10).unwrap();
        t_blend.measure(|| blend_sys.execute(&plan).unwrap());
        t_bno.measure(|| bno_sys.execute(&plan).unwrap());
        t_base.measure(|| federated::negative_examples(lake, &mate, &positives, &negatives, 10));
    }
    TaskRow {
        name: "With Negative Examples",
        blend: t_blend.mean(),
        bno: t_bno.mean(),
        baseline: t_base.mean(),
        blend_loc: loc::count("blend_negative_examples"),
        baseline_loc: loc::count("baseline_negative_examples"),
        baseline_systems: 1, // MATE + app code (paper counts 1 system)
    }
}

fn imputation_task(scale: f64) -> TaskRow {
    let lake = web::generate(&WebLakeConfig::gittables_like(scale * 0.5));
    let (blend_sys, bno_sys) = blend_pair(&lake);
    let mate = MateIndex::build(&lake);
    let josie = JosieIndex::build(&lake);

    let mut t_blend = Timer::new();
    let mut t_bno = Timer::new();
    let mut t_base = Timer::new();
    for q in workloads::imputation_workload(&lake, 15, 5, 0x1407) {
        let plan = federated::blend_side::imputation(&q.examples, &q.queries, 10).unwrap();
        t_blend.measure(|| blend_sys.execute(&plan).unwrap());
        t_bno.measure(|| bno_sys.execute(&plan).unwrap());
        t_base.measure(|| federated::imputation(&lake, &mate, &josie, &q.examples, &q.queries, 10));
    }
    TaskRow {
        name: "Data Imputation",
        blend: t_blend.mean(),
        bno: t_bno.mean(),
        baseline: t_base.mean(),
        blend_loc: loc::count("blend_imputation"),
        baseline_loc: loc::count("baseline_imputation"),
        baseline_systems: 2, // MATE + JOSIE
    }
}

fn feature_discovery_task(scale: f64) -> TaskRow {
    let bench = corr_bench::generate(&CorrBenchConfig {
        n_queries: 6,
        ..CorrBenchConfig::nyc_cat_like(scale)
    });
    let lake = &bench.lake;
    let (blend_sys, bno_sys) = blend_pair(lake);
    let qcr = QcrIndex::build(lake, 256);
    let josie = JosieIndex::build(lake);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xFEA7);

    let mut t_blend = Timer::new();
    let mut t_bno = Timer::new();
    let mut t_base = Timer::new();
    for q in &bench.queries {
        // Existing features: a noisy copy of the target plus an independent
        // one (the multicollinearity the task must avoid).
        let f1: Vec<f64> = q.target.iter().map(|t| t * 0.9 + 0.1).collect();
        let f2: Vec<f64> = q.target.iter().map(|_| rng.random::<f64>()).collect();
        let features = vec![f1, f2];
        let plan =
            federated::blend_side::feature_discovery(&q.keys, &q.target, &features, 10).unwrap();
        t_blend.measure(|| blend_sys.execute(&plan).unwrap());
        t_bno.measure(|| bno_sys.execute(&plan).unwrap());
        t_base.measure(|| {
            federated::feature_discovery(&qcr, &josie, &q.keys, &q.target, &features, 10)
        });
    }
    TaskRow {
        name: "Feature Discovery",
        blend: t_blend.mean(),
        bno: t_bno.mean(),
        baseline: t_base.mean(),
        blend_loc: loc::count("blend_feature_discovery"),
        baseline_loc: loc::count("baseline_feature_discovery"),
        baseline_systems: 2, // QCR + MATE/JOSIE
    }
}

fn multi_objective_task(scale: f64) -> TaskRow {
    let bench = union_bench::generate(&UnionBenchConfig::santos_like(scale));
    let lake = &bench.lake;
    let (blend_sys, bno_sys) = blend_pair(lake);
    let josie = JosieIndex::build(lake);
    let starmie = StarmieIndex::build(lake, StarmieConfig::default());
    let qcr = QcrIndex::build(lake, 256);

    // Correlation inputs sampled lake-wide (any categorical/numeric pair);
    // union-bench lakes are all-categorical, so reuse key strings with a
    // synthetic target — exercising the code path is what matters here.
    let mut t_blend = Timer::new();
    let mut t_bno = Timer::new();
    let mut t_base = Timer::new();
    let n_queries = bench.queries.len().min(10);
    for q in bench.queries.iter().take(n_queries) {
        let qt = lake.table(*q);
        let keywords: Vec<String> = qt.columns[0]
            .values
            .iter()
            .take(5)
            .filter_map(|v| v.normalized().map(|n| n.into_owned()))
            .collect();
        let keys: Vec<String> = qt.columns[0]
            .values
            .iter()
            .filter_map(|v| v.normalized().map(|n| n.into_owned()))
            .collect();
        let target: Vec<f64> = (0..keys.len()).map(|i| i as f64).collect();
        let plan =
            federated::blend_side::multi_objective(&keywords, qt, &keys, &target, 10).unwrap();
        t_blend.measure(|| blend_sys.execute(&plan).unwrap());
        t_bno.measure(|| bno_sys.execute(&plan).unwrap());
        t_base.measure(|| {
            federated::multi_objective(
                lake, &josie, &starmie, &qcr, &keywords, qt, &keys, &target, 10,
            )
        });
    }
    TaskRow {
        name: "Multi-Objective Discovery",
        blend: t_blend.mean(),
        bno: t_bno.mean(),
        baseline: t_base.mean(),
        blend_loc: loc::count("blend_multi_objective"),
        baseline_loc: loc::count("baseline_multi_objective"),
        baseline_systems: 3, // JOSIE + Starmie + QCR
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn runs_at_tiny_scale() {
        let out = super::run(0.02);
        assert!(out.contains("With Negative Examples"));
        assert!(out.contains("Multi-Objective Discovery"));
        assert!(out.contains("1 / 3"));
    }
}
