//! Cross-system agreement tests: BLEND's operators versus the standalone
//! baselines they subsume (the paper's equivalence claims).

use blend::{Blend, Plan, Seeker};
use blend_baselines::josie::JosieIndex;
use blend_baselines::mate::MateIndex;
use blend_lake::web::{generate, WebLakeConfig};
use blend_lake::workloads;
use blend_storage::EngineKind;

fn lake() -> blend_lake::DataLake {
    generate(&WebLakeConfig {
        name: "parity".into(),
        n_tables: 70,
        rows: (10, 30),
        cols: (2, 5),
        vocab: 500,
        zipf_s: 1.0,
        numeric_col_ratio: 0.25,
        null_ratio: 0.02,
        seed: 4242,
    })
}

/// Paper §VIII-D: "BLEND and Josie achieve the same results as their
/// outputs are identical" — both compute exact top-k overlap.
#[test]
fn blend_sc_and_josie_outputs_are_identical() {
    let lake = lake();
    let blend = Blend::from_lake(&lake, EngineKind::Column);
    let josie = JosieIndex::build(&lake);
    for (_, queries) in workloads::sc_queries(&lake, &[8, 30, 80], 4, 21) {
        for q in queries {
            let mut plan = Plan::new();
            plan.add_seeker("sc", Seeker::sc(q.clone()), 10).unwrap();
            let blend_hits = blend.execute(&plan).unwrap();
            let josie_hits = josie.query(&q, 10);
            assert_eq!(
                blend_hits
                    .iter()
                    .map(|h| (h.table, h.score as u32))
                    .collect::<Vec<_>>(),
                josie_hits,
                "query {q:?}"
            );
        }
    }
}

/// Paper Table V: BLEND's MC filtering is strictly more precise than
/// MATE's single-column-probe + super-key filtering, at equal recall.
#[test]
fn blend_mc_has_higher_filter_precision_than_mate() {
    let lake = lake();
    let blend = Blend::from_lake(&lake, EngineKind::Column);
    let mate = MateIndex::build(&lake);

    let mut blend_candidates = 0usize;
    let mut blend_validated = 0usize;
    let mut mate_tp = 0usize;
    let mut mate_fp = 0usize;

    for q in workloads::mc_queries(&lake, 12, 2, 6, 33) {
        let mut plan = Plan::new();
        plan.add_seeker("mc", Seeker::mc(q.rows.clone()), usize::MAX)
            .unwrap();
        let (blend_hits, report) = blend.execute_with_report(&plan).unwrap();
        let stats = report.mc_totals();
        blend_candidates += stats.candidates;
        blend_validated += stats.validated;

        let mate_res = mate.query(&lake, &q.rows, usize::MAX);
        mate_tp += mate_res.tp;
        mate_fp += mate_res.fp;

        // Equal recall: identical validated table sets.
        let blend_tables: std::collections::BTreeSet<u32> =
            blend_hits.iter().map(|h| h.table.0).collect();
        let mate_tables: std::collections::BTreeSet<u32> =
            mate_res.tables.iter().map(|(t, _)| t.0).collect();
        assert_eq!(blend_tables, mate_tables, "recall parity broken");
    }

    let blend_precision = blend_validated as f64 / blend_candidates.max(1) as f64;
    let mate_precision = mate_tp as f64 / (mate_tp + mate_fp).max(1) as f64;
    assert!(
        blend_precision >= mate_precision,
        "BLEND {blend_precision:.3} must be at least MATE {mate_precision:.3}"
    );
    // True positives agree: both validate exactly.
    assert_eq!(blend_validated, mate_tp);
}

/// Correlation: BLEND's in-SQL QCR vs the sketch baseline on the
/// categorical benchmark — both should recover strong planted signals.
#[test]
fn blend_c_and_qcr_baseline_agree_on_strong_signals() {
    let bench = blend_lake::corr_bench::generate(&blend_lake::CorrBenchConfig {
        name: "parity-corr".into(),
        n_queries: 3,
        correlated_per_query: 6,
        rows: (80, 120),
        key_domain: 120,
        fraction_numeric_keys: 0.0,
        corr_levels: vec![0.95, 0.6, 0.2],
        noise_columns: 1,
        noise_tables: 8,
        seed: 91,
    });
    let blend = Blend::from_lake(&bench.lake, EngineKind::Column);
    let qcr = blend_baselines::qcr::QcrIndex::build(&bench.lake, 256);

    for q in &bench.queries {
        let mut plan = Plan::new();
        plan.add_seeker("c", Seeker::c(q.keys.clone(), q.target.clone()), 3)
            .unwrap();
        let blend_top: std::collections::HashSet<u32> = blend
            .execute(&plan)
            .unwrap()
            .iter()
            .map(|h| h.table.0)
            .collect();
        let qcr_top: std::collections::HashSet<u32> = qcr
            .query(&q.keys, &q.target, 3, 5)
            .iter()
            .map(|(t, _)| t.0)
            .collect();
        // The strongest planted table (rho=.95) must be found by both.
        let gt = blend_lake::corr_bench::exact_topk_tables(&bench.lake, q, 1, 5);
        let strongest = gt[0].0 .0;
        assert!(blend_top.contains(&strongest), "BLEND missed rho=0.95");
        assert!(qcr_top.contains(&strongest), "QCR baseline missed rho=0.95");
    }
}

/// The flexibility claim of Table VII: numeric join keys work in BLEND but
/// not in the sketch baseline.
#[test]
fn numeric_join_keys_work_in_blend_only() {
    let bench = blend_lake::corr_bench::generate(&blend_lake::CorrBenchConfig {
        name: "numeric-keys".into(),
        n_queries: 2,
        correlated_per_query: 6,
        rows: (80, 120),
        key_domain: 120,
        fraction_numeric_keys: 1.0,
        corr_levels: vec![0.95, 0.6],
        noise_columns: 1,
        noise_tables: 5,
        seed: 92,
    });
    let blend = Blend::from_lake(&bench.lake, EngineKind::Column);
    let qcr = blend_baselines::qcr::QcrIndex::build(&bench.lake, 256);

    for q in &bench.queries {
        let mut plan = Plan::new();
        plan.add_seeker("c", Seeker::c(q.keys.clone(), q.target.clone()), 5)
            .unwrap();
        let blend_hits = blend.execute(&plan).unwrap();
        assert!(
            !blend_hits.is_empty(),
            "BLEND must handle numeric join keys"
        );
        assert!(
            qcr.query(&q.keys, &q.target, 5, 5).is_empty(),
            "the sketch baseline cannot index numeric keys"
        );
    }
}
