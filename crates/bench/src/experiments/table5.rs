//! Table V — multi-column join precision: BLEND's MC seeker vs MATE,
//! counting filter-phase true/false positives per candidate row.

use blend::{Blend, Plan, Seeker};
use blend_baselines::mate::MateIndex;
use blend_lake::{web, workloads, WebLakeConfig};
use blend_storage::EngineKind;

use crate::harness::{fmt_duration, pct, TextTable, Timer};

/// Run on DWTC-like and OpenData-like lakes.
pub fn run(scale: f64, n_queries: usize) -> String {
    let mut t = TextTable::new(&[
        "Lake",
        "System",
        "TP",
        "FP",
        "Precision",
        "Recall",
        "avg time",
    ]);
    for (label, cfg) in [
        ("DWTC-like", WebLakeConfig::dwtc_like(scale)),
        ("OpenData-like", WebLakeConfig::opendata_like(scale * 0.5)),
    ] {
        let lake = web::generate(&cfg);
        let system = Blend::from_lake(&lake, EngineKind::Column);
        let mate = MateIndex::build(&lake);

        let mut blend_tp = 0usize;
        let mut blend_fp = 0usize;
        let mut mate_tp = 0usize;
        let mut mate_fp = 0usize;
        let mut t_blend = Timer::new();
        let mut t_mate = Timer::new();

        for q in workloads::mc_queries(&lake, n_queries, 2, 6, 0x7AB5) {
            let mut plan = Plan::new();
            plan.add_seeker("mc", Seeker::mc(q.rows.clone()), 10)
                .unwrap();
            let (_, report) = t_blend.measure(|| system.execute_with_report(&plan).unwrap());
            let stats = report.mc_totals();
            blend_tp += stats.validated;
            blend_fp += stats.candidates - stats.validated;

            let res = t_mate.measure(|| mate.query(&lake, &q.rows, 10));
            mate_tp += res.tp;
            mate_fp += res.fp;
        }

        let precision = |tp: usize, fp: usize| {
            if tp + fp == 0 {
                0.0
            } else {
                tp as f64 / (tp + fp) as f64
            }
        };
        t.row(&[
            label.to_string(),
            "BLEND".to_string(),
            blend_tp.to_string(),
            blend_fp.to_string(),
            pct(precision(blend_tp, blend_fp)),
            "100%".to_string(),
            fmt_duration(t_blend.mean()),
        ]);
        t.row(&[
            label.to_string(),
            "MATE".to_string(),
            mate_tp.to_string(),
            mate_fp.to_string(),
            pct(precision(mate_tp, mate_fp)),
            "100%".to_string(),
            fmt_duration(t_mate.mean()),
        ]);
    }
    format!(
        "Table V — MC join filter precision at scale {scale} \
         (paper: BLEND ≥99.7% vs MATE 61-73%, recall 100% for both)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn runs_at_tiny_scale() {
        let out = super::run(0.01, 4);
        assert!(out.contains("BLEND"));
        assert!(out.contains("MATE"));
        assert!(out.contains("DWTC-like"));
    }
}
