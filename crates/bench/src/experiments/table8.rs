//! Table VIII — index storage: BLEND's single `AllTables` relation vs the
//! combined footprint of the state-of-the-art per-task indexes.

use blend_baselines::josie::JosieIndex;
use blend_baselines::mate::MateIndex;
use blend_baselines::qcr::QcrIndex;
use blend_baselines::starmie::{StarmieConfig, StarmieIndex};
use blend_lake::{
    corr_bench, union_bench, web, CorrBenchConfig, DataLake, UnionBenchConfig, WebLakeConfig,
};
use blend_storage::EngineKind;

use crate::harness::TextTable;

fn mib(bytes: usize) -> String {
    format!("{:.2} MiB", bytes as f64 / (1024.0 * 1024.0))
}

/// Measure one lake.
pub fn measure(lake: &DataLake) -> (usize, usize, Vec<(String, usize)>) {
    let blend_size = blend_index::IndexBuilder::new()
        .build(&lake.tables, EngineKind::Column)
        .size_bytes();
    let parts = vec![
        ("JOSIE".to_string(), JosieIndex::build(lake).size_bytes()),
        ("MATE".to_string(), MateIndex::build(lake).size_bytes()),
        ("QCR".to_string(), QcrIndex::build(lake, 256).size_bytes()),
        (
            "Starmie".to_string(),
            StarmieIndex::build(lake, StarmieConfig::default()).size_bytes(),
        ),
    ];
    let combined = parts.iter().map(|(_, b)| b).sum();
    (blend_size, combined, parts)
}

/// The six lake families at `scale`, labelled.
fn lakes(scale: f64) -> Vec<(&'static str, DataLake)> {
    vec![
        (
            "Gittables-like",
            web::generate(&WebLakeConfig::gittables_like(scale)),
        ),
        ("DWTC-like", web::generate(&WebLakeConfig::dwtc_like(scale))),
        (
            "OpenData-like",
            web::generate(&WebLakeConfig::opendata_like(scale)),
        ),
        (
            "SANTOS-like",
            union_bench::generate(&UnionBenchConfig::santos_like(scale)).lake,
        ),
        (
            "TUS-like",
            union_bench::generate(&UnionBenchConfig::tus_like(scale)).lake,
        ),
        (
            "NYC-like",
            corr_bench::generate(&CorrBenchConfig::nyc_cat_like(scale)).lake,
        ),
    ]
}

/// Run across the lake families.
pub fn run(scale: f64) -> String {
    let mut t = TextTable::new(&[
        "Data lake",
        "BLEND",
        "Combination of S.O.T.A.",
        "BLEND/combined",
        "breakdown",
    ]);
    let mut total_blend = 0usize;
    let mut total_combined = 0usize;
    for (label, lake) in &lakes(scale) {
        let (blend_size, combined, parts) = measure(lake);
        total_blend += blend_size;
        total_combined += combined;
        let breakdown = parts
            .iter()
            .map(|(n, b)| format!("{n}={}", mib(*b)))
            .collect::<Vec<_>>()
            .join(" ");
        t.row(&[
            label.to_string(),
            mib(blend_size),
            mib(combined),
            format!("{:.0}%", 100.0 * blend_size as f64 / combined as f64),
            breakdown,
        ]);
    }
    format!(
        "Table VIII — index storage at scale {scale} \
         (paper: BLEND needs on average 57% less storage than the combination)\n\n{}\
         \noverall: BLEND {} vs combination {} ({:.0}% of the combined footprint)\n",
        t.render(),
        mib(total_blend),
        mib(total_combined),
        100.0 * total_blend as f64 / total_combined.max(1) as f64,
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn blend_is_smaller_than_combination_on_every_lake() {
        for (label, lake) in super::lakes(0.02) {
            let (blend_size, combined, parts) = super::measure(&lake);
            assert!(blend_size > 0, "{label}");
            assert_eq!(parts.len(), 4, "{label}");
            assert!(
                blend_size < combined,
                "{label}: unified index {blend_size} !< combined {combined}"
            );
        }
    }
}
