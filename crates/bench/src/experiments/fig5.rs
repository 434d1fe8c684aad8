//! Fig. 5 — single-column join search runtime vs query size, on three lake
//! families, comparing BLEND on both storage engines against JOSIE.

use blend::{Blend, Plan, Seeker};
use blend_baselines::josie::JosieIndex;
use blend_lake::{web, workloads, WebLakeConfig};
use blend_storage::EngineKind;

use crate::harness::{fmt_duration, TextTable, Timer};

/// Run the sweep: for each lake and query-size bucket, average runtimes.
pub fn run(scale: f64, per_size: usize) -> String {
    let sizes = [10usize, 100, 1000];
    let mut t = TextTable::new(&["Lake", "|Q|", "BLEND (Row)", "BLEND (Column)", "JOSIE"]);
    for (label, cfg) in [
        ("WDC-like", WebLakeConfig::wdc_like(scale)),
        ("OpenData-like", WebLakeConfig::opendata_like(scale)),
        ("Gittables-like", WebLakeConfig::gittables_like(scale)),
    ] {
        let lake = web::generate(&cfg);
        let row = Blend::from_lake(&lake, EngineKind::Row);
        let col = Blend::from_lake(&lake, EngineKind::Column);
        let josie = JosieIndex::build(&lake);

        for (size, queries) in workloads::sc_queries(&lake, &sizes, per_size, 0xF160) {
            let mut t_row = Timer::new();
            let mut t_col = Timer::new();
            let mut t_josie = Timer::new();
            for q in &queries {
                let mut plan = Plan::new();
                plan.add_seeker("sc", Seeker::sc(q.clone()), 10).unwrap();
                t_row.measure(|| row.execute(&plan).unwrap());
                t_col.measure(|| col.execute(&plan).unwrap());
                t_josie.measure(|| josie.query(q, 10));
            }
            t.row(&[
                label.to_string(),
                size.to_string(),
                fmt_duration(t_row.mean()),
                fmt_duration(t_col.mean()),
                fmt_duration(t_josie.mean()),
            ]);
        }
    }
    format!(
        "Fig. 5 — SC join-search runtime vs query size at scale {scale} \
         (paper: BLEND(Column) consistently fastest; runtimes grow with |Q|)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn runs_at_tiny_scale() {
        let out = super::run(0.01, 1);
        assert!(out.contains("WDC-like"));
        assert!(out.contains("1000"));
    }
}
