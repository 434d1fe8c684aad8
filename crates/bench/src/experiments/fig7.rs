//! Fig. 7 — union-search runtime on the four benchmark lakes: Starmie vs
//! BLEND (Row) vs BLEND (Column).

use blend::{tasks, Blend};
use blend_baselines::starmie::{StarmieConfig, StarmieIndex};
use blend_lake::{union_bench, UnionBenchConfig};
use blend_storage::EngineKind;

use crate::harness::{fmt_duration, TextTable, Timer};

/// Run the comparison on the four lake presets.
pub fn run(scale: f64) -> String {
    let mut t = TextTable::new(&[
        "Lake",
        "queries",
        "Starmie",
        "BLEND (Row)",
        "BLEND (Column)",
    ]);
    let presets = [
        ("SANTOS-like", UnionBenchConfig::santos_like(scale)),
        (
            "SANTOS-Large-like",
            UnionBenchConfig::santos_large_like(scale * 0.5),
        ),
        ("TUS-like", UnionBenchConfig::tus_like(scale)),
        (
            "TUS-Large-like",
            UnionBenchConfig::tus_large_like(scale * 0.5),
        ),
    ];
    for (label, cfg) in presets {
        let bench = union_bench::generate(&cfg);
        let row = Blend::from_lake(&bench.lake, EngineKind::Row);
        let col = Blend::from_lake(&bench.lake, EngineKind::Column);
        let starmie = StarmieIndex::build(&bench.lake, StarmieConfig::default());

        let k = 10usize;
        let per_col_k = 100usize;
        let mut t_star = Timer::new();
        let mut t_row = Timer::new();
        let mut t_col = Timer::new();
        let n_queries = bench.queries.len().min(20);
        for q in bench.queries.iter().take(n_queries) {
            let qt = bench.lake.table(*q);
            t_star.measure(|| starmie.query(qt, k));
            let plan = tasks::union_search(qt, k, per_col_k).expect("plan");
            t_row.measure(|| row.execute(&plan).expect("row engine"));
            t_col.measure(|| col.execute(&plan).expect("column engine"));
        }
        t.row(&[
            label.to_string(),
            n_queries.to_string(),
            fmt_duration(t_star.mean()),
            fmt_duration(t_row.mean()),
            fmt_duration(t_col.mean()),
        ]);
    }
    format!(
        "Fig. 7 — union search runtime at scale {scale} \
         (paper: Starmie usually fastest thanks to its in-memory HNSW; \
          BLEND(Column) an order of magnitude faster than BLEND(Row))\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn runs_at_tiny_scale() {
        let out = super::run(0.04);
        assert!(out.contains("SANTOS-like"));
        assert!(out.contains("TUS-Large-like"));
    }
}
