//! Union search on a SANTOS-like benchmark: BLEND's declarative plan
//! (one SC seeker per column + a Counter combiner) versus the Starmie-style
//! semantic baseline, scored against planted ground truth.
//!
//! Reproduces the *shape* of paper Table VI at example scale: the semantic
//! baseline shines at small k (it finds low-overlap cluster mates), while
//! BLEND's syntactic plan holds precision at larger k.
//!
//! Run with: `cargo run --release --example union_search`

use std::collections::HashSet;
use std::time::Instant;

use blend::{tasks, Blend};
use blend_baselines::starmie::{StarmieConfig, StarmieIndex};
use blend_common::stats::{precision_at_k, recall_at_k};
use blend_common::TableId;
use blend_lake::union_bench::{generate, UnionBenchConfig};
use blend_storage::EngineKind;

fn main() {
    let cfg = UnionBenchConfig::santos_like(0.2);
    println!("generating `{}` union benchmark ...", cfg.name);
    let bench = generate(&cfg);
    let stats = bench.lake.stats();
    println!(
        "  {} tables / {} columns / {} rows; {} queries with ground truth\n",
        stats.tables,
        stats.columns,
        stats.rows,
        bench.queries.len()
    );

    // BLEND: offline indexing, then one union-search plan per query.
    let t0 = Instant::now();
    let system = Blend::from_lake(&bench.lake, EngineKind::Column);
    println!("BLEND indexing took {:.2?}", t0.elapsed());

    // Starmie: embed columns + HNSW.
    let t0 = Instant::now();
    let starmie = StarmieIndex::build(&bench.lake, StarmieConfig::default());
    println!("Starmie indexing took {:.2?}\n", t0.elapsed());

    let k = 10usize;
    let per_column_k = 100usize;
    let mut blend_p = 0.0;
    let mut blend_r = 0.0;
    let mut starmie_p = 0.0;
    let mut starmie_r = 0.0;
    let mut blend_time = std::time::Duration::ZERO;
    let mut starmie_time = std::time::Duration::ZERO;

    for q in &bench.queries {
        let query_table = bench.lake.table(*q);
        let gt: HashSet<TableId> = bench.ground_truth[q].iter().copied().collect();

        let t0 = Instant::now();
        let plan = tasks::union_search(query_table, k, per_column_k).expect("plan");
        let hits = system.execute(&plan).expect("execution");
        blend_time += t0.elapsed();
        let retrieved: Vec<TableId> = hits
            .iter()
            .map(|h| h.table)
            .filter(|t| t != q) // benchmark protocol: skip the query itself
            .collect();
        blend_p += precision_at_k(&retrieved, &gt, k);
        blend_r += recall_at_k(&retrieved, &gt, k);

        let t0 = Instant::now();
        let s_hits = starmie.query(query_table, k);
        starmie_time += t0.elapsed();
        let retrieved: Vec<TableId> = s_hits.iter().map(|(t, _)| *t).collect();
        starmie_p += precision_at_k(&retrieved, &gt, k);
        starmie_r += recall_at_k(&retrieved, &gt, k);
    }

    let n = bench.queries.len() as f64;
    println!(
        "union search quality @ k={k} over {} queries:",
        bench.queries.len()
    );
    println!(
        "  BLEND   P@{k}={:.2}  R@{k}={:.2}  total query time {:.2?}",
        blend_p / n,
        blend_r / n,
        blend_time
    );
    println!(
        "  Starmie P@{k}={:.2}  R@{k}={:.2}  total query time {:.2?}",
        starmie_p / n,
        starmie_r / n,
        starmie_time
    );
    println!(
        "\n(see `cargo run -p blend-bench --release --bin repro_all -- table6` for the full sweep)"
    );
}
