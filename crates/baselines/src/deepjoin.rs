//! DeepJoin (Dong et al., VLDB 2023) — joinable-table discovery with column
//! embeddings, the third system of the paper's Lakebench comparison
//! (Fig. 6).
//!
//! DeepJoin fine-tunes a pretrained language model so that joinable columns
//! embed close together, then answers top-k joinability with an HNSW index
//! — making query latency essentially independent of query column size
//! (the effect Fig. 6a shows). We substitute the deterministic hashing
//! encoder (DESIGN.md §4) and keep the retrieval architecture identical:
//! one vector per lake column, one HNSW search per query.

use crate::embed::Embedder;
use crate::hnsw::{CosineDistance, Hnsw};
use blend_common::TableId;
use blend_lake::DataLake;

/// Tunables.
#[derive(Debug, Clone)]
pub struct DeepJoinConfig {
    pub dim: usize,
    pub seed: u64,
    pub m: usize,
    pub ef_construction: usize,
    pub ef_search: usize,
}

impl Default for DeepJoinConfig {
    fn default() -> Self {
        DeepJoinConfig {
            dim: 64,
            seed: 0xDEE9,
            m: 12,
            ef_construction: 80,
            ef_search: 64,
        }
    }
}

/// The DeepJoin-style index.
pub struct DeepJoinIndex {
    embedder: Embedder,
    hnsw: Hnsw<Vec<f32>, CosineDistance>,
    /// Point id → (table, column).
    meta: Vec<(u32, u32)>,
    config: DeepJoinConfig,
}

impl DeepJoinIndex {
    /// Build over a lake: one embedded point per column.
    pub fn build(lake: &DataLake, config: DeepJoinConfig) -> Self {
        let embedder = Embedder::new(config.dim, config.seed);
        let mut hnsw = Hnsw::new(
            CosineDistance,
            config.m,
            config.ef_construction,
            config.seed,
        );
        let mut meta = Vec::new();
        for table in &lake.tables {
            for (ci, col) in table.columns.iter().enumerate() {
                let vals: Vec<String> = col
                    .values
                    .iter()
                    .filter_map(|v| v.normalized().map(|n| n.into_owned()))
                    .collect();
                hnsw.insert(embedder.embed_column(&vals));
                meta.push((table.id.0, ci as u32));
            }
        }
        DeepJoinIndex {
            embedder,
            hnsw,
            meta,
            config,
        }
    }

    /// Top-k joinable tables for a query column, scored by cosine
    /// similarity of the closest column (1 - HNSW distance).
    pub fn query(&self, column: &[String], k: usize) -> Vec<(TableId, f32)> {
        let qv = self.embedder.embed_column(column);
        // Over-fetch columns: several hits may share a table.
        let hits = self
            .hnsw
            .search(&qv, k * 4 + 8, self.config.ef_search.max(k * 4 + 8));
        let mut best: blend_common::FxHashMap<u32, f32> = Default::default();
        for (pid, d) in hits {
            let (t, _) = self.meta[pid as usize];
            let sim = 1.0 - d;
            let e = best.entry(t).or_insert(f32::MIN);
            if sim > *e {
                *e = sim;
            }
        }
        let mut topk = blend_common::topk::TopK::new(k);
        for (t, s) in best {
            topk.push(s as f64, t as u64, (TableId(t), s));
        }
        topk.into_sorted().into_iter().map(|(_, x)| x).collect()
    }

    /// Number of indexed columns.
    pub fn n_columns(&self) -> usize {
        self.meta.len()
    }

    /// Estimated resident bytes (Table VIII input).
    pub fn size_bytes(&self) -> usize {
        let vec_bytes = self.meta.len() * (self.config.dim * 4 + std::mem::size_of::<Vec<f32>>());
        vec_bytes + self.hnsw.graph_bytes() + self.meta.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blend_lake::web::{generate, WebLakeConfig};
    use blend_lake::workloads::sc_queries;

    fn lake() -> DataLake {
        generate(&WebLakeConfig {
            name: "dj-test".into(),
            n_tables: 60,
            rows: (10, 30),
            cols: (2, 4),
            vocab: 500,
            zipf_s: 1.0,
            numeric_col_ratio: 0.2,
            null_ratio: 0.0,
            seed: 31,
        })
    }

    #[test]
    fn self_column_query_finds_source_table() {
        let lake = lake();
        let idx = DeepJoinIndex::build(&lake, DeepJoinConfig::default());
        for tid in [0usize, 10, 25] {
            let t = &lake.tables[tid];
            let col: Vec<String> = t.columns[0]
                .values
                .iter()
                .filter_map(|v| v.normalized().map(|n| n.into_owned()))
                .collect();
            let hits = idx.query(&col, 5);
            assert!(
                hits.iter().any(|(tt, _)| tt.0 == tid as u32),
                "table {tid} not in top-5 for its own column: {hits:?}"
            );
        }
    }

    #[test]
    fn scores_sorted_and_bounded() {
        let lake = lake();
        let idx = DeepJoinIndex::build(&lake, DeepJoinConfig::default());
        for (_, qs) in sc_queries(&lake, &[20], 3, 8) {
            for q in qs {
                let hits = idx.query(&q, 10);
                assert!(hits.windows(2).all(|w| w[0].1 >= w[1].1));
                for (_, s) in hits {
                    assert!((-1.01..=1.01).contains(&s));
                }
            }
        }
    }

    #[test]
    fn respects_k() {
        let lake = lake();
        let idx = DeepJoinIndex::build(&lake, DeepJoinConfig::default());
        let (_, qs) = sc_queries(&lake, &[15], 1, 9).pop().unwrap();
        let hits = idx.query(&qs[0], 3);
        assert!(hits.len() <= 3);
    }

    #[test]
    fn size_accounting() {
        let lake = lake();
        let idx = DeepJoinIndex::build(&lake, DeepJoinConfig::default());
        assert!(idx.size_bytes() >= idx.n_columns() * 64 * 4);
    }
}
