//! Starmie (Fan et al., VLDB 2023) — semantics-aware table union search,
//! the baseline of the paper's Table VI and Fig. 7.
//!
//! Pipeline, mirroring the original's filter-and-verify design:
//!
//! 1. **Offline** — encode every lake column into a vector (the original
//!    uses a contrastively trained encoder; we substitute the deterministic
//!    hashing encoder of [`crate::embed`], see DESIGN.md §4) and insert the
//!    vectors into an HNSW index.
//! 2. **Filter** — for each query column, retrieve its nearest lake columns
//!    from HNSW; tables owning the hits become candidates.
//! 3. **Verify** — score each candidate exactly: greedy one-to-one
//!    alignment between query and candidate columns by cosine similarity
//!    (Starmie's bipartite "column alignment" verification), averaged over
//!    query columns.

use crate::embed::{cosine, Embedder};
use crate::hnsw::{CosineDistance, Hnsw};
use blend_common::{FxHashSet, Table, TableId};
use blend_lake::DataLake;

/// Tunables.
#[derive(Debug, Clone)]
pub struct StarmieConfig {
    pub dim: usize,
    pub seed: u64,
    /// HNSW connectivity.
    pub m: usize,
    pub ef_construction: usize,
    pub ef_search: usize,
    /// Columns fetched from HNSW per query column during filtering.
    pub fanout: usize,
}

impl Default for StarmieConfig {
    fn default() -> Self {
        StarmieConfig {
            dim: 64,
            seed: 0x57A2,
            m: 12,
            ef_construction: 80,
            ef_search: 64,
            fanout: 40,
        }
    }
}

/// The Starmie-style index.
pub struct StarmieIndex {
    embedder: Embedder,
    hnsw: Hnsw<Vec<f32>, CosineDistance>,
    /// Point id → (table, column).
    meta: Vec<(u32, u32)>,
    /// Table → its column vectors (for verification).
    table_vectors: Vec<Vec<Vec<f32>>>,
    config: StarmieConfig,
}

/// Extract a column's raw string values.
fn column_strings(table: &Table, col: usize) -> Vec<String> {
    table.columns[col]
        .values
        .iter()
        .filter_map(|v| v.normalized().map(|n| n.into_owned()))
        .collect()
}

impl StarmieIndex {
    /// Build the index over a lake.
    pub fn build(lake: &DataLake, config: StarmieConfig) -> Self {
        let embedder = Embedder::new(config.dim, config.seed);
        let mut hnsw = Hnsw::new(
            CosineDistance,
            config.m,
            config.ef_construction,
            config.seed,
        );
        let mut meta = Vec::new();
        let mut table_vectors = Vec::with_capacity(lake.len());
        for table in &lake.tables {
            let mut vectors = Vec::with_capacity(table.n_cols());
            for c in 0..table.n_cols() {
                let vals = column_strings(table, c);
                let v = embedder.embed_column(&vals);
                hnsw.insert(v.clone());
                meta.push((table.id.0, c as u32));
                vectors.push(v);
            }
            table_vectors.push(vectors);
        }
        StarmieIndex {
            embedder,
            hnsw,
            meta,
            table_vectors,
            config,
        }
    }

    /// Exact unionability score between the query's column vectors and a
    /// candidate table: greedy one-to-one matching by cosine, averaged over
    /// the query columns (unmatched columns contribute zero).
    fn alignment_score(query: &[Vec<f32>], candidate: &[Vec<f32>]) -> f32 {
        if query.is_empty() {
            return 0.0;
        }
        let mut pairs: Vec<(f32, usize, usize)> = Vec::new();
        for (qi, q) in query.iter().enumerate() {
            for (ci, c) in candidate.iter().enumerate() {
                pairs.push((cosine(q, c), qi, ci));
            }
        }
        pairs.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut used_q = vec![false; query.len()];
        let mut used_c = vec![false; candidate.len()];
        let mut total = 0.0f32;
        for (s, qi, ci) in pairs {
            if !used_q[qi] && !used_c[ci] {
                used_q[qi] = true;
                used_c[ci] = true;
                total += s.max(0.0);
            }
        }
        total / query.len() as f32
    }

    /// Top-k unionable tables for a query table.
    pub fn query(&self, query: &Table, k: usize) -> Vec<(TableId, f32)> {
        let qvecs: Vec<Vec<f32>> = (0..query.n_cols())
            .map(|c| self.embedder.embed_column(&column_strings(query, c)))
            .collect();

        // Filter: candidate tables from per-column ANN retrieval.
        let mut candidates: FxHashSet<u32> = FxHashSet::default();
        for qv in &qvecs {
            for (pid, _) in self
                .hnsw
                .search(qv, self.config.fanout, self.config.ef_search)
            {
                let (t, _) = self.meta[pid as usize];
                // Exclude the query table itself if it happens to be
                // indexed (standard benchmark protocol).
                if t != query.id.0 {
                    candidates.insert(t);
                }
            }
        }

        // Verify: exact alignment score per candidate.
        let mut topk = blend_common::topk::TopK::new(k);
        for t in candidates {
            let score = Self::alignment_score(&qvecs, &self.table_vectors[t as usize]);
            topk.push(score as f64, t as u64, (TableId(t), score));
        }
        topk.into_sorted().into_iter().map(|(_, x)| x).collect()
    }

    /// Estimated resident bytes (Table VIII input): vectors + graph + meta.
    pub fn size_bytes(&self) -> usize {
        let vec_bytes: usize = self
            .table_vectors
            .iter()
            .flat_map(|t| t.iter())
            .map(|v| v.len() * 4 + std::mem::size_of::<Vec<f32>>())
            .sum();
        // Vectors are stored twice (HNSW points + verification store), as
        // in a filter/verify deployment.
        vec_bytes * 2 + self.hnsw.graph_bytes() + self.meta.len() * 8
    }

    /// Number of indexed columns.
    pub fn n_columns(&self) -> usize {
        self.meta.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blend_lake::union_bench::{generate, UnionBenchConfig};

    fn bench() -> blend_lake::UnionBenchmark {
        generate(&UnionBenchConfig {
            name: "starmie-test".into(),
            n_clusters: 5,
            tables_per_cluster: 6,
            rows: (10, 20),
            cols: 3,
            domain_size: 60,
            overlap: 0.35,
            confusable_pairs: 1,
            noise_tables: 10,
            seed: 3,
        })
    }

    #[test]
    fn retrieves_cluster_mates_first() {
        let b = bench();
        let idx = StarmieIndex::build(&b.lake, StarmieConfig::default());
        let mut p_at_5 = 0.0;
        for q in &b.queries {
            let hits = idx.query(b.lake.table(*q), 5);
            let gt = &b.ground_truth[q];
            let hit = hits.iter().filter(|(t, _)| gt.contains(t)).count();
            p_at_5 += hit as f64 / 5.0;
        }
        p_at_5 /= b.queries.len() as f64;
        assert!(p_at_5 > 0.7, "Starmie P@5 too low: {p_at_5}");
    }

    #[test]
    fn semantic_similarity_survives_low_overlap() {
        // Cluster mates share domains but only ~35% of values; scores must
        // still clearly separate them from noise tables.
        let b = bench();
        let idx = StarmieIndex::build(&b.lake, StarmieConfig::default());
        let q = b.queries[4]; // non-confusable cluster
        let hits = idx.query(b.lake.table(q), b.lake.len());
        let gt = &b.ground_truth[&q];
        let mate_score: f32 = hits
            .iter()
            .filter(|(t, _)| gt.contains(t))
            .map(|(_, s)| *s)
            .sum::<f32>()
            / gt.len() as f32;
        let noise_scores: Vec<f32> = hits
            .iter()
            .filter(|(t, _)| b.lake.table(*t).name.contains("noise"))
            .map(|(_, s)| *s)
            .collect();
        let noise_best = noise_scores.iter().copied().fold(0.0f32, f32::max);
        assert!(
            mate_score > noise_best,
            "mates {mate_score} vs best noise {noise_best}"
        );
    }

    #[test]
    fn excludes_query_table_itself() {
        let b = bench();
        let idx = StarmieIndex::build(&b.lake, StarmieConfig::default());
        for q in &b.queries {
            let hits = idx.query(b.lake.table(*q), 10);
            assert!(hits.iter().all(|(t, _)| t != q));
        }
    }

    #[test]
    fn alignment_score_bounds() {
        let a = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let same = StarmieIndex::alignment_score(&a, &a);
        assert!((same - 1.0).abs() < 1e-5);
        let disjoint = vec![vec![-1.0, 0.0], vec![0.0, -1.0]];
        let zero = StarmieIndex::alignment_score(&a, &disjoint);
        assert!(zero.abs() < 1e-5, "negative cosines clamp to 0, got {zero}");
        assert_eq!(StarmieIndex::alignment_score(&[], &a), 0.0);
    }

    #[test]
    fn greedy_alignment_is_one_to_one() {
        // Two identical query columns cannot both claim the same candidate
        // column.
        let q = vec![vec![1.0, 0.0], vec![1.0, 0.0]];
        let c = vec![vec![1.0, 0.0]];
        let s = StarmieIndex::alignment_score(&q, &c);
        assert!((s - 0.5).abs() < 1e-5, "expected 0.5, got {s}");
    }

    #[test]
    fn size_accounting() {
        let b = bench();
        let idx = StarmieIndex::build(&b.lake, StarmieConfig::default());
        assert!(idx.size_bytes() > 0);
        assert_eq!(
            idx.n_columns(),
            b.lake.tables.iter().map(Table::n_cols).sum::<usize>()
        );
    }
}
