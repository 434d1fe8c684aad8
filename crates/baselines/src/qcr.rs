//! The QCR sketch index (Santos et al., ICDE 2022) — the paper's baseline
//! for correlation discovery (Table VII).
//!
//! For every (categorical key column, numeric column) pair of every lake
//! table, the index stores a *k-minimum-values sketch*: the `h` smallest
//! key hashes together with the numeric value's quadrant bit (above/below
//! the column mean). At query time the same sketch is built for the query's
//! (keys, target) pair and matched; the Quadrant Count Ratio is estimated
//! from the concordance of matched quadrant bits.
//!
//! Two properties of the original are reproduced deliberately because the
//! paper's experiments hinge on them:
//!
//! * **`h` is fixed at indexing time** — changing the sketch size means
//!   re-indexing the lake (BLEND chooses `h` per query instead);
//! * **only categorical key columns are sketched** — numeric join keys are
//!   invisible to the baseline, which is exactly why it collapses on the
//!   NYC (All) benchmark.

use blend_common::hash::hash_str;
use blend_common::stats::mean;
use blend_common::{ColumnType, FxHashMap, TableId};
use blend_lake::DataLake;

/// One sketched column pair.
#[derive(Debug, Clone)]
pub struct QcrSketch {
    pub table: u32,
    pub key_col: u32,
    pub num_col: u32,
    /// `(key hash, quadrant)` sorted ascending by hash; at most `h` entries.
    pub entries: Vec<(u64, bool)>,
}

/// The sketch index.
pub struct QcrIndex {
    sketches: Vec<QcrSketch>,
    /// Sketch ids grouped by key hash presence is unnecessary: retrieval
    /// scans sketches, as the original does within its candidate pruning.
    h: usize,
}

/// Build a `(key, quadrant)` sketch from aligned keys and numeric values.
fn build_sketch(keys: &[&str], values: &[f64], h: usize) -> Vec<(u64, bool)> {
    let m = match mean(values) {
        Some(m) => m,
        None => return Vec::new(),
    };
    // Deduplicate by key hash, keeping the first occurrence (the original
    // hashes distinct keys; repeated keys in a fact table collapse).
    let mut entries: FxHashMap<u64, bool> = FxHashMap::default();
    for (k, v) in keys.iter().zip(values) {
        entries.entry(hash_str(k)).or_insert(*v >= m);
    }
    let mut sorted: Vec<(u64, bool)> = entries.into_iter().collect();
    sorted.sort_unstable_by_key(|&(h, _)| h);
    sorted.truncate(h);
    sorted
}

impl QcrIndex {
    /// Build the index with sketch size `h` (the paper uses `h = 256`).
    pub fn build(lake: &DataLake, h: usize) -> Self {
        let mut sketches = Vec::new();
        for table in &lake.tables {
            let types: Vec<ColumnType> = table.columns.iter().map(|c| c.column_type()).collect();
            for (ki, key_col) in table.columns.iter().enumerate() {
                // The baseline's restriction: categorical keys only.
                if types[ki] != ColumnType::Categorical {
                    continue;
                }
                for (ni, num_col) in table.columns.iter().enumerate() {
                    if ni == ki || types[ni] != ColumnType::Numeric {
                        continue;
                    }
                    let mut keys: Vec<String> = Vec::new();
                    let mut vals: Vec<f64> = Vec::new();
                    for r in 0..table.n_rows() {
                        if let (Some(k), Some(v)) =
                            (key_col.values[r].normalized(), num_col.values[r].as_f64())
                        {
                            keys.push(k.into_owned());
                            vals.push(v);
                        }
                    }
                    let key_refs: Vec<&str> = keys.iter().map(String::as_str).collect();
                    let entries = build_sketch(&key_refs, &vals, h);
                    if entries.len() >= 2 {
                        sketches.push(QcrSketch {
                            table: table.id.0,
                            key_col: ki as u32,
                            num_col: ni as u32,
                            entries,
                        });
                    }
                }
            }
        }
        QcrIndex { sketches, h }
    }

    /// Number of stored sketches (column pairs — the quadratic blow-up the
    /// paper's unified index avoids).
    pub fn n_sketches(&self) -> usize {
        self.sketches.len()
    }

    /// Sketch size parameter.
    pub fn h(&self) -> usize {
        self.h
    }

    /// Top-k tables whose sketched column pairs have the highest estimated
    /// |QCR| against the query `(keys, target)`.
    ///
    /// `min_matches` guards against spurious estimates from tiny
    /// intersections (the original uses a support threshold too).
    pub fn query(
        &self,
        keys: &[String],
        target: &[f64],
        k: usize,
        min_matches: usize,
    ) -> Vec<(TableId, f64)> {
        let key_refs: Vec<&str> = keys.iter().map(String::as_str).collect();
        let query_sketch = build_sketch(&key_refs, target, self.h);
        if query_sketch.is_empty() {
            return Vec::new();
        }
        let qmap: FxHashMap<u64, bool> = query_sketch.iter().copied().collect();

        let mut best_per_table: FxHashMap<u32, f64> = FxHashMap::default();
        for s in &self.sketches {
            let mut n = 0i64;
            let mut concordant = 0i64;
            for &(h, q) in &s.entries {
                if let Some(&tq) = qmap.get(&h) {
                    n += 1;
                    if q == tq {
                        concordant += 1;
                    } else {
                        concordant -= 1;
                    }
                }
            }
            if (n as usize) < min_matches {
                continue;
            }
            let est = (concordant as f64 / n as f64).abs();
            let e = best_per_table.entry(s.table).or_insert(0.0);
            if est > *e {
                *e = est;
            }
        }

        let mut topk = blend_common::topk::TopK::new(k);
        for (t, score) in best_per_table {
            topk.push(score, t as u64, (TableId(t), score));
        }
        topk.into_sorted().into_iter().map(|(_, x)| x).collect()
    }

    /// Estimated resident bytes (Table VIII input): 9 bytes per entry
    /// (hash + bit) plus directory overhead.
    pub fn size_bytes(&self) -> usize {
        self.sketches
            .iter()
            .map(|s| s.entries.len() * 9 + std::mem::size_of::<QcrSketch>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blend_lake::corr_bench::{exact_topk_tables, generate, CorrBenchConfig};

    fn bench(numeric: f64, seed: u64) -> blend_lake::CorrBenchmark {
        generate(&CorrBenchConfig {
            name: "qcr-test".into(),
            n_queries: 4,
            correlated_per_query: 8,
            rows: (60, 100),
            key_domain: 100,
            fraction_numeric_keys: numeric,
            corr_levels: vec![0.95, 0.7, 0.4, 0.1],
            noise_columns: 1,
            noise_tables: 10,
            seed,
        })
    }

    #[test]
    fn finds_strongly_correlated_tables_on_categorical_keys() {
        let b = bench(0.0, 5);
        let idx = QcrIndex::build(&b.lake, 256);
        let mut hit = 0usize;
        let mut total = 0usize;
        for q in &b.queries {
            let got: Vec<TableId> = idx
                .query(&q.keys, &q.target, 8, 5)
                .into_iter()
                .map(|(t, _)| t)
                .collect();
            let want: std::collections::HashSet<TableId> = exact_topk_tables(&b.lake, q, 8, 5)
                .into_iter()
                .map(|(t, _)| t)
                .collect();
            total += want.len();
            hit += got.iter().filter(|t| want.contains(t)).count();
        }
        let recall = hit as f64 / total as f64;
        assert!(recall > 0.5, "QCR sketch recall too low: {recall}");
    }

    #[test]
    fn numeric_join_keys_are_invisible() {
        // The NYC (All) failure mode: all queries use numeric keys, the
        // baseline has nothing indexed for them.
        let b = bench(1.0, 6);
        let idx = QcrIndex::build(&b.lake, 256);
        for q in &b.queries {
            assert!(q.numeric_keys);
            let got = idx.query(&q.keys, &q.target, 8, 5);
            assert!(
                got.is_empty(),
                "baseline should not answer numeric-key queries, got {got:?}"
            );
        }
    }

    #[test]
    fn sketch_size_bounded_by_h() {
        let b = bench(0.0, 7);
        let idx = QcrIndex::build(&b.lake, 16);
        assert!(idx.n_sketches() > 0);
        for s in &idx.sketches {
            assert!(s.entries.len() <= 16);
            // Sorted ascending by hash (k-minimum-values invariant).
            assert!(s.entries.windows(2).all(|w| w[0].0 <= w[1].0));
        }
    }

    #[test]
    fn perfect_correlation_estimates_near_one() {
        // Hand-built: y = x exactly, shared keys.
        use blend_common::{Column, Table, Value};
        let keys: Vec<String> = (0..50).map(|i| format!("key{i}")).collect();
        let t = Table::new(
            blend_common::TableId(0),
            "t",
            vec![
                Column::new(
                    "k",
                    keys.iter()
                        .map(|k| Value::Text(k.clone()))
                        .collect::<Vec<_>>(),
                ),
                Column::new(
                    "y",
                    (0..50).map(|i| Value::Float(i as f64)).collect::<Vec<_>>(),
                ),
            ],
        )
        .unwrap();
        let lake = DataLake::new("one", vec![t]);
        let idx = QcrIndex::build(&lake, 64);
        let target: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let got = idx.query(&keys, &target, 1, 5);
        assert_eq!(got.len(), 1);
        assert!(got[0].1 > 0.9, "estimate {} too weak for rho=1", got[0].1);
    }

    #[test]
    fn min_matches_suppresses_tiny_intersections() {
        let b = bench(0.0, 8);
        let idx = QcrIndex::build(&b.lake, 256);
        let q = &b.queries[0];
        // Impossibly high support threshold: nothing qualifies.
        assert!(idx.query(&q.keys, &q.target, 5, 10_000).is_empty());
    }

    #[test]
    fn size_grows_with_column_pairs() {
        let b = bench(0.0, 9);
        let idx = QcrIndex::build(&b.lake, 64);
        assert!(idx.size_bytes() > idx.n_sketches() * 9);
    }
}
