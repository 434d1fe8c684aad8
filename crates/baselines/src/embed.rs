//! Deterministic column embeddings via feature hashing.
//!
//! **Substitution notice** (DESIGN.md §4): the paper's semantic baselines
//! encode columns with trained language models — Starmie with a contrastive
//! encoder, DeepJoin with a fine-tuned PLM. Neither a GPU nor pretrained
//! weights are available offline, so this crate provides the closest
//! deterministic stand-in: a *hashed bag-of-features* encoder over value
//! tokens and character trigrams. It preserves the property the experiments
//! depend on — columns drawn from the same domain get nearby vectors even
//! when their exact value sets barely overlap — while remaining fast enough
//! to index whole lakes, and it plugs into the same HNSW retrieval stack.
//!
//! Features per column:
//! * word tokens of each normalized value (weight 1.0, sublinear TF), and
//! * character trigrams of each token (weight `trigram_weight`), which give
//!   lexically related vocabularies ("c3f1-0017" vs "c3f1-0042") similarity
//!   without exact matches.
//!
//! Vectors are ℓ2-normalized so cosine similarity is a dot product.

use blend_common::hash::{combine, hash_str, mix64};
use blend_common::{text, FxHashMap};

/// The column encoder.
#[derive(Debug, Clone)]
pub struct Embedder {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Hash seed (different seeds = different random projections).
    pub seed: u64,
    /// Relative weight of character-trigram features.
    pub trigram_weight: f32,
}

impl Embedder {
    /// Standard configuration (64 dimensions).
    pub fn new(dim: usize, seed: u64) -> Self {
        Embedder {
            dim,
            seed,
            trigram_weight: 0.5,
        }
    }

    #[inline]
    fn slot(&self, feature: u64) -> (usize, f32) {
        let h = mix64(combine(self.seed, feature));
        let idx = (h % self.dim as u64) as usize;
        let sign = if (h >> 63) == 0 { 1.0 } else { -1.0 };
        (idx, sign)
    }

    /// Embed one cell value: hashed word tokens plus weighted character
    /// trigrams, ℓ2-normalized.
    pub fn embed_value(&self, raw: &str) -> Vec<f32> {
        let norm = text::normalize(raw);
        let mut tf: FxHashMap<u64, f32> = FxHashMap::default(); // feature -> weight
        for tok in text::tokens(&norm) {
            *tf.entry(hash_str(tok)).or_insert(0.0) += 1.0;
            for tri in text::trigrams(tok) {
                let tfh = combine(hash_str(&tri), 0x7213);
                *tf.entry(tfh).or_insert(0.0) += self.trigram_weight;
            }
        }
        let mut v = vec![0.0f32; self.dim];
        for (feature, weight) in tf {
            let (idx, sign) = self.slot(feature);
            v[idx] += sign * weight;
        }
        l2_normalize(&mut v);
        v
    }

    /// Embed a column as the normalized mean of its per-value embeddings.
    ///
    /// Averaging *normalized* value vectors is what makes domain structure
    /// dominate: features shared across a column's values (its domain
    /// vocabulary) accumulate coherently over `n` values, while value-unique
    /// features (serial numbers, ids) grow only like `√n` — so two columns
    /// from the same domain stay close even with zero exact value overlap.
    pub fn embed_column<S: AsRef<str>>(&self, values: &[S]) -> Vec<f32> {
        let mut acc = vec![0.0f32; self.dim];
        for v in values {
            let e = self.embed_value(v.as_ref());
            for (a, x) in acc.iter_mut().zip(e) {
                *a += x;
            }
        }
        l2_normalize(&mut acc);
        acc
    }

    /// Embed a whole table as the mean of its column embeddings
    /// (re-normalized). Used for coarse table-level retrieval.
    pub fn embed_table(&self, columns: &[Vec<String>]) -> Vec<f32> {
        let mut acc = vec![0.0f32; self.dim];
        for col in columns {
            let e = self.embed_column(col);
            for (a, x) in acc.iter_mut().zip(e) {
                *a += x;
            }
        }
        l2_normalize(&mut acc);
        acc
    }
}

/// In-place ℓ2 normalization (no-op on the zero vector).
pub fn l2_normalize(v: &mut [f32]) {
    let n = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if n > 1e-9 {
        for x in v {
            *x /= n;
        }
    }
}

/// Cosine similarity of two equal-length vectors.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emb() -> Embedder {
        Embedder::new(64, 0xE5EED)
    }

    #[test]
    fn deterministic() {
        let e = emb();
        let vals = ["Berlin", "Paris", "Rome"];
        assert_eq!(e.embed_column(&vals), e.embed_column(&vals));
    }

    #[test]
    fn normalized_output() {
        let e = emb();
        let v = e.embed_column(&["alpha", "beta", "gamma"]);
        let n: f32 = v.iter().map(|x| x * x).sum();
        assert!((n - 1.0).abs() < 1e-4);
    }

    #[test]
    fn same_domain_different_values_are_similar() {
        // The property the union benchmark relies on: shared token prefixes
        // give high similarity despite zero exact overlap.
        let e = emb();
        let a: Vec<String> = (0..30).map(|i| format!("c3f1-{:04}", i * 2)).collect();
        let b: Vec<String> = (0..30).map(|i| format!("c3f1-{:04}", i * 2 + 1)).collect();
        let unrelated: Vec<String> = (0..30).map(|i| format!("zz9q8-{i:04}")).collect();
        let va = e.embed_column(&a);
        let vb = e.embed_column(&b);
        let vu = e.embed_column(&unrelated);
        let sim_ab = cosine(&va, &vb);
        let sim_au = cosine(&va, &vu);
        assert!(
            sim_ab > sim_au + 0.2,
            "domain-mates {sim_ab} vs unrelated {sim_au}"
        );
    }

    #[test]
    fn identical_columns_have_similarity_one() {
        let e = emb();
        let v = e.embed_column(&["x1", "x2", "x3"]);
        assert!((cosine(&v, &v) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn empty_column_embeds_to_zero() {
        let e = emb();
        let v = e.embed_column::<&str>(&[]);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn table_embedding_blends_columns() {
        let e = emb();
        let t = e.embed_table(&[
            vec!["alpha".into(), "beta".into()],
            vec!["one".into(), "two".into()],
        ]);
        let c0 = e.embed_column(&["alpha", "beta"]);
        assert!(cosine(&t, &c0) > 0.3);
    }

    #[test]
    fn different_seeds_decorrelate() {
        let a = Embedder::new(64, 1).embed_column(&["alpha", "beta", "gamma"]);
        let b = Embedder::new(64, 2).embed_column(&["alpha", "beta", "gamma"]);
        assert!(cosine(&a, &b).abs() < 0.9);
    }
}
