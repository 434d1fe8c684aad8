//! HNSW — Hierarchical Navigable Small World graphs (Malkov & Yashunin).
//!
//! The paper's semantic baselines (Starmie, DeepJoin) owe their speed to an
//! HNSW index over column embeddings; reproducing their runtime profile
//! (Fig. 6a, Fig. 7) requires an actual graph index, not brute force. This
//! is a from-scratch implementation with the standard structure:
//!
//! * each point gets a geometric random level; layer 0 holds all points,
//!   higher layers are progressively sparser "express lanes";
//! * `insert` greedily descends from the entry point, then runs an
//!   `ef_construction`-bounded beam search per layer and links the `M`
//!   closest neighbors (with back-links, pruned to the layer cap);
//! * `search` descends greedily to layer 1 and beam-searches layer 0 with
//!   `ef_search`.
//!
//! Distances are abstracted behind [`Metric`]; [`CosineDistance`] works on
//! ℓ2-normalized vectors as produced by [`crate::embed`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::{Rng, SeedableRng};

use blend_common::FxHashSet;

/// Distance between two points (smaller = closer).
pub trait Metric<P>: Send + Sync {
    fn distance(&self, a: &P, b: &P) -> f32;
}

/// Cosine distance `1 - a·b` for ℓ2-normalized `Vec<f32>` points.
#[derive(Debug, Clone, Copy, Default)]
pub struct CosineDistance;

impl Metric<Vec<f32>> for CosineDistance {
    #[inline]
    fn distance(&self, a: &Vec<f32>, b: &Vec<f32>) -> f32 {
        let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        1.0 - dot
    }
}

/// Euclidean distance for `Vec<f32>` points.
#[derive(Debug, Clone, Copy, Default)]
pub struct EuclideanDistance;

impl Metric<Vec<f32>> for EuclideanDistance {
    #[inline]
    fn distance(&self, a: &Vec<f32>, b: &Vec<f32>) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f32>()
            .sqrt()
    }
}

/// Ordered f32 wrapper for heaps.
#[derive(Debug, Clone, Copy, PartialEq)]
struct D(f32);
impl Eq for D {}
impl PartialOrd for D {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for D {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The HNSW index.
pub struct Hnsw<P, M: Metric<P>> {
    metric: M,
    points: Vec<P>,
    /// Top level of each point.
    levels: Vec<u8>,
    /// `neighbors[level][node]` — adjacency per layer. Nodes absent from a
    /// layer have empty lists.
    neighbors: Vec<Vec<Vec<u32>>>,
    entry: Option<u32>,
    /// Max links per node on layers > 0 (layer 0 allows 2M).
    m: usize,
    ef_construction: usize,
    level_mult: f64,
    rng: rand::rngs::StdRng,
}

impl<P, M: Metric<P>> Hnsw<P, M> {
    /// New empty index. Typical parameters: `m = 16`,
    /// `ef_construction = 100`.
    pub fn new(metric: M, m: usize, ef_construction: usize, seed: u64) -> Self {
        assert!(m >= 2, "HNSW needs m >= 2");
        Hnsw {
            metric,
            points: Vec::new(),
            levels: Vec::new(),
            neighbors: vec![Vec::new()],
            entry: None,
            m,
            ef_construction: ef_construction.max(m),
            level_mult: 1.0 / (m as f64).ln(),
            rng: rand::rngs::StdRng::seed_from_u64(seed),
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Access a stored point.
    pub fn point(&self, id: u32) -> &P {
        &self.points[id as usize]
    }

    /// Estimated resident bytes (points are counted by the caller since
    /// `P` is opaque; this covers the graph).
    pub fn graph_bytes(&self) -> usize {
        self.neighbors
            .iter()
            .flat_map(|layer| layer.iter())
            .map(|n| n.len() * 4 + std::mem::size_of::<Vec<u32>>())
            .sum()
    }

    fn random_level(&mut self) -> u8 {
        let u: f64 = self.rng.random::<f64>().max(1e-12);
        ((-u.ln() * self.level_mult).floor() as usize).min(31) as u8
    }

    /// Greedy descent on one layer: move to the closest neighbor until no
    /// improvement.
    fn greedy_step(&self, q: &P, mut cur: u32, level: usize) -> u32 {
        let mut cur_d = self.metric.distance(q, &self.points[cur as usize]);
        loop {
            let mut improved = false;
            for &n in &self.neighbors[level][cur as usize] {
                let d = self.metric.distance(q, &self.points[n as usize]);
                if d < cur_d {
                    cur = n;
                    cur_d = d;
                    improved = true;
                }
            }
            if !improved {
                return cur;
            }
        }
    }

    /// Beam search on one layer from `entries`, returning up to `ef`
    /// closest nodes as (distance, id) sorted ascending.
    fn search_layer(&self, q: &P, entries: &[u32], ef: usize, level: usize) -> Vec<(f32, u32)> {
        let mut visited: FxHashSet<u32> = FxHashSet::default();
        // Candidates: min-heap by distance; results: max-heap by distance.
        let mut candidates: BinaryHeap<Reverse<(D, u32)>> = BinaryHeap::new();
        let mut results: BinaryHeap<(D, u32)> = BinaryHeap::new();
        for &e in entries {
            if visited.insert(e) {
                let d = self.metric.distance(q, &self.points[e as usize]);
                candidates.push(Reverse((D(d), e)));
                results.push((D(d), e));
            }
        }
        while results.len() > ef {
            results.pop();
        }
        while let Some(Reverse((D(d), node))) = candidates.pop() {
            let worst = results.peek().map_or(f32::INFINITY, |(D(w), _)| *w);
            if d > worst && results.len() >= ef {
                break;
            }
            for &n in &self.neighbors[level][node as usize] {
                if !visited.insert(n) {
                    continue;
                }
                let dn = self.metric.distance(q, &self.points[n as usize]);
                let worst = results.peek().map_or(f32::INFINITY, |(D(w), _)| *w);
                if results.len() < ef || dn < worst {
                    candidates.push(Reverse((D(dn), n)));
                    results.push((D(dn), n));
                    if results.len() > ef {
                        results.pop();
                    }
                }
            }
        }
        let mut out: Vec<(f32, u32)> = results.into_iter().map(|(D(d), n)| (d, n)).collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        out
    }

    /// Insert a point, returning its id.
    pub fn insert(&mut self, point: P) -> u32 {
        let id = self.points.len() as u32;
        let level = self.random_level() as usize;
        self.points.push(point);
        self.levels.push(level as u8);
        while self.neighbors.len() <= level {
            let layer: Vec<Vec<u32>> = vec![Vec::new(); self.points.len()];
            self.neighbors.push(layer);
        }
        for layer in &mut self.neighbors {
            layer.resize(self.points.len(), Vec::new());
        }

        let Some(entry) = self.entry else {
            self.entry = Some(id);
            return id;
        };

        let top = self.levels[entry as usize] as usize;

        // Phase 1: greedy descent above the insertion level.
        let mut cur = entry;
        let mut l = top;
        while l > level {
            cur = self.greedy_step_owned(id, cur, l);
            l -= 1;
        }

        // Phase 2: beam search and linking from min(top, level) down to 0.
        let mut entries = vec![cur];
        let start = level.min(top);
        for lev in (0..=start).rev() {
            let found = {
                let q = &self.points[id as usize];
                self.search_layer(q, &entries, self.ef_construction, lev)
            };
            let cap = if lev == 0 { self.m * 2 } else { self.m };
            let selected: Vec<u32> = found.iter().take(cap).map(|&(_, n)| n).collect();
            // Bidirectional links with pruning.
            self.neighbors[lev][id as usize] = selected.clone();
            for n in selected {
                self.neighbors[lev][n as usize].push(id);
                if self.neighbors[lev][n as usize].len() > cap {
                    self.prune(n, lev, cap);
                }
            }
            entries = found.into_iter().map(|(_, n)| n).collect();
        }

        if level > top {
            self.entry = Some(id);
        }
        id
    }

    /// `greedy_step` helper that reads the query point by id (borrow-split).
    fn greedy_step_owned(&self, qid: u32, cur: u32, level: usize) -> u32 {
        // Safe: distinct indices, read-only.
        let q = &self.points[qid as usize];
        self.greedy_step(q, cur, level)
    }

    /// Keep only the `cap` closest neighbors of `node` on `level`.
    fn prune(&mut self, node: u32, level: usize, cap: usize) {
        let base = &self.points[node as usize];
        let mut with_d: Vec<(f32, u32)> = self.neighbors[level][node as usize]
            .iter()
            .map(|&n| (self.metric.distance(base, &self.points[n as usize]), n))
            .collect();
        with_d.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        with_d.truncate(cap);
        self.neighbors[level][node as usize] = with_d.into_iter().map(|(_, n)| n).collect();
    }

    /// k-nearest-neighbor search. Returns `(id, distance)` ascending.
    pub fn search(&self, q: &P, k: usize, ef_search: usize) -> Vec<(u32, f32)> {
        let Some(entry) = self.entry else {
            return Vec::new();
        };
        let top = self.levels[entry as usize] as usize;
        let mut cur = entry;
        for l in (1..=top).rev() {
            cur = self.greedy_step(q, cur, l);
        }
        let ef = ef_search.max(k);
        let found = self.search_layer(q, &[cur], ef, 0);
        found.into_iter().take(k).map(|(d, n)| (n, d)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn normed(v: Vec<f32>) -> Vec<f32> {
        let n = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-9);
        v.into_iter().map(|x| x / n).collect()
    }

    fn random_unit_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| normed((0..dim).map(|_| rng.random::<f32>() - 0.5).collect()))
            .collect()
    }

    fn brute_force_knn(points: &[Vec<f32>], q: &Vec<f32>, k: usize) -> Vec<u32> {
        let m = CosineDistance;
        let mut ds: Vec<(f32, u32)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| (m.distance(q, p), i as u32))
            .collect();
        ds.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        ds.into_iter().take(k).map(|(_, i)| i).collect()
    }

    #[test]
    fn empty_index_returns_nothing() {
        let h: Hnsw<Vec<f32>, _> = Hnsw::new(CosineDistance, 8, 32, 1);
        assert!(h.search(&vec![1.0, 0.0], 5, 32).is_empty());
        assert!(h.is_empty());
    }

    #[test]
    fn single_point() {
        let mut h = Hnsw::new(CosineDistance, 8, 32, 1);
        let id = h.insert(normed(vec![1.0, 2.0, 3.0]));
        let r = h.search(&normed(vec![1.0, 2.0, 3.0]), 3, 16);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].0, id);
        assert!(r[0].1.abs() < 1e-5);
    }

    #[test]
    fn exact_match_is_found() {
        let points = random_unit_vectors(200, 16, 7);
        let mut h = Hnsw::new(CosineDistance, 12, 64, 7);
        for p in &points {
            h.insert(p.clone());
        }
        for (i, p) in points.iter().enumerate().step_by(17) {
            let r = h.search(p, 1, 64);
            assert_eq!(r[0].0, i as u32, "exact self-match");
        }
    }

    #[test]
    fn recall_against_brute_force() {
        let points = random_unit_vectors(500, 24, 42);
        let mut h = Hnsw::new(CosineDistance, 16, 128, 42);
        for p in &points {
            h.insert(p.clone());
        }
        let queries = random_unit_vectors(30, 24, 1234);
        let mut hits = 0usize;
        let mut total = 0usize;
        for q in &queries {
            let approx: FxHashSet<u32> = h.search(q, 10, 128).into_iter().map(|(i, _)| i).collect();
            let exact = brute_force_knn(&points, q, 10);
            total += exact.len();
            hits += exact.iter().filter(|e| approx.contains(e)).count();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall >= 0.9, "HNSW recall too low: {recall}");
    }

    #[test]
    fn distances_sorted_ascending() {
        let points = random_unit_vectors(100, 8, 3);
        let mut h = Hnsw::new(CosineDistance, 8, 64, 3);
        for p in &points {
            h.insert(p.clone());
        }
        let r = h.search(&points[0], 10, 64);
        assert!(r.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn graph_degree_bounded() {
        let points = random_unit_vectors(300, 8, 9);
        let mut h = Hnsw::new(CosineDistance, 6, 32, 9);
        for p in &points {
            h.insert(p.clone());
        }
        for (lev, layer) in h.neighbors.iter().enumerate() {
            let cap = if lev == 0 { 12 } else { 6 };
            for n in layer {
                assert!(
                    n.len() <= cap,
                    "degree {} > cap {cap} at level {lev}",
                    n.len()
                );
            }
        }
        assert!(h.graph_bytes() > 0);
    }

    #[test]
    fn euclidean_metric_works() {
        let mut h = Hnsw::new(EuclideanDistance, 8, 32, 5);
        for i in 0..50 {
            h.insert(vec![i as f32, 0.0]);
        }
        let r = h.search(&vec![20.2, 0.0], 3, 32);
        assert_eq!(r[0].0, 20);
    }
}
