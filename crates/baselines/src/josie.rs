//! JOSIE (Zhu et al., SIGMOD 2019) — overlap set similarity search for
//! joinable-table discovery.
//!
//! The baseline of the paper's single-column join experiments (Fig. 5/6).
//! JOSIE models every lake column as a *set* of distinct tokens and answers
//! "top-k sets by overlap with query set Q" using an inverted index from
//! token to set ids.
//!
//! This implementation keeps JOSIE's two essential ideas:
//!
//! 1. **Frequency-ordered probing** — query tokens are processed from
//!    rarest to most frequent, so candidate discovery happens on the cheap
//!    posting lists first;
//! 2. **Top-k upper-bound pruning** — after `i` tokens, an unseen set can
//!    reach overlap at most `|Q| - i`; once the running k-th best overlap
//!    meets that bound, *no new candidates* are admitted and the remaining
//!    (longest) posting lists are only used to finish counting existing
//!    candidates — the posting-list/candidate cost trade-off at the heart
//!    of the original's cost model, in its simplest effective form.
//!
//! Results are exact (pruning only skips work that cannot change the
//! outcome), which the tests verify against the brute-force oracle.

use blend_common::{FxHashMap, TableId};
use blend_lake::DataLake;

/// One indexed set: a lake column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetRef {
    pub table: u32,
    pub column: u32,
    /// Distinct-token count of the set (for containment metrics).
    pub size: u32,
}

/// A search hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JosieHit {
    pub set: SetRef,
    pub overlap: u32,
}

/// The JOSIE index.
pub struct JosieIndex {
    /// Token dictionary.
    dict: FxHashMap<Box<str>, u32>,
    /// Postings: token id → sorted set ids.
    postings: Vec<Vec<u32>>,
    /// Set directory.
    sets: Vec<SetRef>,
    token_bytes: usize,
}

impl JosieIndex {
    /// Build from a lake: one set per column, distinct normalized values.
    pub fn build(lake: &DataLake) -> Self {
        let mut dict: FxHashMap<Box<str>, u32> = FxHashMap::default();
        let mut postings: Vec<Vec<u32>> = Vec::new();
        let mut sets: Vec<SetRef> = Vec::new();
        let mut token_bytes = 0usize;

        for table in &lake.tables {
            for (ci, col) in table.columns.iter().enumerate() {
                let set_id = sets.len() as u32;
                let mut distinct: Vec<u32> = col
                    .values
                    .iter()
                    .filter_map(|v| v.normalized())
                    .map(|norm| match dict.get(norm.as_ref()) {
                        Some(&t) => t,
                        None => {
                            let t = postings.len() as u32;
                            token_bytes += norm.len();
                            dict.insert(norm.as_ref().into(), t);
                            postings.push(Vec::new());
                            t
                        }
                    })
                    .collect();
                distinct.sort_unstable();
                distinct.dedup();
                for &t in &distinct {
                    postings[t as usize].push(set_id);
                }
                sets.push(SetRef {
                    table: table.id.0,
                    column: ci as u32,
                    size: distinct.len() as u32,
                });
            }
        }
        JosieIndex {
            dict,
            postings,
            sets,
            token_bytes,
        }
    }

    /// Number of indexed sets.
    pub fn n_sets(&self) -> usize {
        self.sets.len()
    }

    /// Top-k *sets* by overlap with the query tokens.
    pub fn query_sets(&self, query: &[String], k: usize) -> Vec<JosieHit> {
        // Map to token ids; unknown tokens can never match.
        let mut toks: Vec<u32> = query
            .iter()
            .filter_map(|v| self.dict.get(v.as_str()).copied())
            .collect();
        toks.sort_unstable();
        toks.dedup();
        // Rarest-first ordering.
        toks.sort_by_key(|&t| self.postings[t as usize].len());

        let mut counts: FxHashMap<u32, u32> = FxHashMap::default();
        let mut topk = blend_common::topk::TopK::new(k);
        let mut frozen = false;

        for (i, &t) in toks.iter().enumerate() {
            let remaining = (toks.len() - i) as u32;
            if !frozen {
                if let Some(thresh) = kth_count(&counts, k) {
                    // Strict inequality: an unseen set could still *tie* at
                    // exactly `remaining` and win the deterministic id
                    // tiebreak, so freezing at equality would be lossy.
                    if thresh > remaining {
                        frozen = true;
                    }
                }
            }
            for &s in &self.postings[t as usize] {
                match counts.get_mut(&s) {
                    Some(c) => *c += 1,
                    None if !frozen => {
                        counts.insert(s, 1);
                    }
                    None => {}
                }
            }
        }

        for (s, c) in counts {
            // Tiebreak by set id for determinism.
            topk.push(
                c as f64,
                s as u64,
                JosieHit {
                    set: self.sets[s as usize],
                    overlap: c,
                },
            );
        }
        topk.into_sorted().into_iter().map(|(_, h)| h).collect()
    }

    /// Top-k *tables* by their best column overlap (the granularity the
    /// paper's experiments report). Internally over-fetches sets because
    /// several top sets can belong to one table.
    pub fn query(&self, query: &[String], k: usize) -> Vec<(TableId, u32)> {
        let hits = self.query_sets(query, k.saturating_mul(12).max(k + 32));
        let mut best: FxHashMap<u32, u32> = FxHashMap::default();
        let mut order: Vec<u32> = Vec::new();
        for h in hits {
            let e = best.entry(h.set.table).or_insert_with(|| {
                order.push(h.set.table);
                0
            });
            *e = (*e).max(h.overlap);
        }
        let mut topk = blend_common::topk::TopK::new(k);
        for t in order {
            topk.push(best[&t] as f64, t as u64, (TableId(t), best[&t]));
        }
        topk.into_sorted().into_iter().map(|(_, x)| x).collect()
    }

    /// Estimated resident bytes (Table VIII input): dictionary strings,
    /// posting lists, set directory.
    pub fn size_bytes(&self) -> usize {
        let dict_bytes = self.token_bytes + self.dict.len() * 24;
        let postings_bytes: usize = self
            .postings
            .iter()
            .map(|p| p.len() * 4 + std::mem::size_of::<Vec<u32>>())
            .sum();
        let set_bytes = self.sets.len() * std::mem::size_of::<SetRef>();
        dict_bytes + postings_bytes + set_bytes
    }
}

fn kth_count(counts: &FxHashMap<u32, u32>, k: usize) -> Option<u32> {
    if counts.len() < k {
        return None;
    }
    // Exact k-th largest; candidate maps are small in practice.
    let mut v: Vec<u32> = counts.values().copied().collect();
    v.sort_unstable_by(|a, b| b.cmp(a));
    v.get(k - 1).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use blend_lake::ground_truth::exact_sc_topk;
    use blend_lake::web::{generate, WebLakeConfig};
    use blend_lake::workloads::sc_queries;

    fn lake() -> DataLake {
        generate(&WebLakeConfig {
            name: "josie-test".into(),
            n_tables: 80,
            rows: (10, 40),
            cols: (2, 5),
            vocab: 600,
            zipf_s: 1.0,
            numeric_col_ratio: 0.2,
            null_ratio: 0.05,
            seed: 77,
        })
    }

    #[test]
    fn matches_brute_force_overlaps() {
        let lake = lake();
        let idx = JosieIndex::build(&lake);
        for (_, queries) in sc_queries(&lake, &[5, 30], 4, 9) {
            for q in queries {
                let got = idx.query(&q, 10);
                let want = exact_sc_topk(&lake, &q, 10);
                // Overlap sequences must match exactly (identical ranking up
                // to ties, which both sides break by table id).
                let got_scores: Vec<u32> = got.iter().map(|(_, o)| *o).collect();
                let want_scores: Vec<u32> = want.iter().map(|(_, o)| *o as u32).collect();
                assert_eq!(got_scores, want_scores, "query {q:?}");
                for ((gt, go), (wt, wo)) in got.iter().zip(&want) {
                    assert_eq!(go, &(*wo as u32));
                    assert_eq!(gt, wt);
                }
            }
        }
    }

    #[test]
    fn unknown_tokens_are_ignored() {
        let lake = lake();
        let idx = JosieIndex::build(&lake);
        let q = vec!["definitely-not-in-the-lake".to_string()];
        assert!(idx.query(&q, 5).is_empty());
    }

    #[test]
    fn set_granularity_counts_distinct() {
        let lake = lake();
        let idx = JosieIndex::build(&lake);
        // A query equal to one full column must find that column with
        // overlap = its distinct size.
        let t = &lake.tables[3];
        let col = &t.columns[0];
        let mut q: Vec<String> = col
            .values
            .iter()
            .filter_map(|v| v.normalized().map(|c| c.into_owned()))
            .collect();
        q.sort_unstable();
        q.dedup();
        let hits = idx.query_sets(&q, 5);
        let own = hits
            .iter()
            .find(|h| h.set.table == t.id.0 && h.set.column == 0)
            .expect("own column found");
        assert_eq!(own.overlap, own.set.size);
        assert_eq!(own.overlap as usize, q.len());
    }

    #[test]
    fn pruning_never_loses_results() {
        // Stress the frozen-path: tiny k against broad queries.
        let lake = lake();
        let idx = JosieIndex::build(&lake);
        for (_, queries) in sc_queries(&lake, &[80], 3, 21) {
            for q in queries {
                let got = idx.query(&q, 3);
                let want = exact_sc_topk(&lake, &q, 3);
                assert_eq!(
                    got.iter().map(|(_, o)| *o).collect::<Vec<_>>(),
                    want.iter().map(|(_, o)| *o as u32).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn size_accounting_positive_and_scales() {
        let lake = lake();
        let idx = JosieIndex::build(&lake);
        assert!(idx.size_bytes() > 0);
        assert!(idx.n_sets() > 0);
    }
}
