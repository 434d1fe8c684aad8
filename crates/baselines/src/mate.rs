//! MATE (Esmailoghli et al., VLDB 2022) — multi-attribute (composite-key)
//! join discovery, the baseline of the paper's Table V and the negative-
//! example task of Table III.
//!
//! The standalone pipeline, as in the original:
//!
//! 1. **Fetch** — probe the inverted index with the values of *one* query
//!    key column (the most selective one) to obtain candidate
//!    `(table, row)` pairs;
//! 2. **Filter** — check the remaining query-row values against the
//!    candidate row's XASH super key (bloom subset test), discarding rows
//!    that cannot align;
//! 3. **Validate** — fetch the actual lake row and verify every composite-
//!    key value is really present ("exact match validation").
//!
//! The crucial difference from BLEND's MC seeker (and the source of the
//! paper's Table V precision gap): MATE's SQL phase constrains only a
//! *single* column, so everything after relies on the 128-bit super key —
//! whereas BLEND's rewritten SQL joins index hits of *all* key columns on
//! `(TableId, RowId)` before the super key is even consulted. Both end at
//! 100% recall (bloom filters cannot produce false negatives); MATE simply
//! validates far more false candidates.

use blend_common::{FxHashMap, FxHashSet, TableId};
use blend_index::Xash;
use blend_lake::DataLake;

/// One candidate produced by the filter phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Candidate {
    table: u32,
    row: u32,
    /// Index of the query row whose key matched.
    query_row: u32,
}

/// Query outcome with the bookkeeping Table V reports.
#[derive(Debug, Clone, PartialEq)]
pub struct MateResult {
    /// Top-k tables with validated joinable-row counts.
    pub tables: Vec<(TableId, u32)>,
    /// Candidate rows that passed filtering and validated (true positives).
    pub tp: usize,
    /// Candidate rows that passed filtering but failed validation.
    pub fp: usize,
}

impl MateResult {
    /// Filter-phase precision, as defined in the paper's Table V.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }
}

/// The standalone MATE index.
pub struct MateIndex {
    /// Inverted index: value → (table, column, row).
    postings: FxHashMap<Box<str>, Vec<(u32, u32, u32)>>,
    /// Super keys per table, indexed by row id.
    superkeys: Vec<Vec<u128>>,
    value_bytes: usize,
}

impl MateIndex {
    /// Build from a lake.
    pub fn build(lake: &DataLake) -> Self {
        let mut postings: FxHashMap<Box<str>, Vec<(u32, u32, u32)>> = FxHashMap::default();
        let mut superkeys: Vec<Vec<u128>> = Vec::with_capacity(lake.len());
        let mut value_bytes = 0usize;

        for table in &lake.tables {
            let mut sks = vec![0u128; table.n_rows()];
            for (r, sk) in sks.iter_mut().enumerate() {
                let mut x = Xash::new();
                for v in table.row(r) {
                    if let Some(n) = v.normalized() {
                        x.add(&n);
                    }
                }
                *sk = x.finish();
            }
            for (ci, col) in table.columns.iter().enumerate() {
                for (ri, v) in col.values.iter().enumerate() {
                    if let Some(n) = v.normalized() {
                        let entry = postings.entry(n.as_ref().into());
                        if let std::collections::hash_map::Entry::Vacant(_) = entry {
                            value_bytes += n.len();
                        }
                        entry.or_default().push((table.id.0, ci as u32, ri as u32));
                    }
                }
            }
            superkeys.push(sks);
        }
        MateIndex {
            postings,
            superkeys,
            value_bytes,
        }
    }

    /// Pick the most selective query column: the one whose values have the
    /// smallest total posting length (MATE's initial-column heuristic).
    fn key_column(&self, rows: &[Vec<String>]) -> usize {
        let arity = rows.first().map_or(0, Vec::len);
        (0..arity)
            .min_by_key(|&c| {
                rows.iter()
                    .map(|r| self.postings.get(r[c].as_str()).map_or(0, Vec::len))
                    .sum::<usize>()
            })
            .unwrap_or(0)
    }

    /// Run the fetch→filter→validate pipeline. `lake` provides the raw
    /// tables for the validation phase (MATE keeps them external to the
    /// index, as the original does).
    pub fn query(&self, lake: &DataLake, rows: &[Vec<String>], k: usize) -> MateResult {
        if rows.is_empty() || rows[0].len() < 2 {
            return MateResult {
                tables: Vec::new(),
                tp: 0,
                fp: 0,
            };
        }
        let key_col = self.key_column(rows);

        // Fetch: candidate rows from the key column's postings, each with
        // the query rows whose key value produced it.
        let mut candidates: FxHashMap<(u32, u32), Vec<u32>> = FxHashMap::default();
        for (qr, row) in rows.iter().enumerate() {
            if let Some(ps) = self.postings.get(row[key_col].as_str()) {
                for &(t, _c, r) in ps {
                    let hyps = candidates.entry((t, r)).or_default();
                    if !hyps.contains(&(qr as u32)) {
                        hyps.push(qr as u32);
                    }
                }
            }
        }

        // Filter: XASH super-key subset test on the remaining columns. A
        // candidate row survives when at least one query-row hypothesis
        // passes the bloom test.
        let mut survivors: Vec<(Candidate, Vec<u32>)> = Vec::new();
        for ((t, r), hyps) in candidates {
            let sk = self.superkeys[t as usize][r as usize];
            let passing: Vec<u32> = hyps
                .into_iter()
                .filter(|&qr| {
                    let qrow = &rows[qr as usize];
                    let others = qrow
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| i != key_col)
                        .map(|(_, v)| v.as_str());
                    Xash::may_contain_all(sk, others)
                })
                .collect();
            if let Some(&first) = passing.first() {
                survivors.push((
                    Candidate {
                        table: t,
                        row: r,
                        query_row: first,
                    },
                    passing,
                ));
            }
        }

        // Validate: exact containment against the raw lake row. TP/FP are
        // counted per candidate *row*, the granularity of paper Table V.
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut joinable: FxHashMap<u32, FxHashSet<u32>> = FxHashMap::default();
        for (c, hyps) in &survivors {
            let table = lake.table(TableId(c.table));
            let row_vals: FxHashSet<String> = table
                .row(c.row as usize)
                .filter_map(|v| v.normalized().map(|n| n.into_owned()))
                .collect();
            let validated = hyps
                .iter()
                .any(|&qr| rows[qr as usize].iter().all(|v| row_vals.contains(v)));
            if validated {
                tp += 1;
                joinable.entry(c.table).or_default().insert(c.row);
            } else {
                fp += 1;
            }
        }

        let mut topk = blend_common::topk::TopK::new(k);
        for (t, rows) in joinable {
            topk.push(rows.len() as f64, t as u64, (TableId(t), rows.len() as u32));
        }
        MateResult {
            tables: topk.into_sorted().into_iter().map(|(_, x)| x).collect(),
            tp,
            fp,
        }
    }

    /// Estimated resident bytes (Table VIII input).
    pub fn size_bytes(&self) -> usize {
        let postings_bytes: usize = self
            .postings
            .values()
            .map(|p| p.len() * 12 + std::mem::size_of::<Vec<u32>>())
            .sum();
        let key_bytes = self.value_bytes + self.postings.len() * 24;
        let sk_bytes: usize = self.superkeys.iter().map(|s| s.len() * 16).sum();
        postings_bytes + key_bytes + sk_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blend_lake::ground_truth::exact_mc_join_counts;
    use blend_lake::web::{generate, WebLakeConfig};
    use blend_lake::workloads::mc_queries;

    fn lake() -> DataLake {
        generate(&WebLakeConfig {
            name: "mate-test".into(),
            n_tables: 60,
            rows: (10, 30),
            cols: (3, 5),
            vocab: 400,
            zipf_s: 1.0,
            numeric_col_ratio: 0.2,
            null_ratio: 0.0,
            seed: 99,
        })
    }

    #[test]
    fn finds_source_table_with_full_recall() {
        let lake = lake();
        let idx = MateIndex::build(&lake);
        for q in mc_queries(&lake, 6, 2, 5, 3) {
            // Unbounded k: the 100%-recall property says no joinable table
            // is *filtered away* (top-k truncation is a separate concern —
            // with Zipf-head values many tables out-join the small source).
            let res = idx.query(&lake, &q.rows, usize::MAX);
            assert!(
                res.tables.iter().any(|(t, _)| *t == q.source),
                "source table {:?} missing from {:?}",
                q.source,
                res.tables
            );
        }
    }

    #[test]
    fn validated_counts_match_ground_truth() {
        let lake = lake();
        let idx = MateIndex::build(&lake);
        for q in mc_queries(&lake, 5, 2, 4, 17) {
            let res = idx.query(&lake, &q.rows, usize::MAX);
            let gt = exact_mc_join_counts(&lake, &q.rows);
            for (t, n) in &res.tables {
                assert_eq!(
                    gt.get(t).copied().unwrap_or(0) as u32,
                    *n,
                    "table {t:?} count mismatch"
                );
            }
            // Recall: every ground-truth table with joinable rows appears.
            for t in gt.keys() {
                assert!(res.tables.iter().any(|(rt, _)| rt == t));
            }
        }
    }

    #[test]
    fn filter_produces_false_positives_validation_removes_them() {
        // The superkey filter alone must be imperfect (otherwise Table V
        // would be trivial); validation must fix precision to 1.0.
        let lake = lake();
        let idx = MateIndex::build(&lake);
        let mut total_fp = 0usize;
        for q in mc_queries(&lake, 10, 2, 6, 29) {
            let res = idx.query(&lake, &q.rows, 10);
            total_fp += res.fp;
            // Validated tables only contain truly joinable rows (checked
            // against ground truth above); fp counts the filter's slack.
        }
        assert!(
            total_fp > 0,
            "XASH filter unexpectedly perfect on this workload; \
             weaken the test lake if the hash was improved"
        );
    }

    #[test]
    fn degenerate_queries_are_rejected() {
        let lake = lake();
        let idx = MateIndex::build(&lake);
        let res = idx.query(&lake, &[], 5);
        assert!(res.tables.is_empty());
        let res = idx.query(&lake, &[vec!["single".into()]], 5);
        assert!(res.tables.is_empty());
    }

    #[test]
    fn key_column_prefers_selective_values() {
        let lake = lake();
        let idx = MateIndex::build(&lake);
        // Column 0: very frequent value; column 1: rare values.
        let rows = vec![
            vec!["v0".to_string(), "v399".to_string()],
            vec!["v1".to_string(), "v398".to_string()],
        ];
        assert_eq!(idx.key_column(&rows), 1);
    }

    #[test]
    fn size_accounting() {
        let lake = lake();
        let idx = MateIndex::build(&lake);
        assert!(idx.size_bytes() > 0);
    }
}
