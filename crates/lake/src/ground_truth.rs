//! Brute-force oracles for the quality experiments.
//!
//! Every approximate system in the workspace (BLEND seekers, JOSIE, MATE,
//! the sketches, HNSW retrieval) is scored against these exact, slow
//! implementations.

use blend_common::{text, ColumnType, FxHashMap, FxHashSet, TableId};

use crate::lake::DataLake;

/// Exact single-column join ground truth: for each lake table, the maximum
/// overlap between the query set and any single column's distinct values;
/// returns the top-k tables sorted by overlap (desc, ties by id).
pub fn exact_sc_topk(lake: &DataLake, query: &[String], k: usize) -> Vec<(TableId, usize)> {
    let q: FxHashSet<&str> = query.iter().map(String::as_str).collect();
    let mut topk = blend_common::topk::TopK::new(k);
    for t in &lake.tables {
        let mut best = 0usize;
        for c in &t.columns {
            let distinct: FxHashSet<String> = c
                .values
                .iter()
                .filter_map(|v| v.normalized().map(|n| n.into_owned()))
                .collect();
            let overlap = distinct.iter().filter(|v| q.contains(v.as_str())).count();
            best = best.max(overlap);
        }
        if best > 0 {
            topk.push(best as f64, t.id.0 as u64, (t.id, best));
        }
    }
    topk.into_sorted().into_iter().map(|(_, x)| x).collect()
}

/// Exact keyword-search ground truth: overlap measured over the whole
/// table's distinct values instead of a single column.
pub fn exact_kw_topk(lake: &DataLake, query: &[String], k: usize) -> Vec<(TableId, usize)> {
    let q: FxHashSet<&str> = query.iter().map(String::as_str).collect();
    let mut topk = blend_common::topk::TopK::new(k);
    for t in &lake.tables {
        let distinct: FxHashSet<String> = t
            .columns
            .iter()
            .flat_map(|c| c.values.iter().filter_map(|v| v.normalized()))
            .map(|c| c.into_owned())
            .collect();
        let overlap = distinct.iter().filter(|v| q.contains(v.as_str())).count();
        if overlap > 0 {
            topk.push(overlap as f64, t.id.0 as u64, (t.id, overlap));
        }
    }
    topk.into_sorted().into_iter().map(|(_, x)| x).collect()
}

/// Exact multi-column join ground truth: per table, the number of rows
/// joinable with the query's composite-key rows — a lake-table row is
/// joinable when some query row matches it on *all* key columns, in any
/// column assignment (which, for value-aligned rows, reduces to set
/// inclusion of the query row's values in the lake row's values).
pub fn exact_mc_join_counts(
    lake: &DataLake,
    query_rows: &[Vec<String>],
) -> FxHashMap<TableId, usize> {
    let query_sets: Vec<FxHashSet<&str>> = query_rows
        .iter()
        .map(|r| r.iter().map(String::as_str).collect())
        .collect();
    let mut out = FxHashMap::default();
    for t in &lake.tables {
        let mut joinable = 0usize;
        for r in 0..t.n_rows() {
            let row_vals: FxHashSet<String> = t
                .row(r)
                .filter_map(|v| v.normalized().map(|n| n.into_owned()))
                .collect();
            let hit = query_sets
                .iter()
                .any(|qs| qs.iter().all(|v| row_vals.contains(*v)));
            if hit {
                joinable += 1;
            }
        }
        if joinable > 0 {
            out.insert(t.id, joinable);
        }
    }
    out
}

/// Exact correlation ground truth, following Listing 3 cell by cell: the
/// keys split at the target mean (`k0` below it, `k1` at or above); per
/// table, every (key column, numeric column) pair over the rows with
/// `RowId < h` whose key cell holds a query key and whose numeric cell has
/// a quadrant bit (≥ its column's mean) counts `n` rows, of which a row is
/// concordant when its key is in `k0` and its bit is 0, or in `k1` and 1.
/// The pair scores the QCR `|2·concordant − n| / n` if `n ≥ min_matches`;
/// a table scores its best pair. Returns the top-k tables by score (desc,
/// ties by id).
pub fn exact_c_topk(
    lake: &DataLake,
    keys: &[String],
    target: &[f64],
    h: usize,
    min_matches: usize,
    k: usize,
) -> Vec<(TableId, f64)> {
    let split = blend_common::stats::mean(target).unwrap_or(0.0);
    let all: FxHashSet<String> = keys.iter().map(|key| text::normalize(key)).collect();
    let (mut k0, mut k1) = (FxHashSet::default(), FxHashSet::default());
    for (key, &t) in keys.iter().zip(target) {
        if t < split { &mut k0 } else { &mut k1 }.insert(text::normalize(key));
    }
    let mut topk = blend_common::topk::TopK::new(k);
    for t in &lake.tables {
        let rows = t.n_rows().min(h);
        // Quadrant bits of the numeric columns: NULL elsewhere.
        let bits: Vec<Option<Vec<Option<bool>>>> = (t.columns.iter())
            .map(|c| {
                let mean = (c.column_type() == ColumnType::Numeric)
                    .then(|| c.numeric_mean())
                    .flatten()?;
                Some(
                    c.values
                        .iter()
                        .map(|v| v.as_f64().map(|f| f >= mean))
                        .collect(),
                )
            })
            .collect();
        let mut best: Option<f64> = None;
        for (kc, key_col) in t.columns.iter().enumerate() {
            let key_cells: Vec<Option<String>> = key_col.values[..rows]
                .iter()
                .map(|v| v.normalized().map(|n| n.into_owned()))
                .collect();
            for (nc, bits) in bits.iter().enumerate() {
                let Some(bits) = bits.as_ref().filter(|_| nc != kc) else {
                    continue;
                };
                let (mut n, mut concordant) = (0i64, 0i64);
                for (key, &bit) in key_cells.iter().zip(&bits[..rows]) {
                    let (Some(key), Some(bit)) = (key.as_deref().filter(|v| all.contains(*v)), bit)
                    else {
                        continue;
                    };
                    n += 1;
                    concordant += ((!bit && k0.contains(key)) || (bit && k1.contains(key))) as i64;
                }
                if n > 0 && n as usize >= min_matches {
                    let score = ((2 * concordant - n) as f64 / n as f64).abs();
                    best = Some(best.map_or(score, |b: f64| b.max(score)));
                }
            }
        }
        if let Some(score) = best {
            topk.push(score, t.id.0 as u64, (t.id, score));
        }
    }
    topk.into_sorted().into_iter().map(|(_, x)| x).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use blend_common::{Column, Table};

    fn lake() -> DataLake {
        let t0 = Table::new(
            TableId(0),
            "t0",
            vec![
                Column::new("a", vec!["x", "y", "z"]),
                Column::new("b", vec!["p", "q", "r"]),
            ],
        )
        .unwrap();
        let t1 = Table::new(
            TableId(1),
            "t1",
            vec![
                Column::new("a", vec!["x", "y", "w"]),
                Column::new("b", vec!["1", "2", "3"]),
            ],
        )
        .unwrap();
        let t2 = Table::new(
            TableId(2),
            "t2",
            vec![Column::new("a", vec!["x", "p", "q"])],
        )
        .unwrap();
        DataLake::new("gt", vec![t0, t1, t2])
    }

    #[test]
    fn sc_ground_truth_measures_single_column_overlap() {
        let lake = lake();
        let q: Vec<String> = ["x", "y", "z"].iter().map(|s| s.to_string()).collect();
        let gt = exact_sc_topk(&lake, &q, 3);
        assert_eq!(gt[0], (TableId(0), 3));
        assert_eq!(gt[1], (TableId(1), 2));
        assert_eq!(gt[2], (TableId(2), 1));
    }

    #[test]
    fn kw_ground_truth_spans_columns() {
        let lake = lake();
        // "x" from column a and "q" from column b: KW counts both for t0,
        // SC would cap at 1 per column.
        let q: Vec<String> = ["x", "q"].iter().map(|s| s.to_string()).collect();
        let kw = exact_kw_topk(&lake, &q, 3);
        assert_eq!(kw[0].1, 2);
        // KW's winner must be t0 or t2 (t2 also has both x and q).
        assert!(kw[0].0 == TableId(0) || kw[0].0 == TableId(2));
        let sc = exact_sc_topk(&lake, &q, 3);
        // Single-column view: t0 caps at 1 (x and q live in different
        // columns) while t2 holds both in one column.
        assert_eq!(sc[0], (TableId(2), 2));
        let t0_overlap = sc.iter().find(|(t, _)| *t == TableId(0)).unwrap().1;
        assert_eq!(t0_overlap, 1);
    }

    #[test]
    fn mc_ground_truth_requires_same_row() {
        let lake = lake();
        // ("x","p") never co-occur in a row of t0 (x row has p? row0 = x,p!).
        let q = vec![vec!["x".to_string(), "p".to_string()]];
        let counts = exact_mc_join_counts(&lake, &q);
        // t0 row0 contains both x and p -> joinable.
        assert_eq!(counts.get(&TableId(0)), Some(&1));
        // t1 has x but no p.
        assert_eq!(counts.get(&TableId(1)), None);
    }

    #[test]
    fn c_ground_truth_scores_quadrant_concordance_per_column_pair() {
        // Keys a, b sit below the target mean and c, d above it. In t0 the
        // numeric column follows the split exactly on rows 0..4 (QCR 1),
        // row 4 (a key below the mean, a value at it) is excluded by h = 4;
        // in t1 half the rows disagree (QCR 0).
        let num = |v: [&str; 5]| Column::new("n", v.to_vec());
        let t0 = Table::new(
            TableId(0),
            "t0",
            vec![
                Column::new("k", vec!["a", "b", "c", "d", "a"]),
                num(["1", "2", "9", "8", "5"]),
            ],
        )
        .unwrap();
        let t1 = Table::new(
            TableId(1),
            "t1",
            vec![
                Column::new("k", vec!["a", "b", "c", "d", "x"]),
                num(["1", "9", "2", "8", "5"]),
            ],
        )
        .unwrap();
        let lake = DataLake::new("c", vec![t0, t1]);
        let keys: Vec<String> = ["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect();
        let target = [1.0, 2.0, 10.0, 20.0];
        assert_eq!(
            exact_c_topk(&lake, &keys, &target, 4, 3, 5),
            vec![(TableId(0), 1.0), (TableId(1), 0.0)]
        );
        // Too little support: five rows are needed, four fall below h.
        assert!(exact_c_topk(&lake, &keys, &target, 4, 5, 5).is_empty());
    }

    #[test]
    fn empty_query_matches_nothing() {
        let lake = lake();
        assert!(exact_sc_topk(&lake, &[], 5).is_empty());
        assert!(exact_kw_topk(&lake, &[], 5).is_empty());
    }
}
