//! Exact catalog statistics for the `AllTables` fact table.
//!
//! A real DBMS keeps histograms and distinct counts in its catalog; BLEND's
//! query rewriting leans on those ("cardinality estimates of the
//! intermediate results", Section III). Because our engines own the
//! inverted index they can afford *exact* statistics: postings lengths are
//! value frequencies, table ranges are table cardinalities.

/// Catalog statistics computed once at build time.
#[derive(Debug, Clone, PartialEq)]
pub struct FactStats {
    /// Total index rows (non-null lake cells).
    pub n_rows: usize,
    /// Number of distinct normalized cell values.
    pub n_distinct_values: usize,
    /// Number of lake tables present.
    pub n_tables: usize,
    /// Mean postings-list length (= mean value frequency).
    pub avg_value_frequency: f64,
    /// Length of the longest postings list (skew indicator).
    pub max_value_frequency: usize,
    /// Fraction of index rows with a non-NULL quadrant (numeric cells).
    pub numeric_fraction: f64,
}

impl FactStats {
    /// Compute stats from the canonical-order fact rows plus the finished
    /// postings directory sizes.
    pub fn compute(
        n_rows: usize,
        n_tables: usize,
        posting_lens: impl Iterator<Item = usize>,
        numeric_rows: usize,
    ) -> Self {
        let mut n_distinct = 0usize;
        let mut total = 0usize;
        let mut max = 0usize;
        for len in posting_lens {
            n_distinct += 1;
            total += len;
            max = max.max(len);
        }
        FactStats {
            n_rows,
            n_distinct_values: n_distinct,
            n_tables,
            avg_value_frequency: if n_distinct == 0 {
                0.0
            } else {
                total as f64 / n_distinct as f64
            },
            max_value_frequency: max,
            numeric_fraction: if n_rows == 0 {
                0.0
            } else {
                numeric_rows as f64 / n_rows as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_aggregates_posting_lengths() {
        let s = FactStats::compute(10, 2, [3usize, 5, 2].into_iter(), 4);
        assert_eq!(s.n_rows, 10);
        assert_eq!(s.n_distinct_values, 3);
        assert_eq!(s.max_value_frequency, 5);
        assert!((s.avg_value_frequency - 10.0 / 3.0).abs() < 1e-12);
        assert!((s.numeric_fraction - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = FactStats::compute(0, 0, std::iter::empty(), 0);
        assert_eq!(s.avg_value_frequency, 0.0);
        assert_eq!(s.numeric_fraction, 0.0);
    }
}
