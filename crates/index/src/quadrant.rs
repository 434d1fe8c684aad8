//! QCR quadrant bits (paper Section V).
//!
//! For every *numeric* column the indexer stores, per cell, one boolean:
//! `1` if the value is greater than or equal to the column average, `0`
//! otherwise; non-numeric cells store SQL NULL. With both the join side and
//! the target side reduced to booleans, the Quadrant Count Ratio becomes a
//! SQL `SUM(...)/COUNT(*)` (Listing 3) — no application-level correlation
//! code and, unlike the original QCR index, no quadratic column-pair
//! enumeration.

use blend_common::{Column, ColumnType};

/// Quadrant bits for one column: one entry per row, `None` = NULL.
///
/// A column participates only when its inferred type is numeric; numeric
/// *cells* inside categorical columns stay NULL, matching the paper's
/// column-typed treatment (the correlation seeker joins categorical keys
/// against numeric target columns).
pub fn column_quadrants(col: &Column) -> Vec<Option<bool>> {
    let numeric = col.column_type() == ColumnType::Numeric;
    match numeric.then(|| col.numeric_mean()).flatten() {
        None => vec![None; col.values.len()],
        Some(m) => (col.values.iter())
            .map(|v| v.as_f64().map(|f| f >= m))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blend_common::Value;

    #[test]
    fn numeric_column_splits_on_mean() {
        let col = Column::new("n", vec![1i64, 2, 3, 10]);
        let q = column_quadrants(&col);
        assert_eq!(q, vec![Some(false), Some(false), Some(false), Some(true)]);
    }

    #[test]
    fn boundary_value_is_quadrant_one() {
        // value == mean -> bit 1, per the paper ("larger than or equal").
        let col = Column::new("n", vec![2i64, 2, 2]);
        let q = column_quadrants(&col);
        assert_eq!(q, vec![Some(true); 3]);
    }

    #[test]
    fn categorical_column_is_all_null() {
        let col = Column::new(
            "c",
            vec![
                Value::Text("a".into()),
                Value::Text("b".into()),
                Value::Int(1),
            ],
        );
        let q = column_quadrants(&col);
        assert!(q.iter().all(Option::is_none));
    }

    #[test]
    fn nulls_inside_numeric_column_stay_null() {
        let col = Column::new("n", vec![Value::Int(1), Value::Null, Value::Int(3)]);
        let q = column_quadrants(&col);
        assert_eq!(q, vec![Some(false), None, Some(true)]);
    }

    #[test]
    fn numeric_text_column_participates() {
        // Numbers-as-strings are numeric after inference.
        let col = Column::new(
            "t",
            vec![Value::Text("10".into()), Value::Text("30".into())],
        );
        let q = column_quadrants(&col);
        assert_eq!(q, vec![Some(false), Some(true)]);
    }
}
