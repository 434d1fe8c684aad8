//! Result checking: canonical byte encodings for the byte-for-byte
//! comparisons, and the brute-force ground-truth checks.

use blend::{Seeker, TableHit};
use blend_lake::{ground_truth, DataLake};
use blend_sql::{ResultSet, SqlValue};

/// Table id and score bits of every hit, in rank order.
pub fn encode_hits(hits: &[TableHit]) -> Vec<u8> {
    let mut out = Vec::with_capacity(hits.len() * 12);
    for h in hits {
        out.extend_from_slice(&h.table.0.to_le_bytes());
        out.extend_from_slice(&h.score.to_bits().to_le_bytes());
    }
    out
}

/// Column labels, then every value tagged by type, row-major.
pub fn encode_result_set(rs: &ResultSet) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + rs.rows.len() * rs.columns.len() * 9);
    for c in &rs.columns {
        out.extend_from_slice(&(c.len() as u32).to_le_bytes());
        out.extend_from_slice(c.as_bytes());
    }
    out.extend_from_slice(&(rs.rows.len() as u64).to_le_bytes());
    for row in &rs.rows {
        for v in row {
            match v {
                SqlValue::Null => out.push(0),
                SqlValue::Int(i) => {
                    out.push(1);
                    out.extend_from_slice(&i.to_le_bytes());
                }
                SqlValue::Float(f) => {
                    out.push(2);
                    out.extend_from_slice(&f.to_bits().to_le_bytes());
                }
                SqlValue::Bool(b) => out.extend_from_slice(&[3, *b as u8]),
                SqlValue::Text(s) => {
                    out.push(4);
                    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
                SqlValue::U128(u) => {
                    out.push(5);
                    out.extend_from_slice(&u.to_le_bytes());
                }
            }
        }
    }
    out
}

/// Length and digest of [`encode_result_set`]: what the served workloads
/// keep of a reference result (an MC seeker's rows run to megabytes, and
/// the references of every template would outweigh the index).
pub type ResultKey = (usize, u64);

pub fn result_key(rs: &ResultSet) -> ResultKey {
    let bytes = encode_result_set(rs);
    let mut d = crate::stats::Digest::default();
    d.update(&bytes);
    (bytes.len(), d.value())
}

/// Does a seeker's hit list carry the scores a brute-force reading of the
/// lake gives? Compared as score lists, so ties between tables are free to
/// resolve either way. `None` for correlation seekers (their score is a
/// sketch estimate, not an exact count).
pub fn matches_ground_truth(lake: &DataLake, seeker: &Seeker, hits: &[TableHit]) -> Option<bool> {
    let got: Vec<usize> = hits.iter().map(|h| h.score as usize).collect();
    let k = crate::inputs::K;
    let want: Vec<usize> = match seeker {
        Seeker::Sc { values } => ground_truth::exact_sc_topk(lake, &normalized(values), k)
            .into_iter()
            .map(|(_, s)| s)
            .collect(),
        Seeker::Kw { keywords } => ground_truth::exact_kw_topk(lake, &normalized(keywords), k)
            .into_iter()
            .map(|(_, s)| s)
            .collect(),
        Seeker::Mc { rows } => {
            let rows: Vec<Vec<String>> = rows.iter().map(|r| normalized(r)).collect();
            let mut counts: Vec<usize> = ground_truth::exact_mc_join_counts(lake, &rows)
                .into_values()
                .collect();
            counts.sort_unstable_by(|a, b| b.cmp(a));
            counts.truncate(k);
            counts
        }
        Seeker::C { .. } => return None,
    };
    Some(got == want)
}

fn normalized(values: &[String]) -> Vec<String> {
    values
        .iter()
        .map(|v| blend_common::text::normalize(v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use blend_common::TableId;

    #[test]
    fn hit_encoding_distinguishes_order_and_score_bits() {
        let a = TableHit {
            table: TableId(1),
            score: 2.0,
        };
        let b = TableHit {
            table: TableId(2),
            score: 2.0,
        };
        assert_ne!(encode_hits(&[a, b]), encode_hits(&[b, a]));
        let neg_zero = TableHit {
            table: TableId(1),
            score: -0.0,
        };
        let zero = TableHit {
            table: TableId(1),
            score: 0.0,
        };
        assert_ne!(encode_hits(&[zero]), encode_hits(&[neg_zero]));
    }

    #[test]
    fn result_set_encoding_separates_types_the_engine_compares_equal() {
        let rs = |v: SqlValue| ResultSet {
            columns: vec!["x".into()],
            rows: vec![vec![v]],
        };
        assert_ne!(
            encode_result_set(&rs(SqlValue::Int(1))),
            encode_result_set(&rs(SqlValue::Float(1.0)))
        );
        assert_eq!(
            encode_result_set(&rs(SqlValue::Text("a".into()))),
            encode_result_set(&rs(SqlValue::Text("a".into())))
        );
    }
}
