//! The row oracle of the MC seeker: the paper's application phase over the
//! rows of Listing 2's SQL, one `SqlValue` row at a time — per joined row a
//! column set, a `Vec<String>` of values and a hash-map entry; per
//! candidate a re-hash of every query value. Applied to
//! `execute_reference` of the seeker's SQL text, it is what `seekers::run`
//! must return.

use blend::seekers::McStats;
use blend::TableHit;
use blend_common::{text, FxHashMap, FxHashSet, TableId};
use blend_index::Xash;
use blend_sql::{ResultSet, SqlValue};

/// The hits and filter statistics of MC query `rows` over the joined rows
/// `rs` (labels `tid`, `rid`, `sk`, `v{c}`, `c{c}`), top `k` tables.
pub fn mc_postprocess_rows(
    rs: &ResultSet,
    rows: &[Vec<String>],
    k: usize,
) -> (Vec<TableHit>, McStats) {
    let arity = rows.first().map_or(0, Vec::len);
    let query_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|v| text::normalize(v)).collect())
        .collect();
    let query_row_set: FxHashSet<&[String]> = query_rows.iter().map(Vec::as_slice).collect();
    let (Some(tid), Some(rid), Some(sk)) = (rs.col("tid"), rs.col("rid"), rs.col("sk")) else {
        return (Vec::new(), McStats::default());
    };
    let vcols: Option<Vec<usize>> = (0..arity).map(|c| rs.col(&format!("v{c}"))).collect();
    let ccols: Option<Vec<usize>> = (0..arity).map(|c| rs.col(&format!("c{c}"))).collect();
    let (Some(vcols), Some(ccols)) = (vcols, ccols) else {
        return (Vec::new(), McStats::default());
    };
    struct Candidate {
        superkey: u128,
        combos: Vec<Vec<String>>,
    }
    let mut candidates: FxHashMap<(u32, u32), Candidate> = FxHashMap::default();
    'tuples: for row in &rs.rows {
        let (Some(t), Some(r)) = (row[tid].as_i64(), row[rid].as_i64()) else {
            continue;
        };
        let mut cset = FxHashSet::default();
        for &c in &ccols {
            let Some(cid) = row[c].as_i64() else {
                continue 'tuples;
            };
            if !cset.insert(cid) {
                continue 'tuples;
            }
        }
        let values: Vec<String> = vcols.iter().map(|&c| row[c].to_string()).collect();
        let SqlValue::U128(superkey) = row[sk] else {
            continue;
        };
        candidates
            .entry((t as u32, r as u32))
            .or_insert_with(|| Candidate {
                superkey,
                combos: Vec::new(),
            })
            .combos
            .push(values);
    }
    let mut stats = McStats::default();
    let mut joinable: FxHashMap<u32, FxHashSet<u32>> = FxHashMap::default();
    for ((t, r), cand) in candidates {
        let passes = query_rows
            .iter()
            .any(|qr| Xash::may_contain_all(cand.superkey, qr.iter().map(String::as_str)));
        if !passes {
            continue;
        }
        stats.candidates += 1;
        if cand
            .combos
            .iter()
            .any(|combo| query_row_set.contains(combo.as_slice()))
        {
            stats.validated += 1;
            joinable.entry(t).or_default().insert(r);
        }
    }
    let mut topk = blend_common::topk::TopK::new(k);
    for (t, rows) in joinable {
        let hit = TableHit {
            table: TableId(t),
            score: rows.len() as f64,
        };
        topk.push(hit.score, t as u64, hit);
    }
    (
        topk.into_sorted().into_iter().map(|(_, h)| h).collect(),
        stats,
    )
}
