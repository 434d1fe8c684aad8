//! The application phase of the C seeker over the rows of Listing 3's SQL
//! (labels `t`, `score`, `n`): drop the (table, key column, numeric
//! column) groups under `corr_min_matches` pairs, keep each table's best
//! |QCR|, cut to `k`. Applied to the SQL text's result (`OpExecution::sql`),
//! it is what `seekers::run` must return.

use blend::seekers::McStats;
use blend::TableHit;
use blend_common::{FxHashMap, TableId};
use blend_sql::ResultColumns;

/// The hits over the SQL result `cols`, and the supported groups
/// (candidates) and the tables they leave (validated).
pub fn c_postprocess(
    cols: &ResultColumns,
    k: usize,
    min_matches: usize,
) -> (Vec<TableHit>, McStats) {
    let (Some(t), Some(s), Some(n)) = (cols.col("t"), cols.col("score"), cols.col("n")) else {
        return (Vec::new(), McStats::default());
    };
    let mut stats = McStats::default();
    let mut best: FxHashMap<u32, f64> = FxHashMap::default();
    for i in 0..t.len().min(s.len()).min(n.len()) {
        let (Some(table), Some(score), Some(support)) = (
            t.value(i).as_i64(),
            s.value(i).as_f64(),
            n.value(i).as_i64(),
        ) else {
            continue;
        };
        if (support as usize) < min_matches {
            continue;
        }
        stats.candidates += 1;
        let e = best.entry(table as u32).or_insert(f64::MIN);
        if score > *e {
            *e = score;
        }
    }
    stats.validated = best.len();
    let mut topk = blend_common::topk::TopK::new(k);
    for (table, score) in best {
        let hit = TableHit {
            table: TableId(table),
            score,
        };
        topk.push(score, table as u64, hit);
    }
    (
        topk.into_sorted().into_iter().map(|(_, h)| h).collect(),
        stats,
    )
}
