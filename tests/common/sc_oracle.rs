//! The application phase of the SC and KW seekers over the rows of
//! Listing 1's SQL (labels `t`, `score`): walk the groups in the SQL's
//! order, keep each table's first (its best score), stop at `k` tables.
//! Applied to the SQL text's result (`OpExecution::sql`), it is what
//! `seekers::run` must return.

use blend::TableHit;
use blend_common::{FxHashSet, TableId};
use blend_sql::ResultColumns;

/// The hits over the SQL result `cols`.
pub fn sc_postprocess(cols: &ResultColumns, k: usize) -> Vec<TableHit> {
    let (Some(t), Some(s)) = (cols.col("t"), cols.col("score")) else {
        return Vec::new();
    };
    let mut seen: FxHashSet<u32> = FxHashSet::default();
    let mut out = Vec::new();
    for i in 0..t.len().min(s.len()) {
        let (Some(table), Some(score)) = (t.value(i).as_i64(), s.value(i).as_f64()) else {
            continue;
        };
        if seen.insert(table as u32) {
            out.push(TableHit {
                table: TableId(table as u32),
                score,
            });
            if out.len() >= k {
                break;
            }
        }
    }
    out
}
