//! The C seeker's operator: Listing 3's self-join, grouping and score in
//! one pass of quadrant reads over the index (`seekers` module docs).
//!
//! 1. **Keys** (span `c.keys`): each distinct key's postings, cut to the
//!    tables an injection allows ([`crate::postings`]) and to `RowId < h`,
//!    in canonical order — by table, key column, then row — each cell
//!    tagged with whether its key is in `k0`, `k1` or both.
//! 2. **Pairs** (span `c.pairs`): per table t, its column runs come from
//!    the store's [`Directory`](blend_storage::Directory). For the key
//!    cells of one key column kc and each other column nc of t, its
//!    `locate` finds the cells at (t, nc, r) for the key cells' rows r.
//!    Each numeric one (quadrant q) adds 1 to the (kc, nc) pair's count,
//!    and 1 to its concordant count
//!    when `(k0 ∧ q = 0) ∨ (k1 ∧ q = 1)`. A pair with a count is one group
//!    of the SQL's `GROUP BY keys.TableId, nums.ColumnId, keys.ColumnId`.
//! 3. **Score** (span `postprocess`): a group of `n` pairs, `conc` of them
//!    concordant, scores `|(2·conc − n) / n|` — the SQL's
//!    `ABS((2*SUM(…) - COUNT(*)) / COUNT(*))` with the engine's float
//!    division. Groups under `corr_min_matches` pairs are dropped, each
//!    table keeps its best, and the top `k` tables are the hits.
//!
//! No hash, `SqlValue` or value string is touched per cell. The operator
//! runs on the query's thread, prices each buffer before allocating it
//! (reservation site `c`; a table's few column runs are priced as they
//! arrive), and polls the interrupt every [`POLL`] key cells and every
//! [`POLL`] lookups.

use std::sync::Arc;

use blend_common::topk::TopK;
use blend_common::{Result, TableId};
use blend_parallel::{Interrupt, MemoryGovernor, MemoryReservation, QueryMemory};
use blend_storage::FactTable;

use crate::combiners::TableHit;
use crate::postings::{allowed_ranges, fetch, room};
use crate::seekers::{Injected, McStats};
use crate::BlendOptions;

/// Key cells or lookups between two polls of the interrupt.
const POLL: usize = 4096;

/// A C seeker's distinct keys, and per key the lists that hold it (bit 0:
/// `k0`, bit 1: `k1`).
pub(crate) struct Keys<'k> {
    pub values: &'k [&'k str],
    pub tags: &'k [u8],
}

/// One C seeker over `fact` and its `keys`. The hits are the top `k`
/// tables by their best (key column, numeric column) score.
pub(crate) fn run(
    fact: &dyn FactTable,
    keys: Keys<'_>,
    injected: Option<&Injected>,
    k: usize,
    options: &BlendOptions,
    interrupt: &Interrupt,
    governor: &Arc<MemoryGovernor>,
) -> Result<Vec<TableHit>> {
    interrupt.check()?;
    let mut mem = Arc::new(QueryMemory::new(Arc::clone(governor))).try_reserve("c", 0)?;

    let span = blend_obs::span("c.keys");
    let (cells, rows) = key_cells(fact, keys, injected, options.h, interrupt, &mut mem)?;
    span.attr_u64("cells", cells.len() as u64);
    drop(span);

    let span = blend_obs::span("c.pairs");
    let (groups, lookups, matched) = groups(fact, &cells, &rows, interrupt, &mut mem)?;
    span.attr_u64("lookups", lookups as u64);
    span.attr_u64("matched", matched as u64);
    drop(span);

    let span = blend_obs::span("postprocess");
    span.attr_u64("rows_in", groups.len() as u64);
    let min_matches = options.corr_min_matches;
    let mut stats = McStats::default();
    let mut topk = TopK::new(k);
    for table in groups.chunk_by(|a, b| a.0 == b.0) {
        let mut best: Option<f64> = None;
        for &(_, n, conc) in table.iter().filter(|g| g.1 as usize >= min_matches) {
            stats.candidates += 1;
            let score = ((2 * conc as i64 - n as i64) as f64 / n as f64).abs();
            best = Some(best.map_or(score, |b| b.max(score)));
        }
        if let Some(score) = best {
            stats.validated += 1;
            let table = TableId(table[0].0);
            topk.push(score, table.0 as u64, TableHit { table, score });
        }
    }
    crate::seekers::note_filter(&span, stats);
    Ok(topk.into_sorted().into_iter().map(|(_, h)| h).collect())
}

/// The key cells left by the injection and the `h` cut, in canonical
/// order (span `c.sort`), each packed as `position << 2 | tag` (its key's
/// tag), and their `RowId`s (span `c.rows`).
fn key_cells(
    fact: &dyn FactTable,
    keys: Keys<'_>,
    injected: Option<&Injected>,
    h: usize,
    interrupt: &Interrupt,
    mem: &mut MemoryReservation,
) -> Result<(Vec<u64>, Vec<u32>)> {
    let allowed = injected.and_then(|inj| allowed_ranges(fact, inj));
    let (values, allowed) = (keys.values, allowed.as_deref());
    let postings = fetch(fact, values, allowed, "c.resolve", interrupt)?;
    let mut cells = Vec::new();
    room(mem, &mut cells, postings.iter().map(|(_, p)| p.len()).sum())?;
    for &(i, postings) in &postings {
        let tag = keys.tags.get(i as usize).map_or(0, |&t| t as u64 & 3);
        cells.extend(postings.iter().map(|&p| (p as u64) << 2 | tag));
    }
    interrupt.check()?;
    let span = blend_obs::span("c.sort");
    cells.sort_unstable();
    drop(span);

    let _span = blend_obs::span("c.rows");
    let (mut rows, mut block) = (Vec::new(), Vec::new());
    room(mem, &mut rows, cells.len())?;
    room(mem, &mut block, POLL.min(cells.len()))?;
    for chunk in cells.chunks(POLL) {
        interrupt.check()?;
        block.clear();
        block.extend(chunk.iter().map(|&c| (c >> 2) as u32));
        fact.gather_rows(&block, &mut rows);
    }
    let mut kept = 0;
    for i in 0..cells.len() {
        if (rows[i] as usize) < h {
            (cells[kept], rows[kept]) = (cells[i], rows[i]);
            kept += 1;
        }
    }
    cells.truncate(kept);
    rows.truncate(kept);
    Ok((cells, rows))
}

/// A (table, key column, numeric column) group: `TableId`, its pairs and
/// its concordant pairs.
type Group = (u32, u32, u32);

/// The groups of the tables holding the key `cells` (with their `rows`),
/// in table order; and the cells looked up and found numeric.
fn groups(
    fact: &dyn FactTable,
    cells: &[u64],
    rows: &[u32],
    interrupt: &Interrupt,
    mem: &mut MemoryReservation,
) -> Result<(Vec<Group>, usize, usize)> {
    let dir = fact.directory();
    let (mut groups, mut runs, mut located) = (Vec::new(), Vec::new(), Vec::new());
    let (mut lookups, mut matched, mut since_poll) = (0, 0, 0);
    let pos = |i: usize| (cells[i] >> 2) as u32;
    let mut at = 0;
    while at < cells.len() {
        // The table's column runs: (`ColumnId`, end position).
        let t = fact.table_at(pos(at) as usize);
        let range = dir.table_postings(t);
        runs.clear();
        let held = runs.capacity();
        dir.column_runs(t, &mut runs);
        mem.grow((runs.capacity() - held) * std::mem::size_of::<(u32, u32)>())?;
        // One key column's cells at a time.
        while at < cells.len() && (pos(at) as usize) < range.end {
            let (kc, end) = runs[runs.partition_point(|&(_, end)| end <= pos(at))];
            let len = cells[at..].partition_point(|&c| c >> 2 < end as u64);
            let (tags, rows) = (&cells[at..at + len], &rows[at..at + len]);
            located.clear();
            room(mem, &mut located, len)?;
            for &(nc, _) in runs.iter().filter(|&&(nc, _)| nc != kc) {
                since_poll += len;
                if since_poll >= POLL {
                    interrupt.check()?;
                    since_poll = 0;
                }
                located.clear();
                dir.locate(t, nc, rows, &mut located);
                let (mut n, mut conc) = (0, 0);
                for (p, &tag) in located.iter().zip(tags) {
                    if let Some(q) = p.and_then(|p| fact.quadrant_at(p as usize)) {
                        n += 1;
                        conc += (tag >> u8::from(q)) as u32 & 1;
                    }
                }
                (lookups, matched) = (lookups + len, matched + n as usize);
                if n > 0 {
                    room(mem, &mut groups, 1)?;
                    groups.push((t, n, conc));
                }
            }
            at += len;
        }
    }
    Ok((groups, lookups, matched))
}
