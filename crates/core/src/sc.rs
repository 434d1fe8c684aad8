//! The SC and KW seekers' operator: Listing 1 over the index (`seekers`
//! module docs). Its values are looked up in one batch (span `sc.resolve`,
//! [`FactTable::resolve`]). Its walk (span `sc.walk`, attrs `entries` and
//! `groups`) counts each (table, column)
//! group's distinct query values (KW: each table's) through
//! [`Directory::walk`](blend_storage::Directory::walk), the SQL executor's
//! column-index walk, over each value's ascending run list: its
//! column-index list ([`blend_storage::ColumnIndex::ordinals`]), or on a
//! store without a column index its postings mapped to their runs
//! ([`Directory::cell_runs`](blend_storage::Directory::cell_runs)) — the
//! same list. Its rank (span `sc.rank`) is Listing 1's order: score descending,
//! then `TableId` (the SQL's tie-break on its projected `TableId`); the
//! first `4k + 8` groups (its `LIMIT`), then each table's first, up to `k`
//! tables. Groups equal in both keys look alike in the output, so the hits
//! are the SQL's. Each buffer is priced before it is allocated
//! (reservation site `sc`).

use std::cmp::Reverse;
use std::sync::Arc;

use blend_common::{FxHashSet, Result, TableId};
use blend_parallel::{Interrupt, MemoryGovernor, MemoryReservation, QueryMemory};
use blend_storage::{FactTable, IdSet};

use crate::combiners::TableHit;
use crate::postings::resolve;
use crate::seekers::Injected;

/// A group: its count of query values and its `TableId`.
type Group = (u32, u32);

/// One SC seeker (KW with `per_table`) over `fact`: `values` are its
/// distinct normalized values.
pub(crate) fn run(
    fact: &dyn FactTable,
    values: &[&str],
    per_table: bool,
    injected: Option<&Injected>,
    k: usize,
    interrupt: &Interrupt,
    governor: &Arc<MemoryGovernor>,
) -> Result<Vec<TableHit>> {
    interrupt.check()?;
    let mut mem = Arc::new(QueryMemory::new(Arc::clone(governor))).try_reserve("sc", 0)?;
    let mut groups = walk_groups(fact, values, per_table, injected, interrupt, &mut mem)?;

    let _span = blend_obs::span("sc.rank");
    let order = |&(count, table): &Group| (Reverse(count), table);
    let fetch = k.saturating_mul(4).saturating_add(8);
    if groups.len() > fetch {
        groups.select_nth_unstable_by_key(fetch, order);
        groups.truncate(fetch);
    }
    groups.sort_unstable_by_key(order);
    let mut seen = FxHashSet::default();
    // As Listing 1's application phase, `k = 0` still keeps the best table.
    let best = groups.into_iter().filter(|&(_, t)| seen.insert(t));
    let hit = |(count, t): Group| TableHit {
        table: TableId(t),
        score: count as f64,
    };
    Ok(best.take(k.max(1)).map(hit).collect())
}

/// The groups off the values' run lists, in ascending slot order.
fn walk_groups(
    fact: &dyn FactTable,
    values: &[&str],
    per_table: bool,
    injected: Option<&Injected>,
    interrupt: &Interrupt,
    mem: &mut MemoryReservation,
) -> Result<Vec<Group>> {
    let dir = fact.directory();
    // The values, their run lists, and the table set: its sorted copy and
    // a bitmap at most 4x that, or the allowed tables' ranges.
    let ids = injected.map_or(0, |(Injected::In(ids) | Injected::NotIn(ids))| ids.len());
    mem.grow(values.len() * 40 + ids * 20 + 1024)?;
    // The column index is read by code; only a store without one needs the
    // postings.
    let index = fact.column_index();
    let resolved = resolve(fact, values, index.is_none(), "sc.resolve", interrupt)?;
    let span = blend_obs::span("sc.walk");
    let mut derived = Vec::new();
    let lists: Vec<&[u32]> = match index {
        Some(index) => (resolved.iter())
            .filter_map(|v| v.code.map(|c| index.ordinals(c)))
            .collect(),
        None => {
            // At most one run per cell, each list's end beside it.
            let cells: usize = resolved.iter().map(|v| v.postings.len()).sum();
            mem.grow(cells * 4)?;
            derived.reserve_exact(cells);
            let mut ends = Vec::with_capacity(values.len());
            for v in &resolved {
                interrupt.check()?;
                dir.cell_runs(v.postings, &mut derived);
                ends.push(derived.len());
            }
            let starts = std::iter::once(0).chain(ends.iter().copied());
            (starts.zip(&ends)).map(|(s, &e)| &derived[s..e]).collect()
        }
    };
    let set = |ids: &Vec<u32>| Some(IdSet::build(ids.iter().copied()));
    let (keep, skip) = match injected {
        Some(Injected::In(ids)) => (set(ids), None),
        Some(Injected::NotIn(ids)) => (None, set(ids)),
        None => (None, None),
    };
    let n_slots = match per_table {
        true => fact.n_tables() as usize,
        false => dir.runs(),
    };
    let entries: usize = lists.iter().map(|l| l.len()).sum();
    span.attr_u64("entries", entries as u64);
    mem.grow(n_slots * 4 + n_slots.div_ceil(64) * 8 + entries.min(n_slots) * 12)?;
    let poll = || interrupt.check();
    let walk = dir.walk(
        &lists,
        per_table,
        keep.as_ref(),
        skip.as_ref(),
        n_slots,
        poll,
    )?;
    let table = |slot: u32| if per_table { slot } else { dir.key(slot).0 };
    span.attr_u64("groups", walk.slots.len() as u64);
    let groups = (walk.slots.iter()).map(|&s| (walk.counts[s as usize], table(s)));
    Ok(groups.collect())
}
