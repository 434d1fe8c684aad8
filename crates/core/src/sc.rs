//! The SC and KW seekers' operator: Listing 1 over the index (`seekers`
//! module docs). Its walk (span `sc.walk`) counts each (table, column)
//! group's distinct query values (KW: each table's): through
//! [`ColumnIndex::walk`], the SQL executor's column-index walk, or on a
//! store without a column index off the values' postings, cut to the
//! allowed tables ([`crate::postings`]), one key per (value, group) where
//! a value's cells change group. Its rank (span `sc.rank`) is Listing 1's
//! order: score descending, then `TableId` (the SQL's tie-break on its
//! projected `TableId`); the first `4k + 8` groups (its `LIMIT`), then each
//! table's first, up to `k` tables. Groups equal in both keys look alike
//! in the output, so the hits are the SQL's. Each buffer is priced before
//! it is allocated (reservation site `sc`).

use std::cmp::Reverse;
use std::sync::Arc;

use blend_common::{FxHashSet, Result, TableId};
use blend_parallel::{Interrupt, MemoryGovernor, MemoryReservation, QueryMemory};
use blend_storage::{ColumnIndex, FactTable, IdSet};

use crate::combiners::TableHit;
use crate::postings::{allowed_ranges, fetch, room};
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
    let span = blend_obs::span("sc.walk");
    let mut groups = match fact.column_index() {
        Some(index) => index_groups(
            fact, index, values, per_table, injected, interrupt, &mut mem,
        )?,
        None => posting_groups(fact, values, per_table, injected, interrupt, &mut mem)?,
    };
    span.attr_u64("groups", groups.len() as u64);
    drop(span);

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

/// The groups off the column index, in first-touch order.
fn index_groups(
    fact: &dyn FactTable,
    index: &ColumnIndex,
    values: &[&str],
    per_table: bool,
    injected: Option<&Injected>,
    interrupt: &Interrupt,
    mem: &mut MemoryReservation,
) -> Result<Vec<Group>> {
    // The values' ordinal lists, and the table set: its sorted copy and a
    // bitmap at most 4x that, or the allowed tables' ranges.
    let ids = injected.map_or(0, |(Injected::In(ids) | Injected::NotIn(ids))| ids.len());
    mem.grow(values.len() * 16 + ids * 20 + 1024)?;
    let list = |v: &&str| fact.code_of_value(v).map(|c| index.ordinals(c));
    let lists: Vec<&[u32]> = values.iter().filter_map(list).collect();
    let set = |ids: &Vec<u32>| Some(IdSet::build(ids.iter().copied()));
    let (keep, skip) = match injected {
        Some(Injected::In(ids)) => (set(ids), None),
        Some(Injected::NotIn(ids)) => (None, set(ids)),
        None => (None, None),
    };
    let n_slots = match per_table {
        true => fact.n_tables() as usize,
        false => index.runs(),
    };
    let entries: usize = lists.iter().map(|l| l.len()).sum();
    mem.grow(n_slots * 4 + entries.min(n_slots) * 16)?;
    let poll = || interrupt.check();
    let walk = index.walk(
        &lists,
        per_table,
        keep.as_ref(),
        skip.as_ref(),
        n_slots,
        poll,
    )?;
    let table = |slot: u32| if per_table { slot } else { index.key(slot).0 };
    let groups = (walk.slots.iter()).map(|&s| (walk.counts[s as usize], table(s)));
    Ok(groups.collect())
}

/// The groups off the values' postings (a store without a column index).
fn posting_groups(
    fact: &dyn FactTable,
    values: &[&str],
    per_table: bool,
    injected: Option<&Injected>,
    interrupt: &Interrupt,
    mem: &mut MemoryReservation,
) -> Result<Vec<Group>> {
    let allowed = injected.and_then(|inj| allowed_ranges(fact, inj));
    // One key per (value, group): `TableId << 32 | ColumnId` (KW: the
    // `TableId`) where a value's cells change group.
    let (mut keys, mut prev, mut walked) = (Vec::new(), None, 0);
    for (value, cells) in fetch(fact, values, allowed.as_deref()) {
        for &p in cells {
            if walked % 4096 == 0 {
                interrupt.check()?;
            }
            walked += 1;
            let column = (!per_table).then(|| fact.column_at(p as usize));
            let column = column.unwrap_or(0);
            let key = (fact.table_at(p as usize) as u64) << 32 | column as u64;
            if prev.replace((value, key)) != Some((value, key)) {
                room(mem, &mut keys, 1)?;
                keys.push(key);
            }
        }
    }
    keys.sort_unstable();
    let mut groups = Vec::new();
    room(mem, &mut groups, keys.len())?;
    groups.extend((keys.chunk_by(|a, b| a == b)).map(|g| (g.len() as u32, (g[0] >> 32) as u32)));
    Ok(groups)
}
