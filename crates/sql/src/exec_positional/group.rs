//! Positional GROUP BY, and the keyed phase that joins on packed keys share.
//!
//! ## Flat group tables
//!
//! GROUP BY runs the **keyed phase** (`keyed`), which joins on packed keys
//! share: one reservation for the phase's state, then one [`GroupIndex`]
//! (`blend_storage`'s one dense-id index: open addressing, linear probing)
//! that assigns dense ids in first-seen order, rows upserting a
//! [`PROBE_BLOCK`] at a time (hashed by [`DenseKey::hash_block`], one
//! `hash64` per key; slots prefetched once the index outgrows cache).
//! GROUP BY then runs `aggregate`, column-at-a-time over `(row, group id)`
//! pairs into flat vectors: counts in `Vec<i64>`, `COUNT(DISTINCT ...)` by
//! radix-grouping the gathered code column by group id (a CSR) and
//! sort-uniquing each group's run, any other aggregate in the reference's
//! `AggState`, its argument evaluated over the batch's rows
//! (`exec_positional` docs, *Batch expressions*) and folded typed
//! (`AggState::add_int` / `add_float`) in row order. A global (ungrouped)
//! aggregate is the zero-key case: one group, which exists even over zero
//! input rows. Each keyed phase records [`HashTableStats`] (one partition)
//! in [`QueryReport::hash_tables`].
//!
//! ## Column-index grouping
//!
//! The SC and KW seekers' SQL text (paper Listing 1; the seekers
//! themselves run as operators over the index, this text serves the served
//! path and the parity oracles) is `WHERE CellValue IN (…) GROUP BY
//! TableId[, ColumnId]` with `COUNT(DISTINCT CellValue)`: how many query
//! values each column (KW: each table) holds — a set-overlap question whose
//! natural index is value → columns. The column store keeps exactly that
//! ([`FactTable::column_index`]): per value the ascending ordinals of the
//! store directory's (`TableId`, `ColumnId`) runs that hold it.
//! `group_columns` answers from it without a scan, through the walk the SC
//! and KW seekers' operator also runs
//! ([`Directory::walk`](blend_storage::Directory::walk)): each driving
//! value's ordinals, in
//! the scan's driving order (sorted, deduplicated literals), kept to the
//! kernel's `TableId IN` tables (a long list cut by binary search), less
//! entries of tables in its `NOT IN` set, bump a dense counter per ordinal
//! (SC) or per table at each table change inside a value's list (KW) —
//! each (value, column) pair once. No cell is visited, no key gathered, no
//! hash table built; the phase is O(entries), sequential on the query's
//! thread. A run's key is read per entry only where the walk needs the
//! table (KW, or SC behind a `TableId` set); otherwise once per group.
//!
//! The check is a plan property, `column_grouped`: the group input is one
//! value-index scan with no residual, no post-filter and no kernel
//! predicate but the `TableId` sets; the keys are `{TableId}` or `{TableId,
//! ColumnId}` of that scan in either order; every aggregate is
//! `COUNT(DISTINCT CellValue)` of that scan; and its table has a column
//! index. Everything else — the row store, `RowId`/`Quadrant` filters,
//! residuals, C's three-key join shape, `TableIndex`/`SeqScan` drives,
//! `COUNT(*)` beside the distinct count, `ColumnId` or `RowId` keys — takes
//! the hash path.
//!
//! The output is the hash path's `GroupCols`, its groups in the walk's
//! ascending slot order, a group's first-seen row the first value whose
//! list holds it (the walk counts without that order; a second pass over
//! the lists, last first, recovers it). Each kept entry stands for the
//! contiguous postings of one value in one run, in the order the
//! value-index scan would have emitted them, and a value's slots ascend,
//! so (first value, slot) is monotone with the group's first-seen batch
//! row on the hash path: `finish_groups`
//! orders groups by (order keys, projection, first-seen row), so ordering,
//! top-k and tie-breaks — and the result bytes — are the hash path's. The
//! `group` span's `path` attr says which path ran (`columns` | `hash`); the
//! column path records no [`HashTableStats`], and in place of the scan that
//! never ran a [`ScanReport`] with access `column-index`, scanned = entries
//! visited and emitted = entries kept.

use std::time::Instant;

use blend_parallel::{MemoryReservation, ParallelCtx};
use blend_storage::{
    radix_partition, radix_scratch_bytes, DenseKey, FactTable, FilterKernel, GroupIndex,
    RadixPartitions,
};

use super::select::{finish_groups, GroupCols};
use super::{
    executor_bug, int_col, pack_rows128, pack_rows64, poll_every, Intern, Interner, Keys, PosBatch,
    PosCol, PREFETCH_MIN_SLOTS, PROBE_BLOCK,
};
use crate::ast::AggFunc;
use crate::columns::ResultColumn;
use crate::columns::ResultColumns;
use crate::exec::{AggState, HashTableStats, QueryReport, ScanReport};
use crate::expr::CExpr;
use crate::pexpr::{compile_pexpr, IntCol, Leaves, PExpr, Rows, FACT_WIDTH};
use crate::plan::{AccessPath, AggPlan, GroupPlan, QueryPlan, ScanPlan, Tree, ValueList};
use blend_common::Result;

/// One aggregate of the positional GROUP BY.
enum PosAggSpec<'p> {
    /// `COUNT(*)` — a plain counter.
    CountStar,
    /// `COUNT(DISTINCT CellValue)` over a leaf — sort-uniques dictionary
    /// codes (column store) or dense string ids (row store).
    DistinctValue { leaf: usize },
    /// Anything else (SUM, AVG, MIN, MAX, `COUNT(x)`): evaluate the
    /// argument a batch at a time and fold it into the reference's
    /// [`AggState`].
    Generic {
        plan: &'p AggPlan,
        arg: Option<PExpr>,
    },
}

/// A GROUP BY compiled over the plan's leaves: its keys, packed or interned
/// (`exec_positional` docs, *Interned keys*), and its aggregates.
pub(super) struct PosGroup<'p> {
    keys: Keys<PosCol, PExpr>,
    aggs: Vec<PosAggSpec<'p>>,
}

impl<'p> PosGroup<'p> {
    pub(super) fn compile(group: &'p GroupPlan, leaves: &[&ScanPlan]) -> Result<Self> {
        let keys = (group.group_exprs.iter())
            .map(|e| compile_pexpr(e, 0, leaves))
            .collect::<Result<Vec<_>>>()?;
        let aggs = (group.aggs.iter()).map(|a| agg_spec(a, leaves));
        Ok(PosGroup {
            keys: Keys::of(keys, int_col),
            aggs: aggs.collect::<Result<_>>()?,
        })
    }
}

/// The scan a GROUP BY counts off its table's column index instead of
/// running (module docs, *Column-index grouping*), where the plan property
/// holds: the group input is a single value-index scan with no residual,
/// no post-filter and no kernel predicate but the `TableId IN` / `NOT IN`
/// sets; the keys are `{TableId}` or `{TableId, ColumnId}` of that scan,
/// in either order; every aggregate is `COUNT(DISTINCT CellValue)` of that
/// scan; and the scan's table has a column index.
pub(super) fn column_grouped<'p>(
    plan: &'p QueryPlan,
    shape: &PosGroup<'_>,
) -> Option<&'p ScanPlan> {
    let (Tree::Leaf(scan), None, Keys::Packed(keys)) = (&plan.tree, &plan.post_filter, &shape.keys)
    else {
        return None;
    };
    let leaf = 0;
    let FilterKernel {
        value,
        table_in: _,
        table_not_in: _,
        rowid_lt,
        quadrant_null,
    } = &scan.kernel;
    let value_drive = matches!(scan.access, AccessPath::ValueIndex { .. })
        && scan.residual.is_none()
        && value.is_none()
        && rowid_lt.is_none()
        && quadrant_null.is_none();
    let key_sorted = match keys.as_slice() {
        [(a, IntCol::Table)] => *a == leaf,
        [(a, x), (b, y)] => {
            *a == leaf
                && *b == leaf
                && matches!(
                    (x, y),
                    (IntCol::Table, IntCol::Column) | (IntCol::Column, IntCol::Table)
                )
        }
        _ => false,
    };
    let distinct_only = (shape.aggs.iter())
        .all(|a| matches!(a, PosAggSpec::DistinctValue { leaf: l } if *l == leaf));
    let grouped = value_drive && key_sorted && distinct_only;
    (grouped && scan.table.column_index().is_some()).then_some(&**scan)
}

fn agg_spec<'p>(plan: &'p AggPlan, leaves: &[&ScanPlan]) -> Result<PosAggSpec<'p>> {
    Ok(match (plan.func, plan.distinct, &plan.arg) {
        (AggFunc::Count, false, None) => PosAggSpec::CountStar,
        (AggFunc::Count, true, Some(CExpr::Col(i)))
            if i % FACT_WIDTH == 0 && i / FACT_WIDTH < leaves.len() =>
        {
            PosAggSpec::DistinctValue {
                leaf: i / FACT_WIDTH,
            }
        }
        (_, _, arg) => PosAggSpec::Generic {
            plan,
            arg: arg
                .as_ref()
                .map(|e| compile_pexpr(e, 0, leaves))
                .transpose()?,
        },
    })
}

/// Pre-gathered input column of one aggregate spec (one bulk gather per
/// spec, done before the keyed phase).
enum SpecData {
    /// `COUNT(*)` / generic aggregates: nothing to pre-gather.
    None,
    /// Distinct via dictionary codes (column store), indexed by batch row.
    Codes(Vec<u32>),
    /// Distinct via strings (row store): the leaf's storage positions per
    /// batch row, numbered by dense string ids in `aggregate`.
    Positions(Vec<u32>),
}

/// What the grouping functions read: the GROUP BY shape, the batch, and
/// the key and aggregate input columns gathered from it, with the
/// reservation covering them.
struct GroupInput<'a> {
    shape: &'a PosGroup<'a>,
    batch: &'a PosBatch,
    tables: &'a [&'a dyn FactTable],
    key_cols: Vec<Vec<u32>>,
    spec_data: Vec<SpecData>,
    par: &'a ParallelCtx,
    _mem: MemoryReservation,
}

impl<'a> GroupInput<'a> {
    /// Gather the key columns — packed keys' columns, or interned keys' one
    /// id column — and the aggregates' argument columns in bulk (positions
    /// extracted once per leaf).
    fn gather(
        shape: &'a PosGroup<'a>,
        batch: &'a PosBatch,
        tables: &'a [&'a dyn FactTable],
        par: &'a ParallelCtx,
    ) -> Result<Self> {
        let n_rows = batch.len();
        let mut cache = Leaves::new(batch.rows(0));
        let key_cols: Vec<Vec<u32>> = match &shape.keys {
            Keys::Packed(cols) => cols
                .iter()
                .map(|&(leaf, col)| {
                    let mut vals = Vec::with_capacity(n_rows);
                    col.gather(tables[leaf], cache.positions(leaf), &mut vals);
                    vals
                })
                .collect(),
            Keys::Interned(exprs) => {
                let exprs: Vec<&PExpr> = exprs.iter().collect();
                vec![Interner::new(tables, par)?.ids(Intern::Group, &exprs, batch, 0)?]
            }
        };
        let spec_data: Vec<SpecData> = shape
            .aggs
            .iter()
            .map(|spec| match spec {
                PosAggSpec::DistinctValue { leaf } => {
                    let positions = cache.positions(*leaf);
                    let mut codes = Vec::new();
                    match tables[*leaf].gather_value_codes(positions, &mut codes) {
                        true => SpecData::Codes(codes),
                        false => SpecData::Positions(positions.to_vec()),
                    }
                }
                _ => SpecData::None,
            })
            .collect();
        let gather_bytes = key_cols.iter().map(|c| c.len() * 4).sum::<usize>()
            + spec_data
                .iter()
                .map(|d| match d {
                    SpecData::None => 0,
                    SpecData::Codes(v) | SpecData::Positions(v) => v.len() * 4,
                })
                .sum::<usize>();
        Ok(GroupInput {
            shape,
            batch,
            tables,
            key_cols,
            spec_data,
            par,
            _mem: par.memory().try_reserve("group_gather", gather_bytes)?,
        })
    }
}

/// Positional GROUP BY on the hash path (a [`column_grouped`] plan never
/// scans: [`group_columns`]). Group keys pack into a `u64` (≤2 columns, or
/// an interned key's id) or a `u128` (3–4 columns, the C shape); the
/// keyed phase ([`keyed`]) assigns dense group ids in first-seen order
/// and [`aggregate`] accumulates
/// column-at-a-time into struct-of-arrays state, which is also the phase's
/// output ([`GroupCols`]). [`finish_groups`] then orders, limits and
/// projects.
///
/// A global (ungrouped) aggregate is the zero-key case: one group, which
/// exists even over zero input rows, and group id 0 for every row. It needs
/// no index, so it records no [`HashTableStats`]; its span is
/// `group.global`.
///
/// The `group` span covers the whole phase, gathers and key packing
/// included; its `path` attr says `hash`.
pub(super) fn exec_group(
    plan: &QueryPlan,
    shape: &PosGroup<'_>,
    batch: &PosBatch,
    tables: &[&dyn FactTable],
    report: &mut QueryReport,
    par: &ParallelCtx,
) -> Result<ResultColumns> {
    par.check_interrupt()?;
    let n_rows = batch.len();
    let global = matches!(&shape.keys, Keys::Packed(cols) if cols.is_empty());
    let span = blend_obs::span(if global { "group.global" } else { "group" });
    span.attr_u64("rows", n_rows as u64);
    if !global {
        span.attr_str("path", "hash");
    }
    // The gathered input columns (and their reservations) live for the
    // grouping phase only; selection and projection run without them.
    let input = GroupInput::gather(shape, batch, tables, par)?;
    // Monomorphize on packed key width.
    let groups = match input.key_cols.len() {
        0 => {
            // The gid column, reserved like the keyed path's.
            let _gid_mem = par.memory().try_reserve("group_build", n_rows * 4)?;
            let row_gids = blend_common::try_zeroed_vec(n_rows, "group_row_gids")?;
            let groups = aggregate(&input, vec![0], &row_gids)?;
            par.check_interrupt()?;
            groups
        }
        1 | 2 => {
            let packed = pack_rows64(&input.key_cols, n_rows);
            let agg = |_, first, ids: Vec<u32>| aggregate(&input, first, &ids);
            keyed(KeyedOp::Group, &packed, report, par, agg)?.out
        }
        _ => {
            let packed = pack_rows128(&input.key_cols, n_rows);
            let agg = |_, first, ids: Vec<u32>| aggregate(&input, first, &ids);
            keyed(KeyedOp::Group, &packed, report, par, agg)?.out
        }
    };
    drop(input);
    span.attr_u64("groups", groups.len() as u64);
    span.attr_u64("partitions", 1);
    drop(span);
    finish_groups(plan, groups, report, par)
}

/// `COUNT(DISTINCT CellValue) GROUP BY TableId[, ColumnId]` off the scan
/// table's column index (module docs, *Column-index grouping*), the scan
/// itself never run: [`Directory::walk`](blend_storage::Directory::walk)
/// over the driving codes' ordinal lists, the kernel's `TableId` sets its
/// cut and its rejected set; a group's first-seen row is the first value
/// holding it. Sequential on the query's thread, with counters and group
/// slots reserved up front.
pub(super) fn group_columns(
    plan: &QueryPlan,
    scan: &ScanPlan,
    shape: &PosGroup<'_>,
    report: &mut QueryReport,
    par: &ParallelCtx,
) -> Result<ResultColumns> {
    let table = scan.table.as_ref();
    let (Some(index), ValueList::Codes(codes), Keys::Packed(keys)) =
        (table.column_index(), &scan.driving_values, &shape.keys)
    else {
        return Err(executor_bug("column-index grouping without a column index"));
    };
    let span = blend_obs::span("group");
    span.attr_str("path", "columns");
    let dir = table.directory();
    let by_column = keys.len() == 2;
    let lists: Vec<&[u32]> = codes.iter().map(|&code| index.ordinals(code)).collect();
    let visited: usize = lists.iter().map(|l| l.len()).sum();
    let n_slots = if by_column {
        dir.runs()
    } else {
        table.n_tables() as usize
    };
    let (groups, kept) = {
        let max_groups = visited.min(n_slots);
        let _mem = par.memory().try_reserve(
            "group_columns",
            n_slots * 4 + n_slots.div_ceil(64) * 8 + max_groups * 4,
        )?;
        let mut walk = dir.walk(
            &lists,
            !by_column,
            scan.kernel.table_in.as_ref(),
            scan.kernel.table_not_in.as_ref(),
            n_slots,
            || par.check_interrupt(),
        )?;
        // Key values of each group's slot, then one count column per
        // aggregate (all of them `COUNT(DISTINCT CellValue)`).
        let key = |slot: u32, col: IntCol| match (by_column, col) {
            (false, _) => slot,
            (true, IntCol::Table) => dir.key(slot).0,
            (true, _) => dir.key(slot).1,
        };
        let mut cols: Vec<ResultColumn> = keys
            .iter()
            .map(|&(_, col)| ResultColumn::Key(walk.slots.iter().map(|&s| key(s, col)).collect()))
            .collect();
        let distinct: Vec<i64> = (walk.slots.iter())
            .map(|&s| walk.counts[s as usize] as i64)
            .collect();
        cols.extend(
            shape
                .aggs
                .iter()
                .map(|_| ResultColumn::Int(distinct.clone())),
        );
        // First-touch order (module docs): each list, last first, writes its
        // index over its slots' counts, so a touched slot keeps its first
        // list (skipped entries hit only untouched slots). A list holds a
        // run once, so polling between lists is every ~4,096 entries.
        let (firsts, mut unpolled) = (&mut walk.counts, 0);
        for (i, &list) in lists.iter().enumerate().rev() {
            if unpolled >= 4096 {
                par.check_interrupt()?;
                unpolled = 0;
            }
            unpolled += list.len();
            for &ordinal in list {
                let slot = match by_column {
                    true => ordinal,
                    false => dir.key(ordinal).0,
                };
                if let Some(first) = firsts.get_mut(slot as usize) {
                    *first = i as u32;
                }
            }
        }
        (walk.slots.iter_mut()).for_each(|s| *s = walk.counts[*s as usize]);
        let first_rows = walk.slots;
        (GroupCols { first_rows, cols }, walk.kept)
    };
    span.attr_u64("rows", kept as u64);
    span.attr_u64("groups", groups.len() as u64);
    span.attr_u64("partitions", 1);
    drop(span);
    report.scans.push(ScanReport {
        access: "column-index".to_string(),
        ..ScanReport::new(scan, visited, kept)
    });
    finish_groups(plan, groups, report, par)
}

/// The operator running the keyed phase, which names its memory site and
/// its [`HashTableStats`] phase and sizes its index: a join's holds every
/// build key, so it never grows; a GROUP BY's starts at a quarter of its
/// rows (at most 64 Ki groups) and grows with its groups, each growth
/// charged as it happens.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum KeyedOp {
    Group,
    Join,
}

/// What the keyed phase leaves: `per_index`'s output, and the reservation
/// pricing the phase's state.
pub(super) struct Keyed<T> {
    pub(super) out: T,
    _mem: MemoryReservation,
}

/// The keyed phase GROUP BY and the join on packed keys share (module
/// docs, *Flat group tables*): number the distinct keys of `packed` densely
/// through one [`GroupIndex`], then hand `per_index(index, first_rows,
/// row_ids)` — `first_rows[id]` the row that opened id `id`, `row_ids[i]`
/// the id of row `i`.
///
/// Rows upsert a [`PROBE_BLOCK`] at a time, hashed by
/// [`DenseKey::hash_block`], with the block's slots prefetched once the
/// index has outgrown cache; insert order — and with it id assignment and
/// first-seen rows — is row order.
///
/// One reservation prices the phase's state before it runs: packed keys,
/// per-row ids, the index at its initial size and, for a join, the CSR. A
/// GROUP BY's index growth past that size is charged once a block; a
/// failed reservation resolves `MemoryExceeded`.
pub(super) fn keyed<K: DenseKey + Copy, T>(
    op: KeyedOp,
    packed: &[K],
    report: &mut QueryReport,
    par: &ParallelCtx,
    per_index: impl FnOnce(GroupIndex<K>, Vec<u32>, Vec<u32>) -> Result<T>,
) -> Result<Keyed<T>> {
    let n = packed.len();
    let t0 = Instant::now();
    let (site, phase, capacity) = match op {
        KeyedOp::Group => ("group_build", "group", (n / 4).min(1 << 16)),
        KeyedOp::Join => ("join_build", "join", n),
    };
    let csr = match op {
        KeyedOp::Join => radix_scratch_bytes(n, n),
        KeyedOp::Group => 0,
    };
    let bytes = n * 4 + std::mem::size_of_val(packed) + GroupIndex::<K>::estimate_bytes(capacity);
    let mem = par.memory().try_reserve(site, bytes + csr)?;

    let mut index = GroupIndex::with_capacity(capacity)?;
    let priced = index.heap_bytes();
    let mut grown = par.memory().try_reserve(site, 0)?;
    let mut first_rows: Vec<u32> = Vec::new();
    let mut row_ids: Vec<u32> = blend_common::try_vec_with_capacity(n, "keyed_row_ids")?;
    let mut hash_buf = [0u64; PROBE_BLOCK];
    for start in (0..n).step_by(PROBE_BLOCK) {
        if poll_every(start) {
            par.check_interrupt()?;
        }
        let end = (start + PROBE_BLOCK).min(n);
        let hashes = &mut hash_buf[..end - start];
        K::hash_block(&packed[start..end], hashes);
        // An upsert below may grow the index mid-block, turning the rest of
        // the block's prefetches stale — merely useless.
        if index.slot_count() >= PREFETCH_MIN_SLOTS {
            hashes.iter().for_each(|&h| index.prefetch_slot(h));
        }
        for (i, &h) in (start..end).zip(hashes.iter()) {
            let before = index.len();
            row_ids.push(index.insert_or_get_hashed(packed[i], h)?);
            if index.len() != before {
                first_rows.push(i as u32);
            }
        }
        let over = index.heap_bytes().saturating_sub(priced + grown.bytes());
        if over > 0 {
            grown.grow(over)?;
        }
    }
    par.check_interrupt()?;
    let (buckets, max_chain) = (index.slot_count(), index.max_probe());
    let out = per_index(index, first_rows, row_ids)?;
    drop(grown);
    report.hash_tables.push(HashTableStats {
        phase: phase.to_string(),
        build_nanos: t0.elapsed().as_nanos() as u64,
        buckets,
        max_chain,
        partitions: 1,
    });
    Ok(Keyed { out, _mem: mem })
}

/// Accumulate each aggregate column-at-a-time into a flat vector indexed
/// by group id — the output column itself for the counts — behind the key
/// columns read at each group's first-seen row. `row_gids[i]` is the group
/// id of batch row `i`; `first_rows[g]` is the batch row that opened group
/// `g`.
fn aggregate(input: &GroupInput<'_>, first_rows: Vec<u32>, row_gids: &[u32]) -> Result<GroupCols> {
    let GroupInput {
        shape,
        batch,
        tables,
        key_cols,
        spec_data,
        par,
        ..
    } = input;
    let n_groups = first_rows.len();
    // Distinct specs share one gid-grouping CSR.
    let mut gid_csr: Option<RadixPartitions> = None;
    // Key values read at each group's first-seen row — interned keys'
    // expressions evaluated there — then the aggregates.
    let mut cols: Vec<ResultColumn> = match &shape.keys {
        Keys::Packed(_) => (key_cols.iter())
            .map(|col| ResultColumn::Key(first_rows.iter().map(|&r| col[r as usize]).collect()))
            .collect(),
        Keys::Interned(exprs) => (exprs.iter())
            .map(|e| {
                let mut v = Vec::with_capacity(n_groups);
                let at_first = Rows {
                    sel: Some(&first_rows),
                    ..batch.rows(0)
                };
                e.eval_morsels(tables, at_first, par, |_, c| v.extend(c.into_values()))?;
                Ok(ResultColumn::Val(v))
            })
            .collect::<Result<_>>()?,
    };
    for (spec, data) in shape.aggs.iter().zip(spec_data) {
        cols.push(match (spec, data) {
            (PosAggSpec::CountStar, _) => {
                let mut counts = vec![0i64; n_groups];
                for &g in row_gids {
                    counts[g as usize] += 1;
                }
                ResultColumn::Int(counts)
            }
            (PosAggSpec::DistinctValue { .. }, SpecData::Codes(codes)) => {
                let csr = match &mut gid_csr {
                    Some(c) => c,
                    none => none.insert(radix_partition(row_gids, n_groups)?),
                };
                ResultColumn::Int(distinct_counts(csr, n_groups, |idx| codes[idx]))
            }
            (PosAggSpec::DistinctValue { leaf }, SpecData::Positions(positions)) => {
                // Dense string ids: one index, never one per group. Ids are
                // bijective with distinct strings, so sort-unique over ids
                // counts strings.
                let mut ids: GroupIndex<&str> = GroupIndex::with_capacity(0)?;
                let str_ids = (positions.iter())
                    .map(|&p| ids.insert_or_get(tables[*leaf].value_at(p as usize)))
                    .collect::<Result<Vec<u32>>>()?;
                let csr = match &mut gid_csr {
                    Some(c) => c,
                    none => none.insert(radix_partition(row_gids, n_groups)?),
                };
                ResultColumn::Int(distinct_counts(csr, n_groups, |idx| str_ids[idx]))
            }
            (PosAggSpec::Generic { plan, arg }, _) => {
                let mut states: Vec<AggState> =
                    (0..n_groups).map(|_| AggState::new(plan)).collect();
                match arg {
                    None => (row_gids.iter()).for_each(|&g| states[g as usize].update_value(None)),
                    Some(e) => e.eval_morsels(tables, batch.rows(0), par, |range, c| {
                        c.fold(&row_gids[range], &mut states)
                    })?,
                }
                ResultColumn::Val(states.into_iter().map(AggState::finish).collect())
            }
            _ => return Err(executor_bug("aggregate input column")),
        });
    }
    Ok(GroupCols { first_rows, cols })
}

/// `COUNT(DISTINCT ...)` over pre-gathered u32 codes: the code column is
/// radix-grouped by dense group id (`csr`), then each group's contiguous
/// run is sort-uniqued in place — no per-group hash set, and the counting
/// passes stream at memory speed.
fn distinct_counts(
    csr: &RadixPartitions,
    n_groups: usize,
    code_of: impl Fn(usize) -> u32,
) -> Vec<i64> {
    let mut codes: Vec<u32> = csr.items().iter().map(|&it| code_of(it as usize)).collect();
    let offsets = csr.offsets();
    (0..n_groups)
        .map(|g| {
            let run = &mut codes[offsets[g] as usize..offsets[g + 1] as usize];
            run.sort_unstable();
            let mut distinct = 0i64;
            let mut prev = None;
            for &c in run.iter() {
                if prev != Some(c) {
                    distinct += 1;
                    prev = Some(c);
                }
            }
            distinct
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::super::tests::{both_paths, engine, small_chunk_engine};
    use crate::engine::SqlEngine;
    use crate::exec::QueryReport;
    use crate::value::SqlValue;
    use blend_storage::{build_engine, EngineKind};

    #[test]
    fn sc_shape_is_admitted_on_both_engines() {
        for kind in [EngineKind::Row, EngineKind::Column] {
            let eng = engine(kind);
            let (a, path, b) = both_paths(
                &eng,
                "SELECT TableId AS t, COUNT(DISTINCT CellValue) AS score FROM AllTables \
                 WHERE CellValue IN ('k0','k2','k4') GROUP BY TableId, ColumnId \
                 ORDER BY score DESC LIMIT 10",
            );
            assert_eq!(path, "positional");
            assert_eq!(a, b);
            assert!(!a.is_empty());
        }
    }

    #[test]
    fn correlation_shape_with_residual_and_three_group_keys() {
        for kind in [EngineKind::Row, EngineKind::Column] {
            let eng = engine(kind);
            let (a, path, b) = both_paths(
                &eng,
                "SELECT keys.TableId AS t, keys.ColumnId AS kc, nums.ColumnId AS nc, \
                 ABS((2 * SUM(((keys.CellValue IN ('k0','k1') AND nums.Quadrant = 0) OR \
                 (keys.CellValue IN ('k2','k3','k4') AND nums.Quadrant = 1))::int) - COUNT(*)) \
                 / COUNT(*)) AS score, COUNT(*) AS n \
                 FROM (SELECT * FROM AllTables WHERE RowId < 6 AND \
                 CellValue IN ('k0','k1','k2','k3','k4')) keys \
                 INNER JOIN (SELECT * FROM AllTables WHERE RowId < 6 AND \
                 Quadrant IS NOT NULL) nums \
                 ON keys.TableId = nums.TableId AND keys.RowId = nums.RowId \
                 AND keys.ColumnId <> nums.ColumnId \
                 GROUP BY keys.TableId, nums.ColumnId, keys.ColumnId \
                 ORDER BY score DESC",
            );
            assert_eq!(path, "positional");
            assert_eq!(a, b);
            assert!(!a.is_empty());
        }
    }

    /// A global aggregate is the zero-key GROUP BY: one group, which exists
    /// even over an empty drive, grouped on the query's thread with no
    /// group hash table — on both engines, at default and three-row
    /// chunks, with the reference's bytes (NULL for SUM, AVG, MIN and
    /// MAX over nothing).
    #[test]
    fn global_aggregate_emits_one_row_even_when_empty() {
        let eng = engine(EngineKind::Column);
        let (a, path, b) = both_paths(
            &eng,
            "SELECT COUNT(*) AS n FROM AllTables WHERE CellValue IN ('no-such-value')",
        );
        assert_eq!(path, "positional");
        assert_eq!(a, b);
        assert_eq!(a.i64(0, "n"), Some(0));

        let select = "SELECT COUNT(*) AS n, COUNT(DISTINCT CellValue) AS d, SUM(RowId) AS s, \
                      SUM(RowId / 2) AS h, AVG(RowId) AS a, MIN(RowId) AS lo, \
                      MAX(TableId) AS hi FROM AllTables";
        let empty = format!("{select} WHERE CellValue IN ('no-such-value')");
        let cases = [
            (empty.clone(), 1),
            (format!("{select} WHERE CellValue IN ('k0','k2','10')"), 1),
            (
                format!("{select} WHERE CellValue IN ('k0','k2') ORDER BY n DESC LIMIT 0"),
                0,
            ),
        ];
        for kind in [EngineKind::Row, EngineKind::Column] {
            for eng in [engine(kind), small_chunk_engine(kind)] {
                for (sql, rows) in &cases {
                    let (got, rep) = eng.execute_with_report(sql).unwrap();
                    assert_eq!(rep.path, "positional", "{kind:?}: {sql}");
                    assert_eq!(got.len(), *rows, "{kind:?}: {sql}");
                    assert!(rep.hash_tables.is_empty(), "{kind:?}: {sql}");
                    let (want, _) = eng.execute_reference(sql).unwrap();
                    assert_eq!(
                        format!("{:?}", got.rows),
                        format!("{:?}", want.rows),
                        "{kind:?}: {sql}"
                    );
                }
            }
            let (rs, _) = engine(kind).execute_with_report(&empty).unwrap();
            assert_eq!(rs.i64(0, "n"), Some(0));
            assert_eq!(rs.i64(0, "d"), Some(0));
            assert!(rs.rows[0][2..].iter().all(SqlValue::is_null), "{kind:?}");
        }
    }

    /// An expression key is interned, and stays on this executor with the
    /// reference's bytes.
    #[test]
    fn expression_group_keys_fall_back() {
        let eng = engine(EngineKind::Column);
        let (a, path, b) = both_paths(
            &eng,
            "SELECT TableId + 1 AS t1, COUNT(*) AS n FROM AllTables GROUP BY TableId + 1",
        );
        assert_eq!(path, "positional");
        assert_eq!(format!("{:?}", a.rows), format!("{:?}", b.rows));
        assert!(!a.is_empty());
    }

    #[test]
    fn float_sums_accumulate_in_row_order() {
        // `SUM(RowId / 2)` produces non-integer values, so only the
        // reference's row-order accumulation gives its bits: keyed (one
        // state per group) and global (one state) alike, across chunks.
        let eng = small_chunk_engine(EngineKind::Column);
        for sql in [
            "SELECT TableId AS t, SUM(RowId / 2) AS s FROM AllTables GROUP BY TableId",
            "SELECT SUM(RowId / 2) AS s FROM AllTables",
        ] {
            let (got, _) = eng.execute_with_report(sql).unwrap();
            let (want, _) = eng.execute_reference(sql).unwrap();
            assert_eq!(got, want, "{sql}");
        }
    }

    #[test]
    fn hash_table_telemetry_is_recorded() {
        let eng = engine(EngineKind::Column);
        // Join + group: one "join" and one "group" entry, one partition
        // each. A join on `RowId` alone is not row-keyed, so it hashes.
        let (_, rep) = eng
            .execute_with_report(
                "SELECT q0.TableId AS t, COUNT(*) AS n FROM \
                 (SELECT * FROM AllTables WHERE CellValue IN ('k1','k3')) AS q0 \
                 INNER JOIN (SELECT * FROM AllTables WHERE CellValue IN ('10','30')) AS q1 \
                 ON q0.RowId = q1.RowId \
                 GROUP BY q0.TableId",
            )
            .unwrap();
        assert_eq!(rep.path, "positional");
        let phases: Vec<&str> = rep.hash_tables.iter().map(|h| h.phase.as_str()).collect();
        assert_eq!(phases, vec!["join", "group"]);
        for h in &rep.hash_tables {
            assert_eq!(h.partitions, 1);
            assert!(h.buckets >= 1);
            assert!(h.buckets.is_power_of_two());
            assert!(h.max_chain >= 1);
        }

        // A sequential scan is a hash-path drive, whatever the aggregate;
        // its one index is one partition.
        let eng = small_chunk_engine(EngineKind::Column);
        let (_, rep) = eng
            .execute_with_report(
                "SELECT TableId AS t, COUNT(DISTINCT CellValue) AS s FROM AllTables \
                 GROUP BY TableId, ColumnId",
            )
            .unwrap();
        assert_eq!(group_path(&rep), "hash");
        let group = rep
            .hash_tables
            .iter()
            .find(|h| h.phase == "group")
            .expect("group stats recorded");
        assert_eq!(group.partitions, 1);

        // The same aggregate over a value-index drive builds no hash table.
        let (_, rep) = eng
            .execute_with_report(
                "SELECT TableId AS t, COUNT(DISTINCT CellValue) AS s FROM AllTables \
                 WHERE CellValue IN ('k0','k1') GROUP BY TableId, ColumnId",
            )
            .unwrap();
        assert_eq!(group_path(&rep), "columns");
        assert!(rep.hash_tables.is_empty());
    }

    /// Which grouping path ran. The column path records no group hash
    /// table and a `column-index` scan report, the hash path a group hash
    /// table; where profiles are collected, the `group` span's `path` attr
    /// must say the same.
    fn group_path(rep: &QueryReport) -> &'static str {
        let path = match rep.hash_tables.iter().any(|h| h.phase == "group") {
            true => "hash",
            false => "columns",
        };
        let column_index = rep.scans.iter().any(|s| s.access == "column-index");
        assert_eq!(column_index, path == "columns", "{:?}", rep.scans);
        if let Some(span) = rep.profile.as_ref().and_then(|p| p.find("group")) {
            let attr = span.attr("path").map(ToString::to_string);
            assert_eq!(attr.as_deref(), Some(path));
        }
        path
    }

    /// Distinct counts over a value-index drive count off the column
    /// store's column index — with every key order, behind `TableId IN` /
    /// `NOT IN` sets, at default and three-row chunks — and every near
    /// miss, and every shape on the row store, takes the hash path. Both
    /// give the reference's bytes at every LIMIT.
    #[test]
    fn distinct_counts_group_over_the_column_index_and_near_misses_hash() {
        // Values in both columns, an absent one and a duplicated literal.
        let values = "WHERE CellValue IN ('k0','k2','k4','0','10','50','absent','k2')";
        let query = |select: &str, filter: &str, group: &str| {
            format!(
                "SELECT {select}, COUNT(DISTINCT CellValue) AS score FROM AllTables \
                 {filter} GROUP BY {group}"
            )
        };
        let (t, tc) = ("TableId AS t", "TableId, ColumnId");
        let filtered = |filter: &str| format!("{values} AND {filter}");
        let cases = [
            (query(t, values, "TableId"), "columns"),
            (query(t, values, tc), "columns"),
            (
                query("ColumnId AS c, TableId AS t", values, "ColumnId, TableId"),
                "columns",
            ),
            (query(t, &filtered("TableId IN (0, 2, 3)"), tc), "columns"),
            (
                query(t, &filtered("TableId NOT IN (1)"), "TableId"),
                "columns",
            ),
            // Near misses: a table-index drive, a key that is not a table's
            // run, a second aggregate, a RowId key, a sequential drive, and
            // a value drive behind a RowId bound, a Quadrant test and a
            // residual.
            (query(t, &filtered("TableId IN (1)"), tc), "hash"),
            (query("ColumnId AS c", values, "ColumnId"), "hash"),
            (
                query("TableId AS t, COUNT(*) AS n", values, "TableId"),
                "hash",
            ),
            (query(t, values, "TableId, RowId"), "hash"),
            (query(t, "", "TableId"), "hash"),
            (query(t, "WHERE RowId < 3", tc), "hash"),
            (query(t, &filtered("RowId < 4"), "TableId"), "hash"),
            (query(t, &filtered("Quadrant IS NULL"), tc), "hash"),
            (query(t, &filtered("ColumnId = 0"), tc), "hash"),
        ];
        for kind in [EngineKind::Row, EngineKind::Column] {
            for eng in [engine(kind), small_chunk_engine(kind)] {
                for (sql, want_path) in &cases {
                    let want_path = if kind == EngineKind::Column {
                        want_path
                    } else {
                        "hash"
                    };
                    for limit in [
                        "",
                        " ORDER BY score DESC LIMIT 0",
                        " ORDER BY score DESC LIMIT 1",
                        " ORDER BY score DESC LIMIT 3",
                        " ORDER BY score DESC LIMIT 40",
                    ] {
                        let sql = format!("{sql}{limit}");
                        let (got, rep) = eng.execute_with_report(&sql).unwrap();
                        assert_eq!(rep.path, "positional", "{sql}");
                        assert_eq!(group_path(&rep), want_path, "{kind:?}: {sql}");
                        let (want, _) = eng.execute_reference(&sql).unwrap();
                        assert_eq!(
                            format!("{:?}", got.rows),
                            format!("{:?}", want.rows),
                            "{kind:?}: {sql}"
                        );
                    }
                }
            }
            // The table-index near miss really is one.
            let (_, rep) = engine(kind).execute_with_report(&cases[5].0).unwrap();
            assert_eq!(rep.scans[0].access, "table-index");
        }
    }

    #[test]
    fn sparse_column_ids_stay_on_the_column_index() {
        // Table 0's ColumnIds jump to a million: the column index numbers
        // runs, not ColumnIds, so SC and KW both count off it — with the
        // reference's bytes — and the row store groups by hash.
        let sc = "SELECT TableId AS t, COUNT(DISTINCT CellValue) AS score FROM AllTables \
                  WHERE CellValue IN ('a','b') GROUP BY TableId, ColumnId ORDER BY score DESC";
        let kw = sc.replace(", ColumnId", "");
        for kind in [EngineKind::Row, EngineKind::Column] {
            let rows = vec![
                blend_storage::FactRow::new("a", 0, 0, 0, 0, None),
                blend_storage::FactRow::new("a", 0, 1_000_000, 1, 1, None),
                blend_storage::FactRow::new("b", 1, 0, 0, 2, None),
            ];
            let eng = SqlEngine::with_alltables(build_engine(kind, rows));
            let want_path = if kind == EngineKind::Column {
                "columns"
            } else {
                "hash"
            };
            for sql in [sc, kw.as_str()] {
                let (got, rep) = eng.execute_with_report(sql).unwrap();
                assert_eq!(group_path(&rep), want_path, "{kind:?}: {sql}");
                let (want, _) = eng.execute_reference(sql).unwrap();
                assert_eq!(got, want, "{kind:?}: {sql}");
            }
        }
    }
}
