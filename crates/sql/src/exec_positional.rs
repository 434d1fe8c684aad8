//! Late-materialization (positional) executor: the one executor every
//! query runs on.
//!
//! The reference interpreter in [`crate::exec`] materializes a 6-wide
//! `Vec<SqlValue>` — including an `Arc<str>` clone of the cell value — for
//! every position a scan visits, clones whole tuples through joins, and
//! hashes `Vec<SqlValue>` keys in joins and GROUP BY. For the four seeker
//! templates (`SC`/`KW`/`MC`/`C`) all of that work is wasted: predicates,
//! join keys, and grouping keys only ever touch the integer fact columns,
//! and `COUNT(DISTINCT CellValue)` only needs value *identity*, not value
//! contents. Keys that are not integer fact columns are the exception, and
//! they intern (see *Interned keys* below).
//!
//! This module executes those shapes positionally:
//!
//! * scans emit compact `Vec<u32>` position lists — predicates run as
//!   **batched filter kernels** straight against the [`FactTable`], no
//!   tuple is built (see *Selection-vector scans* below);
//! * the seeker self-joins (`q0.TableId = qN.TableId AND q0.RowId =
//!   qN.RowId`) become **flat hash joins**: 1–2 integer key columns pack
//!   into a `u64` (3–4 into a `u128`) and probe a CSR
//!   [`JoinTable`](crate::hashtable::JoinTable) built with two counting
//!   passes — zero per-key allocations, one hash per row (see *Flat
//!   join/group tables* below);
//! * `GROUP BY` over integer fact columns maps packed keys to **dense
//!   group ids** through an open-addressing
//!   [`GroupIndex`](crate::hashtable::GroupIndex), with aggregate state in
//!   struct-of-arrays vectors and `COUNT(DISTINCT CellValue)` counted by
//!   per-group sort-unique over gathered dictionary codes (column store)
//!   or dense string ids (row store) — never an owned `SqlValue`, never a
//!   per-group hash set — except where the store's value → column index
//!   already answers the query (the SC/KW seekers: see *Column-index
//!   grouping* below);
//! * `ORDER BY … LIMIT k` runs over **flat columns**, on both tails (see
//!   *Top-k before materialization* below);
//! * no tail builds a `SqlValue` row. The output is
//!   [`ResultColumns`](crate::columns::ResultColumns): integer fact columns
//!   as `u32`, super keys as `u128`, `CellValue` as dictionary ids (the
//!   column store's own codes, dense per-result ids on the row store), and
//!   only computed or NULL-able expressions as `SqlValue`s. Rows are a view
//!   a caller asks the engine for
//!   ([`ResultColumns::to_result_set`](crate::columns::ResultColumns::to_result_set),
//!   the one place that builds them); the seekers never do.
//!
//! [`plan_positional`] compiles every plan the planner emits; what it
//! cannot compile is an executor bug and a typed `SqlExec` error. The
//! parity suites (`exec_parity` and the rest) hold its results to the
//! reference's, byte for byte; [`QueryReport::path`] says `positional`.
//!
//! ## Interned keys
//!
//! A join or GROUP BY whose keys are at most four integer fact columns packs
//! them into one `u64`/`u128` per row. Any other key list — `CellValue`,
//! `Quadrant`, `SuperKey`, an expression, five keys or more — is compiled as
//! positional expressions and *interned*: each row's key tuple is evaluated
//! once and mapped through one `FxHashMap<Vec<SqlValue>, u32>` per operator
//! to a dense id, and that single id column runs through the same packing,
//! [`JoinTable`](crate::hashtable::JoinTable) and
//! [`GroupIndex`](crate::hashtable::GroupIndex) as any packed key. The
//! semantics are the reference's: the join's build side assigns ids and the
//! probe side only looks up; a join key tuple holding NULL never matches
//! (build and probe get two different out-of-range ids); GROUP BY groups by
//! `SqlValue`'s `Eq` — NULL with NULL, `Int(1)` with `Float(1.0)` — and an
//! interned key's output is its expressions evaluated at the group's
//! first-seen row. The map is charged to the `key_intern` site as it grows,
//! and the loop polls the interrupt every `INTERRUPT_STRIDE` rows. No
//! workload's SQL has such keys; there is no fast path for them.
//!
//! ## Selection-vector scans
//!
//! The planner hands every scan two things, and both executors use them
//! as they are: the scan's cheap predicates as one
//! [`FilterKernel`](blend_storage::FilterKernel) (`ScanPlan::kernel`:
//! `CellValue IN` as dictionary codes on the column store, `TableId IN /
//! NOT IN` as sorted slices or dense bitmaps), and its visit order as
//! `ScanPlan::segments` — the driving values' postings, the driving tables'
//! ranges, or the whole table. The scan cuts the segments into morsels and
//! filters each through `ScanPlan::filter`, i.e. the engine's
//! [`FactTable::filter_batch`] (postings) or [`FactTable::filter_range`]
//! (ranges), which write survivors into a **selection vector** with
//! branch-free compaction passes — the column store indexes its contiguous
//! `tables`/`rows`/`codes` arrays directly and evaluates range segments
//! straight off the column slices, never materializing the candidate
//! position list; the row store runs one fused check per tuple. Per-worker
//! [`ScanScratch`] buffers ride the morsel path via `WorkerPool::run_with`,
//! so parallel scans reuse selection-vector capacity across every morsel a
//! worker claims instead of allocating per morsel.
//!
//! ## Flat join/group tables
//!
//! Join and GROUP BY used to pay one `FxHashMap` operation per row — the
//! join built `FxHashMap<u64, Vec<u32>>` (a heap `Vec` per distinct key),
//! grouping kept an `FxHashSet` per group for distinct counting. Both
//! phases now run on the flat operators in [`crate::hashtable`]:
//!
//! * **Join** — build-side keys pack once into a contiguous array; a
//!   [`JoinTable`](crate::hashtable::JoinTable) (CSR bucket runs over a
//!   power-of-two bucket array, two counting passes) serves match runs in
//!   ascending build-row order. The probe loop hashes each packed probe
//!   key once and walks one bucket run.
//! * **GROUP BY** — a [`GroupIndex`](crate::hashtable::GroupIndex)
//!   (open addressing, linear probing) assigns dense group ids in
//!   first-seen order; aggregates then run column-at-a-time over
//!   `(row, group id)` pairs into flat vectors — counts in `Vec<i64>`,
//!   `COUNT(DISTINCT ...)` by radix-grouping the gathered code column by
//!   group id and sort-uniquing each group's contiguous run, and every
//!   other aggregate (SUM, AVG, MIN, MAX) in the [`AggState`] the reference
//!   folds with. A global (ungrouped) aggregate is the zero-key case:
//!   one group, which exists even over zero input rows.
//!
//! Both loops hash a [`PROBE_BLOCK`] of keys at a time through
//! [`JoinKey::hash_block`] and prefetch the block's destinations before
//! walking them. Only the hash kernel looks at SIMD dispatch; the loops
//! run the same way on either path.
//!
//! Each build records [`HashTableStats`] (build nanos, bucket count, max
//! chain, radix partition count) in [`QueryReport::hash_tables`].
//!
//! ## Column-index grouping
//!
//! The SC and KW seekers (paper Listing 1) are `WHERE CellValue IN (…)
//! GROUP BY TableId[, ColumnId]` with `COUNT(DISTINCT CellValue)`: how many
//! query values each column (KW: each table) holds — a set-overlap question
//! whose natural index is value → columns. The column store keeps exactly
//! that ([`FactTable::column_index`]): the (`TableId`, `ColumnId`) runs of
//! canonical order numbered `0..R`, and per value the ascending ordinals of
//! the runs holding it. `group_columns` answers from it without a scan:
//! it walks each driving value's ordinals in the scan's driving order
//! (sorted, deduplicated literals), skips tables the kernel's `TableId IN`
//! / `NOT IN` sets reject, and bumps a dense counter per ordinal (SC) or
//! per table at each table change inside a value's list (KW: a table's
//! ordinals are contiguous) — each (value, column) pair once, however often
//! the value repeats in the column. No cell is visited, no key gathered, no
//! hash table built; the phase is O(entries), sequential on the query's
//! thread. A run's (`TableId`, `ColumnId`) key is read per entry only where
//! the walk needs the table: KW, which counts per table, and SC behind a
//! `TableId IN` / `NOT IN` set. SC without one counts the ordinal itself
//! and reads keys once per group, for its output columns.
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
//! The output is the hash path's [`GroupCols`], with a group's first touch
//! as a running ordinal of the entries kept. Each kept entry stands for
//! the contiguous postings of one value in one run, in the order the
//! value-index scan would have emitted them, so that ordinal is monotone
//! with the group's first-seen batch row on the hash path: `finish_groups`
//! orders groups by (order keys, projection, first-seen row), so ordering,
//! top-k and tie-breaks — and the result bytes — are the hash path's. The
//! `group` span's `path` attr says which path ran (`columns` | `hash`); the
//! column path records no [`HashTableStats`], and in place of the scan that
//! never ran a [`ScanReport`] with access `column-index`, scanned = entries
//! visited and emitted = entries kept.
//!
//! ## Top-k before materialization
//!
//! The SC and KW seekers are `GROUP BY … ORDER BY score DESC LIMIT k` over
//! tens of thousands of groups. The grouping phase's output is
//! `GroupCols`: first-seen rows, key columns (`Vec<u32>`) and aggregate
//! columns (`Vec<i64>` for counts and distinct counts, `Vec<SqlValue>` for
//! the rest) — no tuple per group. `finish_groups` orders group *ordinals*
//! with the one selection routine both executors share
//! ([`exec::select_top`]: `select_nth_unstable` then a sort of the k
//! survivors; a full sort without LIMIT), comparing plain key and
//! aggregate references straight off the columns (as integers where they
//! are counts or keys), and evaluates the projection for the survivors
//! only. The
//! comparator is the tuple tail's (order keys, then projected values) and
//! ends with the group's first-seen row, which makes it total: the result
//! is what a stable sort of all groups followed by a truncate returned,
//! byte for byte (`tests/topk_parity.rs`).
//!
//! SC and KW scores are counts between 0 and |Q|, so the grouped tail
//! counts before it compares (`threshold_band`). Where the plan has
//! `LIMIT k` with `0 < k < n` groups, the leading ORDER BY key is a flat
//! integer column (a count or a group key) and that column's spread
//! `max − min` is at most `n`, a histogram of the key (`spread + 1`
//! buckets, walked from the best end) finds the k-th best value `T`, and
//! only the groups at or beyond `T` — the tie band and everything ahead of
//! it — go to the comparator; `select_top` then runs over those alone. The
//! bytes cannot change: at least k groups score `T` or better and the
//! comparator orders by that key first, so no group outside the band is
//! among the k survivors, and the comparator still decides every order
//! among the rest. Ties do *not* break on first touch alone — SC projects
//! `TableId`, which ranks before the first-seen row — which is why the band
//! is compared rather than collected in order. Every other shape (a float
//! or computed key such as C's score, no LIMIT, `k ≥ n`, a wider spread)
//! ranks all groups. The histogram and the band are reserved under
//! `sort_scratch`.
//!
//! The non-grouped tail
//! (`exec_project`, the MC seeker's) is the same selection over the
//! gathered output columns, with the row ordinal as the last key; without
//! ORDER BY it gathers the first LIMIT rows and nothing else. Spans: `group`
//! is grouping plus aggregation, `sort` the selection — `rows_in`, `k`,
//! `selected`, and on this executor `path` (`threshold` where the count
//! histogram narrowed it, else `compare`) and `candidates`, the rows the
//! comparator ranked — `project` the output columns of the survivors;
//! `materialize` is the engine's, around the rows a caller asked for.
//!
//! ## Parallel execution
//!
//! All three phases ride the **persistent shared worker pool** through
//! admission-controlled per-phase grants ([`ParallelCtx::admit`]; see the
//! `blend-parallel` crate docs), each with an order-preserving strategy
//! that makes parallel output **byte-identical** to the sequential path at
//! every thread count and under every grant size:
//!
//! * scans split postings/table ranges into morsels and concatenate the
//!   per-morsel position lists in morsel order;
//! * joins **radix-partition the build side by key hash** (low hash bits;
//!   see `blend_parallel::radix`), so each worker builds a flat table over
//!   a disjoint key set and no merge is needed — a key's whole match list
//!   lives in one partition, ascending because partition scatter preserves
//!   input order. The probe side is chunked in row order and emitted in
//!   chunk order;
//! * GROUP BY on the hash path radix-partitions rows by group-key hash
//!   (column-index grouping stays on the query's thread), so each worker owns
//!   its groups outright: every group's aggregate state sees **exactly the
//!   sequential update sequence** (which is why even float SUM/AVG group in
//!   parallel bit-identically). Under a LIMIT every partition then selects
//!   its own top-k on the pool, so at most k groups per partition reach the
//!   merge; the first-seen row as last sort key reproduces the sequential
//!   order among them (without a LIMIT, among all groups). A global
//!   (zero-key) aggregate has one group to own, so it groups on the
//!   query's thread and nothing ever merges aggregate state.
//!
//! With `threads == 1`, inputs under the morsel threshold, or the
//! admission budget exhausted by other in-flight queries, every phase takes
//! its plain sequential loop on the query's own thread — concurrent load
//! degrades worker counts gracefully instead of oversubscribing, and
//! partitioning follows the *granted* width, which the order-preserving
//! merges make invisible in the output. Pool-backed phases record
//! partition counts, granted workers, and per-worker timings in
//! [`QueryReport::parallel`].
//!
//! ## Memory governance
//!
//! Every allocation-heavy site reserves bytes from the query's
//! [`blend_parallel::QueryMemory`] scope *before* allocating (see the
//! `blend_parallel::memory` crate docs for the reservation protocol and
//! degradation ladder):
//!
//! * each intermediate [`PosBatch`] **carries the reservation covering its
//!   position data** — consuming a batch (a join input, a filtered
//!   rebuild) or abandoning it on an error drops the reservation with it,
//!   so accounting follows batch lifetime with no explicit release;
//! * the join build and group index reserve through
//!   [`blend_parallel::reserve_laddered`] with a width-parameterized cost
//!   (`JoinTable::estimate_bytes` / `GroupIndex::estimate_bytes` plus
//!   radix scratch): on failure the phase retries at half width, then
//!   sequentially, and the chosen width feeds the partition math — the
//!   byte-identical-across-widths contract above is what makes ladder
//!   narrowing invisible in results;
//! * column-index grouping has no width to narrow: it reserves its
//!   counters and its group slots up front (`group_columns`), and a failed
//!   reservation resolves `MemoryExceeded` like any other;
//! * scratch (per-worker selection vectors, radix arrays, gathered key and
//!   aggregate columns, the top-k histogram and tie band: `sort_scratch`)
//!   and outputs — the flat group columns
//!   (`group_out`) and, beside them, the survivors' output columns
//!   (`group_project`) here; in the engine (`result_rows`) the result as the
//!   executor left it and, once a caller asks for them, the rows built from
//!   its flat columns — are reserved post-sizing; a failed
//!   reservation propagates `BlendError::MemoryExceeded` through the same
//!   typed-error channel as cancellation, and the no-partial-results
//!   machinery discards partials via `Drop`.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

use blend_common::{FxHashMap, FxHashSet};
use blend_parallel::{
    morselize, partition_count, radix_partition, radix_scratch_bytes, reserve_laddered, split_even,
    Interrupt, MemoryReservation, Morsel, ParallelCtx, PhaseGrant, QueryMemory, RadixPartitions,
};
use blend_storage::{FactTable, FilterKernel, ScanScratch, ValuePred};

use crate::exec::HashTableStats;
use crate::hashtable::{GroupIndex, JoinKey, JoinTable, PROBE_BLOCK};

use crate::ast::{AggFunc, BinOp, UnaryOp};
use crate::columns::{ResultColumn, ResultColumns, TextColumn};
use crate::exec::{self, AggState, ParallelPhase, QueryReport, ScanReport, Tuple};
use crate::expr::{
    combine_and, combine_or, eval_abs_value, eval_cast_int_value, eval_cmp_arith, eval_unary_value,
    CExpr,
};
use crate::plan::{AccessPath, AggPlan, QueryPlan, ScanPlan, Seg, Tree};
use crate::value::SqlValue;
use blend_common::{BlendError, Result};

/// Width of the canonical fact tuple.
const FACT_WIDTH: usize = 6;

/// Slot-count floor below which the group upsert skips slot prefetching:
/// a table this small lives in cache already, so the prefetch would be
/// pure overhead.
const PREFETCH_MIN_SLOTS: usize = 1 << 14;

/// The three u32-valued fact columns usable as join/group keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IntCol {
    Table,
    Column,
    Row,
}

impl IntCol {
    fn from_offset(off: usize) -> Option<IntCol> {
        match off {
            1 => Some(IntCol::Table),
            2 => Some(IntCol::Column),
            3 => Some(IntCol::Row),
            _ => None,
        }
    }

    #[inline]
    fn at(self, table: &dyn FactTable, pos: u32) -> u32 {
        match self {
            IntCol::Table => table.table_at(pos as usize),
            IntCol::Column => table.column_at(pos as usize),
            IntCol::Row => table.row_at(pos as usize),
        }
    }

    fn gather(self, table: &dyn FactTable, positions: &[u32], out: &mut Vec<u32>) {
        match self {
            IntCol::Table => table.gather_tables(positions, out),
            IntCol::Column => table.gather_columns(positions, out),
            IntCol::Row => table.gather_rows(positions, out),
        }
    }
}

/// A compiled positional expression: like [`CExpr`], but column references
/// fetch directly from a leaf's storage position instead of a materialized
/// tuple, and constant `CellValue IN (...)` lists are specialized into
/// engine [`ValuePred`]s (dictionary-code comparisons on the column store).
enum PExpr {
    Const(SqlValue),
    /// `CellValue` of a leaf — the only variant that allocates.
    Value(usize),
    /// An integer fact column of a leaf.
    Int(usize, IntCol),
    Superkey(usize),
    Quadrant(usize),
    /// `CellValue IN (constant strings)`, pre-compiled as an engine probe.
    InProbe {
        leaf: usize,
        probe: ValuePred,
        negated: bool,
    },
    InSet(Box<PExpr>, Arc<FxHashSet<SqlValue>>, bool),
    IsNull(Box<PExpr>, bool),
    Unary(UnaryOp, Box<PExpr>),
    Binary(Box<PExpr>, BinOp, Box<PExpr>),
    CastInt(Box<PExpr>),
    Abs(Box<PExpr>),
}

impl PExpr {
    /// Evaluate over a positional row. `row[g - base]` is the storage
    /// position of global leaf `g`; `tables` is indexed by global leaf.
    fn eval(&self, tables: &[&dyn FactTable], base: usize, row: &[u32]) -> SqlValue {
        match self {
            PExpr::Const(v) => v.clone(),
            PExpr::Value(leaf) => {
                let pos = row[*leaf - base] as usize;
                SqlValue::Text(Arc::from(tables[*leaf].value_at(pos)))
            }
            PExpr::Int(leaf, col) => SqlValue::Int(col.at(tables[*leaf], row[*leaf - base]) as i64),
            PExpr::Superkey(leaf) => {
                SqlValue::U128(tables[*leaf].superkey_at(row[*leaf - base] as usize))
            }
            PExpr::Quadrant(leaf) => match tables[*leaf].quadrant_at(row[*leaf - base] as usize) {
                None => SqlValue::Null,
                Some(b) => SqlValue::Int(b as i64),
            },
            PExpr::InProbe {
                leaf,
                probe,
                negated,
            } => {
                // CellValue is never NULL, so this mirrors InSet on a
                // non-null text value exactly.
                let contained = tables[*leaf].probe_at(row[*leaf - base] as usize, probe);
                SqlValue::Bool(contained != *negated)
            }
            PExpr::InSet(e, set, negated) => {
                let v = e.eval(tables, base, row);
                if v.is_null() {
                    return SqlValue::Null;
                }
                SqlValue::Bool(set.contains(&v) != *negated)
            }
            PExpr::IsNull(e, negated) => {
                SqlValue::Bool(e.eval(tables, base, row).is_null() != *negated)
            }
            PExpr::Unary(op, e) => eval_unary_value(*op, e.eval(tables, base, row)),
            PExpr::Binary(l, op, r) => match op {
                BinOp::And => {
                    let lv = l.eval(tables, base, row);
                    if matches!(lv, SqlValue::Bool(false)) {
                        return SqlValue::Bool(false);
                    }
                    combine_and(lv, r.eval(tables, base, row))
                }
                BinOp::Or => {
                    let lv = l.eval(tables, base, row);
                    if matches!(lv, SqlValue::Bool(true)) {
                        return SqlValue::Bool(true);
                    }
                    combine_or(lv, r.eval(tables, base, row))
                }
                _ => eval_cmp_arith(*op, l.eval(tables, base, row), r.eval(tables, base, row)),
            },
            PExpr::CastInt(e) => eval_cast_int_value(e.eval(tables, base, row)),
            PExpr::Abs(e) => eval_abs_value(e.eval(tables, base, row)),
        }
    }

    /// Predicate view (NULL ⇒ false), mirroring `CExpr::eval_predicate`.
    #[inline]
    fn eval_predicate(&self, tables: &[&dyn FactTable], base: usize, row: &[u32]) -> bool {
        self.eval(tables, base, row).truthy()
    }
}

/// Compile a tuple expression into a positional one. `base` is the global
/// index of the first leaf in the schema the expression was compiled
/// against.
fn compile_pexpr(e: &CExpr, base: usize, leaves: &[&ScanPlan]) -> Result<PExpr> {
    Ok(match e {
        CExpr::Const(v) => PExpr::Const(v.clone()),
        CExpr::Col(i) => {
            let leaf = base + i / FACT_WIDTH;
            if leaf >= leaves.len() {
                return Err(executor_bug("a column outside the plan's scans"));
            }
            match (i % FACT_WIDTH, IntCol::from_offset(i % FACT_WIDTH)) {
                (0, _) => PExpr::Value(leaf),
                (4, _) => PExpr::Superkey(leaf),
                (5, _) => PExpr::Quadrant(leaf),
                (_, col) => PExpr::Int(leaf, col.ok_or_else(|| executor_bug("a fact offset"))?),
            }
        }
        CExpr::Unary(op, inner) => PExpr::Unary(*op, Box::new(compile_pexpr(inner, base, leaves)?)),
        CExpr::Binary(l, op, r) => PExpr::Binary(
            Box::new(compile_pexpr(l, base, leaves)?),
            *op,
            Box::new(compile_pexpr(r, base, leaves)?),
        ),
        CExpr::InSet(inner, set, negated) => {
            let compiled = compile_pexpr(inner, base, leaves)?;
            if let PExpr::Value(leaf) = compiled {
                // Constant IN-list over CellValue: translate once into an
                // engine probe (dictionary codes on the column store).
                // Non-text constants can never equal a text cell, so
                // dropping them preserves the reference's semantics.
                let texts: Vec<&str> = set.iter().filter_map(SqlValue::as_str).collect();
                PExpr::InProbe {
                    leaf,
                    probe: leaves[leaf].table.make_probe(&texts),
                    negated: *negated,
                }
            } else {
                PExpr::InSet(Box::new(compiled), Arc::clone(set), *negated)
            }
        }
        CExpr::IsNull(inner, negated) => {
            PExpr::IsNull(Box::new(compile_pexpr(inner, base, leaves)?), *negated)
        }
        CExpr::CastInt(inner) => PExpr::CastInt(Box::new(compile_pexpr(inner, base, leaves)?)),
        CExpr::Abs(inner) => PExpr::Abs(Box::new(compile_pexpr(inner, base, leaves)?)),
    })
}

/// A positional join/group key column: an integer fact column of a leaf.
type PosCol = (usize, IntCol);

/// The key list of a join or GROUP BY, in one of two forms (module docs,
/// *Interned keys*).
enum Keys<P, E> {
    /// At most four integer fact columns, packed into one `u64`/`u128`.
    Packed(Vec<P>),
    /// Anything else: key expressions whose value tuples map to dense ids.
    Interned(Vec<E>),
}

impl<P, E> Keys<P, E> {
    /// Packed where `packed` maps every key to its columns and there are at
    /// most four keys; interned otherwise.
    fn of(keys: Vec<E>, packed: impl Fn(&E) -> Option<P>) -> Self {
        match keys.iter().map(packed).collect::<Option<Vec<P>>>() {
            Some(cols) if cols.len() <= 4 => Keys::Packed(cols),
            _ => Keys::Interned(keys),
        }
    }
}

/// The integer fact column `e` reads, if it is a bare one.
fn int_col(e: &PExpr) -> Option<PosCol> {
    match e {
        PExpr::Int(leaf, col) => Some((*leaf, *col)),
        _ => None,
    }
}

/// Positional operator tree (parallel to [`Tree`], leaves unwrapped).
enum PosNode {
    Scan {
        leaf: usize,
        residual: Option<PExpr>,
    },
    Join {
        left: Box<PosNode>,
        right: Box<PosNode>,
        /// Global index of the first leaf under this join.
        base: usize,
        n_left: usize,
        /// Equi-keys as (left, right) pairs.
        keys: Keys<(PosCol, PosCol), (PExpr, PExpr)>,
        residual: Option<PExpr>,
    },
}

/// One aggregate of the positional GROUP BY.
enum PosAggSpec<'p> {
    /// `COUNT(*)` — a plain counter.
    CountStar,
    /// `COUNT(DISTINCT CellValue)` over a leaf — sort-uniques dictionary
    /// codes (column store) or dense string ids (row store).
    DistinctValue { leaf: usize },
    /// Anything else (SUM, AVG, MIN, MAX, `COUNT(x)`): evaluate the
    /// argument positionally and fold it into the reference's
    /// [`AggState`].
    Generic {
        plan: &'p AggPlan,
        arg: Option<PExpr>,
    },
}

/// Grouping stage shape.
struct PosGroup<'p> {
    keys: Keys<PosCol, PExpr>,
    aggs: Vec<PosAggSpec<'p>>,
    /// The plan property of [`column_grouped`]: the group counts off the
    /// table's column index instead of scanning.
    by_columns: bool,
}

/// Projection stage shape for non-aggregated queries.
struct PosProject {
    exprs: Vec<PExpr>,
    order: Vec<PExpr>,
}

/// What runs over the join tree's output: exactly one of the two.
enum PosTail<'p> {
    Group(PosGroup<'p>),
    Project(PosProject),
}

/// A plan admitted to the positional path.
pub(crate) struct PosPlan<'p> {
    leaves: Vec<&'p ScanPlan>,
    root: PosNode,
    post_filter: Option<PExpr>,
    tail: PosTail<'p>,
}

/// Compile a plan for the positional executor: the leaves are its scans,
/// join and group keys are packed or interned (module docs, *Interned
/// keys*), and every residual, filter, projection and aggregate argument
/// compiles positionally. The planner emits nothing else, so an error here
/// is an executor bug.
pub(crate) fn plan_positional(plan: &QueryPlan) -> Result<PosPlan<'_>> {
    let mut leaves: Vec<&ScanPlan> = Vec::new();
    let root = build_node(&plan.tree, &mut leaves)?;
    let compile_all = |es: &mut dyn Iterator<Item = &CExpr>| -> Result<Vec<PExpr>> {
        es.map(|e| compile_pexpr(e, 0, &leaves)).collect()
    };

    let post_filter = match &plan.post_filter {
        Some(f) => Some(compile_pexpr(f, 0, &leaves)?),
        None => None,
    };

    let tail = match &plan.group {
        Some(g) => {
            let keys = Keys::of(compile_all(&mut g.group_exprs.iter())?, int_col);
            let aggs = (g.aggs.iter().map(|a| agg_spec(a, &leaves))).collect::<Result<Vec<_>>>()?;
            let by_columns = match &keys {
                Keys::Packed(cols) => {
                    post_filter.is_none() && column_grouped(&root, &leaves, cols, &aggs)
                }
                Keys::Interned(_) => false,
            };
            PosTail::Group(PosGroup {
                keys,
                aggs,
                by_columns,
            })
        }
        None => PosTail::Project(PosProject {
            exprs: compile_all(&mut plan.projection.iter().map(|(_, e)| e))?,
            order: compile_all(&mut plan.order_by.iter().map(|(e, _)| e))?,
        }),
    };

    Ok(PosPlan {
        leaves,
        root,
        post_filter,
        tail,
    })
}

/// The plan property column-index grouping rests on (module docs,
/// *Column-index grouping*), past the absent post-filter the caller checks:
/// the group input is a single value-index scan with no residual and no
/// kernel predicate but the `TableId IN` / `NOT IN` sets; the keys are
/// `{TableId}` or `{TableId, ColumnId}` of that scan, in either order;
/// every aggregate is `COUNT(DISTINCT CellValue)` of that scan; and the
/// scan's table has a column index.
fn column_grouped(
    root: &PosNode,
    leaves: &[&ScanPlan],
    keys: &[PosCol],
    aggs: &[PosAggSpec<'_>],
) -> bool {
    let PosNode::Scan {
        leaf,
        residual: None,
    } = root
    else {
        return false;
    };
    let scan = leaves[*leaf];
    let FilterKernel {
        value,
        table_in: _,
        table_not_in: _,
        rowid_lt,
        quadrant_null,
    } = &scan.kernel;
    let value_drive = matches!(scan.access, AccessPath::ValueIndex { .. })
        && value.is_none()
        && rowid_lt.is_none()
        && quadrant_null.is_none();
    let key_sorted = match keys {
        [(a, IntCol::Table)] => a == leaf,
        [(a, x), (b, y)] => {
            a == leaf
                && b == leaf
                && matches!(
                    (x, y),
                    (IntCol::Table, IntCol::Column) | (IntCol::Column, IntCol::Table)
                )
        }
        _ => false,
    };
    let distinct_only = aggs
        .iter()
        .all(|a| matches!(a, PosAggSpec::DistinctValue { leaf: l } if l == leaf));
    value_drive && key_sorted && distinct_only && scan.table.column_index().is_some()
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
        (_, _, arg) => {
            let arg = match arg {
                Some(e) => Some(compile_pexpr(e, 0, leaves)?),
                None => None,
            };
            PosAggSpec::Generic { plan, arg }
        }
    })
}

fn build_node<'p>(tree: &'p Tree, leaves: &mut Vec<&'p ScanPlan>) -> Result<PosNode> {
    match tree {
        Tree::Leaf(scan) => {
            let leaf = leaves.len();
            leaves.push(scan);
            let residual = match &scan.residual {
                Some(r) => Some(compile_pexpr(r, leaf, leaves)?),
                None => None,
            };
            Ok(PosNode::Scan { leaf, residual })
        }
        Tree::Join {
            left,
            right,
            keys,
            residual,
            ..
        } => {
            let base = leaves.len();
            let l = build_node(left, leaves)?;
            let n_left = leaves.len() - base;
            let r = build_node(right, leaves)?;
            // A key offset is into its own side's tuple.
            let side = |off: usize, side_base: usize, n: usize| match off / FACT_WIDTH < n {
                true => compile_pexpr(&CExpr::Col(off), side_base, leaves),
                false => Err(executor_bug("a join key outside its input")),
            };
            let n_right = leaves.len() - base - n_left;
            let pairs = (keys.iter())
                .map(|&(lk, rk)| Ok((side(lk, base, n_left)?, side(rk, base + n_left, n_right)?)))
                .collect::<Result<Vec<_>>>()?;
            let residual = match residual {
                Some(r) => Some(compile_pexpr(r, base, leaves)?),
                None => None,
            };
            Ok(PosNode::Join {
                left: Box::new(l),
                right: Box::new(r),
                base,
                n_left,
                keys: Keys::of(pairs, |(l, r)| Some((int_col(l)?, int_col(r)?))),
                residual,
            })
        }
    }
}

// ---- execution -------------------------------------------------------------

/// A batch of positional rows: `stride` positions per row, one per leaf of
/// the producing subtree, stored flat. Each batch carries the memory
/// reservation covering its `data`, so intermediate results stay accounted
/// against the query's budget for exactly as long as they are alive —
/// dropping a batch (consumed by a join, discarded on error) releases its
/// bytes automatically.
struct PosBatch {
    stride: usize,
    data: Vec<u32>,
    mem: Option<MemoryReservation>,
}

impl PosBatch {
    /// A scan's output, with its reservation.
    fn scanned(data: Vec<u32>, par: &ParallelCtx) -> Result<Self> {
        let mem = par.memory().try_reserve("scan_out", data.capacity() * 4)?;
        Ok(PosBatch {
            stride: 1,
            data,
            mem: Some(mem),
        })
    }

    fn len(&self) -> usize {
        self.data.len().checked_div(self.stride).unwrap_or(0)
    }

    #[inline]
    fn row(&self, i: usize) -> &[u32] {
        &self.data[i * self.stride..(i + 1) * self.stride]
    }

    /// One column (positions of a single leaf, subtree-local index).
    fn col(&self, local: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len());
        let mut i = local;
        while i < self.data.len() {
            out.push(self.data[i]);
            i += self.stride;
        }
        out
    }
}

/// Execute an admitted plan. `par` is the shared worker-pool context;
/// every phase falls back to its sequential loop when `par` says an input
/// is too small (or the pool has one thread).
/// How often (in rows) sequential inner loops poll the interrupt. A
/// power-of-two mask keeps the poll to one branch + one relaxed load per
/// `INTERRUPT_STRIDE` rows — unmeasurable against per-row expression work.
const INTERRUPT_STRIDE: usize = 4096;

#[inline]
fn poll_every(i: usize) -> bool {
    i & (INTERRUPT_STRIDE - 1) == 0
}

pub(crate) fn execute(
    plan: &QueryPlan,
    pos: &PosPlan<'_>,
    report: &mut QueryReport,
    par: &ParallelCtx,
) -> Result<ResultColumns> {
    par.check_interrupt()?;
    if let (PosTail::Group(shape), PosNode::Scan { leaf, .. }) = (&pos.tail, &pos.root) {
        if shape.by_columns {
            return group_columns(plan, pos.leaves[*leaf], shape, report, par);
        }
    }
    let tables: Vec<&dyn FactTable> = pos.leaves.iter().map(|s| s.table.as_ref()).collect();

    let mut batch = exec_node(&pos.root, pos, &tables, report, par)?;

    if let Some(f) = &pos.post_filter {
        let mut data = Vec::with_capacity(batch.data.len());
        for i in 0..batch.len() {
            if poll_every(i) {
                par.check_interrupt()?;
            }
            let row = batch.row(i);
            if f.eval_predicate(&tables, 0, row) {
                data.extend_from_slice(row);
            }
        }
        // The surviving rows fit under the input batch's reservation;
        // shrink it to the compacted size instead of re-reserving.
        let dropped = batch.data.len() - data.len();
        let mut mem = batch.mem.take();
        if let Some(m) = &mut mem {
            m.shrink(dropped * 4);
        }
        batch = PosBatch {
            stride: batch.stride,
            data,
            mem,
        };
    }

    match &pos.tail {
        PosTail::Group(shape) => exec_group(plan, shape, &batch, &tables, report, par),
        PosTail::Project(project) => exec_project(plan, pos, project, &batch, &tables, report, par),
    }
}

/// Compare rows `a` and `b` on `keys` — (column, descending) pairs, most
/// significant first. `Equal` leaves the caller's unique last key to decide.
fn cmp_keys<'c>(
    keys: impl IntoIterator<Item = (&'c ResultColumn, bool)>,
    a: usize,
    b: usize,
) -> std::cmp::Ordering {
    keys.into_iter()
        .map(|(col, desc)| match desc {
            true => col.cmp(a, b).reverse(),
            false => col.cmp(a, b),
        })
        .find(|ord| ord.is_ne())
        .unwrap_or(std::cmp::Ordering::Equal)
}

/// The non-grouped query tail: gather the select list into flat columns —
/// fact columns through the tables' bulk `gather_*` kernels (one virtual
/// dispatch per column, sequential reads on the column store), `CellValue`
/// as dictionary ids, anything computed row at a time — and run
/// `ORDER BY … LIMIT` over row ordinals with the shared
/// [`exec::select_top`], comparing the flat columns. No `SqlValue` row is
/// built here.
fn exec_project(
    plan: &QueryPlan,
    pos: &PosPlan<'_>,
    project: &PosProject,
    batch: &PosBatch,
    tables: &[&dyn FactTable],
    report: &mut QueryReport,
    par: &ParallelCtx,
) -> Result<ResultColumns> {
    let ordered = !project.order.is_empty();
    // Without ORDER BY the first LIMIT rows are the result.
    let n = match plan.limit {
        Some(k) if !ordered => k.min(batch.len()),
        _ => batch.len(),
    };
    let span = blend_obs::span("project");
    span.attr_u64("rows", n as u64);
    let mut cache = ColCache::new(batch);
    let mut column = |e: &PExpr| -> Result<ResultColumn> {
        par.check_interrupt()?;
        Ok(match e {
            PExpr::Int(leaf, col) => {
                let mut v = Vec::with_capacity(n);
                col.gather(tables[*leaf], &cache.positions(*leaf)[..n], &mut v);
                ResultColumn::Key(v)
            }
            PExpr::Superkey(leaf) => {
                let mut v = Vec::with_capacity(n);
                tables[*leaf].gather_superkeys(&cache.positions(*leaf)[..n], &mut v);
                ResultColumn::U128(v)
            }
            PExpr::Value(leaf) => {
                let positions = &cache.positions(*leaf)[..n];
                let mut codes = Vec::with_capacity(n);
                ResultColumn::Text(if tables[*leaf].gather_value_codes(positions, &mut codes) {
                    TextColumn::store(codes, pos.leaves[*leaf].table.clone())
                } else {
                    let strs = positions
                        .iter()
                        .map(|&p| tables[*leaf].value_at(p as usize));
                    TextColumn::dense(strs)
                })
            }
            PExpr::Quadrant(leaf) => {
                let mut v = Vec::with_capacity(n);
                tables[*leaf].gather_quadrants(&cache.positions(*leaf)[..n], &mut v);
                let value = |q: Option<bool>| q.map_or(SqlValue::Null, |b| SqlValue::Int(b as i64));
                ResultColumn::Val(v.into_iter().map(value).collect())
            }
            _ => {
                let mut v = Vec::with_capacity(n);
                for i in 0..n {
                    if poll_every(i) {
                        par.check_interrupt()?;
                    }
                    v.push(e.eval(tables, 0, batch.row(i)));
                }
                ResultColumn::Val(v)
            }
        })
    };
    let mut columns: Vec<ResultColumn> = project
        .exprs
        .iter()
        .map(&mut column)
        .collect::<Result<_>>()?;
    let order: Vec<ResultColumn> = project
        .order
        .iter()
        .map(&mut column)
        .collect::<Result<_>>()?;
    drop(span);

    if ordered {
        let span = blend_obs::span("sort");
        span.attr_u64("rows_in", n as u64);
        span.attr_u64("k", plan.limit.unwrap_or(n) as u64);
        span.attr_str("path", "compare");
        span.attr_u64("candidates", n as u64);
        // Order keys, then the projected values, then input position.
        let keys = order
            .iter()
            .zip(plan.order_by.iter().map(|(_, desc)| *desc));
        let cmp = |a: u32, b: u32| {
            let keys = keys.clone().chain(columns.iter().map(|c| (c, false)));
            cmp_keys(keys, a as usize, b as usize).then(a.cmp(&b))
        };
        let ords = exec::select_top(n, plan.limit, Some(cmp))?;
        span.attr_u64("selected", ords.len() as u64);
        columns = columns.iter().map(|c| c.gather(&ords)).collect();
    }
    report.result_rows = columns.first().map_or(0, ResultColumn::len);
    Ok(ResultColumns {
        labels: plan.output_labels(),
        columns,
    })
}

fn exec_node(
    node: &PosNode,
    pos: &PosPlan<'_>,
    tables: &[&dyn FactTable],
    report: &mut QueryReport,
    par: &ParallelCtx,
) -> Result<PosBatch> {
    match node {
        PosNode::Scan { leaf, residual } => exec_scan(
            pos.leaves[*leaf],
            *leaf,
            residual.as_ref(),
            tables,
            report,
            par,
        ),
        PosNode::Join {
            left,
            right,
            base,
            n_left,
            keys,
            residual,
        } => {
            let lb = exec_node(left, pos, tables, report, par)?;
            let rb = exec_node(right, pos, tables, report, par)?;
            exec_join(
                lb,
                rb,
                *base,
                *n_left,
                keys,
                residual.as_ref(),
                tables,
                report,
                par,
            )
        }
    }
}

/// Positional scan: emit surviving positions; no tuple is materialized.
/// Visits the plan's segments in the reference's order and reports
/// the same telemetry. Large filtered scans are morsel-partitioned across
/// the pool; per-morsel position lists concatenate in morsel order, so the
/// emitted batch is identical at every thread count.
fn exec_scan(
    scan: &ScanPlan,
    leaf: usize,
    residual: Option<&PExpr>,
    tables: &[&dyn FactTable],
    report: &mut QueryReport,
    par: &ParallelCtx,
) -> Result<PosBatch> {
    par.check_interrupt()?;
    let span = blend_obs::span_owned(format!("scan:{}", scan.alias));
    span.attr_str("access", scan.access.label());
    let segs = scan.segments();
    let scanned: usize = segs.iter().map(Seg::len).sum();
    let out = if residual.is_none() && scan.kernel.is_empty() {
        // Unfiltered scans copy their segments wholesale — the common
        // SC/KW case (no TID injection) never touches per-position logic.
        let mut out = Vec::new();
        for seg in &segs {
            scan.filter(*seg, 0, seg.len(), &mut out);
        }
        out
    } else {
        scan_morsels(scan, &segs, leaf, residual, tables, report, par)?
    };
    span.attr_u64("scanned", scanned as u64);
    span.attr_u64("rows", out.len() as u64);
    report.scans.push(ScanReport::new(scan, scanned, out.len()));
    PosBatch::scanned(out, par)
}

/// The filtered scan: the segments cut into morsels, each one batched
/// kernel evaluation ([`ScanPlan::filter`]) plus the residual, on the pool
/// when admission grants workers and inline otherwise.
fn scan_morsels(
    scan: &ScanPlan,
    segs: &[Seg<'_>],
    leaf: usize,
    residual: Option<&PExpr>,
    tables: &[&dyn FactTable],
    report: &mut QueryReport,
    par: &ParallelCtx,
) -> Result<Vec<u32>> {
    // Kernel survivors land either straight in `out` (no residual — the
    // common case) or in the worker's reusable selection-vector scratch for
    // the scalar residual pass.
    let scan_morsel = |m: &Morsel, scratch: &mut ScanScratch, out: &mut Vec<u32>| {
        scratch.sel.clear();
        let dst: &mut Vec<u32> = if residual.is_some() {
            &mut scratch.sel
        } else {
            &mut *out
        };
        scan.filter(segs[m.segment], m.start, m.end, dst);
        if let Some(res) = residual {
            for &pos in &scratch.sel {
                if res.eval_predicate(tables, leaf, std::slice::from_ref(&pos)) {
                    out.push(pos);
                }
            }
        }
    };

    let lens: Vec<usize> = segs.iter().map(Seg::len).collect();
    let morsels = morselize(&lens, par.morsel_len());
    // Admission: a multi-morsel scan asks the controller for workers; an
    // empty grant (threads == 1, tiny input, or the budget held by other
    // in-flight queries) means the scan runs inline on the calling thread.
    // A single morsel would run inline anyway, so its grant is returned
    // immediately.
    let admitted = par.admit(lens.iter().sum()).filter(|_| morsels.len() > 1);
    let intr = par.interrupt();
    // Selection-vector scratch: one morsel-sized vector per participating
    // worker (or one total on the sequential path). Held only for the
    // duration of the scan.
    let scratch_width = admitted.as_ref().map_or(1, PhaseGrant::granted);
    let _scratch_mem = par
        .memory()
        .try_reserve("scan_scratch", scratch_width * par.morsel_len() * 4)?;
    let mut out = Vec::new();
    match admitted {
        Some(grant) => {
            // Per-worker scratch: selection-vector capacity is allocated
            // once per worker, not once per morsel. Workers poll the
            // interrupt per morsel and bail with an empty partial; the
            // check after the run discards everything on Err (the
            // no-partial-results guarantee).
            let run = grant
                .pool()
                .run_with(morsels.len(), ScanScratch::default, |scratch, i| {
                    let mut local = Vec::new();
                    if !intr.is_set() {
                        scan_morsel(&morsels[i], scratch, &mut local);
                    }
                    local
                });
            par.check_interrupt()?;
            out.reserve(run.results.iter().map(Vec::len).sum());
            for local in run.results {
                out.extend_from_slice(&local);
            }
            report.parallel.push(ParallelPhase {
                phase: format!("scan:{}", scan.alias),
                partitions: morsels.len(),
                granted: grant.granted(),
                worker_nanos: run.worker_nanos,
            });
        }
        None => {
            // The sequential loop visits the same morsels (kernel survivors
            // concatenate identically to whole-segment calls) so a deadline
            // is observed mid-segment, not only between segments.
            let mut scratch = ScanScratch::default();
            for m in &morsels {
                par.check_interrupt()?;
                scan_morsel(m, &mut scratch, &mut out);
            }
        }
    }
    Ok(out)
}

/// Pack 1–2 u32 key columns into one `u64` per row (shift-fold, so a
/// single column packs to its plain value).
///
/// The common arities get dedicated zip loops over the column slices —
/// straight-line widen/shift/or chains the auto-vectorizer handles — with
/// the generic shift-fold kept as the fallback (and the shape the
/// specializations must match bit for bit).
fn pack_rows64(cols: &[Vec<u32>], n: usize) -> Vec<u64> {
    match cols {
        [a] => a[..n].iter().map(|&x| x as u64).collect(),
        [a, b] => a[..n]
            .iter()
            .zip(&b[..n])
            .map(|(&x, &y)| ((x as u64) << 32) | y as u64)
            .collect(),
        _ => (0..n)
            .map(|i| {
                let mut key = 0u64;
                for col in cols {
                    key = (key << 32) | col[i] as u64;
                }
                key
            })
            .collect(),
    }
}

/// Pack 3–4 u32 key columns into one `u128` per row (same shift-fold and
/// specialization scheme as [`pack_rows64`], one lane wider).
fn pack_rows128(cols: &[Vec<u32>], n: usize) -> Vec<u128> {
    match cols {
        [a, b, c] => (0..n)
            .map(|i| ((a[i] as u128) << 64) | ((b[i] as u128) << 32) | c[i] as u128)
            .collect(),
        [a, b, c, d] => (0..n)
            .map(|i| {
                ((a[i] as u128) << 96)
                    | ((b[i] as u128) << 64)
                    | ((c[i] as u128) << 32)
                    | d[i] as u128
            })
            .collect(),
        _ => (0..n)
            .map(|i| {
                let mut key = 0u128;
                for col in cols {
                    key = (key << 32) | col[i] as u128;
                }
                key
            })
            .collect(),
    }
}

/// Per-leaf position columns of a batch, extracted at most once. The MC
/// join keys (TableId, RowId) and the SC group keys (TableId, ColumnId)
/// both reference one leaf twice — without the cache every key column
/// would re-copy the same strided positions. Stride-1 batches borrow the
/// batch's data directly, copying nothing.
struct ColCache<'b> {
    batch: &'b PosBatch,
    cols: Vec<Option<Vec<u32>>>,
}

impl<'b> ColCache<'b> {
    fn new(batch: &'b PosBatch) -> Self {
        ColCache {
            batch,
            cols: vec![None; batch.stride],
        }
    }

    /// Positions of the (subtree-local) leaf column.
    fn positions(&mut self, local: usize) -> &[u32] {
        if self.batch.stride == 1 {
            return &self.batch.data;
        }
        self.cols[local].get_or_insert_with(|| self.batch.col(local))
    }
}

/// How [`Interner::ids`] maps a row's key tuple.
#[derive(Clone, Copy)]
enum Intern {
    /// GROUP BY: every tuple gets an id; NULL is a value like any other.
    Group,
    /// A join's build side: new tuples get ids, one holding NULL gets
    /// [`BUILD_NULL`].
    Build,
    /// A join's probe side: lookups only; a tuple holding NULL, or one the
    /// build side never saw, gets [`PROBE_MISS`].
    Probe,
}

/// Out-of-range ids of join key tuples that match nothing. Build and probe
/// get different ones, so a NULL key never meets another.
const BUILD_NULL: u32 = u32::MAX;
const PROBE_MISS: u32 = u32::MAX - 1;

/// Dense `u32` ids for the key tuples of one join or GROUP BY whose keys do
/// not pack (module docs, *Interned keys*): one map per operator, which
/// both join sides share.
struct Interner<'a> {
    ids: FxHashMap<Vec<SqlValue>, u32>,
    /// The map's entries, charged to `key_intern` as they are added.
    mem: MemoryReservation,
    tables: &'a [&'a dyn FactTable],
    par: &'a ParallelCtx,
}

impl<'a> Interner<'a> {
    fn new(tables: &'a [&'a dyn FactTable], par: &'a ParallelCtx) -> Result<Self> {
        Ok(Interner {
            ids: FxHashMap::default(),
            mem: par.memory().try_reserve("key_intern", 0)?,
            tables,
            par,
        })
    }

    /// The id of every row of `batch` (whose first leaf is global leaf
    /// `base`), keyed on the values of `exprs`. Every [`INTERRUPT_STRIDE`]
    /// rows the loop polls the interrupt and charges the entries it added.
    fn ids(
        &mut self,
        mode: Intern,
        exprs: &[&PExpr],
        batch: &PosBatch,
        base: usize,
    ) -> Result<Vec<u32>> {
        use std::collections::hash_map::Entry;
        let mut out = blend_common::try_vec_with_capacity(batch.len(), "key_intern")?;
        let mut added = 0;
        for i in 0..batch.len() {
            if poll_every(i) {
                self.par.check_interrupt()?;
                self.mem.grow(std::mem::take(&mut added))?;
            }
            let row = batch.row(i);
            let key: Vec<SqlValue> = exprs
                .iter()
                .map(|e| e.eval(self.tables, base, row))
                .collect();
            let null = key.iter().any(SqlValue::is_null);
            let next = self.ids.len() as u32;
            out.push(match mode {
                Intern::Build if null => BUILD_NULL,
                Intern::Probe if null => PROBE_MISS,
                Intern::Probe => self.ids.get(&key).copied().unwrap_or(PROBE_MISS),
                Intern::Group | Intern::Build => match self.ids.entry(key) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(_) if next >= PROBE_MISS => {
                        return Err(executor_bug("more distinct keys than ids"))
                    }
                    Entry::Vacant(e) => {
                        // The entry, its control byte, and the key's values
                        // and strings.
                        let text = e.key().iter().filter_map(SqlValue::as_str);
                        added += std::mem::size_of::<(Vec<SqlValue>, u32)>()
                            + 1
                            + e.key().capacity() * std::mem::size_of::<SqlValue>()
                            + text.map(|s| 16 + s.len()).sum::<usize>();
                        *e.insert(next)
                    }
                },
            });
        }
        self.mem.grow(added)?;
        Ok(out)
    }
}

/// Positional hash join on packed `u64`/`u128` keys (or an interned key's
/// id) through the flat [`JoinTable`]. Build/probe side selection and output row order mirror
/// the reference's `hash_join` so the two executors produce byte-identical
/// results.
///
/// On large inputs the build side is **radix-partitioned by key hash** (low
/// hash bits), so each pool worker builds a flat table over a disjoint key
/// set — no partial-map merge exists; a key's whole match run lives in one
/// partition and stays ascending because partition scatter preserves input
/// order. The probe side is chunked in row order with outputs concatenated
/// in chunk order — the sequential probe order.
#[allow(clippy::too_many_arguments)]
fn exec_join(
    left: PosBatch,
    right: PosBatch,
    base: usize,
    n_left: usize,
    keys: &Keys<(PosCol, PosCol), (PExpr, PExpr)>,
    residual: Option<&PExpr>,
    tables: &[&dyn FactTable],
    report: &mut QueryReport,
    par: &ParallelCtx,
) -> Result<PosBatch> {
    par.check_interrupt()?;
    let build_left = left.len() <= right.len();
    let (build, probe) = if build_left {
        (&left, &right)
    } else {
        (&right, &left)
    };
    let side_base = |on_left: bool| if on_left { base } else { base + n_left };
    let (build_base, probe_base) = (side_base(build_left), side_base(!build_left));

    // Key columns for one side: packed keys gathered in bulk (one virtual
    // dispatch per column, not per row; positions extracted once per leaf),
    // interned keys as one id column through a map both sides share.
    let (build_keys, probe_keys) = match keys {
        Keys::Packed(cols) => {
            let side_keys = |batch: &PosBatch, side_base: usize, on_left: bool| {
                let mut cache = ColCache::new(batch);
                cols.iter()
                    .map(|&(lk, rk)| {
                        let (leaf, col) = if on_left { lk } else { rk };
                        let mut vals = Vec::with_capacity(batch.len());
                        col.gather(tables[leaf], cache.positions(leaf - side_base), &mut vals);
                        vals
                    })
                    .collect::<Vec<_>>()
            };
            let build_keys = side_keys(build, build_base, build_left);
            (build_keys, side_keys(probe, probe_base, !build_left))
        }
        Keys::Interned(exprs) => {
            let side = |on_left: bool| -> Vec<&PExpr> {
                (exprs.iter())
                    .map(|(l, r)| if on_left { l } else { r })
                    .collect()
            };
            let mut ids = Interner::new(tables, par)?;
            let build_ids = ids.ids(Intern::Build, &side(build_left), build, build_base)?;
            let probe_ids = ids.ids(Intern::Probe, &side(!build_left), probe, probe_base)?;
            (vec![build_ids], vec![probe_ids])
        }
    };

    // Monomorphize on packed key width: u64 covers 1–2 key columns, u128
    // covers 3–4.
    let (out, n_out) = if build_keys.len() <= 2 {
        join_flat(
            build,
            probe,
            &pack_rows64(&build_keys, build.len()),
            &pack_rows64(&probe_keys, probe.len()),
            build_left,
            base,
            residual,
            tables,
            report,
            par,
        )
    } else {
        join_flat(
            build,
            probe,
            &pack_rows128(&build_keys, build.len()),
            &pack_rows128(&probe_keys, probe.len()),
            build_left,
            base,
            residual,
            tables,
            report,
            par,
        )
    }?;
    let stride = left.stride + right.stride;
    report.joins.push((build.len(), probe.len(), n_out));
    // The joined batch gets its own reservation; the input batches drop at
    // the end of this call, releasing theirs.
    let mem = Some(par.memory().try_reserve("join_out", out.capacity() * 4)?);
    Ok(PosBatch {
        stride,
        data: out,
        mem,
    })
}

/// The key-width-generic core of [`exec_join`]: build flat tables over the
/// (possibly radix-partitioned) build side, then probe in row order.
#[allow(clippy::too_many_arguments)]
fn join_flat<K: JoinKey>(
    build: &PosBatch,
    probe: &PosBatch,
    build_keys: &[K],
    probe_keys: &[K],
    build_left: bool,
    base: usize,
    residual: Option<&PExpr>,
    tables: &[&dyn FactTable],
    report: &mut QueryReport,
    par: &ParallelCtx,
) -> Result<(Vec<u32>, usize)> {
    let intr = par.interrupt();
    let n_build = build.len();
    let build_span = blend_obs::span("join.build");
    build_span.attr_u64("rows", n_build as u64);
    let t0 = Instant::now();
    // The packed key arrays were allocated by the caller; account for them
    // for the duration of the join.
    let _key_mem = par.memory().try_reserve(
        "join_keys",
        (build_keys.len() + probe_keys.len()) * std::mem::size_of::<K>(),
    )?;
    // Admission for the build phase: the radix fanout is sized from the
    // *granted* worker count, so a degraded grant builds fewer partitions
    // (the output is partition-count-invariant either way). The grant is
    // released when `build_grant` drops, before the probe phase asks for
    // its own.
    //
    // Memory ladder: price the build at the granted width (the parallel
    // path additionally hashes every row and radix-scatters it); under
    // pressure retry at half width, then the sequential single-table path,
    // and only then resolve `MemoryExceeded`. Output stays byte-identical
    // at every width because the merge is partition-count-invariant.
    let build_grant = par.admit(n_build);
    let desired = build_grant.as_ref().map_or(1, |g| g.granted());
    let (_build_mem, build_width, _rung) =
        reserve_laddered(par.memory(), "join_build", desired, |w| {
            let mut bytes = JoinTable::estimate_bytes(n_build);
            if w > 1 {
                bytes += n_build * 12 + radix_scratch_bytes(n_build, partition_count(w, n_build));
            }
            bytes
        })?;
    let build_grant = build_grant
        .filter(|_| build_width > 1)
        .map(|g| g.narrowed(build_width));
    let n_parts = build_grant
        .as_ref()
        .map_or(1, |_| partition_count(build_width, n_build));
    let pmask = (n_parts - 1) as u64;

    let flat_tables: Vec<JoinTable> = match build_grant.as_ref().filter(|_| n_parts > 1) {
        None => vec![JoinTable::build(build_keys, None)?],
        Some(grant) => {
            // Radix-partition build rows by the low hash bits; each partition's
            // row list is ascending, so per-key match runs stay ascending.
            let hashes: Vec<u64> = K::hash_all(build_keys, "join_build_hashes")?;
            let parts: Vec<u32> = hashes.iter().map(|&h| (h & pmask) as u32).collect();
            let rp = radix_partition(&parts, n_parts)?;
            // Workers poll the interrupt per partition: an interrupted build
            // produces empty tables, which the check below throws away. A
            // worker whose table build fails its allocation surfaces the typed
            // error here, discarding every partial the same way.
            let run = grant.pool().run(n_parts, |p| {
                let part = if intr.is_set() { &[][..] } else { rp.part(p) };
                JoinTable::build_prehashed(&hashes, Some(part))
            });
            report.parallel.push(ParallelPhase {
                phase: "join-build".to_string(),
                partitions: n_parts,
                granted: build_width,
                worker_nanos: run.worker_nanos,
            });
            run.results.into_iter().collect::<Result<Vec<_>>>()?
        }
    };
    drop(build_grant);
    par.check_interrupt()?;
    let buckets: usize = flat_tables.iter().map(JoinTable::buckets).sum();
    let max_chain = flat_tables
        .iter()
        .map(JoinTable::max_chain)
        .max()
        .unwrap_or(0);
    build_span.attr_u64("buckets", buckets as u64);
    build_span.attr_u64("max_chain", max_chain as u64);
    build_span.attr_u64("partitions", n_parts as u64);
    drop(build_span);
    report.hash_tables.push(HashTableStats {
        phase: "join".to_string(),
        build_nanos: t0.elapsed().as_nanos() as u64,
        buckets,
        max_chain,
        partitions: n_parts,
    });

    let stride = build.stride + probe.stride;
    // Probe rows are consumed in [`PROBE_BLOCK`]-row blocks: each block's
    // keys are hashed by [`JoinKey::hash_block`] and the destination
    // buckets are prefetched (heads first, then the entry runs the heads
    // name) before any row walks its chain, so `matches_hashed` mostly hits
    // cache. Blocking never reorders anything: rows are still probed front
    // to back.
    let probe_chunk = |range: std::ops::Range<usize>| -> (Vec<u32>, usize) {
        let mut out: Vec<u32> = Vec::new();
        let mut joined: Vec<u32> = vec![0; stride];
        let mut n_out = 0usize;
        let mut hash_buf = [0u64; PROBE_BLOCK];
        let mut start = range.start;
        'blocks: while start < range.end {
            let end = (start + PROBE_BLOCK).min(range.end);
            let keys = &probe_keys[start..end];
            let hashes = &mut hash_buf[..keys.len()];
            K::hash_block(keys, hashes);
            if n_parts == 1 {
                let flat = &flat_tables[0];
                for &h in hashes.iter() {
                    flat.prefetch(h);
                }
                for &h in hashes.iter() {
                    flat.prefetch_entries(h);
                }
            } else {
                // Partitioned tables are small; pulling just the bucket
                // heads ahead of the walk is the win here.
                for &h in hashes.iter() {
                    flat_tables[(h & pmask) as usize].prefetch(h);
                }
            }
            for (j, (&key, &hash)) in keys.iter().zip(hashes.iter()).enumerate() {
                let i = start + j;
                if poll_every(i) && intr.is_set() {
                    break 'blocks;
                }
                // One hash per probe row selects both the radix partition
                // (low bits) and, inside `matches_hashed`, the bucket
                // (bits 32..).
                let flat = &flat_tables[(hash & pmask) as usize];
                let pt = probe.row(i);
                for bi in flat.matches_hashed(build_keys, key, hash) {
                    let bt = build.row(bi as usize);
                    let (lt, rt) = if build_left { (bt, pt) } else { (pt, bt) };
                    joined[..lt.len()].copy_from_slice(lt);
                    joined[lt.len()..].copy_from_slice(rt);
                    if let Some(res) = residual {
                        if !res.eval_predicate(tables, base, &joined) {
                            continue;
                        }
                    }
                    out.extend_from_slice(&joined);
                    n_out += 1;
                }
            }
            start = end;
        }
        (out, n_out)
    };

    let probe_span = blend_obs::span("join.probe");
    probe_span.attr_u64("rows", probe.len() as u64);
    let (out, n_out) = if let Some(grant) = par.admit(probe.len()) {
        let chunks = split_even(probe.len(), grant.granted());
        let run = grant
            .pool()
            .run(chunks.len(), |ci| probe_chunk(chunks[ci].clone()));
        report.parallel.push(ParallelPhase {
            phase: "join-probe".to_string(),
            partitions: chunks.len(),
            granted: grant.granted(),
            worker_nanos: run.worker_nanos,
        });
        par.check_interrupt()?;
        let mut out = Vec::with_capacity(run.results.iter().map(|(o, _)| o.len()).sum());
        let mut n_out = 0usize;
        for (local, local_n) in run.results {
            out.extend_from_slice(&local);
            n_out += local_n;
        }
        (out, n_out)
    } else {
        let result = probe_chunk(0..probe.len());
        par.check_interrupt()?;
        result
    };
    probe_span.attr_u64("matched", n_out as u64);
    Ok((out, n_out))
}

// ---- aggregation -----------------------------------------------------------

/// Pre-gathered input column of one aggregate spec (one bulk gather per
/// spec, done once before any partitioning so every radix partition reads
/// the same flat arrays).
enum SpecData {
    /// `COUNT(*)` / generic aggregates: nothing to pre-gather.
    None,
    /// Distinct via dictionary codes (column store), indexed by batch row.
    Codes(Vec<u32>),
    /// Distinct via strings (row store): the leaf's storage positions per
    /// batch row; dense string ids are assigned per partition.
    Positions(Vec<u32>),
}

/// GROUP BY output as flat columns, one entry per group: the batch row that
/// first produced the group, then the key and aggregate columns in the
/// order of the post-aggregation tuple the plan's projection and ORDER BY
/// are compiled against. No `SqlValue` tuple exists per group;
/// [`finish_groups`] gathers the output columns of the groups that survive
/// `ORDER BY … LIMIT`.
///
/// A group's first-seen row is unique, and ascending first-seen rows are
/// the sequential (and the reference's) group order, so it is the last sort
/// key wherever groups meet — which also merges radix partitions.
#[derive(Default)]
struct GroupCols {
    first_rows: Vec<u32>,
    cols: Vec<ResultColumn>,
}

impl GroupCols {
    fn len(&self) -> usize {
        self.first_rows.len()
    }

    fn bytes(&self) -> usize {
        self.len() * 4 + self.cols.iter().map(ResultColumn::bytes).sum::<usize>()
    }

    fn gather(&self, ords: &[u32]) -> GroupCols {
        GroupCols {
            first_rows: ords.iter().map(|&g| self.first_rows[g as usize]).collect(),
            cols: self.cols.iter().map(|c| c.gather(ords)).collect(),
        }
    }

    fn append(&mut self, other: GroupCols) -> Result<()> {
        self.first_rows.extend(other.first_rows);
        let mut cols = self.cols.iter_mut().zip(other.cols);
        cols.try_for_each(|(dst, src)| dst.append(src))
    }

    /// Group `g` as the post-aggregation tuple.
    fn fill_tuple(&self, g: usize, out: &mut Tuple) {
        out.clear();
        out.extend(self.cols.iter().map(|c| c.value(g)));
    }

    /// The values of `e` over all groups. A plain key or aggregate
    /// reference borrows its flat column; anything else is evaluated once
    /// per group.
    fn sort_col(&self, e: &CExpr) -> Cow<'_, ResultColumn> {
        if let CExpr::Col(i) = e {
            if let Some(col) = self.cols.get(*i) {
                return Cow::Borrowed(col);
            }
        }
        let mut tuple = Tuple::new();
        let vals = (0..self.len()).map(|g| {
            self.fill_tuple(g, &mut tuple);
            e.eval(&tuple)
        });
        Cow::Owned(ResultColumn::Val(vals.collect()))
    }

    /// The groups that survive the plan's `ORDER BY … LIMIT`, in output
    /// order, through the shared [`exec::select_top`]. The comparator is
    /// the tuple tail's — order keys, then the projected values — read off
    /// the flat columns, and ends with the first-seen row; with no ORDER BY
    /// that last key alone restores first-seen order.
    ///
    /// Under a LIMIT led by a flat integer key, [`threshold_band`] first
    /// counts that key and hands the comparator only the groups at or
    /// beyond the k-th best value (module docs, *Top-k before
    /// materialization*); every other shape ranks all groups.
    fn top(&self, plan: &QueryPlan, mem: &Arc<QueryMemory>) -> Result<Top> {
        let projected = plan.projection.iter().map(|(_, e)| (e, false));
        let keys: Vec<(Cow<'_, ResultColumn>, bool)> = plan
            .order_by
            .iter()
            .map(|(e, desc)| (e, *desc))
            .chain(projected.filter(|_| !plan.order_by.is_empty()))
            .map(|(e, desc)| (self.sort_col(e), desc))
            .collect();
        let cmp = |a: u32, b: u32| {
            let (a, b) = (a as usize, b as usize);
            cmp_keys(keys.iter().map(|(col, desc)| (&**col, *desc)), a, b)
                .then_with(|| self.first_rows[a].cmp(&self.first_rows[b]))
        };
        let band = match (plan.limit, keys.first()) {
            (Some(k), Some((col, desc))) => match &**col {
                ResultColumn::Int(scores) => threshold_band(scores, k, *desc, mem)?,
                ResultColumn::Key(scores) => threshold_band(scores, k, *desc, mem)?,
                _ => None,
            },
            _ => None,
        };
        let Some((band, _scratch)) = band else {
            return Ok(Top {
                ords: exec::select_top(self.len(), plan.limit, Some(cmp))?,
                candidates: self.len(),
                counted: false,
            });
        };
        // The band ascends in group ordinal, and the comparator is total,
        // so ranking band positions ranks the groups behind them.
        let in_band = |a: u32, b: u32| cmp(band[a as usize], band[b as usize]);
        let ords = exec::select_top(band.len(), plan.limit, Some(in_band))?;
        Ok(Top {
            ords: ords.iter().map(|&i| band[i as usize]).collect(),
            candidates: band.len(),
            counted: true,
        })
    }
}

/// What [`GroupCols::top`] selected, and how.
struct Top {
    /// The surviving groups' ordinals, in output order.
    ords: Vec<u32>,
    /// The groups the comparator ranked.
    candidates: usize,
    /// Whether a counting threshold chose those candidates.
    counted: bool,
}

/// The counting threshold in front of the comparator: for `LIMIT k` over
/// `scores` — the leading ORDER BY key of every group, descending if
/// `desc` — the ordinals, ascending, of the groups scoring at least the
/// k-th best score `T` (at most `T` ascending), with the reservation
/// covering them. At least k groups score `T` or better and the comparator
/// orders by the score first, so no group outside the band can be among
/// the k survivors.
///
/// `None` where counting does not apply: `k` outside `1..n`, or a spread
/// `max − min` wider than `n` (also where it overflows `i64`), whose
/// histogram could outweigh the groups it counts. The histogram
/// (`spread + 1` counters) and then the band are reserved under
/// `sort_scratch` before they are allocated.
fn threshold_band<S: Copy + Into<i64>>(
    scores: &[S],
    k: usize,
    desc: bool,
    mem: &Arc<QueryMemory>,
) -> Result<Option<(Vec<u32>, MemoryReservation)>> {
    let n = scores.len();
    if k == 0 || k >= n {
        return Ok(None);
    }
    let (min, max) = scores.iter().fold((i64::MAX, i64::MIN), |(lo, hi), &s| {
        let s = s.into();
        (lo.min(s), hi.max(s))
    });
    let spread = max.checked_sub(min).and_then(|d| usize::try_from(d).ok());
    let Some(spread) = spread.filter(|&d| d <= n) else {
        return Ok(None);
    };
    let (threshold, kept) = {
        let _hist_mem = mem.try_reserve("sort_scratch", (spread + 1) * 4)?;
        let mut hist: Vec<u32> = blend_common::try_zeroed_vec(spread + 1, "sort_scratch")?;
        for &s in scores {
            hist[(s.into() - min) as usize] += 1;
        }
        // Walk from the best end until k groups are covered; the buckets
        // hold all n > k of them, so the walk stops inside the histogram.
        let (mut bucket, mut kept) = (0, 0usize);
        for step in 0..=spread {
            bucket = if desc { spread - step } else { step };
            kept += hist[bucket] as usize;
            if kept >= k {
                break;
            }
        }
        (min + bucket as i64, kept)
    };
    let band_mem = mem.try_reserve("sort_scratch", kept * 4)?;
    let mut band: Vec<u32> = blend_common::try_vec_with_capacity(kept, "sort_scratch")?;
    let in_band = |s: i64| match desc {
        true => s >= threshold,
        false => s <= threshold,
    };
    band.extend((0..n as u32).filter(|&g| in_band(scores[g as usize].into())));
    Ok(Some((band, band_mem)))
}

/// The grouped query tail: select the surviving groups, then gather the
/// select list's flat columns for those alone. `parts` holds one [`GroupCols`] per
/// radix partition; under a LIMIT and a `grant`, every partition first
/// selects its own top-k on the pool, so the merge sees at most k groups
/// per partition instead of all of them.
///
/// The `sort` span's `path` says whether a counting threshold narrowed any
/// selection (`threshold`) or the comparator ranked every group it saw
/// (`compare`); `candidates` counts the groups that reached the comparator
/// — in the partitions' own selections where they ran, since the merge
/// ranks only their survivors.
fn finish_groups(
    plan: &QueryPlan,
    mut parts: Vec<GroupCols>,
    grant: Option<&PhaseGrant>,
    report: &mut QueryReport,
    par: &ParallelCtx,
) -> Result<ResultColumns> {
    let span = blend_obs::span("sort");
    let rows_in: usize = parts.iter().map(GroupCols::len).sum();
    span.attr_u64("rows_in", rows_in as u64);
    span.attr_u64("k", plan.limit.unwrap_or(rows_in) as u64);
    let mem = par.memory();
    let _cols_mem = mem.try_reserve("group_out", parts.iter().map(GroupCols::bytes).sum())?;
    // A pool round only where some partition has groups to drop.
    let prune = plan.limit.filter(|k| parts.iter().any(|p| p.len() > *k));
    let (mut candidates, mut counted) = (None, false);
    if let (Some(grant), Some(_)) = (grant, prune) {
        let run = grant.pool().run(parts.len(), |p| -> Result<_> {
            let top = parts[p].top(plan, mem)?;
            Ok((parts[p].gather(&top.ords), top.candidates, top.counted))
        });
        report.parallel.push(ParallelPhase {
            phase: "sort".to_string(),
            partitions: parts.len(),
            granted: grant.pool().threads(),
            worker_nanos: run.worker_nanos,
        });
        par.check_interrupt()?;
        let mut ranked = 0;
        parts = Vec::with_capacity(run.results.len());
        for result in run.results {
            let (part, part_candidates, part_counted) = result?;
            parts.push(part);
            ranked += part_candidates;
            counted |= part_counted;
        }
        candidates = Some(ranked);
    }
    let mut parts = parts.into_iter();
    let mut groups = parts.next().unwrap_or_default();
    parts.try_for_each(|part| groups.append(part))?;
    let top = groups.top(plan, mem)?;
    let ords = top.ords;
    let path = if counted || top.counted {
        "threshold"
    } else {
        "compare"
    };
    span.attr_str("path", path);
    span.attr_u64("candidates", candidates.unwrap_or(top.candidates) as u64);
    span.attr_u64("selected", ords.len() as u64);
    drop(span);

    // The select list over the survivors: a plain key or aggregate
    // reference gathers its flat column, anything else evaluates per group.
    let span = blend_obs::span("project");
    span.attr_u64("rows", ords.len() as u64);
    let mut tuple = Tuple::new();
    let columns: Vec<ResultColumn> = plan
        .projection
        .iter()
        .map(|(_, e)| match e {
            CExpr::Col(i) if *i < groups.cols.len() => groups.cols[*i].gather(&ords),
            _ => ResultColumn::Val(
                ords.iter()
                    .map(|&g| {
                        groups.fill_tuple(g as usize, &mut tuple);
                        e.eval(&tuple)
                    })
                    .collect(),
            ),
        })
        .collect();
    // The survivors' columns stand beside the group columns they were
    // gathered from until this returns; the engine charges them from there.
    let _out_mem = par.memory().try_reserve(
        "group_project",
        columns.iter().map(ResultColumn::bytes).sum(),
    )?;
    report.result_rows = ords.len();
    Ok(ResultColumns {
        labels: plan.output_labels(),
        columns,
    })
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
        par: &ParallelCtx,
    ) -> Result<Self> {
        let n_rows = batch.len();
        let mut cache = ColCache::new(batch);
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
            _mem: par.memory().try_reserve("group_gather", gather_bytes)?,
        })
    }
}

/// Positional GROUP BY on the hash path (a [`column_grouped`] plan never
/// scans: [`group_columns`]). Group keys pack into a `u64` (≤2 columns, or
/// an interned key's id) or a `u128` (3–4 columns, the C shape); a flat
/// [`GroupIndex`] assigns dense
/// group ids in first-seen order and [`aggregate`] accumulates
/// column-at-a-time into struct-of-arrays state, which is also the phase's
/// output ([`GroupCols`]). [`finish_groups`] then orders, limits and
/// projects.
///
/// Large keyed inputs radix-partition rows by key hash so each pool worker
/// owns its groups outright — per-group update order is exactly the
/// sequential ascending row order (no merge), and ordering finished groups
/// by first-seen row recovers the sequential output order.
///
/// A global (ungrouped) aggregate is the zero-key case: one group, which
/// exists even over zero input rows, and group id 0 for every row. It needs
/// no index, so it groups on the query's thread without an admission
/// request and records no [`HashTableStats`]; its span is `group.global`.
///
/// The `group` span covers the whole phase, gathers and key packing
/// included; its `path` attr says `hash`.
fn exec_group(
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
    let (parts, grant) = match input.key_cols.len() {
        0 => {
            // The gid column, reserved like the keyed path's.
            let _gid_mem = par.memory().try_reserve("group_build", n_rows * 4)?;
            let row_gids = blend_common::try_zeroed_vec(n_rows, "group_row_gids")?;
            let groups = aggregate(&input, None, vec![0], &row_gids)?;
            par.check_interrupt()?;
            (vec![groups], None)
        }
        1 | 2 => group_keyed(&pack_rows64(&input.key_cols, n_rows), &input, report, par)?,
        _ => group_keyed(&pack_rows128(&input.key_cols, n_rows), &input, report, par)?,
    };
    drop(input);
    span.attr_u64(
        "groups",
        parts.iter().map(GroupCols::len).sum::<usize>() as u64,
    );
    span.attr_u64("partitions", parts.len() as u64);
    drop(span);
    finish_groups(plan, parts, grant.as_ref(), report, par)
}

/// `COUNT(DISTINCT CellValue) GROUP BY TableId[, ColumnId]` off the scan
/// table's column index (module docs, *Column-index grouping*), the scan
/// itself never run: walk each driving value's run ordinals in driving
/// order, skip tables the kernel rejects, and bump a dense counter per
/// ordinal (`ColumnId` a key) or per table at each table change. A run's
/// key is read only where the walk needs its table — KW, or a `TableId`
/// set to test; SC without one counts ordinals alone. A group's first
/// touch records the running count of entries kept as its first-seen row.
/// Sequential on the query's thread, with counters and group slots
/// reserved up front.
fn group_columns(
    plan: &QueryPlan,
    scan: &ScanPlan,
    shape: &PosGroup<'_>,
    report: &mut QueryReport,
    par: &ParallelCtx,
) -> Result<ResultColumns> {
    let table = scan.table.as_ref();
    let (Some(index), Keys::Packed(keys)) = (table.column_index(), &shape.keys) else {
        return Err(executor_bug("column-index grouping without a column index"));
    };
    let span = blend_obs::span("group");
    span.attr_str("path", "columns");
    let by_column = keys.len() == 2;
    let lists: Vec<&[u32]> = scan
        .driving_values
        .iter()
        .filter_map(|v| table.code_of_value(v).map(|code| index.ordinals(code)))
        .collect();
    let visited: usize = lists.iter().map(|l| l.len()).sum();
    let n_slots = if by_column {
        index.runs()
    } else {
        table.n_tables() as usize
    };
    let outside =
        |slot: u32| BlendError::SqlExec(format!("column index: slot {slot} of {n_slots}"));
    let (table_in, table_not_in) = (&scan.kernel.table_in, &scan.kernel.table_not_in);
    let keep = |t: u32| {
        table_in.as_ref().is_none_or(|s| s.contains(t))
            && !table_not_in.as_ref().is_some_and(|s| s.contains(t))
    };
    // SC with no table set counts per ordinal and never asks which table a
    // run belongs to.
    let keys_unread = by_column && table_in.is_none() && table_not_in.is_none();
    let (groups, kept) = {
        let max_groups = visited.min(n_slots);
        let _mem = par
            .memory()
            .try_reserve("group_columns", n_slots * 4 + max_groups * 8)?;
        let mut counts: Vec<u32> = blend_common::try_zeroed_vec(n_slots, "group_columns")?;
        // Per group, in first-touch order: its counter slot and first-seen
        // entry.
        let mut slots: Vec<u32> = blend_common::try_vec_with_capacity(max_groups, "group_columns")?;
        let mut first_rows = blend_common::try_vec_with_capacity(max_groups, "group_columns")?;
        let (mut walked, mut kept) = (0usize, 0u32);
        let mut bump = |slot: u32, kept: u32| -> Result<()> {
            let count = counts.get_mut(slot as usize).ok_or_else(|| outside(slot))?;
            if *count == 0 {
                slots.push(slot);
                first_rows.push(kept);
            }
            *count += 1;
            Ok(())
        };
        for ordinals in &lists {
            let mut prev_table = u32::MAX;
            for &ordinal in *ordinals {
                if poll_every(walked) {
                    par.check_interrupt()?;
                }
                walked += 1;
                if keys_unread {
                    bump(ordinal, kept)?;
                    kept += 1;
                    continue;
                }
                let (t, _) = index.key(ordinal);
                if !keep(t) {
                    continue;
                }
                if by_column || t != prev_table {
                    bump(if by_column { ordinal } else { t }, kept)?;
                }
                prev_table = t;
                kept += 1;
            }
        }
        // Key values of each group's slot, then one count column per
        // aggregate (all of them `COUNT(DISTINCT CellValue)`).
        let key = |slot: u32, col: IntCol| match (by_column, col) {
            (false, _) => slot,
            (true, IntCol::Table) => index.key(slot).0,
            (true, _) => index.key(slot).1,
        };
        let mut cols: Vec<ResultColumn> = keys
            .iter()
            .map(|&(_, col)| ResultColumn::Key(slots.iter().map(|&s| key(s, col)).collect()))
            .collect();
        let distinct: Vec<i64> = slots.iter().map(|&s| counts[s as usize] as i64).collect();
        cols.extend(
            shape
                .aggs
                .iter()
                .map(|_| ResultColumn::Int(distinct.clone())),
        );
        (GroupCols { first_rows, cols }, kept as usize)
    };
    span.attr_u64("rows", kept as u64);
    span.attr_u64("groups", groups.len() as u64);
    span.attr_u64("partitions", 1);
    drop(span);
    report.scans.push(ScanReport {
        access: "column-index".to_string(),
        ..ScanReport::new(scan, visited, kept)
    });
    finish_groups(plan, vec![groups], None, report, par)
}

/// The key-width-generic core of the keyed GROUP BY: one [`GroupCols`] per
/// radix partition (one in all on the sequential path), plus the phase
/// grant the partitions ran under, for the selection that follows.
fn group_keyed<K: JoinKey>(
    packed: &[K],
    input: &GroupInput<'_>,
    report: &mut QueryReport,
    par: &ParallelCtx,
) -> Result<(Vec<GroupCols>, Option<PhaseGrant>)> {
    let intr = par.interrupt();
    let n_rows = packed.len();
    let t0 = Instant::now();
    // Admission for the grouping phase: fanout follows the granted worker
    // count; an empty grant takes the single-partition sequential path.
    //
    // Memory ladder: price the group state (row→gid map, group index,
    // packed keys) at the granted width — the parallel path additionally
    // hashes every row and radix-scatters it — narrowing to half width and
    // then the sequential single-partition loop under pressure. Group
    // output is partition-count-invariant, so degraded widths stay
    // byte-identical.
    let grant = par.admit(n_rows);
    let desired = grant.as_ref().map_or(1, |g| g.granted());
    let (_group_mem, group_width, _rung) =
        reserve_laddered(par.memory(), "group_build", desired, |w| {
            let mut bytes = n_rows * (4 + std::mem::size_of::<K>())
                + GroupIndex::<K>::estimate_bytes((n_rows / 4).min(1 << 16));
            if w > 1 {
                bytes += n_rows * 12 + radix_scratch_bytes(n_rows, partition_count(w, n_rows));
            }
            bytes
        })?;
    let n_parts = partition_count(group_width, n_rows);
    // The grant survives only where the phase really fans out.
    let grant = grant
        .filter(|_| group_width > 1 && n_parts > 1)
        .map(|g| g.narrowed(group_width));

    let partitions: Vec<Result<GroupedPartition>> = match &grant {
        None => vec![group_partition(packed, None, input, intr)],
        Some(grant) => {
            // Radix-partition rows by key hash (low bits): each worker owns
            // its groups outright, and within a partition rows keep
            // ascending global order, so every group's aggregates see the
            // exact sequential update sequence.
            let pmask = (n_parts - 1) as u64;
            let hashes: Vec<u64> = K::hash_all(packed, "group_hashes")?;
            let part_of: Vec<u32> = hashes.iter().map(|&h| (h & pmask) as u32).collect();
            let rp = radix_partition(&part_of, n_parts)?;
            let run = grant.pool().run(n_parts, |p| {
                group_partition(packed, Some((&hashes, rp.part(p))), input, intr)
            });
            report.parallel.push(ParallelPhase {
                phase: "group".to_string(),
                partitions: n_parts,
                granted: group_width,
                worker_nanos: run.worker_nanos,
            });
            run.results
        }
    };
    par.check_interrupt()?;
    let mut slots = 0usize;
    let mut max_probe = 0usize;
    let mut parts = Vec::with_capacity(partitions.len());
    for part in partitions {
        // A partition whose index growth failed its allocation surfaces
        // the typed error here; every other partial is discarded with it.
        let (cols, part_slots, part_probe) = part?;
        slots += part_slots;
        max_probe = max_probe.max(part_probe);
        parts.push(cols);
    }
    report.hash_tables.push(HashTableStats {
        phase: "group".to_string(),
        build_nanos: t0.elapsed().as_nanos() as u64,
        buckets: slots,
        max_chain: max_probe,
        partitions: parts.len(),
    });
    Ok((parts, grant))
}

/// One partition's grouped output plus the group index's slot count and
/// max probe length (telemetry).
type GroupedPartition = (GroupCols, usize, usize);

/// Group one partition's rows: assign dense group ids through a flat
/// [`GroupIndex`], then [`aggregate`]. `part` is the radix pass's per-row
/// hashes and this partition's ascending rows; `None` groups every row and
/// hashes them here. Returns one [`GroupedPartition`] in first-seen order.
fn group_partition<K: JoinKey>(
    packed: &[K],
    part: Option<(&[u64], &[u32])>,
    input: &GroupInput<'_>,
    intr: &Interrupt,
) -> Result<GroupedPartition> {
    let rows = part.map(|(_, rows)| rows);
    let part_n = rows.map_or(packed.len(), <[u32]>::len);

    // Dense group ids in first-seen order + first row per group. Rows
    // upsert in [`PROBE_BLOCK`]-row blocks: each block's hashes come from
    // [`JoinKey::hash_block`] (or the radix pass, which already hashed
    // every key to pick partitions), and the destination slots are
    // prefetched before any upsert runs, so the open-addressing walk mostly
    // hits cache. Insert order — and with it gid assignment and first-seen
    // rows — is untouched: rows still upsert front to back.
    let mut index: GroupIndex<K> = GroupIndex::with_capacity((part_n / 4).min(1 << 16))?;
    let mut first_rows: Vec<u32> = Vec::new();
    let mut row_gids: Vec<u32> = blend_common::try_vec_with_capacity(part_n, "group_row_gids")?;
    let mut hash_buf = [0u64; PROBE_BLOCK];
    for start in (0..part_n).step_by(PROBE_BLOCK) {
        let end = (start + PROBE_BLOCK).min(part_n);
        let hashes = &mut hash_buf[..end - start];
        match part {
            Some((all, rows)) => {
                for (h, &r) in hashes.iter_mut().zip(&rows[start..end]) {
                    *h = all[r as usize];
                }
            }
            None => K::hash_block(&packed[start..end], hashes),
        }
        // Only worth priming once the table has outgrown cache. An upsert
        // below may grow the table mid-block, turning the rest of the
        // block's prefetches stale — merely useless, never wrong.
        if index.slot_count() >= PREFETCH_MIN_SLOTS {
            for &h in hashes.iter() {
                index.prefetch_slot(h);
            }
        }
        for (idx, &h) in (start..end).zip(hashes.iter()) {
            // Cooperative bail: an interrupted partition returns no groups;
            // the caller's post-run check discards every partial.
            if poll_every(idx) && intr.is_set() {
                return Ok((GroupCols::default(), 0, 0));
            }
            let i = rows.map_or(idx, |r| r[idx] as usize);
            let before = index.len();
            let gid = index.insert_or_get_hashed(packed[i], h)?;
            if index.len() != before {
                first_rows.push(i as u32);
            }
            row_gids.push(gid);
        }
    }
    if intr.is_set() {
        return Ok((GroupCols::default(), 0, 0));
    }
    let groups = aggregate(input, rows, first_rows, &row_gids)?;
    Ok((groups, index.slot_count(), index.max_probe()))
}

/// Accumulate each aggregate column-at-a-time into a flat vector indexed
/// by group id — the output column itself for the counts — behind the key
/// columns read at each group's first-seen row. `row_gids[idx]` is the
/// group id of batch row `rows[idx]` (`rows` = `None`: of row `idx`);
/// `first_rows[g]` is the batch row that opened group `g`.
fn aggregate(
    input: &GroupInput<'_>,
    rows: Option<&[u32]>,
    first_rows: Vec<u32>,
    row_gids: &[u32],
) -> Result<GroupCols> {
    let GroupInput {
        shape,
        batch,
        tables,
        key_cols,
        spec_data,
        ..
    } = input;
    let n_groups = first_rows.len();
    let row_at = |idx: usize| rows.map_or(idx, |r| r[idx] as usize);
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
                let at = |&r: &u32| e.eval(tables, 0, batch.row(r as usize));
                ResultColumn::Val(first_rows.iter().map(at).collect())
            })
            .collect(),
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
                ResultColumn::Int(distinct_counts(csr, n_groups, |idx| codes[row_at(idx)]))
            }
            (PosAggSpec::DistinctValue { leaf }, SpecData::Positions(positions)) => {
                // Dense string ids: one map per partition, never per group.
                // Ids are bijective with distinct strings within the
                // partition, so sort-unique over ids counts strings.
                let mut ids: FxHashMap<&str, u32> = FxHashMap::default();
                let str_ids: Vec<u32> = (0..row_gids.len())
                    .map(|idx| {
                        let s = tables[*leaf].value_at(positions[row_at(idx)] as usize);
                        let next = ids.len() as u32;
                        *ids.entry(s).or_insert(next)
                    })
                    .collect();
                let csr = match &mut gid_csr {
                    Some(c) => c,
                    none => none.insert(radix_partition(row_gids, n_groups)?),
                };
                ResultColumn::Int(distinct_counts(csr, n_groups, |idx| str_ids[idx]))
            }
            (PosAggSpec::Generic { plan, arg }, _) => {
                let mut states: Vec<AggState> =
                    (0..n_groups).map(|_| AggState::new(plan)).collect();
                for (idx, &g) in row_gids.iter().enumerate() {
                    let row = batch.row(row_at(idx));
                    states[g as usize].update_value(arg.as_ref().map(|e| e.eval(tables, 0, row)));
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

/// A state the planner never produces (`what` names it): an executor bug,
/// reported typed instead of panicking.
fn executor_bug(what: &str) -> BlendError {
    BlendError::SqlExec(format!("positional executor: unexpected {what}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SqlEngine;
    use crate::exec::ResultSet;
    use blend_storage::{build_engine, EngineKind};

    fn engine(kind: EngineKind) -> SqlEngine {
        let mut rows = Vec::new();
        for t in 0..4u32 {
            for r in 0..6u32 {
                rows.push(blend_storage::FactRow::new(
                    &format!("k{}", (t + r) % 5),
                    t,
                    0,
                    r,
                    ((t as u128) << 32) | r as u128,
                    None,
                ));
                rows.push(blend_storage::FactRow::new(
                    &format!("{}", r * 10),
                    t,
                    1,
                    r,
                    ((t as u128) << 32) | r as u128,
                    Some(r % 2 == 0),
                ));
            }
        }
        SqlEngine::with_alltables(build_engine(kind, rows))
    }

    fn both_paths(eng: &SqlEngine, sql: &str) -> (ResultSet, String, ResultSet) {
        let (a, ra) = eng.execute_with_report(sql).unwrap();
        let (b, _) = eng.execute_reference(sql).unwrap();
        (a, ra.path, b)
    }

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
    fn mc_join_shape_is_admitted() {
        for kind in [EngineKind::Row, EngineKind::Column] {
            let eng = engine(kind);
            let (a, path, b) = both_paths(
                &eng,
                "SELECT q0.TableId AS tid, q0.RowId AS rid, q0.SuperKey AS sk, \
                 q0.CellValue AS v0, q1.CellValue AS v1 FROM \
                 (SELECT * FROM AllTables WHERE CellValue IN ('k1','k3')) AS q0 \
                 INNER JOIN (SELECT * FROM AllTables WHERE CellValue IN ('10','30')) AS q1 \
                 ON q0.TableId = q1.TableId AND q0.RowId = q1.RowId",
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
    /// group hash table — on both engines, sequentially and on a forced
    /// pool, with the reference's bytes (NULL for SUM, AVG, MIN and
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
            for eng in [engine(kind), forced_parallel_engine(kind, 4)] {
                for (sql, rows) in &cases {
                    let (got, rep) = eng.execute_with_report(sql).unwrap();
                    assert_eq!(rep.path, "positional", "{kind:?}: {sql}");
                    assert_eq!(got.len(), *rows, "{kind:?}: {sql}");
                    assert!(rep.hash_tables.is_empty(), "{kind:?}: {sql}");
                    assert!(rep.parallel.iter().all(|p| p.phase != "group"));
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

    /// Engine with parallel tuning forced low enough that every phase of
    /// every query in this module rides the pool.
    fn forced_parallel_engine(kind: EngineKind, threads: usize) -> SqlEngine {
        let mut eng = engine(kind);
        eng.set_parallel(Arc::new(ParallelCtx::with_tuning(threads, 1, 3)));
        eng
    }

    #[test]
    fn forced_parallel_execution_is_byte_identical() {
        let queries = [
            // SC shape behind a RowId filter: parallel scan, then the
            // hash-path group.
            "SELECT TableId AS t, COUNT(DISTINCT CellValue) AS score FROM AllTables \
             WHERE CellValue IN ('k0','k2','k4') AND RowId < 6 GROUP BY TableId, ColumnId \
             ORDER BY score DESC LIMIT 10",
            // MC shape: parallel scans + parallel join build/probe.
            "SELECT q0.TableId AS tid, q0.RowId AS rid, q0.SuperKey AS sk, \
             q0.CellValue AS v0, q1.CellValue AS v1 FROM \
             (SELECT * FROM AllTables WHERE CellValue IN ('k1','k3')) AS q0 \
             INNER JOIN (SELECT * FROM AllTables WHERE CellValue IN ('10','30')) AS q1 \
             ON q0.TableId = q1.TableId AND q0.RowId = q1.RowId",
            // C shape: integer-valued SUM keeps the parallel group exact.
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
            // Global aggregate with a seq scan.
            "SELECT COUNT(*) AS n, MIN(RowId) AS lo, MAX(RowId) AS hi FROM AllTables \
             WHERE Quadrant IS NOT NULL",
        ];
        for kind in [EngineKind::Row, EngineKind::Column] {
            let reference = engine(kind);
            for sql in queries {
                let (want, want_rep) = reference.execute_with_report(sql).unwrap();
                assert_eq!(want_rep.path, "positional", "{sql}");
                for threads in [2, 4, 8] {
                    let eng = forced_parallel_engine(kind, threads);
                    let (got, rep) = eng.execute_with_report(sql).unwrap();
                    assert_eq!(got, want, "{kind:?}/{threads}t: {sql}");
                    assert!(
                        rep.logical_eq(&want_rep),
                        "{kind:?}/{threads}t telemetry: {sql}"
                    );
                    // The pool actually ran: phases were recorded, with
                    // more than one partition and bounded worker counts.
                    assert!(!rep.parallel.is_empty(), "{kind:?}/{threads}t: {sql}");
                    for phase in &rep.parallel {
                        assert!(phase.partitions > 1, "{}: {sql}", phase.phase);
                        assert!(!phase.worker_nanos.is_empty());
                        assert!(phase.worker_nanos.len() <= threads);
                    }
                }
            }
        }
    }

    #[test]
    fn sequential_ctx_records_no_parallel_phases() {
        let mut eng = engine(EngineKind::Column);
        eng.set_parallel(Arc::new(ParallelCtx::with_tuning(1, 1, 3)));
        let (_, rep) = eng
            .execute_with_report(
                "SELECT TableId AS t, COUNT(*) AS n FROM AllTables GROUP BY TableId",
            )
            .unwrap();
        assert_eq!(rep.path, "positional");
        assert!(rep.parallel.is_empty());
    }

    #[test]
    fn keyed_float_sums_group_in_parallel_bit_identically() {
        // `SUM(RowId / 2)` produces non-integer values — a chunk-merge
        // would not be bit-exact, but the radix-partitioned keyed path
        // owns each group outright, so per-group f64 accumulation order is
        // exactly sequential and the parallel group phase stays admitted.
        let eng = forced_parallel_engine(EngineKind::Column, 4);
        let sql = "SELECT TableId AS t, SUM(RowId / 2) AS s FROM AllTables GROUP BY TableId";
        let (got, rep) = eng.execute_with_report(sql).unwrap();
        assert!(
            rep.parallel.iter().any(|p| p.phase == "group"),
            "keyed float SUM should group in parallel via radix partitions"
        );
        let (want, _) = eng.execute_reference(sql).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn global_float_sums_fall_back_to_sequential_grouping() {
        // A global aggregate has a single group, so there is nothing to
        // partition: it groups on the query's thread, and its one f64 sum
        // accumulates in sequential row order.
        let eng = forced_parallel_engine(EngineKind::Column, 4);
        let sql = "SELECT SUM(RowId / 2) AS s FROM AllTables";
        let (got, rep) = eng.execute_with_report(sql).unwrap();
        assert!(
            rep.parallel.iter().all(|p| p.phase != "group"),
            "global float SUM must not group in parallel"
        );
        let (want, _) = eng.execute_reference(sql).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn wide_join_keys_take_the_positional_u128_path() {
        // 3 and 4 equi-key columns (4 via a repeated equality) pack into
        // the u128 key path; both must stay on the positional executor and
        // agree with the reference.
        let on3 = "q0.TableId = q1.TableId AND q0.ColumnId = q1.ColumnId \
                   AND q0.RowId = q1.RowId";
        let on4 = "q0.TableId = q1.TableId AND q0.ColumnId = q1.ColumnId \
                   AND q0.RowId = q1.RowId AND q0.TableId = q1.TableId";
        for on in [on3, on4] {
            for kind in [EngineKind::Row, EngineKind::Column] {
                let eng = engine(kind);
                let sql = format!(
                    "SELECT q0.TableId AS t, q0.ColumnId AS c, q0.RowId AS r, \
                     q1.CellValue AS v FROM \
                     (SELECT * FROM AllTables WHERE RowId < 4) AS q0 INNER JOIN \
                     (SELECT * FROM AllTables WHERE RowId < 4) AS q1 ON {on}"
                );
                let (a, path, b) = both_paths(&eng, &sql);
                assert_eq!(path, "positional", "{on}");
                assert_eq!(a, b, "{on}");
                assert!(!a.is_empty());
            }
        }
    }

    #[test]
    fn hash_table_telemetry_is_recorded() {
        let eng = engine(EngineKind::Column);
        // Join + group: one "join" and one "group" entry, sequential
        // (single partition) at default tuning on this tiny input.
        let (_, rep) = eng
            .execute_with_report(
                "SELECT q0.TableId AS t, COUNT(*) AS n FROM \
                 (SELECT * FROM AllTables WHERE CellValue IN ('k1','k3')) AS q0 \
                 INNER JOIN (SELECT * FROM AllTables WHERE CellValue IN ('10','30')) AS q1 \
                 ON q0.TableId = q1.TableId AND q0.RowId = q1.RowId \
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

        // Forced-parallel run: radix partition counts land in telemetry. A
        // sequential scan is a hash-path drive, whatever the aggregate.
        let eng = forced_parallel_engine(EngineKind::Column, 4);
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
        assert!(group.partitions > 1);
        assert!(group.partitions.is_power_of_two());

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
    /// `NOT IN` sets, sequentially and on a forced pool — and every near
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
            for eng in [engine(kind), forced_parallel_engine(kind, 4)] {
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

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The counting threshold against brute force: heavily tied scores
        /// around zero, `i64::MIN` and `i64::MAX`, spreads below, at and
        /// far above the group count (and past `i64`, with an outlier at
        /// either limit), both directions, and `k` around both ends of
        /// `1..n`. Where it applies it keeps exactly the groups at or
        /// beyond the k-th best score; elsewhere it declines; either way it
        /// leaves nothing reserved.
        #[test]
        fn threshold_band_keeps_every_group_at_or_beyond_the_kth_score(
            offsets in proptest::collection::vec(0i64..8, 1..40),
            base in 0usize..4,
            scale in 0usize..3,
            outlier in proptest::option::of((0usize..40, proptest::any::<bool>())),
        ) {
            let base = [0, -50, i64::MIN, i64::MAX - 7][base];
            let scale = [1i64, 6, 1 << 40][scale];
            let mut scores: Vec<i64> = offsets
                .iter()
                .map(|&o| base.saturating_add(o * scale))
                .collect();
            let n = scores.len();
            if let Some((at, high)) = outlier {
                scores[at % n] = if high { i64::MAX } else { i64::MIN };
            }
            let (min, max) = (scores.iter().min().unwrap(), scores.iter().max().unwrap());
            let spread = *max as i128 - *min as i128;
            let mem = Arc::new(QueryMemory::new(Arc::new(
                blend_parallel::MemoryGovernor::unbounded(),
            )));
            for desc in [false, true] {
                let mut ranked = scores.clone();
                ranked.sort_unstable();
                if desc {
                    ranked.reverse();
                }
                for k in [0, 1, n.saturating_sub(1), n, n + 1] {
                    let got = threshold_band(&scores, k, desc, &mem).unwrap();
                    let applies = 0 < k && k < n && spread <= n as i128;
                    match got {
                        None => proptest::prop_assert!(!applies, "declined k={} {:?}", k, scores),
                        Some((band, _mem)) => {
                            proptest::prop_assert!(applies, "k={} {:?}", k, scores);
                            let t = ranked[k - 1];
                            let want: Vec<u32> = (0..n as u32)
                                .filter(|&g| match desc {
                                    true => scores[g as usize] >= t,
                                    false => scores[g as usize] <= t,
                                })
                                .collect();
                            proptest::prop_assert_eq!(band, want, "k={} desc={}", k, desc);
                        }
                    }
                    proptest::prop_assert_eq!(mem.current_bytes(), 0);
                }
            }
        }
    }

    #[test]
    fn never_true_injection_yields_empty_results_positionally() {
        // The rewriter's empty-intersection fragment (`AND 1 = 0`) must be
        // executable on the positional path too.
        let eng = engine(EngineKind::Column);
        let (a, path, b) = both_paths(
            &eng,
            "SELECT TableId AS t, COUNT(DISTINCT CellValue) AS score FROM AllTables \
             WHERE CellValue IN ('k0','k1') AND 1 = 0 GROUP BY TableId, ColumnId",
        );
        assert_eq!(path, "positional");
        assert_eq!(a, b);
        assert!(a.is_empty());
    }
}
