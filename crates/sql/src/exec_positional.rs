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
//! * every equi-join runs on **dense key ids** — the seeker self-joins
//!   (`q0.TableId = qN.TableId AND q0.RowId = qN.RowId`) on **row
//!   ordinals**, with no hash (see *Joins on dense ids* below);
//! * `GROUP BY` over integer fact columns maps packed keys to **dense
//!   group ids** through an open-addressing [`GroupIndex`], with
//!   aggregate state in struct-of-arrays vectors and `COUNT(DISTINCT
//!   CellValue)` counted by per-group sort-unique over gathered dictionary
//!   codes (column store) or dense string ids (row store) — never an owned
//!   `SqlValue`, never a per-group hash set — except where the store's
//!   value → column index already answers the query (the SC/KW seekers:
//!   see *Column-index grouping* below);
//! * `ORDER BY … LIMIT k` runs over **flat columns**, on both tails (see
//!   *Top-k before materialization* below);
//! * no tail builds a `SqlValue` row. The output is [`ResultColumns`]:
//!   integer fact columns as `u32`, super keys as `u128`, `CellValue` as
//!   dictionary ids (the column store's own codes, dense per-result ids on
//!   the row store), and only computed or NULL-able expressions as
//!   `SqlValue`s. Rows are a view a caller asks the engine for
//!   ([`ResultColumns::to_result_set`](crate::columns::ResultColumns::to_result_set),
//!   the one place that builds them); the seekers never do.
//!
//! `plan_positional` compiles every plan the planner emits; what it
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
//! to a dense id. A GROUP BY runs that single id column through the same
//! keyed phase as a packed key; a join uses the ids as they are, with
//! nothing packed or hashed (*Joins on dense ids*). The semantics are the
//! reference's: the join's build side assigns ids and the probe side only
//! looks up; a join key tuple holding NULL never matches (its build rows go
//! to a list no probe names, its probe rows find no id); GROUP BY groups by
//! `SqlValue`'s `Eq` — NULL with NULL, `Int(1)` with `Float(1.0)` — and an
//! interned key's output is its expressions evaluated at the group's
//! first-seen row. The map is charged to the `key_intern` site as it grows,
//! and the loop polls the interrupt every `INTERRUPT_STRIDE` rows. No
//! workload's SQL has such keys; there is no fast path for them.
//!
//! ## Selection-vector scans
//!
//! The planner hands every scan two things, and both executors use them
//! as they are: the scan's cheap predicates as one [`FilterKernel`]
//! (`ScanPlan::kernel`: `CellValue IN` as dictionary codes on the column
//! store, `TableId IN / NOT IN` as sorted slices or dense bitmaps), and its
//! visit order as `ScanPlan::segments` — the driving values' postings, the
//! driving tables' ranges, or the whole table. The scan cuts the segments
//! into morsels and filters each through `ScanPlan::filter`, i.e. the engine's
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
//! ## Flat group tables
//!
//! GROUP BY runs the **keyed phase** (`keyed`), which joins on packed keys
//! share: admission, the memory ladder, radix partitioning by key hash, and
//! per partition one [`GroupIndex`] (open addressing, linear probing) that
//! assigns dense ids in first-seen order, rows upserting a [`PROBE_BLOCK`]
//! at a time (hashed by [`JoinKey::hash_block`], the only code that looks
//! at SIMD dispatch; slots prefetched once the index outgrows cache). Per
//! partition GROUP BY then runs `aggregate`, column-at-a-time over `(row,
//! group id)` pairs into flat vectors: counts in `Vec<i64>`, `COUNT(DISTINCT
//! ...)` by radix-grouping the gathered code column by group id and
//! sort-uniquing each group's run, any other aggregate in the reference's
//! `AggState`. A global (ungrouped) aggregate is the zero-key case: one
//! group, which exists even over zero input rows. Each keyed phase records
//! [`HashTableStats`] in [`QueryReport::hash_tables`].
//!
//! ## Joins on dense ids
//!
//! Every equi-join numbers its build side's distinct keys `0..n`, lists
//! each id's build rows in one CSR (`radix_partition` over the per-row ids,
//! so each list ascends), and maps each probe row, a [`PROBE_BLOCK`] at a
//! time, to an id or "no match" and walks that id's list. The ids come from:
//!
//! * **the row directory** on row-keyed joins (*Row-key joins* below): the
//!   build ordinals set bits in a bitmap over the ordinal space, and an
//!   ordinal's id is its rank (a per-word prefix); no key is hashed;
//! * **the keyed phase** on packed keys, with nothing run per partition:
//!   its indexes hold every build key, so they never grow, and a
//!   partition's ids are offset past those before it. The probe hashes a
//!   block of packed keys and looks each up in its partition's index
//!   ([`GroupIndex::get_hashed`]);
//! * **the interner** on interned keys, whose ids are dense already:
//!   nothing is packed or hashed, and build rows whose key holds NULL go to
//!   one list past the last id, which no probe names.
//!
//! Build-side choice (the smaller input), the residual, probe order and
//! ascending build matches are the reference's `hash_join`, so the bytes
//! are its; partitioned builds are partition-count-invariant. One probe
//! loop (`Joiner::probe_ids`) serves all three, split evenly over the pool
//! under an admission grant (the `join-probe` [`ParallelPhase`]) and
//! concatenated in order. Spans `join.build` / `join.probe` say `path`
//! `rows` or `hash` (packed and interned keys); a rows build adds
//! `ordinals`, a packed build `buckets`, `max_chain` and `partitions`, and
//! every probe `matched` and `skipped` (rows whose lookup found no id).
//! Keys are gathered and packed, or interned, inside the span of their
//! side. Only a packed join records [`HashTableStats`] (phase `join`).
//!
//! ## Row-key joins
//!
//! The MC seeker (paper Listing 2) joins its per-column value scans on
//! `(TableId, RowId)`, and the C seeker (Listing 3) joins its key and
//! number scans on the same pair, with `keys.ColumnId <> nums.ColumnId` as
//! a residual. Where the column store keeps a row directory
//! ([`FactTable::row_ordinals`]: `row_base[TableId] + RowId`, dense over
//! the lake's rows, its space at most one per cell), two cells share a row
//! exactly when they share a row ordinal, so the join needs no hash.
//!
//! The check is a plan property, `row_keyed`: the join's packed keys are
//! exactly `{TableId, RowId}` of one leaf per side (repeats allowed, no
//! `ColumnId`), both leaves scan the same table `Arc`, and that table has
//! a directory. Every MC arity qualifies (each join keys `q0` against
//! `qN`), and so does C. The row store, a column store whose space would
//! exceed its cells (a huge `RowId`), and every other join hash.
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
//! The output is the hash path's `GroupCols`, with a group's first touch
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
//! (`exec::select_top`: `select_nth_unstable` then a sort of the k
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
//! * joins on packed keys run the keyed phase on their build side, which
//!   **radix-partitions it by key hash** (low hash bits; see
//!   `blend_parallel::radix`), so each worker numbers a disjoint key set
//!   and no merge is needed — a key's whole list lives in one partition,
//!   ascending because partition scatter preserves input order (row-keyed
//!   and interned joins build on the query's thread). Every join's probe
//!   side is chunked in row order and emitted in chunk order;
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
//! * each intermediate `PosBatch` **carries the reservation covering its
//!   position data** — consuming a batch (a join input, a filtered
//!   rebuild) or abandoning it on an error drops the reservation with it,
//!   so accounting follows batch lifetime with no explicit release;
//! * the keyed phase reserves through
//!   [`blend_parallel::reserve_laddered`] with a width-parameterized cost:
//!   packed keys, per-row ids, the indexes
//!   ([`GroupIndex::estimate_bytes`] — a join's sized for every build key
//!   being distinct, a GROUP BY's at its initial size, its growth charged
//!   as it happens) and a join's CSR, plus radix scratch on partitions. On
//!   failure the phase retries at half width, then sequentially, and the
//!   chosen width feeds the partition math — the
//!   byte-identical-across-widths contract above is what makes ladder
//!   narrowing invisible in results;
//! * column-index grouping, the row-key join build and the interned join
//!   build have no width to narrow: they reserve their counters and group
//!   slots (`group_columns`), bitmap, ranks, ordinals and CSR
//!   (`join_rows`), or ids and CSR (interned keys) up front, and a failed
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
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use blend_common::{FxHashMap, FxHashSet};
use blend_obs::SpanGuard;
use blend_parallel::{
    morselize, partition_count, radix_partition, radix_scratch_bytes, reserve_laddered, split_even,
    MemoryReservation, Morsel, ParallelCtx, PhaseGrant, QueryMemory, RadixPartitions,
};
use blend_storage::{FactTable, FilterKernel, ScanScratch, ValuePred};

use crate::exec::HashTableStats;
use crate::hashtable::{GroupIndex, JoinKey, PROBE_BLOCK};

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

/// Slot-count floor below which the keyed phase's upserts and a join's
/// lookups skip slot prefetching: an index this small lives in cache
/// already, so the prefetch would be pure overhead.
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
        /// The (left, right) leaves whose row ordinals the join matches on,
        /// when it is row-keyed ([`row_keyed`]; module docs, *Row-key
        /// joins*).
        row_key: Option<(usize, usize)>,
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
            let keys = Keys::of(pairs, |(l, r)| Some((int_col(l)?, int_col(r)?)));
            Ok(PosNode::Join {
                left: Box::new(l),
                right: Box::new(r),
                base,
                n_left,
                row_key: row_keyed(&keys, leaves),
                keys,
                residual,
            })
        }
    }
}

/// The (left, right) leaves of a row-keyed join (module docs, *Row-key
/// joins*): its packed keys are exactly `TableId` and `RowId` of one leaf
/// per side, both leaves scan the same table, and that table has a row
/// directory.
fn row_keyed(
    keys: &Keys<(PosCol, PosCol), (PExpr, PExpr)>,
    leaves: &[&ScanPlan],
) -> Option<(usize, usize)> {
    let Keys::Packed(cols) = keys else {
        return None;
    };
    let ((l, _), (r, _)) = *cols.first()?;
    let on = |c: IntCol| cols.iter().any(|&((_, x), (_, y))| x == c && y == c);
    let same_leaves = (cols.iter()).all(|&((a, x), (b, y))| a == l && b == r && x == y);
    let table = &leaves[l].table;
    let shape = same_leaves && on(IntCol::Table) && on(IntCol::Row) && !on(IntCol::Column);
    (shape
        && Arc::ptr_eq(table, &leaves[r].table)
        && table.row_ordinals(&[], &mut Vec::new()).is_some())
    .then_some((l, r))
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
            row_key,
        } => {
            let lb = exec_node(left, pos, tables, report, par)?;
            let rb = exec_node(right, pos, tables, report, par)?;
            exec_join(
                lb,
                rb,
                *base,
                *n_left,
                keys,
                *row_key,
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
    /// [`NO_MATCH`] (the join lists those rows past the last id).
    Build,
    /// A join's probe side: lookups only; a tuple holding NULL, or one the
    /// build side never saw, gets [`NO_MATCH`].
    Probe,
}

/// The interned id of a join key tuple that matches nothing: one holding
/// NULL, or a probe tuple the build side never saw.
const NO_MATCH: u32 = u32::MAX;

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
                Intern::Build | Intern::Probe if null => NO_MATCH,
                Intern::Probe => self.ids.get(&key).copied().unwrap_or(NO_MATCH),
                Intern::Group | Intern::Build => match self.ids.entry(key) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(_) if next == NO_MATCH => {
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

/// Positional equi-join on dense key ids (module docs, *Joins on dense
/// ids*): the row directory's ranks ([`join_rows`]), the keyed phase's ids
/// ([`join_packed`]) or the interner's number the build keys, and
/// [`Joiner::probe_ids`] lists and probes them. Build-side choice and
/// output order mirror the reference's `hash_join`, so the bytes are its.
#[allow(clippy::too_many_arguments)]
fn exec_join(
    left: PosBatch,
    right: PosBatch,
    base: usize,
    n_left: usize,
    keys: &Keys<(PosCol, PosCol), (PExpr, PExpr)>,
    row_key: Option<(usize, usize)>,
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
    let joiner = Joiner {
        build,
        probe,
        build_left,
        base,
        residual,
        tables,
    };
    let build_span = blend_obs::span("join.build");
    build_span.attr_u64("rows", build.len() as u64);
    build_span.attr_str("path", if row_key.is_some() { "rows" } else { "hash" });

    let (out, n_out) = match (row_key, keys) {
        (Some((l, r)), _) => {
            let (build_leaf, probe_leaf) = if build_left { (l, r) } else { (r, l) };
            let leaves = (build_leaf - build_base, probe_leaf - probe_base);
            join_rows(&joiner, build_span, leaves, tables[l], report, par)?
        }
        (None, Keys::Packed(cols)) => {
            // One side's key columns (`true`: the build side's), gathered in
            // bulk: one virtual dispatch per column, not per row, and
            // positions extracted once per leaf.
            let side_cols = |on_build: bool| {
                let (batch, side_base) = if on_build {
                    (build, build_base)
                } else {
                    (probe, probe_base)
                };
                let mut cache = ColCache::new(batch);
                (cols.iter())
                    .map(|&(lk, rk)| {
                        let (leaf, col) = if on_build == build_left { lk } else { rk };
                        let mut vals = Vec::with_capacity(batch.len());
                        col.gather(tables[leaf], cache.positions(leaf - side_base), &mut vals);
                        vals
                    })
                    .collect::<Vec<_>>()
            };
            // Monomorphize on packed key width: u64 covers 1–2 key columns,
            // u128 covers 3–4.
            if cols.len() <= 2 {
                join_packed(&joiner, build_span, side_cols, pack_rows64, report, par)?
            } else {
                join_packed(&joiner, build_span, side_cols, pack_rows128, report, par)?
            }
        }
        (None, Keys::Interned(exprs)) => {
            // The interner's ids are dense already: nothing to pack or hash.
            let side = |on_left: bool| -> Vec<&PExpr> {
                (exprs.iter())
                    .map(|(l, r)| if on_left { l } else { r })
                    .collect()
            };
            // The build ids and the CSR: at most a list per build row, and
            // one past the last id for rows whose key holds NULL, which no
            // probe names.
            let n_build = build.len();
            let bytes = n_build * 4 + radix_scratch_bytes(n_build, n_build + 1);
            let _build_mem = par.memory().try_reserve("join_build", bytes)?;
            let mut interner = Interner::new(tables, par)?;
            let mut ids = interner.ids(Intern::Build, &side(build_left), build, build_base)?;
            let n_ids = interner.ids.len();
            for id in ids.iter_mut().filter(|id| **id == NO_MATCH) {
                *id = n_ids as u32;
            }
            let _probe_mem = par.memory().try_reserve("join_keys", probe.len() * 4)?;
            let lookup = || {
                let ids = interner.ids(Intern::Probe, &side(!build_left), probe, probe_base)?;
                let hits_of = move |range: Range<usize>, _: &mut Vec<u32>, hits: &mut Hits| {
                    let found = range.map(|pi| (pi as u32, ids[pi]));
                    hits.extend(found.filter(|&(_, id)| id != NO_MATCH))
                };
                Ok(hits_of)
            };
            joiner.probe_ids(build_span, (ids, n_ids + 1), "hash", lookup, report, par)?
        }
    };
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

/// The two sides of one join and what turns a (build row, probe row)
/// match into an output row.
struct Joiner<'a> {
    build: &'a PosBatch,
    probe: &'a PosBatch,
    build_left: bool,
    base: usize,
    residual: Option<&'a PExpr>,
    tables: &'a [&'a dyn FactTable],
}

impl Joiner<'_> {
    /// Append build row `bi` joined to probe row `pi` (left side first) to
    /// `out`, and take it back when the residual rejects it.
    #[inline]
    fn emit(&self, bi: usize, pi: usize, out: &mut Probed) {
        let (bt, pt) = (self.build.row(bi), self.probe.row(pi));
        let (lt, rt) = if self.build_left { (bt, pt) } else { (pt, bt) };
        let at = out.rows.len();
        out.rows.extend(lt.iter().chain(rt).copied());
        if let Some(res) = self.residual {
            if !res.eval_predicate(self.tables, self.base, &out.rows[at..]) {
                out.rows.truncate(at);
                return;
            }
        }
        out.n += 1;
    }

    /// The end of every join's build and its one probe loop: one CSR lists
    /// each id's build rows (`ids`: each build row's id, below `n_ids`), then
    /// `lookup` runs inside `join.probe` and maps blocks of probe rows to their
    /// [`Hits`] (with a scratch buffer to gather into), and each hit walks its
    /// id's list. Under an admission grant the probe rows split evenly over the
    /// pool (`join-probe`) and the chunks concatenate in order, the sequential
    /// probe order.
    fn probe_ids<L: Fn(Range<usize>, &mut Vec<u32>, &mut Hits) + Sync>(
        &self,
        build_span: SpanGuard,
        (ids, n_ids): (Vec<u32>, usize),
        path: &'static str,
        lookup: impl FnOnce() -> Result<L>,
        report: &mut QueryReport,
        par: &ParallelCtx,
    ) -> Result<(Vec<u32>, usize)> {
        let lists = radix_partition(&ids, n_ids)?;
        drop(ids);
        par.check_interrupt()?;
        drop(build_span);

        let n_probe = self.probe.len();
        let span = blend_obs::span("join.probe");
        span.attr_u64("rows", n_probe as u64);
        span.attr_str("path", path);
        let lookup = lookup()?;
        let intr = par.interrupt();
        let chunk = |range: Range<usize>| {
            let mut out = Probed::default();
            let (mut scratch, mut hits) = (Vec::new(), Vec::with_capacity(PROBE_BLOCK));
            for start in range.clone().step_by(PROBE_BLOCK) {
                if poll_every(start - range.start) && intr.is_set() {
                    break;
                }
                let end = (start + PROBE_BLOCK).min(range.end);
                hits.clear();
                lookup(start..end, &mut scratch, &mut hits);
                out.skipped += end - start - hits.len();
                for &(pi, id) in &hits {
                    for &bi in lists.part(id as usize) {
                        self.emit(bi as usize, pi as usize, &mut out);
                    }
                }
            }
            out
        };
        let probed = match par.admit(n_probe) {
            None => chunk(0..n_probe),
            Some(grant) => {
                let chunks = split_even(n_probe, grant.granted());
                let run = grant
                    .pool()
                    .run(chunks.len(), |ci| chunk(chunks[ci].clone()));
                report.parallel.push(ParallelPhase {
                    phase: "join-probe".to_string(),
                    partitions: chunks.len(),
                    granted: grant.granted(),
                    worker_nanos: run.worker_nanos,
                });
                let mut all = Probed {
                    rows: Vec::with_capacity(run.results.iter().map(|p| p.rows.len()).sum()),
                    ..Probed::default()
                };
                for part in run.results {
                    all.rows.extend_from_slice(&part.rows);
                    all.n += part.n;
                    all.skipped += part.skipped;
                }
                all
            }
        };
        par.check_interrupt()?;
        span.attr_u64("matched", probed.n as u64);
        span.attr_u64("skipped", probed.skipped as u64);
        Ok((probed.rows, probed.n))
    }
}

/// What a probe produced: joined rows stored flat, their count, and the
/// probe rows whose key had no id.
#[derive(Default)]
struct Probed {
    rows: Vec<u32>,
    n: usize,
    skipped: usize,
}

/// A block's probe rows whose key has an id, as (probe row, id) pairs in
/// probe order; the rows left out are the block's `skipped`.
type Hits = Vec<(u32, u32)>;

/// The row-key join: build and probe rows meet on the row ordinal of one
/// leaf per side (`leaves`: build leaf, probe leaf, subtree-local) in the
/// row directory of `table`, and a build ordinal's id is its rank in a
/// bitmap over the ordinal space. On the query's thread, under one
/// reservation.
fn join_rows(
    joiner: &Joiner<'_>,
    build_span: SpanGuard,
    (build_leaf, probe_leaf): (usize, usize),
    table: &dyn FactTable,
    report: &mut QueryReport,
    par: &ParallelCtx,
) -> Result<(Vec<u32>, usize)> {
    let (build, probe) = (joiner.build, joiner.probe);
    let n_build = build.len();
    let space = table
        .row_ordinals(&[], &mut Vec::new())
        .ok_or_else(|| executor_bug("row-keyed join over a table without a row directory"))?;
    let words = space.div_ceil(64);
    // Bitmap and rank prefix, the build ordinals (then ids), the build
    // leaf's positions where a wider batch copies them out, and the CSR —
    // all of it priced before any is allocated; the probe leaf's positions
    // under `join_keys`.
    let _build_mem = par.memory().try_reserve(
        "join_build",
        words * 12 + n_build * 8 + radix_scratch_bytes(n_build, n_build.min(space)),
    )?;
    let mut ids = Vec::with_capacity(n_build);
    table.row_ordinals(ColCache::new(build).positions(build_leaf), &mut ids);
    let mut bits = vec![0u64; words];
    for &o in &ids {
        bits[o as usize >> 6] |= 1 << (o & 63);
    }
    let mut rank = Vec::with_capacity(words);
    let mut distinct = 0u32;
    for &w in &bits {
        rank.push(distinct);
        distinct += w.count_ones();
    }
    // The rank of ordinal `o`, whose bit word is `w`: its id.
    let rank_of = |o: u32, w: u64| rank[o as usize >> 6] + (w & ((1 << (o & 63)) - 1)).count_ones();
    ids.iter_mut()
        .for_each(|o| *o = rank_of(*o, bits[*o as usize >> 6]));
    build_span.attr_u64("ordinals", distinct as u64);
    // The probe leaf's positions (borrowed from a one-leaf batch), then a
    // block's ordinals in one gather; an ordinal whose bit is set hits.
    let _probe_mem = par.memory().try_reserve("join_keys", probe.len() * 4)?;
    let lookup = || {
        let positions = match probe.stride {
            1 => Cow::Borrowed(&probe.data[..]),
            _ => Cow::Owned(probe.col(probe_leaf)),
        };
        let hits_of = move |range: Range<usize>, ords: &mut Vec<u32>, hits: &mut Hits| {
            ords.clear();
            table.row_ordinals(&positions[range.clone()], ords);
            for (pi, &o) in range.zip(ords.iter()) {
                let w = bits[o as usize >> 6];
                if w & (1 << (o & 63)) != 0 {
                    hits.push((pi as u32, rank_of(o, w)));
                }
            }
        };
        Ok(hits_of)
    };
    let n_ids = distinct as usize;
    joiner.probe_ids(build_span, (ids, n_ids), "rows", lookup, report, par)
}

/// The join on packed keys: the keyed phase numbers the build keys
/// (`side_cols(true)`, packed by `pack`), one index per radix partition,
/// and a partition's ids are offset past the partitions before it. The
/// probe packs its side's keys, hashes a block at a time and looks each key
/// up in its partition's index.
fn join_packed<K: JoinKey>(
    joiner: &Joiner<'_>,
    build_span: SpanGuard,
    side_cols: impl Fn(bool) -> Vec<Vec<u32>>,
    pack: fn(&[Vec<u32>], usize) -> Vec<K>,
    report: &mut QueryReport,
    par: &ParallelCtx,
) -> Result<(Vec<u32>, usize)> {
    let n_build = joiner.build.len();
    let keys = pack(&side_cols(true), n_build);
    let built = keyed(KeyedOp::Join, &keys, report, par, |ix, _, _, ids| {
        Ok((ix, ids))
    })?;
    // The build grant goes before the probe asks for its own.
    drop(built.grant);
    let (indexes, part_ids): (Vec<GroupIndex<K>>, Vec<Vec<u32>>) = built.parts.into_iter().unzip();
    let mut offsets = Vec::with_capacity(indexes.len());
    let mut n_ids = 0;
    for index in &indexes {
        offsets.push(n_ids as u32);
        n_ids += index.len();
    }
    // Each build row's id, in build-row order, as one partition's are.
    let ids = match &built.rows {
        None => part_ids.into_iter().next().unwrap_or_default(),
        Some(rp) => {
            let mut ids = blend_common::try_zeroed_vec(n_build, "join_ids")?;
            for (p, part_ids) in part_ids.iter().enumerate() {
                for (&r, &id) in rp.part(p).iter().zip(part_ids) {
                    ids[r as usize] = offsets[p] + id;
                }
            }
            ids
        }
    };
    let slots: usize = indexes.iter().map(GroupIndex::slot_count).sum();
    let max_probe = indexes.iter().map(GroupIndex::max_probe).max();
    build_span.attr_u64("buckets", slots as u64);
    build_span.attr_u64("max_chain", max_probe.unwrap_or(0) as u64);
    build_span.attr_u64("partitions", indexes.len() as u64);

    let n_probe = joiner.probe.len();
    let _probe_mem = (par.memory()).try_reserve("join_keys", n_probe * std::mem::size_of::<K>())?;
    let pmask = (indexes.len() - 1) as u64;
    let lookup = || {
        let keys = pack(&side_cols(false), n_probe);
        let hits_of = move |range: Range<usize>, _: &mut Vec<u32>, hits: &mut Hits| {
            let keys = &keys[range.clone()];
            let mut hash_buf = [0u64; PROBE_BLOCK];
            let hashes = &mut hash_buf[..keys.len()];
            K::hash_block(keys, hashes);
            // The low hash bits pick the partition, bits 32.. the slot.
            let part = |h: u64| (h & pmask) as usize;
            if slots >= PREFETCH_MIN_SLOTS {
                for &h in hashes.iter() {
                    indexes[part(h)].prefetch_slot(h);
                }
            }
            for ((pi, &key), &h) in range.zip(keys).zip(hashes.iter()) {
                let p = part(h);
                if let Some(id) = indexes[p].get_hashed(key, h) {
                    hits.push((pi as u32, offsets[p] + id));
                }
            }
        };
        Ok(hits_of)
    };
    joiner.probe_ids(build_span, (ids, n_ids), "hash", lookup, report, par)
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
/// an interned key's id) or a `u128` (3–4 columns, the C shape); the
/// keyed phase ([`keyed`]) assigns dense group ids in first-seen order
/// and [`aggregate`] accumulates
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
    let agg = |rows: Option<&[u32]>, first, ids: Vec<u32>| aggregate(&input, rows, first, &ids);
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
        1 | 2 => {
            let packed = pack_rows64(&input.key_cols, n_rows);
            let k = keyed(KeyedOp::Group, &packed, report, par, |_, r, f, i| {
                agg(r, f, i)
            })?;
            (k.parts, k.grant)
        }
        _ => {
            let packed = pack_rows128(&input.key_cols, n_rows);
            let k = keyed(KeyedOp::Group, &packed, report, par, |_, r, f, i| {
                agg(r, f, i)
            })?;
            (k.parts, k.grant)
        }
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

/// The operator running the keyed phase, which names its memory site and
/// labels and sizes its indexes: a join's hold every build key, so they
/// never grow; a GROUP BY's start at a quarter of its rows (at most 64 Ki
/// groups) and grow with its groups, each growth charged as it happens.
#[derive(Clone, Copy, PartialEq, Eq)]
enum KeyedOp {
    Group,
    Join,
}

/// What the keyed phase leaves: each radix partition's output (`hash &
/// (parts.len() - 1)` names a key's partition), the rows of each partition
/// (`None`: one partition of every row, in order), the phase grant, for
/// what runs next, and the reservation pricing the phase's state.
struct Keyed<T> {
    parts: Vec<T>,
    rows: Option<RadixPartitions>,
    grant: Option<PhaseGrant>,
    _mem: MemoryReservation,
}

/// The keyed phase GROUP BY and the join on packed keys share (module
/// docs, *Flat group tables*): number the distinct keys of `packed` densely
/// through one [`GroupIndex`] per radix partition, then hand each
/// partition's `per_part(index, rows, first_rows, row_ids)` — `rows` its
/// ascending rows (`None`: all of them), `first_rows[id]` the row that
/// opened id `id`, `row_ids[i]` the id of the partition's `i`-th row.
///
/// Large inputs radix-partition rows by key hash (low bits) so each pool
/// worker owns its keys outright, and within a partition rows keep
/// ascending global order: every group's aggregates see the exact
/// sequential update sequence, and a key's build rows stay ascending.
/// Rows upsert a [`PROBE_BLOCK`] at a time, hashed by
/// [`JoinKey::hash_block`] (or the radix pass), with the block's slots
/// prefetched once the index has outgrown cache; insert order — and with it
/// id assignment and first-seen rows — is untouched.
fn keyed<K: JoinKey, T: Send>(
    op: KeyedOp,
    packed: &[K],
    report: &mut QueryReport,
    par: &ParallelCtx,
    per_part: impl Fn(GroupIndex<K>, Option<&[u32]>, Vec<u32>, Vec<u32>) -> Result<T> + Sync,
) -> Result<Keyed<T>> {
    let n = packed.len();
    let t0 = Instant::now();
    let (site, phase, label, capacity): (_, _, _, fn(usize) -> usize) = match op {
        KeyedOp::Group => ("group_build", "group", "group", |n| (n / 4).min(1 << 16)),
        KeyedOp::Join => ("join_build", "join", "join-build", |n| n),
    };
    // Admission: fanout follows the granted worker count; an empty grant
    // takes the single-partition sequential path.
    //
    // Memory ladder: price the phase's state at the granted width — packed
    // keys, per-row ids, the indexes and, for a join, the CSR (on
    // partitions with the ids put back in row order); the parallel path
    // also hashes every row and radix-scatters it — narrowing to half width
    // and then the sequential single-partition loop under pressure. Output
    // is partition-count-invariant, so degraded widths stay byte-identical.
    let grant = par.admit(n);
    let desired = grant.as_ref().map_or(1, |g| g.granted());
    let key_bytes = std::mem::size_of_val(packed);
    let (mem, width, _rung) = reserve_laddered(par.memory(), site, desired, |w| {
        let parts = partition_count(w, n);
        // A join's indexes hold every build key; split over partitions, a
        // bound for any split (at most four slots per row, at least 16).
        let index = match (op, parts) {
            (KeyedOp::Join, 2..) => (4 * n + 16 * parts) * 4 + key_bytes,
            _ => GroupIndex::<K>::estimate_bytes(capacity(n)),
        };
        let csr = match op {
            KeyedOp::Join => radix_scratch_bytes(n, n) + (parts > 1) as usize * n * 4,
            KeyedOp::Group => 0,
        };
        let radix = (parts > 1) as usize * (n * 12 + radix_scratch_bytes(n, parts));
        n * 4 + key_bytes + index + csr + radix
    })?;
    let n_parts = partition_count(width, n);
    // The grant survives only where the phase really fans out.
    let grant = grant
        .filter(|_| width > 1 && n_parts > 1)
        .map(|g| g.narrowed(width));

    // One partition (`part`: the radix pass's hashes and its rows; `None`:
    // every row). Index growth past its priced size is charged once a
    // block, until `per_part` has consumed the index.
    let number = |part: Option<(&[u64], &[u32])>| -> Result<(usize, usize, T)> {
        let rows = part.map(|(_, rows)| rows);
        let part_n = rows.map_or(n, <[u32]>::len);
        let mut index = GroupIndex::with_capacity(capacity(part_n))?;
        let priced = index.heap_bytes();
        let mut grown = par.memory().try_reserve(site, 0)?;
        let mut first_rows: Vec<u32> = Vec::new();
        let mut row_ids: Vec<u32> = blend_common::try_vec_with_capacity(part_n, "keyed_row_ids")?;
        let mut hash_buf = [0u64; PROBE_BLOCK];
        for start in (0..part_n).step_by(PROBE_BLOCK) {
            // An interrupted partition ends typed; the check after the run
            // discards every partial.
            if poll_every(start) {
                par.check_interrupt()?;
            }
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
            // An upsert below may grow the index mid-block, turning the
            // rest of the block's prefetches stale — merely useless.
            if index.slot_count() >= PREFETCH_MIN_SLOTS {
                for &h in hashes.iter() {
                    index.prefetch_slot(h);
                }
            }
            for (idx, &h) in (start..end).zip(hashes.iter()) {
                let i = rows.map_or(idx, |r| r[idx] as usize);
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
        let (slots, max_probe) = (index.slot_count(), index.max_probe());
        let out = per_part(index, rows, first_rows, row_ids)?;
        Ok((slots, max_probe, out))
    };

    let (parts, rows) = match &grant {
        None => (vec![number(None)], None),
        Some(grant) => {
            let mut hashes = blend_common::try_zeroed_vec(n, "keyed_hashes")?;
            K::hash_block(packed, &mut hashes);
            let pmask = (n_parts - 1) as u64;
            let part_of: Vec<u32> = hashes.iter().map(|&h| (h & pmask) as u32).collect();
            let rp = radix_partition(&part_of, n_parts)?;
            let run = grant
                .pool()
                .run(n_parts, |p| number(Some((&hashes, rp.part(p)))));
            report.parallel.push(ParallelPhase {
                phase: label.to_string(),
                partitions: n_parts,
                granted: width,
                worker_nanos: run.worker_nanos,
            });
            (run.results, Some(rp))
        }
    };
    par.check_interrupt()?;
    // A partition whose allocation or reservation failed surfaces the typed
    // error here; every other partial is discarded with it.
    let parts = parts.into_iter().collect::<Result<Vec<_>>>()?;
    report.hash_tables.push(HashTableStats {
        phase: phase.to_string(),
        build_nanos: t0.elapsed().as_nanos() as u64,
        buckets: parts.iter().map(|p| p.0).sum(),
        max_chain: parts.iter().map(|p| p.1).max().unwrap_or(0),
        partitions: parts.len(),
    });
    Ok(Keyed {
        parts: parts.into_iter().map(|p| p.2).collect(),
        rows,
        grant,
        _mem: mem,
    })
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
            // MC shape: parallel scans + parallel probe (a row-key join on
            // the column store, a hash join on the row store).
            "SELECT q0.TableId AS tid, q0.RowId AS rid, q0.SuperKey AS sk, \
             q0.CellValue AS v0, q1.CellValue AS v1 FROM \
             (SELECT * FROM AllTables WHERE CellValue IN ('k1','k3')) AS q0 \
             INNER JOIN (SELECT * FROM AllTables WHERE CellValue IN ('10','30')) AS q1 \
             ON q0.TableId = q1.TableId AND q0.RowId = q1.RowId",
            // A join that hashes on both stores: parallel join build/probe.
            "SELECT q0.TableId AS t0, q1.TableId AS t1, q0.RowId AS rid, \
             q1.CellValue AS v1 FROM \
             (SELECT * FROM AllTables WHERE CellValue IN ('k1','k3')) AS q0 \
             INNER JOIN (SELECT * FROM AllTables WHERE CellValue IN ('10','30')) AS q1 \
             ON q0.RowId = q1.RowId",
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
        // (single partition) at default tuning on this tiny input. A join
        // on `RowId` alone is not row-keyed, so it hashes.
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
