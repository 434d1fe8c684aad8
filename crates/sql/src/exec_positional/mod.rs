//! Late-materialization (positional) executor: the one executor every
//! query runs on.
//!
//! The reference interpreter in [`crate::exec`] materializes a 6-wide
//! `Vec<SqlValue>` — including an `Arc<str>` clone of the cell value — for
//! every position a scan visits, clones whole tuples through joins, and
//! hashes `Vec<SqlValue>` keys in joins and GROUP BY. For the SQL text of
//! the four seeker kinds (`SC`/`KW`/`MC`/`C`, which the seekers themselves
//! answer as operators over the index, not as SQL; the text runs on the
//! served path and in the parity oracles) all of that work is wasted:
//! predicates, join keys, and grouping keys only ever touch the integer
//! fact columns, and `COUNT(DISTINCT CellValue)` only needs value
//! *identity*, not value contents. Keys that are not integer fact columns are the exception, and
//! they intern (see *Interned keys* below).
//!
//! This module executes those shapes positionally, one submodule per
//! operator, each documenting its own design:
//!
//! * scans emit compact `Vec<u32>` position lists — predicates run as
//!   **batched filter kernels** straight against the [`FactTable`], no
//!   tuple is built (`scan`, *Selection-vector scans*);
//! * every equi-join runs on **dense key ids** — the self-joins of the MC
//!   and C text (`q0.TableId = qN.TableId AND q0.RowId = qN.RowId`) on the
//!   store's **row ordinals**, with no hash (`join`, *Joins on dense ids*
//!   and *Row-key joins*);
//! * `GROUP BY` over integer fact columns maps packed keys to **dense
//!   group ids** through an open-addressing [`GroupIndex`] (`group`, *Flat
//!   group tables*), with
//!   aggregate state in struct-of-arrays vectors and `COUNT(DISTINCT
//!   CellValue)` counted by per-group sort-unique over gathered dictionary
//!   codes (column store) or dense string ids (row store) — never an owned
//!   `SqlValue`, never a per-group hash set — except where the store's
//!   value → column index already answers the query (the SC/KW text:
//!   `group`, *Column-index grouping*);
//! * every expression — scan and join residuals, the post-join filter,
//!   computed select items, interned keys, aggregate arguments — runs **a
//!   batch at a time** through one typed evaluator (see *Batch expressions*
//!   below);
//! * `ORDER BY … LIMIT k` runs over **flat columns**, on both tails
//!   (`select`, *Top-k before materialization*);
//! * no tail builds a `SqlValue` row. The output is [`ResultColumns`]:
//!   integer fact columns as `u32`, super keys as `u128`, `CellValue` as
//!   dictionary ids (the column store's own codes, dense per-result ids on
//!   the row store), and only computed or NULL-able expressions as
//!   `SqlValue`s. Rows are a view a caller asks the engine for
//!   ([`ResultColumns::to_result_set`](crate::columns::ResultColumns::to_result_set),
//!   the one place that builds them).
//!
//! The executor runs the planner's [`QueryPlan`] as it is: it walks
//! `plan.tree` (a scan per leaf, a join per inner node, leaves numbered left
//! to right) and compiles each node's expressions, keys and aggregates at
//! the node that runs them. The planner emits nothing it cannot compile, so
//! a failed compile is an executor bug and a typed `SqlExec` error. The
//! parity suites (`exec_parity` and the rest) hold its results to the
//! reference's, byte for byte; [`QueryReport::path`] says `positional`.
//!
//! ## Interned keys
//!
//! A join or GROUP BY whose keys are at most four integer fact columns packs
//! them into one `u64`/`u128` per row. Any other key list — `CellValue`,
//! `Quadrant`, `SuperKey`, an expression, five keys or more — is compiled as
//! positional expressions and *interned*: each row's key tuple is evaluated
//! (a morsel of rows at a time) and numbered by one [`GroupIndex`] over
//! `Vec<SqlValue>` keys per operator. A GROUP BY runs that single id column
//! through the same keyed phase as a packed key; a join uses the ids as they
//! are, with nothing packed or hashed (`join`, *Joins on dense ids*). The
//! semantics are the reference's: the join's build side assigns ids and the probe side only
//! looks up; a join key tuple holding NULL never matches (its build rows go
//! to a list no probe names, its probe rows find no id); GROUP BY groups by
//! `SqlValue`'s `Eq` — NULL with NULL, `Int(1)` with `Float(1.0)` — and an
//! interned key's output is its expressions evaluated at the group's
//! first-seen row. The index is charged to the `key_intern` site as it grows,
//! and each morsel polls the interrupt. No workload's SQL has such keys;
//! there is no fast path for them.
//!
//! ## Batch expressions
//!
//! A residual, filter, computed select item, interned key or aggregate
//! argument is a `PExpr`, evaluated by `crate::pexpr` over a batch of
//! positional rows: its leaves gather their fact columns in bulk and every
//! operator is a loop over typed vectors, one dispatch per operator and
//! batch (that module's docs give the kernels and their semantics). A batch
//! is a scan chunk's selection, a [`PROBE_BLOCK`] of joined pairs (which
//! the join's residual compacts), or a chunk of a GROUP BY's input, the
//! post-join batch, the projection or an interner's input. Its scratch
//! is reserved under `expr_scratch` first, and each batch polls the
//! interrupt once. The C text (paper Listing 3) scores `SUM(((k IN k0 AND
//! q = 0) OR (k IN k1 AND q = 1))::int)` this way: per chunk, two code
//! gathers tested against bitmaps, a quadrant gather, and a few byte loops
//! folded into one exact integer sum per group.
//!
//! ## One thread per query
//!
//! Every phase runs on the query's own thread: concurrency comes from
//! serving many queries at once (the serving tier admits one execution
//! per token, `blend_parallel::Admission`), not from splitting one query.
//! Loops run a chunk at a time ([`ParallelCtx::morsel_len`] rows: scan
//! segments, expression batches, interner input) or a [`PROBE_BLOCK`] at a
//! time (keyed upserts, join probes), and poll the interrupt once per
//! chunk or every `INTERRUPT_STRIDE` rows; a fired interrupt returns its
//! typed error and drops every partial. [`QueryReport::parallel`] stays in
//! the report and is always empty.
//!
//! ## Memory governance
//!
//! Every allocation-heavy site reserves bytes from the query's
//! [`blend_parallel::QueryMemory`] scope *before* allocating (see the
//! `blend_parallel::memory` docs for the reservation protocol: reclaim,
//! then a typed `MemoryExceeded`):
//!
//! * each intermediate `PosBatch` **carries the reservation covering its
//!   position data** — consuming a batch (a join input, a filtered
//!   rebuild) or abandoning it on an error drops the reservation with it,
//!   so accounting follows batch lifetime with no explicit release;
//! * the keyed phase reserves once, before it runs: packed keys, per-row
//!   ids, the index ([`GroupIndex::estimate_bytes`] — a join's sized for
//!   every build key being distinct, a GROUP BY's at its initial size, its
//!   growth charged as it happens) and a join's CSR;
//! * column-index grouping, the row-key join build and the interned join
//!   build reserve their counters and group slots (`group_columns`),
//!   bitmap, ranks, ordinals and CSR (`join_rows`), or ids and CSR
//!   (interned keys) up front;
//! * scratch (the scan's selection vector, expression batches:
//!   `expr_scratch`, radix arrays, gathered key and aggregate columns, the
//!   top-k histogram and tie band: `sort_scratch`)
//!   and outputs — the flat group columns
//!   (`group_out`) and, beside them, the survivors' output columns
//!   (`group_project`) here; in the engine (`result_rows`) the result as the
//!   executor left it and, once a caller asks for them, the rows built from
//!   its flat columns — are reserved post-sizing; a failed
//!   reservation propagates `BlendError::MemoryExceeded` through the same
//!   typed-error channel as cancellation, and the no-partial-results
//!   machinery discards partials via `Drop`.

mod group;
mod join;
mod scan;
mod select;

use blend_parallel::{MemoryReservation, ParallelCtx};
use blend_storage::{FactTable, GroupIndex, PROBE_BLOCK};

use crate::columns::ResultColumns;
use crate::exec::QueryReport;
use crate::pexpr::{compile_pexpr, IntCol, PExpr, Rows};
use crate::plan::{QueryPlan, ScanPlan, Tree};
use crate::value::SqlValue;
use blend_common::{BlendError, Result};

/// Slot-count floor below which the keyed phase's upserts and a join's
/// lookups skip slot prefetching: an index this small lives in cache
/// already, so the prefetch would be pure overhead.
const PREFETCH_MIN_SLOTS: usize = 1 << 14;

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

    /// Its rows, the first of whose leaves is global leaf `base`.
    fn rows(&self, base: usize) -> Rows<'_> {
        Rows::all(&self.data, self.stride, base)
    }
}

/// How often (in rows) sequential inner loops poll the interrupt. A
/// power-of-two mask keeps the poll to one branch + one relaxed load per
/// `INTERRUPT_STRIDE` rows.
const INTERRUPT_STRIDE: usize = 4096;

#[inline]
fn poll_every(i: usize) -> bool {
    i & (INTERRUPT_STRIDE - 1) == 0
}

/// Execute a plan on the calling thread under `par`'s interrupt, memory
/// scope and chunk length.
pub(crate) fn execute(
    plan: &QueryPlan,
    report: &mut QueryReport,
    par: &ParallelCtx,
) -> Result<ResultColumns> {
    par.check_interrupt()?;
    let leaves = plan.tree.scans();
    let tables: Vec<&dyn FactTable> = leaves.iter().map(|s| s.table.as_ref()).collect();
    let Some(group) = &plan.group else {
        let batch = input(plan, &leaves, &tables, report, par)?;
        return select::exec_project(plan, &leaves, &batch, &tables, report, par);
    };
    let shape = group::PosGroup::compile(group, &leaves)?;
    if let Some(scan) = group::column_grouped(plan, &shape) {
        return group::group_columns(plan, scan, &shape, report, par);
    }
    let batch = input(plan, &leaves, &tables, report, par)?;
    group::exec_group(plan, &shape, &batch, &tables, report, par)
}

/// The join tree's output rows that pass the post-join filter.
fn input(
    plan: &QueryPlan,
    leaves: &[&ScanPlan],
    tables: &[&dyn FactTable],
    report: &mut QueryReport,
    par: &ParallelCtx,
) -> Result<PosBatch> {
    let mut batch = run_tree(&plan.tree, 0, leaves, tables, report, par)?;
    if let Some(f) = &plan.post_filter {
        let f = compile_pexpr(f, 0, leaves)?;
        let (mut pass, before) = (Vec::with_capacity(batch.len()), batch.data.len());
        f.eval_morsels(tables, batch.rows(0), par, |_, c| pass.extend(c.truthy()))?;
        retain_rows(&mut batch.data, batch.stride, 0, &pass);
        // The surviving rows fit under the input batch's reservation;
        // shrink it to the compacted size instead of re-reserving.
        if let Some(m) = &mut batch.mem {
            m.shrink((before - batch.data.len()) * 4);
        }
    }
    Ok(batch)
}

/// Run `tree`, whose first scan is global leaf `base`: a scan, or a join of
/// its two sides' batches (a batch's stride is its subtree's scan count).
fn run_tree(
    tree: &Tree,
    base: usize,
    leaves: &[&ScanPlan],
    tables: &[&dyn FactTable],
    report: &mut QueryReport,
    par: &ParallelCtx,
) -> Result<PosBatch> {
    match tree {
        Tree::Leaf(scan) => scan::exec_scan(scan, base, leaves, tables, report, par),
        Tree::Join {
            left,
            right,
            keys,
            residual,
            ..
        } => {
            let left = run_tree(left, base, leaves, tables, report, par)?;
            let right = run_tree(right, base + left.stride, leaves, tables, report, par)?;
            let residual = residual.as_ref();
            join::exec_join(
                left, right, base, keys, residual, leaves, tables, report, par,
            )
        }
    }
}

/// Keep the rows of `data` (`stride` positions each) from row `from` on
/// whose `pass` flag is set, compacted in place.
fn retain_rows(data: &mut Vec<u32>, stride: usize, from: usize, pass: &[bool]) {
    let mut kept = from;
    for (i, _) in pass.iter().enumerate().filter(|(_, &p)| p) {
        let at = (from + i) * stride;
        data.copy_within(at..at + stride, kept * stride);
        kept += 1;
    }
    data.truncate(kept * stride);
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
/// not pack (module docs, *Interned keys*): one index per operator, which
/// both join sides share.
struct Interner<'a> {
    index: GroupIndex<Vec<SqlValue>>,
    /// The index's keys, charged to `key_intern` as they are added.
    mem: MemoryReservation,
    tables: &'a [&'a dyn FactTable],
    par: &'a ParallelCtx,
}

impl<'a> Interner<'a> {
    fn new(tables: &'a [&'a dyn FactTable], par: &'a ParallelCtx) -> Result<Self> {
        Ok(Interner {
            index: GroupIndex::with_capacity(0)?,
            mem: par.memory().try_reserve("key_intern", 0)?,
            tables,
            par,
        })
    }

    /// The id of every row of `batch` (whose first leaf is global leaf
    /// `base`), keyed on the values of `exprs`, evaluated a morsel of rows
    /// at a time. Each morsel polls the interrupt and charges the keys it
    /// added.
    fn ids(
        &mut self,
        mode: Intern,
        exprs: &[&PExpr],
        batch: &PosBatch,
        base: usize,
    ) -> Result<Vec<u32>> {
        let (n, chunk) = (batch.len(), self.par.morsel_len());
        let mut out = blend_common::try_vec_with_capacity(n, "key_intern")?;
        let scratch = exprs.iter().map(|e| e.scratch_bytes(chunk.min(n))).sum();
        let _scratch = self.par.memory().try_reserve("expr_scratch", scratch)?;
        for start in (0..n).step_by(chunk) {
            self.par.check_interrupt()?;
            let rows = batch.rows(base).slice(start..(start + chunk).min(n));
            let mut cols: Vec<_> = (exprs.iter())
                .map(|e| e.eval(self.tables, rows).into_values().into_iter())
                .collect();
            let mut added = 0;
            for _ in 0..rows.len() {
                let key: Vec<SqlValue> = cols.iter_mut().filter_map(Iterator::next).collect();
                let null = key.iter().any(SqlValue::is_null);
                out.push(match mode {
                    Intern::Build | Intern::Probe if null => NO_MATCH,
                    Intern::Probe => self.index.get(&key).unwrap_or(NO_MATCH),
                    Intern::Group | Intern::Build => {
                        let next = self.index.len();
                        if next == NO_MATCH as usize {
                            return Err(executor_bug("more distinct keys than ids"));
                        }
                        let id = self.index.insert_or_get(key)?;
                        if id as usize == next {
                            // Its key slot and at most two index slots, then
                            // the key's values and strings.
                            let key = &self.index.keys()[next];
                            let text = key.iter().filter_map(SqlValue::as_str);
                            added += std::mem::size_of::<Vec<SqlValue>>()
                                + 8
                                + key.capacity() * std::mem::size_of::<SqlValue>()
                                + text.map(|s| 16 + s.len()).sum::<usize>();
                        }
                        id
                    }
                });
            }
            self.mem.grow(added)?;
        }
        Ok(out)
    }
}

/// A state the planner never produces (`what` names it): an executor bug,
/// reported typed instead of panicking.
pub(crate) fn executor_bug(what: &str) -> BlendError {
    BlendError::SqlExec(format!("positional executor: unexpected {what}"))
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::engine::SqlEngine;
    use crate::exec::ResultSet;
    use blend_storage::{build_engine, EngineKind};

    /// Four tables of six rows: a text key column (`k0`…`k4`) and a numeric
    /// column whose `Quadrant` alternates.
    pub(super) fn engine(kind: EngineKind) -> SqlEngine {
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

    /// The positional executor's result and path, and the reference's
    /// result.
    pub(super) fn both_paths(eng: &SqlEngine, sql: &str) -> (ResultSet, String, ResultSet) {
        let (a, ra) = eng.execute_with_report(sql).unwrap();
        let (b, _) = eng.execute_reference(sql).unwrap();
        (a, ra.path, b)
    }

    /// Engine whose chunks are three rows long, so every loop of every
    /// query in this module crosses chunk boundaries.
    pub(super) fn small_chunk_engine(kind: EngineKind) -> SqlEngine {
        let mut eng = engine(kind);
        eng.set_parallel(Arc::new(ParallelCtx::with_tuning(1, 3)));
        eng
    }

    #[test]
    fn small_chunks_are_byte_identical() {
        let queries = [
            // SC shape behind a RowId filter: a filtered scan, then the
            // hash-path group.
            "SELECT TableId AS t, COUNT(DISTINCT CellValue) AS score FROM AllTables \
             WHERE CellValue IN ('k0','k2','k4') AND RowId < 6 GROUP BY TableId, ColumnId \
             ORDER BY score DESC LIMIT 10",
            // MC shape: a row-key join on either store.
            "SELECT q0.TableId AS tid, q0.RowId AS rid, q0.SuperKey AS sk, \
             q0.CellValue AS v0, q1.CellValue AS v1 FROM \
             (SELECT * FROM AllTables WHERE CellValue IN ('k1','k3')) AS q0 \
             INNER JOIN (SELECT * FROM AllTables WHERE CellValue IN ('10','30')) AS q1 \
             ON q0.TableId = q1.TableId AND q0.RowId = q1.RowId",
            // A join that hashes on both stores.
            "SELECT q0.TableId AS t0, q1.TableId AS t1, q0.RowId AS rid, \
             q1.CellValue AS v1 FROM \
             (SELECT * FROM AllTables WHERE CellValue IN ('k1','k3')) AS q0 \
             INNER JOIN (SELECT * FROM AllTables WHERE CellValue IN ('10','30')) AS q1 \
             ON q0.RowId = q1.RowId",
            // C shape: a residual join, then an integer-valued SUM.
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
            let eng = small_chunk_engine(kind);
            for sql in queries {
                let (want, want_rep) = reference.execute_with_report(sql).unwrap();
                assert_eq!(want_rep.path, "positional", "{sql}");
                let (got, rep) = eng.execute_with_report(sql).unwrap();
                assert_eq!(got, want, "{kind:?}: {sql}");
                assert!(rep.logical_eq(&want_rep), "{kind:?} telemetry: {sql}");
                assert!(rep.parallel.is_empty(), "{kind:?}: {sql}");
                let (reference_rows, _) = eng.execute_reference(sql).unwrap();
                assert_eq!(got, reference_rows, "{kind:?} vs the reference: {sql}");
            }
        }
    }
}
