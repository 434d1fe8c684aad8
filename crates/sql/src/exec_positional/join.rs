//! Positional equi-joins on dense key ids.
//!
//! ## Joins on dense ids
//!
//! Every equi-join numbers its build side's distinct keys `0..n`, lists
//! each id's build rows in one CSR (`radix_partition` over the per-row ids,
//! so each list ascends), and maps each probe row, a [`PROBE_BLOCK`] at a
//! time, to an id or "no match" and walks that id's list. The ids come from:
//!
//! * **the row directory** on row-keyed joins (*Row-key joins* below): an
//!   ordinal's id is its rank among the build ordinals ([`OrdinalRank`], a
//!   bitmap over the ordinal space with a per-word prefix, which the MC
//!   seeker's operator shares); no key is hashed;
//! * **the keyed phase** on packed keys: its index holds every build key,
//!   so it never grows. The probe hashes a block of packed keys and looks
//!   each up in the index
//!   ([`GroupIndex::get_hashed`](blend_storage::GroupIndex::get_hashed));
//! * **the interner** on interned keys, whose ids are dense already:
//!   nothing is packed or hashed, and build rows whose key holds NULL go to
//!   one list past the last id, which no probe names.
//!
//! Build-side choice (the smaller input), the residual, probe order and
//! ascending build matches are the reference's `hash_join`, so the bytes
//! are its. One probe loop (`Joiner::probe_ids`) serves all three, on the
//! query's thread. Spans `join.build` / `join.probe` say `path` `rows` or
//! `hash` (packed and interned keys); a rows build adds `ordinals`, a
//! packed build `buckets`, `max_chain` and `partitions` (always 1), and
//! every probe `matched` and `skipped` (rows whose lookup found no id).
//! Keys are gathered and packed, or interned, inside the span of their
//! side. Only a packed join records
//! [`HashTableStats`](crate::exec::HashTableStats) (phase `join`).
//!
//! ## Row-key joins
//!
//! The MC seeker's SQL text (paper Listing 2) joins its per-column value
//! scans on `(TableId, RowId)`, and the C seeker's (Listing 3) joins its
//! key and number scans on the same pair, with `keys.ColumnId <>
//! nums.ColumnId` as a residual. No seeker runs SQL (each is an operator
//! over the index in `blend`); these joins serve the seekers' SQL text on
//! the served path and in the parity oracles. Through the store's row
//! directory ([`Directory::row_ordinals`](blend_storage::Directory::row_ordinals):
//! `row_base[TableId]` plus the `RowId`'s rank among the table's, dense
//! over the lake's rows, its space at most one per cell), two cells share
//! a row exactly when they share a row ordinal, so the join needs no hash.
//!
//! The check is a plan property, `row_keyed`: the join's packed keys are
//! exactly `{TableId, RowId}` of one leaf per side (repeats allowed, no
//! `ColumnId`), and both leaves scan the same table `Arc` — one directory
//! numbers both sides. Every MC arity qualifies (each join keys `q0`
//! against `qN`), and so does C, on either store. Every other join
//! hashes.

use std::ops::Range;
use std::sync::Arc;

use blend_obs::SpanGuard;
use blend_parallel::ParallelCtx;
use blend_storage::{radix_partition, radix_scratch_bytes, DenseKey, FactTable, OrdinalRank};

use super::group::{keyed, KeyedOp};
use super::{
    executor_bug, int_col, pack_rows128, pack_rows64, poll_every, retain_rows, Intern, Interner,
    Keys, PosBatch, PosCol, NO_MATCH, PREFETCH_MIN_SLOTS, PROBE_BLOCK,
};
use crate::exec::QueryReport;
use crate::expr::CExpr;
use crate::pexpr::{compile_pexpr, IntCol, Leaves, PExpr, Rows, FACT_WIDTH};
use crate::plan::ScanPlan;
use blend_common::Result;

/// A join's equi-keys as (left, right) pairs.
type JoinKeys = Keys<(PosCol, PosCol), (PExpr, PExpr)>;

/// The (left, right) leaves of a row-keyed join (module docs, *Row-key
/// joins*): its packed keys are exactly `TableId` and `RowId` of one leaf
/// per side, and both leaves scan the same table.
fn row_keyed(keys: &JoinKeys, leaves: &[&ScanPlan]) -> Option<(usize, usize)> {
    let Keys::Packed(cols) = keys else {
        return None;
    };
    let ((l, _), (r, _)) = *cols.first()?;
    let on = |c: IntCol| cols.iter().any(|&((_, x), (_, y))| x == c && y == c);
    let same_leaves = (cols.iter()).all(|&((a, x), (b, y))| a == l && b == r && x == y);
    let table = &leaves[l].table;
    let shape = same_leaves && on(IntCol::Table) && on(IntCol::Row) && !on(IntCol::Column);
    (shape && Arc::ptr_eq(table, &leaves[r].table)).then_some((l, r))
}

/// Positional equi-join on dense key ids (module docs, *Joins on dense
/// ids*): the row directory's ranks ([`join_rows`]), the keyed phase's ids
/// ([`join_packed`]) or the interner's number the build keys, and
/// [`Joiner::probe_ids`] lists and probes them. Build-side choice and
/// output order mirror the reference's `hash_join`, so the bytes are its.
///
/// `left`'s first leaf is global leaf `base`; `keys` (offsets into each
/// side's tuple) and the `residual` (over the joined tuple) compile here,
/// the keys packed or interned (`exec_positional` docs, *Interned keys*).
#[allow(clippy::too_many_arguments)]
pub(super) fn exec_join(
    left: PosBatch,
    right: PosBatch,
    base: usize,
    keys: &[(usize, usize)],
    residual: Option<&CExpr>,
    leaves: &[&ScanPlan],
    tables: &[&dyn FactTable],
    report: &mut QueryReport,
    par: &ParallelCtx,
) -> Result<PosBatch> {
    let (n_left, n_right) = (left.stride, right.stride);
    let leaves = &leaves[..base + n_left + n_right];
    // A key offset is into its own side's tuple.
    let side = |off: usize, side_base: usize, n: usize| match off / FACT_WIDTH < n {
        true => compile_pexpr(&CExpr::Col(off), side_base, leaves),
        false => Err(executor_bug("a join key outside its input")),
    };
    let pairs = (keys.iter())
        .map(|&(lk, rk)| Ok((side(lk, base, n_left)?, side(rk, base + n_left, n_right)?)))
        .collect::<Result<Vec<_>>>()?;
    let residual = residual
        .map(|r| compile_pexpr(r, base, leaves))
        .transpose()?;
    let residual = residual.as_ref();
    let keys: JoinKeys = Keys::of(pairs, |(l, r)| Some((int_col(l)?, int_col(r)?)));
    let row_key = row_keyed(&keys, leaves);
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

    let (out, n_out) = match (row_key, &keys) {
        (Some((l, r)), _) => {
            let (build_leaf, probe_leaf) = if build_left { (l, r) } else { (r, l) };
            let local = (build_leaf - build_base, probe_leaf - probe_base);
            join_rows(&joiner, build_span, local, tables[l], par)?
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
                let mut cache = Leaves::new(batch.rows(side_base));
                (cols.iter())
                    .map(|&(lk, rk)| {
                        let (leaf, col) = if on_build == build_left { lk } else { rk };
                        let mut vals = Vec::with_capacity(batch.len());
                        col.gather(tables[leaf], cache.positions(leaf), &mut vals);
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
            let n_ids = interner.index.len();
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
            joiner.probe_ids(build_span, (ids, n_ids + 1), "hash", lookup, par)?
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
    /// `out`.
    #[inline]
    fn emit(&self, bi: usize, pi: usize, out: &mut Vec<u32>) {
        let (bt, pt) = (self.build.row(bi), self.probe.row(pi));
        let (lt, rt) = if self.build_left { (bt, pt) } else { (pt, bt) };
        out.extend(lt.iter().chain(rt).copied());
    }

    /// Keep the joined rows of `out` from row `from` on that pass the
    /// residual, compacted in place: one batch evaluation.
    fn filter(&self, res: &PExpr, out: &mut Vec<u32>, from: usize) {
        let stride = self.build.stride + self.probe.stride;
        let rows = Rows::all(&out[from * stride..], stride, self.base);
        let pass = res.eval(self.tables, rows).truthy();
        retain_rows(out, stride, from, &pass);
    }

    /// The end of every join's build and its one probe loop: one CSR lists
    /// each id's build rows (`ids`: each build row's id, below `n_ids`), then
    /// `lookup` runs inside `join.probe` and maps blocks of probe rows to their
    /// [`Hits`] (with a scratch buffer to gather into), and each hit walks its
    /// id's list in probe order. The residual runs on every [`PROBE_BLOCK`]
    /// of joined pairs.
    fn probe_ids<L: Fn(Range<usize>, &mut Vec<u32>, &mut Hits)>(
        &self,
        build_span: SpanGuard,
        (ids, n_ids): (Vec<u32>, usize),
        path: &'static str,
        lookup: impl FnOnce() -> Result<L>,
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
        let scratch = self.residual.map_or(0, |r| r.scratch_bytes(PROBE_BLOCK));
        let _expr_mem = par.memory().try_reserve("expr_scratch", scratch)?;
        let stride = self.build.stride + self.probe.stride;
        let block = PROBE_BLOCK * stride;
        let (mut rows, mut skipped) = (Vec::new(), 0);
        let (mut scratch, mut hits) = (Vec::new(), Vec::with_capacity(PROBE_BLOCK));
        // Joined rows before `from` have passed the residual.
        let mut from = 0;
        for start in (0..n_probe).step_by(PROBE_BLOCK) {
            if poll_every(start) {
                par.check_interrupt()?;
            }
            let end = (start + PROBE_BLOCK).min(n_probe);
            hits.clear();
            lookup(start..end, &mut scratch, &mut hits);
            skipped += end - start - hits.len();
            for &(pi, id) in &hits {
                for &bi in lists.part(id as usize) {
                    self.emit(bi as usize, pi as usize, &mut rows);
                    if let Some(res) = self.residual.filter(|_| rows.len() - from >= block) {
                        self.filter(res, &mut rows, from / stride);
                        from = rows.len();
                    }
                }
            }
        }
        if let Some(res) = self.residual {
            self.filter(res, &mut rows, from / stride);
        }
        par.check_interrupt()?;
        let matched = rows.len() / stride;
        span.attr_u64("matched", matched as u64);
        span.attr_u64("skipped", skipped as u64);
        Ok((rows, matched))
    }
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
    par: &ParallelCtx,
) -> Result<(Vec<u32>, usize)> {
    let (build, probe) = (joiner.build, joiner.probe);
    let n_build = build.len();
    let dir = table.directory();
    let space = dir.rows();
    // The rank, the build ordinals (then ids), the build leaf's positions
    // where a wider batch copies them out, and the CSR — all of it priced
    // before any is allocated; the probe leaf's positions under `join_keys`.
    let _build_mem = par.memory().try_reserve(
        "join_build",
        OrdinalRank::estimate_bytes(space)
            + n_build * 8
            + radix_scratch_bytes(n_build, n_build.min(space)),
    )?;
    let mut ids = Vec::with_capacity(n_build);
    dir.row_ordinals(&build.rows(0).positions(build_leaf), &mut ids);
    let rank = OrdinalRank::build(space, &ids);
    rank.rank_members(&mut ids);
    let distinct = rank.len();
    build_span.attr_u64("ordinals", distinct as u64);
    // The probe leaf's positions (borrowed from a one-leaf batch), then a
    // block's ordinals in one gather; an ordinal whose bit is set hits.
    let _probe_mem = par.memory().try_reserve("join_keys", probe.len() * 4)?;
    let lookup = || {
        let positions = probe.rows(0).positions(probe_leaf);
        let hits_of = move |range: Range<usize>, ords: &mut Vec<u32>, hits: &mut Hits| {
            ords.clear();
            dir.row_ordinals(&positions[range.clone()], ords);
            let found = range
                .zip(ords.iter())
                .map(|(pi, &o)| (pi as u32, rank.rank(o)));
            hits.extend(found.filter_map(|(pi, id)| Some((pi, id?))));
        };
        Ok(hits_of)
    };
    joiner.probe_ids(build_span, (ids, distinct), "rows", lookup, par)
}

/// The join on packed keys: the keyed phase numbers the build keys
/// (`side_cols(true)`, packed by `pack`) through one index, and the probe
/// packs its side's keys, hashes a block at a time and looks each key up.
fn join_packed<K: DenseKey + Copy>(
    joiner: &Joiner<'_>,
    build_span: SpanGuard,
    side_cols: impl Fn(bool) -> Vec<Vec<u32>>,
    pack: fn(&[Vec<u32>], usize) -> Vec<K>,
    report: &mut QueryReport,
    par: &ParallelCtx,
) -> Result<(Vec<u32>, usize)> {
    let n_build = joiner.build.len();
    let keys = pack(&side_cols(true), n_build);
    let built = keyed(KeyedOp::Join, &keys, report, par, |ix, _, ids| {
        Ok((ix, ids))
    })?;
    let (index, ids) = built.out;
    let slots = index.slot_count();
    build_span.attr_u64("buckets", slots as u64);
    build_span.attr_u64("max_chain", index.max_probe() as u64);
    build_span.attr_u64("partitions", 1);

    let n_probe = joiner.probe.len();
    let _probe_mem = (par.memory()).try_reserve("join_keys", n_probe * std::mem::size_of::<K>())?;
    let n_ids = index.len();
    let lookup = || {
        let keys = pack(&side_cols(false), n_probe);
        let hits_of = move |range: Range<usize>, _: &mut Vec<u32>, hits: &mut Hits| {
            let keys = &keys[range.clone()];
            let mut hash_buf = [0u64; PROBE_BLOCK];
            let hashes = &mut hash_buf[..keys.len()];
            K::hash_block(keys, hashes);
            if slots >= PREFETCH_MIN_SLOTS {
                hashes.iter().for_each(|&h| index.prefetch_slot(h));
            }
            for ((pi, &key), &h) in range.zip(keys).zip(hashes.iter()) {
                if let Some(id) = index.get_hashed(&key, h) {
                    hits.push((pi as u32, id));
                }
            }
        };
        Ok(hits_of)
    };
    joiner.probe_ids(build_span, (ids, n_ids), "hash", lookup, par)
}

#[cfg(test)]
mod tests {
    use super::super::tests::{both_paths, engine};
    use blend_storage::EngineKind;

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
}
