//! The query tails: `ORDER BY … LIMIT` and the projection, over a join
//! tree's rows or a GROUP BY's groups.
//!
//! ## Top-k before materialization
//!
//! The SC and KW seekers' SQL text (which serves the served path and the
//! parity oracles; the seekers themselves run as operators over the index)
//! is `GROUP BY … ORDER BY score DESC LIMIT k` over tens of thousands of
//! groups. The grouping phase's output is
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
//! (`exec_project`, the MC text's) is the same selection over the
//! gathered output columns, with the row ordinal as the last key; without
//! ORDER BY it gathers the first LIMIT rows and nothing else. Spans: `group`
//! is grouping plus aggregation, `sort` the selection — `rows_in`, `k`,
//! `selected`, and on this executor `path` (`threshold` where the count
//! histogram narrowed it, else `compare`) and `candidates`, the rows the
//! comparator ranked — `project` the output columns of the survivors;
//! `materialize` is the engine's, around the rows a caller asked for.

use std::borrow::Cow;
use std::sync::Arc;

use blend_parallel::{MemoryReservation, ParallelCtx, QueryMemory};
use blend_storage::FactTable;

use super::PosBatch;
use crate::columns::{ResultColumn, ResultColumns, TextColumn};
use crate::exec::{self, QueryReport, Tuple};
use crate::expr::CExpr;
use crate::pexpr::{compile_pexpr, Leaves, PExpr};
use crate::plan::{QueryPlan, ScanPlan};
use blend_common::Result;

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
/// as dictionary ids, anything computed by the batch evaluator — and run
/// `ORDER BY … LIMIT` over row ordinals with the shared
/// [`exec::select_top`], comparing the flat columns. No `SqlValue` row is
/// built here. The select list and ORDER BY keys compile here, over
/// `leaves`.
pub(super) fn exec_project(
    plan: &QueryPlan,
    leaves: &[&ScanPlan],
    batch: &PosBatch,
    tables: &[&dyn FactTable],
    report: &mut QueryReport,
    par: &ParallelCtx,
) -> Result<ResultColumns> {
    let compile = |es: &mut dyn Iterator<Item = &CExpr>| -> Result<Vec<PExpr>> {
        es.map(|e| compile_pexpr(e, 0, leaves)).collect()
    };
    let exprs = compile(&mut plan.projection.iter().map(|(_, e)| e))?;
    let order = compile(&mut plan.order_by.iter().map(|(e, _)| e))?;
    let ordered = !order.is_empty();
    // Without ORDER BY the first LIMIT rows are the result.
    let n = match plan.limit {
        Some(k) if !ordered => k.min(batch.len()),
        _ => batch.len(),
    };
    let span = blend_obs::span("project");
    span.attr_u64("rows", n as u64);
    let mut cache = Leaves::new(batch.rows(0));
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
                    TextColumn::store(codes, leaves[*leaf].table.clone())
                } else {
                    let strs = positions
                        .iter()
                        .map(|&p| tables[*leaf].value_at(p as usize));
                    TextColumn::dense(strs)?
                })
            }
            _ => {
                let mut v = Vec::with_capacity(n);
                let rows = batch.rows(0).slice(0..n);
                e.eval_morsels(tables, rows, par, |_, c| v.extend(c.into_values()))?;
                ResultColumn::Val(v)
            }
        })
    };
    let mut columns: Vec<ResultColumn> = exprs.iter().map(&mut column).collect::<Result<_>>()?;
    let order: Vec<ResultColumn> = order.iter().map(&mut column).collect::<Result<_>>()?;
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

/// GROUP BY output as flat columns, one entry per group: the batch row that
/// first produced the group, then the key and aggregate columns in the
/// order of the post-aggregation tuple the plan's projection and ORDER BY
/// are compiled against. No `SqlValue` tuple exists per group;
/// [`finish_groups`] gathers the output columns of the groups that survive
/// `ORDER BY … LIMIT`.
///
/// Ascending (first-seen row, group ordinal) is the reference's group
/// order, so it ends the sort keys.
pub(super) struct GroupCols {
    pub(super) first_rows: Vec<u32>,
    pub(super) cols: Vec<ResultColumn>,
}

impl GroupCols {
    pub(super) fn len(&self) -> usize {
        self.first_rows.len()
    }

    fn bytes(&self) -> usize {
        self.len() * 4 + self.cols.iter().map(ResultColumn::bytes).sum::<usize>()
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
    /// the flat columns, and ends with the first-seen row and the group
    /// ordinal; with no ORDER BY those alone restore first-seen order.
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
                .then(a.cmp(&b))
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
/// select list's flat columns for those alone.
///
/// The `sort` span's `path` says whether a counting threshold narrowed the
/// selection (`threshold`) or the comparator ranked every group
/// (`compare`); `candidates` counts the groups that reached the
/// comparator.
pub(super) fn finish_groups(
    plan: &QueryPlan,
    groups: GroupCols,
    report: &mut QueryReport,
    par: &ParallelCtx,
) -> Result<ResultColumns> {
    let span = blend_obs::span("sort");
    let rows_in = groups.len();
    span.attr_u64("rows_in", rows_in as u64);
    span.attr_u64("k", plan.limit.unwrap_or(rows_in) as u64);
    let mem = par.memory();
    let _cols_mem = mem.try_reserve("group_out", groups.bytes())?;
    let top = groups.top(plan, mem)?;
    let ords = top.ords;
    span.attr_str("path", if top.counted { "threshold" } else { "compare" });
    span.attr_u64("candidates", top.candidates as u64);
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
