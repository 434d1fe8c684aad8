//! Positional scans: each emits the positions that pass its predicates.
//!
//! ## Selection-vector scans
//!
//! The planner hands every scan two things, and both executors use them
//! as they are: the scan's cheap predicates as one
//! [`FilterKernel`](blend_storage::FilterKernel)
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

use blend_parallel::{morselize, Morsel, ParallelCtx, PhaseGrant};
use blend_storage::{FactTable, ScanScratch};

use super::PosBatch;
use crate::exec::{ParallelPhase, QueryReport, ScanReport};
use crate::pexpr::{compile_pexpr, PExpr, Rows};
use crate::plan::{ScanPlan, Seg};
use blend_common::Result;

/// Positional scan: emit surviving positions; no tuple is materialized.
/// Visits the plan's segments in the reference's order and reports
/// the same telemetry. Large filtered scans are morsel-partitioned across
/// the pool; per-morsel position lists concatenate in morsel order, so the
/// emitted batch is identical at every thread count. The scan is global
/// leaf `leaf`, whose residual compiles here.
pub(super) fn exec_scan(
    scan: &ScanPlan,
    leaf: usize,
    leaves: &[&ScanPlan],
    tables: &[&dyn FactTable],
    report: &mut QueryReport,
    par: &ParallelCtx,
) -> Result<PosBatch> {
    let residual = (scan.residual.as_ref())
        .map(|r| compile_pexpr(r, leaf, &leaves[..=leaf]))
        .transpose()?;
    let residual = residual.as_ref();
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
            let pass = res.eval(tables, Rows::all(&scratch.sel, 1, leaf)).truthy();
            let kept = scratch.sel.iter().zip(pass).filter(|&(_, p)| p);
            out.extend(kept.map(|(&pos, _)| pos));
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
    let residual_bytes = residual.map_or(0, |r| r.scratch_bytes(par.morsel_len()));
    let _expr_mem = (par.memory()).try_reserve("expr_scratch", scratch_width * residual_bytes)?;
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

#[cfg(test)]
mod tests {
    use super::super::tests::{both_paths, engine};
    use blend_storage::EngineKind;

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
