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
//! position list; the row store runs one fused check per tuple. A filtered
//! scan walks each segment a chunk ([`ParallelCtx::morsel_len`]
//! positions) at a time, polling the interrupt per chunk, and reuses one
//! [`ScanScratch`] selection vector for the residual pass across chunks.

use blend_parallel::ParallelCtx;
use blend_storage::{FactTable, ScanScratch};

use super::PosBatch;
use crate::exec::{QueryReport, ScanReport};
use crate::pexpr::{compile_pexpr, PExpr, Rows};
use crate::plan::{ScanPlan, Seg};
use blend_common::Result;

/// Positional scan: emit surviving positions; no tuple is materialized.
/// Visits the plan's segments in the reference's order and reports
/// the same telemetry. The scan is global leaf `leaf`, whose residual
/// compiles here.
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
        scan_chunks(scan, &segs, leaf, residual, tables, par)?
    };
    span.attr_u64("scanned", scanned as u64);
    span.attr_u64("rows", out.len() as u64);
    report.scans.push(ScanReport::new(scan, scanned, out.len()));
    PosBatch::scanned(out, par)
}

/// The filtered scan: each segment a chunk at a time, one batched kernel
/// evaluation ([`ScanPlan::filter`]) plus the residual per chunk. Kernel
/// survivors concatenate exactly as whole-segment calls would, and a
/// deadline is observed mid-segment, not only between segments.
fn scan_chunks(
    scan: &ScanPlan,
    segs: &[Seg<'_>],
    leaf: usize,
    residual: Option<&PExpr>,
    tables: &[&dyn FactTable],
    par: &ParallelCtx,
) -> Result<Vec<u32>> {
    let chunk = par.morsel_len();
    // One chunk-sized selection vector (for the residual) and its
    // expression scratch, held for the duration of the scan.
    let _scratch_mem = par.memory().try_reserve("scan_scratch", chunk * 4)?;
    let residual_bytes = residual.map_or(0, |r| r.scratch_bytes(chunk));
    let _expr_mem = par.memory().try_reserve("expr_scratch", residual_bytes)?;
    let (mut out, mut scratch) = (Vec::new(), ScanScratch::default());
    for &seg in segs {
        for start in (0..seg.len()).step_by(chunk) {
            par.check_interrupt()?;
            let end = (start + chunk).min(seg.len());
            // Kernel survivors land straight in `out` without a residual
            // (the common case), else in the selection vector first.
            let Some(res) = residual else {
                scan.filter(seg, start, end, &mut out);
                continue;
            };
            scratch.sel.clear();
            scan.filter(seg, start, end, &mut scratch.sel);
            let pass = res.eval(tables, Rows::all(&scratch.sel, 1, leaf)).truthy();
            let kept = scratch.sel.iter().zip(pass).filter(|&(_, p)| p);
            out.extend(kept.map(|(&pos, _)| pos));
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
