//! Portable data-parallel microkernels for the flat hot loops.
//!
//! The executor's inner loops — selection-vector compaction, radix
//! counting, batched hashing, hash-bucket probing — are all flat passes
//! over contiguous arrays, deliberately shaped (PRs 3–4) so a vector
//! engine can chew through them. This crate is that engine: a small set of
//! **block-at-a-time kernels** with word-level (SWAR) data parallelism,
//! written so the auto-vectorizer can widen them further on targets with
//! real vector units. The stable toolchain has no `std::simd`, so the
//! vector path is the u64-word bitmap/SWAR fallback the design anticipated:
//!
//! * **Selection kernels** ([`sel`]) evaluate a predicate over blocks of 64
//!   candidates into one `u64` keep-mask, then emit survivors by bit
//!   iteration — an empty mask skips the block without a single store, a
//!   full mask bulk-copies it. The scalar twin is the branch-free
//!   write-all/advance-on-keep loop the engines used before; the mask path
//!   wins on selective scans precisely because it elides the stores (and
//!   the `resize` memset) the scalar form pays per candidate.
//! * **Histogram kernels** ([`hist`]) stripe radix counting across four
//!   independent count arrays to break the store-to-load dependency chain
//!   on hot partitions; the scatter pass stays a single-cursor loop (its
//!   per-partition cursors make it inherently serial) but lives here so
//!   both passes share one home and one parity suite.
//! * **Prefetch** ([`prefetch_read`]) issues a best-effort cache-line
//!   prefetch on x86_64 (a no-op elsewhere) so batched hash probes can
//!   overlap bucket-head misses a block ahead.
//!
//! `unsafe` in this crate is confined to two places: `_mm_prefetch` (never
//! faults, reads nothing architecturally) and the x86_64 compare kernels
//! behind [`sel::keep_mask_in8`] (SSE2 is the x86_64 baseline; the AVX2
//! form runs only after cached runtime detection). Every intrinsic path is
//! differentially tested against its portable SWAR twin.
//!
//! Batched hash mixing (`mix64x8`/`mix128x8`) lives in `blend_common::hash`
//! next to its scalar forms; the kernels here are the ones that need a
//! dispatch seam.
//!
//! # Dispatch rules
//!
//! Unforced dispatch is the vector path. Benches and tests flip paths
//! in-process via [`force`] — mirroring `blend_obs::set_enabled` — and
//! `force(None)` returns to the vector path. Only kernels read
//! [`enabled`] — the wrappers here and the batched hash of
//! `blend_storage::DenseKey::hash_block`; executors never branch on
//! it, so both paths run the same operator loops and differ only inside a
//! kernel. Kernels never dispatch per element: they check once per batch,
//! so the scalar path costs one predictable branch per batch, not per row.
//!
//! # Scalar-oracle contract
//!
//! Every kernel keeps its scalar twin `pub` (`*_scalar`) and **both paths
//! must produce byte-identical output** — same survivors in the same
//! order, same counts, same scatter layout — for every input, including
//! non-multiple-of-64 tails, `start` offsets landing mid-word, and
//! all-keep/all-drop masks. `tests/simd_parity.rs` fuzzes each pair
//! differentially, and the SQL-level parity suites (`tests/config_matrix.rs`
//! among them) pin end-to-end results under both forced paths; perf work
//! may change *how* a kernel computes, never *what*.
//!
//! # Adding a kernel
//!
//! 1. Land the scalar form first and name it `<kernel>_scalar`; it is the
//!    oracle, so keep it obvious rather than fast.
//! 2. Add the block/SWAR form as `<kernel>_blocks` and a thin dispatching
//!    wrapper `<kernel>` that checks [`enabled`] once.
//! 3. Extend `tests/simd_parity.rs` with a differential proptest covering
//!    tails, offsets, and degenerate (empty/full) inputs.
//! 4. Read its effect off the benchmark's traced run: `simd.off_on_ratio`
//!    is a pass with the scalar path [`force`]d over the default dispatch.

use std::sync::atomic::{AtomicU8, Ordering};

pub mod hist;
pub mod sel;

pub use hist::{count_parts, count_parts_scalar, count_parts_striped, scatter_parts};
pub use sel::{
    compact, compact_blocks, compact_scalar, extend_filtered, extend_filtered_blocks,
    extend_filtered_scalar, extend_range, extend_range_blocks, extend_range_in8,
    extend_range_in8_blocks, extend_range_in8_scalar, extend_range_over, extend_range_over_blocks,
    extend_range_over_scalar, extend_range_scalar, keep_mask_in8, keep_mask_in8_swar,
};

/// Process-wide override: 0 = unforced, 1 = force scalar, 2 = force vector.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// True when the vector kernels are selected: always, unless [`force`]
/// chose the scalar path.
#[inline]
pub fn enabled() -> bool {
    FORCED.load(Ordering::Relaxed) != 1
}

/// Force the dispatch verdict in-process: `Some(true)` selects the vector
/// path, `Some(false)` the scalar path, `None` restores the unforced
/// default (vector). For A/B benches and differential tests; not
/// thread-isolated, so flip it only around single-threaded
/// measurement/assert sections.
pub fn force(mode: Option<bool>) {
    let v = match mode {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    };
    FORCED.store(v, Ordering::Relaxed);
}

/// Best-effort read prefetch of `slice[idx]` into L1. Out-of-bounds
/// indices are ignored (prefetching is advisory, so the bounds probe is
/// the only architectural effect); non-x86_64 targets compile to nothing.
#[inline]
pub fn prefetch_read<T>(slice: &[T], idx: usize) {
    #[cfg(target_arch = "x86_64")]
    if let Some(r) = slice.get(idx) {
        // SAFETY: `_mm_prefetch` is a hint — it never faults and performs
        // no architecturally visible read, and `r` is a live reference.
        unsafe {
            std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                r as *const T as *const i8,
            )
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (slice, idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_overrides_dispatch_both_ways() {
        force(Some(false));
        assert!(!enabled());
        force(Some(true));
        assert!(enabled());
        force(None);
        assert!(enabled(), "unforced dispatch is the vector path");
    }

    #[test]
    fn prefetch_is_safe_at_any_index() {
        let v = vec![1u32, 2, 3];
        prefetch_read(&v, 0);
        prefetch_read(&v, 2);
        prefetch_read(&v, 3); // out of bounds: ignored
        prefetch_read::<u64>(&[], 0);
    }
}
