//! The two data-parallel kernels that beat their scalar twins, and the
//! switch between the forms.
//!
//! A kernel keeps a vector form here only while that form never loses to
//! its scalar twin on the measured shapes and wins by at least 2x on one
//! of them (one thread, 16 Ki-element inputs, the forms alternated; the
//! figures below are from an x86_64 Xeon with AVX2). Two do:
//!
//! * **The small-IN-list range filter** ([`extend_range_in8`]) compares 64
//!   dictionary codes against a padded block of 8 needles into one
//!   keep-mask: AVX2 after cached runtime detection, the SSE2 baseline on
//!   other x86_64 CPUs, a portable SWAR form elsewhere. About 3x its scalar
//!   twin on sparse hits, 2x with 8 needles over a 32-code domain.
//! * **Radix counting** ([`count_parts`]) stripes partition counts across
//!   four histograms, breaking the store-to-load chain of a skewed input
//!   (about 3.5x there, 1.05-1.3x on uniform input). The scatter pass
//!   ([`scatter_parts`]) is serial by construction and has one form.
//!
//! Every other selection loop (compaction, candidate and range filtering)
//! and the packed-key hash of a block lost or tied their A/Bs and have one
//! scalar form, in `blend_storage`. [`prefetch_read`] has one form too; it
//! is advisory and not dispatched.
//!
//! `unsafe` in this crate is confined to `_mm_prefetch` (never faults,
//! reads nothing architecturally) and the x86_64 compare kernels behind
//! [`sel::keep_mask_in8`], each differentially tested against the
//! portable SWAR form.
//!
//! # Dispatch
//!
//! Unforced dispatch is the vector path; [`force`] flips it in-process and
//! `force(None)` restores it. Only the two dispatching kernels here read
//! [`enabled`], once per call. Both forms produce byte-identical output,
//! which `tests/simd_parity.rs` fuzzes and the SQL-level parity suites
//! check end to end under both forced paths. `force` and `enabled` stay
//! while the benchmark's `simd.off_on_ratio` probe calls them; they go
//! with the benchmark change that drops that probe.

use std::sync::atomic::{AtomicU8, Ordering};

pub mod hist;
pub mod sel;

pub use hist::{count_parts, count_parts_scalar, count_parts_striped, scatter_parts};
pub use sel::{
    extend_range_in8, extend_range_in8_blocks, extend_range_in8_scalar, keep_mask_in8,
    keep_mask_in8_swar,
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
/// default (vector). For A/B runs and differential tests; not
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
