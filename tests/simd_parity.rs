//! SIMD/scalar kernel parity: every kernel in the `blend_simd` layer (and
//! every dispatching consumer above it) must reproduce its scalar twin
//! **byte-for-byte** — the scalar-oracle contract the kernel layer's
//! module docs promise.
//!
//! Three tiers of coverage:
//!
//! 1. **Kernel pairs**, called explicitly (no global dispatch involved):
//!    selection-vector compaction/extension, the fixed-width IN-list
//!    (`in8`) mask/extend pair, striped partition counting, and the
//!    batched hash mixers, over random lengths including non-lane-multiple
//!    tails, misaligned starts, and — every case also reruns with the
//!    degenerate all-keep and all-drop bounds — saturated masks.
//! 2. **Dispatching consumers** under `blend_simd::force`: batched key
//!    hashing and the blocked probe of a join on packed keys (a block of
//!    keys hashed, each looked up in a `GroupIndex` and its id's build
//!    rows walked), forced down both paths in one process. Force flips are
//!    process-global, so those tests serialize on a mutex and restore env
//!    dispatch on exit (panic included).
//! 3. **End-to-end SQL**: full queries covering each wired kernel, forced
//!    down both paths across storage engines × thread counts {1, 4, 8},
//!    must return byte-identical `ResultSet`s.

use std::sync::{Arc, Mutex, MutexGuard};

use blend_common::{mix128, mix128x8, mix64, mix64x8};
use blend_parallel::ParallelCtx;
use blend_simd as simd;
use blend_sql::hashtable::PROBE_BLOCK;
use blend_sql::{GroupIndex, JoinKey, SqlEngine};
use blend_storage::{build_engine, EngineKind, FactRow};
use proptest::prelude::*;

/// Serializes tests that flip the process-global dispatch override, and
/// restores env-driven dispatch when the scope ends — even on a failed
/// assertion, so one failure cannot poison unrelated tests.
static FORCE_LOCK: Mutex<()> = Mutex::new(());

struct ForceScope(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for ForceScope {
    fn drop(&mut self) {
        simd::force(None);
    }
}

fn force_scope() -> ForceScope {
    ForceScope(FORCE_LOCK.lock().unwrap_or_else(|p| p.into_inner()))
}

/// Every sampled keep-bound plus the saturated edges: 0 drops every value
/// in `0..1000`, 1001 keeps every one — the all-drop / all-keep masks the
/// block kernels special-case.
fn bounds(sampled: u32) -> [u32; 3] {
    [0, 1001, sampled]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- tier 1: kernel pairs --------------------------------------------

    #[test]
    fn compact_paths_agree(
        vals in proptest::collection::vec(0u32..1000, 0..300),
        start_seed in any::<u64>(),
        b_raw in 1u32..1000,
    ) {
        // Misaligned starts: any prefix length, not just block multiples.
        let start = start_seed as usize % (vals.len() + 1);
        for b in bounds(b_raw) {
            let mut scalar = vals.clone();
            let mut blocks = vals.clone();
            simd::compact_scalar(&mut scalar, start, |v| v < b);
            simd::compact_blocks(&mut blocks, start, |v| v < b);
            prop_assert_eq!(&scalar, &blocks);
            // The dispatching wrapper lands on one of the two (whichever
            // the environment selects) — both agree, so it must match too.
            let mut auto = vals.clone();
            simd::compact(&mut auto, start, |v| v < b);
            prop_assert_eq!(&scalar, &auto);
        }
    }

    #[test]
    fn extend_filtered_paths_agree(
        prefix in proptest::collection::vec(any::<u32>(), 0..8),
        cands in proptest::collection::vec(0u32..1000, 0..300),
        b_raw in 1u32..1000,
    ) {
        for b in bounds(b_raw) {
            let mut scalar = prefix.clone();
            let mut blocks = prefix.clone();
            simd::extend_filtered_scalar(&mut scalar, &cands, |v| v < b);
            simd::extend_filtered_blocks(&mut blocks, &cands, |v| v < b);
            prop_assert_eq!(scalar, blocks);
        }
    }

    #[test]
    fn extend_range_paths_agree(
        prefix in proptest::collection::vec(any::<u32>(), 0..8),
        lo in 0usize..200,
        span in 0usize..300,
        reversed in any::<bool>(),
        b_raw in 1u32..1000,
    ) {
        // Degenerate ranges ride along: span == 0 gives lo == hi, and
        // `reversed` hands the kernels hi < lo.
        let (lo, hi) = if reversed { (lo + span, lo) } else { (lo, lo + span) };
        for b in bounds(b_raw) {
            let keep = |p: u32| p.wrapping_mul(0x9E37_79B9) >> 22 < b;
            let mut scalar = prefix.clone();
            let mut blocks = prefix.clone();
            simd::extend_range_scalar(&mut scalar, lo, hi, keep);
            simd::extend_range_blocks(&mut blocks, lo, hi, keep);
            prop_assert_eq!(scalar, blocks);
        }
    }

    #[test]
    fn extend_range_over_paths_agree(
        prefix in proptest::collection::vec(any::<u32>(), 0..8),
        vals in proptest::collection::vec(0u32..1000, 0..300),
        lo_seed in any::<u64>(),
        hi_seed in any::<u64>(),
        b_raw in 1u32..1000,
    ) {
        // Sub-ranges of the value slice, including empty and full spans.
        let lo = lo_seed as usize % (vals.len() + 1);
        let hi = hi_seed as usize % (vals.len() + 1);
        for b in bounds(b_raw) {
            let mut scalar = prefix.clone();
            let mut blocks = prefix.clone();
            simd::extend_range_over_scalar(&mut scalar, lo, hi, &vals, |v| v < b);
            simd::extend_range_over_blocks(&mut blocks, lo, hi, &vals, |v| v < b);
            prop_assert_eq!(scalar, blocks);
        }
    }

    #[test]
    fn keep_mask_in8_paths_agree(
        vals in proptest::collection::vec(any::<u32>(), 0..65),
        needle_pool in proptest::collection::vec(any::<u32>(), 1..9),
        planted in any::<bool>(),
    ) {
        // Pad to the fixed 8-needle shape the way `IdSet::small_needles`
        // does: repeat the first id. Half the cases plant real hits so the
        // mask is not almost-always zero.
        let mut needles = [needle_pool[0]; 8];
        needles[..needle_pool.len()].copy_from_slice(&needle_pool);
        let mut vals = vals;
        if planted {
            for (i, v) in vals.iter_mut().enumerate() {
                if i % 3 == 0 {
                    *v = needles[i % 8];
                }
            }
        }
        let swar = simd::keep_mask_in8_swar(&vals, &needles);
        // Bit-level oracle: one linear probe per candidate.
        let mut want = 0u64;
        for (i, &v) in vals.iter().enumerate() {
            if needles.contains(&v) {
                want |= 1 << i;
            }
        }
        prop_assert_eq!(swar, want);
        // The dispatcher (AVX2/SSE2 on x86_64, SWAR elsewhere) must agree.
        prop_assert_eq!(simd::keep_mask_in8(&vals, &needles), want);
    }

    #[test]
    fn extend_range_in8_paths_agree(
        prefix in proptest::collection::vec(any::<u32>(), 0..8),
        vals in proptest::collection::vec(0u32..40, 0..300),
        lo_seed in any::<u64>(),
        hi_seed in any::<u64>(),
        needle_pool in proptest::collection::vec(0u32..40, 1..9),
    ) {
        // Sub-ranges of the value slice, including empty and inverted.
        let lo = lo_seed as usize % (vals.len() + 1);
        let hi = hi_seed as usize % (vals.len() + 1);
        let mut needles = [needle_pool[0]; 8];
        needles[..needle_pool.len()].copy_from_slice(&needle_pool);
        let mut scalar = prefix.clone();
        let mut blocks = prefix.clone();
        simd::extend_range_in8_scalar(&mut scalar, lo, hi, &vals, &needles);
        simd::extend_range_in8_blocks(&mut blocks, lo, hi, &vals, &needles);
        prop_assert_eq!(&scalar, &blocks);
        let mut auto = prefix.clone();
        simd::extend_range_in8(&mut auto, lo, hi, &vals, &needles);
        prop_assert_eq!(&scalar, &auto);
    }

    #[test]
    fn count_parts_paths_agree(
        parts_seed in proptest::collection::vec(any::<u32>(), 0..3000),
        n_parts in 1usize..300,
    ) {
        // Above 256 partitions (and below the length floor) the striped
        // kernel must fall back — parity holds either way.
        let parts: Vec<u32> = parts_seed.iter().map(|&p| p % n_parts as u32).collect();
        let mut scalar = vec![0u32; n_parts];
        let mut striped = vec![0u32; n_parts];
        simd::count_parts_scalar(&parts, &mut scalar);
        simd::count_parts_striped(&parts, &mut striped);
        prop_assert_eq!(&scalar, &striped);
        let mut auto = vec![0u32; n_parts];
        simd::count_parts(&parts, &mut auto);
        prop_assert_eq!(&scalar, &auto);
    }

    #[test]
    fn batched_mixers_match_scalar(
        xs in proptest::collection::vec(any::<u64>(), 8),
        ys in proptest::collection::vec((any::<u64>(), any::<u64>()), 8),
    ) {
        let xs: [u64; 8] = xs.try_into().unwrap();
        let ys: [u128; 8] = ys
            .into_iter()
            .map(|(hi, lo)| ((hi as u128) << 64) | lo as u128)
            .collect::<Vec<_>>()
            .try_into()
            .unwrap();
        prop_assert_eq!(mix64x8(xs), xs.map(mix64));
        prop_assert_eq!(mix128x8(ys), ys.map(mix128));
    }

    // ---- tier 2: dispatching consumers under force -----------------------

    #[test]
    fn hash_block_is_dispatch_invariant(
        keys64 in proptest::collection::vec(any::<u64>(), 0..100),
        keys128 in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..100),
    ) {
        let keys128: Vec<u128> = keys128
            .into_iter()
            .map(|(hi, lo)| ((hi as u128) << 64) | lo as u128)
            .collect();
        let _scope = force_scope();
        for mode in [false, true] {
            simd::force(Some(mode));
            let mut out = vec![0u64; keys64.len()];
            u64::hash_block(&keys64, &mut out);
            for (o, k) in out.iter().zip(&keys64) {
                prop_assert_eq!(*o, k.hash64(), "u64 path, vector={}", mode);
            }
            let mut out = vec![0u64; keys128.len()];
            u128::hash_block(&keys128, &mut out);
            for (o, k) in out.iter().zip(&keys128) {
                prop_assert_eq!(*o, k.hash64(), "u128 path, vector={}", mode);
            }
        }
    }

    #[test]
    fn blocked_probe_is_dispatch_invariant(
        build in proptest::collection::vec(0u64..50, 0..150),
        probe in proptest::collection::vec(0u64..50, 0..150),
    ) {
        let _scope = force_scope();
        // The build side as the executor numbers it: dense ids from a
        // `GroupIndex`, each id's build rows listed ascending.
        let mut index: GroupIndex<u64> = GroupIndex::with_capacity(build.len()).unwrap();
        let ids: Vec<u32> = build.iter().map(|&k| index.insert_or_get(k).unwrap()).collect();
        let lists = blend_parallel::radix_partition(&ids, index.len()).unwrap();
        // Oracle: every (probe, build) key equality, probe-major, build
        // ascending within a probe row — the executor's output contract.
        let mut want: Vec<(u32, u32)> = Vec::new();
        for (pi, pk) in probe.iter().enumerate() {
            for (bi, bk) in build.iter().enumerate() {
                if bk == pk {
                    want.push((pi as u32, bi as u32));
                }
            }
        }
        // The packed-key probe the executor runs: hash a PROBE_BLOCK of
        // keys, look each one up with `get_hashed` and walk its id's list
        // (the slot prefetches in between touch no result; `hashtable`'s
        // unit tests run them).
        for mode in [false, true] {
            simd::force(Some(mode));
            let mut got: Vec<(u32, u32)> = Vec::new();
            let mut hash_buf = [0u64; PROBE_BLOCK];
            for (blk, keys) in probe.chunks(PROBE_BLOCK).enumerate() {
                let hashes = &mut hash_buf[..keys.len()];
                u64::hash_block(keys, hashes);
                for (j, (&key, &hash)) in keys.iter().zip(hashes.iter()).enumerate() {
                    for &b in index.get_hashed(key, hash).map_or(&[][..], |id| lists.part(id as usize)) {
                        got.push(((blk * PROBE_BLOCK + j) as u32, b));
                    }
                }
            }
            prop_assert_eq!(&got, &want, "vector={}", mode);
        }
    }
}

// ---- tier 3: end-to-end SQL ------------------------------------------------

/// Deterministic fact rows (same construction as the parallel parity
/// suite): text key, numeric with quadrant bits, extra text per row.
fn fact_rows(n_tables: u32, rows_per: u32, vocab: u32, seed: u64) -> Vec<FactRow> {
    let mut rows = Vec::new();
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    for t in 0..n_tables {
        for r in 0..rows_per {
            let sk = ((t as u128) << 64) | ((next() as u128) & 0xFFFF_FFFF);
            rows.push(FactRow::new(
                &format!("w{}", next() % vocab as u64),
                t,
                0,
                r,
                sk,
                None,
            ));
            let num = next() % 100;
            rows.push(FactRow::new(&num.to_string(), t, 1, r, sk, Some(num >= 50)));
            rows.push(FactRow::new(
                &format!("w{}", next() % vocab as u64),
                t,
                2,
                r,
                sk,
                None,
            ));
        }
    }
    rows
}

/// SQL shapes covering each wired kernel: a selective scan with Superkey /
/// Quadrant projection (selection compaction + projection gathers), a
/// self-join (batched hashing + blocked probe), and a grouped aggregate
/// (blocked group upsert + radix counting).
fn sql_suite() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "scan-project",
            "SELECT TableId, ColumnId, RowId, Superkey, Quadrant FROM AllTables \
             WHERE RowId < 9 AND TableId < 4 ORDER BY TableId, ColumnId, RowId LIMIT 64",
        ),
        (
            "join",
            "SELECT q0.TableId AS t, q0.RowId AS r, q1.ColumnId AS c \
             FROM (SELECT * FROM AllTables WHERE CellValue IN ('w0','w1','w2')) q0 \
             INNER JOIN (SELECT * FROM AllTables WHERE RowId < 12) q1 \
             ON q0.TableId = q1.TableId AND q0.RowId = q1.RowId \
             ORDER BY t, r, c LIMIT 64",
        ),
        (
            "group",
            "SELECT TableId, ColumnId, COUNT(*) AS n, COUNT(DISTINCT CellValue) AS d \
             FROM AllTables GROUP BY TableId, ColumnId ORDER BY n DESC, TableId, ColumnId \
             LIMIT 64",
        ),
    ]
}

#[test]
fn sql_results_are_identical_across_dispatch_and_thread_counts() {
    let _scope = force_scope();
    let rows = fact_rows(5, 24, 6, 0xB1E5D);
    for kind in [EngineKind::Row, EngineKind::Column] {
        let fact = build_engine(kind, rows.clone());
        for (label, sql) in sql_suite() {
            // Reference: scalar dispatch, sequential execution.
            simd::force(Some(false));
            let reference = SqlEngine::with_alltables(fact.clone())
                .with_parallel(Arc::new(ParallelCtx::sequential()));
            let (want, _) = reference
                .execute_with_report(sql)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            for vector in [false, true] {
                simd::force(Some(vector));
                for threads in [1usize, 4, 8] {
                    let eng = SqlEngine::with_alltables(fact.clone())
                        .with_parallel(Arc::new(ParallelCtx::with_tuning(threads, 1, 5)));
                    let (got, _) = eng
                        .execute_with_report(sql)
                        .unwrap_or_else(|e| panic!("{label}/{threads}t: {e}"));
                    assert_eq!(
                        got, want,
                        "{kind:?}/{label}: vector={vector}/{threads}t diverged from scalar/seq"
                    );
                }
            }
        }
    }
}
