//! The result cache charges what the heap holds. A counting allocator
//! measures the bytes that stay live once a result is memoized — the shared
//! columns, their dictionaries, the stripped report, the key, the slot —
//! and the cache's own cost for the same entries has to agree within a
//! tenth, on the two result shapes the served workloads are made of: an SC
//! top-10 (a few dozen bytes of columns, so the bookkeeping decides) and a
//! 2-column × 10-row MC (thousands of joined rows, so the columns do).
//!
//! This binary holds one test: the allocator counts every thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

use blend::plan::Seeker;
use blend::seekers::{seeker_sql, TID_PLACEHOLDER};
use blend_parallel::{Interrupt, MemoryGovernor, ParallelCtx};
use blend_serve::{CacheKey, CachedResult, ResultCache};
use blend_sql::SqlEngine;
use blend_storage::{build_engine, EngineKind, FactRow};

struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// relaxed statistic beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// 60 tables × 40 rows of two text columns over a 12-word vocabulary: every
/// word pair meets in many rows, so an MC join is thousands of rows wide.
fn fact_rows() -> Vec<FactRow> {
    let mut rows = Vec::new();
    for t in 0..60u32 {
        for r in 0..40u32 {
            let sk = ((t as u128) << 64) | r as u128;
            rows.push(FactRow::new(
                &format!("w{}", (t + r) % 12),
                t,
                0,
                r,
                sk,
                None,
            ));
            rows.push(FactRow::new(
                &format!("w{}", (t * 7 + r * 5) % 12),
                t,
                1,
                r,
                sk,
                None,
            ));
        }
    }
    rows
}

/// `n` queries of one shape, each with a value no other has (and no table
/// holds), so each is an entry of its own.
fn shapes(n: usize) -> [(&'static str, Vec<String>); 2] {
    let w = |i: usize| format!("w{}", i % 12);
    let sql = |s: Seeker| seeker_sql(&s, 10, 64).replace(TID_PLACEHOLDER, "");
    let own = |v: usize| format!("only-{v}");
    let sc = (0..n).map(|v| sql(Seeker::sc((v..v + 5).map(w).chain([own(v)]).collect())));
    let mc = (0..n).map(|v| {
        let rows = (1..10).map(|r| vec![w(v + r), w(v + 2 * r + 1)]);
        sql(Seeker::mc(rows.chain([vec![own(v), w(v)]]).collect()))
    });
    [("sc top-10", sc.collect()), ("mc 2x10", mc.collect())]
}

/// Execute every query and memoize it, as `ServeQueue` does; returns the
/// rows memoized.
fn fill(engine: &SqlEngine, cache: &ResultCache, sqls: &[String]) -> usize {
    let mut rows = 0;
    for sql in sqls {
        let ast = blend_sql::parser::parse(sql).expect("seeker SQL parses");
        let key = CacheKey {
            fp: blend_sql::fingerprint_query(&ast),
            generation: engine.generation(),
        };
        let (columns, report) = engine
            .execute_parsed_interruptible(&ast, Interrupt::never())
            .expect("seeker SQL executes");
        rows += columns.len();
        cache.insert(key, Arc::new(CachedResult::new(columns, report)));
    }
    rows
}

#[test]
fn entry_cost_is_within_a_tenth_of_the_heap_it_holds() {
    const ENTRIES: usize = 48;
    let engine = SqlEngine::with_alltables(build_engine(EngineKind::Column, fact_rows()))
        .with_parallel(Arc::new(ParallelCtx::sequential()));
    let governor = Arc::new(MemoryGovernor::with_budget(1 << 30));
    for (shape, sqls) in shapes(ENTRIES) {
        // Once beforehand: whatever the first execution leaves behind for
        // good (metric cells, thread-locals) is not the cache's.
        let warm = ResultCache::with_governor(1 << 28, governor.clone());
        fill(&engine, &warm, &sqls);
        warm.purge_all();
        drop(warm);

        let cache = ResultCache::with_governor(1 << 28, governor.clone());
        let before = LIVE.load(Ordering::Relaxed);
        let rows = fill(&engine, &cache, &sqls);
        let held = (LIVE.load(Ordering::Relaxed) - before) as f64;
        let charged = cache.bytes() as f64;
        assert_eq!(cache.len(), ENTRIES, "{shape}: every spelling is an entry");
        assert!(rows >= ENTRIES, "{shape}: the results are not empty");
        assert!(
            (charged - held).abs() <= 0.1 * held,
            "{shape}: {ENTRIES} entries ({rows} rows) charged {charged} B, the heap holds {held} B"
        );
        println!("{shape}: {rows} rows, charged {charged} B, heap {held} B");

        cache.purge_all();
        assert_eq!(governor.reserved_bytes(), 0, "{shape}: charges drain");
    }
}
