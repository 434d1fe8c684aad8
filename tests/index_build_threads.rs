//! The index build runs on the process's pool, whose width `BLEND_THREADS`
//! sets: at `1`, the sequential fallback, a build spawns no worker. Its own
//! test binary, so the variable is set before any pool exists.

use blend_index::IndexBuilder;
use blend_lake::web::{generate, WebLakeConfig};
use blend_parallel::{ParallelCtx, THREADS_ENV};
use blend_storage::EngineKind;

#[test]
fn a_one_thread_process_builds_its_index_without_a_worker() {
    std::env::set_var(THREADS_ENV, "1");
    let lake = generate(&WebLakeConfig {
        name: "one-thread".into(),
        n_tables: 12,
        rows: (4, 10),
        cols: (2, 4),
        vocab: 30,
        zipf_s: 0.8,
        numeric_col_ratio: 0.3,
        null_ratio: 0.0,
        seed: 42,
    });
    let fact = IndexBuilder::new().build(&lake.tables, EngineKind::Column);
    assert_eq!(fact.n_tables(), 12);
    let shared = ParallelCtx::shared_from_env();
    assert_eq!(shared.threads(), 1);
    assert_eq!(shared.pool().live_workers(), 0, "the build grew the pool");
}
