//! The index build runs at the process context's width, which
//! `BLEND_THREADS` sets: at `1` the build runs on the calling thread (the
//! fork-join's own tests pin that no thread is spawned at width 1) and
//! builds the same index as a wider build. Its own test binary, so the
//! variable is set before the process context exists.

use std::sync::Arc;

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
    let rows = IndexBuilder::new().index_lake(&lake.tables);
    let fact = IndexBuilder::new().build(&lake.tables, EngineKind::Column);
    assert_eq!(fact.n_tables(), 12);
    let shared = ParallelCtx::shared_from_env();
    assert_eq!(shared.threads(), 1);
    assert_eq!(shared.admission().budget(), 0);
    let wide = IndexBuilder::new().with_parallel(Arc::new(ParallelCtx::new(4)));
    assert_eq!(
        rows,
        wide.index_lake(&lake.tables),
        "width changed the rows"
    );
}
