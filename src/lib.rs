//! Umbrella crate for the BLEND reproduction workspace.
//!
//! The root package exists to own the runnable examples (`/examples`) and
//! the cross-crate integration tests (`/tests`). It re-exports the crates
//! that make up BLEND itself — the discovery system (`blend`), its index,
//! storage, parallel and SIMD layers, and the lake generators — and the
//! SQL engine (`blend-sql`) that runs the seekers' SQL text on the served
//! path (`blend-serve`) and in the parity suites, so one `blend_repro::...`
//! path reaches all of them. Library users should depend on the individual
//! crates (`blend`, `blend-lake`, ...) directly.
//!
//! The systems the paper compares against (JOSIE, MATE, QCR, Starmie,
//! DeepJoin and their embedding/HNSW stack) are not part of BLEND and are
//! not re-exported: they live in `blend-baselines`, which only the
//! reproduction bins (`blend-bench`), `tests/baseline_parity.rs` and
//! `examples/union_search.rs` depend on.

#![forbid(unsafe_code)]

pub use blend;
pub use blend_common;
pub use blend_index;
pub use blend_lake;
pub use blend_parallel;
pub use blend_simd;
pub use blend_sql;
pub use blend_storage;
