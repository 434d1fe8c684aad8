//! Offline indexing (paper Fig. 2e): turning a data lake into `AllTables`
//! rows.
//!
//! Three structures are fused into the single fact table (paper Section V):
//!
//! 1. the DataXFormer-style **inverted index** — one row per non-null cell
//!    with its `(TableId, ColumnId, RowId)` location;
//! 2. MATE's **XASH super key** ([`xash`]) — a 128-bit bloom-style aggregate
//!    of each *row's* values, enabling multi-column alignment checks without
//!    touching the raw tables;
//! 3. the reformulated **QCR quadrant bit** ([`quadrant`]) — one boolean per
//!    numeric cell (`value >= column mean`), turning correlation estimation
//!    into SQL aggregation.
//!
//! [`builder::IndexBuilder`] runs the pipeline, optionally in parallel
//! (`blend_parallel::fork_join` at the context's width, over contiguous
//! table ranges of about equal cell count), coding each range's cells
//! against its own dictionary in the canonical order the stores keep
//! (`blend_storage::CodedPart`), and optionally with
//! *pre-shuffled row order* — the "BLEND (rand)" configuration of Table VII,
//! which converts the correlation seeker's `RowId < h` convenience sample
//! into a random sample.

#![forbid(unsafe_code)]

pub mod builder;
pub mod persist;
pub mod quadrant;
pub mod xash;

pub use builder::{IndexBuilder, IndexOptions};
pub use persist::{load_rows, save_rows};
pub use xash::{xash_value, Xash};
