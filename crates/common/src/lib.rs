//! Shared foundations for the BLEND data-discovery reproduction.
//!
//! This crate contains the pieces every other crate in the workspace builds
//! on:
//!
//! * [`value`] — the dynamically typed cell [`value::Value`] stored in lake
//!   tables, plus parsing and normalization rules shared by the indexer and
//!   the SQL engine.
//! * [`table`] — in-memory relational tables ([`table::Table`],
//!   [`table::Column`]) and the identifier newtypes (`TableId`, `ColumnId`,
//!   `RowId`) that appear in the unified `AllTables` index.
//! * [`hash`] — an FxHash-style fast hasher and hash-map/set aliases used on
//!   hot paths (the guide-recommended replacement for SipHash).
//! * [`text`] — cell normalization and tokenization.
//! * [`stats`] — means, Pearson correlation, ordinary least squares (used by
//!   BLEND's learned cost model) and ranking metrics (P@k, recall, MAP).
//! * [`topk`] — a small bounded max-/min-heap for top-k selection.
//! * [`zipf`] — a seeded Zipf sampler for the synthetic lake generators.
//! * [`error`] — the shared [`error::BlendError`] type.

#![forbid(unsafe_code)]

pub mod alloc;
pub mod error;
pub mod hash;
pub mod stats;
pub mod table;
pub mod text;
pub mod topk;
pub mod value;
pub mod zipf;

pub use alloc::{try_reserve, try_reserve_exact, try_vec_with_capacity, try_zeroed_vec};
pub use error::{BlendError, Result};
pub use hash::{mix128, mix64, FxHashMap, FxHashSet, FxHasher};
pub use table::{Column, ColumnId, ColumnType, RowId, Table, TableId};
pub use value::Value;
