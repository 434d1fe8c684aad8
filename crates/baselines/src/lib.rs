//! The stand-alone discovery systems the paper compares BLEND against,
//! one module each: the comparison side of Tables III–VIII and Figs. 5–7.
//! Nothing in BLEND itself depends on this crate; its users are the
//! reproduction bins in `blend-bench`, `tests/baseline_parity.rs` and
//! `examples/union_search.rs`.
//!
//! [`josie`], [`mate`], [`qcr`], [`starmie`] and [`deepjoin`] are the
//! systems; [`embed`] (hashed column embeddings) and [`hnsw`] (the graph
//! index) are the retrieval stack the two semantic baselines share.

#![forbid(unsafe_code)]

pub mod deepjoin;
pub mod embed;
pub mod hnsw;
pub mod josie;
pub mod mate;
pub mod qcr;
pub mod starmie;
