//! Synthetic data lakes and benchmark workloads.
//!
//! The paper evaluates on ten real lakes (Table II) that are far beyond
//! laptop scale (DWTC alone: 145M tables). Per the reproduction plan
//! (DESIGN.md §4), this crate generates *structurally equivalent* seeded
//! lakes:
//!
//! * [`web`] — general web-table / Gittables-style lakes with Zipfian value
//!   skew, mixed numeric/categorical columns, and configurable scale. These
//!   drive the join-search runtime experiments (Fig. 5/6) and the optimizer
//!   study (Table IV).
//! * [`union_bench`] — SANTOS/TUS-style union-search benchmarks with planted
//!   unionable clusters and exact ground truth (Table VI, Fig. 7, and the
//!   negative-example task of Table III).
//! * [`corr_bench`] — NYC-open-data-style correlation benchmarks with
//!   planted correlations, in categorical-key and numeric-key variants, with
//!   exact Pearson ground truth (Table VII).
//! * [`workloads`] — query workload generators (single-column join queries
//!   by size, composite-key queries, keyword sets, imputation tasks)
//!   mirroring how the original papers sample queries from their lakes.
//! * [`ground_truth`] — brute-force oracles shared by the quality
//!   experiments.
//!
//! Everything is deterministic under a seed and a scale factor (`repro_all
//! --scale`).

pub mod corr_bench;
pub mod ground_truth;
pub mod lake;
pub mod union_bench;
pub mod web;
pub mod workloads;

pub use corr_bench::{CorrBenchConfig, CorrBenchmark, CorrQuery};
pub use lake::{DataLake, LakeStats};
pub use union_bench::{UnionBenchConfig, UnionBenchmark};
pub use web::WebLakeConfig;
