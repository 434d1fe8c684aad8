//! A SQL subset engine over BLEND's `AllTables` fact table.
//!
//! The paper's central engineering claim is that every discovery operator
//! reduces to SQL over one fact table (Listings 1–3), letting a DBMS
//! optimize and execute the whole pipeline in-database. This crate plays the
//! DBMS role: it parses the exact SQL dialect those listings (and BLEND's
//! rewriter) emit and executes it against either storage engine.
//!
//! Supported surface:
//!
//! * `SELECT` lists with expressions and aliases, `*`
//! * `FROM` a catalog table, with alias, or the listings' subquery form
//!   `(SELECT * FROM t [WHERE …]) alias`, which the planner inlines into a
//!   scan of `t` (any other derived table is a planning error)
//! * `INNER JOIN ... ON` conjunctions of equalities (+ residual predicates)
//! * `WHERE` with `AND`/`OR`/`NOT`, comparisons, `IN (list)`,
//!   `IS [NOT] NULL`, arithmetic, `::int` casts
//! * `GROUP BY` expression lists with `COUNT(*)`, `COUNT(DISTINCT x)`,
//!   `SUM`, `MIN`, `MAX`, `AVG`
//! * `ORDER BY ... [ASC|DESC]` over select aliases or expressions
//!   (including aggregates), `LIMIT`
//! * scalar `ABS`
//!
//! The planner performs the in-DB optimization the paper leans on: it
//! inspects scan predicates, asks the storage engine's catalog for exact
//! cardinalities (postings lengths, table ranges), and picks the cheapest
//! access path — inverted-index scan, table-range scan, or sequential scan.
//! This is why BLEND's rewrites (`TableId IN (...)` injections) actually
//! speed queries up rather than just shrinking result sets.

pub mod ast;
pub mod columns;
pub mod engine;
pub mod exec;
pub mod exec_positional;
pub mod expr;
pub mod fingerprint;
pub mod hashtable;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod value;

pub use blend_obs::Profile as QueryProfile;
pub use columns::{ResultColumn, ResultColumns, TextColumn};
pub use engine::{Database, SqlEngine};
pub use exec::{HashTableStats, ParallelPhase, QueryReport, ResultSet, ScanReport, ServingStats};
pub use fingerprint::{fingerprint_query, fingerprint_sql, QueryFingerprint};
pub use hashtable::{GroupIndex, JoinKey};
pub use value::SqlValue;

pub use blend_parallel::ParallelCtx;

pub use blend_common::{BlendError, Result};
