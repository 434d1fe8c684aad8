//! # blend-obs — the unified observability layer
//!
//! Every layer of the BLEND reproduction — serving queue, admission
//! control, worker pool, SQL executors, plan executor, index builder —
//! reports into this one dependency-free crate. It provides three views
//! of the running system plus a logging facade, all built on `std` atomics
//! with no external crates (not even the vendored stubs), so it can sit
//! below everything else in the dependency graph:
//!
//! * **Metrics** ([`metrics`]) — a process-global registry of named
//!   [`Counter`]s, [`Gauge`]s, and log₂-bucketed latency [`Histogram`]s.
//!   The record path is lock-free (sharded atomics; no allocation, no
//!   mutex); locks exist only at registration and snapshot time.
//!   Snapshots export as Prometheus text ([`MetricsRegistry::render_prometheus`])
//!   or JSON ([`MetricsRegistry::render_json`]).
//! * **Spans** ([`span`](mod@span)) — RAII wall-clock spans
//!   (`obs::span("join.build")`) collected per thread into a tree while a
//!   trace is active. The SQL engine opens a trace per query; executors
//!   add phase spans with attributes (rows, partitions, hash-table shape).
//! * **Profiles** ([`profile`]) — the span tree of one query rendered as
//!   an `EXPLAIN ANALYZE`-style [`Profile`] that rides
//!   `QueryReport::profile`, with a human-readable tree printer.
//! * **Logging** ([`log`](mod@log)) — the `blend_obs::warn!` macro, one
//!   tagged line to stderr, replacing bare `eprintln!` diagnostics.
//!
//! ## Naming conventions
//!
//! Metric names are `snake_case`, prefixed with the owning subsystem:
//! `blend_serve_*`, `blend_admission_*`, `blend_pool_*`, `blend_sql_*`,
//! `blend_index_*`. Counters end in `_total`; durations are nanoseconds
//! and end in `_nanos`. Labels are rendered into the registered name
//! (`blend_sql_queries_total{path="positional"}`); the registry treats
//! the full rendered string as the key.
//!
//! ## Cardinality rules
//!
//! The registry is append-only for the life of the process, so labels
//! MUST come from small closed sets (executor path, outcome, phase name)
//! — never from user input, table names, or SQL text. Histograms take no
//! labels at all. Metrics are process-global: two `ServeQueue`s aggregate
//! into the same family, which is the intended fleet-level view.
//!
//! ## Overhead contract
//!
//! Instrumentation must never become the bottleneck it is meant to find:
//!
//! * Enabled is the default; [`set_enabled`] switches it at runtime.
//! * Disabled ([`set_enabled`]`(false)`): every record path is one
//!   relaxed atomic load and a branch; spans return an inert guard.
//! * Enabled: counters/histograms are one relaxed `fetch_add` on a
//!   thread-sharded cache line; spans cost two `Instant` reads and a
//!   `Vec` push, and are placed at *phase* granularity (per scan, join
//!   build, probe, group), never per row or per morsel.
//!
//! The repository's benchmark (`benchmark/`) measures both modes in its
//! traced run and reports the enabled/disabled ratio as
//! `obs.overhead_ratio`, so a regression in this contract shows up there
//! rather than silently taxing every query.

pub mod log;
pub mod metrics;
pub mod profile;
pub mod span;

pub use metrics::{
    registry, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, Snapshot,
};
pub use profile::{AttrValue, Profile, ProfileNode};
pub use span::{span, span_owned, trace_begin, SpanGuard, Trace};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether instrumentation (metrics + spans) records anything.
///
/// One relaxed atomic load — this is the whole disabled-mode cost.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn all instrumentation on or off at runtime.
///
/// Used by the bench harness to A/B the overhead contract; production
/// code leaves it enabled (the default).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enable_gate_round_trips() {
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
    }
}
