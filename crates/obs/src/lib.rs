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
//!   or JSON ([`MetricsRegistry::render_json`]), and [`dump_if_enabled`]
//!   writes one to stderr when `BLEND_METRICS` is set.
//! * **Spans** ([`span`](mod@span)) — RAII wall-clock spans
//!   (`obs::span("join.build")`) collected per thread into a tree while a
//!   trace is active. The SQL engine opens a trace per query; executors
//!   add phase spans with attributes (rows, partitions, hash-table shape).
//! * **Profiles** ([`profile`]) — the span tree of one query rendered as
//!   an `EXPLAIN ANALYZE`-style [`Profile`] that rides
//!   `QueryReport::profile`, with a human-readable tree printer.
//! * **Logging** ([`log`](mod@log)) — `blend_obs::warn!`/`info!` macros,
//!   filtered by `BLEND_LOG` (`error|warn|info|debug`, default `warn`),
//!   replacing bare `eprintln!` diagnostics.
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
//!
//! ## Environment variables
//!
//! | Variable | Effect |
//! |---|---|
//! | `BLEND_METRICS` | unset/`0`/`off`: no dump. `json`: [`dump_if_enabled`] writes the JSON snapshot to stderr. Any other value: Prometheus text. |
//! | `BLEND_LOG` | Max log level for the facade: `error`, `warn` (default), `info`, `debug`, or `off`. |
//! | `BLEND_OBS` | `0`/`off` disables all instrumentation at startup (same as [`set_enabled`]`(false)`). |
//!
//! (`BLEND_THREADS`, `BLEND_MAX_CONCURRENT_GRANTS` are read by
//! `blend-parallel`.)

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
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(true);
static ENV_INIT: OnceLock<()> = OnceLock::new();

fn init_from_env() {
    ENV_INIT.get_or_init(|| {
        if let Ok(v) = std::env::var("BLEND_OBS") {
            let v = v.trim().to_ascii_lowercase();
            if v == "0" || v == "off" || v == "false" {
                ENABLED.store(false, Ordering::Relaxed);
            }
        }
    });
}

/// Whether instrumentation (metrics + spans) records anything.
///
/// One relaxed atomic load — this is the whole disabled-mode cost.
#[inline]
pub fn enabled() -> bool {
    init_from_env();
    ENABLED.load(Ordering::Relaxed)
}

/// Turn all instrumentation on or off at runtime.
///
/// Used by the bench harness to A/B the overhead contract; production
/// code leaves it enabled (the default).
pub fn set_enabled(on: bool) {
    init_from_env();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Dump a metrics snapshot to stderr if `BLEND_METRICS` asks for one.
///
/// `json` selects [`MetricsRegistry::render_json`]; any other non-off
/// value selects [`MetricsRegistry::render_prometheus`]. Called by the
/// bench harness mains after their workload completes; tests and
/// long-running servers can call it at any quiesce point.
pub fn dump_if_enabled() {
    let Ok(v) = std::env::var("BLEND_METRICS") else {
        return;
    };
    let v = v.trim().to_ascii_lowercase();
    if v.is_empty() || v == "0" || v == "off" || v == "false" {
        return;
    }
    let out = if v == "json" {
        registry().render_json()
    } else {
        registry().render_prometheus()
    };
    eprintln!("{out}");
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
