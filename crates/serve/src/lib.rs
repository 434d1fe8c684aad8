//! # blend-serve — the resilient serving tier
//!
//! BLEND is an interactive discovery system: many users issue seeker
//! queries concurrently, and the paper's unified-SQL design funnels all of
//! them through one executor. The crates below this one make a single
//! query fast ([`blend_sql`]) and make concurrent queries share one worker
//! pool fairly ([`blend_parallel`]); this crate makes the *front door*
//! resilient. A [`ServeQueue`] accepts requests into a bounded queue,
//! sheds load when the bound is hit, enforces per-request deadlines,
//! supports cooperative cancellation, and survives injected faults — so an
//! overloaded or misbehaving workload degrades into typed errors instead
//! of unbounded queues, stuck clients, or dead serving threads.
//!
//! ## Request lifecycle
//!
//! 1. **Submit** ([`ServeQueue::submit`]) — non-blocking. If the queue
//!    holds `depth` requests the submission is *shed*:
//!    `Err(BlendError::Overloaded)` immediately, telling the caller to back
//!    off now rather than time out later. Accepted requests get a fresh
//!    [`CancellationToken`] plus the caller's [`Deadline`] — together an
//!    [`Interrupt`] — and a [`Ticket`].
//! 2. **Dequeue** — a serving thread pops the request. If its deadline
//!    expired or it was cancelled while queued, it resolves
//!    `Err(Timeout)`/`Err(Cancelled)` without executing. Otherwise the
//!    thread probes the **result cache** and the **in-flight group map**
//!    (see *Coalescing and the result cache* below); a request resolved
//!    there never reaches admission.
//! 3. **Admission** — the thread acquires **one** admission token as the
//!    request's execution slot via
//!    [`Admission::acquire_within`](blend_parallel::Admission::acquire_within),
//!    blocking *under the request's interrupt*: the wait re-polls
//!    cancellation and gives up at the deadline, so a request never sleeps
//!    past its budget waiting for capacity.
//! 4. **Execute** — the engine runs the SQL with the request's interrupt
//!    scoped onto the shared [`ParallelCtx`](blend_parallel::ParallelCtx)
//!    (`SqlEngine::execute_parsed_interruptible`) and returns flat columns
//!    ([`blend_sql::ResultColumns`]). Executors check at phase boundaries
//!    and inside morsel/partition loops; see below.
//! 5. **Resolve** — every accepted request resolves exactly once: with the
//!    execution's columns, shared (see *Results stay columnar*), or one
//!    typed `BlendError::{Timeout, Cancelled, Overloaded, ...}`. Requests
//!    still queued at shutdown resolve `Err(Cancelled)`. [`Ticket::wait`]
//!    returns the result as rows, which it builds on the caller's thread.
//!
//! Per-request telemetry rides the result: `QueryReport::serving` records
//! queue wait, execution time, and outcome
//! ([`ServingStats`](blend_sql::ServingStats)), and `QueryReport::profile`
//! carries the query's `EXPLAIN ANALYZE` span tree with queue-side
//! attributes (`queue_wait_nanos`, `outcome`) stamped onto its root.
//! [`ServeQueue::stats`] aggregates submitted/shed/ok/cache-hit/
//! coalesced-hit/timeout/cancelled/failed counters per queue, and the same
//! events feed the process-global [`blend_obs`] registry (`blend_serve_*`:
//! submission/outcome counters, a queue-depth gauge, queue-wait and
//! exec-time histograms; `blend_cache_*`: hit/miss/coalesced/eviction
//! counters and a resident-bytes gauge) for the fleet-level view — note
//! the metrics-level `blend_serve_submitted_total` counts *every*
//! submission attempt including shed ones, so `shed + ok + cache_hit +
//! coalesced_hit + timeout + cancelled + mem_exceeded + failed ==
//! submitted` holds there, while `ServeStats::submitted` counts accepted
//! requests only.
//!
//! ## Coalescing and the result cache
//!
//! Seeker workloads are template-heavy: many users re-issue the same few
//! discovery queries, differing only in spelling (literal order inside
//! `IN` lists, identifier case, whitespace). Both optimizations below key
//! on the **canonical fingerprint**
//! ([`blend_sql::fingerprint_sql`]): fingerprint-equal queries are
//! guaranteed byte-identical results by the engine, which is what makes
//! sharing results across them sound. Fingerprints are computed once at
//! submission; unparseable SQL simply opts out (the engine surfaces the
//! parse error as before).
//!
//! **Results stay columnar**: an execution's [`blend_sql::ResultColumns`]
//! are wrapped once in an `Arc<`[`CachedResult`]`>`, and that allocation is
//! what the cache stores, what every coalesced waiter receives and what the
//! requester's ticket resolves with — never copied. `SqlValue` rows exist
//! only in [`Ticket::wait`]; a serving thread builds none. ([`cache`]'s docs
//! have the entry, the detach rule and the cost formula.)
//!
//! **Result cache** ([`ResultCache`]): a sharded, CLOCK-evicted map from
//! [`CacheKey`] — fingerprint + engine catalog generation — to those shared
//! columns, bounded by a byte budget ([`ServeConfig::result_cache_bytes`],
//! default 32 MiB, `0` disables; an entry costs its columnar heap: flat
//! column bytes, each dictionary string once, labels, report,
//! bookkeeping).
//! *Invalidation contract*: rebuilding the
//! index or swapping the catalog
//! ([`SqlEngine::replace_table`](blend_sql::SqlEngine::replace_table),
//! `Blend::rebuild_from_lake`) advances the engine generation **after**
//! the swap; lookups key on the generation observed at dequeue, so a
//! post-rebuild request can never match — or be served — a pre-rebuild
//! entry, and each shard purges superseded generations the first time it
//! observes a newer one.
//!
//! **In-flight coalescing**: when a request's fingerprint matches an
//! execution that is *currently running* on another serving thread, it
//! attaches to that group as a waiter instead of executing — N
//! fingerprint-equal requests cost **one** admission grant and one
//! execution. The protocol:
//!
//! 1. The first request to find no group entry becomes the **leader**,
//!    registers the group, and executes normally under its own interrupt.
//! 2. Later fingerprint-equal requests append themselves to the group's
//!    waiter list under the same lock the leader's finalize takes, so
//!    attach/finalize can never race; their serving threads move straight
//!    on to other work.
//! 3. On success the leader memoizes the result, resolves its own ticket
//!    (`outcome: "ok"`), and resolves every waiter from the shared result
//!    (`outcome: "coalesced_hit"`) — re-checking each waiter's interrupt
//!    first, so deadlines and cancellations stay **per-waiter**.
//! 4. If the leader fails — cancelled, timed out, poisoned, or any
//!    execution error — its ticket resolves with its own typed error, and
//!    the earliest still-live waiter is **promoted** to re-execute under
//!    *its* interrupt. A dying leader never strands its group, and one
//!    request's cancellation never leaks into another's outcome.
//!
//! Cache hits and coalesced deliveries stamp `ServingStats::outcome`
//! (`"cache_hit"` / `"coalesced_hit"`) and carry a synthesized profile
//! root with `cache`/`queue_wait_nanos`/`rows`/`result_bytes` attributes
//! in place of the engine's span tree; fresh executions gain a `cache:
//! "miss"` root attribute. On every delivery the row build of
//! `Ticket::wait` is a `materialize` span under that root.
//!
//! ## The cancellation protocol (who checks, where)
//!
//! Cancellation is **cooperative**; nothing is killed. The serving tier
//! creates one [`Interrupt`] per request; every layer below polls it:
//!
//! * **Serving thread** — checks on dequeue (step 2) and blocks
//!   interruptibly in admission (step 3).
//! * **Plan executor** (`blend` core) — checks at every seeker boundary.
//! * **SQL executors** (`blend_sql`) — check before each phase (scan, join
//!   build/probe, group, global agg) and every few thousand rows inside
//!   sequential loops; parallel closures poll per morsel/partition/chunk
//!   and bail with truncated partials.
//! * **No-partial-results guarantee** — pool tasks never unwind; the
//!   *caller* re-checks the interrupt right after each parallel run and
//!   discards all partials on `Err`. A request therefore either completes
//!   byte-identically to a sequential run or returns exactly one typed
//!   error and no data.
//!
//! ## Memory pressure
//!
//! The engine's [`blend_parallel::MemoryGovernor`] bounds what queries may
//! allocate (the process-wide one, or a private one the engine's context
//! carries); the serving tier participates on three fronts:
//!
//! * **The result cache is a child pool of the budget.** Every admitted
//!   entry is charged against the governor (payload + per-entry
//!   overhead), every eviction/purge releases its charge, and the cache
//!   registers as the governor's [`blend_parallel::MemoryReclaimer`] —
//!   when a query's reservation fails, rung 1 of the degradation ladder
//!   evicts cached results to fund it. Under pressure a cache fill that
//!   the governor cannot fund is simply skipped.
//! * **Admission tightens during reclaim.** While a reclaim pass is in
//!   flight ([`blend_parallel::MemoryGovernor::reclaiming`]) `submit`
//!   halves the effective queue depth, so new work queues or sheds
//!   instead of piling onto a system that is actively giving bytes back.
//! * **`mem_exceeded` is a first-class outcome.** A request whose
//!   execution exhausts the ladder (narrowed parallelism → sequential →
//!   still over budget) resolves `Err(BlendError::MemoryExceeded)`,
//!   counted separately from generic failures in [`ServeStats`] and the
//!   `blend_serve_outcomes_total` family so the conservation identity
//!   above stays exact under memory storms.
//!
//! ## Fault injection
//!
//! [`faults::FaultPlan`] injects delays, cancellations, and poisoned
//! (panicking) requests at named serving sites, built in code or parsed
//! from a spec string. Serving threads wrap execution in `catch_unwind`, so
//! a poisoned request resolves its own ticket with `Err(SqlExec)` and the
//! thread lives on. An `alloc:fail[@every]` rule ([`SITE_ALLOC`]) arms the
//! memory governor with synthetic reservation failures instead of firing
//! at a pipeline site, so storms can prove every ladder rung fires without
//! a precisely tuned byte budget. The storm test drives 2× queue-depth
//! load through an undersized queue with faults enabled and asserts
//! liveness: no deadlock, every ticket resolves, deadline overshoot stays
//! bounded, and `Ok` results are byte-identical to sequential references.

pub mod cache;
pub mod faults;
pub mod queue;

pub use cache::{CacheKey, CachedResult, ResultCache, DEFAULT_CACHE_BYTES};
pub use faults::{
    FaultAction, FaultPlan, SITE_ALLOC, SITE_CACHE, SITE_COALESCE, SITE_DEQUEUE, SITE_EXEC,
};
pub use queue::{ServeConfig, ServeQueue, ServeStats, Ticket};

pub use blend_common::{BlendError, Result};
pub use blend_parallel::{CancellationToken, Deadline, Interrupt};
