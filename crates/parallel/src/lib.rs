//! # blend-parallel — persistent pool, admission control, morsel execution
//!
//! BLEND's pitch is that every discovery task compiles to a handful of SQL
//! shapes over one fact table, which means one well-parallelized executor
//! speeds up *every* seeker at once — and discovery is an interactive,
//! many-users workload, so many of those queries are in flight at once.
//! This crate is the shared substrate for both facts: a **persistent
//! worker pool** serving every query in the process, an **admission
//! controller** rationing it, and the partitioning arithmetic the
//! executor, the index builder, and future scale work (sharding, async
//! serving, caching) all build on. Nothing here knows about SQL or
//! storage — consumers bring their own work items.
//!
//! ## The persistent pool
//!
//! Workers are long-lived OS threads parked on a shared injector queue
//! ([`WorkerPool`]). Each [`run`](WorkerPool::run) submits one batch, idle
//! workers claim helper slots on it, and the calling thread always serves
//! its own batch too — so a run can never deadlock on a busy pool, it just
//! degrades toward running inline. Tasks may borrow the caller's stack:
//! the batch is bridged to the workers through a scoped handoff (`run`
//! returns only after every participating worker has left the batch). A
//! panicking task poisons only its own `run` call — the panic propagates
//! to that caller after the batch drains, and the workers survive to serve
//! the next batch.
//!
//! Handles are cheap views: [`WorkerPool::shared`] points every engine in
//! the process at one global core, and [`WorkerPool::with_width`] narrows a
//! handle to an admitted width.
//!
//! ## Admission control
//!
//! With one pool serving N concurrent queries, the scarce resource is
//! worker time. [`Admission`] holds a machine-wide budget of helper-worker
//! tokens (`threads - 1` on the shared context); every parallel phase asks
//! [`ParallelCtx::admit`] for a [`PhaseGrant`] before fanning out and
//! releases it when the phase ends. Under load a phase
//! receives fewer workers than it wanted — down to `None`, the sequential
//! fallback on the query's own thread — so heavy traffic *degrades
//! gracefully* instead of oversubscribing: total thread pressure is
//! bounded by callers + budget at every instant. Grants are surfaced per
//! phase in `QueryReport::parallel` telemetry.
//!
//! ## Cancellation & deadlines
//!
//! Serving real users means queries must be *stoppable*. Every request can
//! carry an [`Interrupt`] — a [`CancellationToken`] plus a [`Deadline`] —
//! scoped onto the shared context via
//! [`ParallelCtx::with_interrupt`]. The protocol is cooperative and has
//! three kinds of check sites:
//!
//! 1. **Blocking waits** — [`Admission::acquire_within`] re-polls the
//!    interrupt while blocked on the token condvar, so a queued request
//!    returns a typed `Err(Timeout)`/`Err(Cancelled)` instead of sleeping
//!    past its budget.
//! 2. **Phase boundaries** — the SQL executors call
//!    [`ParallelCtx::check_interrupt`] before scan, join build, join
//!    probe, group, and global-agg phases, and the plan executor checks
//!    between seekers.
//! 3. **Inner loops** — sequential scan/probe/group loops check every few
//!    thousand rows; pool-run closures poll [`Interrupt::is_set`] per
//!    morsel / partition / chunk and bail early with a truncated partial.
//!
//! Pool tasks never unwind: a worker that observes the interrupt returns
//! whatever partial it has, and the **caller** re-checks right after the
//! run and discards *all* partials on `Err`. That is the no-partial-results
//! guarantee: a query either completes (byte-identical to sequential) or
//! surfaces exactly one typed `BlendError::{Cancelled, Timeout}` with no
//! output. `Interrupt::default()` never fires and costs one relaxed load
//! per poll, so non-serving callers are unaffected.
//!
//! ## Memory governance
//!
//! The same graceful-degradation posture applies to bytes: a process-wide
//! [`MemoryGovernor`] (`BLEND_MEMORY_BUDGET` from [`settings`], unset =
//! unbounded) hands out hierarchical RAII [`MemoryReservation`]s — query
//! scope
//! ([`QueryMemory`], threaded through [`ParallelCtx::with_query_memory`]
//! exactly like interrupts) → operator reservations at every
//! allocation-heavy site. On reservation failure the system walks a
//! four-rung ladder (reclaim registered pools → narrow the phase's worker
//! width → the sequential path → typed `BlendError::MemoryExceeded`),
//! never aborting and never leaving partial results; see the [`memory`]
//! module docs for the full protocol and its interaction with
//! cancellation.
//!
//! ## The morsel/merge model
//!
//! Work is split into **morsels**: small contiguous sub-ranges of ordered
//! input segments (a postings list, a table range, the whole position
//! space). Workers claim morsels *dynamically* from a shared atomic cursor,
//! so a skewed segment never serializes a phase behind one worker the way
//! static `i % threads` striping does. Each morsel produces a private,
//! ordered partial result; because morsels are contiguous and indexed, the
//! partials concatenate **in morsel order** into exactly the output a
//! sequential pass over the same segments would produce. That
//! order-preserving merge is the invariant the whole subsystem leans on:
//! parallel execution is byte-identical to sequential execution, at every
//! thread count *and under every admission grant*, which keeps results
//! reproducible under concurrency and lets a single parity suite guard
//! every phase.
//!
//! The same recipe covers the executor's three phases:
//!
//! * **Scan** — morsels over postings/ranges, per-morsel position lists,
//!   concatenated in morsel order.
//! * **Hash join** — the build side is [radix-partitioned](radix) by key
//!   hash so each worker builds a flat table over a *disjoint* key set (no
//!   merge step; per-key match lists stay ascending because partition
//!   scatter preserves input order); the probe side is chunked and emitted
//!   in chunk order.
//! * **GROUP BY** — rows are radix-partitioned by group-key hash so each
//!   worker owns its groups outright; per-group aggregate states see
//!   exactly the sequential update sequence, and sorting the finished
//!   groups by first-seen row reproduces the sequential output order.
//!
//! ## Components
//!
//! * [`WorkerPool`] — persistent shared worker pool (dedicated or global
//!   core) running `n` indexed tasks with dynamic claiming; returns results
//!   in task order plus per-worker busy times.
//! * [`Admission`] / [`AdmissionGrant`] — the machine-wide token budget and
//!   its RAII grant.
//! * [`ParallelCtx`] / [`PhaseGrant`] — the shared knob set (thread count,
//!   morsel length, sequential-fallback threshold, admission) handed down
//!   from plan execution to every phase. [`ParallelCtx::shared_from_env`]
//!   is the one context engines share, so exactly one pool exists per
//!   process.
//! * [`memory`] — [`MemoryGovernor`] / [`QueryMemory`] /
//!   [`MemoryReservation`], the byte budget and its RAII grants, plus
//!   [`reserve_laddered`] (the width-scaled degradation ladder).
//! * [`morsel`] — [`morselize`] (segment → morsel splitting),
//!   [`split_even`] (row-count-balanced contiguous ranges), and
//!   [`balanced_chunks`] (greedy LPT bin-packing for unequal work items,
//!   used by the index builder).
//! * [`radix`] — [`radix_partition`] (two-pass counting sort grouping
//!   items by partition id, ascending within each partition) and
//!   [`partition_count`] (the worker-count → radix-fanout policy), used by
//!   the executor's keyed phase and join CSRs.
//! * [`settings`] — `BLEND_THREADS` and `BLEND_MEMORY_BUDGET`, the only
//!   environment the workspace reads, parsed in one function.

pub mod admission;
pub mod cancel;
pub mod ctx;
pub mod memory;
pub mod morsel;
pub mod pool;
pub mod radix;
pub mod settings;

pub use admission::{Admission, AdmissionGrant};
pub use cancel::{CancellationToken, Deadline, Interrupt};
pub use ctx::{ParallelCtx, PhaseGrant};
pub use memory::{
    reserve_laddered, GovernorStats, LadderRung, MemoryGovernor, MemoryReclaimer,
    MemoryReservation, QueryMemory,
};
pub use morsel::{balanced_chunks, morselize, split_even, Morsel};
pub use pool::{PoolRun, WorkerPool};
pub use radix::{partition_count, radix_partition, radix_scratch_bytes, RadixPartitions};
pub use settings::{MEMORY_ENV, THREADS_ENV};
