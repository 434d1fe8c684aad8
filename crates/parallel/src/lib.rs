//! # blend-parallel — execution context, admission, interrupts, memory
//!
//! Every query runs on its caller's thread: BLEND's speed comes from its
//! index and its operators, and a discovery service runs many queries at
//! once rather than one query across many threads. This crate holds what
//! each of those queries carries down to its operators, and the few things
//! the process shares between them. Nothing here knows about SQL or
//! storage.
//!
//! ## Components
//!
//! * [`ParallelCtx`] — the context handed from plan execution to every
//!   operator: the index build's thread width, the admission controller,
//!   the chunk length of the executor's loops ([`ParallelCtx::morsel_len`],
//!   one interrupt poll per chunk), the request's [`Interrupt`] and its
//!   [`QueryMemory`] scope. [`ParallelCtx::shared_from_env`] is the one
//!   context default-built engines and index builds share.
//! * [`fork_join`] — the one place work fans out over threads: a scoped
//!   fork-join at [`ParallelCtx::threads`] width that the index build runs
//!   its phases on. Tasks are claimed from a shared cursor, results come
//!   back in item order, and a panicking task re-raises in the caller.
//! * [`Admission`] / [`AdmissionGrant`] — a machine-wide token budget
//!   (`threads - 1` on the shared context). The serving tier holds one
//!   token per request for its whole execution
//!   ([`Admission::acquire_within`], which blocks until a token is free or
//!   the request's interrupt fires), so concurrent load queues instead of
//!   oversubscribing the machine.
//! * [`cancel`] — [`CancellationToken`], [`Deadline`] and the
//!   [`Interrupt`] pairing them, scoped onto a context per request with
//!   [`ParallelCtx::with_interrupt`].
//! * [`memory`] — [`MemoryGovernor`] / [`QueryMemory`] /
//!   [`MemoryReservation`], the byte budget and its RAII grants.
//! * [`settings`] — `BLEND_THREADS` and `BLEND_MEMORY_BUDGET`, the only
//!   environment the workspace reads, parsed in one function.
//!
//! ## Cancellation & deadlines
//!
//! Serving real users means queries must be *stoppable*. The protocol is
//! cooperative and has three kinds of check sites:
//!
//! 1. **Blocking waits** — [`Admission::acquire_within`] re-polls the
//!    interrupt while blocked on the token condvar, so a queued request
//!    returns a typed `Err(Timeout)`/`Err(Cancelled)` instead of sleeping
//!    past its budget.
//! 2. **Phase boundaries** — the SQL executors call
//!    [`ParallelCtx::check_interrupt`] before scan, join build, join
//!    probe, group, and global-agg phases, and the plan executor checks
//!    between seekers.
//! 3. **Inner loops** — scan, probe, group and expression loops check once
//!    per chunk of a few thousand rows.
//!
//! A check that fires returns the typed error through the operator's
//! `Result`, and every partial output is dropped on the way out. That is
//! the no-partial-results guarantee: a query either completes or surfaces
//! exactly one typed `BlendError::{Cancelled, Timeout}` with no output.
//! `Interrupt::default()` never fires and costs one relaxed load per poll,
//! so non-serving callers are unaffected.
//!
//! ## Memory governance
//!
//! A process-wide [`MemoryGovernor`] (`BLEND_MEMORY_BUDGET` from
//! [`settings`], unset = unbounded) hands out hierarchical RAII
//! [`MemoryReservation`]s — query scope ([`QueryMemory`], threaded through
//! [`ParallelCtx::with_query_memory`] exactly like interrupts) → operator
//! reservations at every allocation-heavy site. A failed reservation first
//! reclaims registered pools (the serving result cache), then resolves
//! typed as `BlendError::MemoryExceeded`, never aborting and never leaving
//! partial results; see the [`memory`] module docs.

#![forbid(unsafe_code)]

pub mod admission;
pub mod cancel;
pub mod ctx;
pub mod fork;
pub mod memory;
pub mod settings;

pub use admission::{Admission, AdmissionGrant};
pub use cancel::{CancellationToken, Deadline, Interrupt};
pub use ctx::ParallelCtx;
pub use fork::fork_join;
pub use memory::{GovernorStats, MemoryGovernor, MemoryReclaimer, MemoryReservation, QueryMemory};
pub use settings::{MEMORY_ENV, THREADS_ENV};
