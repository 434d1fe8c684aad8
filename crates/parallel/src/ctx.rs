//! The shared parallel-execution context handed down from plan execution.

use std::sync::{Arc, OnceLock};

use blend_common::Result;

use crate::admission::{Admission, AdmissionGrant, GRANTS_ENV};
use crate::cancel::Interrupt;
use crate::memory::{MemoryGovernor, QueryMemory};
use crate::pool::WorkerPool;

/// Environment variable overriding the worker thread count (`1` forces the
/// sequential fallback everywhere).
pub const THREADS_ENV: &str = "BLEND_THREADS";

/// Default minimum number of input items before a phase goes parallel.
/// Below this, fan-out bookkeeping dwarfs the work.
const DEFAULT_MIN_PARALLEL: usize = 4096;

/// Default morsel length (items per claimable work unit) for scans.
const DEFAULT_MORSEL_LEN: usize = 16 * 1024;

/// Shared parallel-execution configuration: a handle onto a worker pool,
/// the admission controller rationing that pool, and the thresholds that
/// decide when a phase is worth partitioning.
///
/// One `ParallelCtx` (behind an `Arc`) is attached to the SQL engine and
/// handed down from plan execution to every seeker query. Contexts built
/// from the environment ([`shared_from_env`](ParallelCtx::shared_from_env))
/// share the **process-global persistent pool and admission budget**, so
/// however many engines a process builds, heavy traffic draws from a single
/// machine-wide thread allotment. Explicitly-sized contexts
/// ([`new`](ParallelCtx::new), [`with_tuning`](ParallelCtx::with_tuning),
/// [`with_admission`](ParallelCtx::with_admission)) get a dedicated pool
/// and controller — the isolated mode tests rely on.
///
/// Every consumer must implement a sequential fallback:
/// [`admit`](ParallelCtx::admit) returns `None` when `threads == 1`, when
/// the input is below the morsel threshold, **or when the admission budget
/// is exhausted by other in-flight queries** — and the caller then runs its
/// ordinary single-threaded loop on its own thread.
#[derive(Debug, Clone)]
pub struct ParallelCtx {
    pool: WorkerPool,
    admission: Arc<Admission>,
    min_parallel: usize,
    morsel_len: usize,
    interrupt: Interrupt,
    /// Per-query memory scope. Contexts built by constructors share one
    /// scope on the global governor; the engine swaps in a fresh scope per
    /// query via [`with_query_memory`](ParallelCtx::with_query_memory).
    memory: Arc<QueryMemory>,
}

impl ParallelCtx {
    /// Context with a dedicated pool of the given thread budget and
    /// default tuning.
    pub fn new(threads: usize) -> Self {
        Self::with_tuning(threads, DEFAULT_MIN_PARALLEL, DEFAULT_MORSEL_LEN)
    }

    /// Context with a dedicated pool and explicit tuning (tests force tiny
    /// thresholds to exercise the parallel paths on small inputs). The
    /// admission budget defaults to the whole pool (`threads - 1` helper
    /// tokens).
    pub fn with_tuning(threads: usize, min_parallel: usize, morsel_len: usize) -> Self {
        let threads = threads.max(1);
        Self::with_admission(threads, min_parallel, morsel_len, threads - 1)
    }

    /// [`with_tuning`](ParallelCtx::with_tuning) with an explicit admission
    /// budget (the concurrency suite forces budgets smaller than the
    /// offered load to pin graceful degradation).
    pub fn with_admission(
        threads: usize,
        min_parallel: usize,
        morsel_len: usize,
        budget: usize,
    ) -> Self {
        ParallelCtx {
            pool: WorkerPool::new(threads),
            admission: Admission::new(budget),
            min_parallel: min_parallel.max(1),
            morsel_len: morsel_len.max(1),
            interrupt: Interrupt::never(),
            memory: Arc::new(QueryMemory::new(MemoryGovernor::global().clone())),
        }
    }

    /// Strictly sequential context (the `threads == 1` fallback).
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Context from the environment, backed by the **process-global**
    /// persistent pool: thread budget from `BLEND_THREADS` (clamped to at
    /// least 1) or the machine's available parallelism, admission budget
    /// from `BLEND_MAX_CONCURRENT_GRANTS` or `threads - 1`. Calling this
    /// many times never spawns more than one pool.
    ///
    /// The process-global **admission budget is fixed by the first call**
    /// (while the global pool itself grows to the widest handle that asks):
    /// set the environment variables before constructing any engine.
    /// Changing them mid-process affects new handles' thread *widths* but
    /// not the shared token budget — embedders that need a different
    /// budget per context should build isolated ones via
    /// [`with_admission`](ParallelCtx::with_admission).
    fn from_env() -> Self {
        let threads = env_usize(THREADS_ENV)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
            .max(1);
        let budget = env_usize(GRANTS_ENV).unwrap_or(threads - 1);
        ParallelCtx {
            pool: WorkerPool::shared(threads),
            admission: global_admission(budget),
            min_parallel: DEFAULT_MIN_PARALLEL,
            morsel_len: DEFAULT_MORSEL_LEN,
            interrupt: Interrupt::never(),
            memory: Arc::new(QueryMemory::new(MemoryGovernor::global().clone())),
        }
    }

    /// The one `Arc<ParallelCtx>` engines share: built from the
    /// environment on first use, then cloned. This is what makes "one pool
    /// per process" hold across every engine-construction site.
    pub fn shared_from_env() -> Arc<ParallelCtx> {
        static SHARED: OnceLock<Arc<ParallelCtx>> = OnceLock::new();
        SHARED
            .get_or_init(|| Arc::new(ParallelCtx::from_env()))
            .clone()
    }

    /// A per-request view of this context carrying the given interrupt: the
    /// same pool handle, admission bucket, and tuning, but every phase and
    /// loop run under it polls `interrupt`. This is how the serving tier
    /// scopes a deadline/cancel to one query without touching the shared
    /// context other requests execute under.
    pub fn with_interrupt(&self, interrupt: Interrupt) -> ParallelCtx {
        ParallelCtx {
            interrupt,
            ..self.clone()
        }
    }

    /// Rebind this context to a different memory governor (tests with
    /// private byte budgets — the env-configured global governor is
    /// process-wide). Engines derive each query's fresh scope from
    /// [`governor`](ParallelCtx::governor), so every query executed under
    /// the returned context charges `gov`.
    pub fn with_governor(&self, gov: Arc<MemoryGovernor>) -> ParallelCtx {
        self.with_query_memory(Arc::new(QueryMemory::new(gov)))
    }

    /// A per-query view of this context carrying a fresh memory scope:
    /// same pool, admission bucket, tuning, and interrupt, but
    /// reservations charge (and peak-track) under `memory`. The engine
    /// creates one scope per query so profile attrs and accounting are
    /// per-query, mirroring how `with_interrupt` scopes cancellation.
    pub fn with_query_memory(&self, memory: Arc<QueryMemory>) -> ParallelCtx {
        ParallelCtx {
            memory,
            ..self.clone()
        }
    }

    /// The interrupt this context executes under (never fires unless the
    /// context came from [`with_interrupt`](ParallelCtx::with_interrupt)).
    pub fn interrupt(&self) -> &Interrupt {
        &self.interrupt
    }

    /// The memory scope operators reserve through.
    pub fn memory(&self) -> &Arc<QueryMemory> {
        &self.memory
    }

    /// The governor this context's reservations charge.
    pub fn governor(&self) -> &Arc<MemoryGovernor> {
        self.memory.governor()
    }

    /// Phase-boundary checkpoint: `Err(Cancelled)` / `Err(Timeout)` once
    /// the request should stop, `Ok(())` otherwise.
    pub fn check_interrupt(&self) -> Result<()> {
        self.interrupt.check()
    }

    /// The worker pool handle (full width — phases should go through
    /// [`admit`](ParallelCtx::admit) instead to respect admission).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The admission controller this context draws grants from.
    pub fn admission(&self) -> &Arc<Admission> {
        &self.admission
    }

    /// The thread budget.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Target items per morsel.
    pub fn morsel_len(&self) -> usize {
        self.morsel_len
    }

    /// Should a phase over `n_items` even ask for workers? `false` means
    /// the caller must take its sequential path. This is the static half
    /// of the decision; [`admit`](ParallelCtx::admit) adds the dynamic
    /// admission half.
    pub fn should_parallelize(&self, n_items: usize) -> bool {
        self.threads() > 1 && n_items >= self.min_parallel
    }

    /// Ask the admission controller for workers to run a phase over
    /// `n_items`. Returns `None` — run sequentially — when the context is
    /// single-threaded, the input is below the parallel threshold, or no
    /// tokens are currently free (another query holds the budget). A
    /// returned grant holds `granted() - 1` budget tokens until dropped,
    /// and its [`pool`](PhaseGrant::pool) is the shared pool narrowed to
    /// exactly the granted width.
    pub fn admit(&self, n_items: usize) -> Option<PhaseGrant> {
        if !self.should_parallelize(n_items) {
            return None;
        }
        let grant = self.admission.try_acquire(self.threads() - 1);
        if grant.is_empty() {
            return None;
        }
        Some(PhaseGrant {
            pool: self.pool.with_width(grant.tokens() + 1),
            grant,
        })
    }
}

/// An admitted phase: a pool handle narrowed to the granted worker count,
/// plus the RAII token grant. Dropping it (at phase end) returns the
/// tokens to the machine-wide budget.
#[derive(Debug)]
pub struct PhaseGrant {
    pool: WorkerPool,
    grant: AdmissionGrant,
}

impl PhaseGrant {
    /// The pool handle to run the phase on (width = granted workers).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Total workers this phase may occupy, **including the calling
    /// thread** (i.e. helper tokens + 1). Partitioning arithmetic sizes
    /// itself from this, so a degraded grant produces fewer partitions.
    pub fn granted(&self) -> usize {
        self.grant.tokens() + 1
    }

    /// Narrow the phase to `width` total workers (rung 2 of the memory
    /// degradation ladder: smaller per-worker scratch). The grant keeps
    /// its admission tokens — over-holding is safe and the phase is
    /// already running — but the pool handle fans out to at most `width`.
    pub fn narrowed(self, width: usize) -> PhaseGrant {
        let width = width.clamp(1, self.granted());
        PhaseGrant {
            pool: self.pool.with_width(width),
            grant: self.grant,
        }
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
}

/// The process-global admission controller paired with the global pool.
/// Sized by its first user (see [`ParallelCtx::shared_from_env`]).
fn global_admission(budget: usize) -> Arc<Admission> {
    static GLOBAL: OnceLock<Arc<Admission>> = OnceLock::new();
    GLOBAL.get_or_init(|| Admission::new(budget)).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_ctx_never_parallelizes() {
        let ctx = ParallelCtx::sequential();
        assert_eq!(ctx.threads(), 1);
        assert!(!ctx.should_parallelize(usize::MAX));
        assert!(ctx.admit(usize::MAX).is_none());
    }

    #[test]
    fn threshold_gates_parallelism() {
        let ctx = ParallelCtx::with_tuning(4, 100, 10);
        assert!(!ctx.should_parallelize(99));
        assert!(ctx.should_parallelize(100));
        assert!(ctx.admit(99).is_none());
        assert_eq!(ctx.morsel_len(), 10);
        assert_eq!(ctx.threads(), 4);
    }

    #[test]
    fn tuning_clamps_zeroes() {
        let ctx = ParallelCtx::with_tuning(0, 0, 0);
        assert_eq!(ctx.threads(), 1);
        assert_eq!(ctx.morsel_len(), 1);
        assert!(!ctx.should_parallelize(1));
    }

    #[test]
    fn admit_grants_full_width_when_uncontended() {
        let ctx = ParallelCtx::with_tuning(4, 1, 1);
        let g = ctx.admit(100).expect("tokens free");
        assert_eq!(g.granted(), 4);
        assert_eq!(g.pool().threads(), 4);
        assert_eq!(ctx.admission().available(), 0);
        drop(g);
        assert_eq!(ctx.admission().available(), 3);
    }

    #[test]
    fn admit_degrades_under_contention() {
        let ctx = ParallelCtx::with_admission(4, 1, 1, 2);
        let first = ctx.admit(100).expect("budget free");
        assert_eq!(first.granted(), 3, "2 tokens + the caller");
        // Budget exhausted: a concurrent phase falls back to sequential.
        assert!(ctx.admit(100).is_none());
        drop(first);
        let after = ctx.admit(100).expect("tokens returned");
        assert_eq!(after.granted(), 3);
    }

    #[test]
    fn clones_share_the_admission_budget() {
        let ctx = ParallelCtx::with_admission(4, 1, 1, 1);
        let peer = ctx.clone();
        let g = ctx.admit(10).expect("token free");
        assert!(peer.admit(10).is_none(), "clone draws from the same bucket");
        drop(g);
        assert!(peer.admit(10).is_some());
    }

    #[test]
    fn with_interrupt_scopes_to_one_view() {
        use crate::cancel::{CancellationToken, Deadline, Interrupt};
        let ctx = ParallelCtx::with_tuning(2, 1, 1);
        let token = CancellationToken::new();
        let scoped = ctx.with_interrupt(Interrupt::new(token.clone(), Deadline::none()));
        assert!(scoped.check_interrupt().is_ok());
        token.cancel();
        assert!(scoped.check_interrupt().is_err());
        // The originating context is untouched — other requests keep going.
        assert!(ctx.check_interrupt().is_ok());
        // Shared plumbing is the same pool + bucket.
        assert!(Arc::ptr_eq(ctx.admission(), scoped.admission()));
        assert_eq!(ctx.threads(), scoped.threads());
    }

    #[test]
    fn env_contexts_share_one_pool() {
        let a = ParallelCtx::from_env();
        let b = ParallelCtx::from_env();
        // Same process-global core and admission bucket: constructing more
        // contexts never spawns more workers.
        assert_eq!(a.pool().live_workers(), b.pool().live_workers());
        assert!(Arc::ptr_eq(a.admission(), b.admission()));
        assert!(Arc::ptr_eq(
            ParallelCtx::shared_from_env().admission(),
            a.admission()
        ));
    }
}
