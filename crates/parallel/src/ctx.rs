//! The shared execution context handed down from plan execution.

use std::sync::{Arc, OnceLock};

use blend_common::Result;

use crate::admission::Admission;
use crate::cancel::Interrupt;
use crate::memory::{MemoryGovernor, QueryMemory};
use crate::settings;

/// Default chunk length (items per interrupt poll) of the executor's
/// sequential loops.
const DEFAULT_MORSEL_LEN: usize = 16 * 1024;

/// Shared execution configuration: the index build's thread width, the
/// admission budget the serving tier draws one execution slot per request
/// from, the chunk length of the executor's loops, and the interrupt and
/// memory scope a query runs under.
///
/// One `ParallelCtx` (behind an `Arc`) is attached to the SQL engine and
/// handed down from plan execution to every operator. Every query runs on
/// its caller's thread; only the index build forks, at
/// [`threads`](ParallelCtx::threads) width ([`fork_join`](crate::fork_join)).
/// Contexts built from the environment
/// ([`shared_from_env`](ParallelCtx::shared_from_env)) share the
/// **process-global admission budget**, so however many engines a process
/// builds, concurrent requests draw from one machine-wide allotment.
/// Explicitly sized contexts ([`new`](ParallelCtx::new),
/// [`with_tuning`](ParallelCtx::with_tuning),
/// [`with_admission`](ParallelCtx::with_admission)) get a controller of
/// their own: the isolated mode tests rely on.
#[derive(Debug, Clone)]
pub struct ParallelCtx {
    threads: usize,
    admission: Arc<Admission>,
    morsel_len: usize,
    interrupt: Interrupt,
    /// Per-query memory scope. Contexts built by constructors share one
    /// scope on the global governor; the engine swaps in a fresh scope per
    /// query via [`with_query_memory`](ParallelCtx::with_query_memory).
    memory: Arc<QueryMemory>,
}

impl ParallelCtx {
    /// Context of the given thread width and the default chunk length.
    pub fn new(threads: usize) -> Self {
        Self::with_tuning(threads, DEFAULT_MORSEL_LEN)
    }

    /// Context with an explicit chunk length (tests force tiny chunks so
    /// small inputs still cross chunk boundaries). The admission budget
    /// defaults to `threads - 1` tokens.
    pub fn with_tuning(threads: usize, morsel_len: usize) -> Self {
        let threads = threads.max(1);
        Self::with_admission(threads, morsel_len, threads - 1)
    }

    /// [`with_tuning`](ParallelCtx::with_tuning) with an explicit admission
    /// budget (the concurrency suites force budgets smaller than the
    /// offered load).
    pub fn with_admission(threads: usize, morsel_len: usize, budget: usize) -> Self {
        ParallelCtx {
            threads: threads.max(1),
            admission: Admission::new(budget),
            morsel_len: morsel_len.max(1),
            interrupt: Interrupt::never(),
            memory: Arc::new(QueryMemory::new(MemoryGovernor::global().clone())),
        }
    }

    /// Strictly sequential context: width 1, no admission tokens.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Context from the environment: thread width from `BLEND_THREADS`
    /// (see [`settings`], read once per process) and the **process-global**
    /// admission budget of `threads - 1` tokens. Embedders that need a
    /// different budget build isolated contexts via
    /// [`with_admission`](ParallelCtx::with_admission).
    fn from_env() -> Self {
        let (threads, _) = settings::from_env();
        ParallelCtx {
            threads,
            admission: global_admission(threads - 1),
            morsel_len: DEFAULT_MORSEL_LEN,
            interrupt: Interrupt::never(),
            memory: Arc::new(QueryMemory::new(MemoryGovernor::global().clone())),
        }
    }

    /// The one `Arc<ParallelCtx>` engines share: built from the
    /// environment on first use, then cloned, so every engine-construction
    /// site draws from one admission budget.
    pub fn shared_from_env() -> Arc<ParallelCtx> {
        static SHARED: OnceLock<Arc<ParallelCtx>> = OnceLock::new();
        SHARED
            .get_or_init(|| Arc::new(ParallelCtx::from_env()))
            .clone()
    }

    /// A per-request view of this context carrying the given interrupt: the
    /// same admission bucket and tuning, but every phase and loop run under
    /// it polls `interrupt`. This is how the serving tier scopes a
    /// deadline/cancel to one query without touching the shared context
    /// other requests execute under.
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
    /// same admission bucket, tuning, and interrupt, but reservations
    /// charge (and peak-track) under `memory`. The engine creates one scope
    /// per query so profile attrs and accounting are per-query, mirroring
    /// how `with_interrupt` scopes cancellation.
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

    /// The admission controller the serving tier draws execution slots
    /// from.
    pub fn admission(&self) -> &Arc<Admission> {
        &self.admission
    }

    /// The thread width of the index build's fork-join.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Items per chunk of the executor's sequential loops: each chunk
    /// polls the interrupt once.
    pub fn morsel_len(&self) -> usize {
        self.morsel_len
    }
}

/// The process-global admission controller. Sized by its first user (see
/// [`ParallelCtx::shared_from_env`]).
fn global_admission(budget: usize) -> Arc<Admission> {
    static GLOBAL: OnceLock<Arc<Admission>> = OnceLock::new();
    GLOBAL.get_or_init(|| Admission::new(budget)).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_ctx_is_one_thread_wide_with_no_tokens() {
        let ctx = ParallelCtx::sequential();
        assert_eq!(ctx.threads(), 1);
        assert_eq!(ctx.admission().budget(), 0);
    }

    #[test]
    fn tuning_sets_width_chunk_and_budget() {
        let ctx = ParallelCtx::with_tuning(4, 10);
        assert_eq!(ctx.morsel_len(), 10);
        assert_eq!(ctx.threads(), 4);
        assert_eq!(ctx.admission().budget(), 3);
        let ctx = ParallelCtx::with_admission(4, 10, 1);
        assert_eq!(ctx.admission().budget(), 1);
    }

    #[test]
    fn tuning_clamps_zeroes() {
        let ctx = ParallelCtx::with_tuning(0, 0);
        assert_eq!(ctx.threads(), 1);
        assert_eq!(ctx.morsel_len(), 1);
        assert_eq!(ctx.admission().budget(), 0);
    }

    #[test]
    fn clones_share_the_admission_budget() {
        let ctx = ParallelCtx::with_admission(4, 1, 1);
        let peer = ctx.clone();
        let g = ctx
            .admission()
            .acquire_within(1, &Interrupt::never())
            .unwrap();
        assert_eq!(g.tokens(), 1);
        assert_eq!(
            peer.admission().available(),
            0,
            "clone draws from the same bucket"
        );
        drop(g);
        assert_eq!(peer.admission().available(), 1);
    }

    #[test]
    fn with_interrupt_scopes_to_one_view() {
        use crate::cancel::{CancellationToken, Deadline, Interrupt};
        let ctx = ParallelCtx::with_tuning(2, 1);
        let token = CancellationToken::new();
        let scoped = ctx.with_interrupt(Interrupt::new(token.clone(), Deadline::none()));
        assert!(scoped.check_interrupt().is_ok());
        token.cancel();
        assert!(scoped.check_interrupt().is_err());
        // The originating context is untouched — other requests keep going.
        assert!(ctx.check_interrupt().is_ok());
        // Shared plumbing is the same bucket and width.
        assert!(Arc::ptr_eq(ctx.admission(), scoped.admission()));
        assert_eq!(ctx.threads(), scoped.threads());
    }

    #[test]
    fn env_contexts_share_one_admission_budget() {
        let a = ParallelCtx::from_env();
        let b = ParallelCtx::from_env();
        assert_eq!(a.threads(), b.threads());
        assert!(Arc::ptr_eq(a.admission(), b.admission()));
        assert!(Arc::ptr_eq(
            ParallelCtx::shared_from_env().admission(),
            a.admission()
        ));
    }
}
