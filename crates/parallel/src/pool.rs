//! The persistent worker pool.
//!
//! Workers are **long-lived OS threads** parked on a shared injector queue:
//! a [`WorkerPool`] handle submits one *batch* per [`run`](WorkerPool::run)
//! call, idle workers claim helper slots on it, and the calling thread
//! always participates as a worker of its own batch. Because the caller
//! makes progress regardless of how busy the pool is, a `run` can never
//! deadlock waiting for workers — under load it simply degrades toward
//! running inline on the caller.
//!
//! Tasks may borrow from the caller's stack (fact tables, compiled
//! expressions, position batches): the batch is bridged to the long-lived
//! workers through a lifetime-erased job pointer, and `run` does not return
//! until every worker that touched the batch has left it (a scoped handoff
//! — see the safety notes on `JobRef`).
//!
//! Inside a batch, workers claim task indices dynamically from a shared
//! atomic cursor — morsel-driven scheduling — so unequal task costs balance
//! themselves instead of serializing behind the unluckiest worker, and
//! results come back in task order.

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Lock a mutex, recovering from poisoning (a panicking task is contained
/// by `catch_unwind` before any pool lock is taken, but recovery keeps the
/// pool serviceable even if that invariant is ever violated). Shared with
/// the admission controller.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Pool-wide metric cells (`blend_pool_*`), resolved once. Process-global
/// on purpose: every core aggregates into one fleet-level family.
struct PoolMetrics {
    /// Total busy wall nanos across all participating workers (callers
    /// included), summed per batch.
    busy_nanos: std::sync::Arc<blend_obs::Counter>,
    /// Tasks executed across all batches.
    tasks: std::sync::Arc<blend_obs::Counter>,
    /// Batches submitted through `run`/`run_with`.
    batches: std::sync::Arc<blend_obs::Counter>,
    /// Time a queued batch waited before a pool worker first entered it.
    queue_residency: std::sync::Arc<blend_obs::Histogram>,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = blend_obs::registry();
        PoolMetrics {
            busy_nanos: r.counter("blend_pool_busy_nanos_total"),
            tasks: r.counter("blend_pool_tasks_total"),
            batches: r.counter("blend_pool_batches_total"),
            queue_residency: r.histogram("blend_pool_queue_residency_nanos"),
        }
    })
}

/// Result of one [`WorkerPool::run`] call.
#[derive(Debug)]
pub struct PoolRun<T> {
    /// Per-task results, in task order (independent of which worker ran
    /// which task).
    pub results: Vec<T>,
    /// Busy wall-clock time per participating worker, in nanoseconds.
    /// Length is the number of workers that actually served the batch —
    /// the caller plus every pool worker that claimed a helper slot (1 on
    /// the sequential path).
    pub worker_nanos: Vec<u64>,
}

// ---- type-erased batch handoff ---------------------------------------------

/// One in-flight batch, type-erased for the injector queue.
///
/// Implementors must tolerate `execute` being called concurrently from
/// several threads (each call serves one worker slot) and must **never
/// unwind** out of `execute`.
trait Job: Sync {
    /// Does the batch still have unclaimed tasks? Called under the
    /// injector lock; a drained (or poisoned) batch is unlinked from the
    /// queue instead of entered, so a worker never claims a slot it would
    /// immediately abandon.
    fn has_work(&self) -> bool;
    /// A worker claimed a helper slot. Called under the injector lock, so
    /// the submitting thread can read a final count after unlinking the
    /// batch from the queue.
    fn enter(&self);
    /// Serve one worker slot: claim tasks until the batch is exhausted,
    /// then signal the submitter.
    fn execute(&self);
}

/// Lifetime-erased pointer to a stack-allocated batch.
///
/// # Safety
///
/// The pointee lives on the submitting caller's stack inside
/// `run_persistent`, which upholds the handoff contract:
///
/// * the batch is enqueued at most once, and `run_persistent` does not
///   return before (a) the batch is unlinked from the injector queue and
///   (b) every worker that `enter`ed it has finished `execute` — so the
///   pointer is never dereferenced after the frame dies;
/// * workers only obtain the pointer from the queue while holding the
///   injector lock, and `enter` is called under that same lock, so the
///   unlink step observes a final `enter` count.
#[derive(Clone, Copy)]
struct JobRef(*const (dyn Job + 'static));

// SAFETY: the pointee is Sync (Job: Sync) and outlives every dereference
// per the handoff contract above.
unsafe impl Send for JobRef {}

impl JobRef {
    /// Erase the lifetime of a borrowed job. Caller must uphold the
    /// [`JobRef`] handoff contract.
    unsafe fn erase<'a>(job: &'a (dyn Job + 'a)) -> JobRef {
        JobRef(std::mem::transmute::<
            *const (dyn Job + 'a),
            *const (dyn Job + 'static),
        >(job as *const _))
    }

    fn same(&self, other: &JobRef) -> bool {
        std::ptr::eq(self.0 as *const (), other.0 as *const ())
    }
}

/// A queued batch plus the number of helper slots still unclaimed.
struct QueuedJob {
    job: JobRef,
    slots: usize,
    /// When the batch was enqueued; feeds the queue-residency histogram
    /// the first time a pool worker enters it.
    submitted: Instant,
    entered_once: bool,
}

// ---- the shared injector and its workers -----------------------------------

struct InjectorState {
    queue: VecDeque<QueuedJob>,
    shutdown: bool,
    spawned: usize,
}

/// State shared between pool handles and worker threads. Workers hold only
/// this (not [`PoolCore`]), so dropping the last core handle can join them.
struct Injector {
    state: Mutex<InjectorState>,
    /// Signalled when work arrives or shutdown begins.
    work: Condvar,
    /// Live worker count — incremented before each spawn, decremented when
    /// a worker exits (lifecycle tests assert this reaches zero on drop).
    live: Arc<AtomicUsize>,
}

fn worker_loop(inj: Arc<Injector>) {
    /// Decrements `live` even if the loop exits abnormally.
    struct LiveGuard(Arc<AtomicUsize>);
    impl Drop for LiveGuard {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }
    let _guard = LiveGuard(inj.live.clone());

    loop {
        let job = {
            let mut st = lock_clean(&inj.state);
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(q) = st.queue.front_mut() {
                    let job = q.job;
                    // SAFETY (both dereferences): the job is still linked
                    // in the queue, so the submitter is inside
                    // `run_persistent` and the pointee is alive; `enter`
                    // under the lock makes this worker visible to the
                    // submitter's unlink step.
                    if !unsafe { (*job.0).has_work() } {
                        // Drained or poisoned batch: unlink it instead of
                        // entering, so a worker returning from this very
                        // batch cannot re-claim a slot just to find the
                        // cursor exhausted (which would double-count it in
                        // the batch's worker telemetry).
                        st.queue.pop_front();
                        continue;
                    }
                    q.slots -= 1;
                    if !q.entered_once {
                        q.entered_once = true;
                        pool_metrics()
                            .queue_residency
                            .record(q.submitted.elapsed().as_nanos() as u64);
                    }
                    unsafe { (*job.0).enter() };
                    if q.slots == 0 {
                        st.queue.pop_front();
                    }
                    break job;
                }
                st = inj.work.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        // SAFETY: this worker `enter`ed the batch above, so the submitter
        // will not return (and the pointee will not die) until `execute`
        // finishes. `execute` never unwinds, so the worker survives
        // panicking tasks and returns to the queue.
        unsafe { (*job.0).execute() };
    }
}

/// The persistent core behind one or more [`WorkerPool`] handles: worker
/// threads plus the injector they serve. Dropping the last handle shuts the
/// workers down and joins them (no leaked threads).
struct PoolCore {
    inj: Arc<Injector>,
    /// Whether `submit` may spawn additional workers on demand (the
    /// process-global core grows to the widest handle that uses it;
    /// dedicated cores are fixed at construction).
    growable: bool,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl PoolCore {
    fn new(workers: usize, growable: bool) -> Arc<PoolCore> {
        let inj = Arc::new(Injector {
            state: Mutex::new(InjectorState {
                queue: VecDeque::new(),
                shutdown: false,
                spawned: 0,
            }),
            work: Condvar::new(),
            live: Arc::new(AtomicUsize::new(0)),
        });
        let core = Arc::new(PoolCore {
            inj,
            growable,
            handles: Mutex::new(Vec::new()),
        });
        if workers > 0 {
            let mut st = lock_clean(&core.inj.state);
            let mut handles = lock_clean(&core.handles);
            core.spawn_locked(&mut st, &mut handles, workers);
        }
        core
    }

    /// Spawn workers up to `target` total. Both locks held by the caller
    /// (lock order: state, then handles).
    fn spawn_locked(
        &self,
        st: &mut InjectorState,
        handles: &mut Vec<JoinHandle<()>>,
        target: usize,
    ) {
        while st.spawned < target {
            let inj = self.inj.clone();
            inj.live.fetch_add(1, Ordering::SeqCst);
            let handle = std::thread::Builder::new()
                .name(format!("blend-worker-{}", st.spawned))
                .spawn(move || worker_loop(inj));
            match handle {
                Ok(h) => {
                    st.spawned += 1;
                    handles.push(h);
                }
                Err(_) => {
                    // Spawn failure (resource exhaustion): undo the live
                    // count and stop growing — the caller thread still
                    // serves every batch, so correctness is unaffected.
                    self.inj.live.fetch_sub(1, Ordering::SeqCst);
                    break;
                }
            }
        }
    }

    /// Enqueue a batch offering `slots` helper slots.
    fn submit(&self, job: JobRef, slots: usize) {
        {
            let mut st = lock_clean(&self.inj.state);
            if self.growable && st.spawned < slots {
                let mut handles = lock_clean(&self.handles);
                self.spawn_locked(&mut st, &mut handles, slots);
            }
            st.queue.push_back(QueuedJob {
                job,
                slots,
                submitted: Instant::now(),
                entered_once: false,
            });
        }
        self.inj.work.notify_all();
    }

    /// Unlink a batch from the queue (releasing unclaimed helper slots).
    /// After this returns, no further worker can `enter` the batch.
    fn retire(&self, job: JobRef) {
        let mut st = lock_clean(&self.inj.state);
        st.queue.retain(|q| !q.job.same(&job));
    }

    fn live_workers(&self) -> usize {
        self.inj.live.load(Ordering::SeqCst)
    }
}

impl Drop for PoolCore {
    fn drop(&mut self) {
        {
            let mut st = lock_clean(&self.inj.state);
            st.shutdown = true;
            // A non-empty queue here means a batch outlived its run call.
            // That is a bug worth failing loudly on under test, but a
            // panic inside Drop during unwind (e.g. after a poisoned
            // worker already propagated a panic) escalates to an abort —
            // so release builds log and carry on with shutdown instead.
            if !st.queue.is_empty() {
                if cfg!(debug_assertions) && !std::thread::panicking() {
                    panic!("batch outlived its run call");
                }
                blend_obs::warn!("{} batch(es) still queued at pool shutdown", st.queue.len());
            }
        }
        self.inj.work.notify_all();
        for h in lock_clean(&self.handles).drain(..) {
            let _ = h.join();
        }
        // Same degrade for the live counter: every joined worker should
        // have decremented it on exit; a stale count after joining all
        // handles indicates a worker died without unwinding its epilogue.
        let live = self.inj.live.load(Ordering::SeqCst);
        if live != 0 {
            if cfg!(debug_assertions) && !std::thread::panicking() {
                panic!("{live} worker(s) still counted live after shutdown join");
            }
            blend_obs::warn!("{live} worker(s) still counted live after shutdown join");
        }
    }
}

/// The process-global core shared by every [`WorkerPool::shared`] handle
/// (and, through `ParallelCtx::shared_from_env`, by every engine in the process).
/// Sized by its first user and grown on demand; lives for the process.
fn global_core(workers: usize) -> Arc<PoolCore> {
    static GLOBAL: OnceLock<Arc<PoolCore>> = OnceLock::new();
    GLOBAL.get_or_init(|| PoolCore::new(workers, true)).clone()
}

// ---- one run's batch -------------------------------------------------------

/// One participating worker's deposit: its `(task index, result)` pairs
/// plus its busy time in nanoseconds.
type WorkerDeposit<T> = (Vec<(usize, T)>, u64);

/// The batch-completion rendezvous. Heap-allocated (`Arc`) on purpose: a
/// helper's final touch — incrementing `exited` and notifying — must not
/// happen through the stack-allocated batch, because the moment the
/// submitter observes the final count it may destroy the batch frame while
/// a slower helper is still mid-notify. Helpers clone the `Arc` before
/// signalling, so the rendezvous memory outlives every signal regardless
/// of interleaving.
struct Rendezvous {
    /// Helper workers that finished `execute`.
    exited: Mutex<usize>,
    done: Condvar,
}

/// The concrete batch for one `run_with` call: the task cursor, the shared
/// result sink, panic containment, and the completion rendezvous.
struct RunJob<'a, S, T, FI, F> {
    n_tasks: usize,
    next: AtomicUsize,
    /// Helper workers that claimed a slot (excludes the caller). Written
    /// under the injector lock; read by the caller after `retire`.
    entered: AtomicUsize,
    rendezvous: Arc<Rendezvous>,
    /// Set on the first panic: other workers stop claiming tasks so the
    /// batch drains quickly and the panic propagates promptly.
    poisoned: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// `(per-task results, busy nanos)` per participating worker.
    sink: Mutex<Vec<WorkerDeposit<T>>>,
    init: &'a FI,
    f: &'a F,
    _scratch: PhantomData<fn() -> S>,
}

impl<'a, S, T, FI, F> RunJob<'a, S, T, FI, F>
where
    FI: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
    T: Send,
{
    fn new(n_tasks: usize, init: &'a FI, f: &'a F) -> Self {
        RunJob {
            n_tasks,
            next: AtomicUsize::new(0),
            entered: AtomicUsize::new(0),
            rendezvous: Arc::new(Rendezvous {
                exited: Mutex::new(0),
                done: Condvar::new(),
            }),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
            sink: Mutex::new(Vec::new()),
            init,
            f,
            _scratch: PhantomData,
        }
    }

    /// Serve one worker slot: build a scratch, claim tasks until the cursor
    /// runs out (or the batch is poisoned), deposit results. Panics inside
    /// a task are captured here — they poison the batch, never the worker.
    fn run_slot(&self) {
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut scratch = (self.init)();
            let mut local: Vec<(usize, T)> = Vec::new();
            while !self.poisoned.load(Ordering::Relaxed) {
                let i = self.next.fetch_add(1, Ordering::Relaxed);
                if i >= self.n_tasks {
                    break;
                }
                local.push((i, (self.f)(&mut scratch, i)));
            }
            local
        }));
        let nanos = start.elapsed().as_nanos() as u64;
        match outcome {
            Ok(local) => lock_clean(&self.sink).push((local, nanos)),
            Err(payload) => {
                self.poisoned.store(true, Ordering::Relaxed);
                lock_clean(&self.panic).get_or_insert(payload);
            }
        }
    }

    /// Wait until `target` helpers have exited the batch.
    fn wait_helpers(&self, target: usize) {
        let rendezvous = &self.rendezvous;
        let mut exited = lock_clean(&rendezvous.exited);
        while *exited < target {
            exited = rendezvous
                .done
                .wait(exited)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl<S, T, FI, F> Job for RunJob<'_, S, T, FI, F>
where
    FI: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
    T: Send,
{
    fn has_work(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.n_tasks && !self.poisoned.load(Ordering::Relaxed)
    }

    fn enter(&self) {
        self.entered.fetch_add(1, Ordering::Relaxed);
    }

    fn execute(&self) {
        // Keep the rendezvous alive independently of the batch frame: the
        // increment below is the submitter's licence to destroy the batch,
        // so everything after it must go through this local Arc only.
        let rendezvous = self.rendezvous.clone();
        self.run_slot();
        let mut exited = lock_clean(&rendezvous.exited);
        *exited += 1;
        drop(exited);
        rendezvous.done.notify_all();
    }
}

// ---- the public handle -----------------------------------------------------

/// A worker-pool handle: a thread-width budget over a persistent core.
///
/// Handles are cheap to clone and to narrow ([`with_width`]); all handles
/// onto the same persistent core share its workers, which is how many
/// concurrent queries serve from one machine-wide pool. `width == 1` (or a
/// single task) runs inline with zero synchronization, so a sequential
/// deployment pays nothing.
///
/// [`with_width`]: WorkerPool::with_width
#[derive(Clone)]
pub struct WorkerPool {
    core: Arc<PoolCore>,
    width: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("width", &self.width)
            .finish()
    }
}

impl WorkerPool {
    /// Pool with a **dedicated** persistent core: `threads - 1` long-lived
    /// workers are spawned now (the calling thread is the pool's remaining
    /// worker during each `run`) and joined when the last handle drops.
    pub fn new(threads: usize) -> Self {
        let width = threads.max(1);
        WorkerPool {
            core: PoolCore::new(width - 1, false),
            width,
        }
    }

    /// Handle onto the **process-global** persistent core, capped at
    /// `threads` workers for this handle. The global core is created on
    /// first use and grows to the widest handle that asks; every engine in
    /// the process shares its workers, so building N engines never spawns
    /// N pools.
    pub fn shared(threads: usize) -> Self {
        let width = threads.max(1);
        WorkerPool {
            core: global_core(width - 1),
            width,
        }
    }

    /// A handle onto the same core with a different width budget
    /// (clamped to at least 1). This is how an admission grant scopes a
    /// phase down to its granted worker count without touching the pool.
    pub fn with_width(&self, width: usize) -> Self {
        WorkerPool {
            core: self.core.clone(),
            width: width.max(1),
        }
    }

    /// The thread budget of this handle (callers + helpers per run).
    pub fn threads(&self) -> usize {
        self.width
    }

    /// Live worker threads on the core. Lifecycle tests use this to prove
    /// shutdown leaks nothing.
    pub fn live_workers(&self) -> usize {
        self.core.live_workers()
    }

    /// Handle to the live-worker counter that survives dropping the pool
    /// (the drop test asserts it reaches zero after the join).
    #[cfg(test)]
    fn live_counter(&self) -> Arc<AtomicUsize> {
        self.core.inj.live.clone()
    }

    /// Run `n_tasks` independent tasks, `f(i)` computing task `i`.
    ///
    /// Workers claim task indices dynamically from a shared cursor; at most
    /// `min(width, n_tasks)` workers serve the batch (the caller plus up to
    /// `width - 1` pool helpers — fewer when the pool is busy, with the
    /// caller absorbing the rest). Results come back in task order, so
    /// order-sensitive merges can simply concatenate them.
    ///
    /// A panic inside `f` poisons only this call: it propagates to the
    /// caller after every participating worker has left the batch, and the
    /// pool remains usable.
    pub fn run<T, F>(&self, n_tasks: usize, f: F) -> PoolRun<T>
    where
        F: Fn(usize) -> T + Sync,
        T: Send,
    {
        self.run_with(n_tasks, || (), |_, i| f(i))
    }

    /// [`run`](WorkerPool::run) with per-worker scratch state: `init()`
    /// builds one scratch per participating worker (one total on the
    /// sequential path), and that scratch is handed to `f` for every task
    /// the worker claims. This is the hook that lets scan morsels reuse
    /// selection-vector buffers across a whole query instead of allocating
    /// per morsel.
    pub fn run_with<S, T, FI, F>(&self, n_tasks: usize, init: FI, f: F) -> PoolRun<T>
    where
        FI: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
        T: Send,
    {
        let run = if self.width == 1 || n_tasks <= 1 {
            let start = Instant::now();
            let mut scratch = init();
            let results: Vec<T> = (0..n_tasks).map(|i| f(&mut scratch, i)).collect();
            PoolRun {
                results,
                worker_nanos: vec![start.elapsed().as_nanos() as u64],
            }
        } else {
            self.run_persistent(n_tasks, &init, &f)
        };
        let m = pool_metrics();
        m.batches.inc();
        m.tasks.add(n_tasks as u64);
        m.busy_nanos.add(run.worker_nanos.iter().sum());
        run
    }

    /// Persistent path: enqueue the batch, serve it from the calling
    /// thread, then rendezvous with every helper that joined.
    fn run_persistent<S, T, FI, F>(&self, n_tasks: usize, init: &FI, f: &F) -> PoolRun<T>
    where
        FI: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
        T: Send,
    {
        let job = RunJob::new(n_tasks, init, f);
        let helpers = self.width.min(n_tasks) - 1;
        // SAFETY: upholds the JobRef handoff contract — the batch is
        // retired from the queue and all entered helpers are awaited below,
        // before `job` (and the borrows inside it) go out of scope. The
        // caller's own slot runs outside catch-free context: `run_slot`
        // contains panics internally, so this frame cannot unwind while
        // helpers still reference the batch.
        let job_ref = unsafe { JobRef::erase(&job) };
        if helpers > 0 {
            self.core.submit(job_ref, helpers);
        }

        job.run_slot();

        let target = if helpers > 0 {
            self.core.retire(job_ref);
            // All `enter`s happened under the injector lock before the
            // retire acquired it, so this read is final.
            job.entered.load(Ordering::Relaxed)
        } else {
            0
        };
        job.wait_helpers(target);

        let RunJob { panic, sink, .. } = job;
        if let Some(payload) = lock_clean(&panic).take() {
            resume_unwind(payload);
        }

        let per_worker = sink.into_inner().unwrap_or_else(|e| e.into_inner());
        let mut slots: Vec<Option<T>> = (0..n_tasks).map(|_| None).collect();
        let mut worker_nanos = Vec::with_capacity(per_worker.len());
        for (local, nanos) in per_worker {
            worker_nanos.push(nanos);
            for (i, v) in local {
                slots[i] = Some(v);
            }
        }
        PoolRun {
            results: slots
                .into_iter()
                .map(|s| s.expect("every task index claimed exactly once"))
                .collect(),
            worker_nanos,
        }
    }

    /// Parallel map over a slice, preserving element order.
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        F: Fn(&I) -> T + Sync,
        T: Send,
    {
        self.run(items.len(), |i| f(&items[i])).results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_task_order() {
        for threads in [1, 2, 4, 8] {
            let run = WorkerPool::new(threads).run(37, |i| i * i);
            assert_eq!(run.results, (0..37).map(|i| i * i).collect::<Vec<_>>());
            assert!(!run.worker_nanos.is_empty());
            assert!(run.worker_nanos.len() <= threads.max(1));
        }
    }

    #[test]
    fn workers_borrow_caller_state() {
        let data: Vec<u64> = (0..1000).collect();
        let sums = WorkerPool::new(4).map(&[0usize, 250, 500, 750], |&lo| {
            data[lo..lo + 250].iter().sum::<u64>()
        });
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn zero_tasks_is_empty() {
        let run: PoolRun<()> = WorkerPool::new(4).run(0, |_| unreachable!("no task to run"));
        assert!(run.results.is_empty());
    }

    #[test]
    fn run_with_reuses_per_worker_scratch() {
        for threads in [1, 3, 8] {
            // The scratch records how many tasks it has served; with more
            // tasks than workers, some scratch must serve several tasks.
            let run = WorkerPool::new(threads).run_with(32, Vec::<usize>::new, |scratch, i| {
                scratch.push(i);
                scratch.len()
            });
            assert_eq!(run.results.len(), 32);
            assert!(run.results.iter().any(|&served| served > 1));
        }
    }

    #[test]
    fn uneven_tasks_all_complete() {
        // Task 0 cannot finish before the other 15 have: the batch
        // completes only if the workers not holding task 0 claim every
        // other index, which static chunking could not do.
        let others_done = AtomicUsize::new(0);
        let run = WorkerPool::new(3).run(16, |i| {
            if i == 0 {
                let start = Instant::now();
                while others_done.load(Ordering::Acquire) < 15 {
                    assert!(
                        start.elapsed() < Duration::from_secs(30),
                        "task 0 waited 30 s for the other 15: tasks are not claimed dynamically"
                    );
                    std::thread::yield_now();
                }
            } else {
                others_done.fetch_add(1, Ordering::Release);
            }
            i
        });
        assert_eq!(run.results, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn narrowed_handles_share_one_core() {
        let pool = WorkerPool::new(6);
        assert_eq!(pool.live_workers(), 5);
        let narrow = pool.with_width(2);
        assert_eq!(narrow.threads(), 2);
        // Narrowing is a view, not a new pool: no extra threads appear.
        assert_eq!(narrow.live_workers(), 5);
        let run = narrow.run(10, |i| i + 1);
        assert_eq!(run.results, (1..=10).collect::<Vec<_>>());
        assert!(run.worker_nanos.len() <= 2);
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = WorkerPool::new(5);
        assert_eq!(pool.live_workers(), 4, "workers park at construction");
        // Exercise the pool so workers have actually served a batch.
        let run = pool.run(64, |i| i);
        assert_eq!(run.results.len(), 64);

        let live = pool.live_counter();
        let second_handle = pool.clone();
        drop(pool);
        // Clones keep the core alive...
        assert_eq!(second_handle.live_workers(), 4);
        drop(second_handle);
        // ...and the final drop joins every worker synchronously.
        assert_eq!(live.load(Ordering::SeqCst), 0, "leaked worker threads");
    }

    #[test]
    fn panic_poisons_only_its_run_and_propagates_after_join() {
        let pool = WorkerPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(64, |i| {
                if i == 13 {
                    panic!("boom-13");
                }
                i
            })
        }));
        let payload = result.expect_err("panic must propagate to the run caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or_else(|| payload.downcast_ref::<String>().map_or("", |s| s));
        assert!(msg.contains("boom-13"), "unexpected payload: {msg:?}");

        // The workers survived the poisoned batch...
        assert_eq!(pool.live_workers(), 3, "a task panic must not kill workers");
        // ...and the pool serves later batches normally.
        let run = pool.run(32, |i| i * 2);
        assert_eq!(run.results, (0..32).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_runs_share_one_pool() {
        let pool = WorkerPool::new(4);
        std::thread::scope(|scope| {
            for t in 0..6usize {
                let pool = &pool;
                scope.spawn(move || {
                    for round in 0..8usize {
                        let run = pool.run(40, |i| i * 3 + t + round);
                        let want: Vec<usize> = (0..40).map(|i| i * 3 + t + round).collect();
                        assert_eq!(run.results, want);
                    }
                });
            }
        });
        assert_eq!(pool.live_workers(), 3);
    }

    #[test]
    fn shared_handles_reuse_the_global_core() {
        let a = WorkerPool::shared(3);
        let before = a.live_workers();
        let b = WorkerPool::shared(3);
        // Same process-global core: no additional workers were spawned.
        assert_eq!(b.live_workers(), before);
        let run = b.run(16, |i| i + 7);
        assert_eq!(run.results, (7..23).collect::<Vec<_>>());
    }
}
