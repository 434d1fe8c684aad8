//! The bounded serving queue.
//!
//! See the crate docs for the lifecycle, the cancellation protocol, and
//! the coalescing/caching contract.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use blend_common::{BlendError, FxHashMap, Result};
use blend_obs::AttrValue;
use blend_parallel::{CancellationToken, Deadline, Interrupt};
use blend_sql::{
    ExecPath, QueryFingerprint, QueryReport, ResultColumns, ResultSet, ServingStats, SqlEngine,
};

use crate::cache::{cache_metrics, CacheKey, CachedResult, ResultCache, DEFAULT_CACHE_BYTES};
use crate::faults::{FaultAction, FaultPlan, SITE_CACHE, SITE_COALESCE, SITE_DEQUEUE, SITE_EXEC};

/// Serving-tier metric cells (`blend_serve_*`), process-global across
/// every queue. Unlike [`ServeStats::submitted`] (accepted requests
/// only), `blend_serve_submitted_total` counts every submission attempt,
/// so the counter identity `shed + ok + cache_hit + coalesced_hit +
/// timeouts + cancellations + mem_exceeded + failures == submitted`
/// holds at any quiesce point.
struct ServeMetrics {
    submitted: Arc<blend_obs::Counter>,
    shed: Arc<blend_obs::Counter>,
    ok: Arc<blend_obs::Counter>,
    cache_hits: Arc<blend_obs::Counter>,
    coalesced_hits: Arc<blend_obs::Counter>,
    timeouts: Arc<blend_obs::Counter>,
    cancellations: Arc<blend_obs::Counter>,
    mem_exceeded: Arc<blend_obs::Counter>,
    failures: Arc<blend_obs::Counter>,
    /// Requests accepted and not yet dequeued.
    queue_depth: Arc<blend_obs::Gauge>,
    /// Time from accept to dequeue, for requests that reached a server.
    queue_wait: Arc<blend_obs::Histogram>,
    /// Execution time (admission wait included) of dequeued requests.
    exec_time: Arc<blend_obs::Histogram>,
}

fn serve_metrics() -> &'static ServeMetrics {
    static METRICS: OnceLock<ServeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = blend_obs::registry();
        ServeMetrics {
            submitted: r.counter("blend_serve_submitted_total"),
            shed: r.counter("blend_serve_outcomes_total{outcome=\"shed\"}"),
            ok: r.counter("blend_serve_outcomes_total{outcome=\"ok\"}"),
            cache_hits: r.counter("blend_serve_outcomes_total{outcome=\"cache_hit\"}"),
            coalesced_hits: r.counter("blend_serve_outcomes_total{outcome=\"coalesced_hit\"}"),
            timeouts: r.counter("blend_serve_outcomes_total{outcome=\"timeout\"}"),
            cancellations: r.counter("blend_serve_outcomes_total{outcome=\"cancelled\"}"),
            mem_exceeded: r.counter("blend_serve_outcomes_total{outcome=\"mem_exceeded\"}"),
            failures: r.counter("blend_serve_outcomes_total{outcome=\"failed\"}"),
            queue_depth: r.gauge("blend_serve_queue_depth"),
            queue_wait: r.histogram("blend_serve_queue_wait_nanos"),
            exec_time: r.histogram("blend_serve_exec_nanos"),
        }
    })
}

/// Serving-tier knobs.
#[derive(Debug)]
pub struct ServeConfig {
    /// Maximum queued (not yet dequeued) requests; submissions beyond this
    /// are shed immediately with `BlendError::Overloaded`.
    pub depth: usize,
    /// Serving threads. `0` means requests queue but never execute (useful
    /// for deterministic shedding tests); they resolve on shutdown.
    pub workers: usize,
    /// Total byte budget of the memoized result cache. `0` disables
    /// caching; the default is [`DEFAULT_CACHE_BYTES`].
    pub result_cache_bytes: usize,
    /// Coalesce fingerprint-equal requests onto one in-flight execution.
    pub coalesce: bool,
    /// Fault-injection plan applied at the serving sites.
    pub faults: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            depth: 32,
            workers: 2,
            result_cache_bytes: DEFAULT_CACHE_BYTES,
            coalesce: true,
            faults: FaultPlan::none(),
        }
    }
}

/// Aggregate serving counters (monotonic since queue creation).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests shed at submission because the queue was full.
    pub shed: u64,
    /// Requests that completed with a freshly executed result.
    pub ok: u64,
    /// Requests served from the memoized result cache.
    pub cache_hits: u64,
    /// Requests that attached to an in-flight execution and were resolved
    /// from its result.
    pub coalesced_hits: u64,
    /// Requests that resolved `Err(Timeout)`.
    pub timeouts: u64,
    /// Requests that resolved `Err(Cancelled)`.
    pub cancellations: u64,
    /// Requests shed by the memory governor (`Err(MemoryExceeded)`) after
    /// the degradation ladder was exhausted.
    pub mem_exceeded: u64,
    /// Requests that resolved with any other error (incl. poisoned).
    pub failures: u64,
}

#[derive(Default)]
struct StatCells {
    submitted: AtomicU64,
    shed: AtomicU64,
    ok: AtomicU64,
    cache_hits: AtomicU64,
    coalesced_hits: AtomicU64,
    timeouts: AtomicU64,
    cancellations: AtomicU64,
    mem_exceeded: AtomicU64,
    failures: AtomicU64,
}

/// How a request obtained its `Ok` result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OkKind {
    /// Fresh execution on the engine.
    Fresh,
    /// Served from the memoized result cache.
    CacheHit,
    /// Resolved from a coalesced in-flight execution.
    Coalesced,
}

impl OkKind {
    fn label(self) -> &'static str {
        match self {
            OkKind::Fresh => "ok",
            OkKind::CacheHit => "cache_hit",
            OkKind::Coalesced => "coalesced_hit",
        }
    }
}

/// One queued request. The ticket and the serving threads share it.
struct Request {
    sql: String,
    /// Parsed query, kept from the submission-time fingerprint parse so
    /// execution never parses the SQL a second time. `None` exactly when
    /// `fp` is `None`.
    ast: Option<blend_sql::ast::Query>,
    /// Canonical fingerprint, computed at submission when memoization or
    /// coalescing is on. `None` for unparseable SQL (the engine will
    /// produce the parse error) or when both features are off.
    fp: Option<QueryFingerprint>,
    interrupt: Interrupt,
    enqueued: Instant,
    /// Accept→dequeue wait, stamped by the popping thread so a coalesced
    /// waiter's delivery (on the leader's thread) can report it.
    wait_nanos: AtomicU64,
    outcome: Mutex<Option<Result<Delivery>>>,
    done: Condvar,
}

/// What a request resolves with: the execution's shared columns — the very
/// allocation the cache and every other delivery of that execution hold —
/// and this delivery's own report.
type Delivery = (Arc<CachedResult>, QueryReport);

impl Request {
    fn resolve(&self, result: Result<Delivery>) {
        let mut slot = self.outcome.lock().unwrap_or_else(|e| e.into_inner());
        // First resolution wins; a request is resolved exactly once, but be
        // defensive rather than clobbering a delivered result.
        if slot.is_none() {
            *slot = Some(result);
            self.done.notify_all();
        }
    }
}

/// Handle to a submitted request. [`Ticket::wait`] blocks until the request
/// resolves; [`Ticket::cancel`] trips its cancellation token.
pub struct Ticket {
    req: Arc<Request>,
}

impl Ticket {
    /// Cooperatively cancel the request. The next check site (queued-state
    /// check, admission wait, phase boundary, or inner loop) observes the
    /// token and the ticket resolves `Err(Cancelled)` — unless the request
    /// already completed. Cancelling a coalesced-group *leader* does not
    /// strand its waiters: a live waiter is promoted to re-execute.
    pub fn cancel(&self) {
        self.req.interrupt.token().cancel();
    }

    /// This request's cancellation token (shareable across threads).
    pub fn token(&self) -> CancellationToken {
        self.req.interrupt.token().clone()
    }

    /// Block until the request resolves. Every accepted request resolves:
    /// served requests when execution finishes (or is interrupted), queued
    /// requests at the latest on queue shutdown.
    ///
    /// The rows are built here, on the caller's thread, from the columns the
    /// request resolved with (a `materialize` span under the report's
    /// profile root): serving threads never build one, and a ticket that is
    /// dropped unread costs none and gives its share of the columns back.
    pub fn wait(self) -> Result<(ResultSet, QueryReport)> {
        let outcome = {
            let mut slot = self.req.outcome.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(outcome) = slot.take() {
                    break outcome;
                }
                slot = self.req.done.wait(slot).unwrap_or_else(|e| e.into_inner());
            }
        };
        let (memo, mut report) = outcome?;
        let trace = blend_obs::trace_begin("materialize");
        let rs = memo.columns.to_result_set();
        trace.attr_u64("rows", rs.len() as u64);
        if let (Some(profile), Some(built)) = (report.profile.as_mut(), trace.finish()) {
            profile.root.nanos += built.root.nanos;
            profile.root.children.push(built.root);
        }
        Ok((rs, report))
    }
}

struct QueueState {
    queue: VecDeque<Arc<Request>>,
    shutdown: bool,
}

struct Core {
    engine: Arc<SqlEngine>,
    state: Mutex<QueueState>,
    nonempty: Condvar,
    depth: usize,
    faults: FaultPlan,
    stats: StatCells,
    /// Memoized results keyed on fingerprint + generation.
    /// `Arc` so the engine's memory governor can hold it (weakly) as a
    /// [`blend_parallel::MemoryReclaimer`] — rung 1 of the degradation
    /// ladder evicts from this cache.
    cache: Arc<ResultCache>,
    /// In-flight executions open for coalescing: key → waiters attached so
    /// far (the leader is not in the list). An entry exists only while the
    /// leader's execution is running; it is removed — under this lock, so
    /// attach can never race with finalize — before waiters are resolved.
    inflight: Mutex<FxHashMap<CacheKey, Vec<Arc<Request>>>>,
    coalesce: bool,
}

impl Core {
    /// True when submissions should pay for fingerprinting at all.
    fn fingerprinting(&self) -> bool {
        self.coalesce || !self.cache.is_disabled()
    }
}

/// A bounded, deadline-aware request queue in front of a [`SqlEngine`].
///
/// `submit` never blocks: it sheds with `Err(Overloaded)` when the bound is
/// hit. Serving threads pop requests, drop ones whose deadline expired
/// while queued, probe the memoized result cache, attach fingerprint-equal
/// requests to an already-running execution, and otherwise acquire one
/// admission token as their execution slot (blocking *under the request's
/// deadline* via [`blend_parallel::Admission::acquire_within`]) and execute
/// with the request's [`Interrupt`] scoped onto the shared
/// [`blend_parallel::ParallelCtx`]. Dropping the queue shuts it down:
/// serving threads drain, and never-served requests resolve
/// `Err(Cancelled)`.
pub struct ServeQueue {
    core: Arc<Core>,
    handles: Vec<JoinHandle<()>>,
}

impl ServeQueue {
    /// Spawn the serving threads for `engine` with the given config. The
    /// result cache charges the engine's memory governor (its byte pool is
    /// a child of that governor's budget) and registers as its
    /// reclaimer; an `alloc:fail` rule in the fault plan arms the governor
    /// with synthetic reservation failures.
    pub fn new(engine: Arc<SqlEngine>, config: ServeConfig) -> ServeQueue {
        let governor = engine.parallel_ctx().governor().clone();
        let cache = Arc::new(ResultCache::with_governor(
            config.result_cache_bytes,
            governor.clone(),
        ));
        governor.register_reclaimer(
            Arc::downgrade(&cache) as std::sync::Weak<dyn blend_parallel::MemoryReclaimer>
        );
        if let Some(every) = config.faults.alloc_fail_every() {
            governor.set_alloc_fail_every(every);
        }
        let core = Arc::new(Core {
            engine,
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            nonempty: Condvar::new(),
            depth: config.depth.max(1),
            faults: config.faults,
            stats: StatCells::default(),
            cache,
            inflight: Mutex::new(FxHashMap::default()),
            coalesce: config.coalesce,
        });
        let handles = (0..config.workers)
            .map(|i| {
                let core = core.clone();
                std::thread::Builder::new()
                    .name(format!("blend-serve-{i}"))
                    .spawn(move || serve_loop(&core))
                    .expect("spawn serving thread")
            })
            .collect();
        ServeQueue { core, handles }
    }

    /// Submit a SQL request with a deadline. Returns `Err(Overloaded)`
    /// without blocking when the queue is at capacity.
    pub fn submit(&self, sql: &str, deadline: Deadline) -> Result<Ticket> {
        // Fingerprinting parses the SQL here on the submitting thread; the
        // AST is kept so the serving thread plans it directly instead of
        // parsing a second time. Skipped entirely when neither memoization
        // nor coalescing can use it. Parse errors leave both empty — the
        // engine will surface the real error at execution.
        let (ast, fp) = if self.core.fingerprinting() {
            match blend_sql::parser::parse(sql) {
                Ok(ast) => {
                    let fp = blend_sql::fingerprint_query(&ast);
                    (Some(ast), Some(fp))
                }
                Err(_) => (None, None),
            }
        } else {
            (None, None)
        };
        let req = Arc::new(Request {
            sql: sql.to_string(),
            ast,
            fp,
            interrupt: Interrupt::new(CancellationToken::new(), deadline),
            enqueued: Instant::now(),
            wait_nanos: AtomicU64::new(0),
            outcome: Mutex::new(None),
            done: Condvar::new(),
        });
        let m = serve_metrics();
        m.submitted.inc();
        {
            let mut st = self.core.state.lock().unwrap_or_else(|e| e.into_inner());
            if st.shutdown {
                m.cancellations.inc();
                return Err(BlendError::Cancelled("serve queue shut down".into()));
            }
            // While the governor is reclaiming bytes the system is actively
            // shedding memory; halve the effective depth so new work queues
            // up (or sheds) instead of piling onto it.
            let depth = if self.core.engine.parallel_ctx().governor().reclaiming() {
                (self.core.depth / 2).max(1)
            } else {
                self.core.depth
            };
            if st.queue.len() >= depth {
                self.core.stats.shed.fetch_add(1, Ordering::Relaxed);
                m.shed.inc();
                return Err(BlendError::Overloaded(format!(
                    "serve queue full ({} queued, effective depth {depth})",
                    st.queue.len(),
                )));
            }
            st.queue.push_back(req.clone());
        }
        self.core.stats.submitted.fetch_add(1, Ordering::Relaxed);
        m.queue_depth.inc();
        self.core.nonempty.notify_one();
        Ok(Ticket { req })
    }

    /// Snapshot of the aggregate counters.
    pub fn stats(&self) -> ServeStats {
        let s = &self.core.stats;
        ServeStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
            ok: s.ok.load(Ordering::Relaxed),
            cache_hits: s.cache_hits.load(Ordering::Relaxed),
            coalesced_hits: s.coalesced_hits.load(Ordering::Relaxed),
            timeouts: s.timeouts.load(Ordering::Relaxed),
            cancellations: s.cancellations.load(Ordering::Relaxed),
            mem_exceeded: s.mem_exceeded.load(Ordering::Relaxed),
            failures: s.failures.load(Ordering::Relaxed),
        }
    }

    /// Currently queued (accepted, not yet dequeued) requests.
    pub fn queued(&self) -> usize {
        self.core
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .queue
            .len()
    }

    /// Entries resident in the memoized result cache (tests, diagnostics).
    pub fn cached_results(&self) -> usize {
        self.core.cache.len()
    }

    /// The memoized result cache itself (tests, diagnostics).
    pub fn result_cache(&self) -> &ResultCache {
        &self.core.cache
    }
}

impl Drop for ServeQueue {
    fn drop(&mut self) {
        {
            let mut st = self.core.state.lock().unwrap_or_else(|e| e.into_inner());
            st.shutdown = true;
        }
        self.core.nonempty.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        // With zero workers (or if a thread died), queued requests remain;
        // resolve them so no ticket waits forever. (Coalesced waiters never
        // linger here: they live in `inflight` only while their leader's
        // serving thread is mid-execution, and that thread drains them
        // before it re-checks shutdown.)
        let leftovers: Vec<Arc<Request>> = {
            let mut st = self.core.state.lock().unwrap_or_else(|e| e.into_inner());
            st.queue.drain(..).collect()
        };
        let m = serve_metrics();
        for req in leftovers {
            // Count the shutdown resolution like any other cancellation so
            // the outcome counters keep summing to submissions.
            self.core
                .stats
                .cancellations
                .fetch_add(1, Ordering::Relaxed);
            m.cancellations.inc();
            m.queue_depth.dec();
            req.resolve(Err(BlendError::Cancelled("serve queue shut down".into())));
        }
        // Give cached bytes back to the memory governor: the cache dies
        // with this queue and its charges must not outlive it.
        self.core.cache.purge_all();
    }
}

fn serve_loop(core: &Core) {
    loop {
        let req = {
            let mut st = core.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(req) = st.queue.pop_front() {
                    break req;
                }
                if st.shutdown {
                    return;
                }
                st = core.nonempty.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        let m = serve_metrics();
        m.queue_depth.dec();
        let queue_wait = req.enqueued.elapsed();
        req.wait_nanos
            .store(queue_wait.as_nanos() as u64, Ordering::Relaxed);
        m.queue_wait.record(queue_wait.as_nanos() as u64);
        let mut poisoned = apply_faults(core, SITE_DEQUEUE, &req);

        // A request that expired or was cancelled while queued neither
        // probes the cache nor attaches to a group nor executes.
        if let Err(e) = req.interrupt.check() {
            finish_err(core, &req, e, Duration::ZERO);
            continue;
        }

        // The memoization identity: canonical fingerprint + the store
        // generation observed *now*, before any execution. A rebuild that
        // lands later bumps the generation, so nothing this request caches
        // or reads can leak across it.
        let key = req.fp.clone().map(|fp| CacheKey {
            fp,
            generation: core.engine.generation(),
        });

        // Cache probe.
        if let Some(key) = &key {
            if !core.cache.is_disabled() {
                // A poison fault at this site skips the probe (a hit would
                // mask the poison) and crashes at the exec site instead.
                poisoned |= apply_faults(core, SITE_CACHE, &req);
                if let Err(e) = req.interrupt.check() {
                    finish_err(core, &req, e, Duration::ZERO);
                    continue;
                }
                if !poisoned {
                    if let Some(hit) = core.cache.get(key) {
                        deliver_memoized(core, &req, &hit, OkKind::CacheHit);
                        continue;
                    }
                }
            }
        }

        // Coalesce: attach to a fingerprint-equal in-flight execution, or
        // become the leader of a new group.
        if core.coalesce {
            if let Some(key) = &key {
                poisoned |= apply_faults(core, SITE_COALESCE, &req);
                if let Err(e) = req.interrupt.check() {
                    finish_err(core, &req, e, Duration::ZERO);
                    continue;
                }
                let is_leader = {
                    let mut inflight = core.inflight.lock().unwrap_or_else(|e| e.into_inner());
                    match inflight.entry(key.clone()) {
                        Entry::Occupied(mut group) => {
                            group.get_mut().push(req.clone());
                            false
                        }
                        Entry::Vacant(slot) => {
                            slot.insert(Vec::new());
                            true
                        }
                    }
                };
                if is_leader {
                    lead_group(core, &req, key, poisoned);
                }
                // Attached waiters are resolved by their leader's thread;
                // this thread is free for the next request either way.
                continue;
            }
        }

        execute_one(core, &req, key.as_ref(), poisoned);
    }
}

/// Execute a request on the engine, timed. An `Ok` result is wrapped for
/// sharing — the one `Arc` the cache (under `key`), the requester's ticket
/// and any coalesced waiter will hold — so it is never copied, and a result
/// the cache refuses costs nothing beyond its own delivery.
fn execute_timed(
    core: &Core,
    req: &Request,
    key: Option<&CacheKey>,
    poisoned: &mut bool,
) -> (Result<Delivery>, Duration) {
    let exec_start = Instant::now();
    let result = serve_one(core, req, poisoned);
    let exec = exec_start.elapsed();
    serve_metrics().exec_time.record(exec.as_nanos() as u64);
    let shared = result.map(|(columns, mut report)| {
        let profile = report.profile.take();
        let memo = Arc::new(CachedResult::new(columns, report.clone()));
        report.profile = profile;
        if let Some(key) = key {
            core.cache.insert(key.clone(), Arc::clone(&memo));
        }
        (memo, report)
    });
    (shared, exec)
}

/// Execute a request on the engine and resolve it, memoizing an `Ok`
/// result under `key`.
fn execute_one(core: &Core, req: &Request, key: Option<&CacheKey>, mut poisoned: bool) {
    match execute_timed(core, req, key, &mut poisoned) {
        (Ok((memo, report)), exec) => finish_ok(core, req, memo, report, exec, OkKind::Fresh),
        (Err(e), exec) => finish_err(core, req, e, exec),
    }
}

/// Run a coalesced group: execute as the leader, then resolve every waiter
/// from the shared result. If the leader fails (cancel, timeout, poison, or
/// a deterministic error), its own ticket resolves typed and the earliest
/// still-live waiter is promoted to re-execute under *its* interrupt, so a
/// dying leader never strands the group.
fn lead_group(core: &Core, leader: &Arc<Request>, key: &CacheKey, poisoned: bool) {
    let mut current = leader.clone();
    let mut current_poisoned = poisoned;
    // Waiters carried over from failed leaders; the group's map entry is
    // removed after the first execution, so later arrivals form new groups.
    let mut waiters: VecDeque<Arc<Request>> = VecDeque::new();
    let mut first_attempt = true;

    loop {
        let (result, exec) = execute_timed(core, &current, Some(key), &mut current_poisoned);

        if first_attempt {
            // Close the group: removal happens under the inflight lock, the
            // same lock attaches take, so no waiter can slip in afterwards.
            let attached = {
                let mut inflight = core.inflight.lock().unwrap_or_else(|e| e.into_inner());
                inflight.remove(key).unwrap_or_default()
            };
            waiters.extend(attached);
            first_attempt = false;
        }

        match result {
            Ok((memo, report)) => {
                finish_ok(
                    core,
                    &current,
                    Arc::clone(&memo),
                    report,
                    exec,
                    OkKind::Fresh,
                );
                for w in waiters {
                    deliver_memoized(core, &w, &memo, OkKind::Coalesced);
                }
                return;
            }
            Err(e) => {
                finish_err(core, &current, e, exec);
                // Promote the earliest waiter that can still run.
                loop {
                    match waiters.pop_front() {
                        Some(next) => {
                            if let Err(e) = next.interrupt.check() {
                                finish_err(core, &next, e, Duration::ZERO);
                                continue;
                            }
                            current = next;
                            current_poisoned = false;
                            break;
                        }
                        None => return, // group fully resolved
                    }
                }
            }
        }
    }
}

/// Resolve a request from a memoized result: one more handle on the shared
/// columns, no rows built. A *coalesced* waiter re-checks
/// its interrupt first — real time passed while its leader ran, so a waiter
/// whose deadline expired still resolves `Err(Timeout)`. A *cache* hit does
/// not: its interrupt was checked immediately before the probe, and the
/// probe already counted `blend_cache_hits_total`, which must agree exactly
/// with the `cache_hit` outcome counter.
fn deliver_memoized(core: &Core, req: &Request, memo: &Arc<CachedResult>, kind: OkKind) {
    if kind == OkKind::Coalesced {
        if let Err(e) = req.interrupt.check() {
            finish_err(core, req, e, Duration::ZERO);
            return;
        }
    }
    let report = memo.report.clone();
    finish_ok(core, req, Arc::clone(memo), report, Duration::ZERO, kind);
}

/// Count, stamp telemetry, and resolve a successful request.
fn finish_ok(
    core: &Core,
    req: &Request,
    memo: Arc<CachedResult>,
    mut report: QueryReport,
    exec: Duration,
    kind: OkKind,
) {
    let s = &core.stats;
    let m = serve_metrics();
    match kind {
        OkKind::Fresh => {
            s.ok.fetch_add(1, Ordering::Relaxed);
            m.ok.inc();
        }
        OkKind::CacheHit => {
            s.cache_hits.fetch_add(1, Ordering::Relaxed);
            m.cache_hits.inc();
        }
        OkKind::Coalesced => {
            s.coalesced_hits.fetch_add(1, Ordering::Relaxed);
            m.coalesced_hits.inc();
            cache_metrics().coalesced.inc();
        }
    }
    let queue_wait_nanos = req.wait_nanos.load(Ordering::Relaxed);
    report.serving = Some(ServingStats {
        queue_wait_nanos,
        exec_nanos: exec.as_nanos() as u64,
        outcome: kind.label().into(),
    });
    match kind {
        OkKind::Fresh => {
            // Fold the serving view into the unified profile: the root
            // span is the engine's execution; queue wait precedes it.
            if let Some(profile) = report.profile.as_mut() {
                profile.root.attrs.push((
                    "queue_wait_nanos".to_string(),
                    AttrValue::U64(queue_wait_nanos),
                ));
                profile
                    .root
                    .attrs
                    .push(("outcome".to_string(), AttrValue::Str("ok".into())));
                if req.fp.is_some() {
                    profile
                        .root
                        .attrs
                        .push(("cache".to_string(), AttrValue::Str("miss".into())));
                }
            }
        }
        OkKind::CacheHit | OkKind::Coalesced => {
            // Memoized deliveries carry no engine profile (it was stripped
            // at insert); synthesize a root span so `EXPLAIN ANALYZE`
            // consumers still see where the bytes came from.
            let trace = blend_obs::trace_begin("query");
            trace.attr_str("outcome", kind.label());
            trace.attr_str(
                "cache",
                if kind == OkKind::CacheHit {
                    "hit"
                } else {
                    "coalesced"
                },
            );
            trace.attr_u64("queue_wait_nanos", queue_wait_nanos);
            trace.attr_u64("rows", memo.columns.len() as u64);
            trace.attr_u64("result_bytes", memo.bytes as u64);
            report.profile = trace.finish();
        }
    }
    req.resolve(Ok((memo, report)));
}

/// Count and resolve a failed request with its typed error.
fn finish_err(core: &Core, req: &Request, e: BlendError, _exec: Duration) {
    let s = &core.stats;
    let m = serve_metrics();
    match &e {
        BlendError::Timeout(_) => {
            s.timeouts.fetch_add(1, Ordering::Relaxed);
            m.timeouts.inc();
        }
        BlendError::Cancelled(_) => {
            s.cancellations.fetch_add(1, Ordering::Relaxed);
            m.cancellations.inc();
        }
        BlendError::MemoryExceeded(_) => {
            s.mem_exceeded.fetch_add(1, Ordering::Relaxed);
            m.mem_exceeded.inc();
        }
        _ => {
            s.failures.fetch_add(1, Ordering::Relaxed);
            m.failures.inc();
        }
    }
    req.resolve(Err(e));
}

/// Run one request to a typed outcome. Never unwinds: a poisoned (or
/// otherwise panicking) execution is caught and surfaced as `Err(SqlExec)`.
fn serve_one(
    core: &Core,
    req: &Request,
    poisoned: &mut bool,
) -> Result<(ResultColumns, QueryReport)> {
    // A request that expired or was cancelled while queued never executes.
    req.interrupt.check()?;

    // The execution slot: one admission token held for the whole request,
    // acquired under the request's own deadline. Under overload this is
    // where queued requests time out instead of piling onto the pool.
    // Cache hits and coalesced waiters never reach this point — a group of
    // N fingerprint-equal requests costs one admission grant.
    //
    // This wait is most of why `serve.exec_ms` read about 2 × `sql.exec_ms`
    // on `served_zipf`. Measured on traced passes (seed 1; 800 requests, two
    // clients, two cores, so budget = threads - 1 = one token): with row
    // entries 281 requests missed and averaged 11.6 ms against 5.6, of which
    // 4.0 ms were spent here (1.13 s a pass, in the 94 misses that met the
    // other client's miss) and 2.5 ms were the mix — `sql.exec_ms` is every
    // template once, the misses are the costly ones (8.1 ms run directly);
    // the executions themselves ran at direct speed (median ratio 1.06).
    // With columnar entries 148 miss, 70 of them MC results no 96 KiB shard
    // holds (11.3 ms directly, 7.4 served: no rows are built), two misses
    // seldom meet (1.1 ms a miss, 165 ms a pass) and the ratio is 1.27. One
    // token is right on two cores: a second would run two executions beside
    // the clients' own row builds.
    let admission = core.engine.parallel_ctx().admission().clone();
    let _slot = admission.acquire_within(1, &req.interrupt)?;

    *poisoned |= apply_faults(core, SITE_EXEC, req);
    let poison = *poisoned;

    let engine = core.engine.clone();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if poison {
            panic!("injected poison fault");
        }
        match &req.ast {
            Some(ast) => {
                engine.execute_parsed_interruptible(ast, ExecPath::Auto, req.interrupt.clone())
            }
            None => engine.execute_columns_interruptible(
                &req.sql,
                ExecPath::Auto,
                req.interrupt.clone(),
            ),
        }
    }));
    match outcome {
        Ok(result) => result,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".into());
            Err(BlendError::SqlExec(format!("request panicked: {msg}")))
        }
    }
}

/// Apply this site's fault actions to `req`. Returns true if a `Poison`
/// fired (the caller panics at the execution site, inside `catch_unwind`).
fn apply_faults(core: &Core, site: &str, req: &Request) -> bool {
    let mut poison = false;
    for action in core.faults.fire(site) {
        match action {
            FaultAction::Delay(d) => std::thread::sleep(d),
            FaultAction::Cancel => req.interrupt.token().cancel(),
            FaultAction::Poison => poison = true,
            // Alloc faults are armed on the governor at queue construction,
            // not fired at a pipeline site.
            FaultAction::FailAlloc => {}
        }
    }
    poison
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultAction, SITE_EXEC};
    use blend_parallel::ParallelCtx;
    use blend_storage::{build_engine, EngineKind, FactRow};
    use std::time::Duration;

    fn test_engine() -> Arc<SqlEngine> {
        let mut rows = Vec::new();
        for t in 0..3u32 {
            for r in 0..4u32 {
                let sk = 1u128 << (t * 8 + r);
                rows.push(FactRow::new(
                    &format!("v{}", (t + r) % 5),
                    t,
                    0,
                    r,
                    sk,
                    None,
                ));
                rows.push(FactRow::new(&r.to_string(), t, 1, r, sk, Some(r % 2 == 0)));
            }
        }
        let fact = build_engine(EngineKind::Column, rows);
        Arc::new(SqlEngine::with_alltables(fact).with_parallel(Arc::new(ParallelCtx::sequential())))
    }

    const SQL: &str = "SELECT TableId, RowId, CellValue FROM AllTables \
                       ORDER BY TableId, RowId, CellValue LIMIT 5";

    #[test]
    fn serves_and_records_telemetry() {
        let queue = ServeQueue::new(test_engine(), ServeConfig::default());
        let ticket = queue.submit(SQL, Deadline::none()).unwrap();
        let (rs, report) = ticket.wait().unwrap();
        assert_eq!(rs.len(), 5);
        let serving = report.serving.expect("serving telemetry attached");
        assert_eq!(serving.outcome, "ok");
        assert!(serving.exec_nanos > 0);
        let stats = queue.stats();
        assert_eq!((stats.submitted, stats.ok, stats.shed), (1, 1, 0));
    }

    #[test]
    fn repeat_query_is_served_from_cache_byte_identically() {
        // The row store hands out dense text, the column store its own
        // codes (detached on the way into the cache): both deliveries are
        // the direct engine's rows, value for value and label for label.
        for kind in [EngineKind::Row, EngineKind::Column] {
            let engine = mc_engine(kind);
            let want = engine.execute(SQL).unwrap();
            let queue = ServeQueue::new(
                engine,
                ServeConfig {
                    result_cache_bytes: 1 << 20,
                    ..ServeConfig::default()
                },
            );
            let fresh = queue.submit(SQL, Deadline::none()).unwrap().wait().unwrap();
            // Different spelling, same fingerprint: must hit.
            let variant = "select tableid, rowid, cellvalue from alltables \
                           order by tableid, rowid, cellvalue limit 5";
            let hit = queue
                .submit(variant, Deadline::none())
                .unwrap()
                .wait()
                .unwrap();
            for (how, got) in [("fresh", &fresh.0), ("cache hit", &hit.0)] {
                assert_eq!(got.columns, want.columns, "{kind:?}: {how} labels");
                assert_eq!(
                    got.rows, want.rows,
                    "{kind:?}: {how} must be byte-identical"
                );
            }
            let serving = hit.1.serving.expect("serving telemetry attached");
            assert_eq!(serving.outcome, "cache_hit");
            let stats = queue.stats();
            assert_eq!((stats.ok, stats.cache_hits), (1, 1));
            assert_eq!(queue.cached_results(), 1);
        }
    }

    /// 60 tables × 40 rows of two text columns over a 12-word vocabulary:
    /// every word pair meets in many rows, so [`MC_SQL`] joins thousands.
    fn mc_engine(kind: EngineKind) -> Arc<SqlEngine> {
        let mut rows = Vec::new();
        for t in 0..60u32 {
            for r in 0..40u32 {
                let sk = ((t as u128) << 64) | r as u128;
                rows.push(FactRow::new(
                    &format!("w{}", (t + r) % 12),
                    t,
                    0,
                    r,
                    sk,
                    None,
                ));
                let other = format!("w{}", (t * 7 + r * 5) % 12);
                rows.push(FactRow::new(&other, t, 1, r, sk, None));
            }
        }
        let fact = build_engine(kind, rows);
        Arc::new(SqlEngine::with_alltables(fact).with_parallel(Arc::new(ParallelCtx::sequential())))
    }

    /// The MC seeker's SQL for a query table of 2 columns × 10 rows.
    const MC_SQL: &str = "SELECT q0.TableId AS tid, q0.RowId AS rid, q0.SuperKey AS sk, \
         q0.CellValue AS v0, q0.ColumnId AS c0, q1.CellValue AS v1, q1.ColumnId AS c1 \
         FROM (SELECT * FROM AllTables WHERE CellValue IN \
         ('w0','w1','w2','w3','w4','w5','w6','w7','w8','w9')) AS q0 \
         INNER JOIN (SELECT * FROM AllTables WHERE CellValue IN \
         ('w1','w3','w5','w7','w9','w11','w0','w2','w4','w6')) AS q1 \
         ON q0.TableId = q1.TableId AND q0.RowId = q1.RowId";

    /// Block until `ticket` resolves `Ok` and return the shared columns it
    /// resolved with, leaving the ticket unread.
    fn resolved_with(ticket: &Ticket) -> Arc<CachedResult> {
        let mut slot = ticket.req.outcome.lock().unwrap();
        loop {
            if let Some(outcome) = slot.as_ref() {
                return Arc::clone(&outcome.as_ref().expect("request succeeds").0);
            }
            slot = ticket.req.done.wait(slot).unwrap();
        }
    }

    #[test]
    fn benchmark_shaped_mc_is_a_cache_hit_on_its_second_submission() {
        // A shard of 512 KiB: the result fits as columns and would not as
        // rows, which is what kept the big MC templates executing.
        const SHARD: usize = 512 << 10;
        let queue = ServeQueue::new(
            mc_engine(EngineKind::Column),
            ServeConfig {
                result_cache_bytes: 8 * SHARD,
                ..ServeConfig::default()
            },
        );
        let (rows, _) = queue
            .submit(MC_SQL, Deadline::none())
            .unwrap()
            .wait()
            .unwrap();
        assert!(
            rows.approx_bytes() > SHARD,
            "{} B of rows",
            rows.approx_bytes()
        );
        assert!(queue.result_cache().bytes() < SHARD);
        let (again, report) = queue
            .submit(MC_SQL, Deadline::none())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(report.serving.unwrap().outcome, "cache_hit");
        assert_eq!(again, rows);
    }

    #[test]
    fn oversized_result_is_served_never_cached_and_never_copied() {
        const BURST: usize = 12;
        for coalesce in [true, false] {
            let queue = ServeQueue::new(
                mc_engine(EngineKind::Column),
                ServeConfig {
                    depth: BURST,
                    // No shard holds the result's columns.
                    result_cache_bytes: 8 << 10,
                    coalesce,
                    // Hold the first execution until the burst is in.
                    faults: FaultPlan::none().with(
                        SITE_EXEC,
                        FaultAction::Delay(Duration::from_millis(200)),
                        1_000_000,
                    ),
                    ..ServeConfig::default()
                },
            );
            let tickets: Vec<Ticket> = (0..BURST)
                .map(|_| queue.submit(MC_SQL, Deadline::none()).unwrap())
                .collect();
            let shared: Vec<Arc<CachedResult>> = tickets.iter().map(resolved_with).collect();
            assert!(shared[0].bytes > 8 << 10);
            let stats = queue.stats();
            if coalesce {
                // One execution, one allocation, a handle per ticket.
                assert_eq!((stats.ok, stats.coalesced_hits), (1, BURST as u64 - 1));
                assert!(shared.iter().all(|s| Arc::ptr_eq(s, &shared[0])));
            } else {
                // Twelve executions; the refused insert left no copy.
                assert_eq!((stats.ok, stats.coalesced_hits), (BURST as u64, 0));
                assert!(shared[1..].iter().all(|s| !Arc::ptr_eq(s, &shared[0])));
            }
            assert_eq!(queue.cached_results(), 0, "coalesce={coalesce}");
            let want = shared[0].columns.to_result_set();
            drop(shared);
            // The tickets' handles are the only ones: the queue kept none.
            let handles = |t: &Ticket| Arc::strong_count(&resolved_with(t)) - 1;
            drop(queue);
            let per_ticket = if coalesce { BURST } else { 1 };
            assert!(tickets.iter().all(|t| handles(t) == per_ticket));
            for ticket in tickets {
                assert_eq!(ticket.wait().unwrap().0, want);
            }
        }
    }

    #[test]
    fn cache_disabled_executes_every_time() {
        let queue = ServeQueue::new(
            test_engine(),
            ServeConfig {
                result_cache_bytes: 0,
                coalesce: false,
                ..ServeConfig::default()
            },
        );
        for _ in 0..3 {
            queue.submit(SQL, Deadline::none()).unwrap().wait().unwrap();
        }
        let stats = queue.stats();
        assert_eq!(
            (stats.ok, stats.cache_hits, stats.coalesced_hits),
            (3, 0, 0)
        );
        assert_eq!(queue.cached_results(), 0);
    }

    #[test]
    fn rebuild_invalidates_cached_results() {
        let engine = test_engine();
        let queue = ServeQueue::new(
            engine.clone(),
            ServeConfig {
                result_cache_bytes: 1 << 20,
                ..ServeConfig::default()
            },
        );
        queue.submit(SQL, Deadline::none()).unwrap().wait().unwrap();
        assert_eq!(queue.cached_results(), 1);
        // Swap the catalog (bumps the store generation): the cached entry
        // must not serve the next fingerprint-equal request.
        let mut rows = Vec::new();
        for r in 0..4u32 {
            rows.push(FactRow::new("swapped", 9, 0, r, 1 << r, None));
        }
        engine.replace_table("alltables", build_engine(EngineKind::Column, rows));
        let (rs, report) = queue.submit(SQL, Deadline::none()).unwrap().wait().unwrap();
        assert_eq!(
            report.serving.unwrap().outcome,
            "ok",
            "post-rebuild must re-execute"
        );
        assert!(
            rs.rows
                .iter()
                .all(|row| row[0] == blend_sql::SqlValue::from(9i64)),
            "post-rebuild result reflects the new catalog"
        );
        assert_eq!(queue.stats().cache_hits, 0);
    }

    #[test]
    fn sheds_when_full_and_resolves_queued_on_shutdown() {
        let queue = ServeQueue::new(
            test_engine(),
            ServeConfig {
                depth: 2,
                workers: 0, // nothing drains: shedding is deterministic
                ..ServeConfig::default()
            },
        );
        let t1 = queue.submit(SQL, Deadline::none()).unwrap();
        let t2 = queue.submit(SQL, Deadline::none()).unwrap();
        let shed = queue.submit(SQL, Deadline::none());
        assert!(
            matches!(&shed, Err(BlendError::Overloaded(_))),
            "third submit must shed"
        );
        assert_eq!(queue.stats().shed, 1);
        drop(queue);
        for t in [t1, t2] {
            assert!(matches!(t.wait(), Err(BlendError::Cancelled(_))));
        }
    }

    #[test]
    fn expired_deadline_resolves_timeout_without_executing() {
        let queue = ServeQueue::new(test_engine(), ServeConfig::default());
        let ticket = queue.submit(SQL, Deadline::after(Duration::ZERO)).unwrap();
        assert!(matches!(ticket.wait(), Err(BlendError::Timeout(_))));
        assert_eq!(queue.stats().timeouts, 1);
    }

    #[test]
    fn cancelled_ticket_resolves_cancelled() {
        let queue = ServeQueue::new(
            test_engine(),
            ServeConfig {
                depth: 4,
                workers: 0,
                ..ServeConfig::default()
            },
        );
        let ticket = queue.submit(SQL, Deadline::none()).unwrap();
        ticket.cancel();
        // No workers: resolution happens at shutdown, but the token is
        // already tripped so a (hypothetical) late worker would refuse it.
        assert!(ticket.req.interrupt.token().is_cancelled());
    }

    #[test]
    fn poisoned_request_fails_but_thread_survives() {
        let queue = ServeQueue::new(
            test_engine(),
            ServeConfig {
                depth: 8,
                workers: 1,
                // Poison the first exec, leave the rest alone.
                faults: FaultPlan::none().with(SITE_EXEC, FaultAction::Poison, 1_000_000),
                ..ServeConfig::default()
            },
        );
        let bad = queue.submit(SQL, Deadline::none()).unwrap();
        let err = bad.wait().unwrap_err();
        assert!(
            matches!(&err, BlendError::SqlExec(m) if m.contains("panicked")),
            "poisoned request surfaces a typed error: {err}"
        );
        // Same serving thread keeps serving (every=1_000_000 only hits once).
        let ok = queue.submit(SQL, Deadline::none()).unwrap();
        assert!(ok.wait().is_ok(), "serving thread died after poison");
        assert_eq!(queue.stats().failures, 1);
    }
}
