//! Byte-budgeted memory governance: the reservation protocol and the
//! degradation ladder.
//!
//! Nothing in the executor bounded what a single query allocates — one
//! pathological join build or group state could OOM the process and kill
//! every in-flight request, defeating the typed-outcome guarantees of the
//! serving tier. This module is the missing robustness rung: a
//! process-global [`MemoryGovernor`] holds a byte budget
//! (`BLEND_MEMORY_BUDGET`, see [`settings`]; unset/0 =
//! unbounded) and hands out hierarchical RAII reservations, so memory
//! pressure degrades queries *gracefully* — shrink, serialize, shed; never
//! crash.
//!
//! ## The reservation protocol (who reserves, where it's checked)
//!
//! * **Governor** — one per process ([`MemoryGovernor::global`]), owning
//!   the budget and the authoritative reserved-bytes count. Tests build
//!   private governors with [`MemoryGovernor::with_budget`].
//! * **Query** — the engine creates one [`QueryMemory`] per query and
//!   scopes it onto the shared `ParallelCtx`
//!   (`ParallelCtx::with_query_memory`), exactly like the per-request
//!   `Interrupt`. It charges the governor and tracks this query's
//!   current/peak bytes for the `QueryProfile` root attrs.
//! * **Operator** — every allocation-heavy site (join-table build, group
//!   index + aggregate state, radix scratch, scan selection/output
//!   vectors, result materialization, the serving result cache) asks the
//!   query's `QueryMemory` for a [`MemoryReservation`] *before*
//!   allocating. The reservation releases on `Drop`, so an early return —
//!   including a cancellation or a later `MemoryExceeded` — can never leak
//!   reserved bytes.
//!
//! ## The four-rung degradation ladder
//!
//! On reservation failure the system degrades in order, resolving typed
//! only when every rung is exhausted:
//!
//! 1. **Reclaim** — the governor invokes registered
//!    [`MemoryReclaimer`]s (the serving result cache registers itself; its
//!    byte pool is a *child* of this budget) to
//!    evict reclaimable bytes, then retries. This happens inside
//!    [`QueryMemory::try_reserve`], so every call site benefits.
//! 2. **Narrow** — parallel operators retry their reservation at half the
//!    granted worker width (fewer radix partitions, smaller per-worker
//!    scratch) via [`reserve_laddered`].
//! 3. **Serialize** — retry at width 1: the sequential path with minimal
//!    scratch.
//! 4. **Shed** — resolve the request with
//!    `BlendError::MemoryExceeded`. Cooperative, like cancellation: the
//!    reservation failure propagates as a typed `Err` through the same
//!    no-partial-results machinery, partials are discarded by `Drop`, and
//!    the engine stays fully serviceable.
//!
//! ## Interaction with cancellation
//!
//! Reservations and interrupts compose but never interfere: a reservation
//! failure is surfaced through the same `Result` channel as
//! `Timeout`/`Cancelled`, checked at the same phase boundaries, and the
//! RAII release runs on unwind-free early return. A query that is both
//! over budget and past deadline resolves with whichever check fires
//! first — exactly one typed outcome either way.
//!
//! ## Observability
//!
//! `blend_mem_reserved_bytes` (gauge, authoritative mirror),
//! `blend_mem_reservation_fail_total`, `blend_mem_exceeded_total`,
//! `blend_mem_reclaims_total`, and `blend_mem_reclaimed_bytes`
//! (histogram of bytes freed per reclaim pass). [`GovernorStats`] exposes
//! the same numbers plus per-rung ladder counters for tests.
//!
//! ## Fault injection
//!
//! [`MemoryGovernor::set_alloc_fail_every`] (which the serving tier calls
//! for an `alloc:fail[@every]` fault rule) makes every `every`-th
//! reservation attempt fail synthetically — reclaim cannot rescue it, so
//! the storm suite can prove each ladder rung fires without needing a
//! precisely tuned real budget.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

use blend_common::{BlendError, Result};

use crate::settings;

/// A pool that can give bytes back under pressure (rung 1 of the ladder).
/// The serving result cache is the canonical implementor.
pub trait MemoryReclaimer: Send + Sync {
    /// Try to free at least `needed` bytes; return the bytes actually
    /// freed (releasing them from the governor is the implementor's job —
    /// it charged them, it releases them).
    fn reclaim(&self, needed: usize) -> usize;
}

struct MemMetrics {
    reserved: Arc<blend_obs::Gauge>,
    fails: Arc<blend_obs::Counter>,
    exceeded: Arc<blend_obs::Counter>,
    reclaims: Arc<blend_obs::Counter>,
    reclaimed_bytes: Arc<blend_obs::Histogram>,
}

fn mem_metrics() -> &'static MemMetrics {
    static METRICS: OnceLock<MemMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = blend_obs::registry();
        MemMetrics {
            reserved: r.gauge("blend_mem_reserved_bytes"),
            fails: r.counter("blend_mem_reservation_fail_total"),
            exceeded: r.counter("blend_mem_exceeded_total"),
            reclaims: r.counter("blend_mem_reclaims_total"),
            reclaimed_bytes: r.histogram("blend_mem_reclaimed_bytes"),
        }
    })
}

/// Snapshot of the governor's counters (tests, diagnostics).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GovernorStats {
    /// Bytes currently reserved across all queries and pools.
    pub reserved: usize,
    /// Reservation attempts that failed (after reclaim, incl. injected).
    pub reservation_fails: u64,
    /// Reclaim passes run (rung 1 firings).
    pub reclaims: u64,
    /// Operators that succeeded at narrowed width (rung 2 firings).
    pub narrowed: u64,
    /// Operators that fell back to the sequential path (rung 3 firings).
    pub sequential_fallbacks: u64,
    /// Reservations that exhausted the ladder (rung 4 firings).
    pub exceeded: u64,
}

/// Process-global byte budget and the authoritative reserved count.
pub struct MemoryGovernor {
    /// `usize::MAX` = unbounded.
    budget: usize,
    reserved: AtomicUsize,
    reclaimers: Mutex<Vec<Weak<dyn MemoryReclaimer>>>,
    /// Reclaim passes currently running; the serving tier consults this to
    /// tighten admission while the system is shedding bytes.
    reclaims_in_flight: AtomicUsize,
    /// Injected failure rate: every `n`-th reservation attempt fails
    /// synthetically. 0 = off.
    fail_every: AtomicUsize,
    fault_hits: AtomicUsize,
    // Ladder counters.
    fails: AtomicU64,
    reclaims: AtomicU64,
    narrowed: AtomicU64,
    seq_fallbacks: AtomicU64,
    exceeded: AtomicU64,
}

impl std::fmt::Debug for MemoryGovernor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryGovernor")
            .field("budget", &self.budget)
            .field("reserved", &self.reserved.load(Ordering::Relaxed))
            .finish()
    }
}

impl MemoryGovernor {
    /// A governor with a concrete byte budget (`0` = unbounded).
    pub fn with_budget(budget_bytes: usize) -> MemoryGovernor {
        MemoryGovernor {
            budget: if budget_bytes == 0 {
                usize::MAX
            } else {
                budget_bytes
            },
            reserved: AtomicUsize::new(0),
            reclaimers: Mutex::new(Vec::new()),
            reclaims_in_flight: AtomicUsize::new(0),
            fail_every: AtomicUsize::new(0),
            fault_hits: AtomicUsize::new(0),
            fails: AtomicU64::new(0),
            reclaims: AtomicU64::new(0),
            narrowed: AtomicU64::new(0),
            seq_fallbacks: AtomicU64::new(0),
            exceeded: AtomicU64::new(0),
        }
    }

    /// An unbounded governor (every reservation succeeds without touching
    /// the global count).
    pub fn unbounded() -> MemoryGovernor {
        MemoryGovernor::with_budget(0)
    }

    /// The process-global governor, with its budget from
    /// `BLEND_MEMORY_BUDGET` ([`settings`]; unset or `0`
    /// is unbounded, and the governor stays off the hot path entirely).
    /// Every `ParallelCtx` built without an explicit governor shares this
    /// instance.
    pub fn global() -> &'static Arc<MemoryGovernor> {
        static GLOBAL: OnceLock<Arc<MemoryGovernor>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(MemoryGovernor::with_budget(settings::from_env().1)))
    }

    /// The byte budget; `usize::MAX` when unbounded.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// True when no budget bounds reservations.
    pub fn is_unbounded(&self) -> bool {
        self.budget == usize::MAX
    }

    /// Bytes currently reserved (authoritative; the
    /// `blend_mem_reserved_bytes` gauge mirrors this).
    pub fn reserved_bytes(&self) -> usize {
        self.reserved.load(Ordering::Relaxed)
    }

    /// True while at least one reclaim pass is running. The serving tier
    /// halves its effective queue depth while this holds, so new work
    /// queues (or sheds) instead of piling onto a system that is actively
    /// giving bytes back.
    pub fn reclaiming(&self) -> bool {
        self.reclaims_in_flight.load(Ordering::Relaxed) > 0
    }

    /// Arm synthetic reservation failure: every `every`-th attempt fails
    /// (0 disarms). Reclaim cannot rescue an injected failure, so the
    /// ladder's later rungs are exercised deterministically.
    pub fn set_alloc_fail_every(&self, every: usize) {
        self.fail_every.store(every, Ordering::Relaxed);
    }

    /// Register a reclaimable pool for rung 1. Dead weak handles are
    /// pruned on the next reclaim pass.
    pub fn register_reclaimer(&self, r: Weak<dyn MemoryReclaimer>) {
        self.reclaimers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(r);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> GovernorStats {
        GovernorStats {
            reserved: self.reserved_bytes(),
            reservation_fails: self.fails.load(Ordering::Relaxed),
            reclaims: self.reclaims.load(Ordering::Relaxed),
            narrowed: self.narrowed.load(Ordering::Relaxed),
            sequential_fallbacks: self.seq_fallbacks.load(Ordering::Relaxed),
            exceeded: self.exceeded.load(Ordering::Relaxed),
        }
    }

    /// True when this attempt should fail synthetically.
    fn injected_failure(&self) -> bool {
        let every = self.fail_every.load(Ordering::Relaxed);
        if every == 0 {
            return false;
        }
        let n = self.fault_hits.fetch_add(1, Ordering::Relaxed);
        n % every == every - 1
    }

    /// Charge `bytes` against the budget. On overflow, runs one reclaim
    /// pass (rung 1) and retries once. Returns whether the charge stuck.
    /// Callers own releasing via [`MemoryGovernor::release`].
    pub fn try_charge(&self, bytes: usize) -> bool {
        if self.injected_failure() {
            self.fails.fetch_add(1, Ordering::Relaxed);
            mem_metrics().fails.inc();
            return false;
        }
        if self.is_unbounded() {
            return true;
        }
        if self.charge_once(bytes) {
            return true;
        }
        // Rung 1: reclaim, then retry exactly once.
        self.run_reclaim(bytes);
        if self.charge_once(bytes) {
            return true;
        }
        self.fails.fetch_add(1, Ordering::Relaxed);
        mem_metrics().fails.inc();
        false
    }

    fn charge_once(&self, bytes: usize) -> bool {
        let prev = self.reserved.fetch_add(bytes, Ordering::Relaxed);
        if prev.saturating_add(bytes) > self.budget {
            self.reserved.fetch_sub(bytes, Ordering::Relaxed);
            return false;
        }
        mem_metrics().reserved.add(bytes as i64);
        true
    }

    /// Return previously charged bytes to the budget.
    pub fn release(&self, bytes: usize) {
        if self.is_unbounded() || bytes == 0 {
            return;
        }
        self.reserved.fetch_sub(bytes, Ordering::Relaxed);
        mem_metrics().reserved.add(-(bytes as i64));
    }

    /// One reclaim pass over the registered pools. Pools release their own
    /// charges; this only asks, counts, and prunes dead handles.
    fn run_reclaim(&self, needed: usize) {
        let live: Vec<Arc<dyn MemoryReclaimer>> = {
            let mut list = self.reclaimers.lock().unwrap_or_else(|e| e.into_inner());
            list.retain(|w| w.strong_count() > 0);
            list.iter().filter_map(Weak::upgrade).collect()
        };
        if live.is_empty() {
            return;
        }
        self.reclaims_in_flight.fetch_add(1, Ordering::Relaxed);
        self.reclaims.fetch_add(1, Ordering::Relaxed);
        let m = mem_metrics();
        m.reclaims.inc();
        let mut freed = 0usize;
        for pool in live {
            freed += pool.reclaim(needed.saturating_sub(freed));
            if freed >= needed {
                break;
            }
        }
        m.reclaimed_bytes.record(freed as u64);
        self.reclaims_in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    // Test-only rung bumps come through `reserve_laddered`.
    fn count_narrowed(&self) {
        self.narrowed.fetch_add(1, Ordering::Relaxed);
    }

    fn count_sequential(&self) {
        self.seq_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    fn count_exceeded(&self) {
        self.exceeded.fetch_add(1, Ordering::Relaxed);
        mem_metrics().exceeded.inc();
    }
}

/// Per-query memory scope: charges the governor, tracks this query's
/// current/peak bytes for profile attrs. One per query, created by the
/// engine and scoped onto the `ParallelCtx`.
#[derive(Debug)]
pub struct QueryMemory {
    gov: Arc<MemoryGovernor>,
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl QueryMemory {
    /// Fresh scope on a governor.
    pub fn new(gov: Arc<MemoryGovernor>) -> QueryMemory {
        QueryMemory {
            gov,
            current: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// The governor this scope charges.
    pub fn governor(&self) -> &Arc<MemoryGovernor> {
        &self.gov
    }

    /// Bytes this query currently holds.
    pub fn current_bytes(&self) -> usize {
        self.current.load(Ordering::Relaxed)
    }

    /// This query's high-water reservation.
    pub fn peak_bytes(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Reserve `bytes` for the operator at `site`. A zero-byte request
    /// always succeeds. On failure (after the governor's internal reclaim
    /// retry) returns `MemoryExceeded` naming the site — callers either
    /// ladder down ([`reserve_laddered`]) or propagate.
    pub fn try_reserve(
        self: &Arc<Self>,
        site: &'static str,
        bytes: usize,
    ) -> Result<MemoryReservation> {
        if !self.gov.try_charge(bytes) {
            return Err(BlendError::MemoryExceeded(format!(
                "{site} needs {bytes} B; budget {} B, reserved {} B",
                self.gov.budget(),
                self.gov.reserved_bytes()
            )));
        }
        self.note_acquired(bytes);
        Ok(MemoryReservation {
            qm: Arc::clone(self),
            bytes,
            site,
        })
    }

    fn note_acquired(&self, bytes: usize) {
        let cur = self.current.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(cur, Ordering::Relaxed);
    }

    fn note_released(&self, bytes: usize) {
        self.current.fetch_sub(bytes, Ordering::Relaxed);
        self.gov.release(bytes);
    }
}

/// RAII grant of budgeted bytes. Dropping it returns the bytes to the
/// query scope and the governor, so early returns (cancellation, a later
/// reservation failure) can never leak reserved bytes.
#[derive(Debug)]
pub struct MemoryReservation {
    qm: Arc<QueryMemory>,
    bytes: usize,
    site: &'static str,
}

impl MemoryReservation {
    /// Bytes this reservation holds.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Grow the reservation in place (e.g. result rows materializing past
    /// the up-front estimate). On failure the original grant is untouched.
    pub fn grow(&mut self, delta: usize) -> Result<()> {
        if !self.qm.gov.try_charge(delta) {
            return Err(BlendError::MemoryExceeded(format!(
                "{} grow needs {delta} B; budget {} B, reserved {} B",
                self.site,
                self.qm.gov.budget(),
                self.qm.gov.reserved_bytes()
            )));
        }
        self.qm.note_acquired(delta);
        self.bytes += delta;
        Ok(())
    }

    /// Give back part of the grant (shrunk scratch, truncated output).
    pub fn shrink(&mut self, delta: usize) {
        let delta = delta.min(self.bytes);
        self.bytes -= delta;
        self.qm.note_released(delta);
    }
}

impl Drop for MemoryReservation {
    fn drop(&mut self) {
        self.qm.note_released(self.bytes);
    }
}

/// Which rung of the ladder a reservation succeeded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderRung {
    /// Full requested width.
    Full,
    /// Half width (rung 2).
    Narrowed,
    /// Width 1, the sequential path (rung 3).
    Sequential,
}

/// Reserve memory for a width-scalable operator, walking the degradation
/// ladder: full width → half width → sequential. `cost(w)` prices the
/// operator's allocations at worker width `w`. Returns the reservation,
/// the width it was granted at, and the rung that succeeded; errors with
/// `MemoryExceeded` only when even the sequential footprint does not fit
/// (rung 4).
pub fn reserve_laddered(
    qm: &Arc<QueryMemory>,
    site: &'static str,
    desired_width: usize,
    cost: impl Fn(usize) -> usize,
) -> Result<(MemoryReservation, usize, LadderRung)> {
    let desired = desired_width.max(1);
    let mut rungs = [(desired, LadderRung::Full), (0, LadderRung::Narrowed)];
    let mut n = 1;
    if desired / 2 > 1 {
        rungs[1] = (desired / 2, LadderRung::Narrowed);
        n = 2;
    }
    let mut last_err = None;
    for &(w, rung) in &rungs[..n] {
        match qm.try_reserve(site, cost(w)) {
            Ok(res) => {
                if rung == LadderRung::Narrowed {
                    qm.governor().count_narrowed();
                }
                return Ok((res, w, rung));
            }
            Err(e) => last_err = Some(e),
        }
    }
    if desired > 1 {
        // Rung 3: the sequential path.
        if let Ok(res) = qm.try_reserve(site, cost(1)) {
            qm.governor().count_sequential();
            return Ok((res, 1, LadderRung::Sequential));
        }
    }
    qm.governor().count_exceeded();
    Err(last_err.unwrap_or_else(|| {
        BlendError::MemoryExceeded(format!("{site}: sequential footprint over budget"))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scope(budget: usize) -> Arc<QueryMemory> {
        Arc::new(QueryMemory::new(Arc::new(MemoryGovernor::with_budget(
            budget,
        ))))
    }

    #[test]
    fn unbounded_reservations_always_succeed_without_charging() {
        let qm = scope(0);
        assert!(qm.governor().is_unbounded());
        let r = qm.try_reserve("scan", usize::MAX / 2).unwrap();
        assert_eq!(qm.governor().reserved_bytes(), 0, "no global charge");
        assert_eq!(qm.peak_bytes(), usize::MAX / 2, "query peak still tracked");
        drop(r);
        assert_eq!(qm.current_bytes(), 0);
    }

    #[test]
    fn bounded_reservations_charge_and_release() {
        let qm = scope(1000);
        let a = qm.try_reserve("join_build", 600).unwrap();
        assert_eq!(qm.governor().reserved_bytes(), 600);
        let err = qm.try_reserve("group", 500).unwrap_err();
        assert!(matches!(&err, BlendError::MemoryExceeded(m) if m.contains("group")));
        drop(a);
        assert_eq!(qm.governor().reserved_bytes(), 0);
        let _b = qm.try_reserve("group", 500).unwrap();
        assert_eq!(qm.peak_bytes(), 600);
        assert_eq!(qm.governor().stats().reservation_fails, 1);
    }

    #[test]
    fn grow_and_shrink_adjust_in_place() {
        let qm = scope(1000);
        let mut r = qm.try_reserve("result", 400).unwrap();
        r.grow(300).unwrap();
        assert_eq!(r.bytes(), 700);
        assert!(r.grow(400).is_err(), "grow past budget fails typed");
        assert_eq!(r.bytes(), 700, "failed grow leaves grant untouched");
        r.shrink(200);
        assert_eq!(qm.governor().reserved_bytes(), 500);
        drop(r);
        assert_eq!(qm.governor().reserved_bytes(), 0);
    }

    #[test]
    fn ladder_narrows_then_serializes_then_sheds() {
        // cost(w) = w * 100: full width 8 → 800, half 4 → 400, seq → 100.
        let cost = |w: usize| w * 100;

        let qm = scope(1000);
        let (r, w, rung) = reserve_laddered(&qm, "join", 8, cost).unwrap();
        assert_eq!((w, rung), (8, LadderRung::Full));
        drop(r);

        let qm = scope(500);
        let (r, w, rung) = reserve_laddered(&qm, "join", 8, cost).unwrap();
        assert_eq!((w, rung), (4, LadderRung::Narrowed));
        assert_eq!(qm.governor().stats().narrowed, 1);
        drop(r);

        let qm = scope(150);
        let (r, w, rung) = reserve_laddered(&qm, "join", 8, cost).unwrap();
        assert_eq!((w, rung), (1, LadderRung::Sequential));
        assert_eq!(qm.governor().stats().sequential_fallbacks, 1);
        drop(r);

        let qm = scope(50);
        let err = reserve_laddered(&qm, "join", 8, cost).unwrap_err();
        assert!(matches!(err, BlendError::MemoryExceeded(_)));
        assert_eq!(qm.governor().stats().exceeded, 1);
        assert_eq!(qm.governor().reserved_bytes(), 0, "nothing leaked");
    }

    #[test]
    fn reclaimer_rescues_a_failing_reservation() {
        struct Pool {
            gov: Arc<MemoryGovernor>,
            held: Mutex<usize>,
        }
        impl MemoryReclaimer for Pool {
            fn reclaim(&self, _needed: usize) -> usize {
                let mut held = self.held.lock().unwrap();
                let freed = *held;
                *held = 0;
                self.gov.release(freed);
                freed
            }
        }
        let gov = Arc::new(MemoryGovernor::with_budget(1000));
        assert!(gov.try_charge(800));
        let pool = Arc::new(Pool {
            gov: gov.clone(),
            held: Mutex::new(800),
        });
        gov.register_reclaimer(Arc::downgrade(&pool) as Weak<dyn MemoryReclaimer>);

        let qm = Arc::new(QueryMemory::new(gov.clone()));
        // 600 doesn't fit beside the pool's 800 — reclaim must rescue it.
        let r = qm.try_reserve("join_build", 600).unwrap();
        assert_eq!(gov.stats().reclaims, 1);
        assert_eq!(gov.reserved_bytes(), 600);
        drop(r);
    }

    #[test]
    fn injected_alloc_faults_fail_at_the_configured_rate() {
        let qm = scope(0); // unbounded: only injection can fail
        qm.governor().set_alloc_fail_every(3);
        let outcomes: Vec<bool> = (0..9).map(|_| qm.try_reserve("scan", 64).is_ok()).collect();
        assert_eq!(outcomes.iter().filter(|ok| !**ok).count(), 3);
        qm.governor().set_alloc_fail_every(0);
        assert!(qm.try_reserve("scan", 64).is_ok());
    }
}
