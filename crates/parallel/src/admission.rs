//! Admission control: a machine-wide budget of execution tokens.
//!
//! An [`Admission`] controller holds a fixed budget of tokens. The serving
//! tier takes one per request for the whole of its execution
//! ([`acquire_within`](Admission::acquire_within)) and returns it by
//! dropping the [`AdmissionGrant`], so at most `budget` requests execute
//! at once however many clients submit. `acquire_within` blocks until a
//! token is free, or the [`Interrupt`] fires (`Interrupt::never()` waits
//! for the token): the queue prefers queuing over oversubscription. The
//! concurrency suite's proptest pins its liveness: random grant/release
//! sequences never exceed the budget and always drain.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use blend_common::Result;

use crate::cancel::Interrupt;

/// Lock a mutex, recovering from poisoning: no code panics while holding
/// the controller's lock, and recovery keeps the budget serviceable even if
/// that ever changed.
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Admission metric cells (`blend_admission_*`), resolved once and shared
/// by every controller in the process.
struct AdmissionMetrics {
    /// Tokens currently held by live grants.
    tokens_in_use: Arc<blend_obs::Gauge>,
    /// Non-empty grants handed out.
    grants: Arc<blend_obs::Counter>,
    /// Time spent in `acquire_within`.
    acquire_wait: Arc<blend_obs::Histogram>,
}

fn admission_metrics() -> &'static AdmissionMetrics {
    static METRICS: OnceLock<AdmissionMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = blend_obs::registry();
        AdmissionMetrics {
            tokens_in_use: r.gauge("blend_admission_tokens_in_use"),
            grants: r.counter("blend_admission_grants_total"),
            acquire_wait: r.histogram("blend_admission_acquire_wait_nanos"),
        }
    })
}

/// A token-bucket admission controller. Cheap to share (`Arc`); the
/// process-shared context owns one of `threads - 1` tokens, tests build
/// their own to force contention.
#[derive(Debug)]
pub struct Admission {
    budget: usize,
    available: Mutex<usize>,
    released: Condvar,
}

impl Admission {
    /// Controller with `budget` grantable tokens.
    pub fn new(budget: usize) -> Arc<Admission> {
        Arc::new(Admission {
            budget,
            available: Mutex::new(budget),
            released: Condvar::new(),
        })
    }

    /// The total token budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Tokens not currently granted (a snapshot; immediately stale under
    /// concurrency — tests use it only at quiescent points).
    pub fn available(&self) -> usize {
        *lock_clean(&self.available)
    }

    /// Take up to `desired` tokens, blocking until at least one is free,
    /// the deadline expires, or the token is cancelled — whichever comes
    /// first. Returns the typed
    /// `Err(Timeout)` / `Err(Cancelled)` instead of waiting forever, and
    /// never holds tokens on the error path (the grant is only assembled
    /// after a successful wait, so nothing can leak).
    ///
    /// `desired == 0` or a zero budget returns an empty grant
    /// immediately — a degenerate controller must not turn
    /// every request into a timeout.
    pub fn acquire_within(
        self: &Arc<Self>,
        desired: usize,
        interrupt: &Interrupt,
    ) -> Result<AdmissionGrant> {
        if desired == 0 || self.budget == 0 {
            return Ok(AdmissionGrant::empty());
        }
        // Poll the interrupt at least this often even while blocked, so a
        // cancel (which has no wakeup edge on this condvar) is observed
        // promptly rather than only on the next release.
        const CANCEL_POLL: Duration = Duration::from_millis(10);
        let start = Instant::now();
        let mut available = lock_clean(&self.available);
        while *available == 0 {
            if let Err(e) = interrupt.check() {
                drop(available);
                admission_metrics()
                    .acquire_wait
                    .record(start.elapsed().as_nanos() as u64);
                return Err(e);
            }
            let wait = match interrupt.deadline().remaining() {
                Some(left) => left.min(CANCEL_POLL),
                None => CANCEL_POLL,
            };
            let (guard, _timed_out) = self
                .released
                .wait_timeout(available, wait)
                .unwrap_or_else(|e| e.into_inner());
            available = guard;
        }
        interrupt.check()?;
        let tokens = (*available).min(desired);
        *available -= tokens;
        drop(available);
        let m = admission_metrics();
        m.acquire_wait.record(start.elapsed().as_nanos() as u64);
        m.tokens_in_use.add(tokens as i64);
        m.grants.inc();
        Ok(AdmissionGrant {
            admission: Some(self.clone()),
            tokens,
        })
    }

    fn release(&self, tokens: usize) {
        admission_metrics().tokens_in_use.add(-(tokens as i64));
        let mut available = lock_clean(&self.available);
        *available += tokens;
        debug_assert!(*available <= self.budget, "token over-release");
        drop(available);
        // Wake every waiter: a release of k tokens may satisfy several
        // blocked acquires, and waking all of them (rather than one) rules
        // out lost wakeups.
        self.released.notify_all();
    }
}

/// RAII token grant: holds `tokens` tokens until dropped.
#[derive(Debug)]
pub struct AdmissionGrant {
    /// `None` for empty grants, which hold nothing and release nothing.
    admission: Option<Arc<Admission>>,
    tokens: usize,
}

impl AdmissionGrant {
    /// A grant of zero tokens (what a zero budget hands out).
    pub fn empty() -> AdmissionGrant {
        AdmissionGrant {
            admission: None,
            tokens: 0,
        }
    }

    /// Number of tokens held.
    pub fn tokens(&self) -> usize {
        self.tokens
    }

    /// True when no tokens were granted.
    pub fn is_empty(&self) -> bool {
        self.tokens == 0
    }
}

impl Drop for AdmissionGrant {
    fn drop(&mut self) {
        if let Some(admission) = self.admission.take() {
            admission.release(self.tokens);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_share_the_budget_and_return_on_drop() {
        let adm = Admission::new(3);
        let never = Interrupt::never();
        let g1 = adm.acquire_within(2, &never).unwrap();
        assert_eq!(g1.tokens(), 2);
        let g2 = adm.acquire_within(2, &never).unwrap();
        assert_eq!(g2.tokens(), 1, "partial grant under pressure");
        assert_eq!(adm.available(), 0);
        drop(g1);
        assert_eq!(adm.available(), 2);
        drop(g2);
        assert_eq!(adm.available(), 3);
    }

    #[test]
    fn zero_budget_never_blocks() {
        let adm = Admission::new(0);
        let never = Interrupt::never();
        let grant = adm.acquire_within(4, &never).unwrap();
        assert!(grant.is_empty(), "acquire on zero budget returns");
        assert!(adm.acquire_within(0, &never).unwrap().is_empty());
    }

    #[test]
    fn acquire_blocks_until_release() {
        let adm = Admission::new(1);
        let held = adm.acquire_within(1, &Interrupt::never()).unwrap();
        assert_eq!(held.tokens(), 1);
        let adm2 = adm.clone();
        let waiter = std::thread::spawn(move || {
            adm2.acquire_within(1, &Interrupt::never())
                .unwrap()
                .tokens()
        });
        // Give the waiter time to block, then release.
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(held);
        assert_eq!(waiter.join().unwrap(), 1);
        assert_eq!(adm.available(), 1);
    }

    #[test]
    fn desired_is_capped_by_budget() {
        let adm = Admission::new(2);
        let g = adm.acquire_within(100, &Interrupt::never()).unwrap();
        assert_eq!(g.tokens(), 2);
    }

    #[test]
    fn acquire_within_times_out_on_full_budget() {
        use crate::cancel::{CancellationToken, Deadline, Interrupt};
        let adm = Admission::new(1);
        let held = adm.acquire_within(1, &Interrupt::never()).unwrap();
        let i = Interrupt::new(
            CancellationToken::new(),
            Deadline::after(std::time::Duration::from_millis(5)),
        );
        let err = adm.acquire_within(1, &i).unwrap_err();
        assert!(matches!(err, blend_common::BlendError::Timeout(_)));
        drop(held);
        assert_eq!(adm.available(), 1, "no tokens leaked by the timeout");
        let g = adm.acquire_within(1, &Interrupt::never()).unwrap();
        assert_eq!(g.tokens(), 1);
    }

    #[test]
    fn acquire_within_observes_cancel_while_blocked() {
        use crate::cancel::{CancellationToken, Deadline, Interrupt};
        let adm = Admission::new(1);
        let held = adm.acquire_within(1, &Interrupt::never()).unwrap();
        let token = CancellationToken::new();
        let i = Interrupt::new(token.clone(), Deadline::none());
        let adm2 = adm.clone();
        let waiter = std::thread::spawn(move || adm2.acquire_within(1, &i));
        std::thread::sleep(std::time::Duration::from_millis(30));
        token.cancel();
        let err = waiter.join().unwrap().unwrap_err();
        assert!(matches!(err, blend_common::BlendError::Cancelled(_)));
        drop(held);
        assert_eq!(adm.available(), 1);
    }

    #[test]
    fn acquire_within_zero_budget_returns_empty_not_timeout() {
        use crate::cancel::{CancellationToken, Deadline, Interrupt};
        let adm = Admission::new(0);
        let i = Interrupt::new(CancellationToken::new(), Deadline::after(Duration::ZERO));
        let g = adm.acquire_within(4, &i).unwrap();
        assert!(g.is_empty());
    }
}
