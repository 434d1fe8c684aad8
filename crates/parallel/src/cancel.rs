//! Cooperative cancellation and deadlines for in-flight queries.
//!
//! The serving tier needs two ways to stop a query that is already
//! running: a client-driven **cancellation token** (the client went away,
//! or an operator killed the request) and a **deadline** (the request's
//! latency budget expired). Both are *cooperative*: nothing preempts a
//! query mid-chunk. Instead an [`Interrupt`] — the pair of token and
//! deadline — rides on the `ParallelCtx` handed down to the executor, and
//! well-known sites poll it:
//!
//! * `Admission::acquire_within` re-checks before and during every blocked
//!   wait, so a queued request can never sleep past its deadline.
//! * The positional executor calls [`Interrupt::check`] at every phase
//!   boundary (scan → join build → probe → group → global agg) and once
//!   per chunk inside every scan, probe, group and expression loop.
//! * The plan executor checks between seekers.
//!
//! A check that fires returns a typed `BlendError::{Cancelled, Timeout}`
//! through the operator's `Result`, and every partial output is dropped on
//! the way out: the **no-partial-results guarantee**. A query either
//! completes and returns the same output as an uninterrupted run, or
//! returns the typed error and nothing else escapes.
//!
//! `Interrupt::default()` never fires and costs one relaxed atomic load
//! per poll, so the non-serving paths (tests, benches, embedders calling
//! the engine directly) pay nothing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use blend_common::{BlendError, Result};

/// A shared cancel flag. Cloning is cheap (`Arc`); any clone can
/// [`cancel`](CancellationToken::cancel) and every clone observes it.
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    cancelled: Arc<AtomicBool>,
}

impl CancellationToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancellationToken {
        CancellationToken::default()
    }

    /// Trip the flag. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Has any clone been cancelled?
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }
}

/// An optional absolute time limit. `Copy`, so it travels freely through
/// closures and worker state.
#[derive(Debug, Clone, Copy, Default)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// No time limit (never expires).
    pub fn none() -> Deadline {
        Deadline::default()
    }

    /// Expires `budget` from now.
    pub fn after(budget: Duration) -> Deadline {
        Deadline {
            at: Instant::now().checked_add(budget),
        }
    }

    /// Expires at the given instant.
    pub fn at(at: Instant) -> Deadline {
        Deadline { at: Some(at) }
    }

    /// Is there a limit at all?
    pub fn is_some(&self) -> bool {
        self.at.is_some()
    }

    /// Has the limit passed?
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }

    /// Time left before expiry. `None` when unlimited; `Some(ZERO)` once
    /// expired (never negative).
    pub fn remaining(&self) -> Option<Duration> {
        self.at
            .map(|at| at.saturating_duration_since(Instant::now()))
    }
}

/// The interrupt a request carries through execution: a cancellation
/// token plus a deadline. The default interrupt never fires.
#[derive(Debug, Clone, Default)]
pub struct Interrupt {
    token: CancellationToken,
    deadline: Deadline,
}

impl Interrupt {
    /// An interrupt that never fires (what non-serving callers run under).
    pub fn never() -> Interrupt {
        Interrupt::default()
    }

    /// Interrupt from an explicit token and deadline.
    pub fn new(token: CancellationToken, deadline: Deadline) -> Interrupt {
        Interrupt { token, deadline }
    }

    /// The cancellation token (clone it to hand a cancel handle out).
    pub fn token(&self) -> &CancellationToken {
        &self.token
    }

    /// The deadline.
    pub fn deadline(&self) -> Deadline {
        self.deadline
    }

    /// Turn the current state into a typed error: `Err(Cancelled)` wins
    /// over `Err(Timeout)` when both hold (an explicit cancel is the more
    /// specific signal), `Ok(())` otherwise. This is the phase-boundary
    /// checkpoint the executors call.
    pub fn check(&self) -> Result<()> {
        if self.token.is_cancelled() {
            return Err(BlendError::Cancelled("query interrupted".into()));
        }
        if self.deadline.expired() {
            return Err(BlendError::Timeout("query deadline exceeded".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_interrupt_never_fires() {
        let i = Interrupt::never();
        assert!(i.check().is_ok());
        assert!(!i.deadline().is_some());
        assert_eq!(i.deadline().remaining(), None);
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let t = CancellationToken::new();
        let i = Interrupt::new(t.clone(), Deadline::none());
        let peer = i.clone();
        assert!(peer.check().is_ok());
        t.cancel();
        assert!(matches!(peer.check(), Err(BlendError::Cancelled(_))));
        t.cancel(); // idempotent
        assert!(t.is_cancelled());
    }

    #[test]
    fn expired_deadline_times_out() {
        let d = Deadline::after(Duration::ZERO);
        assert!(d.expired());
        assert_eq!(d.remaining(), Some(Duration::ZERO));
        let i = Interrupt::new(CancellationToken::new(), d);
        assert!(matches!(i.check(), Err(BlendError::Timeout(_))));
    }

    #[test]
    fn future_deadline_has_remaining_budget() {
        let d = Deadline::after(Duration::from_secs(3600));
        assert!(!d.expired());
        assert!(d.remaining().unwrap() > Duration::from_secs(3000));
        let i = Interrupt::new(CancellationToken::new(), d);
        assert!(i.check().is_ok());
    }

    #[test]
    fn cancel_takes_precedence_over_timeout() {
        let t = CancellationToken::new();
        t.cancel();
        let i = Interrupt::new(t, Deadline::after(Duration::ZERO));
        assert!(matches!(i.check(), Err(BlendError::Cancelled(_))));
    }
}
