//! Fault injection for the serving tier.
//!
//! A [`FaultPlan`] attaches deterministic faults to **named sites** inside
//! the serving pipeline. The storm test uses it to prove liveness: with
//! delays, cancellations, and poisoned (panicking) requests injected at
//! every site, every ticket must still resolve to exactly one typed
//! outcome and the serving threads must survive.
//!
//! Sites (see [`SITE_DEQUEUE`], [`SITE_CACHE`], [`SITE_COALESCE`],
//! [`SITE_EXEC`]):
//!
//! * `dequeue` — fired when a serving thread pops a request, before the
//!   queued-deadline check. A delay here simulates a slow scheduler and
//!   widens the window in which queued requests expire.
//! * `cache` — fired before the result-cache probe. `poison` here makes
//!   the request *skip* the cache and crash at the exec site instead
//!   (a hit would otherwise mask the poison), `cancel` trips its token
//!   before it can be served from cache.
//! * `coalesce` — fired before the in-flight group attach/lead decision.
//!   Poisoning here targets group *leaders*: the leader crashes
//!   mid-execution and its waiters must be promoted or resolve typed.
//! * `exec` — fired after the admission slot is acquired, immediately
//!   before execution. `poison` here panics *inside* the serving thread's
//!   `catch_unwind`, modelling a request that crashes mid-flight.
//!
//! Actions are [`FaultAction::Delay`] (sleep), [`FaultAction::Cancel`]
//! (trip the request's cancellation token), and [`FaultAction::Poison`]
//! (panic at the site; the serving thread catches it and resolves the
//! ticket with an `Internal` error).
//!
//! Plans are built in code, rule by rule ([`FaultPlan::with`]): e.g.
//! `FaultPlan::none().with(SITE_DEQUEUE, FaultAction::Delay(20 ms), 2)`
//! delays every 2nd dequeue by 20 ms. A [`FaultAction::FailAlloc`] rule at
//! [`SITE_ALLOC`] injects synthetic memory-reservation failures via the
//! engine's memory governor instead of firing at a pipeline site.
//! Rule counters are per-site-visit and atomic, so concurrent serving
//! threads see a deterministic *rate* of faults.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Fault site: a serving thread popped a request off the queue.
pub const SITE_DEQUEUE: &str = "dequeue";
/// Fault site: about to probe the result cache for this request.
pub const SITE_CACHE: &str = "cache";
/// Fault site: about to attach to (or lead) an in-flight group.
pub const SITE_COALESCE: &str = "coalesce";
/// Fault site: admission slot held, about to execute the request.
pub const SITE_EXEC: &str = "exec";
/// Fault site: a memory-governor charge. Unlike the other sites this one
/// is not visited by the serving loop — the [`crate::ServeQueue`] arms the
/// engine's [`blend_parallel::MemoryGovernor`] with the rule's rate and
/// the governor fails every N-th `try_charge` with a synthetic reservation
/// failure, exercising the degradation ladder (narrow → sequential →
/// typed `MemoryExceeded`) without needing a tiny byte budget.
pub const SITE_ALLOC: &str = "alloc";

/// What an injected fault does at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Sleep for the given duration at the site.
    Delay(Duration),
    /// Trip the request's cancellation token.
    Cancel,
    /// Panic at the site (caught by the serving thread).
    Poison,
    /// Fail a memory-governor charge (only meaningful at [`SITE_ALLOC`]).
    FailAlloc,
}

#[derive(Debug)]
struct FaultRule {
    site: String,
    action: FaultAction,
    /// Fire on every `every`-th visit to the site (1 = always).
    every: usize,
    hits: AtomicUsize,
}

impl FaultRule {
    fn fire(&self, site: &str) -> Option<FaultAction> {
        if self.site != site {
            return None;
        }
        let n = self.hits.fetch_add(1, Ordering::Relaxed);
        n.is_multiple_of(self.every).then_some(self.action)
    }
}

/// A set of fault rules keyed by site. Cheap to query when empty.
#[derive(Debug, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// True if no rule is registered.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Add a rule: inject `action` on every `every`-th visit to `site`
    /// (`every` is clamped to at least 1).
    pub fn with(mut self, site: &str, action: FaultAction, every: usize) -> FaultPlan {
        self.rules.push(FaultRule {
            site: site.to_string(),
            action,
            every: every.max(1),
            hits: AtomicUsize::new(0),
        });
        self
    }

    /// The `every` rate of the first [`FaultAction::FailAlloc`] rule at
    /// [`SITE_ALLOC`], if any. The serving tier uses this to arm the
    /// engine's memory governor rather than firing the rule at a pipeline
    /// site.
    pub fn alloc_fail_every(&self) -> Option<usize> {
        self.rules
            .iter()
            .find(|r| r.site == SITE_ALLOC && r.action == FaultAction::FailAlloc)
            .map(|r| r.every)
    }

    /// Actions to apply for this visit to `site`, in rule order.
    pub fn fire(&self, site: &str) -> Vec<FaultAction> {
        if self.rules.is_empty() {
            return Vec::new();
        }
        self.rules.iter().filter_map(|r| r.fire(site)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_fail_rule_reports_rate() {
        let plan = FaultPlan::none()
            .with(SITE_EXEC, FaultAction::Cancel, 5)
            .with(SITE_ALLOC, FaultAction::FailAlloc, 7);
        assert_eq!(plan.alloc_fail_every(), Some(7));
        // The alloc rule does not leak into the pipeline sites.
        assert!(plan
            .fire(SITE_EXEC)
            .iter()
            .all(|a| *a != FaultAction::FailAlloc));
        let poison = FaultPlan::none().with(SITE_EXEC, FaultAction::Poison, 1);
        assert_eq!(poison.alloc_fail_every(), None);
    }

    #[test]
    fn every_counts_per_site_visit() {
        let plan = FaultPlan::none().with(SITE_EXEC, FaultAction::Cancel, 3);
        let fired: Vec<bool> = (0..9).map(|_| !plan.fire(SITE_EXEC).is_empty()).collect();
        assert_eq!(
            fired,
            vec![true, false, false, true, false, false, true, false, false]
        );
        assert!(plan.fire(SITE_DEQUEUE).is_empty());
    }
}
