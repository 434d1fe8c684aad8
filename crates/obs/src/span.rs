//! RAII wall-clock spans collected per thread into a query profile tree.
//!
//! A *trace* ([`trace_begin`]) opens a root span and arms the calling
//! thread's collector; while armed, every [`span`] records a node whose
//! parent is the innermost open span. [`Trace::finish`] closes the root
//! and returns the subtree as a [`Profile`]. With no trace armed (or
//! instrumentation disabled), [`span`] returns an inert guard whose whole
//! cost is one TLS read and a branch — executors can instrument phases
//! unconditionally.
//!
//! Traces nest: a plan-level trace in `blend` core can enclose per-query
//! traces in the SQL engine. Finishing an inner trace clones its subtree
//! out (the spans also remain part of the enclosing trace's tree).
//!
//! The collector is thread-local on purpose: a query runs on the thread
//! that called the engine, and the index build's fork-join tasks are
//! spanned as whole phases on the thread that forked them (see the
//! overhead contract in the crate docs).

use std::borrow::Cow;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::time::Instant;

use crate::metrics::thread_ordinal;
use crate::profile::{AttrValue, Profile, ProfileNode};

struct Rec {
    name: Cow<'static, str>,
    parent: Option<usize>,
    start: Instant,
    nanos: u64,
    thread: u64,
    attrs: Vec<(Cow<'static, str>, AttrValue)>,
    closed: bool,
}

#[derive(Default)]
struct Collector {
    recs: Vec<Rec>,
    stack: Vec<usize>,
}

thread_local! {
    static COLLECTOR: RefCell<Collector> = RefCell::new(Collector::default());
}

fn push_rec(name: Cow<'static, str>, root: bool) -> Option<usize> {
    if !crate::enabled() {
        return None;
    }
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        if !root && c.stack.is_empty() {
            return None; // no trace armed: plain spans are inert
        }
        let parent = c.stack.last().copied();
        let idx = c.recs.len();
        c.recs.push(Rec {
            name,
            parent,
            start: Instant::now(),
            nanos: 0,
            thread: thread_ordinal(),
            attrs: Vec::new(),
            closed: false,
        });
        c.stack.push(idx);
        Some(idx)
    })
}

fn close_rec(idx: usize) {
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        let rec = &mut c.recs[idx];
        rec.nanos = rec.start.elapsed().as_nanos() as u64;
        rec.closed = true;
        // RAII gives LIFO drops; be defensive about a guard held across
        // an early return anyway.
        if c.stack.last() == Some(&idx) {
            c.stack.pop();
        } else if let Some(pos) = c.stack.iter().rposition(|&i| i == idx) {
            c.stack.truncate(pos);
        }
    });
}

fn add_attr(idx: Option<usize>, key: &'static str, value: AttrValue) {
    let Some(idx) = idx else { return };
    COLLECTOR.with(|c| {
        c.borrow_mut().recs[idx]
            .attrs
            .push((Cow::Borrowed(key), value));
    });
}

/// Assemble the subtree rooted at `root` into owned profile nodes.
fn subtree(recs: &[Rec], root: usize) -> ProfileNode {
    let mut in_tree = vec![false; recs.len()];
    in_tree[root] = true;
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); recs.len()];
    for i in (root + 1)..recs.len() {
        if let Some(p) = recs[i].parent {
            if in_tree[p] {
                in_tree[i] = true;
                children[p].push(i);
            }
        }
    }
    fn build(recs: &[Rec], children: &[Vec<usize>], i: usize) -> ProfileNode {
        let rec = &recs[i];
        ProfileNode {
            name: rec.name.clone().into_owned(),
            // A guard still alive when the trace finishes reads as
            // "elapsed so far" instead of zero.
            nanos: if rec.closed {
                rec.nanos
            } else {
                rec.start.elapsed().as_nanos() as u64
            },
            thread: rec.thread,
            attrs: rec
                .attrs
                .iter()
                .map(|(k, v)| (k.clone().into_owned(), v.clone()))
                .collect(),
            children: children[i]
                .iter()
                .map(|&c| build(recs, children, c))
                .collect(),
        }
    }
    build(recs, &children, root)
}

/// Open a trace: the root span the current thread's subsequent [`span`]
/// calls nest under. Returns an inert trace when instrumentation is
/// disabled. Traces may nest; finish the inner one first.
pub fn trace_begin(name: &'static str) -> Trace {
    Trace {
        root: push_rec(Cow::Borrowed(name), true),
        _not_send: PhantomData,
    }
}

/// An armed trace. [`finish`](Trace::finish) harvests the [`Profile`];
/// dropping without finishing discards the tree (next outermost finish
/// or trace begin cleans up).
pub struct Trace {
    root: Option<usize>,
    _not_send: PhantomData<*const ()>,
}

impl Trace {
    /// Attach an integer attribute to the root span.
    pub fn attr_u64(&self, key: &'static str, v: u64) {
        add_attr(self.root, key, AttrValue::U64(v));
    }

    /// Attach a string attribute to the root span.
    pub fn attr_str(&self, key: &'static str, v: impl Into<String>) {
        add_attr(self.root, key, AttrValue::Str(v.into()));
    }

    /// Close the root span and return the collected tree, or `None` for
    /// an inert trace. For the outermost trace this also clears the
    /// thread's collector; an inner trace's spans stay part of the
    /// enclosing tree.
    pub fn finish(mut self) -> Option<Profile> {
        let root = self.root.take()?;
        close_rec(root);
        COLLECTOR.with(|c| {
            let mut c = c.borrow_mut();
            let profile = Profile {
                root: subtree(&c.recs, root),
            };
            if c.stack.is_empty() {
                c.recs.clear();
            }
            Some(profile)
        })
    }
}

impl Drop for Trace {
    fn drop(&mut self) {
        if let Some(root) = self.root.take() {
            close_rec(root);
            COLLECTOR.with(|c| {
                let mut c = c.borrow_mut();
                if c.stack.is_empty() {
                    c.recs.clear();
                }
            });
        }
    }
}

/// Record a span under the innermost open trace. Inert (one TLS read)
/// when no trace is armed or instrumentation is disabled.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard {
        idx: push_rec(Cow::Borrowed(name), false),
        _not_send: PhantomData,
    }
}

/// [`span`] with a runtime-built name (e.g. `scan:{alias}`,
/// `seeker:{op}`). Names still must come from closed sets — they feed
/// profile trees, not the metrics registry, but keep them readable.
#[inline]
pub fn span_owned(name: String) -> SpanGuard {
    SpanGuard {
        idx: push_rec(Cow::Owned(name), false),
        _not_send: PhantomData,
    }
}

/// RAII span handle: the span closes (capturing wall nanos) on drop.
pub struct SpanGuard {
    idx: Option<usize>,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    /// Attach an unsigned integer attribute (row counts, partitions…).
    pub fn attr_u64(&self, key: &'static str, v: u64) {
        add_attr(self.idx, key, AttrValue::U64(v));
    }

    /// Attach a string attribute (small closed sets only).
    pub fn attr_str(&self, key: &'static str, v: impl Into<String>) {
        add_attr(self.idx, key, AttrValue::Str(v.into()));
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(idx) = self.idx.take() {
            close_rec(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_without_trace_are_inert() {
        let _gate = crate::test_gate(true);
        let g = span("orphan");
        assert!(g.idx.is_none());
    }

    #[test]
    fn trace_collects_nested_tree() {
        let _gate = crate::test_gate(true);
        let trace = trace_begin("query");
        trace.attr_str("path", "positional");
        {
            let s = span("scan");
            s.attr_u64("rows", 42);
            drop(s);
            let j = span("join.build");
            {
                let inner = span_owned("partition:0".to_string());
                drop(inner);
            }
            drop(j);
        }
        let profile = trace.finish().expect("armed trace yields profile");
        assert_eq!(profile.root.name, "query");
        assert_eq!(profile.root.children.len(), 2);
        assert_eq!(profile.root.children[0].name, "scan");
        assert_eq!(
            profile.root.children[0].attr("rows"),
            Some(&AttrValue::U64(42))
        );
        assert_eq!(profile.root.children[1].children[0].name, "partition:0");
        assert!(profile.find("scan").is_some());
        // Collector fully drained for the next query on this thread.
        COLLECTOR.with(|c| {
            let c = c.borrow();
            assert!(c.recs.is_empty() && c.stack.is_empty());
        });
    }

    #[test]
    fn nested_traces_each_get_their_subtree() {
        let _gate = crate::test_gate(true);
        let outer = trace_begin("plan");
        let _s = span("seeker:sc");
        let inner = trace_begin("query");
        drop(span("scan"));
        let inner_profile = inner.finish().unwrap();
        assert_eq!(inner_profile.root.name, "query");
        assert_eq!(inner_profile.root.children[0].name, "scan");
        drop(_s);
        let outer_profile = outer.finish().unwrap();
        // The inner trace's spans remain visible in the outer tree.
        assert!(outer_profile.find("query").is_some());
        assert!(outer_profile.find("scan").is_some());
    }

    #[test]
    fn disabled_trace_is_inert() {
        let _gate = crate::test_gate(false);
        let t = trace_begin("query");
        let g = span("scan");
        assert!(g.idx.is_none());
        assert!(t.finish().is_none());
        crate::set_enabled(true);
    }
}
