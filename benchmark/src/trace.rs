//! The benchmark's own span recorder (choosing-metrics §4).
//!
//! Spans are recorded from outside the program, around the calls into each
//! crate's public functions: name, start, end, the span that caused it and
//! the id of the operation they belong to. They stay in memory until the
//! run ends. The program's returned `Profile` trees are merged under the
//! span of the call that returned them; the program reports durations but
//! no start times, so merged children are laid end to end from their
//! parent's start (`"merged": true` in the output).

use std::time::Instant;

use blend_obs::ProfileNode;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    /// Taken from a `Profile` the program returned, not timed here.
    pub merged: bool,
}

/// Collects spans for one thread of the traced run. Disabled recorders
/// (the untraced runs) cost one branch per call.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, enabled: bool) -> Recorder {
        Recorder {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// An empty recorder on the same clock, for another thread; hand its
    /// spans back with [`absorb`](Self::absorb).
    pub fn child(&self) -> Recorder {
        Recorder::new(self.epoch, self.enabled)
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span named `name` under `parent`; returns the span's
    /// index (for children), its duration in nanoseconds and `f`'s value.
    pub fn time<R>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (Option<usize>, u64, R) {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        let idx = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns,
                parent,
                op,
                merged: false,
            });
            self.spans.len() - 1
        });
        (idx, end_ns - start_ns, out)
    }

    /// Open a span that encloses several timed calls; close it with
    /// [`close`](Self::close).
    pub fn open(&mut self, name: &str, parent: Option<usize>, op: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent,
            op,
            merged: false,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, idx: Option<usize>) {
        if let Some(i) = idx {
            self.spans[i].end_ns = self.now();
        }
    }

    /// Merge the children of a program-returned profile node under span
    /// `parent` (the call that returned the profile).
    pub fn merge_profile(&mut self, parent: Option<usize>, node: &ProfileNode) {
        let Some(p) = parent else { return };
        let (op, mut cursor, limit) = {
            let s = &self.spans[p];
            (s.op, s.start_ns, s.end_ns)
        };
        for child in &node.children {
            let start_ns = cursor.min(limit);
            let end_ns = (cursor + child.nanos).min(limit);
            cursor = end_ns;
            self.spans.push(Span {
                name: child.name.clone(),
                start_ns,
                end_ns,
                parent: Some(p),
                op,
                merged: true,
            });
            let idx = self.spans.len() - 1;
            self.merge_profile(Some(idx), child);
        }
    }

    /// Append another thread's spans, re-basing their parent indexes.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time per span: its duration minus the part of its interval that its
/// child spans cover (overlapping children are not counted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (ps, pe) = (spans[p].start_ns, spans[p].end_ns);
            let (lo, hi) = (s.start_ns.max(ps), s.end_ns.min(pe));
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Total and self nanoseconds per span name, sorted by name.
pub fn summarize(spans: &[Span]) -> Vec<(String, u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut by_name: std::collections::BTreeMap<&str, (u64, u64, u64)> = Default::default();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = by_name.entry(&s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += self_ns;
    }
    by_name
        .into_iter()
        .map(|(n, (count, total, own))| (n.to_string(), count, total, own))
        .collect()
}

pub fn spans_json(spans: &[Span]) -> Json {
    let selfs = self_times(spans);
    Json::Arr(
        spans
            .iter()
            .zip(selfs)
            .enumerate()
            .map(|(i, (s, self_ns))| {
                Json::obj([
                    ("id", Json::from(i)),
                    ("name", Json::str(&s.name)),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    ("self_ns", Json::from(self_ns)),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("op", Json::from(s.op)),
                    ("merged", Json::Bool(s.merged)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            op: 0,
            merged: false,
        }
    }

    #[test]
    fn self_time_is_span_minus_child_cover() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` on 30..40: the cover of 10..60 is 50, not 60.
            span("b", 30, 60, Some(0)),
            span("a.inner", 15, 20, Some(1)),
            // Sticks out past its parent: only 90..100 counts.
            span("c", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 25, 30, 5, 30]);
    }

    #[test]
    fn childless_span_keeps_its_whole_duration() {
        assert_eq!(self_times(&[span("x", 5, 12, None)]), vec![7]);
    }

    #[test]
    fn merged_profile_children_are_laid_end_to_end_and_clamped() {
        let mut rec = Recorder::new(Instant::now(), true);
        rec.spans.push(span("sql.exec", 100, 200, None));
        let node = ProfileNode {
            name: "query".into(),
            nanos: 100,
            children: vec![
                ProfileNode {
                    name: "scan:alltables".into(),
                    nanos: 60,
                    ..Default::default()
                },
                ProfileNode {
                    name: "group".into(),
                    nanos: 70,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        rec.merge_profile(Some(0), &node);
        assert_eq!(rec.spans.len(), 3);
        assert_eq!((rec.spans[1].start_ns, rec.spans[1].end_ns), (100, 160));
        // 70 ns reported, only 40 ns left inside the parent.
        assert_eq!((rec.spans[2].start_ns, rec.spans[2].end_ns), (160, 200));
        assert!(rec.spans[1].merged && rec.spans[2].parent == Some(0));
        assert_eq!(self_times(&rec.spans)[0], 0);
    }

    #[test]
    fn disabled_recorder_records_nothing_but_still_times() {
        let mut rec = Recorder::new(Instant::now(), false);
        let (idx, _ns, v) = rec.time("x", None, 1, || 42);
        assert_eq!((idx, v), (None, 42));
        assert!(rec.spans.is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = Recorder::new(Instant::now(), true);
        a.spans.push(span("a", 0, 1, None));
        let mut b = Recorder::new(Instant::now(), true);
        b.spans.push(span("b", 0, 2, None));
        b.spans.push(span("b.child", 0, 1, Some(0)));
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
