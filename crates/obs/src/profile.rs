//! `EXPLAIN ANALYZE`-style query profiles rendered from span trees.
//!
//! A [`Profile`] is the per-query output of the span collector
//! ([`crate::trace_begin`] → [`crate::Trace::finish`]): one node per
//! span, children ordered by start time, each carrying wall nanos, the
//! recording thread's ordinal, and typed attributes. It subsumes the
//! scattered per-phase stats (`ParallelPhase`, `HashTableStats`,
//! `ServingStats`) into one navigable tree that rides
//! `QueryReport::profile`.

use std::fmt::Write as _;

/// A typed span attribute value. Integer-only on the numeric side so
/// profiles stay `Eq` (they ride `QueryReport`, which derives `Eq`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrValue {
    U64(u64),
    Str(String),
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::Str(s) => write!(f, "{s}"),
        }
    }
}

/// One span in a [`Profile`] tree.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProfileNode {
    /// Span name, dot-scoped by subsystem (`query`, `scan`, `join.build`,
    /// `join.probe`, `group`, `seeker`).
    pub name: String,
    /// Wall-clock duration of the span in nanoseconds.
    pub nanos: u64,
    /// Dense ordinal of the thread the span ran on (not an OS tid).
    pub thread: u64,
    /// Typed attributes in recording order (rows, partitions, buckets…).
    pub attrs: Vec<(String, AttrValue)>,
    /// Child spans, ordered by start time.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// Attribute value by key, if recorded.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Depth-first search for the first node whose name equals `name`.
    pub fn find(&self, name: &str) -> Option<&ProfileNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Depth-first search with a prefix match (`find_prefix("scan")`
    /// matches `scan:a`).
    pub fn find_prefix(&self, prefix: &str) -> Option<&ProfileNode> {
        if self.name.starts_with(prefix) {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find_prefix(prefix))
    }

    fn render_into(&self, out: &mut String, indent: usize, last: bool, root: bool) {
        if root {
            let _ = write!(out, "{}", self.name);
        } else {
            for _ in 0..indent {
                out.push_str("  ");
            }
            let _ = write!(out, "{} {}", if last { "└─" } else { "├─" }, self.name);
        }
        let _ = write!(out, "  [{}]", format_nanos(self.nanos));
        if !self.attrs.is_empty() {
            out.push_str("  (");
            for (i, (k, v)) in self.attrs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{k}={v}");
            }
            out.push(')');
        }
        out.push('\n');
        for (i, child) in self.children.iter().enumerate() {
            child.render_into(out, indent + 1, i + 1 == self.children.len(), false);
        }
    }
}

/// Human-readable duration: picks ns/µs/ms/s to keep 3–4 significant
/// digits, integer math only.
fn format_nanos(nanos: u64) -> String {
    if nanos < 10_000 {
        format!("{nanos}ns")
    } else if nanos < 10_000_000 {
        format!("{}.{:01}µs", nanos / 1_000, (nanos % 1_000) / 100)
    } else if nanos < 10_000_000_000 {
        format!(
            "{}.{:01}ms",
            nanos / 1_000_000,
            (nanos % 1_000_000) / 100_000
        )
    } else {
        format!(
            "{}.{:02}s",
            nanos / 1_000_000_000,
            (nanos % 1_000_000_000) / 10_000_000
        )
    }
}

/// The full span tree of one query — `EXPLAIN ANALYZE` output as data.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Profile {
    pub root: ProfileNode,
}

impl Profile {
    /// Depth-first exact-name lookup from the root.
    pub fn find(&self, name: &str) -> Option<&ProfileNode> {
        self.root.find(name)
    }

    /// Depth-first prefix lookup from the root.
    pub fn find_prefix(&self, prefix: &str) -> Option<&ProfileNode> {
        self.root.find_prefix(prefix)
    }

    /// Render the tree for humans:
    ///
    /// ```text
    /// query  [1.2ms]  (path=positional)
    ///   ├─ scan:a  [310.0µs]  (scanned=4000, rows=4000)
    ///   ├─ join.build  [400.2µs]  (rows=4000, path=hash, buckets=8192, max_chain=3, partitions=1)
    ///   ├─ join.probe  [350.1µs]  (rows=5000, path=hash, matched=4200, skipped=800)
    ///   └─ group  [140.9µs]  (rows=4200, path=hash, groups=20, partitions=1)
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.root.render_into(&mut out, 0, true, true);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Profile {
        Profile {
            root: ProfileNode {
                name: "query".into(),
                nanos: 1_200_000,
                thread: 0,
                attrs: vec![("path".into(), AttrValue::Str("positional".into()))],
                children: vec![
                    ProfileNode {
                        name: "scan:a".into(),
                        nanos: 310_000,
                        thread: 0,
                        attrs: vec![("rows".into(), AttrValue::U64(4000))],
                        children: vec![],
                    },
                    ProfileNode {
                        name: "join.build".into(),
                        nanos: 400_200,
                        thread: 0,
                        attrs: vec![],
                        children: vec![],
                    },
                ],
            },
        }
    }

    #[test]
    fn find_walks_depth_first() {
        let p = sample();
        assert_eq!(p.find("join.build").unwrap().nanos, 400_200);
        assert!(p.find("nope").is_none());
        assert_eq!(p.find_prefix("scan").unwrap().name, "scan:a");
    }

    #[test]
    fn render_shows_every_node_and_attr() {
        let text = sample().render();
        assert!(text.contains("query"));
        assert!(text.contains("path=positional"));
        assert!(text.contains("├─ scan:a"));
        assert!(text.contains("rows=4000"));
        assert!(text.contains("└─ join.build"));
    }

    #[test]
    fn durations_format_human_readably() {
        assert_eq!(format_nanos(999), "999ns");
        assert_eq!(format_nanos(25_500), "25.5µs");
        assert_eq!(format_nanos(12_300_000), "12.3ms");
        assert_eq!(format_nanos(2_450_000_000_000 / 100), "24.50s");
    }
}
