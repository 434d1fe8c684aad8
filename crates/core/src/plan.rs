//! Discovery plans: the user-facing composition API (paper Fig. 2a) and its
//! DAG representation (Fig. 2b).
//!
//! The grammar (paper §IV-C):
//!
//! ```text
//! expression ::= seeker(Q) | combiner(expression(,expression)+)
//! seeker     ::= KW | SC | MC | C
//! combiner   ::= ∩ | ∪ | \ | Counter
//! ```

use blend_common::{BlendError, FxHashMap, FxHashSet, Result};

/// An atomic search operator.
#[derive(Debug, Clone, PartialEq)]
pub enum Seeker {
    /// Single-column join search: tables with a column overlapping `values`.
    Sc { values: Vec<String> },
    /// Keyword search: overlap counted table-wide.
    Kw { keywords: Vec<String> },
    /// Multi-column join search: tables containing the composite-key rows.
    Mc { rows: Vec<Vec<String>> },
    /// Correlation search: tables joinable on `keys` with a column
    /// correlating with `target` (aligned by position).
    C { keys: Vec<String>, target: Vec<f64> },
}

impl Seeker {
    /// SC seeker from values (normalization applied at execution).
    pub fn sc(values: Vec<String>) -> Self {
        Seeker::Sc { values }
    }

    /// KW seeker from keywords.
    pub fn kw(keywords: Vec<String>) -> Self {
        Seeker::Kw { keywords }
    }

    /// MC seeker from composite-key rows (all rows must share an arity ≥2).
    pub fn mc(rows: Vec<Vec<String>>) -> Self {
        Seeker::Mc { rows }
    }

    /// Correlation seeker from an aligned (keys, target) pair.
    pub fn c(keys: Vec<String>, target: Vec<f64>) -> Self {
        Seeker::C { keys, target }
    }

    /// Operator label used in reports and rule ranking.
    pub fn label(&self) -> &'static str {
        match self {
            Seeker::Sc { .. } => "SC",
            Seeker::Kw { .. } => "KW",
            Seeker::Mc { .. } => "MC",
            Seeker::C { .. } => "C",
        }
    }

    /// Validate operator-specific input constraints.
    pub fn validate(&self) -> Result<()> {
        match self {
            Seeker::Sc { values } if values.is_empty() => Err(BlendError::InvalidInput(
                "SC seeker needs at least one value".into(),
            )),
            Seeker::Kw { keywords } if keywords.is_empty() => Err(BlendError::InvalidInput(
                "KW seeker needs at least one keyword".into(),
            )),
            Seeker::Mc { rows } => {
                if rows.is_empty() {
                    return Err(BlendError::InvalidInput("MC seeker needs rows".into()));
                }
                let arity = rows[0].len();
                if arity < 2 {
                    return Err(BlendError::InvalidInput(
                        "MC seeker needs a composite key of ≥2 columns".into(),
                    ));
                }
                if rows.iter().any(|r| r.len() != arity) {
                    return Err(BlendError::InvalidInput(
                        "MC seeker rows must share one arity".into(),
                    ));
                }
                Ok(())
            }
            Seeker::C { keys, target } => {
                if keys.len() != target.len() {
                    return Err(BlendError::InvalidInput(format!(
                        "C seeker: {} keys vs {} target values",
                        keys.len(),
                        target.len()
                    )));
                }
                if keys.len() < 2 {
                    return Err(BlendError::InvalidInput(
                        "C seeker needs at least two observations".into(),
                    ));
                }
                // QCR splits the keys at the target's mean: a NaN or
                // infinite value poisons the mean, and a constant target
                // has no correlation to measure.
                if let Some(bad) = target.iter().find(|t| !t.is_finite()) {
                    return Err(BlendError::InvalidInput(format!(
                        "C seeker: target value {bad} is not finite"
                    )));
                }
                if target.iter().all(|&t| t == target[0]) {
                    return Err(BlendError::InvalidInput(
                        "C seeker: a constant target has no correlation to measure".into(),
                    ));
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

/// A set operator over table collections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combiner {
    /// Tables present in every input.
    Intersect,
    /// Tables present in any input.
    Union,
    /// Tables in the first input but not the second (arity exactly 2).
    Difference,
    /// Tables ranked by how many inputs contain them.
    Counter,
}

impl Combiner {
    /// Operator label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Combiner::Intersect => "Intersect",
            Combiner::Union => "Union",
            Combiner::Difference => "Difference",
            Combiner::Counter => "Counter",
        }
    }
}

/// A plan node.
#[derive(Debug, Clone)]
pub enum Node {
    Seeker {
        seeker: Seeker,
        k: usize,
    },
    Combiner {
        combiner: Combiner,
        k: usize,
        inputs: Vec<String>,
    },
}

/// A discovery plan: named nodes forming a DAG (edges = combiner inputs).
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// Insertion-ordered nodes.
    order: Vec<String>,
    nodes: FxHashMap<String, Node>,
}

impl Plan {
    /// Empty plan.
    pub fn new() -> Self {
        Plan::default()
    }

    /// Add a seeker under a unique id.
    pub fn add_seeker(&mut self, id: &str, seeker: Seeker, k: usize) -> Result<&mut Self> {
        seeker.validate()?;
        self.insert(id, Node::Seeker { seeker, k })?;
        Ok(self)
    }

    /// Add a combiner under a unique id, referencing input node ids.
    pub fn add_combiner(
        &mut self,
        id: &str,
        combiner: Combiner,
        k: usize,
        inputs: &[&str],
    ) -> Result<&mut Self> {
        match combiner {
            Combiner::Difference if inputs.len() != 2 => {
                return Err(BlendError::PlanInvalid(
                    "Difference takes exactly two inputs".into(),
                ))
            }
            Combiner::Intersect | Combiner::Union if inputs.len() < 2 => {
                return Err(BlendError::PlanInvalid(format!(
                    "{} needs at least two inputs",
                    combiner.label()
                )))
            }
            Combiner::Counter if inputs.is_empty() => {
                return Err(BlendError::PlanInvalid("Counter needs inputs".into()))
            }
            _ => {}
        }
        self.insert(
            id,
            Node::Combiner {
                combiner,
                k,
                inputs: inputs.iter().map(|s| s.to_string()).collect(),
            },
        )?;
        Ok(self)
    }

    fn insert(&mut self, id: &str, node: Node) -> Result<()> {
        if self.nodes.contains_key(id) {
            return Err(BlendError::PlanInvalid(format!("duplicate node id `{id}`")));
        }
        self.order.push(id.to_string());
        self.nodes.insert(id.to_string(), node);
        Ok(())
    }

    /// Node accessor.
    pub fn node(&self, id: &str) -> Option<&Node> {
        self.nodes.get(id)
    }

    /// Node ids in insertion order.
    pub fn node_ids(&self) -> &[String] {
        &self.order
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when the plan has no nodes.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Number of consumers of each node (used by the rewriter: only nodes
    /// with a single consumer may receive injected predicates).
    pub fn consumers(&self) -> FxHashMap<&str, usize> {
        let mut out: FxHashMap<&str, usize> = FxHashMap::default();
        for id in &self.order {
            out.entry(id.as_str()).or_insert(0);
            if let Some(Node::Combiner { inputs, .. }) = self.nodes.get(id) {
                for i in inputs {
                    *out.entry(i.as_str()).or_insert(0) += 1;
                }
            }
        }
        out
    }

    /// Validate the plan and return the sink node id.
    ///
    /// Checks: non-empty, all referenced inputs exist, no cycles, exactly
    /// one sink (a node no other node consumes).
    pub fn validate(&self) -> Result<&str> {
        if self.is_empty() {
            return Err(BlendError::PlanInvalid("empty plan".into()));
        }
        // References exist.
        for id in &self.order {
            if let Some(Node::Combiner { inputs, .. }) = self.nodes.get(id) {
                for i in inputs {
                    if !self.nodes.contains_key(i) {
                        return Err(BlendError::PlanInvalid(format!(
                            "node `{id}` references unknown input `{i}`"
                        )));
                    }
                    if i == id {
                        return Err(BlendError::PlanInvalid(format!(
                            "node `{id}` references itself"
                        )));
                    }
                }
            }
        }
        // Acyclicity via DFS with colors.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Grey,
            Black,
        }
        let mut color: FxHashMap<&str, Color> = self
            .order
            .iter()
            .map(|s| (s.as_str(), Color::White))
            .collect();
        fn dfs<'a>(
            plan: &'a Plan,
            id: &'a str,
            color: &mut FxHashMap<&'a str, Color>,
        ) -> Result<()> {
            color.insert(id, Color::Grey);
            if let Some(Node::Combiner { inputs, .. }) = plan.nodes.get(id) {
                for i in inputs {
                    match color.get(i.as_str()) {
                        Some(Color::Grey) => {
                            return Err(BlendError::PlanInvalid(format!(
                                "cycle through node `{i}`"
                            )))
                        }
                        Some(Color::White) => dfs(plan, i.as_str(), color)?,
                        _ => {}
                    }
                }
            }
            color.insert(id, Color::Black);
            Ok(())
        }
        for id in &self.order {
            if color[id.as_str()] == Color::White {
                dfs(self, id, &mut color)?;
            }
        }
        // Exactly one sink.
        let consumed: FxHashSet<&str> = self
            .order
            .iter()
            .filter_map(|id| match self.nodes.get(id) {
                Some(Node::Combiner { inputs, .. }) => Some(inputs),
                _ => None,
            })
            .flatten()
            .map(String::as_str)
            .collect();
        let sinks: Vec<&str> = self
            .order
            .iter()
            .map(String::as_str)
            .filter(|id| !consumed.contains(id))
            .collect();
        match sinks.as_slice() {
            [one] => Ok(one),
            [] => Err(BlendError::PlanInvalid("no sink node (cycle?)".into())),
            many => Err(BlendError::PlanInvalid(format!(
                "plan has {} sinks ({}); compose them with a combiner",
                many.len(),
                many.join(", ")
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sc() -> Seeker {
        Seeker::sc(vec!["a".into()])
    }

    #[test]
    fn example_1_plan_validates() {
        // The find_dep_heads plan from paper Fig. 2a.
        let mut p = Plan::new();
        p.add_seeker(
            "p_examples",
            Seeker::mc(vec![vec!["hr".into(), "firenze".into()]]),
            10,
        )
        .unwrap();
        p.add_seeker(
            "n_examples",
            Seeker::mc(vec![vec!["it".into(), "tom riddle".into()]]),
            10,
        )
        .unwrap();
        p.add_combiner(
            "exclude",
            Combiner::Difference,
            10,
            &["p_examples", "n_examples"],
        )
        .unwrap();
        p.add_seeker("dep", Seeker::sc(vec!["hr".into(), "it".into()]), 10)
            .unwrap();
        p.add_combiner("intersect", Combiner::Intersect, 10, &["exclude", "dep"])
            .unwrap();
        assert_eq!(p.validate().unwrap(), "intersect");
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn duplicate_ids_rejected() {
        let mut p = Plan::new();
        p.add_seeker("x", sc(), 5).unwrap();
        assert!(p.add_seeker("x", sc(), 5).is_err());
    }

    #[test]
    fn unknown_input_rejected() {
        let mut p = Plan::new();
        p.add_seeker("a", sc(), 5).unwrap();
        p.add_combiner("c", Combiner::Counter, 5, &["a", "ghost"])
            .unwrap();
        assert!(p.validate().is_err());
    }

    #[test]
    fn difference_arity_enforced() {
        let mut p = Plan::new();
        p.add_seeker("a", sc(), 5).unwrap();
        assert!(p
            .add_combiner("d", Combiner::Difference, 5, &["a"])
            .is_err());
    }

    #[test]
    fn intersect_needs_two() {
        let mut p = Plan::new();
        p.add_seeker("a", sc(), 5).unwrap();
        assert!(p.add_combiner("i", Combiner::Intersect, 5, &["a"]).is_err());
    }

    #[test]
    fn multiple_sinks_rejected() {
        let mut p = Plan::new();
        p.add_seeker("a", sc(), 5).unwrap();
        p.add_seeker("b", sc(), 5).unwrap();
        let err = p.validate().unwrap_err();
        assert!(err.to_string().contains("2 sinks"));
    }

    #[test]
    fn self_reference_rejected() {
        let mut p = Plan::new();
        p.add_seeker("a", sc(), 5).unwrap();
        p.add_combiner("c", Combiner::Counter, 5, &["a", "c"])
            .unwrap();
        assert!(p.validate().is_err());
    }

    #[test]
    fn cycle_rejected() {
        let mut p = Plan::new();
        p.add_seeker("s", sc(), 5).unwrap();
        p.add_combiner("c1", Combiner::Counter, 5, &["s", "c2"])
            .unwrap();
        p.add_combiner("c2", Combiner::Counter, 5, &["c1"]).unwrap();
        assert!(p.validate().is_err());
    }

    #[test]
    fn seeker_input_validation() {
        assert!(Seeker::sc(vec![]).validate().is_err());
        assert!(Seeker::mc(vec![vec!["one".into()]]).validate().is_err());
        assert!(
            Seeker::mc(vec![vec!["a".into(), "b".into()], vec!["c".into()]])
                .validate()
                .is_err()
        );
        assert!(Seeker::c(vec!["k".into()], vec![1.0, 2.0])
            .validate()
            .is_err());
        assert!(Seeker::c(vec!["k1".into(), "k2".into()], vec![1.0, 2.0])
            .validate()
            .is_ok());
    }

    #[test]
    fn consumers_counts_fanout() {
        let mut p = Plan::new();
        p.add_seeker("a", sc(), 5).unwrap();
        p.add_seeker("b", sc(), 5).unwrap();
        p.add_combiner("c1", Combiner::Intersect, 5, &["a", "b"])
            .unwrap();
        p.add_combiner("c2", Combiner::Counter, 5, &["a", "c1"])
            .unwrap();
        let consumers = p.consumers();
        assert_eq!(consumers["a"], 2);
        assert_eq!(consumers["b"], 1);
        assert_eq!(consumers["c1"], 1);
        assert_eq!(consumers["c2"], 0);
    }
}
