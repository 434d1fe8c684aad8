//! Plan execution (paper Fig. 2c/2d): EG-ordered evaluation with SQL
//! rewriting.
//!
//! The executor walks the DAG from the sink. Combiner semantics decide how
//! much optimization is legal:
//!
//! * **Intersection** — all inputs form an execution group. Combiner inputs
//!   (dependencies) are evaluated first; seeker inputs are ranked by the
//!   optimizer and executed sequentially, each receiving the intersection
//!   of all previously completed inputs as a `TableId IN (...)` injection.
//! * **Difference** — the subtrahend executes first; the minuend seeker is
//!   rewritten with `TableId NOT IN (...)`.
//! * **Union / Counter** — inputs are independent; no rewriting (paper
//!   §VII-B: "Union: no rewriting").
//!
//! A node consumed by more than one combiner never receives injections
//! (the injected predicate would leak into the other consumer); it executes
//! once, un-rewritten, and is memoized. With the optimizer disabled
//! ("B-NO") every input is evaluated independently in plan order.
//!
//! Every seeker executed from a plan reserves against the system's one
//! [`ParallelCtx`](crate::ParallelCtx) ([`Blend::set_parallel`]). Seekers
//! run sequentially in EG order, since each one's injection depends on
//! earlier results, and each seeker's operator runs on the query's thread.
//! Only a caller that receives the [`ExecutionReport`] gets each seeker's
//! SQL text ([`OpExecution::sql`]); [`Blend::execute`] renders none.

use std::time::{Duration, Instant};

use blend_common::{FxHashMap, FxHashSet, Result};
use blend_parallel::Interrupt;

use crate::combiners::{self, TableHit};
use crate::optimizer;
use crate::plan::{Combiner, Node, Plan, Seeker};
use crate::seekers::{self, Injected, McStats};
use crate::Blend;

/// Telemetry for one executed operator.
#[derive(Debug, Clone)]
pub struct OpExecution {
    /// Plan node id.
    pub id: String,
    /// Operator label (`SC`, `KW`, `MC`, `C`, `Intersect`, ...).
    pub op: String,
    /// Wall-clock runtime of this operator.
    pub runtime: Duration,
    /// The seeker's SQL text, post-rewriting (`""` where an empty `In`
    /// injection short-circuited the seeker; `None` for combiners).
    pub sql: Option<String>,
    /// Whether an intermediate-result predicate was injected.
    pub injected: bool,
    /// Result size (tables).
    pub n_results: usize,
    /// MC filter statistics, when applicable.
    pub mc_stats: Option<McStats>,
}

/// Whole-plan telemetry, in execution order.
#[derive(Debug, Clone, Default)]
pub struct ExecutionReport {
    pub ops: Vec<OpExecution>,
    pub total: Duration,
    pub optimized: bool,
    /// Span-tree profile of the whole plan: one child per executed
    /// operator (`seeker:SC`, `combine:Intersect`, ...), with each
    /// seeker's operator spans (`bind`, `sc.walk`, `mc.rows`, ...) nested
    /// inside.
    /// `None` when observability is disabled ([`blend_obs::enabled`]).
    pub profile: Option<blend_obs::Profile>,
}

impl ExecutionReport {
    /// Execution order of seeker node ids (Table IV checks this).
    pub fn seeker_order(&self) -> Vec<&str> {
        self.ops
            .iter()
            .filter(|o| matches!(o.op.as_str(), "SC" | "KW" | "MC" | "C"))
            .map(|o| o.id.as_str())
            .collect()
    }

    /// Aggregate MC statistics across the plan.
    pub fn mc_totals(&self) -> McStats {
        let mut total = McStats::default();
        for op in &self.ops {
            if let Some(s) = op.mc_stats {
                total.candidates += s.candidates;
                total.validated += s.validated;
            }
        }
        total
    }
}

struct Ctx<'a> {
    blend: &'a Blend,
    plan: &'a Plan,
    /// Consumer counts: nodes with >1 consumer are never injected.
    consumers: FxHashMap<String, usize>,
    memo: FxHashMap<String, Vec<TableHit>>,
    /// Built only for callers that receive it.
    report: Option<ExecutionReport>,
    interrupt: Interrupt,
}

/// Execute a validated plan under a cancellation/deadline [`Interrupt`],
/// building the report (and each seeker's SQL text) only if `report`.
///
/// The interrupt is checked at every seeker boundary (before each plan node
/// evaluates) and is threaded into every seeker's operator, so a
/// cancelled or expired plan unwinds with a typed
/// `BlendError::{Cancelled, Timeout}` and no partial hit list.
pub(crate) fn run(
    blend: &Blend,
    plan: &Plan,
    interrupt: Interrupt,
    report: bool,
) -> Result<(Vec<TableHit>, Option<ExecutionReport>)> {
    let sink = plan.validate()?.to_string();
    let consumers: FxHashMap<String, usize> = plan
        .consumers()
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    let mut ctx = Ctx {
        blend,
        plan,
        consumers,
        memo: FxHashMap::default(),
        report: report.then(|| ExecutionReport {
            optimized: blend.options().optimize,
            ..Default::default()
        }),
        interrupt,
    };
    let trace = blend_obs::trace_begin("plan");
    let start = Instant::now();
    let hits = eval(&mut ctx, &sink, None)?;
    let profile = trace.finish();
    if let Some(report) = &mut ctx.report {
        report.total = start.elapsed();
        report.profile = profile;
    }
    Ok((hits, ctx.report))
}

/// Table ids of a hit list.
fn tables_of(hits: &[TableHit]) -> Vec<u32> {
    hits.iter().map(|h| h.table.0).collect()
}

fn intersect_sets(acc: Option<Vec<u32>>, next: &[TableHit]) -> Vec<u32> {
    match acc {
        None => tables_of(next),
        Some(prev) => {
            let set: FxHashSet<u32> = next.iter().map(|h| h.table.0).collect();
            prev.into_iter().filter(|t| set.contains(t)).collect()
        }
    }
}

fn eval(ctx: &mut Ctx<'_>, id: &str, injected: Option<Injected>) -> Result<Vec<TableHit>> {
    // Seeker boundary: a cancelled/expired plan stops before starting the
    // next operator instead of running the whole DAG to completion.
    ctx.interrupt.check()?;
    // Injections are only legal for single-consumer nodes; the caller
    // guarantees it, but memoization must stay injection-free.
    if injected.is_none() {
        if let Some(hit) = ctx.memo.get(id) {
            return Ok(hit.clone());
        }
    }
    // Borrowed from the plan, not from `ctx`: the seekers' value lists are
    // read in place, never copied per evaluation.
    let plan = ctx.plan;
    let node = plan
        .node(id)
        .ok_or_else(|| blend_common::BlendError::PlanInvalid(format!("unknown node `{id}`")))?;

    let hits = match *node {
        Node::Seeker { ref seeker, k } => {
            let span = blend_obs::span_owned(format!("seeker:{}", seeker.label()));
            span.attr_str("node", id);
            if injected.is_some() {
                span.attr_str("injected", "true");
            }
            let start = Instant::now();
            let run = seekers::run(ctx.blend, seeker, k, injected.as_ref(), &ctx.interrupt)?;
            span.attr_u64("results", run.hits.len() as u64);
            drop(span);
            if let Some(report) = &mut ctx.report {
                let h = ctx.blend.options().h;
                report.ops.push(OpExecution {
                    id: id.to_string(),
                    op: seeker.label().to_string(),
                    // Taken before the text renders: fields evaluate in order.
                    runtime: start.elapsed(),
                    sql: Some(seekers::executed_sql(seeker, k, h, injected.as_ref())),
                    injected: injected.is_some(),
                    n_results: run.hits.len(),
                    mc_stats: run.mc_stats,
                });
            }
            run.hits
        }
        Node::Combiner {
            combiner,
            k,
            ref inputs,
        } => {
            let results = if ctx.blend.options().optimize {
                eval_inputs_optimized(ctx, combiner, inputs)?
            } else {
                // B-NO: independent evaluation in plan order.
                let mut rs = Vec::with_capacity(inputs.len());
                for i in inputs {
                    rs.push(eval(ctx, i, None)?);
                }
                rs
            };
            let span = blend_obs::span_owned(format!("combine:{}", combiner.label()));
            span.attr_str("node", id);
            let start = Instant::now();
            let combined = combiners::apply(combiner, &results, k);
            span.attr_u64("results", combined.len() as u64);
            drop(span);
            if let Some(report) = &mut ctx.report {
                report.ops.push(OpExecution {
                    id: id.to_string(),
                    op: combiner.label().to_string(),
                    runtime: start.elapsed(),
                    sql: None,
                    injected: false,
                    n_results: combined.len(),
                    mc_stats: None,
                });
            }
            combined
        }
    };

    if injected.is_none() {
        ctx.memo.insert(id.to_string(), hits.clone());
    }
    Ok(hits)
}

/// The seeker of this node if it can receive an injected predicate:
/// single-consumer seekers only.
fn injectable<'p>(ctx: &Ctx<'p>, id: &str) -> Option<&'p Seeker> {
    match ctx.plan.node(id) {
        Some(Node::Seeker { seeker, .. })
            if ctx.consumers.get(id).copied().unwrap_or(0) <= 1 && !ctx.memo.contains_key(id) =>
        {
            Some(seeker)
        }
        _ => None,
    }
}

/// Optimized evaluation of one combiner's inputs. Returns results aligned
/// with `inputs` order (combiner semantics are order-sensitive for
/// Difference).
fn eval_inputs_optimized(
    ctx: &mut Ctx<'_>,
    combiner: Combiner,
    inputs: &[String],
) -> Result<Vec<Vec<TableHit>>> {
    match combiner {
        Combiner::Intersect => {
            // Dependencies (combiners, shared nodes) first...
            let mut results: Vec<Vec<TableHit>> = vec![Vec::new(); inputs.len()];
            let mut acc: Option<Vec<u32>> = None;
            let (mut pending, mut seekers) = (Vec::new(), Vec::new());
            for (i, input) in inputs.iter().enumerate() {
                if let Some(seeker) = injectable(ctx, input) {
                    pending.push(i);
                    seekers.push(seeker);
                } else {
                    let r = eval(ctx, input, None)?;
                    acc = Some(intersect_sets(acc, &r));
                    results[i] = r;
                }
            }
            // ...then ranked seekers, each filtered by everything finished.
            let order = match ctx.blend.options().ordering {
                crate::OrderingMode::Ranked => optimizer::rank_execution_group(ctx.blend, &seekers),
                // Rewriting without reordering (Table IV's "Rand" arm when
                // the caller shuffles plan inputs).
                crate::OrderingMode::PlanOrder => (0..seekers.len()).collect(),
            };
            for oi in order {
                let input_idx = pending[oi];
                let inject = acc.clone().map(Injected::In);
                let r = eval(ctx, &inputs[input_idx], inject)?;
                acc = Some(intersect_sets(acc, &r));
                results[input_idx] = r;
            }
            Ok(results)
        }
        Combiner::Difference => {
            // Subtrahend first; minuend gets NOT IN (paper Example 1).
            let sub = eval(ctx, &inputs[1], None)?;
            let minuend = if injectable(ctx, &inputs[0]).is_some() {
                eval(ctx, &inputs[0], Some(Injected::NotIn(tables_of(&sub))))?
            } else {
                eval(ctx, &inputs[0], None)?
            };
            Ok(vec![minuend, sub])
        }
        Combiner::Union | Combiner::Counter => {
            let mut rs = Vec::with_capacity(inputs.len());
            for i in inputs {
                rs.push(eval(ctx, i, None)?);
            }
            Ok(rs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blend_common::TableId;
    use blend_storage::EngineKind;

    /// The paper's Fig. 1 lake: S wants up-to-date department heads.
    /// T1 (id 0) = team sizes, T2 (id 1) = 2022 staff with Tom Riddle,
    /// T3 (id 2) = 2024 staff.
    fn fig1_blend(optimize: bool) -> Blend {
        use blend_common::{Column, Table};
        let t1 = Table::new(
            TableId(0),
            "T1-sizes",
            vec![
                Column::new("team", vec!["Finance", "Marketing", "HR", "IT", "Sales"]),
                Column::new("size", vec![31i64, 28, 33, 92, 80]),
            ],
        )
        .unwrap();
        let staff = |year: i64, it_lead: &str| {
            vec![
                Column::new(
                    "lead",
                    vec![
                        it_lead,
                        "Draco Malfoy",
                        "Harry Potter",
                        "Cho Chang",
                        "Luna Lovegood",
                        "Firenze",
                    ],
                ),
                Column::new("year", vec![year; 6]),
                Column::new(
                    "team",
                    vec!["IT", "Marketing", "Finance", "R&D", "Sales", "HR"],
                ),
            ]
        };
        let t2 = Table::new(TableId(1), "T2-2022", staff(2022, "Tom Riddle")).unwrap();
        let t3 = Table::new(TableId(2), "T3-2024", staff(2024, "Ronald Weasley")).unwrap();
        let lake = blend_lake::DataLake::new("fig1", vec![t1, t2, t3]);
        let mut blend = Blend::from_lake(&lake, EngineKind::Column);
        blend.set_optimize(optimize);
        blend
    }

    /// Paper Example 1 as a plan: tables containing ("hr","firenze") in a
    /// row, overlapping the department column, *without* ("it","tom
    /// riddle") — the answer must be T3.
    fn example1_plan() -> Plan {
        let mut p = Plan::new();
        p.add_seeker(
            "p_examples",
            Seeker::mc(vec![vec!["HR".into(), "Firenze".into()]]),
            10,
        )
        .unwrap();
        p.add_seeker(
            "n_examples",
            Seeker::mc(vec![vec!["IT".into(), "Tom Riddle".into()]]),
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
        p.add_seeker(
            "dep",
            Seeker::sc(vec![
                "HR".into(),
                "Marketing".into(),
                "Finance".into(),
                "IT".into(),
                "R&D".into(),
                "Sales".into(),
            ]),
            10,
        )
        .unwrap();
        p.add_combiner("intersect", Combiner::Intersect, 10, &["exclude", "dep"])
            .unwrap();
        p
    }

    #[test]
    fn example_1_answer_is_t3() {
        for optimize in [true, false] {
            let blend = fig1_blend(optimize);
            let hits = blend.execute(&example1_plan()).unwrap();
            let ids: Vec<u32> = hits.iter().map(|h| h.table.0).collect();
            assert_eq!(ids, vec![2], "optimize={optimize}: expected T3 only");
        }
    }

    #[test]
    fn intermediate_sets_match_paper_walkthrough() {
        // rs1 = {T2, T3}; rs2 = {T2}; rs3 = {T1, T2, T3} (paper Example 1).
        let blend = fig1_blend(false);
        let run = |p: &Plan| {
            blend
                .execute(p)
                .unwrap()
                .iter()
                .map(|h| h.table.0)
                .collect::<std::collections::BTreeSet<u32>>()
        };
        let mut p1 = Plan::new();
        p1.add_seeker(
            "q",
            Seeker::mc(vec![vec!["HR".into(), "Firenze".into()]]),
            10,
        )
        .unwrap();
        assert_eq!(run(&p1), [1u32, 2].into_iter().collect());
        let mut p2 = Plan::new();
        p2.add_seeker(
            "q",
            Seeker::mc(vec![vec!["IT".into(), "Tom Riddle".into()]]),
            10,
        )
        .unwrap();
        assert_eq!(run(&p2), [1u32].into_iter().collect());
        let mut p3 = Plan::new();
        p3.add_seeker(
            "q",
            Seeker::sc(vec![
                "HR".into(),
                "Marketing".into(),
                "Finance".into(),
                "IT".into(),
                "R&D".into(),
                "Sales".into(),
            ]),
            10,
        )
        .unwrap();
        assert_eq!(run(&p3), [0u32, 1, 2].into_iter().collect());
    }

    #[test]
    fn optimizer_injects_and_preserves_output() {
        // Theorem 1: the optimizer must not alter the output.
        let optimized = fig1_blend(true);
        let naive = fig1_blend(false);
        let plan = example1_plan();
        let (h1, r1) = optimized.execute_with_report(&plan).unwrap();
        let (h2, r2) = naive.execute_with_report(&plan).unwrap();
        let set1: std::collections::BTreeSet<u32> = h1.iter().map(|h| h.table.0).collect();
        let set2: std::collections::BTreeSet<u32> = h2.iter().map(|h| h.table.0).collect();
        assert_eq!(set1, set2);
        assert!(r1.optimized && !r2.optimized);
        // The optimized run must actually inject at least once (the MC
        // minuend gets NOT IN, the second intersect seeker gets IN).
        assert!(r1.ops.iter().any(|o| o.injected));
        assert!(r2.ops.iter().all(|o| !o.injected));
    }

    #[test]
    fn intersection_ranks_sc_before_mc() {
        let blend = fig1_blend(true);
        let mut p = Plan::new();
        p.add_seeker(
            "mc",
            Seeker::mc(vec![vec!["HR".into(), "Firenze".into()]]),
            10,
        )
        .unwrap();
        p.add_seeker("sc", Seeker::sc(vec!["HR".into(), "IT".into()]), 10)
            .unwrap();
        p.add_combiner("i", Combiner::Intersect, 10, &["mc", "sc"])
            .unwrap();
        let (_, report) = blend.execute_with_report(&p).unwrap();
        assert_eq!(report.seeker_order(), vec!["sc", "mc"]);
        // And the MC seeker ran with an injected filter.
        let mc_op = report.ops.iter().find(|o| o.id == "mc").unwrap();
        assert!(mc_op.injected);
        assert!(mc_op.sql.as_deref().unwrap().contains("TableId IN"));
    }

    #[test]
    fn shared_nodes_are_not_injected() {
        let blend = fig1_blend(true);
        let mut p = Plan::new();
        p.add_seeker("shared", Seeker::sc(vec!["HR".into()]), 10)
            .unwrap();
        p.add_seeker("other", Seeker::sc(vec!["IT".into()]), 10)
            .unwrap();
        p.add_combiner("i", Combiner::Intersect, 10, &["shared", "other"])
            .unwrap();
        p.add_combiner("u", Combiner::Union, 10, &["shared", "i"])
            .unwrap();
        let (_, report) = blend.execute_with_report(&p).unwrap();
        let shared_ops: Vec<&OpExecution> =
            report.ops.iter().filter(|o| o.id == "shared").collect();
        // Executed exactly once (memoized), never injected.
        assert_eq!(shared_ops.len(), 1);
        assert!(!shared_ops[0].injected);
    }

    #[test]
    fn empty_intersection_short_circuits() {
        let blend = fig1_blend(true);
        let mut p = Plan::new();
        p.add_seeker(
            "none",
            Seeker::sc(vec!["value-that-does-not-exist".into()]),
            10,
        )
        .unwrap();
        p.add_seeker(
            "mc",
            Seeker::mc(vec![vec!["HR".into(), "Firenze".into()]]),
            10,
        )
        .unwrap();
        p.add_combiner("i", Combiner::Intersect, 10, &["none", "mc"])
            .unwrap();
        let (hits, report) = blend.execute_with_report(&p).unwrap();
        assert!(hits.is_empty());
        // The MC seeker must have been skipped (empty SQL = short circuit).
        let mc_op = report.ops.iter().find(|o| o.id == "mc").unwrap();
        assert_eq!(mc_op.sql.as_deref(), Some(""));
        assert_eq!(mc_op.n_results, 0);
    }

    #[test]
    fn difference_subtrahend_runs_first_under_optimizer() {
        let blend = fig1_blend(true);
        let mut p = Plan::new();
        p.add_seeker(
            "pos",
            Seeker::mc(vec![vec!["HR".into(), "Firenze".into()]]),
            10,
        )
        .unwrap();
        p.add_seeker(
            "neg",
            Seeker::mc(vec![vec!["IT".into(), "Tom Riddle".into()]]),
            10,
        )
        .unwrap();
        p.add_combiner("d", Combiner::Difference, 10, &["pos", "neg"])
            .unwrap();
        let (hits, report) = blend.execute_with_report(&p).unwrap();
        assert_eq!(report.seeker_order(), vec!["neg", "pos"]);
        let pos_op = report.ops.iter().find(|o| o.id == "pos").unwrap();
        assert!(pos_op.sql.as_deref().unwrap().contains("NOT IN (1)"));
        let ids: Vec<u32> = hits.iter().map(|h| h.table.0).collect();
        assert_eq!(ids, vec![2]);
    }

    #[test]
    fn correlation_seeker_finds_size_table() {
        // Team sizes in T1 correlate with nothing here, but the seeker must
        // at least run end-to-end and return T1 for a size-like target.
        let blend = fig1_blend(true);
        let mut p = Plan::new();
        // Query: departments with a target roughly proportional to T1 sizes.
        p.add_seeker(
            "corr",
            Seeker::c(
                vec![
                    "finance".into(),
                    "marketing".into(),
                    "hr".into(),
                    "it".into(),
                    "sales".into(),
                ],
                vec![30.0, 29.0, 32.0, 95.0, 78.0],
            ),
            5,
        )
        .unwrap();
        let hits = blend.execute(&p).unwrap();
        assert!(!hits.is_empty());
        assert_eq!(hits[0].table, TableId(0), "T1 holds the size column");
        assert!(hits[0].score > 0.5, "score {}", hits[0].score);
    }
}
