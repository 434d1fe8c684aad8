//! `seekers_direct` and `tasks_direct`: one closed-loop client calling
//! `Blend::execute` on discovery plans.

use std::sync::Arc;
use std::time::Instant;

use blend::plan::Node;
use blend::{Blend, ExecutionReport, OrderingMode, Plan, Seeker};
use blend_parallel::{Interrupt, ParallelCtx};
use blend_sql::SqlEngine;
use blend_storage::{EngineKind, FactTable};

use crate::inputs::{seeker_text, shuffled_order, Inputs, SeekerOp, TaskOp, K};
use crate::json::Json;
use crate::layers::{
    fill_index, fill_registry_parallel, ns_to_ms, ns_to_us, task_metric, LayerMetrics, SqlProbe,
};
use crate::oracle::{encode_hits, matches_ground_truth};
use crate::run::{Checked, Pass, Traced, Workload};
use crate::stats::{derive_seed, median, Digest};
use crate::trace::Recorder;

/// `Blend::train_cost_models` samples per seeker type, in set-up.
pub const TRAIN_SAMPLES: usize = 8;
/// Operations in the subset the variant passes (SIMD off, sequential, row
/// store, B-NO, plan order) of a traced run go over.
pub const VARIANT_OPS: usize = 48;

pub struct Direct<'a> {
    inputs: &'a Inputs,
    /// `--seed`: the order of every pass.
    seed: u64,
    name: &'static str,
    plans: Vec<Plan>,
    /// Class or task label per plan.
    labels: Vec<&'static str>,
    /// The single seeker of a `seekers_direct` plan (ground-truth checks).
    seekers: Vec<Option<Seeker>>,
    /// Rank with trained cost models (`tasks_direct`).
    train: bool,
    /// Every this-many-th SC/KW/MC operation is checked against the
    /// brute-force oracle (20 = the 5 % sample of a full run).
    ground_truth_every: usize,
}

pub struct DirectSystem {
    blend: Blend,
    build_s: f64,
    /// Encoded result per plan, recorded by the warm-up pass.
    refs: Vec<Vec<u8>>,
    warmup_errors: u64,
}

impl<'a> Direct<'a> {
    pub fn seekers(
        inputs: &'a Inputs,
        seed: u64,
        ops: Vec<SeekerOp>,
        ground_truth_every: usize,
    ) -> Direct<'a> {
        Direct {
            inputs,
            seed,
            name: "seekers_direct",
            plans: ops.iter().map(SeekerOp::plan).collect(),
            labels: ops.iter().map(|o| o.class.label()).collect(),
            seekers: ops.into_iter().map(|o| Some(o.seeker)).collect(),
            train: false,
            ground_truth_every: ground_truth_every.max(1),
        }
    }

    pub fn tasks(inputs: &'a Inputs, seed: u64, ops: Vec<TaskOp>) -> Direct<'a> {
        Direct {
            inputs,
            seed,
            name: "tasks_direct",
            labels: ops.iter().map(|o| o.task.label()).collect(),
            seekers: vec![None; ops.len()],
            plans: ops.into_iter().map(|o| o.plan).collect(),
            train: true,
            ground_truth_every: 1,
        }
    }

    /// Execute `plans[i]` for every `i` of `order`; verify against `refs`
    /// once the clock has stopped.
    fn run_pass(&self, blend: &Blend, order: &[usize], refs: &[Vec<u8>]) -> Pass {
        let mut lat_ns = Vec::with_capacity(order.len());
        let mut results = Vec::with_capacity(order.len());
        let start = Instant::now();
        for &i in order {
            let t = Instant::now();
            let out = blend.execute(&self.plans[i]);
            lat_ns.push(t.elapsed().as_nanos() as u64);
            results.push(out);
        }
        let wall_ns = start.elapsed().as_nanos() as u64;
        let failed = order
            .iter()
            .zip(&results)
            .filter(|(&i, out)| !matches!(out, Ok(hits) if encode_hits(hits) == refs[i]))
            .count() as u64;
        Pass {
            lat_ns,
            kinds: order.iter().map(|&i| self.labels[i].to_string()).collect(),
            wall_ns,
            failed,
        }
    }

    fn seconds_for(&self, blend: &Blend, subset: &[usize]) -> f64 {
        let t = Instant::now();
        for &i in subset {
            let _ = std::hint::black_box(blend.execute(&self.plans[i]));
        }
        t.elapsed().as_secs_f64()
    }
}

fn plan_seekers(plan: &Plan) -> Vec<&Seeker> {
    plan.node_ids()
        .iter()
        .filter_map(|id| match plan.node(id) {
            Some(Node::Seeker { seeker, .. }) => Some(seeker),
            _ => None,
        })
        .collect()
}

/// Every `stride`-th of `n` operations, about [`VARIANT_OPS`] in all: keeps
/// the mix of a class-major list.
pub fn variant_subset(n: usize) -> Vec<usize> {
    (0..n).step_by(n.div_ceil(VARIANT_OPS).max(1)).collect()
}

/// `IndexBuilder::build` with the product's default options, timed.
pub fn build_fact(tables: &[blend_common::Table], kind: EngineKind) -> (Arc<dyn FactTable>, f64) {
    let t = Instant::now();
    let fact = blend_index::IndexBuilder::new().build(tables, kind);
    (fact, t.elapsed().as_secs_f64())
}

impl Workload for Direct<'_> {
    type System = DirectSystem;

    fn setup(&self, rec: &mut Recorder) -> DirectSystem {
        let (_, _, (fact, build_s)) = rec.time("index.build", None, 0, || {
            build_fact(&self.inputs.lake.tables, EngineKind::Column)
        });
        let blend = Blend::new(fact);
        if self.train {
            blend.train_cost_models(
                &self.inputs.lake,
                TRAIN_SAMPLES,
                derive_seed(self.inputs.seed, 6),
            );
        }
        let mut warmup_errors = 0;
        let refs = self
            .plans
            .iter()
            .map(|p| match blend.execute(p) {
                Ok(hits) => encode_hits(&hits),
                Err(_) => {
                    warmup_errors += 1;
                    b"error".to_vec()
                }
            })
            .collect();
        DirectSystem {
            blend,
            build_s,
            refs,
            warmup_errors,
        }
    }

    fn references(&self, sys: &mut DirectSystem) -> Checked {
        let mut checked = Checked {
            attempted: self.plans.len() as u64,
            failed: sys.warmup_errors,
        };
        // A sample of the SC/KW/MC operations against the brute-force
        // reading of the lake.
        let candidates = self
            .seekers
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (i, s)))
            .filter(|(_, s)| !matches!(s, Seeker::C { .. }));
        for (i, seeker) in candidates.step_by(self.ground_truth_every) {
            let hits = sys.blend.execute(&self.plans[i]).unwrap_or_default();
            if let Some(ok) = matches_ground_truth(&self.inputs.lake, seeker, &hits) {
                checked.add(ok);
            }
        }
        checked
    }

    fn pass(&self, sys: &mut DirectSystem, pass: u64, _rec: &mut Recorder) -> Pass {
        let order = shuffled_order(self.plans.len(), derive_seed(self.seed, 100 + pass));
        self.run_pass(&sys.blend, &order, &sys.refs)
    }

    fn index_bytes(&self, sys: &DirectSystem) -> usize {
        sys.blend.fact_table().size_bytes()
    }

    fn result_digest(&self, sys: &DirectSystem) -> String {
        let mut d = Digest::default();
        sys.refs.iter().for_each(|r| d.update(r));
        d.hex()
    }

    fn describe(&self) -> Json {
        let mut per_label: Vec<(&str, usize)> = Vec::new();
        for l in &self.labels {
            match per_label.iter_mut().find(|(k, _)| k == l) {
                Some((_, n)) => *n += 1,
                None => per_label.push((l, 1)),
            }
        }
        Json::obj([
            ("name", Json::str(self.name)),
            ("clients", Json::from(1usize)),
            ("loop", Json::str("closed")),
            ("ops_per_pass", Json::from(self.plans.len())),
            (
                "ops_per_pass_by_kind",
                Json::obj(per_label.into_iter().map(|(k, n)| (k, Json::from(n)))),
            ),
            ("k", Json::from(K)),
            ("ordering", Json::str("ranked")),
            (
                "cost_model_samples",
                Json::from(if self.train { TRAIN_SAMPLES } else { 0 }),
            ),
        ])
    }

    fn trace(&self, sys: &mut DirectSystem, rec: &mut Recorder) -> Traced {
        let mut m = LayerMetrics::default();
        let mut checked = Checked::default();
        let lake = &self.inputs.lake;
        checked.add(fill_index(
            &mut m,
            &lake.tables,
            sys.build_s,
            lake.stats().cells,
        ));
        let order: Vec<usize> = (0..self.plans.len()).collect();

        // Untraced against traced: the same pass with observability off,
        // then on with one `core.execute` span per plan, then off again
        // (the untraced time is the mean of the two, so warming up or a
        // drifting machine does not read as negative overhead).
        blend_obs::set_enabled(false);
        let untraced = self.run_pass(&sys.blend, &order, &sys.refs);
        blend_obs::set_enabled(true);
        let before = blend_obs::registry().snapshot();
        let mut reports: Vec<Option<ExecutionReport>> = Vec::with_capacity(order.len());
        let mut traced_ns = 0u64;
        for &i in &order {
            let op = i as u64 + 1;
            let (span, ns, out) = rec.time("core.execute", None, op, || {
                sys.blend.execute_with_report(&self.plans[i])
            });
            traced_ns += ns;
            match out {
                Ok((hits, report)) => {
                    checked.add(encode_hits(&hits) == sys.refs[i]);
                    if let Some(p) = &report.profile {
                        rec.merge_profile(span, &p.root);
                    }
                    reports.push(Some(report));
                }
                Err(_) => {
                    checked.add(false);
                    reports.push(None);
                }
            }
        }
        let after = blend_obs::registry().snapshot();
        blend_obs::set_enabled(false);
        let untraced_again = self.run_pass(&sys.blend, &order, &sys.refs);
        blend_obs::set_enabled(true);
        let mut untraced_ns = 0u64;
        for pass in [&untraced, &untraced_again] {
            checked.attempted += pass.lat_ns.len() as u64;
            checked.failed += pass.failed;
            untraced_ns += pass.lat_ns.iter().sum::<u64>();
        }
        m.set(
            "obs.overhead_ratio",
            traced_ns as f64 / (untraced_ns as f64 / 2.0).max(1.0),
        );
        fill_registry_parallel(&mut m, &before, &after);

        // What `core` reports about the traced pass.
        let mut seeker_ns: [Vec<f64>; 4] = Default::default();
        let mut combiner_ns = Vec::new();
        let (mut n_seekers, mut n_injected) = (0u64, 0u64);
        let mut mc = blend::seekers::McStats::default();
        let mut task_ns: Vec<(&str, Vec<f64>)> = Vec::new();
        for (i, report) in reports.iter().enumerate() {
            let Some(report) = report else { continue };
            for o in &report.ops {
                let slot = match o.op.as_str() {
                    "SC" => Some(0),
                    "KW" => Some(1),
                    "MC" => Some(2),
                    "C" => Some(3),
                    _ => None,
                };
                match slot {
                    Some(s) => {
                        seeker_ns[s].push(o.runtime.as_nanos() as f64);
                        n_seekers += 1;
                        n_injected += o.injected as u64;
                    }
                    None => combiner_ns.push(o.runtime.as_nanos() as f64),
                }
            }
            let totals = report.mc_totals();
            mc.candidates += totals.candidates;
            mc.validated += totals.validated;
            if self.train {
                let ns = report.total.as_nanos() as f64;
                match task_ns.iter_mut().find(|(l, _)| *l == self.labels[i]) {
                    Some((_, v)) => v.push(ns),
                    None => task_ns.push((self.labels[i], vec![ns])),
                }
            }
        }
        let seeker_metrics = [
            "core.seeker_sc_ms",
            "core.seeker_kw_ms",
            "core.seeker_mc_ms",
            "core.seeker_c_ms",
        ];
        for (name, ns) in seeker_metrics.into_iter().zip(&seeker_ns) {
            m.set(name, ns_to_ms(median(ns)));
        }
        m.set("core.combiner_us", ns_to_us(median(&combiner_ns)));
        m.set("core.mc_precision", mc.precision());
        m.set(
            "core.injected_ratio",
            n_injected as f64 / n_seekers.max(1) as f64,
        );
        for (label, ns) in &task_ns {
            let name = task_metric(label).expect("every task has a per-layer metric");
            m.set(name, ns_to_ms(median(ns)));
        }

        // The layers below `core`, one public call at a time: SQL
        // generation, then parse / fingerprint / plan / execute of every
        // statement the traced pass sent (after rewriting), then the
        // application phases of MC and C.
        let engine = SqlEngine::with_alltables(sys.blend.fact_table());
        let h = sys.blend.options().h;
        let mut probe = SqlProbe::default();
        let (mut sqlgen_ns, mut rank_ns, mut post_ns) = (Vec::new(), Vec::new(), Vec::new());
        for (i, report) in reports.iter().enumerate() {
            let op = i as u64 + 1;
            let root = rec.open("op", None, op);
            let seekers = plan_seekers(&self.plans[i]);
            for s in &seekers {
                let (_, ns, _) = rec.time("core.sqlgen", root, op, || {
                    std::hint::black_box(blend::seekers::seeker_sql(s, K, h))
                });
                sqlgen_ns.push(ns as f64);
            }
            let (_, ns, _) = rec.time("core.rank", root, op, || {
                std::hint::black_box(blend::optimizer::rank_execution_group(&sys.blend, &seekers))
            });
            rank_ns.push(ns as f64);
            let sent = report
                .iter()
                .flat_map(|r| &r.ops)
                .filter_map(|o| o.sql.as_deref())
                .filter(|sql| !sql.is_empty());
            for sql in sent {
                probe.statement(rec, root, op, &engine, sql);
            }
            for s in seekers
                .iter()
                .filter(|s| matches!(s, Seeker::Mc { .. } | Seeker::C { .. }))
            {
                let (_, run_ns, run) = rec.time("core.seeker_run", root, op, || {
                    blend::seekers::run(&sys.blend, s, K, None, &Interrupt::never())
                });
                let t = Instant::now();
                let _ = std::hint::black_box(engine.execute(&seeker_text(s, h)));
                let exec_ns = t.elapsed().as_nanos() as u64;
                if run.is_ok() {
                    post_ns.push(run_ns.saturating_sub(exec_ns) as f64);
                }
            }
            rec.close(root);
        }
        probe.fill(&mut m, self.plans.len());
        m.set("core.sqlgen_us", ns_to_us(median(&sqlgen_ns)));
        m.set("core.rank_us", ns_to_us(median(&rank_ns)));
        m.set("core.postprocess_ms", ns_to_ms(median(&post_ns)));

        // Variant passes over a subset, observability off as in the
        // end-to-end runs; the default is timed before and after them.
        blend_obs::set_enabled(false);
        let subset = variant_subset(self.plans.len());
        let default_before = self.seconds_for(&sys.blend, &subset);
        blend_simd::force(Some(false));
        let simd_off = self.seconds_for(&sys.blend, &subset);
        blend_simd::force(None);
        let shared = sys.blend.parallel_ctx();
        sys.blend.set_parallel(Arc::new(ParallelCtx::sequential()));
        let sequential = self.seconds_for(&sys.blend, &subset);
        sys.blend.set_parallel(shared);
        sys.blend.set_optimize(false);
        let bno = self.seconds_for(&sys.blend, &subset);
        sys.blend.set_optimize(true);
        sys.blend.set_ordering(OrderingMode::PlanOrder);
        let plan_order = self.seconds_for(&sys.blend, &subset);
        sys.blend.set_ordering(OrderingMode::Ranked);
        let (row_fact, _) = build_fact(&lake.tables, EngineKind::Row);
        let row = self.seconds_for(&Blend::new(row_fact), &subset);
        let default_after = self.seconds_for(&sys.blend, &subset);
        let default = (default_before + default_after) / 2.0;
        m.set("simd.off_on_ratio", simd_off / default);
        m.set("parallel.speedup_vs_1t", sequential / default);
        m.set("core.bno_ratio", bno / default);
        m.set("core.planorder_ratio", plan_order / default);
        m.set("storage.row_store_ratio", row / default);
        blend_obs::set_enabled(true);
        Traced { layers: m, checked }
    }
}
