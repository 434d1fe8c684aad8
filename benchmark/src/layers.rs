//! Per-layer metrics of the traced run: their names, and the accumulators
//! that fill them from the reports the program's public functions return.
//!
//! A layer is a crate. A metric is 0 on a workload that does not exercise
//! its layer (no `serve.*` activity on the direct workloads, no `core.*`
//! on the served ones).

use std::collections::BTreeMap;
use std::time::Instant;

use blend_obs::{AttrValue, ProfileNode, Snapshot};
use blend_sql::{QueryReport, ResultSet, SqlEngine};

use crate::stats::{mean, median};
use crate::trace::Recorder;

/// (name, unit, better). The order is the order of BENCHMARK.json.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("index.build_s", "s", "lower"),
    ("index.build_cells_per_s", "1/s", "higher"),
    ("index.encode_ms", "ms", "lower"),
    ("index.decode_ms", "ms", "lower"),
    ("storage.scanned_rows_per_op", "count", "lower"),
    ("storage.scanned_per_emitted", "ratio", "lower"),
    ("storage.row_store_ratio", "ratio", "lower"),
    ("sql.parse_us", "us", "lower"),
    ("sql.fingerprint_us", "us", "lower"),
    ("sql.plan_us", "us", "lower"),
    ("sql.exec_ms", "ms", "lower"),
    ("sql.scan_ms", "ms", "lower"),
    ("sql.join_build_ms", "ms", "lower"),
    ("sql.join_probe_ms", "ms", "lower"),
    ("sql.group_ms", "ms", "lower"),
    ("sql.hashtable_build_ms", "ms", "lower"),
    ("sql.positional_ratio", "ratio", "higher"),
    ("sql.unaccounted_ratio", "ratio", "lower"),
    ("simd.off_on_ratio", "ratio", "higher"),
    ("parallel.speedup_vs_1t", "ratio", "higher"),
    ("parallel.granted_width_mean", "count", "higher"),
    ("parallel.balance_ratio", "ratio", "higher"),
    ("parallel.admission_wait_ms", "ms", "lower"),
    ("parallel.pool_residency_us", "us", "lower"),
    ("parallel.mem_peak_bytes", "B", "lower"),
    ("core.sqlgen_us", "us", "lower"),
    ("core.rank_us", "us", "lower"),
    ("core.seeker_sc_ms", "ms", "lower"),
    ("core.seeker_kw_ms", "ms", "lower"),
    ("core.seeker_mc_ms", "ms", "lower"),
    ("core.seeker_c_ms", "ms", "lower"),
    ("core.combiner_us", "us", "lower"),
    ("core.postprocess_ms", "ms", "lower"),
    ("core.mc_precision", "ratio", "higher"),
    ("core.injected_ratio", "ratio", "higher"),
    ("core.bno_ratio", "ratio", "higher"),
    ("core.planorder_ratio", "ratio", "higher"),
    ("core.task_union_search_ms", "ms", "lower"),
    ("core.task_imputation_ms", "ms", "lower"),
    ("core.task_negative_examples_ms", "ms", "lower"),
    ("core.task_feature_discovery_ms", "ms", "lower"),
    ("core.task_multi_objective_ms", "ms", "lower"),
    ("serve.queue_wait_ms", "ms", "lower"),
    ("serve.exec_ms", "ms", "lower"),
    ("serve.overhead_us", "us", "lower"),
    ("serve.hit_latency_us", "us", "lower"),
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("serve.coalesced_ratio", "ratio", "higher"),
    ("serve.shed_ratio", "ratio", "lower"),
    ("serve.timeout_ratio", "ratio", "lower"),
    ("serve.cache_evictions", "count", "lower"),
    ("serve.cache_bytes", "B", "lower"),
    ("serve.swap_stall_ms", "ms", "lower"),
    ("serve.rebuild_s", "s", "lower"),
    ("obs.overhead_ratio", "ratio", "lower"),
];

/// Values of the per-layer metrics; anything never set reads 0.
#[derive(Debug, Default)]
pub struct LayerMetrics(BTreeMap<&'static str, f64>);

impl LayerMetrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The `core.task_<label>_ms` metric of a `blend::tasks` plan kind.
pub fn task_metric(label: &str) -> Option<&'static str> {
    let name = format!("core.task_{label}_ms");
    PER_LAYER.iter().map(|m| m.0).find(|n| *n == name)
}

pub fn ns_to_ms(ns: f64) -> f64 {
    ns / 1e6
}

pub fn ns_to_us(ns: f64) -> f64 {
    ns / 1e3
}

/// What the SQL, storage and parallel layers report, gathered by running
/// each statement through the engine's public stages one call at a time.
#[derive(Default)]
pub struct SqlProbe {
    parse_ns: Vec<f64>,
    fingerprint_ns: Vec<f64>,
    plan_ns: Vec<f64>,
    exec_ns: Vec<f64>,
    scan_ns: u64,
    join_build_ns: u64,
    join_probe_ns: u64,
    group_ns: u64,
    hashtable_build_ns: u64,
    positional: u64,
    scanned: u64,
    emitted: u64,
    granted: Vec<f64>,
    balance: Vec<f64>,
    mem_peak_bytes: u64,
}

impl SqlProbe {
    /// Parse, fingerprint, plan and execute `sql`, one span each under
    /// `parent`. Returns the result and the execution's wall nanoseconds.
    pub fn statement(
        &mut self,
        rec: &mut Recorder,
        parent: Option<usize>,
        op: u64,
        engine: &SqlEngine,
        sql: &str,
    ) -> Option<(ResultSet, u64)> {
        let (_, ns, ast) = rec.time("sql.parse", parent, op, || blend_sql::parser::parse(sql));
        self.parse_ns.push(ns as f64);
        let ast = ast.ok()?;
        let (_, ns, _) = rec.time("sql.fingerprint", parent, op, || {
            std::hint::black_box(blend_sql::fingerprint_query(&ast))
        });
        self.fingerprint_ns.push(ns as f64);
        let (_, ns, _) = rec.time("sql.plan", parent, op, || {
            std::hint::black_box(blend_sql::plan::plan_query(&ast, engine.database()).is_ok())
        });
        self.plan_ns.push(ns as f64);
        let (span, ns, out) = rec.time("sql.exec", parent, op, || engine.execute_with_report(sql));
        let (rs, report) = out.ok()?;
        self.exec_ns.push(ns as f64);
        self.report(&report);
        if let Some(profile) = &report.profile {
            rec.merge_profile(span, &profile.root);
        }
        Some((rs, ns))
    }

    /// Fold one returned `QueryReport` into the totals.
    fn report(&mut self, report: &QueryReport) {
        for s in &report.scans {
            self.scanned += s.scanned as u64;
            self.emitted += s.emitted as u64;
        }
        for p in &report.parallel {
            self.granted.push(p.granted as f64);
            let max = p.worker_nanos.iter().copied().max().unwrap_or(0);
            if max > 0 && p.granted > 0 {
                let busy: u64 = p.worker_nanos.iter().sum();
                self.balance
                    .push(busy as f64 / (p.granted as f64 * max as f64));
            }
        }
        self.hashtable_build_ns += report
            .hash_tables
            .iter()
            .map(|h| h.build_nanos)
            .sum::<u64>();
        if report.path == "positional" {
            self.positional += 1;
        }
        if let Some(profile) = &report.profile {
            self.profile(&profile.root);
        }
    }

    /// Phase spans of one query's profile tree (root `query`).
    fn profile(&mut self, node: &ProfileNode) {
        if let Some(AttrValue::U64(peak)) = node.attr("mem_peak_bytes") {
            self.mem_peak_bytes = self.mem_peak_bytes.max(*peak);
        }
        for child in &node.children {
            match child.name.as_str() {
                n if n.starts_with("scan:") => self.scan_ns += child.nanos,
                "join.build" => self.join_build_ns += child.nanos,
                "join.probe" => self.join_probe_ns += child.nanos,
                n if n.starts_with("group") => self.group_ns += child.nanos,
                // Nested queries (subselects) report under their own root.
                _ => self.profile(child),
            }
        }
    }

    /// Fill the `sql.*`, `storage.scanned_*` and report-derived
    /// `parallel.*` metrics. Phase times and `sql.exec_ms` are means per
    /// statement so that the parts add up to the whole; the three
    /// front-end stages are medians.
    pub fn fill(&self, m: &mut LayerMetrics, ops: usize) {
        let n = self.exec_ns.len().max(1) as f64;
        let exec_total: f64 = self.exec_ns.iter().sum();
        m.set("sql.parse_us", ns_to_us(median(&self.parse_ns)));
        m.set("sql.fingerprint_us", ns_to_us(median(&self.fingerprint_ns)));
        m.set("sql.plan_us", ns_to_us(median(&self.plan_ns)));
        m.set("sql.exec_ms", ns_to_ms(exec_total / n));
        m.set("sql.scan_ms", ns_to_ms(self.scan_ns as f64 / n));
        m.set("sql.join_build_ms", ns_to_ms(self.join_build_ns as f64 / n));
        m.set("sql.join_probe_ms", ns_to_ms(self.join_probe_ns as f64 / n));
        m.set("sql.group_ms", ns_to_ms(self.group_ns as f64 / n));
        m.set(
            "sql.hashtable_build_ms",
            ns_to_ms(self.hashtable_build_ns as f64 / n),
        );
        m.set("sql.positional_ratio", self.positional as f64 / n);
        let named = self.scan_ns + self.join_build_ns + self.join_probe_ns + self.group_ns;
        if exec_total > 0.0 {
            m.set("sql.unaccounted_ratio", 1.0 - named as f64 / exec_total);
        }
        m.set(
            "storage.scanned_rows_per_op",
            self.scanned as f64 / ops.max(1) as f64,
        );
        if self.emitted > 0 {
            m.set(
                "storage.scanned_per_emitted",
                self.scanned as f64 / self.emitted as f64,
            );
        }
        m.set("parallel.granted_width_mean", mean(&self.granted));
        m.set("parallel.balance_ratio", mean(&self.balance));
        m.set("parallel.mem_peak_bytes", self.mem_peak_bytes as f64);
    }
}

/// Mean of a registry histogram over the interval between two snapshots.
pub fn histogram_mean_delta(before: &Snapshot, after: &Snapshot, name: &str) -> f64 {
    let get = |s: &Snapshot| s.histograms.get(name).map_or((0, 0), |h| (h.sum, h.count));
    let (s0, c0) = get(before);
    let (s1, c1) = get(after);
    if c1 > c0 {
        s1.wrapping_sub(s0) as f64 / (c1 - c0) as f64
    } else {
        0.0
    }
}

/// `parallel.admission_wait_ms` and `parallel.pool_residency_us` from the
/// registry histograms, over the traced pass.
pub fn fill_registry_parallel(m: &mut LayerMetrics, before: &Snapshot, after: &Snapshot) {
    m.set(
        "parallel.admission_wait_ms",
        ns_to_ms(histogram_mean_delta(
            before,
            after,
            "blend_admission_acquire_wait_nanos",
        )),
    );
    m.set(
        "parallel.pool_residency_us",
        ns_to_us(histogram_mean_delta(
            before,
            after,
            "blend_pool_queue_residency_nanos",
        )),
    );
}

/// `index.*`: the timed build of set-up, plus encode and decode of the
/// lake's fact rows through `blend_index::persist`. Returns whether the
/// persisted rows decoded back to one row per lake cell.
pub fn fill_index(
    m: &mut LayerMetrics,
    tables: &[blend_common::Table],
    build_s: f64,
    cells: usize,
) -> bool {
    m.set("index.build_s", build_s);
    m.set("index.build_cells_per_s", cells as f64 / build_s.max(1e-9));
    let rows = blend_index::IndexBuilder::new().index_lake(tables);
    let t = Instant::now();
    let bytes = blend_index::persist::encode_rows(&rows);
    m.set("index.encode_ms", t.elapsed().as_secs_f64() * 1e3);
    drop(rows);
    let t = Instant::now();
    let decoded = blend_index::persist::decode_rows(&bytes);
    m.set("index.decode_ms", t.elapsed().as_secs_f64() * 1e3);
    decoded.is_ok_and(|rows| rows.len() == cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_metrics_read_zero_and_non_finite_values_are_dropped() {
        let mut m = LayerMetrics::default();
        assert_eq!(m.get("sql.exec_ms"), 0.0);
        m.set("sql.exec_ms", f64::NAN);
        assert_eq!(m.get("sql.exec_ms"), 0.0);
        m.set("sql.exec_ms", 1.5);
        assert_eq!(m.get("sql.exec_ms"), 1.5);
    }

    #[test]
    fn profile_phases_are_summed_by_name() {
        let leaf = |name: &str, nanos| ProfileNode {
            name: name.into(),
            nanos,
            ..Default::default()
        };
        let root = ProfileNode {
            name: "query".into(),
            nanos: 100,
            attrs: vec![("mem_peak_bytes".into(), AttrValue::U64(77))],
            children: vec![
                leaf("scan:keys", 10),
                leaf("scan:nums", 5),
                leaf("join.build", 7),
                leaf("join.probe", 3),
                leaf("group", 20),
            ],
            ..Default::default()
        };
        let mut p = SqlProbe::default();
        p.profile(&root);
        assert_eq!(
            (p.scan_ns, p.join_build_ns, p.join_probe_ns, p.group_ns),
            (15, 7, 3, 20)
        );
        assert_eq!(p.mem_peak_bytes, 77);
    }
}
