//! The part every workload shares: set-up, measured passes until
//! `--seconds` are spent, and the end-to-end metrics.

use std::time::Instant;

use crate::json::Json;
use crate::layers::LayerMetrics;
use crate::stats::{median, percentile, sorted, tail_percentile};
use crate::trace::Recorder;

/// (name, unit, better). The order is the order of BENCHMARK.json.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("op_p50_ms", "ms", "lower"),
    ("op_p95_ms", "ms", "lower"),
    ("throughput_ops_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("index_bytes_per_cell", "B", "lower"),
    ("setup_s", "s", "lower"),
];

/// One pass over a workload's operations.
#[derive(Debug, Default)]
pub struct Pass {
    /// Client-side latency of every operation attempted, failed ones too.
    pub lat_ns: Vec<u64>,
    /// What kind of operation each latency belongs to (seeker class, task,
    /// or how a served request was answered), for the report's breakdown.
    pub kinds: Vec<String>,
    /// First submission to last completion (result checks excluded).
    pub wall_ns: u64,
    /// Errors, sheds, timeouts and wrong results.
    pub failed: u64,
}

/// Checks made outside the measured passes (warm-up, ground truth).
#[derive(Debug, Default, Clone, Copy)]
pub struct Checked {
    pub attempted: u64,
    pub failed: u64,
}

impl Checked {
    pub fn add(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += !ok as u64;
    }
}

pub trait Workload {
    /// Everything `setup_s` pays for.
    type System;

    /// Index build, engine/`Blend`/`ServeQueue` construction, cost-model
    /// training where the workload ranks, and the warm-up pass.
    fn setup(&self, rec: &mut Recorder) -> Self::System;
    /// Untimed: reference results and ground-truth checks.
    fn references(&self, sys: &mut Self::System) -> Checked;
    /// One checked pass in the seeded order of pass number `pass`.
    fn pass(&self, sys: &mut Self::System, pass: u64, rec: &mut Recorder) -> Pass;
    fn index_bytes(&self, sys: &Self::System) -> usize;
    fn result_digest(&self, sys: &Self::System) -> String;
    /// Op counts and fixed settings, for the run metadata.
    fn describe(&self) -> Json;
    /// The per-layer block of a traced run.
    fn trace(&self, sys: &mut Self::System, rec: &mut Recorder) -> Traced;
}

pub struct Traced {
    pub layers: LayerMetrics,
    pub checked: Checked,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// (name, value, unit) in BENCHMARK.json order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Everything else worth recording about the run.
    pub details: Json,
    pub spans: Vec<crate::trace::Span>,
}

/// Run passes until about `seconds` have gone by: a pass is started only
/// while at least half of one would still fit.
fn measured_passes<W: Workload>(
    w: &W,
    sys: &mut W::System,
    seconds: f64,
    rec: &mut Recorder,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        passes.push(w.pass(sys, passes.len() as u64 + 1, rec));
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + 0.5 * elapsed / passes.len() as f64 >= seconds {
            return passes;
        }
    }
}

pub fn end_to_end<W: Workload>(w: &W, seconds: f64, cells: usize) -> Outcome {
    blend_obs::set_enabled(false);
    let mut rec = Recorder::new(Instant::now(), false);
    let t = Instant::now();
    let mut sys = w.setup(&mut rec);
    let setup_s = t.elapsed().as_secs_f64();
    let checked = w.references(&mut sys);
    let passes = measured_passes(w, &mut sys, seconds, &mut rec);
    // Everything the process ever held at once, queries, result cache and a
    // second index during a swap included; the lake and the operations are
    // in it too, the same on every commit.
    let peak_rss_mb = peak_rss_mb();

    // Percentiles per pass, then the median over the passes: a pass that
    // ran while the machine was busy moves the median little.
    let mut samples = 0;
    let (mut p50s, mut p95s, mut p95_used) = (Vec::new(), Vec::new(), 0.95f64);
    for p in &passes {
        let lat_ms = sorted(p.lat_ns.iter().map(|&ns| ns as f64 / 1e6).collect());
        samples += lat_ms.len();
        p50s.push(percentile(&lat_ms, 0.5));
        let (value, used) = tail_percentile(&lat_ms, 0.95);
        p95s.push(value);
        p95_used = p95_used.min(used);
    }
    let throughputs: Vec<f64> = passes
        .iter()
        .map(|p| (p.lat_ns.len() as u64 - p.failed) as f64 / (p.wall_ns as f64 / 1e9))
        .collect();
    let mut by_kind: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for p in &passes {
        for (kind, ns) in p.kinds.iter().zip(&p.lat_ns) {
            by_kind
                .entry(kind.as_str())
                .or_default()
                .push(*ns as f64 / 1e6);
        }
    }
    let by_kind = Json::obj(by_kind.into_iter().map(|(kind, ms)| {
        let summary = Json::obj([
            ("samples", Json::from(ms.len())),
            ("mean_ms", Json::Num(crate::stats::mean(&ms))),
            ("p50_ms", Json::Num(median(&ms))),
        ]);
        (kind, summary)
    }));
    let attempted = checked.attempted + samples as u64;
    let failed = checked.failed + passes.iter().map(|p| p.failed).sum::<u64>();
    let values = [
        median(&p50s),
        median(&p95s),
        median(&throughputs),
        peak_rss_mb,
        w.index_bytes(&sys) as f64 / cells.max(1) as f64,
        setup_s,
    ];
    Outcome {
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit, _), v)| (*name, v, *unit))
            .collect(),
        details: Json::obj([
            ("passes", Json::from(passes.len())),
            ("latency_samples", Json::from(samples)),
            ("tail_percentile_used", Json::Num(p95_used)),
            (
                "failed_ratio",
                Json::Num(failed as f64 / attempted.max(1) as f64),
            ),
            ("latency_by_kind", by_kind),
            (
                "throughput_ops_s_each",
                Json::Arr(throughputs.iter().map(|&s| Json::Num(s)).collect()),
            ),
            ("result_digest", Json::str(w.result_digest(&sys))),
            ("workload", w.describe()),
        ]),
        spans: Vec::new(),
    }
}

pub fn traced<W: Workload>(w: &W) -> Outcome {
    blend_obs::set_enabled(true);
    let mut rec = Recorder::new(Instant::now(), true);
    let mut sys = w.setup(&mut rec);
    let mut checked = w.references(&mut sys);
    let t = w.trace(&mut sys, &mut rec);
    checked.attempted += t.checked.attempted;
    checked.failed += t.checked.failed;
    let by_name: Vec<Json> = crate::trace::summarize(&rec.spans)
        .into_iter()
        .map(|(name, count, total, own)| {
            Json::obj([
                ("name", Json::str(name)),
                ("count", Json::from(count)),
                ("total_ms", Json::Num(total as f64 / 1e6)),
                ("self_ms", Json::Num(own as f64 / 1e6)),
            ])
        })
        .collect();
    Outcome {
        attempted: checked.attempted.max(1),
        failed: checked.failed,
        metrics: crate::layers::PER_LAYER
            .iter()
            .map(|(name, unit, _)| (*name, t.layers.get(name), *unit))
            .collect(),
        details: Json::obj([
            ("span_count", Json::from(rec.spans.len())),
            ("spans_by_name", Json::Arr(by_name)),
            ("result_digest", Json::str(w.result_digest(&sys))),
            ("workload", w.describe()),
        ]),
        spans: rec.spans,
    }
}

/// `--check`: one set-up and one checked pass, no timings reported.
pub fn check<W: Workload>(w: &W) -> Checked {
    blend_obs::set_enabled(false);
    let mut rec = Recorder::new(Instant::now(), false);
    let mut sys = w.setup(&mut rec);
    let mut checked = w.references(&mut sys);
    let pass = w.pass(&mut sys, 1, &mut rec);
    checked.attempted += pass.lat_ns.len() as u64;
    checked.failed += pass.failed;
    checked
}

/// `VmHWM` of this process, in MB (0 where `/proc` has no such line).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_read_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
