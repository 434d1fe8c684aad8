//! Process-global metrics: counters, gauges, log₂ histograms.
//!
//! The hot path — [`Counter::add`], [`Gauge::add`], [`Histogram::record`]
//! — is lock-free: one relaxed `fetch_add` on a thread-sharded,
//! cache-line-aligned atomic. The registry's mutex is touched only when a
//! metric is first registered and when a snapshot/render walks the
//! families, so instrumented code never contends on a lock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Shard count for counters/histograms. Eight 64-byte lines bound the
/// footprint while keeping simultaneous writers on distinct lines for
/// typical pool sizes.
const SHARDS: usize = 8;

/// One atomic on its own cache line, so shards never false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// Stable small index per thread, used to pick a shard.
static NEXT_THREAD_IDX: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_IDX: usize = NEXT_THREAD_IDX.fetch_add(1, Ordering::Relaxed);
}

#[inline]
fn shard() -> usize {
    THREAD_IDX.with(|i| *i) % SHARDS
}

/// A small, dense id for the current thread — also used by spans to tag
/// which thread a span ran on without going through `ThreadId` formatting.
#[inline]
pub(crate) fn thread_ordinal() -> u64 {
    THREAD_IDX.with(|i| *i) as u64
}

/// Monotonic counter, sharded across cache lines.
#[derive(Default)]
pub struct Counter {
    shards: [PaddedU64; SHARDS],
}

impl Counter {
    /// Add one. Lock-free; no-op while instrumentation is disabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `v`. Lock-free; no-op while instrumentation is disabled.
    #[inline]
    pub fn add(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        self.shards[shard()].0.fetch_add(v, Ordering::Relaxed);
    }

    /// Current total across all shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// Instantaneous signed value (queue depth, tokens in use).
///
/// A single atomic: gauges track small live populations, so contention is
/// negligible and a consistent up/down needs one cell.
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    #[inline]
    pub fn add(&self, v: i64) {
        if !crate::enabled() {
            return;
        }
        self.value.fetch_add(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    pub fn set(&self, v: i64) {
        if !crate::enabled() {
            return;
        }
        self.value.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets: bucket `i` holds values whose bit length is
/// `i` (bucket 0 holds exactly 0), i.e. `2^(i-1) <= v < 2^i`, with the
/// last bucket absorbing everything from `2^62` up.
pub const HIST_BUCKETS: usize = 64;

#[inline]
fn bucket_of(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// One shard of a histogram: its own bucket array plus sum/count, all on
/// dedicated cache lines via the leading padded atomic.
struct HistShard {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: PaddedU64,
    count: AtomicU64,
}

impl Default for HistShard {
    fn default() -> Self {
        HistShard {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: PaddedU64::default(),
            count: AtomicU64::new(0),
        }
    }
}

/// Log₂-bucketed latency histogram, sharded across cache-line-separated
/// bucket arrays. Values are whatever unit the caller records —
/// conventionally nanoseconds (`*_nanos` metric names).
#[derive(Default)]
pub struct Histogram {
    shards: [HistShard; 4],
}

impl Histogram {
    /// Record one observation. Lock-free: three relaxed `fetch_add`s on
    /// the calling thread's shard; no-op while disabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        let s = &self.shards[shard() % 4];
        s.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        s.sum.0.fetch_add(v, Ordering::Relaxed);
        s.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Merge all shards into one consistent-enough snapshot. (Concurrent
    /// writers may land between bucket and count reads; totals are exact
    /// once writers quiesce, which is when snapshots are taken.)
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        let mut sum = 0u64;
        let mut count = 0u64;
        for s in &self.shards {
            for (acc, b) in buckets.iter_mut().zip(s.buckets.iter()) {
                *acc += b.load(Ordering::Relaxed);
            }
            sum = sum.wrapping_add(s.sum.0.load(Ordering::Relaxed));
            count += s.count.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum,
            count,
        }
    }
}

/// Point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; HIST_BUCKETS],
    pub sum: u64,
    pub count: u64,
}

impl HistogramSnapshot {
    /// Approximate quantile (`0.0..=1.0`): the inclusive upper bound of
    /// the first bucket whose cumulative count reaches `q * count`.
    /// Log₂ buckets make this exact to within 2× — plenty for p50/p99
    /// trend lines.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= target {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HIST_BUCKETS - 1)
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Everything a snapshot sees, keyed by full metric name (labels
/// rendered in). Produced by [`MetricsRegistry::snapshot`].
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Counter value by full name, defaulting to 0 when never registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Process-global registry of named metrics.
///
/// Names follow the crate-level conventions (see [`crate`] docs): labels
/// are rendered into the name (`...{path="positional"}`) and the full
/// string is the identity, so re-registering returns the same cells.
#[derive(Default)]
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// Get or create the counter named `name`. Callers cache the `Arc`
    /// (usually in a `OnceLock` bundle) so the hot path never locks.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.families.lock().unwrap_or_else(|e| e.into_inner());
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.families.lock().unwrap_or_else(|e| e.into_inner());
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Get or create the histogram named `name`. Histograms take no
    /// labels (cardinality rule — see crate docs).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.families.lock().unwrap_or_else(|e| e.into_inner());
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::default())))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Consistent point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.families.lock().unwrap_or_else(|e| e.into_inner());
        let mut snap = Snapshot::default();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }

    /// Render the registry in the Prometheus text exposition format.
    ///
    /// Histograms emit cumulative `_bucket{le="..."}` series (upper
    /// bounds are the log₂ bucket bounds), then `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::new();
        let mut typed: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            let base = name.split('{').next().unwrap_or(name).to_string();
            if typed.insert(base.clone()) {
                let _ = writeln!(out, "# TYPE {base} {kind}");
            }
        };
        for (name, v) in &snap.counters {
            type_line(&mut out, name, "counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, v) in &snap.gauges {
            type_line(&mut out, name, "gauge");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, h) in &snap.histograms {
            type_line(&mut out, name, "histogram");
            let mut cum = 0u64;
            let last_used = h
                .buckets
                .iter()
                .rposition(|&b| b > 0)
                .unwrap_or(0)
                .min(HIST_BUCKETS - 2);
            for (i, b) in h.buckets.iter().enumerate().take(last_used + 1) {
                cum += b;
                let le = bucket_upper_bound(i);
                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{name}_sum {}", h.sum);
            let _ = writeln!(out, "{name}_count {}", h.count);
        }
        out
    }
}

/// The process-global registry every subsystem reports into.
pub fn registry() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MetricsRegistry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_shards() {
        let _gate = crate::test_gate(true);
        let c = Counter::default();
        for _ in 0..100 {
            c.inc();
        }
        c.add(900);
        assert_eq!(c.get(), 1000);
    }

    #[test]
    fn gauge_tracks_up_and_down() {
        let _gate = crate::test_gate(true);
        let g = Gauge::default();
        g.add(5);
        g.dec();
        assert_eq!(g.get(), 4);
        g.set(-2);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn histogram_buckets_conserve_count() {
        let _gate = crate::test_gate(true);
        let h = Histogram::default();
        for v in [0u64, 1, 2, 3, 1000, 1_000_000, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.buckets.iter().sum::<u64>(), 7);
        assert_eq!(s.sum, 1_001_006u64.wrapping_add(u64::MAX));
    }

    #[test]
    fn extremes_land_in_terminal_buckets_without_overflow() {
        // `record(0)` must hit the first bucket and `record(u64::MAX)` the
        // last — the bit-length bucket map has no shift that could
        // overflow at either end, and this pins that.
        let _gate = crate::test_gate(true);
        let h = Histogram::default();
        h.record(0);
        h.record(u64::MAX);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[HIST_BUCKETS - 1], 2);
        assert_eq!(s.count, 3);
        // The sum cell wraps rather than panics on overflow.
        assert_eq!(s.sum, u64::MAX.wrapping_add(u64::MAX));
        // Quantiles at the extremes resolve to the terminal bounds.
        assert_eq!(s.quantile(0.0), bucket_upper_bound(0));
        assert_eq!(s.quantile(1.0), u64::MAX);
        // And the boundary around the last bucket's lower edge is exact.
        assert_eq!(bucket_of((1u64 << 62) - 1), HIST_BUCKETS - 2);
        assert_eq!(bucket_of(1u64 << 62), HIST_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert!(bucket_upper_bound(bucket_of(700)) >= 700);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn quantiles_from_log_buckets() {
        let _gate = crate::test_gate(true);
        let h = Histogram::default();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1_000_000);
        let s = h.snapshot();
        assert!(s.quantile(0.5) >= 10 && s.quantile(0.5) < 20);
        assert!(s.quantile(0.999) >= 1_000_000);
    }

    #[test]
    fn registry_same_name_same_cells() {
        let r = MetricsRegistry::default();
        let a = r.counter("x_total");
        let b = r.counter("x_total");
        let _gate = crate::test_gate(true);
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn prometheus_render_shape() {
        let _gate = crate::test_gate(true);
        let r = MetricsRegistry::default();
        r.counter("a_total{k=\"v\"}").add(3);
        r.gauge("g").set(7);
        let h = r.histogram("lat_nanos");
        h.record(5);
        h.record(300);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE a_total counter"));
        assert!(text.contains("a_total{k=\"v\"} 3"));
        assert!(text.contains("# TYPE g gauge"));
        assert!(text.contains("g 7"));
        assert!(text.contains("# TYPE lat_nanos histogram"));
        assert!(text.contains("lat_nanos_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lat_nanos_sum 305"));
        assert!(text.contains("lat_nanos_count 2"));
    }

    #[test]
    fn disabled_records_nothing() {
        let c = Counter::default();
        let h = Histogram::default();
        let _gate = crate::test_gate(false);
        c.inc();
        h.record(42);
        crate::set_enabled(true);
        assert_eq!(c.get(), 0);
        assert_eq!(h.snapshot().count, 0);
    }
}
