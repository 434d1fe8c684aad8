//! `served_zipf` and `served_rebuild`: closed-loop clients submitting
//! re-spelled seeker SQL to a `ServeQueue` over one `Arc<SqlEngine>`.

use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use blend::Seeker;
use blend_common::Table;
use blend_lake::DataLake;
use blend_parallel::{Deadline, ParallelCtx};
use blend_serve::{ServeConfig, ServeQueue, ServeStats};
use blend_sql::SqlEngine;
use blend_storage::{EngineKind, FactTable};

use crate::direct::{build_fact, variant_subset};
use crate::inputs::{flip_version, respell, seeker_text, zipf_draws, Inputs, SeekerClass};
use crate::json::Json;
use crate::layers::{
    fill_index, fill_registry_parallel, ns_to_ms, ns_to_us, LayerMetrics, SqlProbe,
};
use crate::oracle::{result_key, ResultKey};
use crate::run::{Checked, Pass, Traced, Workload};
use crate::stats::{derive_seed, mean, median, Digest};
use crate::trace::Recorder;

/// Correlation sample size the seeker SQL is rendered with
/// (`BlendOptions::default().h`).
const H: usize = 256;
/// Serving threads and queue depth of both served workloads.
const WORKERS: usize = 2;
const DEPTH: usize = 32;
/// A request that takes longer than this has failed.
const DEADLINE: Duration = Duration::from_secs(5);

/// Closed-loop clients of `served_zipf`.
pub const ZIPF_CLIENTS: usize = 2;
/// Result-cache budget of `served_zipf`, smaller than the working set:
/// results run from 1 KB (SC) to 11 MB (MC), and one above a shard's share
/// (an eighth: 96 KiB) is never admitted. Hits, misses, CLOCK evictions and
/// coalescing all occur; the traced run shows a hit ratio of 0.65.
pub const ZIPF_CACHE_BYTES: usize = 768 << 10;

/// Swaps per pass of `served_rebuild`. Even, so that every pass starts and
/// ends on lake version A.
pub const REBUILD_SWAPS: usize = 2;
const _: () = assert!(REBUILD_SWAPS.is_multiple_of(2));
/// Requests after a swap whose worst latency is `serve.swap_stall_ms`.
const STALL_WINDOW: usize = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Zipf,
    Rebuild,
}

pub struct Served<'a> {
    /// `--seed`: the Zipf draws and every request's spelling.
    seed: u64,
    kind: Kind,
    versions: Mutex<Versions<'a>>,
    /// Templates in popularity order (rank 0 is the hottest).
    templates: Vec<Seeker>,
    /// Seeker class per template.
    classes: Vec<SeekerClass>,
    /// `served_zipf`: requests per pass, all clients together.
    /// `served_rebuild`: requests after the last swap of a pass, and the
    /// length of the request stream the client cycles through.
    requests: usize,
}

/// The lake the index is built from, and what version B of `served_rebuild`
/// holds in place of some of its tables. Outside a pass the lake is version
/// A; within one only the maintainer touches it.
struct Versions<'a> {
    lake: &'a mut DataLake,
    spare: Vec<(usize, Table)>,
}

/// Swaps of the lake version installed so far in a pass (versions A and B
/// alternate). A client holds the lock shared from submission to reply and
/// the maintainer exclusively around `replace_table`, so no request is in
/// flight at the instant of a swap: `plan_input` looks every FROM item up in
/// the catalog on its own, and an MC seeker's self-join of `AllTables`
/// planned across a swap reads two lake versions and answers with neither's
/// result (seen once in some 70 runs without this lock; a loop of bare
/// `replace_table` calls beside MC queries shows it within seconds).
#[derive(Default)]
struct Swaps(RwLock<usize>);

pub struct ServedSystem {
    engine: Arc<SqlEngine>,
    queue: ServeQueue,
    build_s: f64,
    /// The warm-up pass of set-up.
    warmup: Checked,
    /// Direct-engine result per lake version and template (`None`: the
    /// engine returned an error).
    refs: [Vec<Option<ResultKey>>; 2],
    /// Direct-engine latency per template (version A).
    direct_ns: Vec<u64>,
}

/// How a served request ended, from `ServingStats::outcome`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Served1 {
    Executed,
    CacheHit,
    /// Coalesced onto another execution, or an outcome without telemetry.
    Other,
    /// Error, shed or timeout.
    Failed,
}

impl Served1 {
    fn label(self) -> &'static str {
        match self {
            Served1::Executed => "executed",
            Served1::CacheHit => "cache_hit",
            Served1::Other => "coalesced_or_other",
            Served1::Failed => "failed",
        }
    }
}

/// One served request, as its client saw it. The result is checked as soon
/// as it arrives (after the latency clock stops) and dropped, so a pass
/// holds no result sets.
struct Reply {
    template: usize,
    /// Lake version the request was answered from (0 is A, 1 is B).
    version: usize,
    /// Requests the client had submitted since it first saw the latest
    /// swap installed; `None` before the first swap of a pass.
    after_swap: Option<usize>,
    lat_ns: u64,
    how: Served1,
    /// Answered, and byte-identical to the direct engine's result on that
    /// lake version.
    correct: bool,
    queue_wait_ns: u64,
    exec_ns: u64,
}

struct ServedPass {
    replies: Vec<Reply>,
    wall_ns: u64,
    build_s: Vec<f64>,
}

impl<'a> Served<'a> {
    /// The first `per_class` seeker operations of every class become the
    /// templates. Which template is how popular is part of the data set: a
    /// shuffle seeded by it.
    pub fn new(
        inputs: &'a mut Inputs,
        seed: u64,
        kind: Kind,
        per_class: usize,
        requests: usize,
    ) -> Served<'a> {
        let mut ops = inputs.seeker_ops(per_class);
        ops.shuffle(&mut StdRng::seed_from_u64(derive_seed(inputs.seed, 7)));
        let spare = match kind {
            Kind::Zipf => Vec::new(),
            Kind::Rebuild => inputs.replacements(),
        };
        Served {
            seed,
            kind,
            versions: Mutex::new(Versions {
                lake: &mut inputs.lake,
                spare,
            }),
            classes: ops.iter().map(|o| o.class).collect(),
            templates: ops.into_iter().map(|o| o.seeker).collect(),
            requests,
        }
    }

    fn name(&self) -> &'static str {
        match self.kind {
            Kind::Zipf => "served_zipf",
            Kind::Rebuild => "served_rebuild",
        }
    }

    fn cache_bytes(&self) -> usize {
        match self.kind {
            Kind::Zipf => ZIPF_CACHE_BYTES,
            Kind::Rebuild => blend_serve::DEFAULT_CACHE_BYTES,
        }
    }

    fn versions(&self) -> MutexGuard<'_, Versions<'a>> {
        self.versions
            .lock()
            .expect("no thread panicked with the lake")
    }

    /// The re-spelled requests of one client stream: (template, SQL).
    fn stream(&self, n: usize, stream: u64) -> Vec<(usize, String)> {
        let seed = derive_seed(self.seed, stream);
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, 1));
        zipf_draws(self.templates.len(), n, seed)
            .into_iter()
            .map(|t| (t, respell(&self.templates[t], H, &mut rng)))
            .collect()
    }

    fn serve_pass(&self, sys: &ServedSystem, pass: u64, rec: &mut Recorder) -> ServedPass {
        match self.kind {
            Kind::Zipf => self.zipf_pass(sys, pass, rec),
            Kind::Rebuild => self.rebuild_pass(sys, pass, rec),
        }
    }

    /// `ZIPF_CLIENTS` closed-loop clients, each with its own request stream.
    fn zipf_pass(&self, sys: &ServedSystem, pass: u64, rec: &mut Recorder) -> ServedPass {
        let streams: Vec<Vec<(usize, String)>> = (0..ZIPF_CLIENTS as u64)
            .map(|c| self.stream(self.requests / ZIPF_CLIENTS, 1000 + pass * 16 + c))
            .collect();
        let swaps = Swaps::default();
        let start = Instant::now();
        let per_client: Vec<(Vec<Reply>, Recorder)> = std::thread::scope(|scope| {
            let handles: Vec<_> = streams
                .iter()
                .enumerate()
                .map(|(c, stream)| {
                    let mut child = rec.child();
                    let swaps = &swaps;
                    scope.spawn(move || {
                        let op_base = (pass << 32) + ((c as u64) << 24);
                        let replies =
                            client(&sys.queue, stream, &sys.refs, swaps, 0, op_base, &mut child);
                        (replies, child)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall_ns = start.elapsed().as_nanos() as u64;
        let mut replies = Vec::with_capacity(self.requests);
        for (r, child) in per_client {
            replies.extend(r);
            rec.absorb(child);
        }
        ServedPass {
            replies,
            wall_ns,
            build_s: Vec::new(),
        }
    }

    /// One client and one maintainer, neither waiting for the other longer
    /// than one request or one `replace_table` takes (see [`Swaps`]). The
    /// maintainer builds the other lake version and swaps it in,
    /// `REBUILD_SWAPS` times back to back; the client keeps submitting (going
    /// round its request stream) until the last swap is installed, and then
    /// once more through the stream, so the refill after that swap is in the
    /// pass too. How many requests a pass holds is therefore measured, not
    /// fixed: a build takes most of a second and a cache hit a tenth of a
    /// millisecond, so no request count could pace the swaps.
    fn rebuild_pass(&self, sys: &ServedSystem, pass: u64, rec: &mut Recorder) -> ServedPass {
        let stream = self.stream(self.requests, 2000 + pass);
        let swaps = Swaps::default();
        let start = Instant::now();
        let (replies, build_s) = std::thread::scope(|scope| {
            let maintainer = scope.spawn(|| {
                let mut guard = self.versions();
                let v = &mut *guard;
                (0..REBUILD_SWAPS)
                    .map(|_| {
                        flip_version(&mut v.lake.tables, &mut v.spare);
                        let (fact, secs) = build_fact(&v.lake.tables, EngineKind::Column);
                        let mut installed = swaps.0.write().expect("no client panicked");
                        sys.engine.replace_table("alltables", fact);
                        *installed += 1;
                        secs
                    })
                    .collect::<Vec<f64>>()
            });
            let replies = client(
                &sys.queue,
                &stream,
                &sys.refs,
                &swaps,
                REBUILD_SWAPS,
                pass << 32,
                rec,
            );
            (replies, maintainer.join().expect("maintainer panicked"))
        });
        ServedPass {
            replies,
            wall_ns: start.elapsed().as_nanos() as u64,
            build_s,
        }
    }

    /// Direct-engine result and latency of every template's base spelling.
    fn direct_results(&self, engine: &SqlEngine) -> (Vec<Option<ResultKey>>, Vec<u64>) {
        self.templates
            .iter()
            .map(|s| {
                let sql = seeker_text(s, H);
                let t = Instant::now();
                let out = engine.execute(&sql);
                let ns = t.elapsed().as_nanos() as u64;
                (out.ok().map(|rs| result_key(&rs)), ns)
            })
            .unzip()
    }
}

/// A closed-loop client: submit, wait, check, next. It goes round `stream`
/// until `await_swaps` swaps are installed and then through it once more
/// (with 0: once through). While a lake version's `refs` are still empty
/// (the warm-up of set-up) an answer of any content counts as correct.
fn client(
    queue: &ServeQueue,
    stream: &[(usize, String)],
    refs: &[Vec<Option<ResultKey>>; 2],
    swaps: &Swaps,
    await_swaps: usize,
    op_base: u64,
    rec: &mut Recorder,
) -> Vec<Reply> {
    let mut replies = Vec::with_capacity(stream.len());
    let mut last_round = stream.len();
    let (mut seen, mut under_seen) = (0, 0);
    for (template, sql) in stream.iter().cycle() {
        let guard = swaps.0.read().expect("the maintainer did not panic");
        let installed = *guard;
        if installed >= await_swaps {
            if last_round == 0 {
                break;
            }
            last_round -= 1;
        }
        if installed != seen {
            (seen, under_seen) = (installed, 0);
        }
        let op = op_base + replies.len() as u64;
        let (_, lat_ns, out) = rec.time("serve.submit_wait", None, op, || {
            queue
                .submit(sql, Deadline::after(DEADLINE))
                .and_then(|ticket| ticket.wait())
        });
        drop(guard);
        let version = installed % 2;
        let mut reply = Reply {
            template: *template,
            version,
            after_swap: (installed > 0).then_some(under_seen),
            lat_ns,
            how: Served1::Failed,
            correct: false,
            queue_wait_ns: 0,
            exec_ns: 0,
        };
        under_seen += 1;
        if let Ok((rs, report)) = out {
            let got = Some(result_key(&rs));
            reply.correct = refs[version].get(*template).is_none_or(|want| got == *want);
            reply.how = Served1::Other;
            if let Some(serving) = &report.serving {
                reply.queue_wait_ns = serving.queue_wait_nanos;
                reply.exec_ns = serving.exec_nanos;
                reply.how = match serving.outcome.as_str() {
                    "ok" => Served1::Executed,
                    "cache_hit" => Served1::CacheHit,
                    _ => Served1::Other,
                };
            }
        }
        replies.push(reply);
    }
    replies
}

/// Wrong results, errors, sheds and timeouts among `replies`.
fn failures(replies: &[Reply]) -> u64 {
    replies.iter().filter(|r| !r.correct).count() as u64
}

fn current_fact(sys: &ServedSystem) -> Arc<dyn FactTable> {
    sys.engine
        .database()
        .alltables()
        .expect("the engine is built over AllTables")
}

impl Workload for Served<'_> {
    type System = ServedSystem;

    fn setup(&self, rec: &mut Recorder) -> ServedSystem {
        let (_, _, (fact, build_s)) = rec.time("index.build", None, 0, || {
            build_fact(&self.versions().lake.tables, EngineKind::Column)
        });
        let engine = Arc::new(SqlEngine::with_alltables(fact));
        let queue = ServeQueue::new(
            engine.clone(),
            ServeConfig {
                depth: DEPTH,
                workers: WORKERS,
                result_cache_bytes: self.cache_bytes(),
                coalesce: true,
                faults: blend_serve::FaultPlan::none(),
            },
        );
        let mut sys = ServedSystem {
            engine,
            queue,
            build_s,
            warmup: Checked::default(),
            refs: [Vec::new(), Vec::new()],
            direct_ns: Vec::new(),
        };
        // Warm-up pass: fills the result cache; results are checked from
        // the first measured pass on, once the references exist.
        let mut quiet = Recorder::new(Instant::now(), false);
        let warm = self.serve_pass(&sys, 0, &mut quiet);
        sys.warmup = Checked {
            attempted: warm.replies.len() as u64,
            failed: failures(&warm.replies),
        };
        sys
    }

    fn references(&self, sys: &mut ServedSystem) -> Checked {
        let (refs_a, direct_ns) = self.direct_results(&sys.engine);
        sys.direct_ns = direct_ns;
        let errors =
            |refs: &[Option<ResultKey>]| refs.iter().filter(|r| r.is_none()).count() as u64;
        let mut checked = sys.warmup;
        checked.attempted += refs_a.len() as u64;
        checked.failed += errors(&refs_a);
        sys.refs[0] = refs_a;
        if self.kind == Kind::Rebuild {
            let mut guard = self.versions();
            let v = &mut *guard;
            flip_version(&mut v.lake.tables, &mut v.spare);
            let (fact_b, _) = build_fact(&v.lake.tables, EngineKind::Column);
            flip_version(&mut v.lake.tables, &mut v.spare);
            let (refs_b, _) = self.direct_results(&SqlEngine::with_alltables(fact_b));
            checked.attempted += refs_b.len() as u64;
            checked.failed += errors(&refs_b);
            sys.refs[1] = refs_b;
        }
        checked
    }

    fn pass(&self, sys: &mut ServedSystem, pass: u64, rec: &mut Recorder) -> Pass {
        let served = self.serve_pass(sys, pass, rec);
        Pass {
            failed: failures(&served.replies),
            lat_ns: served.replies.iter().map(|r| r.lat_ns).collect(),
            kinds: served
                .replies
                .iter()
                .map(|r| {
                    let how = match r.how {
                        Served1::Failed => "failed",
                        _ if !r.correct => "wrong_result",
                        how => how.label(),
                    };
                    format!("{how}:{}", self.classes[r.template].label())
                })
                .collect(),
            wall_ns: served.wall_ns,
        }
    }

    fn index_bytes(&self, sys: &ServedSystem) -> usize {
        current_fact(sys).size_bytes()
    }

    fn result_digest(&self, sys: &ServedSystem) -> String {
        let mut d = Digest::default();
        for (len, digest) in sys.refs.iter().flatten().flatten() {
            d.update(&len.to_le_bytes());
            d.update(&digest.to_le_bytes());
        }
        d.hex()
    }

    fn describe(&self) -> Json {
        let mut pairs = vec![
            ("name", Json::str(self.name())),
            ("loop", Json::str("closed")),
            ("templates", Json::from(self.templates.len())),
            ("zipf_s", Json::Num(1.0)),
            ("serve_workers", Json::from(WORKERS)),
            ("queue_depth", Json::from(DEPTH)),
            ("coalesce", Json::Bool(true)),
            ("result_cache_bytes", Json::from(self.cache_bytes())),
            ("deadline_s", Json::Num(DEADLINE.as_secs_f64())),
        ];
        match self.kind {
            Kind::Zipf => pairs.extend([
                ("clients", Json::from(ZIPF_CLIENTS)),
                ("requests_per_pass", Json::from(self.requests)),
            ]),
            Kind::Rebuild => pairs.extend([
                ("clients", Json::from(1usize)),
                ("maintainer_threads", Json::from(1usize)),
                ("swaps_per_pass", Json::from(REBUILD_SWAPS)),
                ("requests_per_pass", Json::str("until the last swap is in")),
                ("requests_after_last_swap", Json::from(self.requests)),
                ("tables_replaced_share", Json::Num(0.1)),
            ]),
        }
        Json::obj(pairs)
    }

    fn trace(&self, sys: &mut ServedSystem, rec: &mut Recorder) -> Traced {
        let mut m = LayerMetrics::default();
        let mut checked = Checked::default();
        {
            let v = self.versions();
            checked.add(fill_index(
                &mut m,
                &v.lake.tables,
                sys.build_s,
                v.lake.stats().cells,
            ));
        }

        // Untraced against traced: the same request streams with
        // observability off, then on with one span per request, then off
        // again (the untraced time is the mean of the two).
        let mut quiet = Recorder::new(Instant::now(), false);
        blend_obs::set_enabled(false);
        let untraced = self.serve_pass(sys, 1, &mut quiet);
        blend_obs::set_enabled(true);
        let stats_before = sys.queue.stats();
        let before = blend_obs::registry().snapshot();
        let traced = self.serve_pass(sys, 1, rec);
        let after = blend_obs::registry().snapshot();
        let stats_after = sys.queue.stats();
        let delta =
            |count: fn(&ServeStats) -> u64| (count(&stats_after) - count(&stats_before)) as f64;
        blend_obs::set_enabled(false);
        let untraced_again = self.serve_pass(sys, 1, &mut quiet);
        blend_obs::set_enabled(true);
        for pass in [&untraced, &traced, &untraced_again] {
            checked.attempted += pass.replies.len() as u64;
            checked.failed += failures(&pass.replies);
        }
        m.set(
            "obs.overhead_ratio",
            traced.wall_ns as f64
                / ((untraced.wall_ns + untraced_again.wall_ns) as f64 / 2.0).max(1.0),
        );
        fill_registry_parallel(&mut m, &before, &after);

        // What `serve` reports about the traced pass.
        let (mut wait_ns, mut exec_ns, mut hit_ns, mut over_ns) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for r in traced.replies.iter().filter(|r| r.how != Served1::Failed) {
            wait_ns.push(r.queue_wait_ns as f64);
            match r.how {
                Served1::CacheHit => hit_ns.push(r.lat_ns as f64),
                Served1::Executed => {
                    exec_ns.push(r.exec_ns as f64);
                    // Lake version B has no direct timings; skip its misses.
                    if r.version == 0 {
                        over_ns.push(r.lat_ns as f64 - sys.direct_ns[r.template] as f64);
                    }
                }
                _ => {}
            }
        }
        let offered = (delta(|s| s.submitted) + delta(|s| s.shed)).max(1.0);
        m.set("serve.queue_wait_ms", ns_to_ms(mean(&wait_ns)));
        m.set("serve.exec_ms", ns_to_ms(mean(&exec_ns)));
        m.set("serve.overhead_us", ns_to_us(median(&over_ns)));
        m.set("serve.hit_latency_us", ns_to_us(median(&hit_ns)));
        m.set("serve.cache_hit_ratio", delta(|s| s.cache_hits) / offered);
        m.set(
            "serve.coalesced_ratio",
            delta(|s| s.coalesced_hits) / offered,
        );
        m.set("serve.shed_ratio", delta(|s| s.shed) / offered);
        m.set("serve.timeout_ratio", delta(|s| s.timeouts) / offered);
        m.set(
            "serve.cache_evictions",
            (after.counter("blend_cache_evictions_total")
                - before.counter("blend_cache_evictions_total")) as f64,
        );
        m.set(
            "serve.cache_bytes",
            after.gauges.get("blend_cache_bytes").copied().unwrap_or(0) as f64,
        );
        let stall = traced
            .replies
            .iter()
            .filter(|r| r.after_swap.is_some_and(|n| n < STALL_WINDOW))
            .map(|r| r.lat_ns)
            .max();
        if self.kind == Kind::Rebuild {
            m.set("serve.swap_stall_ms", ns_to_ms(stall.unwrap_or(0) as f64));
            m.set("serve.rebuild_s", mean(&traced.build_s));
        }

        // The layers below `serve`, one public call at a time, on a fresh
        // spelling of every template.
        let mut probe = SqlProbe::default();
        let mut sqlgen_ns = Vec::new();
        let mut rng = StdRng::seed_from_u64(derive_seed(self.seed, 8));
        for (i, seeker) in self.templates.iter().enumerate() {
            let op = (2u64 << 32) + i as u64;
            let root = rec.open("op", None, op);
            let (_, ns, _) = rec.time("core.sqlgen", root, op, || {
                std::hint::black_box(seeker_text(seeker, H))
            });
            sqlgen_ns.push(ns as f64);
            let sql = respell(seeker, H, &mut rng);
            if let Some((rs, _)) = probe.statement(rec, root, op, &sys.engine, &sql) {
                checked.add(Some(result_key(&rs)) == sys.refs[0][i]);
            }
            rec.close(root);
        }
        probe.fill(&mut m, self.templates.len());
        m.set("core.sqlgen_us", ns_to_us(median(&sqlgen_ns)));

        // Variant passes: a subset of the templates straight on the engine,
        // observability off; the default is timed before and after them.
        blend_obs::set_enabled(false);
        let subset: Vec<String> = variant_subset(self.templates.len())
            .into_iter()
            .map(|i| seeker_text(&self.templates[i], H))
            .collect();
        let seconds_for = |engine: &SqlEngine| {
            let t = Instant::now();
            for sql in &subset {
                let _ = std::hint::black_box(engine.execute(sql));
            }
            t.elapsed().as_secs_f64()
        };
        let default_before = seconds_for(&sys.engine);
        blend_simd::force(Some(false));
        let simd_off = seconds_for(&sys.engine);
        blend_simd::force(None);
        let sequential = seconds_for(
            &SqlEngine::with_alltables(current_fact(sys))
                .with_parallel(Arc::new(ParallelCtx::sequential())),
        );
        let (row_fact, _) = build_fact(&self.versions().lake.tables, EngineKind::Row);
        let row = seconds_for(&SqlEngine::with_alltables(row_fact));
        let default = (default_before + seconds_for(&sys.engine)) / 2.0;
        m.set("simd.off_on_ratio", simd_off / default);
        m.set("parallel.speedup_vs_1t", sequential / default);
        m.set("storage.row_store_ratio", row / default);
        blend_obs::set_enabled(true);
        Traced { layers: m, checked }
    }
}
