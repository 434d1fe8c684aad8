//! The fingerprint-keyed, byte-bounded result cache behind
//! [`ServeQueue`](crate::ServeQueue).
//!
//! Seeker workloads repeat a handful of query templates, so once the
//! serving tier can name a query canonically
//! ([`blend_sql::fingerprint`]), recomputing a repeated query is pure
//! waste. This cache memoizes whole results under a [`CacheKey`] —
//! canonical fingerprint + store generation — with a **byte budget**
//! (`ServeConfig::result_cache_bytes`, default [`DEFAULT_CACHE_BYTES`],
//! `0` disables) enforced per shard by CLOCK (second-chance) eviction.
//!
//! ## The entry: shared flat columns
//!
//! An entry is an `Arc<`[`CachedResult`]`>` holding the engine's
//! [`ResultColumns`] as the executor left them — typed flat vectors,
//! `CellValue` dictionary-coded — never `SqlValue` rows. The queue wraps an
//! execution's columns once; the cache, every coalesced waiter and the
//! requester's ticket hold that one allocation, and whoever calls
//! `Ticket::wait` builds rows from it on their own thread.
//!
//! *Detach rule*: the column store codes text with its own dictionary, so a
//! fresh result's text columns hold the fact table, and stale generations
//! are purged lazily, per shard: such an entry would keep a replaced index
//! alive beside its successor. [`CachedResult::new`] re-homes store-coded
//! text in a dictionary of the result's own before the columns are shared.
//! Every execution pays it: a `u32` hash a row, a copy per distinct string.
//!
//! ## Keying and invalidation contract
//!
//! * Keys compare the **full canonical text**, not just the 64-bit hash:
//!   a hash collision can put two queries in the same shard but can never
//!   serve one query's bytes for another.
//! * The key's `generation` is the engine's catalog generation
//!   ([`SqlEngine::generation`](blend_sql::SqlEngine::generation)) observed
//!   **before** the cached execution began. Index/lake rebuilds swap the
//!   catalog, which advances it, so post-rebuild lookups (which use
//!   the new generation) can never match pre-rebuild entries — even when
//!   the rebuild lands while the entry's execution is still in flight.
//!   Each shard also purges entries from superseded generations the first
//!   time it observes a new one, so stale bytes are reclaimed promptly
//!   rather than aging out.
//! * Entry cost is the entry's heap, by capacity: the flat column bytes,
//!   every dictionary string once with its map slot, the labels, the
//!   stripped report's vectors and strings, and the `Arc` allocation
//!   ([`CachedResult::bytes`]); plus, per entry, the slot, the map's key
//!   and the canonical query text. `tests/cache_entry_cost.rs` holds it
//!   within a tenth of what a counting allocator sees. An entry larger
//!   than a whole shard's budget is simply not admitted.
//!
//! Observability: `blend_cache_hits_total`, `blend_cache_misses_total`,
//! `blend_cache_coalesced_total` (incremented by the queue when a request
//! attaches to an in-flight execution), `blend_cache_evictions_total`,
//! and the `blend_cache_bytes` gauge.

use std::mem::size_of;
use std::sync::{Arc, Mutex, OnceLock};

use blend_common::FxHashMap;
use blend_parallel::{MemoryGovernor, MemoryReclaimer};
use blend_sql::{QueryFingerprint, QueryReport, ResultColumns};

/// Shards: enough to keep lock contention off the serving threads, few
/// enough that per-shard budgets stay meaningful for small caches.
const NUM_SHARDS: usize = 8;

/// The byte budget of `ServeConfig::default()`: 32 MiB.
pub const DEFAULT_CACHE_BYTES: usize = 32 << 20;

/// Cache metric cells (`blend_cache_*`), process-global across queues.
pub(crate) struct CacheMetrics {
    pub hits: Arc<blend_obs::Counter>,
    pub misses: Arc<blend_obs::Counter>,
    pub coalesced: Arc<blend_obs::Counter>,
    pub evictions: Arc<blend_obs::Counter>,
    pub bytes: Arc<blend_obs::Gauge>,
}

pub(crate) fn cache_metrics() -> &'static CacheMetrics {
    static METRICS: OnceLock<CacheMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = blend_obs::registry();
        CacheMetrics {
            hits: r.counter("blend_cache_hits_total"),
            misses: r.counter("blend_cache_misses_total"),
            coalesced: r.counter("blend_cache_coalesced_total"),
            evictions: r.counter("blend_cache_evictions_total"),
            bytes: r.gauge("blend_cache_bytes"),
        }
    })
}

/// The identity a memoized (or in-flight) execution is filed under.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Canonical query fingerprint (authoritative: full canonical text).
    pub fp: QueryFingerprint,
    /// Store generation observed before execution began.
    pub generation: u64,
}

impl CacheKey {
    fn shard(&self) -> usize {
        // High bits: the map inside each shard consumes the low bits.
        (self.fp.hash() >> 32) as usize % NUM_SHARDS
    }
}

/// A memoized execution: the result's flat columns plus the executing
/// request's logical report (serving/profile stripped — each delivery
/// stamps its own).
#[derive(Debug)]
pub struct CachedResult {
    pub columns: ResultColumns,
    pub report: QueryReport,
    /// Heap bytes of this allocation and everything it owns.
    pub bytes: usize,
}

impl CachedResult {
    /// Package a finished execution for sharing: telemetry that is
    /// per-delivery (serving stats, profile tree) is stripped here and
    /// re-stamped on every delivery, and text is detached from the store
    /// (see the module docs).
    pub fn new(mut columns: ResultColumns, mut report: QueryReport) -> Self {
        report.serving = None;
        report.profile = None;
        columns.detach();
        let bytes = 2 * size_of::<usize>() // the Arc's counts
            + size_of::<Self>()
            + columns.approx_bytes()
            + report.heap_bytes();
        CachedResult {
            columns,
            report,
            bytes,
        }
    }
}

struct Slot {
    key: CacheKey,
    value: Arc<CachedResult>,
    referenced: bool,
    /// Bytes charged for this entry: payload plus per-entry overhead
    /// (slot, key clone, canonical text). This is what eviction releases.
    charged: usize,
}

#[derive(Default)]
struct Shard {
    map: FxHashMap<CacheKey, usize>,
    slots: Vec<Option<Slot>>,
    hand: usize,
    bytes: usize,
    /// Latest store generation this shard has observed; entries from older
    /// generations are purged when it advances.
    seen_gen: u64,
}

impl Shard {
    fn purge_stale(&mut self, generation: u64) -> usize {
        if generation <= self.seen_gen {
            return 0;
        }
        self.seen_gen = generation;
        let mut freed = 0;
        for i in 0..self.slots.len() {
            let stale = matches!(&self.slots[i], Some(s) if s.key.generation != generation);
            if stale {
                let slot = self.slots[i].take().expect("checked above");
                self.map.remove(&slot.key);
                self.bytes -= slot.charged;
                freed += slot.charged;
            }
        }
        freed
    }

    /// CLOCK sweep until at least `needed` bytes fit under `budget`.
    /// Returns (bytes freed, entries evicted).
    fn evict_for(&mut self, needed: usize, budget: usize) -> (usize, u64) {
        let mut freed = 0;
        let mut evicted = 0;
        while self.bytes + needed > budget && !self.map.is_empty() {
            if self.slots.is_empty() {
                break;
            }
            self.hand %= self.slots.len();
            let i = self.hand;
            self.hand += 1;
            match &mut self.slots[i] {
                Some(s) if s.referenced => s.referenced = false,
                Some(_) => {
                    let slot = self.slots[i].take().expect("matched Some");
                    self.map.remove(&slot.key);
                    self.bytes -= slot.charged;
                    freed += slot.charged;
                    evicted += 1;
                }
                None => {}
            }
        }
        (freed, evicted)
    }
}

/// Sharded CLOCK cache of memoized seeker results.
///
/// The cache's byte pool is a **child of the memory governor's budget**:
/// every admitted entry is charged against the governor (entries are the
/// reclaimable bytes that rung 1 of the degradation ladder gives back),
/// and every eviction/purge releases its charge. Charges happen *before*
/// any shard lock is taken — a charge can trigger a reclaim pass that
/// sweeps these same shards, and charging under the lock would deadlock.
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    shard_budget: usize,
    governor: Arc<MemoryGovernor>,
}

impl ResultCache {
    /// Cache with a total byte budget split evenly across shards, charging
    /// the process-global governor. `total_bytes == 0` builds a disabled
    /// cache (every lookup misses, every insert is dropped, no metrics
    /// recorded).
    pub fn new(total_bytes: usize) -> ResultCache {
        ResultCache::with_governor(total_bytes, MemoryGovernor::global().clone())
    }

    /// Cache charging a specific governor (tests with private budgets).
    pub fn with_governor(total_bytes: usize, governor: Arc<MemoryGovernor>) -> ResultCache {
        ResultCache {
            shards: (0..NUM_SHARDS)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            shard_budget: total_bytes / NUM_SHARDS,
            governor,
        }
    }

    /// Per-entry admission cost: payload bytes plus bookkeeping overhead
    /// (the slot, the map's key and index, and the canonical query text
    /// behind its `Arc`, which the two key clones share).
    fn entry_cost(key: &CacheKey, value: &CachedResult) -> usize {
        value.bytes
            + size_of::<Slot>()
            + size_of::<(CacheKey, usize)>()
            + 2 * size_of::<usize>()
            + key.fp.canon().len()
    }

    /// True when a zero budget disabled the cache.
    pub fn is_disabled(&self) -> bool {
        self.shard_budget == 0
    }

    /// Look up a memoized result. Counts a hit or miss.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<CachedResult>> {
        if self.is_disabled() {
            return None;
        }
        let m = cache_metrics();
        let mut shard = self.shards[key.shard()]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let freed = shard.purge_stale(key.generation);
        if freed > 0 {
            m.bytes.add(-(freed as i64));
            self.governor.release(freed);
        }
        match shard.map.get(key) {
            Some(&i) => {
                let slot = shard.slots[i].as_mut().expect("mapped slot is live");
                slot.referenced = true;
                let value = Arc::clone(&slot.value);
                m.hits.inc();
                Some(value)
            }
            None => {
                m.misses.inc();
                None
            }
        }
    }

    /// Admit a finished execution. Oversized entries (larger than a whole
    /// shard's budget) are dropped, as are entries the memory governor
    /// cannot fund (a cache fill is the most discretionary allocation in
    /// the system — under pressure it simply doesn't happen); an existing
    /// entry for the same key is kept (fingerprint-equal executions are
    /// byte-identical by contract).
    pub fn insert(&self, key: CacheKey, value: Arc<CachedResult>) {
        if self.is_disabled() {
            return;
        }
        let cost = ResultCache::entry_cost(&key, &value);
        if cost > self.shard_budget {
            return;
        }
        // Charge before the shard lock: the charge may trigger a reclaim
        // pass that sweeps these shards (see the type-level comment).
        if !self.governor.try_charge(cost) {
            return;
        }
        let m = cache_metrics();
        let mut shard = self.shards[key.shard()]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let mut released = shard.purge_stale(key.generation);
        let mut delta: i64 = -(released as i64);
        if !shard.map.contains_key(&key) {
            let (freed, evicted) = shard.evict_for(cost, self.shard_budget);
            released += freed;
            delta -= freed as i64;
            m.evictions.add(evicted);
            shard.bytes += cost;
            delta += cost as i64;
            let slot = Slot {
                key: key.clone(),
                value,
                referenced: true,
                charged: cost,
            };
            let i = match shard.slots.iter().position(Option::is_none) {
                Some(i) => {
                    shard.slots[i] = Some(slot);
                    i
                }
                None => {
                    shard.slots.push(Some(slot));
                    shard.slots.len() - 1
                }
            };
            shard.map.insert(key, i);
        } else {
            // Duplicate key: entry kept, the new charge goes straight back.
            released += cost;
        }
        drop(shard);
        self.governor.release(released);
        if delta != 0 {
            m.bytes.add(delta);
        }
    }

    /// Live entries (tests).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).map.len())
            .sum()
    }

    /// True when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident bytes (tests).
    pub fn bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).bytes)
            .sum()
    }

    /// Drop every entry and release its governor charge. Used when the
    /// serving tier shuts down and by tests proving reserved bytes drain
    /// to zero.
    pub fn purge_all(&self) {
        let m = cache_metrics();
        for shard in &self.shards {
            let mut s = shard.lock().unwrap_or_else(|e| e.into_inner());
            // A zero budget makes the CLOCK sweep run until the shard is
            // empty (second-chance laps included).
            let (freed, _) = s.evict_for(0, 0);
            drop(s);
            if freed > 0 {
                m.bytes.add(-(freed as i64));
                self.governor.release(freed);
            }
        }
    }
}

/// Rung 1 of the degradation ladder: when a query's reservation fails,
/// the governor asks this cache to give bytes back. Sweep shards with the
/// same CLOCK policy as admission eviction until `needed` bytes are freed
/// (or the cache is empty).
impl MemoryReclaimer for ResultCache {
    fn reclaim(&self, needed: usize) -> usize {
        if self.is_disabled() || needed == 0 {
            return 0;
        }
        let m = cache_metrics();
        let mut freed = 0usize;
        for shard in &self.shards {
            if freed >= needed {
                break;
            }
            let mut s = shard.lock().unwrap_or_else(|e| e.into_inner());
            let want = needed - freed;
            let target = s.bytes.saturating_sub(want);
            let (f, evicted) = s.evict_for(0, target);
            drop(s);
            if f > 0 {
                m.evictions.add(evicted);
                m.bytes.add(-(f as i64));
                self.governor.release(f);
                freed += f;
            }
        }
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blend_sql::fingerprint_sql;

    fn result_of(n: usize, tag: &str) -> blend_sql::ResultSet {
        blend_sql::ResultSet {
            columns: vec!["v".into()],
            rows: (0..n)
                .map(|i| vec![blend_sql::SqlValue::from(format!("{tag}-{i}").as_str())])
                .collect(),
        }
    }

    fn key(sql: &str, generation: u64) -> CacheKey {
        CacheKey {
            fp: fingerprint_sql(sql).unwrap(),
            generation,
        }
    }

    fn entry(n: usize, tag: &str) -> Arc<CachedResult> {
        let values = result_of(n, tag).rows.into_iter().flatten().collect();
        let columns = ResultColumns {
            labels: vec!["v".into()],
            columns: vec![blend_sql::ResultColumn::Val(values)],
        };
        Arc::new(CachedResult::new(columns, QueryReport::default()))
    }

    #[test]
    fn hit_after_insert_and_generation_invalidation() {
        let cache = ResultCache::new(1 << 20);
        let k1 = key("SELECT TableId FROM AllTables", 1);
        cache.insert(k1.clone(), entry(4, "a"));
        let hit = cache.get(&k1).unwrap();
        assert_eq!(hit.columns.to_result_set(), result_of(4, "a"));

        // Same query at a newer generation: the old entry must not match,
        // and observing the new generation purges it.
        let k2 = key("SELECT TableId FROM AllTables", 2);
        assert!(cache.get(&k2).is_none());
        assert!(cache.is_empty(), "stale generation purged on observation");
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn spelling_variants_share_an_entry() {
        let cache = ResultCache::new(1 << 20);
        cache.insert(
            key(
                "SELECT TableId FROM AllTables WHERE CellValue IN ('a','b')",
                1,
            ),
            entry(2, "x"),
        );
        let variant = key(
            "select tableid from alltables where cellvalue in ('b','a')",
            1,
        );
        assert!(cache.get(&variant).is_some());
    }

    #[test]
    fn byte_budget_forces_eviction() {
        // Budget fits roughly one entry (payload + per-entry overhead)
        // per shard.
        let one = entry(64, "fill");
        let cost = ResultCache::entry_cost(&key("SELECT TableId FROM AllTables LIMIT 0", 1), &one);
        let budget = (cost + 64) * NUM_SHARDS;
        let cache = ResultCache::new(budget);
        for i in 0..64 {
            cache.insert(
                key(&format!("SELECT TableId FROM AllTables LIMIT {i}"), 1),
                entry(64, "fill"),
            );
        }
        assert!(cache.bytes() <= budget);
        assert!(!cache.is_empty(), "small entries must be admitted");
        assert!(cache.len() < 64, "evictions must have occurred");
    }

    #[test]
    fn entries_charge_the_governor_and_reclaim_releases() {
        let gov = Arc::new(MemoryGovernor::with_budget(1 << 20));
        let cache = ResultCache::with_governor(1 << 19, gov.clone());
        for i in 0..8 {
            cache.insert(
                key(&format!("SELECT TableId FROM AllTables LIMIT {i}"), 1),
                entry(16, "g"),
            );
        }
        assert!(!cache.is_empty());
        assert_eq!(
            gov.reserved_bytes(),
            cache.bytes(),
            "every resident byte is charged against the governor"
        );

        // Rung 1: asking for bytes evicts entries and releases charges.
        let freed = cache.reclaim(1);
        assert!(freed > 0);
        assert_eq!(gov.reserved_bytes(), cache.bytes());

        cache.purge_all();
        assert!(cache.is_empty());
        assert_eq!(gov.reserved_bytes(), 0, "purge drains the pool");
    }

    #[test]
    fn insert_is_dropped_when_the_governor_cannot_fund_it() {
        let gov = Arc::new(MemoryGovernor::with_budget(64));
        let cache = ResultCache::with_governor(1 << 19, gov.clone());
        let k = key("SELECT TableId FROM AllTables", 1);
        cache.insert(k.clone(), entry(16, "x"));
        assert!(cache.get(&k).is_none(), "entry over the memory budget");
        assert_eq!(gov.reserved_bytes(), 0, "failed charge fully rolled back");
    }

    #[test]
    fn zero_budget_disables() {
        let cache = ResultCache::new(0);
        let k = key("SELECT TableId FROM AllTables", 1);
        cache.insert(k.clone(), entry(4, "a"));
        assert!(cache.get(&k).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn oversized_entry_not_admitted() {
        let cache = ResultCache::new(NUM_SHARDS * 64);
        let k = key("SELECT CellValue FROM AllTables", 1);
        cache.insert(k.clone(), entry(1000, "big"));
        assert!(cache.get(&k).is_none());
        assert_eq!(cache.bytes(), 0);
    }
}
