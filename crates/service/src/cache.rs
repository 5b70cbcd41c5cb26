//! The sharded completion cache: a hand-rolled LRU behind `N` mutex
//! shards, partitioned per tenant with independent byte budgets.
//!
//! Keys carry the owning schema's `(id, generation)` pair, so a hot-swap
//! in the [`crate::SchemaRegistry`] invalidates every cached result of the
//! old schema version without touching the cache at all: the new
//! generation simply never collides with the old keys. [`purge_schema`]
//! additionally drops the stale entries eagerly so a reload frees memory
//! immediately instead of waiting for LRU pressure.
//!
//! Eviction is *budgeted*, with one limit: every insert declares the
//! entry's weight (1 for [`ShardedLru::insert`], its approximate heap
//! bytes for the service's replies), and a shard evicts
//! least-recently-used entries until the declared weights fit the
//! shard's share of the budget. Each tenant owns a private
//! [`ReplyCache`] inside [`CachePartitions`], so one tenant's churn can
//! never push another tenant's warm entries out.
//!
//! The service caches a [`CachedReply`]: the outcome together with its
//! reply fragment, encoded once at insert, so a hit answers
//! `POST /v1/complete` by splicing stored bytes instead of re-encoding.
//!
//! [`purge_schema`]: ShardedLru::purge_schema

use crate::api::CompleteResponse;
use ipe_core::{CompletionConfig, Pruning, SearchOutcome};
use ipe_schema::Schema;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Cache key for one memoized completion run.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Registry id of the schema (stable across hot-swaps).
    pub schema_id: u64,
    /// Registry generation of the schema (bumped by every hot-swap).
    pub generation: u64,
    /// The query in normalized textual form (`ast.to_string()`), so
    /// `ta ~ name` and `ta~name` share an entry.
    pub query: String,
    /// Fingerprint of the [`CompletionConfig`], see [`config_fingerprint`].
    pub fingerprint: u64,
}

/// A stable 64-bit digest of every field of a [`CompletionConfig`] that
/// can change the result set. Two configs with equal fingerprints produce
/// identical completions on the same schema and query.
pub fn config_fingerprint(cfg: &CompletionConfig) -> u64 {
    let mut h = DefaultHasher::new();
    cfg.e.hash(&mut h);
    let pruning: u8 = match cfg.pruning {
        Pruning::None => 0,
        Pruning::Paper => 1,
        Pruning::PaperNoCaution => 2,
        Pruning::Safe => 3,
    };
    pruning.hash(&mut h);
    cfg.inheritance_criterion.hash(&mut h);
    cfg.max_depth.hash(&mut h);
    cfg.max_results.hash(&mut h);
    cfg.prefer_specific.hash(&mut h);
    // Exclusion sets are order-insensitive.
    let mut excluded: Vec<usize> = cfg.excluded_classes.iter().map(|c| c.index()).collect();
    excluded.sort_unstable();
    excluded.hash(&mut h);
    h.finish()
}

/// Point-in-time cache statistics, for `/metrics` and tests.
#[derive(Clone, Copy, Debug, Default, serde::Serialize)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries dropped by LRU pressure (not by [`ShardedLru::purge_schema`]).
    pub evictions: u64,
    /// Live entries across all shards.
    pub entries: u64,
    /// Weight held by live entries, as declared at insertion: bytes for
    /// the service's replies (see [`entry_weight`]), 1 per
    /// [`ShardedLru::insert`].
    pub bytes: u64,
}

/// One cached completion set: the search outcome (which `/v1/query`
/// evaluates) and the tail of its `/v1/complete` reply body, encoded
/// once when the entry is made.
#[derive(Debug)]
pub struct CachedReply {
    /// The memoized search outcome.
    pub outcome: SearchOutcome,
    /// `"completions":[…],"stats":{…}}` — the serialized
    /// [`CompleteResponse`] from its `completions` field to the closing
    /// brace.
    pub fragment: String,
}

impl CachedReply {
    /// Pairs `outcome` with its fragment, its completions rendered
    /// against `schema`.
    pub fn new(schema: &Schema, outcome: SearchOutcome) -> CachedReply {
        CachedReply {
            fragment: CompleteResponse::encode_tail(schema, &outcome),
            outcome,
        }
    }
}

/// Approximate heap footprint of one completion-cache entry: the key's
/// inline size plus its query string, the outcome's completion vectors,
/// and the encoded reply fragment. An estimate for the `cache.bytes`
/// gauge, not an allocator measurement.
pub fn entry_weight(key: &CacheKey, reply: &CachedReply) -> usize {
    use std::mem::size_of;
    let completions: usize = reply
        .outcome
        .completions
        .iter()
        .map(|c| size_of::<ipe_core::Completion>() + c.edges.len() * size_of::<ipe_schema::RelId>())
        .sum();
    size_of::<CacheKey>()
        + key.query.len()
        + size_of::<CachedReply>()
        + completions
        + reply.fragment.len()
}

/// Sentinel for "no node" in the intrusive lists.
const NIL: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    /// Declared entry weight for the byte gauge.
    bytes: usize,
    prev: usize,
    next: usize,
}

/// One LRU shard: hash map into a slab of doubly-linked nodes ordered
/// most-recently-used first.
struct Shard<K, V> {
    map: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    /// Sum of the live nodes' declared weights.
    bytes: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> Shard<K, V> {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
        }
    }

    /// Detaches node `i` from the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next].prev = prev;
        }
    }

    /// Links node `i` at the head (most recently used).
    fn link_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        let &i = self.map.get(key)?;
        self.unlink(i);
        self.link_front(i);
        Some(self.nodes[i].value.clone())
    }

    /// Drops node `i`, releasing its weight.
    fn remove(&mut self, i: usize) {
        self.unlink(i);
        self.bytes -= self.nodes[i].bytes as u64;
        self.map.remove(&self.nodes[i].key);
        self.free.push(i);
    }

    /// Evicts least-recently-used entries until the live weight fits
    /// `budget`; returns how many went.
    fn evict_to(&mut self, budget: u64) -> u64 {
        let mut evicted = 0;
        while self.bytes > budget && self.tail != NIL {
            self.remove(self.tail);
            evicted += 1;
        }
        evicted
    }

    /// Inserts or refreshes, then evicts down to `budget`. Returns how
    /// many entries were evicted. An entry whose own weight exceeds the
    /// whole budget is refused outright — caching it is pointless and
    /// letting it in would churn every warm entry on its way through.
    fn insert(&mut self, key: K, value: V, bytes: usize, budget: u64) -> u64 {
        if bytes as u64 > budget {
            // A stale, smaller version of the key must still die: the
            // caller just computed a fresher result we cannot hold.
            return match self.map.get(&key) {
                Some(&i) => {
                    self.remove(i);
                    1
                }
                None => 0,
            };
        }
        if let Some(&i) = self.map.get(&key) {
            self.bytes = self.bytes - self.nodes[i].bytes as u64 + bytes as u64;
            self.nodes[i].value = value;
            self.nodes[i].bytes = bytes;
            self.unlink(i);
            self.link_front(i);
        } else {
            self.bytes += bytes as u64;
            let node = Node {
                key: key.clone(),
                value,
                bytes,
                prev: NIL,
                next: NIL,
            };
            let i = match self.free.pop() {
                Some(slot) => {
                    self.nodes[slot] = node;
                    slot
                }
                None => {
                    self.nodes.push(node);
                    self.nodes.len() - 1
                }
            };
            self.link_front(i);
            self.map.insert(key, i);
        }
        self.evict_to(budget)
    }

    /// Removes every entry matching `pred`; returns how many were dropped.
    fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) -> u64 {
        let victims: Vec<usize> = self
            .map
            .iter()
            .filter(|(k, _)| !keep(k))
            .map(|(_, &i)| i)
            .collect();
        let n = victims.len() as u64;
        for i in victims {
            self.remove(i);
        }
        n
    }

    /// Keys in most-recently-used-first order (test helper).
    #[cfg(test)]
    fn keys_mru(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut i = self.head;
        while i != NIL {
            out.push(self.nodes[i].key.clone());
            i = self.nodes[i].next;
        }
        out
    }
}

/// A sharded LRU cache: keys are hashed onto one of `shards` independent
/// mutex-protected LRU maps, so concurrent lookups on different shards
/// never contend. Values are cheap clones (the service stores
/// `Arc<CachedReply>`).
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    /// The budget across all shards, in the units entries declare. Each
    /// shard holds at most its even share, rounded up. Atomic so a
    /// tenant's budget can be re-configured on a live partition.
    budget: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// A cache of bare completion outcomes, for embedders that encode
/// their own replies.
pub type CompletionCache = ShardedLru<CacheKey, Arc<SearchOutcome>>;

/// The service's concrete cache type: outcomes with their pre-encoded
/// reply fragments.
pub type ReplyCache = ShardedLru<CacheKey, Arc<CachedReply>>;

impl<K: Hash + Eq + Clone, V: Clone> ShardedLru<K, V> {
    /// A cache bounded by `budget` over `shards` shards (clamped to at
    /// least 1 and rounded up to a power of two, so shard selection is a
    /// mask). The budget counts whatever entries declare: an
    /// [`insert`](ShardedLru::insert) weighs 1, so a cache filled that
    /// way holds about `budget` entries, while
    /// [`insert_weighted`](ShardedLru::insert_weighted) declares bytes.
    pub fn new(budget: u64, shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        ShardedLru {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            budget: AtomicU64::new(budget),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Replaces the budget and evicts every shard down to its new share
    /// at once, so a shrink frees memory without waiting for inserts.
    pub fn set_budget(&self, budget: u64) {
        self.budget.store(budget, Ordering::Relaxed);
        let share = self.shard_budget();
        let evicted = self
            .shards
            .iter()
            .map(|s| Self::lock_shard(s).evict_to(share))
            .sum();
        self.count_evictions(evicted);
    }

    /// The configured budget across all shards.
    pub fn budget(&self) -> u64 {
        self.budget.load(Ordering::Relaxed)
    }

    /// One shard's share of the budget.
    fn shard_budget(&self) -> u64 {
        self.budget().div_ceil(self.shards.len() as u64)
    }

    fn count_evictions(&self, evicted: u64) {
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    fn shard_of(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) & (self.shards.len() - 1)]
    }

    /// Locks a shard, recovering from poisoning: the cache is advisory
    /// (worst case a stale recency order), so dying on a lock a panicking
    /// request poisoned would trade a cosmetic inconsistency for an
    /// outage.
    fn lock_shard<'a>(shard: &'a Mutex<Shard<K, V>>) -> std::sync::MutexGuard<'a, Shard<K, V>> {
        shard.lock().unwrap_or_else(|poisoned| {
            ipe_obs::counter!("service.lock.poison_recovered", 1);
            poisoned.into_inner()
        })
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        let got = Self::lock_shard(self.shard_of(key)).get(key);
        match &got {
            Some(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        got
    }

    /// Inserts (or refreshes) `key` at weight 1, evicting the shard's
    /// least recently used entries when it is over budget.
    pub fn insert(&self, key: K, value: V) {
        self.insert_weighted(key, value, 1);
    }

    /// Like [`ShardedLru::insert`], declaring the entry's approximate
    /// heap footprint in bytes (see [`entry_weight`]); it counts toward
    /// the budget and the `cache.bytes` gauge.
    pub fn insert_weighted(&self, key: K, value: V, bytes: usize) {
        let share = self.shard_budget();
        let evicted = Self::lock_shard(self.shard_of(&key)).insert(key, value, bytes, share);
        self.count_evictions(evicted);
    }

    /// Live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| Self::lock_shard(s).map.len())
            .sum()
    }

    /// Weight held by live entries across all shards, as declared at
    /// insertion.
    pub fn bytes(&self) -> u64 {
        self.shards.iter().map(|s| Self::lock_shard(s).bytes).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len() as u64,
            bytes: self.bytes(),
        }
    }
}

impl<V: Clone> ShardedLru<CacheKey, V> {
    /// Eagerly drops every entry belonging to `schema_id` (all
    /// generations). Generation keying already guarantees correctness on
    /// hot-swap; this frees the dead entries' memory immediately. Returns
    /// the number of entries dropped.
    pub fn purge_schema(&self, schema_id: u64) -> u64 {
        self.shards
            .iter()
            .map(|s| ShardedLru::lock_shard(s).retain(|k| k.schema_id != schema_id))
            .sum()
    }
}

impl ReplyCache {
    /// Encodes `outcome` once (see [`CachedReply::new`]) and caches it
    /// under `key`, weighted by [`entry_weight`]. Returns the entry, so
    /// a miss answers from the same bytes later hits will.
    pub fn insert_reply(
        &self,
        key: CacheKey,
        schema: &Schema,
        outcome: SearchOutcome,
    ) -> Arc<CachedReply> {
        let reply = Arc::new(CachedReply::new(schema, outcome));
        let weight = entry_weight(&key, &reply);
        self.insert_weighted(key, Arc::clone(&reply), weight);
        reply
    }
}

/// Shards per cache partition.
const CACHE_SHARDS: usize = 16;

/// Per-tenant completion-cache partitions. Every tenant gets a private
/// [`ReplyCache`] with its own byte budget, so cache pressure
/// never crosses tenant boundaries: a noisy tenant churning its
/// partition evicts only its own entries. The `default` tenant's
/// partition is created eagerly and never dropped.
pub struct CachePartitions {
    inner: RwLock<HashMap<String, Arc<ReplyCache>>>,
    /// Byte budget applied when a tenant doesn't set its own.
    default_budget: u64,
}

impl CachePartitions {
    /// A partition set whose partitions are each budgeted at
    /// `default_budget` bytes unless the tenant sets its own. The
    /// `default` partition is created immediately.
    pub fn new(default_budget: u64) -> CachePartitions {
        let parts = CachePartitions {
            inner: RwLock::new(HashMap::new()),
            default_budget,
        };
        parts.ensure(ipe_tenant::DEFAULT_TENANT, 0);
        parts
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, HashMap<String, Arc<ReplyCache>>> {
        self.inner.read().unwrap_or_else(|poisoned| {
            ipe_obs::counter!("service.lock.poison_recovered", 1);
            poisoned.into_inner()
        })
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, HashMap<String, Arc<ReplyCache>>> {
        self.inner.write().unwrap_or_else(|poisoned| {
            ipe_obs::counter!("service.lock.poison_recovered", 1);
            poisoned.into_inner()
        })
    }

    /// Gets (or creates) `tenant`'s partition, applying `budget_bytes`
    /// (0 = the partition-set default). An existing partition is
    /// re-budgeted in place, evicting down to a smaller budget at once.
    pub fn ensure(&self, tenant: &str, budget_bytes: u64) -> Arc<ReplyCache> {
        let budget = if budget_bytes > 0 {
            budget_bytes
        } else {
            self.default_budget
        };
        if let Some(cache) = self.read().get(tenant) {
            cache.set_budget(budget);
            return Arc::clone(cache);
        }
        let mut map = self.write();
        if let Some(cache) = map.get(tenant) {
            cache.set_budget(budget);
            return Arc::clone(cache);
        }
        let cache = Arc::new(ReplyCache::new(budget, CACHE_SHARDS));
        map.insert(tenant.to_owned(), Arc::clone(&cache));
        cache
    }

    /// The partition serving `tenant`. Unknown tenants fall back to a
    /// fresh default-budget partition (requests for a tenant created on
    /// the leader may reach a follower before its registry row does).
    pub fn partition(&self, tenant: &str) -> Arc<ReplyCache> {
        if let Some(cache) = self.read().get(tenant) {
            return Arc::clone(cache);
        }
        self.ensure(tenant, 0)
    }

    /// Drops `tenant`'s partition outright, returning how many entries
    /// and declared bytes died with it. The `default` partition is
    /// reset (replaced by an empty one) rather than removed.
    pub fn drop_partition(&self, tenant: &str) -> (u64, u64) {
        let mut map = self.write();
        let Some(cache) = map.remove(tenant) else {
            return (0, 0);
        };
        let (entries, bytes) = (cache.len() as u64, cache.bytes());
        if tenant == ipe_tenant::DEFAULT_TENANT {
            map.insert(
                tenant.to_owned(),
                Arc::new(ReplyCache::new(cache.budget(), CACHE_SHARDS)),
            );
        }
        (entries, bytes)
    }

    /// Eagerly drops `schema_id`'s entries from `tenant`'s partition
    /// (schema ids are registry-global, so one partition suffices).
    pub fn purge_schema(&self, tenant: &str, schema_id: u64) -> u64 {
        match self.read().get(tenant) {
            Some(cache) => cache.purge_schema(schema_id),
            None => 0,
        }
    }

    /// Per-tenant statistics, name-ordered — the `/metrics` rows.
    pub fn stats_by_tenant(&self) -> Vec<(String, CacheStats)> {
        let mut rows: Vec<(String, CacheStats)> = self
            .read()
            .iter()
            .map(|(name, cache)| (name.clone(), cache.stats()))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// Statistics summed across every partition (the legacy aggregate
    /// `cache` row in `/metrics`).
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for (_, s) in self.stats_by_tenant() {
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.entries += s.entries;
            total.bytes += s.bytes;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(q: &str) -> CacheKey {
        CacheKey {
            schema_id: 1,
            generation: 1,
            query: q.to_owned(),
            fingerprint: 0,
        }
    }

    fn empty() -> SearchOutcome {
        SearchOutcome {
            completions: Vec::new(),
            stats: Default::default(),
        }
    }

    /// Single-shard cache so the LRU order is fully observable.
    fn tiny(budget: u64) -> ShardedLru<CacheKey, u32> {
        ShardedLru::new(budget, 1)
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let cache = tiny(3);
        cache.insert(key("a"), 1);
        cache.insert(key("b"), 2);
        cache.insert(key("c"), 3);
        // Touch `a` so `b` becomes the LRU entry.
        assert_eq!(cache.get(&key("a")), Some(1));
        cache.insert(key("d"), 4);
        assert_eq!(cache.get(&key("b")), None, "b was least recently used");
        assert_eq!(cache.get(&key("a")), Some(1));
        assert_eq!(cache.get(&key("c")), Some(3));
        assert_eq!(cache.get(&key("d")), Some(4));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn eviction_order_is_exact_over_a_longer_run() {
        let cache = tiny(4);
        for (i, q) in ["a", "b", "c", "d"].iter().enumerate() {
            cache.insert(key(q), i as u32);
        }
        let mru = cache.shards[0].lock().unwrap().keys_mru();
        let queries: Vec<&str> = mru.iter().map(|k| k.query.as_str()).collect();
        assert_eq!(queries, vec!["d", "c", "b", "a"]);
        // Re-inserting an existing key refreshes, never evicts.
        cache.insert(key("b"), 9);
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().evictions, 0);
        // Two fresh inserts now evict exactly `a` then `c`.
        cache.insert(key("e"), 5);
        cache.insert(key("f"), 6);
        assert_eq!(cache.get(&key("a")), None);
        assert_eq!(cache.get(&key("c")), None);
        assert_eq!(cache.get(&key("b")), Some(9), "refreshed value");
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn byte_gauge_tracks_insert_refresh_evict_and_purge() {
        let cache = tiny(150);
        assert_eq!(cache.bytes(), 0);
        cache.insert_weighted(key("a"), 1, 100);
        cache.insert_weighted(key("b"), 2, 50);
        assert_eq!(cache.bytes(), 150);
        assert_eq!(cache.stats().bytes, 150);
        // Refresh replaces the weight, never double-counts.
        cache.insert_weighted(key("a"), 3, 40);
        assert_eq!(cache.bytes(), 90);
        // Eviction releases the victim's weight (b is LRU).
        cache.insert_weighted(key("c"), 4, 70);
        assert_eq!(cache.get(&key("b")), None);
        assert_eq!(cache.bytes(), 110);
        // Purge releases everything for the schema.
        let full: ReplyCache = ShardedLru::new(1 << 20, 2);
        let reply = full.insert_reply(key("q"), &ipe_schema::fixtures::university(), empty());
        let w = entry_weight(&key("q"), &reply);
        assert!(w > 0, "weight counts at least the key and outcome headers");
        assert_eq!(full.bytes(), w as u64);
        full.purge_schema(1);
        assert_eq!(full.bytes(), 0);
    }

    #[test]
    fn byte_budget_evicts_lru_until_the_new_entry_fits() {
        // Budget 100 over one shard; skewed entry sizes.
        let cache = tiny(100);
        cache.insert_weighted(key("small-1"), 1, 10);
        cache.insert_weighted(key("small-2"), 2, 10);
        cache.insert_weighted(key("big"), 3, 70);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.bytes(), 90);
        // 30 more bytes exceed the budget: the two small LRU entries go,
        // not just one — eviction is byte-driven, not entry-driven.
        cache.insert_weighted(key("medium"), 4, 30);
        assert_eq!(cache.get(&key("small-1")), None);
        assert_eq!(cache.get(&key("small-2")), None);
        assert_eq!(cache.get(&key("big")), Some(3));
        assert_eq!(cache.get(&key("medium")), Some(4));
        assert!(cache.bytes() <= 100);
        assert_eq!(cache.stats().evictions, 2);
        // An entry larger than the whole budget is refused without
        // disturbing the warm entries.
        cache.insert_weighted(key("oversize"), 5, 1000);
        assert_eq!(cache.get(&key("oversize")), None);
        assert_eq!(cache.get(&key("big")), Some(3), "warm survives oversize");
        assert!(cache.bytes() <= 100, "oversize insert cannot pin memory");
        // A refresh that grows past the budget evicts colder entries.
        cache.insert_weighted(key("big"), 6, 95);
        assert_eq!(cache.get(&key("big")), Some(6));
        assert_eq!(cache.get(&key("medium")), None);
        assert!(cache.bytes() <= 100);

        // A cached reply weighs its encoded fragment too: a budget that
        // fits the outcome alone refuses the entry.
        let schema = ipe_schema::fixtures::university();
        let ast = ipe_parser::parse_path_expression("ta~name").unwrap();
        let outcome = ipe_core::Completer::new(&schema)
            .complete_with_stats(&ast)
            .unwrap();
        let reply = CachedReply::new(&schema, outcome.clone());
        let weight = entry_weight(&key("ta~name"), &reply);
        let fragment = reply.fragment.len();
        assert!(fragment > 100, "two completions encode to {fragment} bytes");
        let outcome_only = (weight - fragment) as u64;
        let tight = ReplyCache::new(outcome_only, 1);
        tight.insert_reply(key("ta~name"), &schema, outcome.clone());
        assert!(
            tight.is_empty(),
            "the fragment pushes the entry past the budget"
        );
        let exact = ReplyCache::new(weight as u64, 1);
        exact.insert_reply(key("ta~name"), &schema, outcome.clone());
        assert_eq!(exact.bytes(), weight as u64);
        // The byte budget is the only bound: room for ten equal-weight
        // replies holds ten, and the eleventh evicts one.
        let ten = ReplyCache::new(10 * entry_weight(&key("q0"), &reply) as u64, 1);
        for i in 0..10 {
            ten.insert_reply(key(&format!("q{i}")), &schema, outcome.clone());
        }
        assert_eq!(ten.len(), 10);
        assert_eq!(ten.stats().evictions, 0);
        ten.insert_reply(key("qa"), &schema, outcome);
        assert_eq!(ten.len(), 10);
        assert_eq!(ten.stats().evictions, 1);
    }

    #[test]
    fn shrinking_the_budget_evicts_every_shard_at_once() {
        let cache: ShardedLru<CacheKey, u32> = ShardedLru::new(1 << 20, CACHE_SHARDS);
        for i in 0..640 {
            cache.insert_weighted(key(&format!("q{i}")), i, 100);
        }
        assert_eq!(cache.bytes(), 64_000);
        assert_eq!(cache.stats().evictions, 0);
        // No insert follows the shrink: every shard evicts on its own.
        cache.set_budget(10_000);
        assert_eq!(cache.budget(), 10_000);
        let (entries, bytes) = (cache.len() as u64, cache.bytes());
        assert!(bytes <= 10_000, "{bytes} bytes cached over a 10000 budget");
        assert!(bytes > 0, "the shrink keeps what fits");
        assert_eq!(cache.stats().evictions, 640 - entries);
    }

    #[test]
    fn partitions_isolate_tenant_churn() {
        let parts = CachePartitions::new(100 * CACHE_SHARDS as u64);
        let quiet = parts.ensure("quiet", 0);
        let noisy = parts.ensure("noisy", 0);
        let outcome = Arc::new(CachedReply::new(
            &ipe_schema::fixtures::university(),
            empty(),
        ));
        quiet.insert_weighted(key("warm"), outcome.clone(), 60);
        // The noisy tenant churns far past its own budget...
        for i in 0..200 {
            noisy.insert_weighted(key(&format!("churn-{i}")), outcome.clone(), 30);
        }
        assert!(noisy.stats().evictions > 0);
        assert!(noisy.bytes() <= noisy.budget());
        // ...and the quiet tenant's warm entry is untouched.
        assert!(quiet.get(&key("warm")).is_some());
        assert_eq!(quiet.stats().evictions, 0);
        // Dropping the noisy partition reports its footprint.
        let footprint = (noisy.len() as u64, noisy.bytes());
        assert_eq!(parts.drop_partition("noisy"), footprint);
        // The default partition resets instead of disappearing.
        let default = parts.partition(ipe_tenant::DEFAULT_TENANT);
        default.insert_weighted(key("d"), outcome, 10);
        parts.drop_partition(ipe_tenant::DEFAULT_TENANT);
        assert_eq!(parts.partition(ipe_tenant::DEFAULT_TENANT).len(), 0);
    }

    #[test]
    fn generation_bump_is_a_different_key() {
        let cache = tiny(8);
        cache.insert(key("q"), 1);
        let mut swapped = key("q");
        swapped.generation = 2;
        assert_eq!(cache.get(&swapped), None, "new generation never collides");
        assert_eq!(cache.get(&key("q")), Some(1), "old generation untouched");
    }

    #[test]
    fn purge_drops_only_the_given_schema() {
        let cache: CompletionCache = ShardedLru::new(16, 4);
        let outcome = Arc::new(empty());
        cache.insert(key("a"), outcome.clone());
        let mut other = key("b");
        other.schema_id = 2;
        cache.insert(other.clone(), outcome);
        assert_eq!(cache.purge_schema(1), 1);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&other).is_some());
    }

    #[test]
    fn fingerprint_distinguishes_configs_but_not_exclude_order() {
        use ipe_schema::fixtures;
        let schema = fixtures::university();
        let a = schema.class_named("person").unwrap();
        let b = schema.class_named("student").unwrap();
        let base = CompletionConfig::default();
        assert_eq!(config_fingerprint(&base), config_fingerprint(&base));
        let e2 = CompletionConfig::with_e(2);
        assert_ne!(config_fingerprint(&base), config_fingerprint(&e2));
        let ab = CompletionConfig {
            excluded_classes: vec![a, b],
            ..Default::default()
        };
        let ba = CompletionConfig {
            excluded_classes: vec![b, a],
            ..Default::default()
        };
        assert_eq!(config_fingerprint(&ab), config_fingerprint(&ba));
        assert_ne!(config_fingerprint(&base), config_fingerprint(&ab));
    }
}
