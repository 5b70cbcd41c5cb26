//! The long-lived disambiguation server: per-core epoll reactors, each
//! owning an `SO_REUSEPORT` acceptor shard, and graceful shutdown.
//!
//! Each reactor multiplexes its shard's
//! connections off readiness events, so thousands of keep-alive
//! connections cost memory, not threads. Connections beyond a reactor's
//! live cap ([`ServiceConfig::queue_depth`]) are answered `503`
//! immediately instead of piling up. Shutdown — via [`Server::shutdown`]
//! or `POST /v1/shutdown` — wakes every reactor through its eventfd; each
//! stops accepting, flushes in-flight responses, and closes idle
//! connections.
//!
//! Lock poisoning is recovered, never propagated: a panicking request
//! handler is caught and answered `500`, and any lock it poisoned on the
//! way down is re-entered by taking the inner value (safe here because
//! every lock guards append-ordered or idempotent state — the WAL
//! protocol is append-consistent, the lock only orders appends).
//!
//! This module holds the configuration, the shared [`ServiceState`], and
//! the server lifecycle. Requests are parsed into a typed `Route` and run
//! by `dispatch` (tracing, timing, admission), which hands them to one
//! module per resource: `complete` (the search routes), `schemas`
//! (schemas and data), `tenants`, and `ops` (probes, replication,
//! metrics, debug).

mod complete;
mod dispatch;
mod ops;
mod schemas;
mod tenants;

pub(crate) use dispatch::{handle_request_catching, Reply};
pub use ops::{metrics_json, metrics_prometheus};

use crate::cache::{config_fingerprint, CacheKey, CachePartitions};
use crate::data::DataRegistry;
use crate::epoll::Wake;
use crate::reactor::{reactor_loop, ReactorConfig};
use crate::registry::SchemaRegistry;
use crate::repl::FollowerStatus;
use crate::sync::{lock_recover, recovered};
use complete::MAX_BATCH_THREADS;
use ipe_core::{complete_batch, BatchOptions, Completer, CompletionConfig};
use ipe_index::{IndexMode, IndexedSchema};
use ipe_obs::{FlightConfig, FlightRecorder, SpanHandle};
use ipe_parser::parse_path_expression;
use ipe_repl::ReplHub;
use ipe_schema::Schema;
use ipe_store::{
    read_sidecar, read_warmup, remove_sidecar, sidecar_path, write_sidecar, write_warmup,
    FsyncPolicy, Store, StoreConfig, WalOp, WalRecord, WarmupEntry,
};
use ipe_tenant::{scoped_name, split_scoped, TenantConfig, TenantRegistry, DEFAULT_TENANT};
use ops::{IndexCounters, ServiceCounters};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, TryLockError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Settings of a [`Server`]: each one is an `ipe serve` flag.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::addr`]).
    pub addr: String,
    /// Reactor threads, each owning an `SO_REUSEPORT` acceptor shard and
    /// an epoll loop multiplexing that shard's connections. `0` means one
    /// per available core.
    pub reactors: usize,
    /// Live connections one reactor will hold; beyond it new connections
    /// on that shard get an immediate `503` (the backpressure valve).
    pub queue_depth: usize,
    /// Budget for one request (first byte to framed request — a deadline,
    /// not a per-read timeout, so drip-fed requests are bounded too);
    /// also the idle keep-alive reap interval and the shutdown drain
    /// deadline. Expiry mid-request answers `408`.
    pub request_timeout: Duration,
    /// Byte budget of each tenant's completion-cache partition when the
    /// tenant does not set its own `cache_bytes`. It is the cache's only
    /// bound, so it must be positive.
    pub cache_bytes: u64,
    /// Default worker threads for `POST /v1/complete/batch` (a request's
    /// `threads` field overrides per batch).
    pub batch_threads: usize,
    /// Data directory for the durable schema store. `None` (the default)
    /// keeps the registry purely in memory, as before PR 4.
    pub data_dir: Option<PathBuf>,
    /// WAL flush policy when `data_dir` is set.
    pub fsync: FsyncPolicy,
    /// WAL appends between snapshot compactions (0 = snapshot only on
    /// clean shutdown).
    pub snapshot_every: u64,
    /// Search-index policy. `On` builds every schema's index (all goal
    /// tables eagerly) in the background after a PUT and at recovery;
    /// `Lazy` builds the closure matrices in the background but grows
    /// goal tables on first use; `Off` disables indexing entirely.
    /// Completions issued while a build is still running are served
    /// unindexed — a PUT never waits for indexing.
    pub index_mode: IndexMode,
    /// Head sampling for request tracing: record a span tree for 1 in N
    /// requests (1 = every request, 0 = tracing off). An unsampled
    /// request pays one atomic check and nothing else.
    pub trace_sample_n: u64,
    /// Flight-recorder recent ring: how many completed request traces to
    /// retain. The always-keep reservoirs scale with it: the slowest
    /// `capacity / 16` requests and the last `capacity / 8` errored ones
    /// (each at least 1).
    pub flight_capacity: usize,
    /// Requests whose handler wall time reaches this many milliseconds
    /// are flagged slow and force-retained in the flight recorder
    /// (0 disables the threshold).
    pub slow_ms: u64,
    /// Emit one structured JSON access-log line per request to stderr.
    pub access_log: bool,
    /// Run as a read-only follower of the leader at this `host:port`:
    /// tail its replication stream, apply schema mutations locally, and
    /// answer schema writes `421` with the leader's address. `None` (the
    /// default) runs as a standalone server / replication leader.
    pub follow: Option<String>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:7474".to_owned(),
            reactors: 0,
            queue_depth: 256,
            request_timeout: Duration::from_secs(10),
            cache_bytes: 64 << 20,
            batch_threads: 4,
            data_dir: None,
            fsync: FsyncPolicy::Always,
            snapshot_every: 256,
            index_mode: IndexMode::On,
            trace_sample_n: 1,
            flight_capacity: 256,
            slow_ms: 500,
            access_log: false,
            follow: None,
        }
    }
}

/// Resolves [`ServiceConfig::reactors`]: `0` means one per core.
fn reactor_count(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Tenant-config sidecar file name inside the data directory.
pub const TENANTS_FILE: &str = "tenants.json";

/// How many hot cache keys the warmup journal keeps and replays.
const WARMUP_TOP_K: usize = 64;
/// Cap on distinct keys the warmup tracker counts; hotter keys win, new
/// keys arriving at capacity are dropped (sampling, not precision).
const WARMUP_TRACK_CAP: usize = 4096;
/// Per-query deadline when replaying the warmup journal at startup, so a
/// pathological journal cannot stall boot.
const WARMUP_REPLAY_DEADLINE: Duration = Duration::from_secs(2);

/// Best-effort frequency counter over `(schema name, normalized query)`
/// pairs, feeding the warmup journal. Recording uses `try_lock`: under
/// contention a sample is simply dropped — warmth is advisory.
pub struct WarmupTracker {
    inner: Mutex<WarmupCounts>,
}

/// Hit counts keyed schema-first, so a repeat key is found with the
/// borrowed strings and only a first sighting allocates.
#[derive(Default)]
struct WarmupCounts {
    by_schema: HashMap<String, HashMap<String, u64>>,
    /// Distinct `(schema, query)` keys across `by_schema`.
    keys: usize,
}

impl WarmupTracker {
    fn new() -> WarmupTracker {
        WarmupTracker {
            inner: Mutex::new(WarmupCounts::default()),
        }
    }

    /// Counts one lookup of `query` against `schema` (sampled).
    pub fn record(&self, schema: &str, query: &str) {
        // `try_lock` must distinguish contention (drop the sample) from
        // poisoning (recover the map): treating both as "skip" would turn
        // one panic into a permanently frozen warmup journal.
        let mut counts = match self.inner.try_lock() {
            Ok(counts) => counts,
            Err(TryLockError::Poisoned(poisoned)) => recovered(poisoned),
            Err(TryLockError::WouldBlock) => return,
        };
        let counts = &mut *counts;
        if let Some(n) = counts
            .by_schema
            .get_mut(schema)
            .and_then(|q| q.get_mut(query))
        {
            *n += 1;
        } else if counts.keys < WARMUP_TRACK_CAP {
            let queries = counts.by_schema.entry(schema.to_owned()).or_default();
            queries.insert(query.to_owned(), 1);
            counts.keys += 1;
        }
    }

    /// The hottest `k` keys, descending.
    pub fn top_k(&self, k: usize) -> Vec<WarmupEntry> {
        let counts = lock_recover(&self.inner);
        let mut entries: Vec<WarmupEntry> = counts
            .by_schema
            .iter()
            .flat_map(|(schema, queries)| {
                queries.iter().map(|(query, hits)| WarmupEntry {
                    schema: schema.clone(),
                    query: query.clone(),
                    hits: *hits,
                })
            })
            .collect();
        entries.sort_by(|a, b| b.hits.cmp(&a.hits).then_with(|| a.query.cmp(&b.query)));
        entries.truncate(k);
        entries
    }
}

/// Adds `handle` to a list of background threads joined at shutdown,
/// first joining (instantly) the threads that already finished: an
/// unjoined finished thread keeps its stack mapped, so a list that only
/// grew would leak one stack per schema upload or replication stream.
pub(crate) fn push_reaped(
    threads: &Mutex<Vec<JoinHandle<()>>>,
    what: &str,
    handle: JoinHandle<()>,
) {
    let mut live = lock_recover(threads);
    let (finished, running): (Vec<_>, Vec<_>) = std::mem::take(&mut *live)
        .into_iter()
        .partition(|h| h.is_finished());
    *live = running;
    live.push(handle);
    drop(live);
    for h in finished {
        if h.join().is_err() {
            eprintln!("ipe-service: a finished {what} thread had panicked");
        }
    }
}

/// Shared state of a running server: registry, cache, and counters.
pub struct ServiceState {
    /// The schema registry. Keys are tenant-scoped: the `default`
    /// tenant owns bare names, every other tenant's schemas live under
    /// `"{tenant}/{name}"` (see [`ipe_tenant::scoped_name`]).
    pub registry: SchemaRegistry,
    /// Per-tenant completion-cache partitions; the `default` tenant's
    /// partition serves the legacy un-prefixed routes. Partition byte
    /// budgets come from each tenant's `cache_bytes`.
    pub caches: CachePartitions,
    /// Tenant namespaces: admission quotas, cache budgets, and the
    /// per-tenant request defaults (`PUT /v1/tenants/:tenant`).
    pub tenants: TenantRegistry,
    /// Loaded data instances, per schema name (`PUT /v1/data/:schema`).
    pub data: DataRegistry,
    /// The durable store (`Some` when the server runs with a data
    /// directory). The mutex also serializes registry mutations with
    /// their WAL appends, so the log order always matches the registry's
    /// generation order.
    pub(crate) store: Option<Mutex<Store>>,
    /// Leader-side replication fan-out (`Some` iff durable and not a
    /// follower). Appends publish to it while still holding the store
    /// mutex, so subscribers see records in exact WAL order.
    pub(crate) repl_hub: Option<Arc<ReplHub>>,
    /// Follower progress (`Some` iff [`ServiceConfig::follow`] was set).
    pub(crate) follower: Option<Arc<FollowerStatus>>,
    /// Live replication threads (the follower apply loop, leader stream
    /// writers), joined on shutdown.
    pub(crate) repl_threads: Mutex<Vec<JoinHandle<()>>>,
    /// Hot-key tracker feeding the warmup journal (only with a store).
    warmup: Option<WarmupTracker>,
    batch_threads: usize,
    /// This server's counts, reported by `/metrics`.
    pub(crate) counters: ServiceCounters,
    shutdown: AtomicBool,
    /// One eventfd per running reactor (their count is the `workers`
    /// metrics gauge); `request_shutdown` fires them all so a reactor
    /// blocked in `epoll_wait` observes the flag immediately.
    wakers: Mutex<Vec<Arc<Wake>>>,
    bound_addr: OnceLock<SocketAddr>,
    /// Index policy (see [`ServiceConfig::index_mode`]).
    index_mode: IndexMode,
    /// Sidecar directory; `Some` iff the server is durable.
    pub(crate) data_dir: Option<PathBuf>,
    /// Live background index-build threads, joined on shutdown so a
    /// build's sidecar write never races the final snapshot.
    index_builders: Mutex<Vec<JoinHandle<()>>>,
    /// Holds background index builds while a test acts inside the build
    /// window.
    #[cfg(test)]
    index_gate: tests::BuildGate,
    /// The flight recorder of completed request traces (see
    /// `GET /v1/debug/requests`).
    pub flight: FlightRecorder,
    slow_ms: u64,
    access_log: bool,
}

impl ServiceState {
    fn new(config: &ServiceConfig, store: Option<Store>) -> ServiceState {
        let track_warmup = store.is_some();
        // Only a durable non-follower can lead: the stream protocol
        // resumes from the on-disk WAL, and a follower republishing the
        // leader's records would invert the topology.
        let repl_hub = match (&store, &config.follow) {
            (Some(store), None) => Some(Arc::new(ReplHub::new(store.last_seq()))),
            _ => None,
        };
        ServiceState {
            registry: SchemaRegistry::new(),
            caches: CachePartitions::new(config.cache_bytes),
            tenants: TenantRegistry::new(TenantConfig::default()),
            data: DataRegistry::new(),
            store: store.map(Mutex::new),
            repl_hub,
            follower: config
                .follow
                .clone()
                .map(|leader| Arc::new(FollowerStatus::new(leader))),
            repl_threads: Mutex::new(Vec::new()),
            warmup: track_warmup.then(WarmupTracker::new),
            batch_threads: config.batch_threads.clamp(1, MAX_BATCH_THREADS as usize),
            counters: ServiceCounters {
                index: IndexCounters {
                    mode: config.index_mode.as_str(),
                    ..IndexCounters::default()
                },
                ..ServiceCounters::default()
            },
            shutdown: AtomicBool::new(false),
            wakers: Mutex::new(Vec::new()),
            bound_addr: OnceLock::new(),
            index_mode: config.index_mode,
            data_dir: config.data_dir.clone(),
            index_builders: Mutex::new(Vec::new()),
            #[cfg(test)]
            index_gate: tests::BuildGate::default(),
            flight: FlightRecorder::new(FlightConfig {
                capacity: config.flight_capacity,
                shards: 8,
                keep_slowest: (config.flight_capacity / 16).max(1),
                keep_errors: (config.flight_capacity / 8).max(1),
                sample_n: config.trace_sample_n,
            }),
            slow_ms: config.slow_ms,
            access_log: config.access_log,
        }
    }

    /// Whether this server persists its registry.
    pub fn durable(&self) -> bool {
        self.store.is_some()
    }

    /// Writes the warmup journal from the tracker's current top-K.
    /// Best-effort: failures are counted, never propagated.
    fn flush_warmup(&self) {
        let (Some(store), Some(warmup)) = (&self.store, &self.warmup) else {
            return;
        };
        let entries = warmup.top_k(WARMUP_TOP_K);
        let path = lock_recover(store).warmup_path();
        if write_warmup(&path, &entries).is_err() {
            ipe_obs::counter!("store.warmup.write_failed", 1);
        }
    }

    /// Inserts (or hot-swaps) a schema under the `default` tenant. See
    /// [`ServiceState::register_schema_for`].
    pub fn register_schema(
        &self,
        name: &str,
        schema: Schema,
        json: &str,
    ) -> std::io::Result<Arc<crate::SchemaEntry>> {
        self.register_schema_for(DEFAULT_TENANT, name, schema, json)
    }

    /// Inserts (or hot-swaps) a tenant's schema and writes the mutation
    /// through to the WAL when the server is durable; a no-op append when
    /// it is not. `name` is the tenant-local (bare) name — the registry
    /// key is tenant-scoped, the WAL record carries the tenant id. `json`
    /// is the schema's serialized form as recorded in the log. The store
    /// lock is taken *before* the registry write so concurrent mutations
    /// hit the WAL in generation order. On a persistence failure the
    /// registry keeps the new generation (it is live in memory) but the
    /// error is returned so callers can refuse to acknowledge the write
    /// as durable.
    pub fn register_schema_for(
        &self,
        tenant: &str,
        name: &str,
        schema: Schema,
        json: &str,
    ) -> std::io::Result<Arc<crate::SchemaEntry>> {
        let key = scoped_name(tenant, name);
        let store_guard = self.store.as_ref().map(lock_recover);
        let entry = self.registry.insert(&key, schema);
        if let Some(mut store) = store_guard {
            match store.append_put(tenant, name, entry.id, entry.generation, json) {
                Ok(appended) => {
                    // Published while still holding the store mutex, so
                    // followers observe records in exact WAL order and a
                    // concurrent stream handshake (which subscribes under
                    // this same mutex) can neither miss nor duplicate it.
                    if let Some(hub) = &self.repl_hub {
                        hub.publish(&WalRecord {
                            seq: appended.seq,
                            op: WalOp::Put {
                                tenant: tenant.to_owned(),
                                name: name.to_owned(),
                                id: entry.id,
                                generation: entry.generation,
                                schema_json: json.to_owned(),
                            },
                        });
                    }
                    drop(store);
                    if appended.snapshotted {
                        self.flush_warmup();
                    }
                }
                Err(e) => {
                    ipe_obs::counter!("store.wal.append_failed", 1);
                    return Err(std::io::Error::other(e));
                }
            }
        }
        Ok(entry)
    }

    /// Removes the schema under registry key `key` and every local trace
    /// of it: cached completions, the loaded data instance (it was
    /// validated against this schema's generations, and leaving it behind
    /// would serve a later same-name schema from a stale instance), and
    /// the index sidecar (the id is never reissued). Returns the removed
    /// entry, the purged cache entries, and whether data was loaded.
    pub(crate) fn drop_schema(&self, key: &str) -> Option<(Arc<crate::SchemaEntry>, u64, bool)> {
        let entry = self.registry.remove(key)?;
        let purged = self.caches.purge_schema(split_scoped(key).0, entry.id);
        let purged_data = self.data.remove(key).is_some();
        if let Some(dir) = &self.data_dir {
            let _ = remove_sidecar(dir, entry.id);
        }
        Some((entry, purged, purged_data))
    }

    /// Path of the tenant-config sidecar inside the data directory.
    fn tenants_path(&self) -> Option<PathBuf> {
        self.data_dir.as_ref().map(|dir| dir.join(TENANTS_FILE))
    }

    /// Persists every tenant's config as `tenants.json` (temp file +
    /// rename) so namespaces and quotas survive restarts. Best-effort on
    /// a durable server, a no-op otherwise: quota state is config, not
    /// data — losing it degrades to default quotas, never to data loss.
    pub(crate) fn persist_tenants(&self) {
        let Some(path) = self.tenants_path() else {
            return;
        };
        let map: BTreeMap<String, TenantConfig> = self
            .tenants
            .list()
            .iter()
            .map(|t| (t.name().to_owned(), t.config()))
            .collect();
        let json = match serde_json::to_string(&map) {
            Ok(json) => json,
            Err(_) => return,
        };
        let tmp = path.with_extension("json.tmp");
        let written =
            std::fs::write(&tmp, json.as_bytes()).and_then(|()| std::fs::rename(&tmp, &path));
        if written.is_err() {
            ipe_obs::counter!("service.tenant.persist_failed", 1);
        }
    }

    /// Loads `tenants.json` (if present) into the tenant registry and
    /// sizes each tenant's cache partition. Unknown or corrupt files are
    /// skipped: tenants degrade to defaults rather than blocking boot.
    fn load_tenants(&self) {
        let Some(path) = self.tenants_path() else {
            return;
        };
        let Ok(bytes) = std::fs::read_to_string(&path) else {
            return;
        };
        let Ok(map) = serde_json::from_str::<BTreeMap<String, TenantConfig>>(&bytes) else {
            ipe_obs::counter!("service.tenant.load_failed", 1);
            eprintln!("ipe-service: ignoring corrupt {TENANTS_FILE}");
            return;
        };
        for (name, config) in map {
            let budget = config.cache_bytes;
            if self.tenants.put(&name, config).is_ok() {
                self.caches.ensure(&name, budget);
            }
        }
    }

    /// Whether shutdown has been requested.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown and wakes every reactor so ones blocked in
    /// `epoll_wait` observe the flag and start draining.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Closing the hub ends every leader stream thread at its next
        // queue pop, so the drain can join them.
        if let Some(hub) = &self.repl_hub {
            hub.close();
        }
        for wake in lock_recover(&self.wakers).iter() {
            wake.wake();
        }
    }
}

/// Spawns a background thread that builds `entry`'s search index, installs
/// it on the entry, and persists it as a store sidecar. Requests arriving
/// while the build runs are served unindexed. A no-op with
/// [`IndexMode::Off`].
pub(crate) fn spawn_index_build(state: &Arc<ServiceState>, entry: Arc<crate::SchemaEntry>) {
    if state.index_mode == IndexMode::Off {
        return;
    }
    let counters = &state.counters.index;
    counters.builds_in_flight.incr();
    let st = Arc::clone(state);
    let spawn = std::thread::Builder::new()
        .name(format!("ipe-index-{}", entry.id))
        .spawn(move || {
            #[cfg(test)]
            st.index_gate.pass();
            let index = {
                let _t = ipe_obs::timer!("service.index.build");
                Arc::new(IndexedSchema::build(&entry.schema, st.index_mode))
            };
            if entry.set_index(Arc::clone(&index)) {
                st.counters.index.builds_completed.incr();
                persist_index_sidecar(&st, &entry, &index);
            }
            st.counters.index.builds_in_flight.decr();
        });
    match spawn {
        Ok(handle) => push_reaped(&state.index_builders, "index builders", handle),
        Err(e) => {
            // Degrade to unindexed serving rather than failing the PUT.
            counters.builds_in_flight.decr();
            ipe_obs::counter!("service.index.spawn_failed", 1);
            eprintln!("ipe-service: failed to spawn index build: {e}");
        }
    }
}

/// Writes a built index as a sidecar next to the WAL — unless the entry
/// was hot-swapped while the build ran: the sidecar slot must only ever
/// hold the registry's *current* generation, because a restart validates
/// it against exactly that generation.
fn persist_index_sidecar(
    state: &Arc<ServiceState>,
    entry: &crate::SchemaEntry,
    index: &IndexedSchema,
) {
    let Some(dir) = &state.data_dir else {
        return;
    };
    let still_current = state
        .registry
        .get(&entry.name)
        .is_some_and(|c| c.id == entry.id && c.generation == entry.generation);
    if !still_current {
        return;
    }
    let payload = index.to_bytes(&entry.schema);
    if write_sidecar(
        &sidecar_path(dir, entry.id),
        entry.id,
        entry.generation,
        &payload,
    )
    .is_err()
    {
        ipe_obs::counter!("store.sidecar.write_failed", 1);
    }
}

/// A running disambiguation server. Dropping the handle does **not** stop
/// the threads; call [`Server::shutdown`] (or hit `POST /v1/shutdown` and
/// [`Server::join`]).
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServiceState>,
    reactor_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds one `SO_REUSEPORT` listener shard per reactor on
    /// `config.addr`, recovers the durable store (when `data_dir` is set)
    /// into the registry, replays the warmup journal against the engine,
    /// and spawns the reactors. Returns once the sockets are listening
    /// and recovery is complete — a server that starts serving is never
    /// partially recovered.
    pub fn start(config: ServiceConfig) -> io::Result<Server> {
        if config.cache_bytes == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cache_bytes must be positive: it is the cache's only bound",
            ));
        }
        let reactors = reactor_count(config.reactors);
        let requested =
            config.addr.to_socket_addrs()?.next().ok_or_else(|| {
                io::Error::other(format!("`{}` resolves to no address", config.addr))
            })?;
        // The first shard resolves port 0; its siblings bind the resolved
        // port. All set SO_REUSEPORT before binding, so the kernel
        // load-balances incoming connections across them by 4-tuple hash.
        let first = crate::epoll::bind_reuseport(requested)?;
        let addr = first.local_addr()?;
        let mut listeners = vec![first];
        for _ in 1..reactors {
            listeners.push(crate::epoll::bind_reuseport(addr)?);
        }
        let (store, recovery) = match &config.data_dir {
            None => (None, None),
            Some(dir) => {
                let store_config = StoreConfig {
                    dir: dir.clone(),
                    fsync: config.fsync,
                    snapshot_every: config.snapshot_every,
                };
                let (store, recovery) =
                    Store::open(&store_config).map_err(|e| io::Error::other(e.to_string()))?;
                (Some(store), Some(recovery))
            }
        };
        let state = Arc::new(ServiceState::new(&config, store));
        // Tenant configs load before schema recovery so each recovered
        // schema's cache partition already has its budget.
        state.load_tenants();
        if let Some(recovery) = recovery {
            for record in &recovery.schemas {
                let schema = Schema::from_json(&record.schema_json).map_err(|e| {
                    io::Error::other(format!(
                        "recovered schema `{}` does not parse: {e}",
                        record.name
                    ))
                })?;
                // Registry keys are tenant-scoped; a record whose tenant
                // no longer exists in tenants.json still recovers (the
                // WAL is authoritative for data, the sidecar only for
                // quotas) under default quotas.
                if record.tenant != DEFAULT_TENANT && state.tenants.get(&record.tenant).is_none() {
                    let _ = state.tenants.put(&record.tenant, TenantConfig::default());
                }
                let key = scoped_name(&record.tenant, &record.name);
                let entry = state
                    .registry
                    .restore(&key, record.id, record.generation, schema);
                // Prefer the persisted index sidecar; any mismatch
                // (missing, corrupt, stale generation) silently falls back
                // to a fresh background build.
                if state.index_mode != IndexMode::Off {
                    let loaded = config.data_dir.as_ref().and_then(|dir| {
                        let path = sidecar_path(dir, record.id);
                        let bytes = read_sidecar(&path, record.id, record.generation)?;
                        IndexedSchema::from_bytes(&bytes, &entry.schema).map(Arc::new)
                    });
                    let installed = loaded.map(|index| entry.set_index(index)).unwrap_or(false);
                    if installed {
                        state.counters.index.sidecar_loads.incr();
                    } else {
                        spawn_index_build(&state, entry);
                    }
                }
            }
            state.registry.reserve_ids(recovery.max_id);
            if let Some(follower) = &state.follower {
                // Resume the stream from what is already durable locally
                // instead of re-transferring from seq 0 on every boot —
                // the kill-and-catch-up path.
                follower.restore_applied(recovery.last_seq);
            }
            if recovery.truncated_tail {
                eprintln!(
                    "ipe-service: WAL tail was torn; recovered through seq {}",
                    recovery.last_seq
                );
            }
            if state.warmup.is_some() {
                let path = {
                    let store = state.store.as_ref().expect("recovery implies a store");
                    lock_recover(store).warmup_path()
                };
                let entries = read_warmup(&path);
                let warmed = warm_cache(&state, &entries);
                ipe_obs::counter!("store.warmup.replayed", warmed);
            }
        }
        state
            .bound_addr
            .set(addr)
            .expect("bound_addr set exactly once");

        // A failed reactor spawn (thread exhaustion, ulimit) degrades the
        // fleet instead of killing the server: the failed shard's
        // listener drops here, leaving the SO_REUSEPORT group, so the
        // kernel stops hashing connections to an unowned queue. Zero
        // reactors is fatal — nothing would ever serve.
        let mut reactor_handles = Vec::with_capacity(reactors);
        let mut last_spawn_err: Option<io::Error> = None;
        for (i, listener) in listeners.into_iter().enumerate() {
            let wake = Arc::new(Wake::new()?);
            let st = Arc::clone(&state);
            let reactor_cfg = ReactorConfig {
                request_timeout: config.request_timeout,
                max_conns: config.queue_depth.max(1),
            };
            let thread_wake = Arc::clone(&wake);
            // Registered before the spawn so a shutdown racing startup
            // can never miss a live reactor's wake.
            lock_recover(&state.wakers).push(wake);
            match std::thread::Builder::new()
                .name(format!("ipe-reactor-{i}"))
                .spawn(move || reactor_loop(listener, thread_wake, st, reactor_cfg))
            {
                Ok(handle) => reactor_handles.push(handle),
                Err(e) => {
                    lock_recover(&state.wakers).pop();
                    ipe_obs::counter!("service.worker.spawn_failed", 1);
                    eprintln!("ipe-service: failed to spawn reactor {i}: {e}");
                    last_spawn_err = Some(e);
                }
            }
        }
        if reactor_handles.is_empty() {
            return Err(last_spawn_err
                .unwrap_or_else(|| io::Error::other("no reactor threads could be spawned")));
        }
        if state.follower.is_some() {
            let st = Arc::clone(&state);
            match std::thread::Builder::new()
                .name("ipe-repl-follower".to_owned())
                .spawn(move || crate::repl::follower_loop(st))
            {
                Ok(handle) => push_reaped(&state.repl_threads, "repl threads", handle),
                Err(e) => {
                    // A follower that cannot apply must not serve: readers
                    // would see a frozen replica that still claims ready
                    // once caught up.
                    return Err(io::Error::other(format!(
                        "failed to spawn the follower apply thread: {e}"
                    )));
                }
            }
        }
        Ok(Server {
            addr,
            state,
            reactor_handles,
        })
    }

    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared registry/cache/gauge state.
    pub fn state(&self) -> &Arc<ServiceState> {
        &self.state
    }

    /// Registers a schema exactly as `PUT /v1/schemas/:name` would:
    /// durable write-through (when configured) plus a background index
    /// build. Embedders seeding schemas directly should use this rather
    /// than [`ServiceState::register_schema`], which skips indexing.
    pub fn register_schema(
        &self,
        name: &str,
        schema: ipe_schema::Schema,
        json: &str,
    ) -> std::io::Result<Arc<crate::SchemaEntry>> {
        let entry = self.state.register_schema(name, schema, json)?;
        spawn_index_build(&self.state, Arc::clone(&entry));
        Ok(entry)
    }

    /// Blocks until the server has shut down (via [`Server::shutdown`]
    /// from another thread or `POST /v1/shutdown`) and every reactor has
    /// drained.
    pub fn join(mut self) {
        self.join_inner();
    }

    /// Requests shutdown and waits for all threads to finish.
    pub fn shutdown(mut self) {
        self.state.request_shutdown();
        self.join_inner();
    }

    fn join_inner(&mut self) {
        for h in self.reactor_handles.drain(..) {
            let _ = h.join();
        }
        // Replication threads observe the shutdown flag (and the closed
        // hub) within a heartbeat interval; joining them before the final
        // snapshot keeps stream reads and follower applies off it.
        let repl: Vec<JoinHandle<()>> =
            std::mem::take(&mut *lock_recover(&self.state.repl_threads));
        for h in repl {
            let _ = h.join();
        }
        // Let in-flight index builds finish so their sidecar writes land
        // before the shutdown snapshot.
        let builders: Vec<JoinHandle<()>> =
            std::mem::take(&mut *lock_recover(&self.state.index_builders));
        for h in builders {
            let _ = h.join();
        }
        // Clean shutdown: compact once so the next boot replays a
        // snapshot instead of the whole WAL, and persist the hot keys.
        self.state.flush_warmup();
        if let Some(store) = &self.state.store {
            if let Err(e) = lock_recover(store).snapshot_now() {
                eprintln!("ipe-service: shutdown snapshot failed: {e}");
            }
        }
    }
}

/// Replays up to [`WARMUP_TOP_K`] warmup journal entries against the engine,
/// inserting the results under the default-config cache key (the key
/// steady-state interactive traffic hits). Entries for unknown schemas or
/// unparsable queries are skipped; each query gets a short deadline so a
/// pathological journal cannot stall startup. Returns how many entries
/// were warmed.
fn warm_cache(state: &Arc<ServiceState>, entries: &[WarmupEntry]) -> u64 {
    // Group by schema so each registry entry is resolved once.
    let mut by_schema: BTreeMap<&str, Vec<&WarmupEntry>> = BTreeMap::new();
    for entry in entries.iter().take(WARMUP_TOP_K) {
        by_schema.entry(&entry.schema).or_default().push(entry);
    }
    let cfg = CompletionConfig::default();
    let fingerprint = config_fingerprint(&cfg);
    let mut warmed = 0u64;
    for (schema_name, group) in by_schema {
        let Some(entry) = state.registry.get(schema_name) else {
            continue;
        };
        let mut keys = Vec::new();
        let mut asts = Vec::new();
        for w in group {
            let Ok(ast) = parse_path_expression(&w.query) else {
                continue;
            };
            keys.push(CacheKey {
                schema_id: entry.id,
                generation: entry.generation,
                query: ast.to_string(),
                fingerprint,
            });
            asts.push(ast);
        }
        if asts.is_empty() {
            continue;
        }
        let engine = Completer::with_config(&entry.schema, cfg.clone());
        let opts = BatchOptions {
            threads: 2,
            deadline: Some(WARMUP_REPLAY_DEADLINE),
            cancel: None,
            span: SpanHandle::none(),
        };
        // Journal keys are the scoped registry names, so each entry warms
        // the partition of the tenant that owns it.
        let cache = state.caches.partition(split_scoped(schema_name).0);
        for item in complete_batch(&engine, &asts, &opts) {
            if let Ok(outcome) = item.result {
                cache.insert_reply(keys[item.index].clone(), &entry.schema, outcome);
                warmed += 1;
            }
        }
    }
    warmed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Client;
    use ipe_schema::fixtures;
    use serde::Value;
    use std::sync::atomic::AtomicU64;
    use std::sync::Condvar;
    use std::time::Instant;

    /// Holds background index builds until released, so a test can act
    /// inside the build window without racing a timer. Open by default:
    /// every other server a test starts builds unhindered.
    #[derive(Default)]
    pub(super) struct BuildGate {
        held: Mutex<bool>,
        released: Condvar,
    }

    impl BuildGate {
        fn hold(&self) {
            *lock_recover(&self.held) = true;
        }

        fn release(&self) {
            *lock_recover(&self.held) = false;
            self.released.notify_all();
        }

        /// Blocks the calling index build while the gate is held.
        pub(super) fn pass(&self) {
            let mut held = lock_recover(&self.held);
            while *held {
                held = self.released.wait(held).unwrap_or_else(recovered);
            }
        }
    }

    /// `POST /v1/debug/panic`, routed only in test builds: panics while
    /// holding the store, warmup, and builder locks — the failure mode
    /// that once cascaded through `.expect("store poisoned")` and killed
    /// every later request.
    pub(super) fn handle_debug_panic(state: &ServiceState) -> dispatch::Handled {
        let _store = state.store.as_ref().map(lock_recover);
        let _warmup = state.warmup.as_ref().map(|w| w.inner.lock());
        let _builders = lock_recover(&state.index_builders);
        panic!("injected panic (POST /v1/debug/panic)");
    }

    fn test_config() -> ServiceConfig {
        ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            reactors: 2,
            queue_depth: 16,
            request_timeout: Duration::from_secs(5),
            ..ServiceConfig::default()
        }
    }

    fn start(config: ServiceConfig) -> (Server, Client) {
        let server = Server::start(config).expect("bind ephemeral port");
        let client = Client::new(server.addr().to_string());
        (server, client)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ipe-service-unit-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn get(v: &Value, key: &str) -> Value {
        v.get(key)
            .unwrap_or_else(|| panic!("missing key {key}"))
            .clone()
    }

    fn as_u64(v: &Value) -> u64 {
        match v {
            Value::I64(i) => *i as u64,
            Value::U64(u) => *u,
            other => panic!("expected number, got {other:?}"),
        }
    }

    fn completion_count(body: &str) -> usize {
        let v = serde_json::parse_value_text(body).expect("valid JSON");
        match get(&v, "completions") {
            Value::Seq(items) => items.len(),
            other => panic!("expected completions array, got {other:?}"),
        }
    }

    /// The `service.index` section of `/metrics`.
    fn index_metrics(client: &mut Client) -> Value {
        let (status, body) = client.request("GET", "/metrics", "").unwrap();
        assert_eq!(status, 200, "{body}");
        let v = serde_json::parse_value_text(&body).unwrap();
        get(&get(&v, "service"), "index")
    }

    fn counts(tracker: &WarmupTracker) -> Vec<(String, String, u64)> {
        let mut rows: Vec<_> = (tracker.top_k(usize::MAX).into_iter())
            .map(|w| (w.schema, w.query, w.hits))
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn warmup_tracker_counts_caps_and_drops_contended_samples() {
        let tracker = WarmupTracker::new();
        for _ in 0..3 {
            tracker.record("uni", "ta~name");
        }
        tracker.record("uni", "student~name");
        tracker.record("t/uni", "ta~name");
        let top = tracker.top_k(1);
        assert_eq!((top[0].query.as_str(), top[0].hits), ("ta~name", 3));
        assert_eq!(
            counts(&tracker),
            [
                ("t/uni".to_owned(), "ta~name".to_owned(), 1),
                ("uni".to_owned(), "student~name".to_owned(), 1),
                ("uni".to_owned(), "ta~name".to_owned(), 3),
            ]
        );

        // A sample arriving while the map is locked is dropped, not queued.
        let held = tracker.inner.lock().unwrap();
        tracker.record("uni", "ta~name");
        drop(held);
        assert_eq!(tracker.top_k(1)[0].hits, 3);

        // At the cap, new keys are dropped and known keys keep counting.
        for i in 3..WARMUP_TRACK_CAP {
            tracker.record(&format!("s{}", i % 7), &format!("q{i}"));
        }
        assert_eq!(counts(&tracker).len(), WARMUP_TRACK_CAP);
        tracker.record("uni", "new~key");
        tracker.record("fresh", "ta~name");
        tracker.record("uni", "ta~name");
        let rows = counts(&tracker);
        assert_eq!(rows.len(), WARMUP_TRACK_CAP);
        assert!(!rows.iter().any(|r| r.1 == "new~key" || r.0 == "fresh"));
        assert_eq!(tracker.top_k(1)[0].hits, 4);

        // A poisoned map is recovered, never frozen.
        let tracker = Arc::new(tracker);
        let poisoner = Arc::clone(&tracker);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("poison the warmup map");
        })
        .join();
        assert!(tracker.inner.is_poisoned());
        tracker.record("uni", "ta~name");
        assert_eq!(tracker.top_k(1)[0].hits, 5);
    }

    #[test]
    fn finished_index_builders_are_reaped() {
        let state = Arc::new(ServiceState::new(&ServiceConfig::default(), None));
        let schema = ipe_schema::fixtures::university();
        for _ in 0..50 {
            let entry = state.register_schema("uni", schema.clone(), "{}").unwrap();
            spawn_index_build(&state, entry);
            let deadline = Instant::now() + Duration::from_secs(30);
            while !lock_recover(&state.index_builders)
                .iter()
                .all(|h| h.is_finished())
            {
                assert!(Instant::now() < deadline, "an index build never finished");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let held = lock_recover(&state.index_builders).len();
        assert!(held <= 1, "{held} finished build threads still held");
        assert_eq!(state.counters.index.builds_completed.get(), 50);
    }

    /// A complete issued while the background build is held must succeed
    /// — served unindexed — and once the build lands, fresh requests must
    /// count as indexed in `/metrics`.
    #[test]
    fn completes_succeed_during_build_window_then_hit_the_index() {
        let (server, mut client) = start(test_config());
        server.state().index_gate.hold();
        let uni = fixtures::university().to_json();
        let (status, body) = client.request("PUT", "/v1/schemas/uni", &uni).unwrap();
        assert_eq!(status, 200, "{body}");

        // Inside the build window: the complete succeeds without the index.
        let (status, body) = client
            .request(
                "POST",
                "/v1/complete",
                r#"{"schema": "uni", "query": "ta~name"}"#,
            )
            .unwrap();
        assert_eq!(status, 200, "complete during index build failed: {body}");
        assert_eq!(completion_count(&body), 2, "{body}");
        let m = index_metrics(&mut client);
        assert!(
            as_u64(&get(&m, "completes_unindexed")) >= 1,
            "the in-window complete should have been unindexed: {m:?}"
        );
        assert_eq!(as_u64(&get(&m, "builds_completed")), 0, "{m:?}");

        // After the build: a fresh (uncached) query reports an index hit.
        server.state().index_gate.release();
        let deadline = Instant::now() + Duration::from_secs(10);
        while as_u64(&get(&index_metrics(&mut client), "builds_completed")) == 0 {
            assert!(
                Instant::now() < deadline,
                "the background build never landed"
            );
            std::thread::sleep(Duration::from_millis(25));
        }
        let (status, body) = client
            .request(
                "POST",
                "/v1/complete",
                r#"{"schema": "uni", "query": "student~name"}"#,
            )
            .unwrap();
        assert_eq!(status, 200, "{body}");
        let m = index_metrics(&mut client);
        assert!(
            as_u64(&get(&m, "completes_indexed")) >= 1,
            "post-build complete should report an index hit: {m:?}"
        );
        server.shutdown();
    }

    /// A handler panic — injected while the store, warmup, and builder
    /// locks are held — answers that request `500` and leaves the server
    /// fully serviceable: the poisoned locks are recovered on next use
    /// instead of condemning every later request.
    #[test]
    fn injected_panic_does_not_take_down_the_server() {
        let (server, mut client) = start(ServiceConfig {
            reactors: 4,
            batch_threads: 2,
            ..test_config()
        });
        server
            .state()
            .registry
            .insert("default", fixtures::university());
        let (status, body) = client.request("POST", "/v1/debug/panic", "").unwrap();
        assert_eq!(status, 500, "{body}");
        assert!(body.contains("panicked"), "{body}");

        // Requests that take the same locks still succeed.
        let (status, body) = client
            .request("POST", "/v1/complete", r#"{"query": "ta~name"}"#)
            .unwrap();
        assert_eq!(status, 200, "{body}");
        assert_eq!(completion_count(&body), 2);
        let uni = fixtures::university().to_json();
        let (status, body) = client.request("PUT", "/v1/schemas/after", &uni).unwrap();
        assert_eq!(status, 200, "{body}");

        // A second injected panic and another recovery, for good measure.
        let (status, _) = client.request("POST", "/v1/debug/panic", "").unwrap();
        assert_eq!(status, 500);
        let (status, _) = client.request("GET", "/healthz", "").unwrap();
        assert_eq!(status, 200);

        #[cfg(not(feature = "obs-off"))]
        {
            let (status, body) = client.request("GET", "/metrics", "").unwrap();
            assert_eq!(status, 200);
            let v = serde_json::parse_value_text(&body).unwrap();
            let counters = get(&v, "counters");
            assert!(
                as_u64(&get(&counters, "service.request.panicked")) >= 2,
                "{body}"
            );
        }
        server.shutdown();
    }

    /// A panic injected while the store mutex is held must not cost
    /// durability: the lock is recovered (the WAL is append-consistent at
    /// every panic point), writes keep landing on disk, and a restart
    /// recovers everything written both before and after the panic.
    #[test]
    fn durable_writes_survive_an_injected_panic() {
        let dir = tmp_dir("panic");
        let durable = || ServiceConfig {
            data_dir: Some(dir.clone()),
            fsync: FsyncPolicy::Always,
            ..test_config()
        };
        let uni = fixtures::university().to_json();
        {
            let (server, mut client) = start(durable());
            let (status, body) = client.request("PUT", "/v1/schemas/before", &uni).unwrap();
            assert_eq!(status, 200, "{body}");

            // Poison the store/warmup/builder locks mid-flight.
            let (status, body) = client.request("POST", "/v1/debug/panic", "").unwrap();
            assert_eq!(status, 500, "{body}");

            // Durable mutations still work after recovery.
            let (status, body) = client.request("PUT", "/v1/schemas/after", &uni).unwrap();
            assert_eq!(status, 200, "{body}");
            client.request("POST", "/v1/shutdown", "").unwrap();
            server.join();
        }
        {
            let (server, mut client) = start(ServiceConfig {
                snapshot_every: 4,
                ..durable()
            });
            for name in ["before", "after"] {
                let (status, body) = client
                    .request("GET", &format!("/v1/schemas/{name}"), "")
                    .unwrap();
                assert_eq!(status, 200, "{name} lost across restart: {body}");
            }
            client.request("POST", "/v1/shutdown", "").unwrap();
            server.join();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
