//! Service wiring for WAL-shipping replication: the leader's stream
//! endpoint and the follower's apply loop.
//!
//! The leader side runs one blocking thread per subscribed follower. The
//! reactor parses `GET /v1/repl/stream`, then *detaches* the connection
//! from its epoll loop and hands the raw socket here, because a
//! replication stream is the opposite of a request/response cycle: it
//! lives for hours and is written to whenever the WAL grows. The thread
//! snapshots the resume decision and subscribes to the
//! [`ReplHub`](ipe_repl::ReplHub) while holding the store mutex — the
//! same mutex every WAL append holds when it publishes — so the suffix it
//! reads from disk and the live feed it tails are gap-free and
//! overlap-free by construction.
//!
//! The follower side runs one thread for the whole process lifetime. It
//! connects with a resume point, applies snapshots and records through
//! the same `restore()` path crash recovery uses (so a replica is always
//! in a state the leader could have restarted from), and reconnects with
//! exponential backoff, resuming from the last durably applied sequence
//! number. Each applied schema is published with its index already
//! built, exactly as a local PUT is, so a follower never serves a schema
//! unindexed.

use crate::server::{push_reaped, ServiceState};
use crate::sync::{lock_recover, Counter};
use ipe_repl::{Backoff, ClientError, ReplClient, ReplEvent, SubEvent, REPL_MAGIC};
use ipe_schema::Schema;
use ipe_store::{Snapshot, WalOp, WalRecord};
use ipe_tenant::scoped_name;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Idle cadence of the leader stream: how long it waits for a fresh WAL
/// record before emitting a heartbeat instead.
pub(crate) const HEARTBEAT_EVERY: Duration = Duration::from_millis(500);
/// Leader-side write timeout: a follower that accepts no bytes for this
/// long is cut off (it will reconnect and resume).
const STREAM_WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// Follower-side read timeout, so the apply loop can poll the shutdown
/// flag between events.
const FOLLOWER_READ_TIMEOUT: Duration = Duration::from_millis(500);
/// Follower-side connect timeout per attempt.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Marker a route handler puts on a [`crate::server::Reply`] to tell the
/// reactor: after flushing the response head, detach this connection and
/// hand it to a replication streaming thread starting at `from_seq`.
pub(crate) struct StreamStart {
    /// Resume point (exclusive): the leader sends records with
    /// `seq > from_seq`.
    pub(crate) from_seq: u64,
}

/// Live view of a follower's replication progress, shared between the
/// apply thread (writer) and the request handlers (`/readyz`, admission
/// checks, `/metrics`).
pub struct FollowerStatus {
    /// The leader's `host:port`, echoed in `x-ipe-leader` on rejected
    /// writes.
    pub leader: String,
    applied_seq: AtomicU64,
    leader_seq: AtomicU64,
    connected: AtomicBool,
    /// Whether this follower has ever drawn level with the leader since
    /// the process started; readiness requires it so a freshly booted
    /// replica that merely hasn't *heard* a higher seq yet is not ready.
    caught_up_once: AtomicBool,
    /// When the follower last observed `applied_seq >= leader_seq`;
    /// `lag_ms` is the time since.
    last_caught_up: Mutex<Instant>,
    /// Times this follower has re-established the stream.
    pub(crate) reconnects: Counter,
    /// Records applied since startup.
    pub(crate) records_applied: Counter,
    /// Full snapshots installed since startup.
    pub(crate) snapshots_installed: Counter,
}

impl FollowerStatus {
    pub(crate) fn new(leader: String) -> FollowerStatus {
        FollowerStatus {
            leader,
            applied_seq: AtomicU64::new(0),
            leader_seq: AtomicU64::new(0),
            connected: AtomicBool::new(false),
            caught_up_once: AtomicBool::new(false),
            last_caught_up: Mutex::new(Instant::now()),
            reconnects: Counter::default(),
            records_applied: Counter::default(),
            snapshots_installed: Counter::default(),
        }
    }

    /// Seeds the resume point from local crash recovery, before the apply
    /// thread starts.
    pub(crate) fn restore_applied(&self, seq: u64) {
        self.applied_seq.store(seq, Ordering::SeqCst);
    }

    /// Highest sequence number applied locally.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq.load(Ordering::SeqCst)
    }

    /// Highest sequence number the leader has advertised.
    pub fn leader_seq(&self) -> u64 {
        self.leader_seq.load(Ordering::SeqCst)
    }

    /// Whether the stream connection is currently up.
    pub fn connected(&self) -> bool {
        self.connected.load(Ordering::SeqCst)
    }

    /// Records applied minus records advertised — how far behind this
    /// replica's state is.
    pub fn lag_seq(&self) -> u64 {
        self.leader_seq().saturating_sub(self.applied_seq())
    }

    /// Milliseconds since the follower was last level with the leader
    /// (0 while level).
    pub fn lag_ms(&self) -> u64 {
        if self.lag_seq() == 0 && self.caught_up_once.load(Ordering::SeqCst) {
            return 0;
        }
        lock_recover(&self.last_caught_up)
            .elapsed()
            .as_millis()
            .min(u64::MAX as u128) as u64
    }

    /// Whether reads may be served at full fidelity: connected, level
    /// with the leader, and has been level at least once this process.
    pub fn is_ready(&self) -> bool {
        self.connected() && self.caught_up_once.load(Ordering::SeqCst) && self.lag_seq() == 0
    }

    fn set_connected(&self, up: bool) {
        self.connected.store(up, Ordering::SeqCst);
    }

    fn note_leader_seq(&self, seq: u64) {
        self.leader_seq.fetch_max(seq, Ordering::SeqCst);
        self.refresh_caught_up();
    }

    fn note_applied(&self, seq: u64) {
        self.applied_seq.store(seq, Ordering::SeqCst);
        self.records_applied.incr();
        self.refresh_caught_up();
    }

    fn refresh_caught_up(&self) {
        if self.applied_seq() >= self.leader_seq() {
            self.caught_up_once.store(true, Ordering::SeqCst);
            *lock_recover(&self.last_caught_up) = Instant::now();
        }
    }
}

/// Spawns the blocking thread that owns one follower's stream: writes the
/// buffered response head, the stream magic, the Hello, the snapshot or
/// WAL suffix, then tails the hub until the follower drops, falls too far
/// behind, or the server drains.
pub(crate) fn spawn_leader_stream(
    state: &Arc<ServiceState>,
    stream: TcpStream,
    pending_head: Vec<u8>,
    start: StreamStart,
) {
    let st = Arc::clone(state);
    let spawn = std::thread::Builder::new()
        .name("ipe-repl-stream".to_owned())
        .spawn(move || {
            st.counters.repl_streams_active.incr();
            ipe_obs::counter!("repl.stream.started", 1);
            if let Err(e) = serve_stream(&st, stream, pending_head, start) {
                ipe_obs::counter!("repl.stream.errors", 1);
                eprintln!("ipe-service: replication stream ended: {e}");
            }
            st.counters.repl_streams_active.decr();
        });
    match spawn {
        Ok(handle) => push_reaped(&state.repl_threads, "repl threads", handle),
        Err(e) => {
            ipe_obs::counter!("repl.stream.spawn_failed", 1);
            eprintln!("ipe-service: failed to spawn replication stream: {e}");
        }
    }
}

fn serve_stream(
    state: &Arc<ServiceState>,
    mut stream: TcpStream,
    pending_head: Vec<u8>,
    start: StreamStart,
) -> std::io::Result<()> {
    let hub = state
        .repl_hub
        .as_ref()
        .expect("stream replies only exist on leaders");
    stream.set_nodelay(true).ok();
    stream.set_write_timeout(Some(STREAM_WRITE_TIMEOUT))?;
    stream.write_all(&pending_head)?;

    // The resume decision, the suffix read, and the hub subscription all
    // happen under the store mutex — the mutex `register_schema` holds
    // when it publishes — so every record is delivered exactly once:
    // appended-before-subscribe records are in the suffix, records after
    // are in the queue, and nothing is in both.
    let (first_frames, mut sent_through, sub) = {
        let store = lock_recover(
            state
                .store
                .as_ref()
                .expect("leader streams require a store"),
        );
        let last_seq = store.last_seq();
        let snapshot_mode = start.from_seq < store.compacted_through() || start.from_seq > last_seq;
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let sent_through;
        if snapshot_mode {
            let snap = store.export_snapshot();
            sent_through = snap.last_seq;
            frames.push(
                ipe_repl::Frame::Hello {
                    leader_last_seq: last_seq,
                    start_mode: ipe_repl::START_SNAPSHOT,
                }
                .encode(),
            );
            frames.push(ipe_repl::Frame::Snapshot(snap.to_bytes()).encode());
            ipe_obs::counter!("repl.stream.snapshots_sent", 1);
        } else {
            let suffix = store
                .wal_records_after(start.from_seq)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            sent_through = suffix.last().map(|r| r.seq).unwrap_or(start.from_seq);
            frames.push(
                ipe_repl::Frame::Hello {
                    leader_last_seq: last_seq,
                    start_mode: ipe_repl::START_SUFFIX,
                }
                .encode(),
            );
            for record in &suffix {
                frames.push(ipe_repl::Frame::Record(record.encode_payload()).encode());
            }
        }
        (frames, sent_through, hub.subscribe())
    };

    stream.write_all(REPL_MAGIC)?;
    for frame in first_frames {
        stream.write_all(&frame)?;
    }

    loop {
        if state.shutting_down() {
            return Ok(());
        }
        match sub.pop(HEARTBEAT_EVERY) {
            SubEvent::Record(record) => {
                // Defensive: a record already covered by the suffix (or
                // snapshot) read under the lock must not be re-sent.
                if record.seq <= sent_through {
                    continue;
                }
                stream.write_all(&ipe_repl::Frame::Record(record.encode_payload()).encode())?;
                sent_through = record.seq;
                ipe_obs::counter!("repl.stream.records_sent", 1);
            }
            SubEvent::Timeout => {
                stream.write_all(
                    &ipe_repl::Frame::Heartbeat {
                        leader_last_seq: hub.last_seq(),
                    }
                    .encode(),
                )?;
                ipe_obs::counter!("repl.stream.heartbeats", 1);
            }
            SubEvent::Lagged => {
                // The follower stopped draining and its queue overflowed;
                // drop the stream so it reconnects and resumes (possibly
                // via snapshot) instead of holding unbounded memory here.
                ipe_obs::counter!("repl.stream.lag_dropped", 1);
                return Ok(());
            }
            SubEvent::Closed => return Ok(()),
        }
    }
}

/// The follower apply loop: connect, apply, reconnect with backoff, until
/// shutdown. Runs on its own thread, joined by the server's drain.
pub(crate) fn follower_loop(state: Arc<ServiceState>) {
    let status = Arc::clone(
        state
            .follower
            .as_ref()
            .expect("follower loop requires follower state"),
    );
    let mut backoff = Backoff::new();
    while !state.shutting_down() {
        let from_seq = status.applied_seq();
        let mut client = match ReplClient::connect(
            &status.leader,
            from_seq,
            CONNECT_TIMEOUT,
            FOLLOWER_READ_TIMEOUT,
        ) {
            Ok(client) => client,
            Err(e) => {
                ipe_obs::counter!("repl.follower.connect_failed", 1);
                eprintln!(
                    "ipe-service: cannot reach leader {}: {e}; retrying",
                    status.leader
                );
                sleep_unless_shutdown(&state, backoff.next_delay());
                continue;
            }
        };
        status.set_connected(true);
        backoff.reset();
        ipe_obs::counter!("repl.follower.connected", 1);
        loop {
            if state.shutting_down() {
                status.set_connected(false);
                return;
            }
            match client.next_event() {
                Ok(None) => continue, // read timeout: re-check shutdown
                Ok(Some(event)) => {
                    if let Err(e) = apply_event(&state, &status, event) {
                        ipe_obs::counter!("repl.follower.apply_failed", 1);
                        eprintln!("ipe-service: replication apply failed: {e}; reconnecting");
                        break;
                    }
                }
                Err(ClientError::Disconnected) => {
                    eprintln!("ipe-service: leader closed the stream; reconnecting");
                    break;
                }
                Err(e) => {
                    eprintln!("ipe-service: replication stream error: {e}; reconnecting");
                    break;
                }
            }
        }
        status.set_connected(false);
        status.reconnects.incr();
        sleep_unless_shutdown(&state, backoff.next_delay());
    }
    status.set_connected(false);
}

/// Sleeps `total` in short slices, returning early once shutdown is
/// requested, so a draining follower never waits out a full backoff.
fn sleep_unless_shutdown(state: &ServiceState, total: Duration) {
    let deadline = Instant::now() + total;
    while !state.shutting_down() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        std::thread::sleep(left.min(Duration::from_millis(50)));
    }
}

fn apply_event(
    state: &Arc<ServiceState>,
    status: &FollowerStatus,
    event: ReplEvent,
) -> Result<(), String> {
    match event {
        ReplEvent::Hello {
            leader_last_seq, ..
        }
        | ReplEvent::Heartbeat { leader_last_seq } => {
            status.note_leader_seq(leader_last_seq);
            Ok(())
        }
        ReplEvent::Snapshot(snap) => install_snapshot(state, status, snap),
        ReplEvent::Record(record) => apply_record(state, status, record),
    }
}

/// Installs a full leader snapshot: durable store state first (so a crash
/// mid-install recovers to either the old or the new state, never a mix),
/// then the registry hot-swap — restores for everything the snapshot
/// carries, removals (with cache and data purges) for everything it
/// doesn't.
fn install_snapshot(
    state: &Arc<ServiceState>,
    status: &FollowerStatus,
    snap: Snapshot,
) -> Result<(), String> {
    if let Some(store) = &state.store {
        lock_recover(store)
            .install_remote_snapshot(&snap)
            .map_err(|e| format!("snapshot install: {e}"))?;
    }
    for record in &snap.schemas {
        let schema = Schema::from_json(&record.schema_json)
            .map_err(|e| format!("snapshot schema `{}` does not parse: {e}", record.name))?;
        ensure_tenant(state, &record.tenant);
        let key = scoped_name(&record.tenant, &record.name);
        let entry = state
            .registry
            .restore(&key, record.id, record.generation, schema);
        state.caches.purge_schema(&record.tenant, entry.id);
    }
    for info in state.registry.list() {
        let still_live = snap
            .schemas
            .iter()
            .any(|s| scoped_name(&s.tenant, &s.name) == info.name);
        if !still_live {
            state.drop_schema(&info.name);
        }
    }
    state.registry.reserve_ids(snap.max_id);
    status.applied_seq.store(snap.last_seq, Ordering::SeqCst);
    status.snapshots_installed.incr();
    status.refresh_caught_up();
    Ok(())
}

/// Applies one live WAL record at the leader's sequence number.
fn apply_record(
    state: &Arc<ServiceState>,
    status: &FollowerStatus,
    record: WalRecord,
) -> Result<(), String> {
    if let Some(store) = &state.store {
        // The store refuses gaps and replays itself; its WAL keeps the
        // leader's sequence numbers, which is exactly the resume point.
        lock_recover(store)
            .apply_remote(&record)
            .map_err(|e| format!("record seq {}: {e}", record.seq))?;
    } else if record.seq != status.applied_seq() + 1 {
        return Err(format!(
            "record seq {} does not extend applied seq {}",
            record.seq,
            status.applied_seq()
        ));
    }
    match &record.op {
        WalOp::Put {
            tenant,
            name,
            id,
            generation,
            schema_json,
        } => {
            let schema = Schema::from_json(schema_json)
                .map_err(|e| format!("replicated schema `{name}` does not parse: {e}"))?;
            ensure_tenant(state, tenant);
            let key = scoped_name(tenant, name);
            let entry = state.registry.restore(&key, *id, *generation, schema);
            state.registry.reserve_ids(*id);
            // Older generations' cached completions are keyed away already;
            // purging frees them eagerly, exactly as a local PUT does.
            state.caches.purge_schema(tenant, entry.id);
        }
        WalOp::Delete { tenant, name } => {
            state.drop_schema(&scoped_name(tenant, name));
        }
    }
    status.note_applied(record.seq);
    Ok(())
}

/// A follower learns tenants from the records it applies: quotas are
/// node-local config (tenants.json), but the namespace itself must exist
/// for scoped reads to route.
fn ensure_tenant(state: &Arc<ServiceState>, tenant: &str) {
    if tenant != ipe_tenant::DEFAULT_TENANT && state.tenants.get(tenant).is_none() {
        let _ = state
            .tenants
            .put(tenant, ipe_tenant::TenantConfig::default());
    }
}
