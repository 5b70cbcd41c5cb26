//! The durable store: one append-only WAL plus one compacted snapshot per
//! data directory, with crash recovery that replays snapshot-then-WAL.
//!
//! The store is a single-writer object (the service serializes mutations
//! through a mutex); readers never touch it — recovery happens once at
//! startup and hands the live state to the registry.

use crate::snapshot::{SchemaRecord, Snapshot};
use crate::wal::{scan_frame, FrameOutcome, WalOp, WalRecord, WAL_MAGIC, WAL_MAGIC_V1};
use crate::StoreError;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// WAL file name inside the data directory.
pub const WAL_FILE: &str = "wal.log";
/// Snapshot file name inside the data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Warmup journal file name inside the data directory.
pub const WARMUP_FILE: &str = "warmup.tsv";

/// When (relative to appends) the WAL is flushed to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every append: an acknowledged write survives
    /// `kill -9` and power loss.
    Always,
    /// `fsync` at most once per interval: bounded data loss, much higher
    /// append throughput.
    Interval(Duration),
    /// Never `fsync` explicitly; the OS flushes when it pleases. Survives
    /// process crashes (the page cache persists) but not power loss.
    Never,
}

impl FsyncPolicy {
    /// Parses the CLI spelling: `always`, `never`, or `interval[:MILLIS]`
    /// (default 100ms).
    pub fn parse(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            "interval" => Ok(FsyncPolicy::Interval(Duration::from_millis(100))),
            other => match other.strip_prefix("interval:") {
                Some(ms) => ms
                    .parse::<u64>()
                    .map(|ms| FsyncPolicy::Interval(Duration::from_millis(ms)))
                    .map_err(|_| format!("bad fsync interval `{ms}`")),
                None => Err(format!(
                    "unknown fsync policy `{other}` (always | interval[:MS] | never)"
                )),
            },
        }
    }
}

/// Store tuning: where the files live and how durable appends are.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Data directory (created if absent).
    pub dir: PathBuf,
    /// WAL flush policy.
    pub fsync: FsyncPolicy,
    /// Appends between automatic snapshot compactions (0 = only on
    /// explicit [`Store::snapshot_now`]).
    pub snapshot_every: u64,
}

impl StoreConfig {
    /// A config with the default policy (`fsync = always`,
    /// `snapshot_every = 256`) in `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            snapshot_every: 256,
        }
    }
}

/// What recovery found in the data directory.
#[derive(Clone, Debug, Default)]
pub struct Recovery {
    /// The live schemas (snapshot state patched by the WAL suffix), in
    /// registry-name order.
    pub schemas: Vec<SchemaRecord>,
    /// Sequence number of the last durable record.
    pub last_seq: u64,
    /// Highest registry id ever assigned (deleted schemas included).
    pub max_id: u64,
    /// WAL records replayed on top of the snapshot.
    pub wal_records: u64,
    /// Whether a torn or corrupt tail was cut off the WAL. At most one
    /// truncation happens per recovery — everything at and after the
    /// first bad frame is discarded together.
    pub truncated_tail: bool,
    /// Whether a snapshot file was loaded.
    pub from_snapshot: bool,
    /// Whether the data dir was in the pre-tenant v1 format and was
    /// migrated to v2 during this open (records re-homed into the
    /// `default` tenant, snapshot and WAL rewritten with v2 magics).
    pub migrated: bool,
}

/// Outcome of one append.
#[derive(Clone, Copy, Debug)]
pub struct Appended {
    /// The record's sequence number.
    pub seq: u64,
    /// Whether this append triggered a snapshot compaction.
    pub snapshotted: bool,
}

/// The durable schema store. See the [crate docs](crate) for the file
/// formats and the recovery invariants.
pub struct Store {
    dir: PathBuf,
    wal: File,
    fsync: FsyncPolicy,
    snapshot_every: u64,
    appends_since_snapshot: u64,
    last_fsync: Instant,
    dirty: bool,
    last_seq: u64,
    max_id: u64,
    /// Highest seq covered by the on-disk snapshot: records at or below it
    /// may no longer exist in the WAL file (the compaction horizon).
    compacted_through: u64,
    /// In-memory mirror of the live schemas keyed by `(tenant, name)`,
    /// the compaction source.
    live: BTreeMap<(String, String), SchemaRecord>,
}

impl Store {
    /// Opens (or initializes) the store in `config.dir` and runs
    /// recovery: load the snapshot if present, replay the WAL suffix,
    /// truncate a torn tail at the first bad checksum.
    pub fn open(config: &StoreConfig) -> Result<(Store, Recovery), StoreError> {
        std::fs::create_dir_all(&config.dir)?;
        let snapshot = Snapshot::read_from_versioned(&config.dir.join(SNAPSHOT_FILE))?;
        let from_snapshot = snapshot.is_some();
        let (snapshot, snapshot_v1) = match snapshot {
            Some((snap, v1)) => (snap, v1),
            None => (Snapshot::default(), false),
        };
        let compacted_through = snapshot.last_seq;
        let mut last_seq = snapshot.last_seq;
        let mut max_id = snapshot.max_id;
        let mut live: BTreeMap<(String, String), SchemaRecord> = snapshot
            .schemas
            .into_iter()
            .map(|s| ((s.tenant.clone(), s.name.clone()), s))
            .collect();

        let wal_path = config.dir.join(WAL_FILE);
        let mut wal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&wal_path)?;
        let mut bytes = Vec::new();
        wal.read_to_end(&mut bytes)?;

        let mut truncated_tail = false;
        let mut wal_records = 0u64;
        let mut wal_v1 = false;
        let durable_len = if bytes.is_empty() {
            // Fresh file: stamp the magic.
            wal.write_all(WAL_MAGIC)?;
            wal.sync_data()?;
            WAL_MAGIC.len()
        } else if bytes.len() < WAL_MAGIC.len() {
            // The file was born and torn before its magic landed.
            truncated_tail = true;
            wal.set_len(0)?;
            wal.seek(SeekFrom::Start(0))?;
            wal.write_all(WAL_MAGIC)?;
            wal.sync_data()?;
            WAL_MAGIC.len()
        } else if &bytes[..WAL_MAGIC.len()] == WAL_MAGIC_V1 {
            // A pre-tenant log: its v1 frames decode into the `default`
            // tenant; the whole dir is rewritten in v2 below, because
            // appending v2 frames to a v1-magic file would make a v1
            // build silently truncate them as a "torn tail".
            wal_v1 = true;
            Store::scan_wal(
                &bytes,
                &mut wal,
                &mut live,
                &mut max_id,
                &mut last_seq,
                &mut wal_records,
                &mut truncated_tail,
            )?
        } else if &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
            // Not a torn tail — the file head itself is wrong. Refuse to
            // guess: the operator pointed us at something that is not an
            // IPE WAL (or it was overwritten).
            return Err(StoreError::Corrupt("bad WAL magic"));
        } else {
            Store::scan_wal(
                &bytes,
                &mut wal,
                &mut live,
                &mut max_id,
                &mut last_seq,
                &mut wal_records,
                &mut truncated_tail,
            )?
        };
        wal.seek(SeekFrom::Start(durable_len as u64))?;

        ipe_obs::counter!("store.recover.records", wal_records);
        if truncated_tail {
            ipe_obs::counter!("store.recover.truncated_tail", 1);
        }

        let migrated = wal_v1 || snapshot_v1;
        let recovery = Recovery {
            schemas: live.values().cloned().collect(),
            last_seq,
            max_id,
            wal_records,
            truncated_tail,
            from_snapshot,
            migrated,
        };
        let mut store = Store {
            dir: config.dir.clone(),
            wal,
            fsync: config.fsync,
            snapshot_every: config.snapshot_every,
            appends_since_snapshot: 0,
            last_fsync: Instant::now(),
            dirty: false,
            last_seq,
            max_id,
            compacted_through,
            live,
        };
        if migrated {
            store.migrate_to_v2()?;
        }
        Ok((store, recovery))
    }

    /// Replays the WAL suffix in `bytes` on top of the snapshot state,
    /// truncating a torn tail in place. Returns the durable length.
    /// Both magics share the byte length, so the scan offset is the same
    /// for v1 and v2 files; `scan_frame` decodes records of either
    /// format (v1 ops land in the `default` tenant).
    #[allow(clippy::too_many_arguments)]
    fn scan_wal(
        bytes: &[u8],
        wal: &mut File,
        live: &mut BTreeMap<(String, String), SchemaRecord>,
        max_id: &mut u64,
        last_seq: &mut u64,
        wal_records: &mut u64,
        truncated_tail: &mut bool,
    ) -> Result<usize, StoreError> {
        let mut at = WAL_MAGIC.len();
        loop {
            match scan_frame(bytes, at) {
                FrameOutcome::End => break,
                FrameOutcome::Torn => {
                    *truncated_tail = true;
                    break;
                }
                FrameOutcome::Record(record, next) => {
                    // Compaction writes the snapshot before truncating
                    // the WAL; a crash in between leaves already-
                    // snapshotted records at the head. Skip them.
                    if record.seq > *last_seq {
                        if record.seq != *last_seq + 1 {
                            // A gap means lost acknowledged writes —
                            // loud, not silent.
                            return Err(StoreError::Corrupt(
                                "WAL sequence gap: acknowledged records are missing",
                            ));
                        }
                        apply(live, max_id, &record.op);
                        *last_seq = record.seq;
                        *wal_records += 1;
                    }
                    at = next;
                }
            }
        }
        if *truncated_tail {
            wal.set_len(at as u64)?;
            wal.sync_data()?;
        }
        Ok(at)
    }

    /// Rewrites a v1 data dir in format v2: the recovered state lands in
    /// a v2 snapshot first (atomic), then the WAL is reset to an empty
    /// v2-magic log. A crash between the two steps is safe — the v2
    /// snapshot already covers every v1 record, so the stale v1 WAL is
    /// skipped (and the migration re-run) on the next open. After this
    /// returns, no file in the dir parses under a pre-tenant build:
    /// downgrading fails the magic checks loudly instead of silently
    /// truncating tenant-tagged records.
    fn migrate_to_v2(&mut self) -> Result<(), StoreError> {
        let snap = Snapshot {
            last_seq: self.last_seq,
            max_id: self.max_id,
            schemas: self.live.values().cloned().collect(),
        };
        snap.write_to(&self.dir.join(SNAPSHOT_FILE))?;
        self.wal.set_len(0)?;
        self.wal.seek(SeekFrom::Start(0))?;
        self.wal.write_all(WAL_MAGIC)?;
        self.wal.sync_data()?;
        self.compacted_through = self.last_seq;
        self.appends_since_snapshot = 0;
        self.dirty = false;
        ipe_obs::counter!("store.migrate.v1_to_v2", 1);
        Ok(())
    }

    /// Appends a schema put (register or hot-swap) for `tenant`. Durable
    /// per the fsync policy once this returns.
    pub fn append_put(
        &mut self,
        tenant: &str,
        name: &str,
        id: u64,
        generation: u64,
        schema_json: &str,
    ) -> Result<Appended, StoreError> {
        self.append(WalOp::Put {
            tenant: tenant.to_owned(),
            name: name.to_owned(),
            id,
            generation,
            schema_json: schema_json.to_owned(),
        })
    }

    /// Appends a schema delete for `tenant`.
    pub fn append_delete(&mut self, tenant: &str, name: &str) -> Result<Appended, StoreError> {
        self.append(WalOp::Delete {
            tenant: tenant.to_owned(),
            name: name.to_owned(),
        })
    }

    fn append(&mut self, op: WalOp) -> Result<Appended, StoreError> {
        let record = WalRecord {
            seq: self.last_seq + 1,
            op,
        };
        self.append_record(&record)
    }

    /// Appends a record replicated from a leader. The record keeps the
    /// leader's seq, so leader and follower WALs stay position-identical;
    /// a gap means the stream skipped acknowledged records and is refused.
    pub fn apply_remote(&mut self, record: &WalRecord) -> Result<Appended, StoreError> {
        if record.seq != self.last_seq + 1 {
            return Err(StoreError::Corrupt(
                "replication sequence gap: record does not extend the local WAL",
            ));
        }
        self.append_record(record)
    }

    fn append_record(&mut self, record: &WalRecord) -> Result<Appended, StoreError> {
        let _t = ipe_obs::timer!("store.append");
        let frame = record.encode_frame();
        self.wal.write_all(&frame)?;
        self.dirty = true;
        ipe_obs::counter!("store.wal.appends", 1);
        ipe_obs::counter!("store.wal.bytes", frame.len() as u64);
        match self.fsync {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::Interval(every) => {
                if self.last_fsync.elapsed() >= every {
                    self.sync()?;
                }
            }
            FsyncPolicy::Never => {}
        }
        apply(&mut self.live, &mut self.max_id, &record.op);
        self.last_seq = record.seq;
        self.appends_since_snapshot += 1;
        let mut snapshotted = false;
        if self.snapshot_every > 0 && self.appends_since_snapshot >= self.snapshot_every {
            self.snapshot_now()?;
            snapshotted = true;
        }
        Ok(Appended {
            seq: self.last_seq,
            snapshotted,
        })
    }

    /// Flushes buffered WAL bytes to stable storage (no-op when clean).
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if self.dirty {
            self.wal.sync_data()?;
            self.dirty = false;
            self.last_fsync = Instant::now();
            ipe_obs::counter!("store.wal.fsyncs", 1);
        }
        Ok(())
    }

    /// Writes a compacted snapshot of the live state and truncates the
    /// WAL back to its header. The snapshot lands atomically *before* the
    /// WAL shrinks, so a crash at any point between the two preserves
    /// every record (recovery skips the already-snapshotted head).
    pub fn snapshot_now(&mut self) -> Result<(), StoreError> {
        self.sync()?;
        let snap = Snapshot {
            last_seq: self.last_seq,
            max_id: self.max_id,
            schemas: self.live.values().cloned().collect(),
        };
        snap.write_to(&self.dir.join(SNAPSHOT_FILE))?;
        self.wal.set_len(WAL_MAGIC.len() as u64)?;
        self.wal.seek(SeekFrom::Start(WAL_MAGIC.len() as u64))?;
        self.wal.sync_data()?;
        self.appends_since_snapshot = 0;
        self.compacted_through = self.last_seq;
        Ok(())
    }

    /// Highest seq covered by the on-disk snapshot. Records at or below it
    /// cannot be served from the WAL file; a replication resume point behind
    /// this horizon needs a full snapshot transfer instead.
    pub fn compacted_through(&self) -> u64 {
        self.compacted_through
    }

    /// The current full state as a snapshot value (for replication transfer;
    /// nothing is written to disk).
    pub fn export_snapshot(&self) -> Snapshot {
        Snapshot {
            last_seq: self.last_seq,
            max_id: self.max_id,
            schemas: self.live.values().cloned().collect(),
        }
    }

    /// Reads every WAL record with `seq > from_seq` from the on-disk log.
    /// Callers must first check `from_seq >= compacted_through()`; below the
    /// horizon the log no longer holds the records (this method would
    /// silently return only the surviving suffix). Records left at the WAL
    /// head by a crashed compaction are filtered by the same seq predicate.
    pub fn wal_records_after(&self, from_seq: u64) -> Result<Vec<WalRecord>, StoreError> {
        let mut bytes = Vec::new();
        File::open(self.dir.join(WAL_FILE))?.read_to_end(&mut bytes)?;
        if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
            return Err(StoreError::Corrupt("bad WAL magic"));
        }
        let mut records = Vec::new();
        let mut at = WAL_MAGIC.len();
        loop {
            match scan_frame(&bytes, at) {
                FrameOutcome::End | FrameOutcome::Torn => break,
                FrameOutcome::Record(record, next) => {
                    if record.seq > from_seq {
                        records.push(record);
                    }
                    at = next;
                }
            }
        }
        Ok(records)
    }

    /// Replaces the entire local state with a leader snapshot: the snapshot
    /// lands on disk atomically, the WAL truncates to its header, and the
    /// in-memory mirror, seq, and compaction horizon all jump to the
    /// snapshot's. `max_id` only ever grows (ids this replica has already
    /// seen must never be reissued, even if the leader's snapshot predates
    /// them).
    pub fn install_remote_snapshot(&mut self, snap: &Snapshot) -> Result<(), StoreError> {
        let max_id = self.max_id.max(snap.max_id);
        let on_disk = Snapshot {
            last_seq: snap.last_seq,
            max_id,
            schemas: snap.schemas.clone(),
        };
        on_disk.write_to(&self.dir.join(SNAPSHOT_FILE))?;
        self.wal.set_len(WAL_MAGIC.len() as u64)?;
        self.wal.seek(SeekFrom::Start(WAL_MAGIC.len() as u64))?;
        self.wal.sync_data()?;
        self.live = snap
            .schemas
            .iter()
            .map(|s| ((s.tenant.clone(), s.name.clone()), s.clone()))
            .collect();
        self.last_seq = snap.last_seq;
        self.max_id = max_id;
        self.compacted_through = snap.last_seq;
        self.appends_since_snapshot = 0;
        self.dirty = false;
        Ok(())
    }

    /// Sequence number of the last appended (or recovered) record.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Highest registry id the store has ever seen.
    pub fn max_id(&self) -> u64 {
        self.max_id
    }

    /// Number of live schemas.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the warmup journal inside this store's directory.
    pub fn warmup_path(&self) -> PathBuf {
        self.dir.join(WARMUP_FILE)
    }
}

/// Applies one op to the live-state mirror.
fn apply(live: &mut BTreeMap<(String, String), SchemaRecord>, max_id: &mut u64, op: &WalOp) {
    match op {
        WalOp::Put {
            tenant,
            name,
            id,
            generation,
            schema_json,
        } => {
            *max_id = (*max_id).max(*id);
            live.insert(
                (tenant.clone(), name.clone()),
                SchemaRecord {
                    tenant: tenant.clone(),
                    name: name.clone(),
                    id: *id,
                    generation: *generation,
                    schema_json: schema_json.clone(),
                },
            );
        }
        WalOp::Delete { tenant, name } => {
            live.remove(&(tenant.clone(), name.clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::DEFAULT_TENANT;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ipe-store-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn cfg(dir: &Path, snapshot_every: u64) -> StoreConfig {
        StoreConfig {
            dir: dir.to_path_buf(),
            fsync: FsyncPolicy::Never,
            snapshot_every,
        }
    }

    #[test]
    fn fresh_directory_recovers_empty() {
        let dir = tmp_dir("fresh");
        let (store, rec) = Store::open(&cfg(&dir, 0)).unwrap();
        assert_eq!(rec.last_seq, 0);
        assert!(rec.schemas.is_empty());
        assert!(!rec.truncated_tail);
        assert!(!rec.from_snapshot);
        assert_eq!(store.live_count(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn puts_and_deletes_replay_across_reopen() {
        // With `snapshot_every` 4 the delete of the highest id is the
        // append that takes the snapshot, so `max_id` must survive it.
        for snapshot_every in [0, 4] {
            let dir = tmp_dir("replay");
            {
                let (mut store, _) = Store::open(&cfg(&dir, snapshot_every)).unwrap();
                store
                    .append_put(DEFAULT_TENANT, "a", 1, 1, "{\"a\":1}")
                    .unwrap();
                store
                    .append_put(DEFAULT_TENANT, "b", 2, 1, "{\"b\":1}")
                    .unwrap();
                store
                    .append_put(DEFAULT_TENANT, "a", 1, 2, "{\"a\":2}")
                    .unwrap();
                let delete = store.append_delete(DEFAULT_TENANT, "b").unwrap();
                assert_eq!(delete.snapshotted, snapshot_every == 4);
                store.sync().unwrap();
            }
            let (store, rec) = Store::open(&cfg(&dir, snapshot_every)).unwrap();
            assert_eq!(rec.from_snapshot, snapshot_every == 4);
            assert_eq!(rec.last_seq, 4);
            assert_eq!(rec.wal_records, if snapshot_every == 4 { 0 } else { 4 });
            assert_eq!(rec.max_id, 2, "deleted ids still count toward max_id");
            assert_eq!(rec.schemas.len(), 1);
            assert_eq!(rec.schemas[0].name, "a");
            assert_eq!(rec.schemas[0].generation, 2);
            assert_eq!(rec.schemas[0].schema_json, "{\"a\":2}");
            assert_eq!(store.last_seq(), 4);
            assert_eq!(store.max_id(), 2, "the reopened store never reissues id 2");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn compaction_snapshots_and_truncates_the_wal() {
        let dir = tmp_dir("compact");
        {
            let (mut store, _) = Store::open(&cfg(&dir, 3)).unwrap();
            let a = store.append_put(DEFAULT_TENANT, "a", 1, 1, "{}").unwrap();
            assert!(!a.snapshotted);
            store.append_put(DEFAULT_TENANT, "b", 2, 1, "{}").unwrap();
            let c = store.append_put(DEFAULT_TENANT, "c", 3, 1, "{}").unwrap();
            assert!(c.snapshotted, "third append crosses snapshot_every=3");
        }
        let wal_len = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        assert_eq!(wal_len, WAL_MAGIC.len() as u64, "WAL compacted to header");
        let (_, rec) = Store::open(&cfg(&dir, 3)).unwrap();
        assert!(rec.from_snapshot);
        assert_eq!(rec.wal_records, 0, "everything lives in the snapshot");
        assert_eq!(rec.last_seq, 3);
        assert_eq!(rec.schemas.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn records_after_snapshot_replay_on_top() {
        let dir = tmp_dir("suffix");
        {
            let (mut store, _) = Store::open(&cfg(&dir, 2)).unwrap();
            store.append_put(DEFAULT_TENANT, "a", 1, 1, "{}").unwrap();
            store.append_put(DEFAULT_TENANT, "b", 2, 1, "{}").unwrap(); // snapshots here
            store.append_put(DEFAULT_TENANT, "a", 1, 2, "{}").unwrap(); // WAL suffix
        }
        let (_, rec) = Store::open(&cfg(&dir, 2)).unwrap();
        assert!(rec.from_snapshot);
        assert_eq!(rec.wal_records, 1);
        assert_eq!(rec.last_seq, 3);
        let a = rec.schemas.iter().find(|s| s.name == "a").unwrap();
        assert_eq!(a.generation, 2);

        // Tear the suffix record: recovery keeps the snapshot's state.
        let path = dir.join(WAL_FILE);
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let (store, rec) = Store::open(&cfg(&dir, 2)).unwrap();
        assert!(rec.from_snapshot && rec.truncated_tail);
        assert_eq!(rec.last_seq, 2);
        let a = rec.schemas.iter().find(|s| s.name == "a").unwrap();
        assert_eq!(a.generation, 1);
        assert_eq!(store.max_id(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_wal_head_after_crashed_compaction_is_skipped() {
        let dir = tmp_dir("stale-head");
        // Simulate "snapshot written, WAL truncation lost": write records,
        // snapshot manually, then reopen with the full WAL still there.
        let (mut store, _) = Store::open(&cfg(&dir, 0)).unwrap();
        store.append_put(DEFAULT_TENANT, "a", 1, 1, "{}").unwrap();
        store.append_put(DEFAULT_TENANT, "b", 2, 1, "{}").unwrap();
        store.sync().unwrap();
        let snap = Snapshot {
            last_seq: 2,
            max_id: 2,
            schemas: vec![
                SchemaRecord {
                    tenant: DEFAULT_TENANT.to_owned(),
                    name: "a".to_owned(),
                    id: 1,
                    generation: 1,
                    schema_json: "{}".to_owned(),
                },
                SchemaRecord {
                    tenant: DEFAULT_TENANT.to_owned(),
                    name: "b".to_owned(),
                    id: 2,
                    generation: 1,
                    schema_json: "{}".to_owned(),
                },
            ],
        };
        snap.write_to(&dir.join(SNAPSHOT_FILE)).unwrap();
        drop(store);
        let (_, rec) = Store::open(&cfg(&dir, 0)).unwrap();
        assert_eq!(rec.wal_records, 0, "WAL head predates the snapshot");
        assert_eq!(rec.last_seq, 2);
        assert_eq!(rec.schemas.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_magic_resets_the_file() {
        let dir = tmp_dir("torn-magic");
        std::fs::write(dir.join(WAL_FILE), b"IPE").unwrap();
        let (_, rec) = Store::open(&cfg(&dir, 0)).unwrap();
        assert!(rec.truncated_tail);
        assert_eq!(rec.last_seq, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_file_is_a_hard_error() {
        let dir = tmp_dir("foreign");
        std::fs::write(dir.join(WAL_FILE), b"definitely not a WAL").unwrap();
        assert!(matches!(
            Store::open(&cfg(&dir, 0)),
            Err(StoreError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appends_resume_after_torn_tail_truncation() {
        let dir = tmp_dir("resume");
        {
            let (mut store, _) = Store::open(&cfg(&dir, 0)).unwrap();
            store.append_put(DEFAULT_TENANT, "a", 1, 1, "{}").unwrap();
            store.append_put(DEFAULT_TENANT, "b", 2, 1, "{}").unwrap();
            store.sync().unwrap();
        }
        // Tear the last record's final byte off.
        let path = dir.join(WAL_FILE);
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 1)
            .unwrap();
        {
            let (mut store, rec) = Store::open(&cfg(&dir, 0)).unwrap();
            assert!(rec.truncated_tail);
            assert_eq!(rec.last_seq, 1, "only `a` survived");
            // The next append must take seq 2 and parse cleanly later.
            store.append_put(DEFAULT_TENANT, "c", 2, 1, "{}").unwrap();
            store.sync().unwrap();
        }
        let (_, rec) = Store::open(&cfg(&dir, 0)).unwrap();
        assert!(!rec.truncated_tail);
        assert_eq!(rec.last_seq, 2);
        let names: Vec<&str> = rec.schemas.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["a", "c"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::parse("never").unwrap(), FsyncPolicy::Never);
        assert_eq!(
            FsyncPolicy::parse("interval").unwrap(),
            FsyncPolicy::Interval(Duration::from_millis(100))
        );
        assert_eq!(
            FsyncPolicy::parse("interval:250").unwrap(),
            FsyncPolicy::Interval(Duration::from_millis(250))
        );
        assert!(FsyncPolicy::parse("sometimes").is_err());
        assert!(FsyncPolicy::parse("interval:x").is_err());
    }
}
