//! `ipe-store` — durable persistence for the disambiguation service's
//! schema registry, plus a best-effort cache warmup journal.
//!
//! The service (see `ipe-service`) holds its versioned registry and its
//! completion cache in memory; this crate makes the registry survive
//! restarts and crashes:
//!
//! * a checksummed append-only **write-ahead log** of registry mutations
//!   ([`wal`]): length-prefixed frames, CRC32 per record, monotonic
//!   sequence numbers;
//! * periodic compacted **snapshots** ([`snapshot`]): the full live state
//!   written via temp file + fsync + atomic rename;
//! * **recovery** ([`Store::open`]): replay snapshot-then-WAL-suffix,
//!   truncate a torn tail at the first bad checksum, and report exactly
//!   what was recovered (a [`Recovery`]) so callers can restore registry
//!   ids and generations monotonically — cache keys minted before a crash
//!   can never alias entries minted after it;
//! * a **warmup journal** ([`warmup`]): the top-K hot normalized cache
//!   keys, sampled best-effort, replayed against the engine on startup to
//!   pre-warm the completion cache.
//!
//! Everything is `std`-only and instrumented through `ipe-obs`
//! (`store.wal.*`, `store.recover.*`, `store.snapshot.*`, and the
//! `store.append` timer), all of which compile to no-ops under the
//! workspace `obs-off` feature. See DESIGN.md §11 for the file formats
//! and the recovery invariants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod snapshot;
pub mod store;
pub mod wal;
pub mod warmup;

pub use crc::crc32;
pub use snapshot::{SchemaRecord, Snapshot};
pub use store::{
    Appended, FsyncPolicy, Recovery, Store, StoreConfig, SNAPSHOT_FILE, WAL_FILE, WARMUP_FILE,
};
pub use wal::{WalOp, WalRecord, DEFAULT_TENANT};
pub use warmup::{read_warmup, write_warmup, WarmupEntry};

use std::fmt;
use std::path::Path;

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem error.
    Io(std::io::Error),
    /// On-disk bytes violate the format in a way that is *not* a torn
    /// tail (bad magic, snapshot checksum mismatch, sequence gap).
    /// Recovery refuses to guess: a partially-recovered registry must be
    /// detectable, not silent.
    Corrupt(&'static str),
    /// An earlier fsync of the WAL failed, or a failed append could not be
    /// cut back off, so what the log holds on disk is unknown. The store
    /// refuses every append until it is reopened, and recovery then reads
    /// what the disk really holds.
    Poisoned,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "store corruption: {msg}"),
            StoreError::Poisoned => {
                write!(
                    f,
                    "store refuses writes after a failed WAL write or fsync; restart to recover"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt(_) | StoreError::Poisoned => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// Fsyncs a directory so a just-renamed file inside it is durable. A
/// no-op on platforms where directories cannot be opened for sync.
pub(crate) fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        std::fs::File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}
