//! Shared-state primitives of the service: per-server counters that
//! serialize as their value, and poison-recovering lock helpers.
//!
//! Lock poisoning is recovered, never propagated: every lock in this
//! crate guards append-ordered, idempotent, or advisory state (the WAL
//! store serializes appends, registries swap whole `Arc` entries, cache
//! shards and the warmup tracker hold advisory data), so a panic inside a
//! critical section cannot leave a torn logical update behind. Before
//! these helpers existed, one panicking worker poisoned the store mutex
//! and every later durable request died on `.expect("store poisoned")`.

use serde::{Serialize, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// One per-server count, shared across threads. It serializes as its
/// current value, so a struct of counters is its own `/metrics` view.
/// Every access is `SeqCst`, at least as strong as any ordering these
/// counts used before (the connection and stream gauges need it; on
/// x86-64 a `SeqCst` increment is the same locked instruction as a
/// relaxed one).
#[derive(Debug, Default)]
pub(crate) struct Counter(AtomicU64);

impl Counter {
    /// The current value.
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }

    /// Adds one.
    pub(crate) fn incr(&self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }

    /// Subtracts one (gauges: live connections, replication streams).
    pub(crate) fn decr(&self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Serialize for Counter {
    fn to_value(&self) -> Value {
        Value::U64(self.get())
    }
}

/// Takes the guard out of a poisoned lock result, counting the recovery
/// in `service.lock.poison_recovered` and naming the guarded type on
/// stderr.
#[cold]
pub(crate) fn recovered<G>(poisoned: PoisonError<G>) -> G {
    ipe_obs::counter!("service.lock.poison_recovered", 1);
    eprintln!(
        "ipe-service: recovered a poisoned lock guarding {}",
        std::any::type_name::<G>()
    );
    poisoned.into_inner()
}

/// Locks `mutex`, recovering from poisoning.
pub(crate) fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(recovered)
}

/// Read-locks `lock`, recovering from poisoning.
pub(crate) fn read_recover<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(recovered)
}

/// Write-locks `lock`, recovering from poisoning.
pub(crate) fn write_recover<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(recovered)
}
