//! Global counters and histogram timers.
//!
//! Every [`counter!`]/[`timer!`] call site owns one `static` metric that
//! registers itself in a global registry on first use. Recording is one
//! relaxed atomic RMW; the registry mutex is touched only on the first
//! event of each call site and when snapshotting.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
#[cfg(not(feature = "obs-off"))]
use std::time::Instant;

/// Metrics registered process-wide, in registration order.
static COUNTERS: Mutex<Vec<&'static Counter>> = Mutex::new(Vec::new());
static TIMERS: Mutex<Vec<&'static Timer>> = Mutex::new(Vec::new());

/// A named monotone counter. Create via [`counter!`](crate::counter);
/// the macro owns the per-call-site `static`.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    // Only touched by `add`/`register`, which obs-off compiles to no-ops.
    #[cfg_attr(feature = "obs-off", allow(dead_code))]
    registered: AtomicBool,
}

impl Counter {
    /// A zeroed counter. `const` so it can back a `static`.
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The counter's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n`. Lock-free after the first call.
    #[inline]
    #[cfg(not(feature = "obs-off"))]
    pub fn add(&'static self, n: u64) {
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// No-op in `obs-off` builds.
    #[inline(always)]
    #[cfg(feature = "obs-off")]
    pub fn add(&'static self, _n: u64) {}

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    #[cfg(not(feature = "obs-off"))]
    fn register(&'static self) {
        if !self.registered.swap(true, Ordering::AcqRel) {
            COUNTERS
                .lock()
                .expect("counter registry poisoned")
                .push(self);
        }
    }
}

/// Point-in-time value of one counter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Registry name.
    pub name: &'static str,
    /// Value at snapshot time.
    pub value: u64,
}

/// Snapshot of every registered counter, sorted by name. Distinct call
/// sites using the same name are summed into one entry.
pub fn snapshot_counters() -> Vec<CounterSnapshot> {
    let mut by_name: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    for c in COUNTERS.lock().expect("counter registry poisoned").iter() {
        *by_name.entry(c.name).or_insert(0) += c.get();
    }
    by_name
        .into_iter()
        .map(|(name, value)| CounterSnapshot { name, value })
        .collect()
}

/// Number of log2 duration buckets (covers 1 ns .. ~584 years).
const BUCKETS: usize = 64;

/// A named duration histogram with power-of-two nanosecond buckets.
/// Create via [`timer!`](crate::timer); recording is O(1): two relaxed
/// adds plus one bucket add.
pub struct Timer {
    name: &'static str,
    count: AtomicU64,
    total_ns: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
    #[cfg_attr(feature = "obs-off", allow(dead_code))]
    registered: AtomicBool,
}

impl Timer {
    /// A zeroed timer. `const` so it can back a `static`.
    pub const fn new(name: &'static str) -> Timer {
        Timer {
            name,
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            // `AtomicU64` is not Copy; repeat an inline-const instead.
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            registered: AtomicBool::new(false),
        }
    }

    /// The timer's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records one observation of `ns` nanoseconds.
    #[inline]
    #[cfg(not(feature = "obs-off"))]
    pub fn record_ns(&'static self, ns: u64) {
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        let bucket = (64 - ns.leading_zeros() as usize).saturating_sub(1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// No-op in `obs-off` builds.
    #[inline(always)]
    #[cfg(feature = "obs-off")]
    pub fn record_ns(&'static self, _ns: u64) {}

    /// Starts a guard that records the elapsed time when dropped.
    pub fn start(&'static self) -> TimerGuard {
        TimerGuard::new(self)
    }

    #[cfg(not(feature = "obs-off"))]
    fn register(&'static self) {
        if !self.registered.swap(true, Ordering::AcqRel) {
            TIMERS.lock().expect("timer registry poisoned").push(self);
        }
    }
}

/// Records the time between construction and drop into a [`Timer`].
pub struct TimerGuard {
    #[cfg(not(feature = "obs-off"))]
    timer: &'static Timer,
    #[cfg(not(feature = "obs-off"))]
    start: Instant,
}

impl TimerGuard {
    /// A running guard for `timer`.
    #[inline]
    pub fn new(timer: &'static Timer) -> TimerGuard {
        #[cfg(feature = "obs-off")]
        {
            let _ = timer;
            TimerGuard {}
        }
        #[cfg(not(feature = "obs-off"))]
        TimerGuard {
            timer,
            start: Instant::now(),
        }
    }
}

impl Drop for TimerGuard {
    #[inline]
    fn drop(&mut self) {
        #[cfg(not(feature = "obs-off"))]
        self.timer
            .record_ns(self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }
}

/// Point-in-time state of one timer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimerSnapshot {
    /// Registry name.
    pub name: &'static str,
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations, nanoseconds.
    pub total_ns: u64,
    /// Non-empty histogram buckets as `(log2_floor_ns, count)`.
    pub buckets: Vec<(u8, u64)>,
}

impl TimerSnapshot {
    /// Mean observation in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// Snapshot of every registered timer, sorted by name. Distinct call
/// sites using the same name are merged into one histogram.
pub fn snapshot_timers() -> Vec<TimerSnapshot> {
    let mut by_name: std::collections::BTreeMap<&'static str, (u64, u64, [u64; BUCKETS])> =
        std::collections::BTreeMap::new();
    for t in TIMERS.lock().expect("timer registry poisoned").iter() {
        let entry = by_name.entry(t.name).or_insert((0, 0, [0; BUCKETS]));
        entry.0 += t.count.load(Ordering::Relaxed);
        entry.1 += t.total_ns.load(Ordering::Relaxed);
        for (i, b) in t.buckets.iter().enumerate() {
            entry.2[i] += b.load(Ordering::Relaxed);
        }
    }
    by_name
        .into_iter()
        .map(|(name, (count, total_ns, buckets))| TimerSnapshot {
            name,
            count,
            total_ns,
            buckets: buckets
                .iter()
                .enumerate()
                .filter_map(|(i, &v)| (v > 0).then_some((i as u8, v)))
                .collect(),
        })
        .collect()
}

/// Zeroes every registered metric (the registry itself is kept). Intended
/// for tests and for experiment binaries that emit per-phase reports.
pub fn reset_metrics() {
    for c in COUNTERS.lock().expect("counter registry poisoned").iter() {
        c.value.store(0, Ordering::Relaxed);
    }
    for t in TIMERS.lock().expect("timer registry poisoned").iter() {
        t.count.store(0, Ordering::Relaxed);
        t.total_ns.store(0, Ordering::Relaxed);
        for b in &t.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// Bumps (or returns) the static [`Counter`] for this call site.
///
/// `counter!("name")` evaluates to `&'static Counter`;
/// `counter!("name", n)` adds `n` to it.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __OBS_COUNTER: $crate::Counter = $crate::Counter::new($name);
        &__OBS_COUNTER
    }};
    ($name:expr, $n:expr) => {
        $crate::counter!($name).add($n as u64)
    };
}

/// Starts a scope timer: records into this call site's static [`Timer`]
/// when the returned guard drops.
#[macro_export]
macro_rules! timer {
    ($name:expr) => {{
        static __OBS_TIMER: $crate::Timer = $crate::Timer::new($name);
        $crate::TimerGuard::new(&__OBS_TIMER)
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(feature = "obs-off", ignore = "metrics compiled out")]
    fn counters_accumulate_and_snapshot() {
        crate::counter!("test.metrics.alpha", 2);
        crate::counter!("test.metrics.alpha", 3);
        let snap = snapshot_counters();
        let alpha = snap
            .iter()
            .find(|s| s.name == "test.metrics.alpha")
            .expect("registered");
        assert!(alpha.value >= 5);
        // Sorted by name.
        let names: Vec<&str> = snap.iter().map(|s| s.name).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    #[cfg_attr(feature = "obs-off", ignore = "metrics compiled out")]
    fn counter_macro_single_arg_returns_static() {
        let c = crate::counter!("test.metrics.static");
        c.add(1);
        assert!(c.get() >= 1);
    }

    #[test]
    #[cfg_attr(feature = "obs-off", ignore = "metrics compiled out")]
    fn timers_bucket_correctly() {
        static T: Timer = Timer::new("test.metrics.timer");
        T.record_ns(1); // bucket 0
        T.record_ns(1000); // 2^9..2^10 → bucket 9
        T.record_ns(1000);
        let snap = snapshot_timers();
        let t = snap
            .iter()
            .find(|s| s.name == "test.metrics.timer")
            .expect("registered");
        assert_eq!(t.count, 3);
        assert_eq!(t.total_ns, 2001);
        assert_eq!(t.mean_ns(), 667);
        assert!(t.buckets.contains(&(0, 1)));
        assert!(t.buckets.contains(&(9, 2)));
    }

    #[test]
    #[cfg_attr(feature = "obs-off", ignore = "metrics compiled out")]
    fn timer_guard_records_on_drop() {
        static T: Timer = Timer::new("test.metrics.guard");
        {
            let _g = T.start();
            std::hint::black_box(1 + 1);
        }
        let snap = snapshot_timers();
        let t = snap
            .iter()
            .find(|s| s.name == "test.metrics.guard")
            .unwrap();
        assert!(t.count >= 1);
    }

    #[test]
    #[cfg(feature = "obs-off")]
    fn obs_off_records_nothing() {
        crate::counter!("test.metrics.off", 10);
        let _g = crate::timer!("test.metrics.off.timer");
        drop(_g);
        assert!(snapshot_counters().is_empty());
        assert!(snapshot_timers().is_empty());
    }
}
