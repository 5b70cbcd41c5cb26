//! Benchmark for the `ipe-store` durability layer: measure WAL append
//! throughput under each fsync policy (`always`, `interval:100`,
//! `never`) and recovery time as a function of WAL length, and write
//! `BENCH_store.json`.
//!
//! ```text
//! store_bench [--appends N]
//! ```

use ipe_bench::write_run_report_with_stats;
use ipe_schema::fixtures;
use ipe_store::{FsyncPolicy, Store, StoreConfig, DEFAULT_TENANT};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

struct Args {
    appends: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { appends: 4000 };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--appends" => {
                args.appends = it
                    .next()
                    .ok_or("--appends needs a value")?
                    .parse()
                    .map_err(|_| "--appends must be a number")?
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.appends == 0 {
        return Err("--appends must be >= 1".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match bench(args.appends) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "ipe-store-bench-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Appends `n` PUT records (round-robin over 64 names, so the log mixes
/// fresh registrations with hot-swaps) and returns the elapsed wall
/// clock including the final flush.
fn append_run(store: &mut Store, n: usize, payload: &str) -> Result<Duration, String> {
    let started = Instant::now();
    for i in 0..n {
        let name = format!("s{}", i % 64);
        store
            .append_put(
                DEFAULT_TENANT,
                &name,
                (i % 64) as u64 + 1,
                (i / 64) as u64 + 1,
                payload,
            )
            .map_err(|e| e.to_string())?;
    }
    store.sync().map_err(|e| e.to_string())?;
    Ok(started.elapsed())
}

fn bench(appends: usize) -> Result<(), String> {
    let payload = fixtures::university().to_json();
    let mut stats: Vec<(String, u64)> = Vec::new();

    // Append throughput per fsync policy. `always` pays one fsync per
    // record, so it runs a slice of the workload; the derived
    // records-per-second figures stay comparable.
    let policies = [
        ("always", FsyncPolicy::Always, (appends / 10).max(50)),
        (
            "interval_100ms",
            FsyncPolicy::Interval(Duration::from_millis(100)),
            appends,
        ),
        ("never", FsyncPolicy::Never, appends),
    ];
    println!("append throughput ({} B payload):", payload.len());
    for (label, fsync, n) in policies {
        let dir = tmp_dir(label);
        let (mut store, _) = Store::open(&StoreConfig {
            dir: dir.clone(),
            fsync,
            snapshot_every: 0,
        })
        .map_err(|e| e.to_string())?;
        let elapsed = append_run(&mut store, n, &payload)?;
        drop(store);
        let per_sec = (n as f64 / elapsed.as_secs_f64()) as u64;
        println!(
            "  fsync={label:<14} {n:>6} appends in {:>8.1}ms  {per_sec:>9} rec/s",
            elapsed.as_secs_f64() * 1e3
        );
        stats.push((format!("append_per_sec_{label}"), per_sec));
        stats.push((format!("append_count_{label}"), n as u64));
        std::fs::remove_dir_all(&dir).ok();
    }

    // Recovery time vs WAL length (no snapshot: the whole log replays).
    println!("recovery time vs WAL length:");
    for n in [appends / 8, appends / 2, appends * 2] {
        let n = n.max(16);
        let dir = tmp_dir("recover");
        let config = StoreConfig {
            dir: dir.clone(),
            fsync: FsyncPolicy::Never,
            snapshot_every: 0,
        };
        let (mut store, _) = Store::open(&config).map_err(|e| e.to_string())?;
        append_run(&mut store, n, &payload)?;
        drop(store);
        let started = Instant::now();
        let (store, recovery) = Store::open(&config).map_err(|e| e.to_string())?;
        let elapsed = started.elapsed();
        if recovery.wal_records != n as u64 {
            return Err(format!(
                "recovery replayed {} of {n} records",
                recovery.wal_records
            ));
        }
        println!(
            "  {n:>6} records replayed in {:>8.1}ms ({} live schemas)",
            elapsed.as_secs_f64() * 1e3,
            store.live_count()
        );
        stats.push((format!("recover_us_wal_{n}"), elapsed.as_micros() as u64));
        drop(store);

        // The same state recovered through a snapshot instead of replay.
        let (mut store, _) = Store::open(&config).map_err(|e| e.to_string())?;
        store.snapshot_now().map_err(|e| e.to_string())?;
        drop(store);
        let started = Instant::now();
        let (_, recovery) = Store::open(&config).map_err(|e| e.to_string())?;
        let elapsed = started.elapsed();
        if !recovery.from_snapshot || recovery.wal_records != 0 {
            return Err("post-compaction recovery should come from the snapshot".to_owned());
        }
        println!(
            "  {n:>6} records via snapshot in {:>8.1}ms",
            elapsed.as_secs_f64() * 1e3
        );
        stats.push((
            format!("recover_us_snapshot_{n}"),
            elapsed.as_micros() as u64,
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    let appends_str = appends.to_string();
    let payload_str = payload.len().to_string();
    let stat_refs: Vec<(&str, u64)> = stats.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    write_run_report_with_stats(
        "store",
        &[
            ("appends", appends_str.as_str()),
            ("payload_bytes", payload_str.as_str()),
        ],
        &stat_refs,
    );
    Ok(())
}
