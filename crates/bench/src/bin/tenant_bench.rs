//! Multi-tenant isolation benchmark: measure a quiet tenant's warm
//! completion p50 solo, then again while a noisy tenant is pinned at its
//! admission quota (collecting 429s the whole time), and write
//! `BENCH_tenant.json`. Gates: the noisy tenant must actually be
//! throttled, the quiet tenant must see zero 429s, and (when the host has
//! at least 2 CPUs) the quiet tenant's contended warm p50 must be within
//! 2x of its solo run.
//!
//! ```text
//! tenant_bench [--requests N]
//! ```

use ipe_bench::write_run_report_with_stats;
use ipe_schema::fixtures;
use ipe_service::{Client, Server, ServiceConfig};
use serde::Value;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    requests: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { requests: 600 };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--requests" => {
                args.requests = it
                    .next()
                    .ok_or("--requests needs a value")?
                    .parse()
                    .map_err(|_| "--requests must be a number")?
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.requests == 0 {
        return Err("--requests must be >= 1".to_owned());
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
    match bench(args.requests) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn start_server() -> Result<Server, String> {
    Server::start(ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        reactors: 2,
        queue_depth: 128,
        request_timeout: Duration::from_secs(10),
        ..Default::default()
    })
    .map_err(|e| format!("cannot start server: {e}"))
}

fn json_u64(v: &Value, key: &str) -> Result<u64, String> {
    match v.get(key) {
        Some(Value::U64(u)) => Ok(*u),
        Some(Value::I64(i)) if *i >= 0 => Ok(*i as u64),
        other => Err(format!("bad `{key}` in response: {other:?}")),
    }
}

fn json_bool(v: &Value, key: &str) -> Result<bool, String> {
    match v.get(key) {
        Some(Value::Bool(b)) => Ok(*b),
        other => Err(format!("bad `{key}` in response: {other:?}")),
    }
}

fn put(client: &mut Client, path: &str, body: &str, want: u16) -> Result<String, String> {
    let (status, resp) = client
        .request("PUT", path, body)
        .map_err(|e| e.to_string())?;
    if status != want {
        return Err(format!("PUT {path}: expected {want}, got {status}: {resp}"));
    }
    Ok(resp)
}

const COMPLETE_BODY: &str = "{\"schema\":\"bench\",\"query\":\"ta~name\"}";

/// Runs `n` warm completions for `tenant` on one pooled connection,
/// returning the sorted per-request latencies and the non-200 count.
fn drive_quiet(addr: &str, tenant: &str, n: usize) -> Result<(Vec<Duration>, u64), String> {
    let path = format!("/v1/t/{tenant}/complete");
    let mut client = Client::new(addr.to_owned());
    let mut lat = Vec::with_capacity(n);
    let mut errors = 0u64;
    for _ in 0..n {
        let started = Instant::now();
        let (status, _) = client
            .request("POST", &path, COMPLETE_BODY)
            .map_err(|e| e.to_string())?;
        lat.push(started.elapsed());
        if status != 200 {
            errors += 1;
        }
    }
    lat.sort();
    Ok((lat, errors))
}

fn p50(sorted: &[Duration]) -> Duration {
    sorted[sorted.len() / 2]
}

fn bench(requests: usize) -> Result<(), String> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let server = start_server()?;
    let addr = server.addr().to_string();
    let mut c = Client::new(addr.clone());

    // Quiet gets default (unlimited) quotas; noisy is pinned at 200
    // admitted requests/second.
    put(&mut c, "/v1/tenants/quiet", "{}", 201)?;
    put(
        &mut c,
        "/v1/tenants/noisy",
        "{\"rate_per_sec\": 200.0, \"burst\": 20, \"max_concurrent\": 2}",
        201,
    )?;
    let uni = fixtures::university().to_json();
    put(&mut c, "/v1/t/quiet/schemas/bench", &uni, 200)?;
    put(&mut c, "/v1/t/noisy/schemas/bench", &uni, 200)?;

    // Warm both partitions, then measure the quiet tenant alone.
    drive_quiet(&addr, "quiet", 8)?;
    drive_quiet(&addr, "noisy", 8)?;
    let (solo, solo_errors) = drive_quiet(&addr, "quiet", requests)?;
    if solo_errors > 0 {
        return Err(format!("quiet tenant saw {solo_errors} solo errors"));
    }
    let solo_p50 = p50(&solo);

    // Contended run: two noisy client threads hammer their own tenant
    // for the whole window. They back off 1ms per attempt, so they stay
    // an order of magnitude over their quota (mostly collecting 429s)
    // without turning the benchmark into a CPU-saturation test.
    let stop = Arc::new(AtomicBool::new(false));
    let noisy_ok = Arc::new(AtomicU64::new(0));
    let noisy_throttled = Arc::new(AtomicU64::new(0));
    let mut noisy_threads = Vec::new();
    for _ in 0..2 {
        let addr = addr.clone();
        let stop = Arc::clone(&stop);
        let ok = Arc::clone(&noisy_ok);
        let throttled = Arc::clone(&noisy_throttled);
        noisy_threads.push(std::thread::spawn(move || -> Result<(), String> {
            let mut client = Client::new(addr);
            while !stop.load(Ordering::Relaxed) {
                let (status, body) = client
                    .request("POST", "/v1/t/noisy/complete", COMPLETE_BODY)
                    .map_err(|e| e.to_string())?;
                match status {
                    200 => ok.fetch_add(1, Ordering::Relaxed),
                    429 => {
                        // Pin the envelope while we are here: every 429
                        // must carry the machine-readable retry hint.
                        let v = serde_json::parse_value_text(&body).map_err(|e| e.to_string())?;
                        if !json_bool(&v, "retryable")? || json_u64(&v, "retry_after_ms")? == 0 {
                            return Err(format!("bad throttle envelope: {body}"));
                        }
                        throttled.fetch_add(1, Ordering::Relaxed)
                    }
                    other => return Err(format!("noisy complete: status {other}: {body}")),
                };
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(())
        }));
    }
    // Let the noisy tenant drain its burst allowance before measuring.
    std::thread::sleep(Duration::from_millis(200));
    let (contended, quiet_throttled) = drive_quiet(&addr, "quiet", requests)?;
    stop.store(true, Ordering::Relaxed);
    for t in noisy_threads {
        t.join().map_err(|_| "noisy thread panicked")??;
    }
    let contended_p50 = p50(&contended);
    let noisy_ok = noisy_ok.load(Ordering::Relaxed);
    let noisy_throttled = noisy_throttled.load(Ordering::Relaxed);
    let ratio = contended_p50.as_secs_f64() / solo_p50.as_secs_f64().max(1e-9);

    println!("tenant isolation ({requests} requests/tenant, {cpus} CPU(s)):");
    println!(
        "  quiet solo      p50: {:>8.1}us",
        solo_p50.as_secs_f64() * 1e6
    );
    println!(
        "  quiet contended p50: {:>8.1}us ({ratio:.2}x solo, {quiet_throttled} throttled)",
        contended_p50.as_secs_f64() * 1e6
    );
    println!("  noisy: {noisy_ok} admitted, {noisy_throttled} throttled (pinned at quota)");

    if noisy_throttled == 0 {
        return Err("noisy tenant was never throttled; quota not enforced".to_owned());
    }
    if quiet_throttled > 0 {
        return Err(format!(
            "quiet tenant absorbed {quiet_throttled} of the noisy tenant's throttling"
        ));
    }
    // On a single core the noisy clients time-share the quiet tenant's
    // CPU, so the latency ratio stops measuring isolation.
    let sweep_mode = if cpus >= 2 {
        if ratio > 2.0 {
            return Err(format!(
                "quiet tenant's contended p50 is {ratio:.2}x its solo run (floor: 2.0x)"
            ));
        }
        "parallel"
    } else {
        "cpu-constrained"
    };

    server.shutdown();
    let requests_str = requests.to_string();
    let cpus_str = cpus.to_string();
    write_run_report_with_stats(
        "tenant",
        &[
            ("requests", requests_str.as_str()),
            ("cpus", cpus_str.as_str()),
            ("sweep_mode", sweep_mode),
            ("isolation_ceiling", "2.0"),
        ],
        &[
            ("quiet_solo_p50_us", solo_p50.as_micros() as u64),
            ("quiet_contended_p50_us", contended_p50.as_micros() as u64),
            ("isolation_ratio_milli", (ratio * 1000.0) as u64),
            ("quiet_throttled", quiet_throttled),
            ("noisy_admitted", noisy_ok),
            ("noisy_throttled", noisy_throttled),
        ],
    );
    Ok(())
}
