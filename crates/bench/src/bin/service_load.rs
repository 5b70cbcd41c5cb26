//! Load generator for the `ipe-service` disambiguation server: spawn (or
//! target) a server, upload the CUPID-calibrated schema, replay the
//! `ipe-gen` planted-intent workload from `--concurrency` connections
//! plus a c=64/c=256 high-fan-out sweep, measure cold-vs-warm `ta~name`
//! latency, and write `BENCH_service.json` (throughput, p50/p99 per
//! concurrency, hit rate, cache counters cross-checked against
//! `/metrics`).
//!
//! ```text
//! service_load [--addr HOST:PORT] [--requests N] [--concurrency C]
//!              [--seed N] [--warm-reps N] [--trace-sample N]
//! ```
//!
//! `--trace-sample N` sets the in-process server's head-sampling rate
//! (1-in-N; default 1). The benchmark additionally measures warm-path
//! tracing overhead — off vs. unsampled vs. sampled, each on a fresh
//! server — and fails if unsampled tracing costs more than 2% over the
//! no-tracing baseline.
//!
//! Without `--addr`, an in-process server is started on an ephemeral
//! port and shut down at the end.

use ipe_bench::{experiment_setup, pct, write_run_report_with_stats, DEFAULT_SEED};
use ipe_schema::fixtures;
use ipe_service::{Client, Server, ServiceConfig};
use serde::Value;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    addr: Option<String>,
    requests: usize,
    concurrency: usize,
    seed: u64,
    warm_reps: usize,
    trace_sample: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        requests: 2000,
        concurrency: 4,
        seed: DEFAULT_SEED,
        warm_reps: 200,
        trace_sample: 1,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        let mut grab = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--addr" => args.addr = Some(grab("--addr")?),
            "--requests" => {
                args.requests = grab("--requests")?
                    .parse()
                    .map_err(|_| "--requests must be a number")?
            }
            "--concurrency" => {
                args.concurrency = grab("--concurrency")?
                    .parse()
                    .map_err(|_| "--concurrency must be a number")?
            }
            "--seed" => {
                args.seed = grab("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be a number")?
            }
            "--warm-reps" => {
                args.warm_reps = grab("--warm-reps")?
                    .parse()
                    .map_err(|_| "--warm-reps must be a number")?
            }
            "--trace-sample" => {
                args.trace_sample = grab("--trace-sample")?
                    .parse()
                    .map_err(|_| "--trace-sample must be a number")?
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn get<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    v.get(key)
        .ok_or_else(|| format!("response missing `{key}`"))
}

fn as_u64(v: &Value) -> Result<u64, String> {
    match v {
        Value::I64(i) => Ok(*i as u64),
        Value::U64(u) => Ok(*u),
        other => Err(format!("expected number, got {other:?}")),
    }
}

/// One `POST /v1/complete`, returning (cached, server duration ns).
fn complete(client: &mut Client, schema: &str, query: &str) -> Result<(bool, u64), String> {
    let body = format!("{{\"schema\": \"{schema}\", \"query\": \"{query}\"}}");
    let (status, text) = client
        .request("POST", "/v1/complete", &body)
        .map_err(|e| format!("request failed: {e}"))?;
    if status != 200 {
        return Err(format!("{query}: HTTP {status}: {text}"));
    }
    let v = serde_json::parse_value_text(&text).map_err(|e| format!("bad JSON: {e:?}"))?;
    let cached = matches!(get(&v, "cached")?, Value::Bool(true));
    let duration = as_u64(get(&v, "duration_ns")?)?;
    Ok((cached, duration))
}

/// Cache hit/miss/eviction counts scraped from `GET /metrics`.
fn fetch_cache_counters(client: &mut Client) -> Result<(u64, u64, u64), String> {
    let (status, text) = client
        .request("GET", "/metrics", "")
        .map_err(|e| format!("metrics request failed: {e}"))?;
    if status != 200 {
        return Err(format!("/metrics: HTTP {status}"));
    }
    let v = serde_json::parse_value_text(&text).map_err(|e| format!("bad metrics JSON: {e:?}"))?;
    let cache = get(get(&v, "service")?, "cache")?;
    Ok((
        as_u64(get(cache, "hits")?)?,
        as_u64(get(cache, "misses")?)?,
        as_u64(get(cache, "evictions")?)?,
    ))
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// One concurrent replay of `workload` against the server at `addr`.
struct ReplayStats {
    total: u64,
    wall: std::time::Duration,
    throughput: f64,
    p50_ns: u64,
    p99_ns: u64,
    response_hits: u64,
}

/// Replays `requests` workload queries from `concurrency` keep-alive
/// connections and collects client-side latency stats.
fn replay(
    addr: &str,
    workload: &[ipe_gen::QuerySpec],
    requests: usize,
    concurrency: usize,
) -> Result<ReplayStats, String> {
    let started = Instant::now();
    let per_thread = requests.div_ceil(concurrency.max(1));
    let results: Vec<Result<Vec<(u64, bool)>, String>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..concurrency.max(1) {
            let addr = addr.to_owned();
            handles.push(scope.spawn(move || {
                let mut client = Client::new(addr);
                let mut out = Vec::with_capacity(per_thread);
                for i in 0..per_thread {
                    let q = &workload[(t + i) % workload.len()];
                    let sent = Instant::now();
                    let (cached, _server_ns) = complete(&mut client, "cupid", &q.expr)?;
                    out.push((sent.elapsed().as_nanos() as u64, cached));
                }
                Ok(out)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("replay connection panicked"))
            .collect()
    });
    let wall = started.elapsed();
    let mut latencies = Vec::with_capacity(requests);
    let mut response_hits = 0u64;
    for r in results {
        for (ns, cached) in r? {
            latencies.push(ns);
            response_hits += u64::from(cached);
        }
    }
    let total = latencies.len() as u64;
    latencies.sort_unstable();
    Ok(ReplayStats {
        total,
        wall,
        throughput: total as f64 / wall.as_secs_f64(),
        p50_ns: percentile(&latencies, 0.5),
        p99_ns: percentile(&latencies, 0.99),
        response_hits,
    })
}

/// Warm-path server-side latency under three tracing configurations:
/// tracing off (`trace_sample_n` 0, no sampling tick), unsampled (a
/// sampling tick that declines every request), and sampled 1-in-`sample_n`.
/// Returns `(p50_ns, min_ns)` per mode. Each mode gets its own fresh
/// in-process server; rounds are interleaved across the three so drift
/// hits them equally, and the comparison uses the server-reported
/// `duration_ns` so the socket does not participate.
fn trace_overhead_stage(reps: usize, sample_n: u64) -> Result<[(u64, u64); 3], String> {
    let configs = [0u64, u64::MAX, sample_n.max(1)];
    let mut servers = Vec::new();
    for n in configs {
        let server = Server::start(ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            reactors: 2,
            trace_sample_n: n,
            slow_ms: 0,
            ..Default::default()
        })
        .map_err(|e| format!("cannot start overhead server: {e}"))?;
        server
            .state()
            .registry
            .insert("default", fixtures::university());
        let addr = server.addr().to_string();
        servers.push((server, Client::new(addr)));
    }
    // Prime each cache so every measured repetition is a warm hit.
    for (_, client) in servers.iter_mut() {
        complete(client, "default", "ta~name")?;
    }
    let mut samples: [Vec<u64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    const ROUNDS: usize = 3;
    let per_round = reps.div_ceil(ROUNDS).max(1);
    for _ in 0..ROUNDS {
        for (i, (_, client)) in servers.iter_mut().enumerate() {
            for _ in 0..per_round {
                let (cached, ns) = complete(client, "default", "ta~name")?;
                if !cached {
                    return Err("overhead repetition missed the cache".to_owned());
                }
                samples[i].push(ns);
            }
        }
    }
    for (server, mut client) in servers {
        let _ = client.request("POST", "/v1/shutdown", "");
        server.join();
    }
    let mut out = [(0u64, 0u64); 3];
    for (i, s) in samples.iter_mut().enumerate() {
        s.sort_unstable();
        out[i] = (percentile(s, 0.5), s[0]);
    }
    Ok(out)
}

/// Reads HTTP/1.1 responses off a raw keep-alive socket, one at a time,
/// carrying over-read bytes between calls (responses arrive back-to-back
/// under pipelining).
struct RespReader {
    stream: std::net::TcpStream,
    carry: Vec<u8>,
}

impl RespReader {
    fn next(&mut self) -> Result<(u16, String), String> {
        use std::io::Read;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(head_end) = self.carry.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&self.carry[..head_end]).into_owned();
                let status: u16 = head
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("bad status line: {head}"))?;
                let len: usize = head
                    .lines()
                    .find_map(|l| {
                        let (k, v) = l.split_once(':')?;
                        k.eq_ignore_ascii_case("content-length")
                            .then(|| v.trim().parse().ok())?
                    })
                    .ok_or_else(|| format!("no content-length: {head}"))?;
                let total = head_end + 4 + len;
                if self.carry.len() >= total {
                    let body =
                        String::from_utf8_lossy(&self.carry[head_end + 4..total]).into_owned();
                    self.carry.drain(..total);
                    return Ok((status, body));
                }
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed mid-response".to_owned()),
                Ok(n) => self.carry.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(format!("read failed: {e}")),
            }
        }
    }
}

/// Pipelined replay: each connection keeps `depth` requests in flight,
/// writing a burst and then draining its responses. This measures the
/// front end's sustained throughput rather than the load generator's
/// context-switch budget — a closed-loop thread per connection caps out
/// on scheduler round-trips long before the server does, especially on
/// few-core machines. Latency is per response, measured from its
/// burst's send instant.
fn replay_pipelined(
    addr: &str,
    workload: &[ipe_gen::QuerySpec],
    requests: usize,
    concurrency: usize,
    depth: usize,
) -> Result<ReplayStats, String> {
    let started = Instant::now();
    let per_thread = requests.div_ceil(concurrency.max(1));
    let results: Vec<Result<Vec<(u64, bool)>, String>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..concurrency.max(1) {
            let addr = addr.to_owned();
            handles.push(scope.spawn(move || {
                let stream = std::net::TcpStream::connect(&addr)
                    .map_err(|e| format!("connect failed: {e}"))?;
                stream.set_nodelay(true).ok();
                stream
                    .set_read_timeout(Some(std::time::Duration::from_secs(30)))
                    .ok();
                let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
                let mut reader = RespReader {
                    stream,
                    carry: Vec::new(),
                };
                let mut out = Vec::with_capacity(per_thread);
                let mut issued = 0usize;
                while issued < per_thread {
                    use std::io::Write;
                    let burst_n = depth.min(per_thread - issued);
                    let mut burst = String::new();
                    for i in 0..burst_n {
                        let q = &workload[(t + issued + i) % workload.len()];
                        let body = format!("{{\"schema\": \"cupid\", \"query\": \"{}\"}}", q.expr);
                        burst.push_str(&format!(
                            "POST /v1/complete HTTP/1.1\r\nHost: b\r\nContent-Length: {}\r\n\r\n{}",
                            body.len(),
                            body
                        ));
                    }
                    let sent = Instant::now();
                    writer
                        .write_all(burst.as_bytes())
                        .map_err(|e| format!("write burst: {e}"))?;
                    for _ in 0..burst_n {
                        let (status, body) = reader.next()?;
                        if status != 200 {
                            return Err(format!("pipelined request: HTTP {status}: {body}"));
                        }
                        let cached = body.contains("\"cached\":true");
                        out.push((sent.elapsed().as_nanos() as u64, cached));
                    }
                    issued += burst_n;
                }
                Ok(out)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("pipelined connection panicked"))
            .collect()
    });
    let wall = started.elapsed();
    let mut latencies = Vec::with_capacity(requests);
    let mut response_hits = 0u64;
    for r in results {
        for (ns, cached) in r? {
            latencies.push(ns);
            response_hits += u64::from(cached);
        }
    }
    let total = latencies.len() as u64;
    latencies.sort_unstable();
    Ok(ReplayStats {
        total,
        wall,
        throughput: total as f64 / wall.as_secs_f64(),
        p50_ns: percentile(&latencies, 0.5),
        p99_ns: percentile(&latencies, 0.99),
        response_hits,
    })
}

fn run_bench(client: &mut Client, addr: &str, args: &Args) -> Result<(), String> {
    // 1. The CUPID-calibrated schema and its planted-intent workload.
    let (gen, workload) = experiment_setup(args.seed);
    if workload.is_empty() {
        return Err("workload generation produced no queries".to_owned());
    }
    let (status, body) = client
        .request("PUT", "/v1/schemas/cupid", &gen.schema.to_json())
        .map_err(|e| format!("schema upload failed: {e}"))?;
    if status != 200 {
        return Err(format!("schema upload: HTTP {status}: {body}"));
    }
    eprintln!(
        "uploaded cupid schema ({} classes), replaying {} queries x {} requests from {} connection(s)",
        gen.schema.class_count(),
        workload.len(),
        args.requests,
        args.concurrency
    );

    // 2. Cold-vs-warm on the flagship query (server-side compute time, so
    //    the comparison measures the engine + cache, not the socket).
    let (cached, cold_ns) = complete(client, "default", "ta~name")?;
    if cached {
        return Err("ta~name was already cached; run against a fresh server".to_owned());
    }
    let mut warm: Vec<u64> = Vec::with_capacity(args.warm_reps);
    for _ in 0..args.warm_reps {
        let (cached, ns) = complete(client, "default", "ta~name")?;
        if !cached {
            return Err("warm ta~name repetition missed the cache".to_owned());
        }
        warm.push(ns);
    }
    warm.sort_unstable();
    let warm_p50 = percentile(&warm, 0.5).max(1);
    let speedup = cold_ns as f64 / warm_p50 as f64;

    // 3. Replay the workload concurrently — at the configured base
    //    concurrency, then at c=64 and c=256 to exercise the reactor
    //    front end where a thread-per-connection design saturates.
    let base = replay(addr, &workload, args.requests, args.concurrency)?;
    let total = base.total;
    let (elapsed, p50, p99, throughput, response_hits) = (
        base.wall,
        base.p50_ns,
        base.p99_ns,
        base.throughput,
        base.response_hits,
    );
    let hit_rate = response_hits as f64 / total.max(1) as f64;
    // The high-fan-out rows pipeline requests (depth 32): the reactor
    // front end frames and answers back-to-back requests off one socket,
    // so sustained throughput is no longer bounded by one scheduler
    // round-trip per request.
    const PIPELINE_DEPTH: usize = 32;
    let mut sweep: Vec<(usize, ReplayStats)> = Vec::new();
    for c in [64usize, 256] {
        // Keep per-connection work meaningful at high fan-out.
        let reqs = args.requests.max(c * 64);
        sweep.push((
            c,
            replay_pipelined(addr, &workload, reqs, c, PIPELINE_DEPTH)?,
        ));
    }

    // 4. Cross-check the replay against the server's own counters.
    let (hits, misses, evictions) = fetch_cache_counters(client)?;
    // Every complete request issued in this run: 1 + warm_reps on
    // `ta~name`, plus every workload replay (base + sweep).
    let sweep_total: u64 = sweep.iter().map(|(_, s)| s.total).sum();
    let issued = 1 + args.warm_reps as u64 + total + sweep_total;
    let consistent = hits + misses == issued && hits >= response_hits;
    if !consistent {
        eprintln!(
            "warning: /metrics hit+miss = {} but {issued} requests were issued \
             (shared server? counters are process-global)",
            hits + misses
        );
    }

    println!(
        "requests:        {total} over {} connection(s)",
        args.concurrency
    );
    println!("wall time:       {:.3}s", elapsed.as_secs_f64());
    println!("throughput:      {throughput:.0} req/s");
    println!("client p50/p99:  {}us / {}us", p50 / 1000, p99 / 1000);
    println!(
        "cache hit rate:  {} ({response_hits}/{total} responses)",
        pct(hit_rate)
    );
    for (c, s) in &sweep {
        println!(
            "c={c:<4} pipelined: {:.0} req/s over {} requests, p50/p99 {}us / {}us",
            s.throughput,
            s.total,
            s.p50_ns / 1000,
            s.p99_ns / 1000
        );
    }
    println!("server counters: {hits} hits, {misses} misses, {evictions} evictions");
    println!(
        "ta~name cold {}us vs warm p50 {}us  ->  {speedup:.0}x speedup",
        cold_ns / 1000,
        warm_p50 / 1000
    );

    // 5. Tracing overhead: off vs. unsampled vs. sampled, fresh servers,
    //    server-side warm-path latency. The in-bench gate is on the
    //    minimum (robust for a compute-bound path — noise only adds
    //    time), with a 500ns absolute floor below which the timers
    //    cannot distinguish the modes anyway.
    let [(off_p50, off_min), (uns_p50, uns_min), (smp_p50, _smp_min)] =
        trace_overhead_stage(args.warm_reps.min(300), args.trace_sample)?;
    // Overhead is reported on the minima, same statistic the gate uses:
    // on a microsecond-scale warm path the p50 jitters by tens of ns
    // between runs, which would swamp the quantity being measured.
    let overhead_pct = if off_min > 0 {
        (uns_min as f64 - off_min as f64) * 100.0 / off_min as f64
    } else {
        0.0
    };
    println!(
        "tracing:         off min {}ns (p50 {}ns), unsampled min {}ns ({overhead_pct:+.2}%), sampled(1/{}) p50 {}ns",
        off_min,
        off_p50,
        uns_min,
        args.trace_sample.max(1),
        smp_p50
    );
    if uns_min > off_min + (off_min / 50).max(500) {
        return Err(format!(
            "unsampled tracing overhead exceeds the 2% budget: \
             off min {off_min}ns vs unsampled min {uns_min}ns"
        ));
    }

    let mut extra_stats: Vec<(String, u64)> = Vec::new();
    for (c, s) in &sweep {
        extra_stats.push((format!("c{c}_requests"), s.total));
        extra_stats.push((format!("c{c}_throughput_rps"), s.throughput as u64));
        extra_stats.push((format!("c{c}_p50_ns"), s.p50_ns));
        extra_stats.push((format!("c{c}_p99_ns"), s.p99_ns));
    }
    let mut stats: Vec<(&str, u64)> = vec![
        ("requests", total),
        ("concurrency", args.concurrency as u64),
        ("wall_ms", elapsed.as_millis() as u64),
        ("throughput_rps", throughput as u64),
        ("client_p50_ns", p50),
        ("client_p99_ns", p99),
        ("response_cache_hits", response_hits),
        ("hit_rate_pct", (hit_rate * 100.0) as u64),
        ("metrics_cache_hits", hits),
        ("metrics_cache_misses", misses),
        ("metrics_cache_evictions", evictions),
        ("ta_name_cold_ns", cold_ns),
        ("ta_name_warm_p50_ns", warm_p50),
        ("warm_speedup_x", speedup as u64),
        ("trace_off_min_ns", off_min),
        ("trace_unsampled_min_ns", uns_min),
        ("trace_off_p50_ns", off_p50),
        ("trace_unsampled_p50_ns", uns_p50),
        ("trace_sampled_p50_ns", smp_p50),
        ("trace_sample_n", args.trace_sample.max(1)),
        (
            "trace_unsampled_overhead_basis_points",
            (overhead_pct.max(0.0) * 100.0) as u64,
        ),
        ("obs_off", u64::from(ipe_obs::disabled())),
    ];
    stats.extend(extra_stats.iter().map(|(k, v)| (k.as_str(), *v)));
    write_run_report_with_stats(
        "service",
        &[
            ("mode", "replay"),
            ("workload", "cupid planted-intent"),
            ("sweep_mode", "pipelined x32"),
            // The pre-reactor front end (accept loop + fixed worker
            // pool, PR 7 seed) measured 16,198 req/s at c=4 closed-loop.
            ("seed_throughput_rps_c4", "16198"),
            (
                "consistent_with_metrics",
                if consistent { "true" } else { "false" },
            ),
        ],
        &stats,
    );
    if speedup < 10.0 {
        eprintln!("warning: warm-cache speedup below 10x ({speedup:.1}x)");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Spawn an in-process server when no target was given.
    let (server, addr) = match &args.addr {
        Some(addr) => (None, addr.clone()),
        None => {
            let server = match Server::start(ServiceConfig {
                addr: "127.0.0.1:0".to_owned(),
                // 0 = one reactor per core; the event-driven front end
                // no longer needs a thread per connection. The per-reactor
                // connection cap clears the c=256 sweep with headroom.
                reactors: 0,
                queue_depth: 1024,
                trace_sample_n: args.trace_sample,
                ..Default::default()
            }) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: cannot start in-process server: {e}");
                    return ExitCode::FAILURE;
                }
            };
            server
                .state()
                .registry
                .insert("default", fixtures::university());
            let addr = server.addr().to_string();
            eprintln!("(in-process server on {addr})");
            (Some(server), addr)
        }
    };
    let mut client = Client::new(addr.clone());
    let result = run_bench(&mut client, &addr, &args);
    // Shut the in-process server down; a remote one keeps running.
    if let Some(server) = server {
        let _ = client.request("POST", "/v1/shutdown", "");
        server.join();
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
