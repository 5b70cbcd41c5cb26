//! The repository benchmark: drives an in-process `ipe_service::Server`
//! over loopback HTTP and prints one JSON result line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <warm_complete|cold_search|query_eval|schema_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer metrics of a traced run instead.
//! See `perfbench/README.md` for the workloads, the metrics, and what each
//! layer metric should move.

mod affinity;
mod checks;
mod fixture;
mod inputs;
mod layers;
mod rng;
mod stats;
mod trace;
mod traffic;
mod wire;

use crate::checks::Verdict;
use crate::fixture::Fixture;
use crate::inputs::Inputs;
use crate::rng::{Rng, Zipf};
use crate::stats::{percentile, sorted, tail};
use crate::traffic::{MainRecord, SideKind, SideRecord};
use serde::Value;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    WarmComplete,
    ColdSearch,
    QueryEval,
    SchemaChurn,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::WarmComplete,
        Workload::ColdSearch,
        Workload::QueryEval,
        Workload::SchemaChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmComplete => "warm_complete",
            Workload::ColdSearch => "cold_search",
            Workload::QueryEval => "query_eval",
            Workload::SchemaChurn => "schema_churn",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Where runs leave their data directories, span files and run records.
pub const OUT_DIR: &str = ".bench_out";
/// Set-ups per untraced run, one after the other, each server shut down
/// before the next starts; `setup_s` is their median.
const SETUPS: usize = 3;
/// Skew of `warm_complete`'s key popularity: the middle of the range
/// (0.64 to 0.83) Breslau et al. measured for request popularity in six
/// web-proxy traces ("Web Caching and Zipf-like Distributions", INFOCOM
/// 1999), the repeat traffic closest to an interactive completion loop.
const ZIPF_S: f64 = 0.75;
/// `warm_complete` re-draws which keys are popular this many times a run,
/// in equal slices, as the sessions of different users favour different
/// keys. With one draw, the ten most popular keys would carry a fifth of
/// a run's requests, and a seed's figures would rest on their reply sizes.
/// The count is chosen so that a run averages over many draws; it is not
/// taken from traffic.
const HOT_SETS: u32 = 30;
/// The open-loop side stream must never run later than this on its own
/// account, or its due-time figures would describe the generator.
const LATE_LIMIT_MS: f64 = 50.0;

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Outcome {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    metrics: Vec<Metric>,
    meta: Vec<(&'static str, String)>,
}

/// What one timed phase produced.
pub struct Phase {
    pub main: Vec<MainRecord>,
    pub side: Vec<SideRecord>,
    pub main_secs: f64,
    pub before: Value,
    pub after: Value,
    pub late_max_ms: f64,
    /// Read when the load stops, before the main-stream records are read
    /// back into memory.
    pub peak_rss_mb: f64,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            for note in &out.notes {
                eprintln!("check failed: {note}");
            }
            for (k, v) in &out.meta {
                eprintln!("{k}: {v}");
            }
            let metrics: Vec<String> = out
                .metrics
                .iter()
                .map(|m| {
                    format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        m.name,
                        number(m.value),
                        m.unit
                    )
                })
                .collect();
            let line = format!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                out.failed == 0,
                out.attempted,
                out.failed,
                metrics.join(", ")
            );
            write_record(&args, &out.meta, &line);
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A finite JSON number with all its digits.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

fn write_record(args: &Args, meta: &[(&'static str, String)], line: &str) {
    let fields: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
        .collect();
    let record = format!(
        "{{\"meta\": {{{}}}, \"result\": {line}}}\n",
        fields.join(", ")
    );
    let path = PathBuf::from(OUT_DIR).join(format!(
        "run-{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, record) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

fn data_dir(w: Workload, i: usize) -> Option<PathBuf> {
    (w == Workload::SchemaChurn)
        .then(|| PathBuf::from(OUT_DIR).join(format!("data-{}-{i}", std::process::id())))
}

fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let w = args.workload;
    let t_inputs = Instant::now();
    let inputs = inputs::build(w, args.seed);
    let inputs_s = t_inputs.elapsed().as_secs_f64();
    // Set-up and the timed phase run on one CPU (see `affinity`); the
    // checks may use every CPU.
    let pinned = affinity::pin_first();
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_secs = Vec::new();
    let mut fixture = None;
    for i in 0..setups {
        if let Some(previous) = fixture.take() {
            Fixture::shutdown(previous);
        }
        let (fx, secs) = fixture::setup(w, &inputs, data_dir(w, i))?;
        setup_secs.push(secs);
        fixture = Some(fx);
    }
    let fx = fixture.expect("at least one set-up");
    let cpu = pinned.as_ref().map(|(cpu, _)| *cpu);
    let steal_before = cpu_times(cpu);
    let phase = timed_phase(w, &inputs, &fx, args)?;
    let steal_share = steal_share(steal_before, cpu_times(cpu));
    guards(w, &phase)?;

    if let Some((_, all)) = &pinned {
        affinity::set(all);
    }
    let t_checks = Instant::now();
    let mut verdict = Verdict::default();
    check(w, &inputs, &phase, args.seed, &mut verdict);
    let fx = if w == Workload::SchemaChurn {
        restart_check(fx, &inputs, &phase, &mut verdict)?
    } else {
        fx
    };
    let checks_s = t_checks.elapsed().as_secs_f64();
    let t_layers = Instant::now();
    let failed_status = phase.main.iter().filter(|r| r.status != 200).count()
        + phase.side.iter().filter(|r| r.status != 200).count();
    let attempted = (phase.main.len() + phase.side.len()) as u64;

    let metrics = if args.trace {
        if let Some((cpu, _)) = &pinned {
            affinity::set(&affinity::Mask::only(*cpu));
        }
        layers::traced(w, &inputs, &fx, &phase, args.seed)?
    } else {
        end_to_end(&phase, median(&setup_secs))?
    };
    let layers_s = t_layers.elapsed().as_secs_f64();
    Fixture::shutdown(fx);
    let plan = inputs::plan(w);
    let meta = vec![
        ("workload", w.name().to_owned()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        (
            "cpus",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("obs_off", ipe_obs::disabled().to_string()),
        ("reactors", fixture::REACTORS.to_string()),
        (
            "pinned_cpu",
            pinned.map_or("none".to_owned(), |(cpu, _)| cpu.to_string()),
        ),
        ("zipf_s", ZIPF_S.to_string()),
        ("hot_sets", HOT_SETS.to_string()),
        ("side_ops_per_stream", traffic::SIDE_OPS.to_string()),
        (
            "fsync",
            if w == Workload::SchemaChurn {
                "always (data dir)"
            } else {
                "none (in memory)"
            }
            .to_owned(),
        ),
        ("schemas", inputs.fleet.len().to_string()),
        ("queries_per_schema", plan.queries_per_schema.to_string()),
        ("keys", inputs.keys.len().to_string()),
        ("keys_sent", distinct(&phase.main).to_string()),
        (
            "objects_per_class",
            plan.objects_per_class.unwrap_or(0).to_string(),
        ),
        ("churn_schemas", inputs.churn.names.len().to_string()),
        ("churn_read_keys", inputs.churn.reads.len().to_string()),
        ("main_requests", phase.main.len().to_string()),
        ("side_ops", phase.side.len().to_string()),
        ("setup_s_each", format!("{setup_secs:.3?}")),
        ("inputs_s", format!("{inputs_s:.3}")),
        ("checks_s", format!("{checks_s:.3}")),
        ("layers_s", format!("{layers_s:.3}")),
        ("late_max_ms", format!("{:.3}", phase.late_max_ms)),
        ("oracle_checked", verdict.oracle_checked.to_string()),
        (
            "steal_share",
            steal_share.map_or("unknown".to_owned(), |s| format!("{s:.3}")),
        ),
    ];
    Ok(Outcome {
        attempted,
        failed: failed_status as u64 + verdict.wrong,
        notes: verdict.notes,
        metrics,
        meta,
    })
}

fn distinct(records: &[MainRecord]) -> usize {
    let mut keys: Vec<u32> = records.iter().map(|r| r.key).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.len()
}

fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5)
}

fn timed_phase(w: Workload, inputs: &Inputs, fx: &Fixture, args: &Args) -> Result<Phase, String> {
    let mut conn = fx.conn()?;
    let before = fixture::metrics(&mut conn)?;
    let origin = Instant::now();
    let deadline = origin + std::time::Duration::from_secs(args.seconds);
    let mut rng = Rng::fork(args.seed, 6);
    let zipf = Zipf::new(inputs.keys.len().max(1), ZIPF_S);
    let hot_set_ns = (deadline - origin).as_nanos() / u128::from(HOT_SETS);
    let (mut popular, mut hot_set) = ((0..inputs.keys.len()).collect::<Vec<_>>(), None);
    let mut next_cold = 0usize;
    let n_keys = inputs.keys.len();
    // The traced run's replay takes the last keys; they stay unsent.
    let cold_keys = n_keys.saturating_sub(layers::SAMPLE);
    let n_reads = inputs.churn.reads.len();
    let mut next_key: Box<dyn FnMut() -> Option<usize>> = match w {
        Workload::WarmComplete => Box::new(move || {
            let now = Some(origin.elapsed().as_nanos() / hot_set_ns);
            if hot_set != now {
                hot_set = now;
                rng.shuffle(&mut popular);
            }
            Some(popular[zipf.draw(&mut rng)])
        }),
        Workload::ColdSearch => Box::new(move || {
            next_cold += 1;
            (next_cold <= cold_keys).then_some(next_cold - 1)
        }),
        Workload::QueryEval => Box::new(move || Some(rng.below(n_keys))),
        Workload::SchemaChurn => Box::new(move || Some(rng.below(n_reads))),
    };
    let bodies: Vec<&str> = if w == Workload::SchemaChurn {
        inputs.churn.reads.iter().map(|r| r.3.as_str()).collect()
    } else {
        inputs.keys.iter().map(|k| k.body.as_str()).collect()
    };
    let (path, conns) = match w {
        Workload::WarmComplete => ("/v1/complete".to_owned(), 2),
        Workload::ColdSearch => ("/v1/complete".to_owned(), 1),
        Workload::QueryEval => ("/v1/query".to_owned(), 1),
        Workload::SchemaChurn => (format!("/v1/t/{}/complete", inputs::SIDE_TENANT), 1),
    };
    let links = (0..conns).map(|_| fx.conn()).collect::<Result<_, _>>()?;
    let mut log = traffic::RecordLog::create(
        PathBuf::from(OUT_DIR).join(format!("main-{}.bin", std::process::id())),
    )?;
    let (main, side, main_secs) = std::thread::scope(|scope| {
        let side = scope
            .spawn(|| traffic::side_loop(&fx.addr, &inputs.churn, args.seed, origin, deadline));
        let main = traffic::closed_loop(
            links,
            &path,
            &bodies,
            &mut *next_key,
            origin,
            deadline,
            &mut log,
        );
        let main_secs = origin.elapsed().as_secs_f64();
        (main, side.join().expect("side stream panicked"), main_secs)
    });
    let ((), (side, late_ns)) = (main?, side?);
    let peak_rss_mb = peak_rss_mb()?;
    let main = log.load()?;
    if w == Workload::ColdSearch && main.len() >= cold_keys {
        eprintln!("warning: cold_search used all {cold_keys} keys before the deadline");
    }
    // A connection idle for the whole phase may have been reaped.
    let after = fixture::metrics(&mut fx.conn()?)?;
    Ok(Phase {
        late_max_ms: late_ns as f64 / 1e6,
        main,
        side,
        main_secs,
        before,
        after,
        peak_rss_mb,
    })
}

/// Counter delta of one `/metrics` field across the timed phase.
pub fn delta(phase: &Phase, path: &[&str]) -> Result<u64, String> {
    Ok(wire::u64_at(&phase.after, path)?.saturating_sub(wire::u64_at(&phase.before, path)?))
}

/// Cache hits and misses of the `default` tenant's partition (the main
/// stream's, for the fleet workloads) across the timed phase.
fn default_tenant_cache(phase: &Phase) -> Result<(u64, u64), String> {
    let row = |m: &Value| -> Result<(u64, u64), String> {
        let rows = wire::seq_at(m, &["service", "tenants"])?;
        let row = rows
            .iter()
            .find(|r| wire::str_at(r, &["tenant"]) == Ok("default"))
            .ok_or("no `default` tenant row in /metrics")?;
        Ok((
            wire::u64_at(row, &["cache", "hits"])?,
            wire::u64_at(row, &["cache", "misses"])?,
        ))
    };
    let (h0, m0) = row(&phase.before)?;
    let (h1, m1) = row(&phase.after)?;
    Ok((h1 - h0, m1 - m0))
}

/// Guards that keep each workload on the layer it is meant to load.
fn guards(w: Workload, phase: &Phase) -> Result<(), String> {
    let (hits, misses) = default_tenant_cache(phase)?;
    match w {
        Workload::WarmComplete if misses > 0 => {
            return Err(format!(
                "warm_complete hit ratio below 1.0: {hits} hits, {misses} misses"
            ))
        }
        Workload::ColdSearch if hits > 0 => {
            return Err(format!(
                "cold_search hit ratio above 0: {hits} hits, {misses} misses"
            ))
        }
        _ => {}
    }
    if matches!(w, Workload::ColdSearch | Workload::QueryEval) {
        let unindexed = delta(phase, &["service", "index", "completes_unindexed"])?;
        if unindexed > 0 {
            return Err(format!("{} requests ran unindexed", unindexed));
        }
    }
    if phase.late_max_ms > LATE_LIMIT_MS {
        return Err(format!(
            "the open-loop generator ran {:.1}ms late (limit {LATE_LIMIT_MS}ms)",
            phase.late_max_ms
        ));
    }
    Ok(())
}

fn check(w: Workload, inputs: &Inputs, phase: &Phase, seed: u64, v: &mut Verdict) {
    checks::side(inputs, &phase.side, v);
    match w {
        Workload::WarmComplete => checks::completions(inputs, &phase.main, true, seed, v),
        Workload::ColdSearch => checks::completions(inputs, &phase.main, false, seed, v),
        Workload::QueryEval => {
            let dbs = query_dbs(inputs);
            checks::queries(inputs, &dbs, &phase.main, v)
        }
        Workload::SchemaChurn => checks::churn_reads(&inputs.churn, &phase.main, &phase.side, v),
    }
}

/// The client's own copy of each generated instance, built the way the
/// server builds it from the same `gen` request.
pub fn query_dbs(inputs: &Inputs) -> Vec<ipe_oodb::Database> {
    let cfg = inputs.data.expect("query_eval loads data");
    inputs
        .fleet
        .iter()
        .map(|fs| ipe_gen::generate_database(&std::sync::Arc::new(fs.schema.clone()), &cfg))
        .collect()
}

/// After a clean restart on the same data directory every churn schema is
/// back at the generation its last acked upload created.
fn restart_check(
    fx: Fixture,
    inputs: &Inputs,
    phase: &Phase,
    v: &mut Verdict,
) -> Result<Fixture, String> {
    let dir = fx.data_dir.clone();
    fx.server.shutdown();
    let fx = Fixture::start(dir)?;
    let mut conn = fx.conn()?;
    let last = checks::last_acked(&inputs.churn, &phase.side);
    for (name, want) in inputs.churn.names.iter().zip(last) {
        let path = format!("/v1/t/{}/schemas/{name}", inputs::SIDE_TENANT);
        match conn
            .json("GET", &path, "")
            .and_then(|r| wire::u64_at(&r, &["generation"]))
        {
            Ok(g) if g == want => {}
            Ok(g) => v.fail(format!(
                "{name} came back at generation {g}, last acked {want}"
            )),
            Err(e) => v.fail(format!("{name} after restart: {e}")),
        }
    }
    Ok(fx)
}

/// `(steal, total)` jiffies of one CPU (or of all) from `/proc/stat`.
fn cpu_times(cpu: Option<usize>) -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let label = cpu.map_or("cpu".to_owned(), |c| format!("cpu{c}"));
    let line = stat
        .lines()
        .find(|l| l.split_whitespace().next() == Some(label.as_str()))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Share of the CPU's time the hypervisor gave to others while the run
/// measured: the noise no benchmark design can remove, kept with each run.
fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Due-time latencies in ms of the side stream's probes (`probes`) or
/// uploads, ascending.
pub fn side_latencies(phase: &Phase, probes: bool) -> Vec<f64> {
    sorted(
        phase
            .side
            .iter()
            .filter(|r| (r.kind == SideKind::Probe) == probes)
            .map(|r| ms(r.op.latency_ns()))
            .collect(),
    )
}

/// Client latencies in ms of the main stream, ascending.
pub fn main_latencies(phase: &Phase) -> Vec<f64> {
    sorted(phase.main.iter().map(|r| ms(r.latency_ns)).collect())
}

fn end_to_end(phase: &Phase, setup_s: f64) -> Result<Vec<Metric>, String> {
    let lat = main_latencies(phase);
    let writes = side_latencies(phase, false);
    Ok(vec![
        metric("setup_s", setup_s, "s"),
        metric(
            "throughput_rps",
            phase.main.len() as f64 / phase.main_secs,
            "1/s",
        ),
        metric("latency_p50_ms", tail(&lat, 0.5, "latency")?, "ms"),
        metric("write_p50_ms", tail(&writes, 0.5, "write latency")?, "ms"),
        metric("peak_rss_mb", phase.peak_rss_mb, "MB"),
    ])
}
