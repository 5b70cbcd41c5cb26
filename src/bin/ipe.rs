//! `ipe` — command-line front end for the incomplete path expression
//! disambiguator.
//!
//! ```text
//! ipe complete [--schema FILE | --fixture NAME] [--e N] [--exclude CLASS]... EXPR
//! ipe explain  [--schema FILE | --fixture NAME] EXPR
//! ipe eval     EXPR                      (university fixture database)
//! ipe query    [--e N] [--objects N] [--links N] EXPR   (disambiguate + evaluate)
//! ipe gen      [--seed N] [--classes N]  (print a synthetic schema as JSON)
//! ipe dot      [--schema FILE | --fixture NAME] [--inverses]
//! ipe stats    [--schema FILE | --fixture NAME]
//! ipe serve    [--addr HOST:PORT] [--reactors N] [--cache-bytes N] ...
//! ```

use ipe::core::{complete_batch, explain, BatchOptions, Completer, CompletionConfig, SearchLimits};
use ipe::gen::{generate_schema, GenConfig};
use ipe::index::{IndexMode, IndexedSchema, SearchIndex};
use ipe::oodb::fixtures::university_db;
use ipe::parser::parse_path_expression;
use ipe::schema::{dot, Schema};
use ipe::service::{FsyncPolicy, Server, ServiceConfig};
use std::process::ExitCode;

/// The explicit subcommand names.
const COMMANDS: &[&str] = &[
    "complete", "explain", "eval", "query", "gen", "dot", "stats", "serve", "batch",
];

/// Flags that consume the following argument, for subcommand scanning.
const VALUE_FLAGS: &[&str] = &[
    "--schema",
    "--fixture",
    "--e",
    "--exclude",
    "--seed",
    "--classes",
    "--report",
    "--addr",
    "--reactors",
    "--workers",
    "--queue-depth",
    "--timeout-ms",
    "--cache-bytes",
    "--batch-threads",
    "--threads",
    "--objects",
    "--links",
    "--deadline-ms",
    "--data-dir",
    "--fsync",
    "--snapshot-every",
    "--index",
    "--trace-sample",
    "--slow-ms",
    "--flight-capacity",
    "--follow",
];

/// Resolves the subcommand by scanning *past* flags, so global flags
/// compose with every subcommand: `ipe --trace serve ...` dispatches to
/// `serve` (not to an implicit `complete` on the word "serve"), while
/// `ipe --trace 'ta~name'` still implies `complete`.
fn split_command(args: &[String]) -> Result<(String, Vec<String>), String> {
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a == "--help" || a == "-h" || a == "help" {
            return Ok(("help".to_owned(), Vec::new()));
        }
        if a.starts_with('-') {
            i += if VALUE_FLAGS.contains(&a) { 2 } else { 1 };
            continue;
        }
        // First positional argument: an explicit subcommand, or the EXPR
        // of an implicit `complete`.
        if COMMANDS.contains(&a) {
            let mut rest = args.to_vec();
            rest.remove(i);
            return Ok((a.to_owned(), rest));
        }
        return if a.contains('~') || i > 0 {
            Ok(("complete".to_owned(), args.to_vec()))
        } else {
            Err(format!("unknown command `{a}`\n{USAGE}"))
        };
    }
    // Flags only: implicit complete (fails later with "missing EXPR").
    Ok(("complete".to_owned(), args.to_vec()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    let result = split_command(&args).and_then(|(cmd, rest)| match cmd.as_str() {
        "complete" => cmd_complete(&rest),
        "explain" => cmd_explain(&rest),
        "eval" => cmd_eval(&rest),
        "query" => cmd_query(&rest),
        "gen" => cmd_gen(&rest),
        "dot" => cmd_dot(&rest),
        "stats" => cmd_stats(&rest),
        "serve" => cmd_serve(&rest),
        "batch" => cmd_batch(&rest),
        "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  ipe complete [--schema FILE | --fixture NAME] [--e N] [--exclude CLASS]...
               [--index on|off|lazy] [--trace] [--report FILE] EXPR
  ipe explain  [--schema FILE | --fixture NAME] EXPR
  ipe eval     EXPR
  ipe query    [--schema FILE | --fixture NAME] [--e N] [--exclude CLASS]...
               [--objects N] [--links N] [--seed N] [--deadline-ms N] EXPR
  ipe gen      [--seed N] [--classes N]
  ipe dot      [--schema FILE | --fixture NAME] [--inverses]
  ipe stats    [--schema FILE | --fixture NAME]
  ipe serve    [--schema FILE | --fixture NAME] [--addr HOST:PORT]
               [--reactors N] [--queue-depth N] [--timeout-ms N]
               [--cache-bytes N] [--batch-threads N]
               [--data-dir DIR] [--fsync always|interval[:MS]|never]
               [--snapshot-every N] [--index on|off|lazy] [--report FILE]
               [--trace-sample N] [--slow-ms N] [--flight-capacity N]
               [--access-log] [--follow HOST:PORT]
  ipe batch    [--schema FILE | --fixture NAME] [--e N] [--exclude CLASS]...
               [--threads N] [--deadline-ms N] FILE

An EXPR containing `~` (or starting with a flag) implies `complete`.
--trace prints the structured search event log; --report FILE writes the
full JSON run report (stats, counters, timings, trace). Both are inert in
builds with the `obs-off` feature.

`serve` starts the resident disambiguation server (default address
127.0.0.1:7474, port 0 picks an ephemeral port) with the chosen schema
registered as `default`. It serves POST /v1/complete, GET /v1/schemas,
GET/PUT/DELETE /v1/schemas/:name, GET /healthz, GET /metrics, and
POST /v1/shutdown,
memoizing completions in a sharded LRU cache invalidated by schema
hot-swaps. --reactors N sets the number of epoll reactor threads, each
owning an SO_REUSEPORT acceptor shard (default 0 = one per core;
--workers is accepted as an alias); --queue-depth caps live connections
per reactor (503 beyond); --timeout-ms bounds each request from first
byte to framed (408 on expiry). With --report FILE, the final /metrics report is written there
on clean shutdown. With --data-dir DIR, registry changes are written
through to a checksummed WAL (fsynced per --fsync, compacted into a
snapshot every --snapshot-every records) and recovered on restart; a
best-effort warmup journal pre-warms the completion cache.

Multi-tenancy: PUT/GET/DELETE /v1/tenants/:tenant manages tenant
namespaces (quotas, per-tenant defaults, cache budgets; persisted to
DIR/tenants.json with --data-dir), and /v1/t/:tenant/... scopes the
schema/complete/batch/data/query routes to one tenant — the bare routes
are the built-in `default` tenant. --cache-bytes N sets the byte budget
of each tenant's cache partition (default 64 MiB, the cache's only
bound, so it must be positive); a tenant's own `cache_bytes` overrides
it. Over-quota requests answer 429 with a Retry-After header and a
machine-readable retry envelope.

With --follow HOST:PORT, `serve` runs as a read-only follower of the
leader at that address: it tails the leader's WAL over
GET /v1/repl/stream (snapshot bootstrap when behind the compaction
horizon, live records after), applies every schema change locally, and
serves reads with the same cache and index machinery. Schema writes are
refused with 421 and an x-ipe-leader header; GET /readyz answers 503
with the current lag until the replica has caught up. Combine with
--data-dir to persist the applied stream so a restarted follower resumes
from its last applied sequence number instead of re-bootstrapping.

`serve` traces requests: --trace-sample N records a span tree for 1 in N
requests (default 1 = every request, 0 = off); traces land in an
in-memory flight recorder (--flight-capacity, default 256) browsable at
GET /v1/debug/requests[/:trace_id], which also keeps the slowest
capacity/16 and the last capacity/8 errored requests (at least 1 each). Requests at or past --slow-ms
(default 500, 0 = off) are force-retained. --access-log prints one JSON
line per request to stderr. GET /metrics?format=prometheus serves the
metrics in Prometheus text format.

--index controls the schema closure index. `serve` builds each schema's
index before the PUT (or recovery, or replicated write) publishes it,
so no request runs unindexed, and never persists it. The default,
`lazy`, builds no goal tables up front (under 1 us per schema), and
a search builds the table of the name it completes on first use. `on`
builds every name's table with the schema (about 2.5 ms at 92
classes). `off` disables indexing.
One-shot `complete` defaults to `off`; pass --index on to see index
pruning in --trace/--report output.

`query` disambiguates an incomplete expression at --e and evaluates the
admitted completions against a database instance, merging the results
into provenance-annotated answers: `certain` answers are produced by
every completion, `possible` answers by at least one. The default
university fixture uses its handcrafted instance; `--objects N` /
`--links N` (or any other schema) switch to a synthetic instance seeded
by --seed. --deadline-ms bounds search plus evaluation together
(default 2000, 0 = unlimited).

`batch` reads one path expression per line from FILE (`-` for stdin;
blank lines and `#` comments are skipped) and completes them in parallel
on --threads workers (default 4). --deadline-ms bounds each item's
wall-clock search (default 2000, 0 = unlimited); an item that trips its
deadline reports `deadline exceeded` without stalling the rest.

fixtures: university (default), assembly";

/// Parsed common options: schema source + positional arguments.
struct Opts {
    schema: Schema,
    e: usize,
    exclude: Vec<String>,
    inverses: bool,
    seed: u64,
    classes: usize,
    trace: bool,
    report: Option<String>,
    addr: String,
    reactors: usize,
    queue_depth: usize,
    timeout_ms: u64,
    /// `--cache-bytes N` for `serve`: default byte budget applied to each
    /// tenant's completion-cache partition.
    cache_bytes: u64,
    batch_threads: usize,
    threads: usize,
    /// `--objects N` for `query`: synthetic objects per class (`None`
    /// keeps the handcrafted fixture instance where one exists).
    objects: Option<usize>,
    /// `--links N` for `query`: synthetic link attempts per relationship.
    links: Option<usize>,
    /// The fixture the schema came from, `None` under `--schema FILE`.
    fixture_name: Option<String>,
    deadline_ms: u64,
    data_dir: Option<String>,
    fsync: FsyncPolicy,
    snapshot_every: u64,
    /// `--index on|off|lazy`; `None` keeps the per-command default
    /// (`serve` takes [`ServiceConfig`]'s, `lazy`; one-shot commands skip
    /// the build).
    index_mode: Option<IndexMode>,
    trace_sample_n: u64,
    slow_ms: u64,
    flight_capacity: usize,
    access_log: bool,
    /// `--follow LEADER` for `serve`: run as a read-only replica tailing
    /// the leader's WAL stream.
    follow: Option<String>,
    positional: Vec<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut schema_file: Option<String> = None;
    let mut fixture = "university".to_owned();
    let mut e = 1usize;
    let mut exclude = Vec::new();
    let mut inverses = false;
    let mut seed = 1994u64;
    let mut classes = 92usize;
    let mut trace = false;
    let mut report = None;
    let service_defaults = ServiceConfig::default();
    let mut addr = service_defaults.addr.clone();
    let mut reactors = service_defaults.reactors;
    let mut queue_depth = service_defaults.queue_depth;
    let mut timeout_ms = service_defaults.request_timeout.as_millis() as u64;
    let mut cache_bytes = service_defaults.cache_bytes;
    let mut batch_threads = service_defaults.batch_threads;
    let mut threads = 4usize;
    let mut objects = None;
    let mut links = None;
    let mut deadline_ms = 2_000u64;
    let mut data_dir = None;
    let mut fsync = service_defaults.fsync;
    let mut snapshot_every = service_defaults.snapshot_every;
    let mut index_mode = None;
    let mut trace_sample_n = service_defaults.trace_sample_n;
    let mut slow_ms = service_defaults.slow_ms;
    let mut flight_capacity = service_defaults.flight_capacity;
    let mut access_log = false;
    let mut follow = None;
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut grab = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--schema" => schema_file = Some(grab("--schema")?),
            "--fixture" => fixture = grab("--fixture")?,
            "--e" => e = grab("--e")?.parse().map_err(|_| "--e must be a number")?,
            "--exclude" => exclude.push(grab("--exclude")?),
            "--inverses" => inverses = true,
            "--seed" => {
                seed = grab("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be a number")?
            }
            "--classes" => {
                classes = grab("--classes")?
                    .parse()
                    .map_err(|_| "--classes must be a number")?
            }
            "--trace" => trace = true,
            "--report" => report = Some(grab("--report")?),
            "--addr" => addr = grab("--addr")?,
            // --workers is the pre-reactor spelling, kept as an alias.
            "--reactors" | "--workers" => {
                reactors = grab(a)?
                    .parse()
                    .map_err(|_| format!("{a} must be a number"))?
            }
            "--queue-depth" => {
                queue_depth = grab("--queue-depth")?
                    .parse()
                    .map_err(|_| "--queue-depth must be a number")?
            }
            "--timeout-ms" => {
                timeout_ms = grab("--timeout-ms")?
                    .parse()
                    .map_err(|_| "--timeout-ms must be a number")?
            }
            "--cache-capacity" | "--cache-shards" => {
                return Err(format!(
                    "{a} was removed: the cache is bounded by --cache-bytes N alone"
                ))
            }
            "--cache-bytes" => {
                cache_bytes = grab("--cache-bytes")?
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or("--cache-bytes must be a positive number")?
            }
            "--batch-threads" => {
                batch_threads = grab("--batch-threads")?
                    .parse()
                    .map_err(|_| "--batch-threads must be a number")?
            }
            "--threads" => {
                threads = grab("--threads")?
                    .parse()
                    .map_err(|_| "--threads must be a number")?
            }
            "--objects" => {
                objects = Some(
                    grab("--objects")?
                        .parse()
                        .map_err(|_| "--objects must be a number")?,
                )
            }
            "--links" => {
                links = Some(
                    grab("--links")?
                        .parse()
                        .map_err(|_| "--links must be a number")?,
                )
            }
            "--deadline-ms" => {
                deadline_ms = grab("--deadline-ms")?
                    .parse()
                    .map_err(|_| "--deadline-ms must be a number")?
            }
            "--data-dir" => data_dir = Some(grab("--data-dir")?),
            "--index" => {
                let v = grab("--index")?;
                index_mode = Some(
                    IndexMode::parse(&v)
                        .ok_or_else(|| format!("--index must be on|off|lazy, got `{v}`"))?,
                );
            }
            "--fsync" => fsync = FsyncPolicy::parse(&grab("--fsync")?)?,
            "--snapshot-every" => {
                snapshot_every = grab("--snapshot-every")?
                    .parse()
                    .map_err(|_| "--snapshot-every must be a number")?
            }
            "--trace-sample" => {
                trace_sample_n = grab("--trace-sample")?
                    .parse()
                    .map_err(|_| "--trace-sample must be a number")?
            }
            "--slow-ms" => {
                slow_ms = grab("--slow-ms")?
                    .parse()
                    .map_err(|_| "--slow-ms must be a number")?
            }
            "--flight-capacity" => {
                flight_capacity = grab("--flight-capacity")?
                    .parse()
                    .map_err(|_| "--flight-capacity must be a number")?
            }
            "--access-log" => access_log = true,
            "--follow" => follow = Some(grab("--follow")?),
            other => positional.push(other.to_owned()),
        }
    }
    let fixture_name = schema_file.is_none().then(|| fixture.clone());
    let schema = match schema_file {
        Some(path) => {
            let json =
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
            Schema::from_json(&json).map_err(|e| e.to_string())?
        }
        None => match fixture.as_str() {
            "university" => ipe::schema::fixtures::university(),
            "assembly" => ipe::schema::fixtures::assembly(),
            other => return Err(format!("unknown fixture `{other}`")),
        },
    };
    Ok(Opts {
        schema,
        e,
        exclude,
        inverses,
        seed,
        classes,
        trace,
        report,
        addr,
        reactors,
        queue_depth,
        timeout_ms,
        cache_bytes,
        batch_threads,
        threads,
        objects,
        links,
        fixture_name,
        deadline_ms,
        data_dir,
        fsync,
        snapshot_every,
        index_mode,
        trace_sample_n,
        slow_ms,
        flight_capacity,
        access_log,
        follow,
        positional,
    })
}

fn engine_for(opts: &Opts) -> Result<Completer<'_>, String> {
    let mut excluded = Vec::new();
    for name in &opts.exclude {
        let c = opts
            .schema
            .class_named(name)
            .ok_or_else(|| format!("unknown class `{name}` in --exclude"))?;
        excluded.push(c);
    }
    Ok(Completer::with_config(
        &opts.schema,
        CompletionConfig {
            e: opts.e,
            excluded_classes: excluded,
            ..Default::default()
        },
    ))
}

/// Ring-buffer size for `--trace`/`--report` runs: large enough to hold
/// every event of the bundled fixtures and generated schemas; overflow is
/// reported via the trace's `dropped` count rather than silently.
const TRACE_CAPACITY: usize = 65_536;

fn cmd_complete(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let expr = opts
        .positional
        .first()
        .ok_or("missing path expression argument")?;
    let ast = parse_path_expression(expr).map_err(|e| e.to_string())?;
    let mut engine = engine_for(&opts)?;
    // One-shot runs default to unindexed (the build would dwarf a single
    // query); `--index on|lazy` opts in, e.g. to inspect index pruning in
    // the trace or report.
    let index_mode = opts.index_mode.unwrap_or(IndexMode::Off);
    if index_mode != IndexMode::Off {
        let index: SearchIndex =
            std::sync::Arc::new(IndexedSchema::build(&opts.schema, index_mode));
        assert!(engine.attach_index(index), "freshly built index must fit");
    }
    let observing = opts.trace || opts.report.is_some();
    let capacity = if observing { TRACE_CAPACITY } else { 0 };
    let traced = engine
        .complete_traced(&ast, capacity)
        .map_err(|e| e.to_string())?;
    let outcome = &traced.outcome;
    if opts.trace {
        if ipe::obs::disabled() {
            eprintln!("note: this build has the obs-off feature; no events recorded");
        }
        for v in ipe::core::observe::trace_to_views(&opts.schema, &traced.trace) {
            println!(
                "{:>6} {:<18} {:<14} conn {:<3} semlen {}",
                format!("d{}", v.depth),
                v.kind.as_str(),
                v.class,
                v.connector,
                v.semlen
            );
        }
        if traced.trace.dropped() > 0 {
            eprintln!("({} earlier events dropped)", traced.trace.dropped());
        }
    }
    for c in &outcome.completions {
        println!(
            "{}\t[{} semlen {}]",
            c.display(&opts.schema),
            c.label.connector,
            c.label.semlen
        );
    }
    if index_mode == IndexMode::Off {
        eprintln!(
            "({} result(s), {} node explorations)",
            outcome.completions.len(),
            outcome.stats.calls
        );
    } else {
        eprintln!(
            "({} result(s), {} node explorations, index pruned {} unreachable + {} bound-dominated, {} segment(s) rejected outright)",
            outcome.completions.len(),
            outcome.stats.calls,
            outcome.stats.pruned_index_unreachable,
            outcome.stats.pruned_index_bound,
            outcome.stats.index_segment_rejections
        );
    }
    if let Some(path) = &opts.report {
        let report = ipe::core::observe::build_report(&opts.schema, expr, outcome, &traced.trace);
        report
            .write_to(path)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("(report written to {path})");
    }
    Ok(())
}

fn cmd_explain(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let expr = opts
        .positional
        .first()
        .ok_or("missing path expression argument")?;
    let ast = parse_path_expression(expr).map_err(|e| e.to_string())?;
    let engine = engine_for(&opts)?;
    let out = engine.complete(&ast).map_err(|e| e.to_string())?;
    for c in &out {
        println!("{}\n", explain::explain(&opts.schema, c));
    }
    Ok(())
}

fn cmd_eval(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let expr = opts
        .positional
        .first()
        .ok_or("missing path expression argument")?;
    let schema = std::sync::Arc::new(ipe::schema::fixtures::university());
    let db = university_db(&schema);
    let out = db.eval_str(expr).map_err(|e| e.to_string())?;
    let values = out.values();
    if values.is_empty() {
        println!("{} object(s): {:?}", out.len(), out.objects());
    } else {
        for v in values {
            println!("{v}");
        }
    }
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let expr = opts
        .positional
        .first()
        .cloned()
        .ok_or("missing path expression argument")?;
    let mut excluded = Vec::new();
    for name in &opts.exclude {
        let c = opts
            .schema
            .class_named(name)
            .ok_or_else(|| format!("unknown class `{name}` in --exclude"))?;
        excluded.push(c);
    }
    // The bundled university fixture has a handcrafted instance with
    // recognisable answers; any other schema (or an explicit size) gets a
    // deterministic synthetic instance.
    let handcrafted = opts.objects.is_none()
        && opts.links.is_none()
        && opts.fixture_name.as_deref() == Some("university");
    let schema = std::sync::Arc::new(opts.schema);
    let db = if handcrafted {
        university_db(&schema)
    } else {
        ipe::oodb::gendata::populate(
            &schema,
            &ipe::oodb::gendata::DataConfig {
                objects_per_class: opts.objects.unwrap_or(3),
                links_per_rel: opts.links.unwrap_or(4),
                seed: opts.seed,
            },
        )
    };
    let deadline = (opts.deadline_ms > 0)
        .then(|| std::time::Instant::now() + std::time::Duration::from_millis(opts.deadline_ms));
    let qopts = ipe::query::QueryOptions {
        config: CompletionConfig {
            e: opts.e,
            excluded_classes: excluded,
            ..Default::default()
        },
        search_limits: SearchLimits {
            deadline,
            ..Default::default()
        },
        eval_limits: ipe::oodb::EvalLimits {
            deadline,
            ..Default::default()
        },
    };
    let out = ipe::query::query(&db, &expr, &qopts).map_err(|e| e.to_string())?;
    println!(
        "{} completion(s) at e={} over {} object(s) / {} link(s):",
        out.completions.len(),
        opts.e,
        db.object_count(),
        db.link_count()
    );
    for (i, c) in out.completions.iter().enumerate() {
        println!("  [{i}] {}", c.display(&schema));
    }
    println!(
        "{} answer(s): {} certain, {} possible",
        out.answers.len(),
        out.certain,
        out.possible()
    );
    for a in &out.answers {
        println!(
            "  {} {}  via {:?}",
            if a.certain { "certain " } else { "possible" },
            a.answer,
            a.completions
        );
    }
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let gen = generate_schema(&GenConfig {
        classes: opts.classes,
        seed: opts.seed,
        ..GenConfig::default()
    });
    println!("{}", gen.schema.to_json());
    Ok(())
}

fn cmd_dot(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let rendered = dot::to_dot(
        &opts.schema,
        &dot::DotOptions {
            show_inverses: opts.inverses,
            show_attributes: true,
        },
    );
    println!("{rendered}");
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    if opts.trace {
        eprintln!("note: --trace applies to per-query commands; serve exposes /metrics instead");
    }
    let config = ServiceConfig {
        addr: opts.addr.clone(),
        reactors: opts.reactors,
        queue_depth: opts.queue_depth,
        request_timeout: std::time::Duration::from_millis(opts.timeout_ms),
        cache_bytes: opts.cache_bytes,
        batch_threads: opts.batch_threads,
        data_dir: opts.data_dir.clone().map(std::path::PathBuf::from),
        fsync: opts.fsync,
        snapshot_every: opts.snapshot_every,
        index_mode: opts
            .index_mode
            .unwrap_or(ServiceConfig::default().index_mode),
        trace_sample_n: opts.trace_sample_n,
        slow_ms: opts.slow_ms,
        flight_capacity: opts.flight_capacity,
        access_log: opts.access_log,
        follow: opts.follow.clone(),
    };
    let server =
        Server::start(config).map_err(|e| format!("cannot start on {}: {e}", opts.addr))?;
    if let Some(leader) = &opts.follow {
        // A follower's registry is the leader's — seeding `default`
        // locally would fork the replicated history.
        println!("(read-only follower of leader at {leader})");
    } else {
        // A recovered data directory may already hold `default` (possibly
        // a hot-swapped generation); re-inserting would bump its
        // generation and write a WAL record on every restart, so only
        // seed it when absent.
        match server.state().registry.get("default") {
            None => {
                let json = opts.schema.to_json();
                server
                    .register_schema("default", opts.schema, &json)
                    .map_err(|e| format!("cannot persist default schema: {e}"))?;
            }
            Some(entry) => println!(
                "(default schema recovered from data dir at generation {})",
                entry.generation
            ),
        }
    }
    // The address on its own line, so scripts can scrape the ephemeral
    // port (stdout is line-buffered even when piped).
    println!("ipe-service listening on http://{}", server.addr());
    let reactors_desc = if opts.reactors == 0 {
        "one per core".to_owned()
    } else {
        opts.reactors.to_string()
    };
    println!(
        "({} reactor(s), {} connection(s) per reactor, cache budget {} bytes per tenant, request timeout {}ms)",
        reactors_desc, opts.queue_depth, opts.cache_bytes, opts.timeout_ms
    );
    println!(
        "endpoints: POST /v1/complete  POST /v1/complete/batch  GET /v1/schemas  \
         GET/PUT/DELETE /v1/schemas/:name  GET /healthz  GET /metrics[?format=prometheus]  \
         GET /v1/debug/requests[/:trace_id]  POST /v1/shutdown"
    );
    let state = std::sync::Arc::clone(server.state());
    server.join();
    eprintln!("(server shut down cleanly)");
    if let Some(path) = &opts.report {
        let json = ipe::service::server::metrics_json(&state);
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("(service report written to {path})");
    }
    Ok(())
}

fn cmd_batch(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let file = opts
        .positional
        .first()
        .ok_or("missing batch file argument (one expression per line, `-` for stdin)")?;
    let text = if file == "-" {
        use std::io::Read as _;
        let mut s = String::new();
        std::io::stdin()
            .read_to_string(&mut s)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        s
    } else {
        std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?
    };
    let lines: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let mut asts = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        let ast =
            parse_path_expression(line).map_err(|e| format!("line {}: `{line}`: {e}", i + 1))?;
        asts.push(ast);
    }
    if asts.is_empty() {
        return Err("batch file has no expressions".to_owned());
    }
    let engine = engine_for(&opts)?;
    let batch_opts = BatchOptions {
        threads: opts.threads,
        deadline: (opts.deadline_ms > 0)
            .then(|| std::time::Duration::from_millis(opts.deadline_ms)),
        ..Default::default()
    };
    let started = std::time::Instant::now();
    let out = complete_batch(&engine, &asts, &batch_opts);
    let wall = started.elapsed();
    let mut ok = 0usize;
    let mut timed_out = 0usize;
    let mut failed = 0usize;
    for item in &out {
        let expr = lines[item.index];
        match &item.result {
            Ok(outcome) => {
                ok += 1;
                for c in &outcome.completions {
                    println!(
                        "{expr}\t{}\t[{} semlen {}]",
                        c.display(&opts.schema),
                        c.label.connector,
                        c.label.semlen
                    );
                }
                if outcome.completions.is_empty() {
                    println!("{expr}\t(no completions)");
                }
            }
            Err(e) => {
                if item.deadline_exceeded() {
                    timed_out += 1;
                } else {
                    failed += 1;
                }
                println!("{expr}\terror: {e}");
            }
        }
    }
    eprintln!(
        "({} expression(s) on {} thread(s) in {:.1}ms: {ok} ok, {timed_out} past deadline, {failed} failed)",
        out.len(),
        opts.threads.max(1),
        wall.as_secs_f64() * 1e3,
    );
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let r = ipe::schema::analysis::analyze(&opts.schema);
    println!("classes:          {}", r.classes);
    println!("user classes:     {}", r.user_classes);
    println!("relationships:    {}", r.relationships);
    for (kind, count) in &r.by_kind {
        println!("  {:<14}  {count}", format!("{kind:?}:"));
    }
    println!("max Isa depth:    {}", r.max_isa_depth);
    println!("max out-degree:   {}", r.max_out_degree);
    println!("distinct names:   {}", r.distinct_names);
    println!("most ambiguous relationship names (the interesting `~` targets):");
    for (name, count) in r.ambiguous_names.iter().take(8) {
        println!("  {name:<16} {count} carriers");
    }
    Ok(())
}
