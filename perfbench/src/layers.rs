//! The traced run's per-layer metrics.
//!
//! Three sources, all in the benchmark's own code:
//!
//! * the timed phase the traced run shares with the untraced one: the
//!   server's `duration_ns` per reply, client latency, and `/metrics`
//!   counter deltas;
//! * a replay of a seeded sample of the workload's requests through each
//!   layer's public functions, in the order the server calls them, with a
//!   span around every call: HTTP framing, body decode, tenant admission,
//!   parse, cache probe, search (on a miss), evaluation (for queries),
//!   reply encoding and rendering;
//! * exercises of the layers the workload's requests do not reach on
//!   their own (search, evaluation, schema upload and the store), so that
//!   every layer reports on every workload.
//!
//! A layer's figure is its spans' self time: duration minus the part its
//! child spans cover. Counts come from the engine's own counters over a
//! fixed sample, so they repeat exactly for a seed.

use crate::checks::{self, views};
use crate::fixture::{self, Fixture};
use crate::inputs::{Inputs, SIDE_TENANT};
use crate::stats::{percentile, sorted, tail};
use crate::trace::{self_times_by_name, Tracer};
use crate::wire::{self, request_bytes};
use crate::{delta, main_latencies, metric, side_latencies, Metric, Phase, Workload};
use ipe_core::{Completer, SearchOutcome, SearchStats};
use ipe_index::{IndexMode, IndexedSchema};
use ipe_oodb::{Database, EvalLimits};
use ipe_schema::Schema;
use ipe_service::http::{parse_request, render_response, ParseOutcome};
use ipe_service::{
    config_fingerprint, AnswerView, CacheKey, CompleteRequest, CompleteResponse, CompletionCache,
    QueryRequest, QueryResponse, SchemaRegistry,
};
use ipe_store::{Store, StoreConfig};
use ipe_tenant::{TenantConfig, TenantRegistry};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Requests replayed through the layers.
pub const SAMPLE: usize = 300;
/// Fleet schemas the evaluation exercise loads an instance for.
const DATA_SCHEMAS: usize = 4;
/// Schema uploads replayed through decode, registry and store.
const WRITES: usize = 200;
const SNAPSHOTS: usize = 3;

/// One replayed request: which schema, the query, its `E` and exclusions,
/// the body the client sends and the route it goes to.
struct Req<'a> {
    schema: &'a Schema,
    schema_name: String,
    query: &'a str,
    index: usize,
    body: &'a str,
    path: String,
    exclude: &'a [String],
    e: u64,
}

pub fn traced(
    w: Workload,
    inputs: &Inputs,
    fx: &Fixture,
    phase: &Phase,
    seed: u64,
) -> Result<Vec<Metric>, String> {
    let mut t = Tracer::new();
    let reqs = sample(w, inputs);
    let indexes = build_indexes(w, inputs, &mut t);
    let dbs = load_dbs(w, inputs, &mut t);
    let handler_ns = server_time(fx, &reqs)?;
    let covered_ns = replay(w, &reqs, &indexes, &dbs, &mut t)?;
    let core = core_exercise(&reqs, &indexes, &mut t)?;
    let evals = eval_exercise(&reqs, &core.outcomes, &dbs, &mut t)?;
    let store = write_exercise(inputs, seed, &mut t)?;

    let path = PathBuf::from(crate::OUT_DIR).join(format!("spans-{}-seed{seed}.jsonl", w.name()));
    t.write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    let by = self_times_by_name(t.spans());
    let p50_us = |name: &str| {
        by.get(name)
            .map_or(0.0, |v| us(percentile(&ns_sorted(v), 0.5)))
    };
    let ms_at = |name: &str, p: f64| {
        by.get(name)
            .map_or(0.0, |v| us(percentile(&ns_sorted(v), p)) / 1e3)
    };

    let ok: Vec<_> = phase.main.iter().filter(|r| r.status == 200).collect();
    let frontend = sorted(
        ok.iter()
            .map(|r| us(r.latency_ns.saturating_sub(r.server_ns) as f64))
            .collect(),
    );
    let handler = sorted(ok.iter().map(|r| us(r.server_ns as f64)).collect());
    let hits = delta(phase, &["service", "cache", "hits"])?;
    let misses = delta(phase, &["service", "cache", "misses"])?;
    let indexed = delta(phase, &["service", "index", "completes_indexed"])?;
    let unindexed = delta(phase, &["service", "index", "completes_unindexed"])?;
    let s = core.stats;
    let pruned = s.pruned_visited
        + s.pruned_best_t
        + s.pruned_best_u
        + s.depth_limited
        + s.pruned_index_unreachable
        + s.pruned_index_bound;
    let search_ns: f64 = by
        .get("core.search")
        .map_or(0.0, |v| v.iter().sum::<u64>() as f64);
    let eval_ns: f64 = by
        .get("query.eval")
        .map_or(0.0, |v| v.iter().sum::<u64>() as f64);
    let path_ns: f64 = by
        .get("oodb.path_eval")
        .map_or(0.0, |v| v.iter().sum::<u64>() as f64);
    Ok(vec![
        metric("frontend.us_p50", percentile(&frontend, 0.5), "us"),
        metric("http.parse_us", p50_us("http.parse"), "us"),
        metric("http.render_us", p50_us("http.render"), "us"),
        metric("handler.us_p50", percentile(&handler, 0.5), "us"),
        metric("handler.us_p99", percentile(&handler, 0.99), "us"),
        metric("service.decode_us", p50_us("service.decode"), "us"),
        metric("service.encode_us", p50_us("service.encode"), "us"),
        metric("tenant.admit_us", p50_us("tenant.admit"), "us"),
        metric("parser.parse_us", p50_us("parser.parse"), "us"),
        metric("cache.probe_us", p50_us("cache.probe"), "us"),
        metric("cache.hit_ratio", ratio(hits, hits + misses), "ratio"),
        metric(
            "cache.evictions",
            delta(phase, &["service", "cache", "evictions"])? as f64,
            "count",
        ),
        metric(
            "cache.bytes",
            wire::u64_at(&phase.after, &["service", "cache", "bytes"])? as f64,
            "bytes",
        ),
        metric("core.search_ms_p50", ms_at("core.search", 0.5), "ms"),
        metric("core.search_ms_p99", ms_at("core.search", 0.99), "ms"),
        metric(
            "core.calls_per_search",
            ratio(s.calls, core.searches),
            "count",
        ),
        metric("core.ns_per_call", search_ns / s.calls.max(1) as f64, "ns"),
        metric(
            "core.edges_per_call",
            ratio(s.edges_considered, s.calls),
            "count",
        ),
        metric(
            "core.pruned_ratio",
            ratio(pruned, s.edges_considered),
            "ratio",
        ),
        metric(
            "core.recorded_per_returned",
            ratio(s.completions_recorded, core.returned),
            "ratio",
        ),
        metric("index.build_ms", ms_at("index.build", 0.5), "ms"),
        metric(
            "index.pruned_unreachable",
            s.pruned_index_unreachable as f64,
            "count",
        ),
        metric("index.pruned_bound", s.pruned_index_bound as f64, "count"),
        metric(
            "index.segment_rejections",
            s.index_segment_rejections as f64,
            "count",
        ),
        metric(
            "index.unindexed_ratio",
            ratio(unindexed, indexed + unindexed),
            "ratio",
        ),
        metric("query.eval_ms_p50", ms_at("query.eval", 0.5), "ms"),
        metric("query.eval_ms_p99", ms_at("query.eval", 0.99), "ms"),
        metric("oodb.path_eval_ms", path_ms_p50(&t), "ms"),
        metric(
            "query.merge_share",
            (1.0 - path_ns / eval_ns.max(1.0)).max(0.0),
            "ratio",
        ),
        metric(
            "oodb.visited_per_query",
            ratio(evals.visited, evals.queries),
            "count",
        ),
        metric(
            "query.answers_per_query",
            ratio(evals.answers, evals.queries),
            "count",
        ),
        metric("oodb.load_ms", ms_at("oodb.load", 0.5), "ms"),
        metric("store.append_ms_p50", ms_at("store.append", 0.5), "ms"),
        metric("store.append_ms_p99", ms_at("store.append", 0.99), "ms"),
        metric("store.snapshot_ms", ms_at("store.snapshot", 0.5), "ms"),
        metric(
            "store.bytes_per_user_byte",
            store.bytes_per_user_byte,
            "ratio",
        ),
        metric("registry.insert_us", p50_us("registry.insert"), "us"),
        metric("schema.decode_ms", ms_at("schema.decode", 0.5), "ms"),
        metric("loadgen.late_max_ms", phase.late_max_ms, "ms"),
        metric(
            "latency_p99_ms",
            tail(&main_latencies(phase), 0.99, "latency")?,
            "ms",
        ),
        metric(
            "probe_p99_ms",
            tail(&side_latencies(phase, true), 0.99, "probe latency")?,
            "ms",
        ),
        metric(
            "write_p99_ms",
            tail(&side_latencies(phase, false), 0.99, "write latency")?,
            "ms",
        ),
        metric(
            "trace.coverage_ratio",
            covered_ns / handler_ns.max(1.0),
            "ratio",
        ),
    ])
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn ns_sorted(v: &[u64]) -> Vec<f64> {
    sorted(v.iter().map(|&x| x as f64).collect())
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Median over queries of the summed `oodb.path_eval` time of each query.
fn path_ms_p50(t: &Tracer) -> f64 {
    let mut per_query: BTreeMap<u64, u64> = BTreeMap::new();
    for s in t.spans().iter().filter(|s| s.name == "oodb.path_eval") {
        *per_query.entry(s.request).or_default() += s.end - s.start;
    }
    percentile(
        &sorted(per_query.values().map(|&v| v as f64).collect()),
        0.5,
    ) / 1e6
}

/// A seeded sample of the workload's own requests. `cold_search` takes
/// keys its timed phase did not send, so the server meets them cold too.
fn sample<'a>(w: Workload, inputs: &'a Inputs) -> Vec<Req<'a>> {
    if w == Workload::SchemaChurn {
        let churn = &inputs.churn;
        return churn
            .reads
            .iter()
            .cycle()
            .take(SAMPLE)
            .map(|(s, query, e, body)| Req {
                schema: &churn.schemas[*s][0],
                schema_name: churn.names[*s].clone(),
                query,
                index: *s,
                body,
                path: format!("/v1/t/{SIDE_TENANT}/complete"),
                exclude: &[],
                e: *e,
            })
            .collect();
    }
    // `cold_search` keeps its last keys out of the timed phase for this.
    let skip = if w == Workload::ColdSearch {
        inputs.keys.len().saturating_sub(SAMPLE)
    } else {
        0
    };
    let path = if w == Workload::QueryEval {
        "/v1/query"
    } else {
        "/v1/complete"
    };
    inputs
        .keys
        .iter()
        .skip(skip)
        .take(SAMPLE)
        .map(|k| {
            let fs = &inputs.fleet[k.schema];
            Req {
                schema: &fs.schema,
                schema_name: fs.name.clone(),
                query: &k.query,
                index: k.schema,
                body: &k.body,
                path: path.to_owned(),
                exclude: if k.exclude_hubs { &fs.hub_names } else { &[] },
                e: k.e,
            }
        })
        .collect()
}

/// The schemas the workload's requests name, fleet or churn.
fn schemas(w: Workload, inputs: &Inputs) -> Vec<&Schema> {
    if w == Workload::SchemaChurn {
        inputs.churn.schemas.iter().map(|v| &v[0]).collect()
    } else {
        inputs.fleet.iter().map(|f| &f.schema).collect()
    }
}

fn build_indexes(w: Workload, inputs: &Inputs, t: &mut Tracer) -> Vec<Arc<IndexedSchema>> {
    schemas(w, inputs)
        .into_iter()
        .enumerate()
        .map(|(i, schema)| {
            let root = t.begin("index", None, i as u64);
            let span = t.begin("index.build", Some(root), i as u64);
            let ix = Arc::new(IndexedSchema::build(schema, IndexMode::On));
            t.end(span);
            t.end(root);
            ix
        })
        .collect()
}

/// The generated instances: the workload's own for `query_eval`, the same
/// size on the first few schemas otherwise.
fn load_dbs(w: Workload, inputs: &Inputs, t: &mut Tracer) -> Vec<Database> {
    let cfg = inputs.data.unwrap_or(ipe_gen::DataGenConfig {
        objects_per_class: crate::inputs::plan(Workload::QueryEval).objects_per_class,
        links_per_rel: crate::inputs::plan(Workload::QueryEval).links_per_rel,
        seed: Some(17),
    });
    let limit = if w == Workload::QueryEval {
        usize::MAX
    } else {
        DATA_SCHEMAS
    };
    schemas(w, inputs)
        .into_iter()
        .take(limit)
        .enumerate()
        .map(|(i, schema)| {
            let root = t.begin("data", None, i as u64);
            let span = t.begin("oodb.load", Some(root), i as u64);
            let db = ipe_gen::generate_database(&Arc::new(schema.clone()), &cfg);
            t.end(span);
            t.end(root);
            db
        })
        .collect()
}

/// Sends each sampled request to the server once, after the timed phase,
/// and returns the summed server `duration_ns`.
fn server_time(fx: &Fixture, reqs: &[Req]) -> Result<f64, String> {
    let mut conn = fx.conn()?;
    let mut total = 0.0;
    for r in reqs {
        let reply = conn
            .call("POST", &r.path, r.body)
            .map_err(|e| format!("coverage request: {e}"))?;
        if !reply.ok() {
            return Err(format!(
                "coverage request {}: HTTP {}",
                r.body, reply.status
            ));
        }
        total += wire::scan_u64(&reply.body, "duration_ns").unwrap_or(0) as f64;
    }
    Ok(total)
}

/// Replays each sampled request through the layers in server order and
/// returns the time the layer spans inside the handler cover, the part
/// the server's `duration_ns` should account for.
fn replay(
    w: Workload,
    reqs: &[Req],
    indexes: &[Arc<IndexedSchema>],
    dbs: &[Database],
    t: &mut Tracer,
) -> Result<f64, String> {
    let tenants = TenantRegistry::new(TenantConfig::default());
    let tenant = tenants.get("default").expect("the default tenant exists");
    let cache = CompletionCache::new(4096, 16);
    // Keys the server had primed are cached here too; the others are
    // searched on first touch and cached, as on the server.
    if matches!(w, Workload::WarmComplete | Workload::QueryEval) {
        for r in reqs {
            let (key, outcome) = search(r, &indexes[r.index])?;
            cache.insert(key, Arc::new(outcome));
        }
    }
    let mut covered = 0u64;
    for (i, r) in reqs.iter().enumerate() {
        let id = 1_000_000 + i as u64;
        let root = t.begin("request", None, id);

        let s = t.begin("http.parse", Some(root), id);
        let bytes = request_bytes("POST", &r.path, r.body);
        let framed = matches!(parse_request(&bytes), ParseOutcome::Ok { .. });
        t.end(s);
        if !framed {
            return Err(format!("{}: the HTTP parser rejected the request", r.body));
        }

        let s = t.begin("service.decode", Some(root), id);
        let decoded = if w == Workload::QueryEval {
            serde_json::from_str::<QueryRequest>(r.body).map(|q| q.query)
        } else {
            serde_json::from_str::<CompleteRequest>(r.body).map(|q| q.query)
        }
        .map_err(|e| e.to_string())?;
        t.end(s);

        let s = t.begin("tenant.admit", Some(root), id);
        let _ = tenant.admit_request();
        t.end(s);

        let handler = t.begin("handler", Some(root), id);
        let s = t.begin("parser.parse", Some(handler), id);
        let ast = ipe_parser::parse_path_expression(&decoded).map_err(|e| e.to_string())?;
        t.end(s);
        let cfg = checks::config(r.schema, r.e, r.exclude);
        let key = CacheKey {
            schema_id: r.index as u64,
            generation: 1,
            query: ast.to_string(),
            fingerprint: config_fingerprint(&cfg),
        };
        let s = t.begin("cache.probe", Some(handler), id);
        let probe = cache.get(&key);
        t.end(s);
        let outcome = match probe {
            Some(hit) => hit,
            None => {
                let s = t.begin("core.search", Some(handler), id);
                let mut engine = Completer::with_config(r.schema, cfg);
                engine.attach_index(Arc::clone(&indexes[r.index]));
                let outcome = engine
                    .complete_with_stats(&ast)
                    .map_err(|e| e.to_string())?;
                t.end(s);
                let outcome = Arc::new(outcome);
                cache.insert(key, Arc::clone(&outcome));
                outcome
            }
        };
        let mut answers = None;
        if w == Workload::QueryEval {
            let s = t.begin("query.eval", Some(handler), id);
            let merged = ipe_query::evaluate_completions(
                &dbs[r.index],
                &outcome.completions,
                &EvalLimits::default(),
            )
            .map_err(|e| e.to_string())?;
            t.end(s);
            answers = Some(merged);
        }
        t.end(handler);
        covered += t.spans()[handler + 1..]
            .iter()
            .filter(|s| s.parent == Some(handler))
            .map(|s| s.end - s.start)
            .sum::<u64>();

        let s = t.begin("service.encode", Some(root), id);
        let body = encode(r, &outcome, answers.as_ref())?;
        t.end(s);
        let s = t.begin("http.render", Some(root), id);
        std::hint::black_box(render_response(200, "application/json", &body, true, &[]));
        t.end(s);
        t.end(root);
    }
    Ok(covered as f64)
}

/// The reply body the server would encode for this outcome.
fn encode(
    r: &Req,
    outcome: &SearchOutcome,
    merged: Option<&ipe_query::QueryOutcome>,
) -> Result<String, String> {
    let completions = views(r.schema, &outcome.completions);
    let json = match merged {
        None => serde_json::to_string(&CompleteResponse {
            schema: r.schema_name.clone(),
            generation: 1,
            query: r.query.to_owned(),
            cached: true,
            duration_ns: 0,
            completions,
            stats: outcome.stats,
        }),
        Some(m) => serde_json::to_string(&QueryResponse {
            schema: r.schema_name.clone(),
            generation: 1,
            data_generation: 1,
            query: r.query.to_owned(),
            e: r.e,
            cached: true,
            duration_ns: 0,
            completions,
            answers: m.answers.iter().map(answer_view).collect(),
            certain: m.certain as u64,
            possible: m.possible() as u64,
            visited: m.visited,
            stats: outcome.stats,
        }),
    };
    json.map_err(|e| e.to_string())
}

fn answer_view(a: &ipe_query::ProvenanceAnswer) -> AnswerView {
    let (kind, object, value) = match &a.answer {
        ipe_query::Answer::Object(o) => ("object", Some(o.0 as u64), None),
        ipe_query::Answer::Value(v) => ("value", None, Some(v.to_string())),
    };
    AnswerView {
        kind: kind.to_owned(),
        object,
        value,
        certain: a.certain,
        completions: a.completions.iter().map(|&i| i as u64).collect(),
    }
}

fn search(r: &Req, index: &Arc<IndexedSchema>) -> Result<(CacheKey, SearchOutcome), String> {
    let cfg = checks::config(r.schema, r.e, r.exclude);
    let ast = ipe_parser::parse_path_expression(r.query).map_err(|e| e.to_string())?;
    let key = CacheKey {
        schema_id: r.index as u64,
        generation: 1,
        query: ast.to_string(),
        fingerprint: config_fingerprint(&cfg),
    };
    let mut engine = Completer::with_config(r.schema, cfg);
    engine.attach_index(Arc::clone(index));
    let outcome = engine
        .complete_with_stats(&ast)
        .map_err(|e| e.to_string())?;
    Ok((key, outcome))
}

struct Core {
    stats: SearchStats,
    searches: u64,
    returned: u64,
    outcomes: Vec<SearchOutcome>,
}

/// Every sampled key searched cold with the index attached, as the server
/// does on a miss.
fn core_exercise(
    reqs: &[Req],
    indexes: &[Arc<IndexedSchema>],
    t: &mut Tracer,
) -> Result<Core, String> {
    let mut core = Core {
        stats: SearchStats::default(),
        searches: 0,
        returned: 0,
        outcomes: Vec::with_capacity(reqs.len()),
    };
    for (i, r) in reqs.iter().enumerate() {
        let id = 2_000_000 + i as u64;
        let root = t.begin("search", None, id);
        let s = t.begin("core.search", Some(root), id);
        let (_, outcome) = search(r, &indexes[r.index])?;
        t.end(s);
        t.end(root);
        let st = outcome.stats;
        core.stats.calls += st.calls;
        core.stats.edges_considered += st.edges_considered;
        core.stats.pruned_visited += st.pruned_visited;
        core.stats.pruned_best_t += st.pruned_best_t;
        core.stats.pruned_best_u += st.pruned_best_u;
        core.stats.depth_limited += st.depth_limited;
        core.stats.pruned_index_unreachable += st.pruned_index_unreachable;
        core.stats.pruned_index_bound += st.pruned_index_bound;
        core.stats.index_segment_rejections += st.index_segment_rejections;
        core.stats.completions_recorded += st.completions_recorded;
        core.searches += 1;
        core.returned += outcome.completions.len() as u64;
        core.outcomes.push(outcome);
    }
    Ok(core)
}

struct Evals {
    queries: u64,
    visited: u64,
    answers: u64,
}

/// Each sampled key with a loaded instance, evaluated twice: through the
/// query layer (`evaluate_completions`) and completion by completion
/// through `Database::eval_path`, so the merge's share shows.
fn eval_exercise(
    reqs: &[Req],
    outcomes: &[SearchOutcome],
    dbs: &[Database],
    t: &mut Tracer,
) -> Result<Evals, String> {
    let mut ev = Evals {
        queries: 0,
        visited: 0,
        answers: 0,
    };
    for (i, (r, outcome)) in reqs.iter().zip(outcomes).enumerate() {
        let Some(db) = dbs.get(r.index) else {
            continue;
        };
        if outcome.completions.is_empty() {
            continue;
        }
        let id = 3_000_000 + i as u64;
        let root = t.begin("query", None, id);
        let s = t.begin("query.eval", Some(root), id);
        let merged =
            ipe_query::evaluate_completions(db, &outcome.completions, &EvalLimits::default())
                .map_err(|e| e.to_string())?;
        t.end(s);
        t.end(root);
        let root = t.begin("paths", None, id);
        for c in &outcome.completions {
            let s = t.begin("oodb.path_eval", Some(root), id);
            db.eval_path(c.root, &c.edges, &EvalLimits::default())
                .map_err(|e| e.to_string())?;
            t.end(s);
        }
        t.end(root);
        ev.queries += 1;
        ev.visited += merged.visited;
        ev.answers += merged.possible() as u64;
    }
    Ok(ev)
}

struct StoreFigures {
    bytes_per_user_byte: f64,
}

/// The schema-upload path the side writer drives, call by call: decode,
/// registry hot-swap, WAL append under the run's fsync policy, and a few
/// snapshots.
fn write_exercise(inputs: &Inputs, seed: u64, t: &mut Tracer) -> Result<StoreFigures, String> {
    let dir = PathBuf::from(crate::OUT_DIR).join(format!("layers-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = StoreConfig {
        fsync: fixture::FSYNC,
        snapshot_every: ipe_service::ServiceConfig::default().snapshot_every,
        ..StoreConfig::new(&dir)
    };
    let (mut store, _) = Store::open(&config).map_err(|e| format!("store: {e}"))?;
    let registry = SchemaRegistry::new();
    let churn = &inputs.churn;
    let mut user_bytes = 0u64;
    for i in 0..WRITES {
        let name = i % churn.names.len();
        let json = &churn.variants[name][(i / churn.names.len()) % 2];
        let id = 4_000_000 + i as u64;
        let root = t.begin("write", None, id);
        let s = t.begin("schema.decode", Some(root), id);
        let schema = Schema::from_json(json).map_err(|e| e.to_string())?;
        t.end(s);
        let s = t.begin("registry.insert", Some(root), id);
        let entry = registry.insert(&churn.names[name], schema);
        t.end(s);
        let s = t.begin("store.append", Some(root), id);
        store
            .append_put(
                SIDE_TENANT,
                &churn.names[name],
                entry.id,
                entry.generation,
                json,
            )
            .map_err(|e| format!("store: {e}"))?;
        t.end(s);
        t.end(root);
        user_bytes += json.len() as u64;
    }
    let stored = dir_bytes(&dir);
    for i in 0..SNAPSHOTS {
        let id = 5_000_000 + i as u64;
        let root = t.begin("compact", None, id);
        let s = t.begin("store.snapshot", Some(root), id);
        store.snapshot_now().map_err(|e| format!("store: {e}"))?;
        t.end(s);
        t.end(root);
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(StoreFigures {
        bytes_per_user_byte: ratio(stored, user_bytes),
    })
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
