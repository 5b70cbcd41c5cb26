//! The search routes: `POST /v1/complete`, `/v1/complete/batch`, and
//! `/v1/query`. All three share one prelude (decode, tenant defaults,
//! registry lookup, read admission); complete and query also share one
//! probe-or-search path through the tenant's cache partition.

use super::dispatch::{decode, elapsed_ns, Handled, Reply, ReqObs};
use super::ServiceState;
use crate::api::{
    completion_views, AnswerView, BatchCompleteRequest, BatchCompleteResponse, BatchItemView,
    CompleteRequest, CompleteResponse, QueryRequest, QueryResponse,
};
use crate::cache::{config_fingerprint, CacheKey, CachedReply};
use crate::http::Request;
use crate::SchemaEntry;
use ipe_core::{
    complete_batch, BatchOptions, CompleteError, Completer, CompletionConfig, SearchLimits,
};
use ipe_oodb::EvalLimits;
use ipe_parser::{parse_path_expression, PathExprAst};
use ipe_query::{evaluate_completions, Answer, QueryError};
use ipe_tenant::{scoped_name, split_scoped, Tenant, TenantConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard cap on `queries` per batch request; more is a `400`.
const MAX_BATCH_ITEMS: usize = 256;
/// Per-item deadline applied when a batch request does not set one.
const DEFAULT_BATCH_DEADLINE_MS: u64 = 2_000;
/// Wall-clock budget of a `POST /v1/query` when neither the request nor
/// its tenant sets `deadline_ms`.
const DEFAULT_QUERY_DEADLINE_MS: u64 = 2_000;
/// Upper bound on a requested per-item deadline.
const MAX_BATCH_DEADLINE_MS: u64 = 60_000;
/// Upper bound on a requested batch thread count.
pub(super) const MAX_BATCH_THREADS: u64 = 16;
/// Upper bound on a requested query deadline.
const MAX_QUERY_DEADLINE_MS: u64 = 60_000;

/// Fills the `e` and `pruning` a request left unset from its tenant's
/// defaults.
fn tenant_defaults(tcfg: &TenantConfig, e: &mut Option<u64>, pruning: &mut Option<String>) {
    if e.is_none() {
        *e = tcfg.default_e;
    }
    if pruning.is_none() {
        pruning.clone_from(&tcfg.default_pruning);
    }
}

/// An engine for one cache miss over `entry`, with the schema's index
/// attached once its background build has landed. Counts the miss in
/// `service.index` as indexed or not, and returns whether it is.
fn engine_for<'s>(
    state: &ServiceState,
    entry: &'s SchemaEntry,
    cfg: CompletionConfig,
) -> (Completer<'s>, bool) {
    let mut engine = Completer::with_config(&entry.schema, cfg);
    let indexed = entry.index().is_some_and(|ix| engine.attach_index(ix));
    let counters = &state.counters.index;
    if indexed {
        counters.completes_indexed.incr();
    } else {
        counters.completes_unindexed.incr();
    }
    (engine, indexed)
}

/// Resolves the schema a search names, under generation-aware read
/// admission (see [`admit_read`]); an unknown schema is a `404`.
fn lookup(
    state: &ServiceState,
    tenant: &Tenant,
    name: &str,
    min_generation: Option<u64>,
    obs: &ReqObs,
) -> Result<Arc<SchemaEntry>, Reply> {
    let key_name = scoped_name(tenant.name(), name);
    let mut lookup_span = obs.span.child("registry.lookup");
    lookup_span.note(&key_name);
    let entry = state.registry.get(&key_name);
    lookup_span.attr("found", entry.is_some() as u64);
    lookup_span.finish();
    if let Some(refused) = admit_read(state, name, entry.as_ref(), min_generation) {
        return Err(refused);
    }
    entry.ok_or_else(|| Reply::error(404, &format!("no schema named `{name}`")))
}

/// Parses the query text in a `parse` span; a syntax error is a `400`.
fn parse(query: &str, obs: &ReqObs) -> Result<PathExprAst, Reply> {
    let mut parse_span = obs.span.child("parse");
    parse_span.note(query);
    let ast = parse_path_expression(query).map_err(|e| Reply::error(400, &e.to_string()))?;
    parse_span.finish();
    Ok(ast)
}

/// A request's engine configuration error is a `400`.
fn bad_config(msg: String) -> Reply {
    Reply::error(400, &msg)
}

/// One cached search: the cache entry, whether the cache answered, and
/// the normalized query text it is keyed under.
struct Searched {
    reply: Arc<CachedReply>,
    cached: bool,
    query: String,
}

/// Answers `ast` from the tenant's cache partition, or runs the engine
/// (indexed when the entry's index is built) and caches the outcome with
/// its encoded reply fragment. Engine rejections are `422`; a search
/// past `deadline` is `504`.
fn probe_or_search(
    state: &ServiceState,
    tenant: &Tenant,
    entry: &SchemaEntry,
    ast: &PathExprAst,
    cfg: CompletionConfig,
    deadline: Option<Instant>,
    obs: &mut ReqObs,
) -> Result<Searched, Reply> {
    let query = ast.to_string();
    let key = CacheKey {
        schema_id: entry.id,
        generation: entry.generation,
        query: query.clone(),
        fingerprint: config_fingerprint(&cfg),
    };
    let cache = state.caches.partition(tenant.name());
    let mut probe_span = obs.span.child("cache.probe");
    let probe = cache.get(&key);
    probe_span.attr("hit", probe.is_some() as u64);
    probe_span.finish();
    if let Some(reply) = probe {
        obs.cache_hit = Some(true);
        return Ok(Searched {
            reply,
            cached: true,
            query,
        });
    }
    let (engine, indexed) = engine_for(state, entry, cfg);
    let mut search_span = obs.span.child("search");
    search_span.attr("indexed", indexed as u64);
    let limits = SearchLimits {
        deadline,
        span: search_span.handle(),
        ..SearchLimits::default()
    };
    let outcome = match engine.complete_bounded(ast, &limits) {
        Ok(outcome) => outcome,
        Err(CompleteError::DeadlineExceeded) => {
            ipe_obs::counter!("query.deadline_exceeded", 1);
            return Err(Reply::error(504, "query deadline exceeded during search"));
        }
        Err(e) => return Err(Reply::error(422, &e.to_string())),
    };
    search_span.attr("calls", outcome.stats.calls);
    search_span.finish();
    obs.search.absorb(outcome.stats);
    obs.cache_hit = Some(false);
    Ok(Searched {
        reply: cache.insert_reply(key, &entry.schema, outcome),
        cached: false,
        query,
    })
}

/// `POST /v1/complete`.
pub(super) fn handle_complete(
    state: &Arc<ServiceState>,
    req: &Request,
    tenant: &Arc<Tenant>,
    obs: &mut ReqObs,
) -> Handled {
    let mut parsed: CompleteRequest = decode(req)?;
    tenant_defaults(&tenant.config(), &mut parsed.e, &mut parsed.pruning);
    let started = Instant::now();
    let name = parsed.schema_name();
    let entry = lookup(state, tenant, name, parsed.min_generation, obs)?;
    let ast = parse(&parsed.query, obs)?;
    let cfg = parsed.config(&entry.schema).map_err(bad_config)?;
    let searched = probe_or_search(state, tenant, &entry, &ast, cfg, None, obs)?;
    if let Some(warmup) = &state.warmup {
        warmup.record(&entry.name, &searched.query);
    }
    let head = CompleteResponse::encode_head(
        split_scoped(&entry.name).1,
        entry.generation,
        &searched.query,
        searched.cached,
        elapsed_ns(started),
    );
    Ok(Reply::spliced(200, head, searched.reply))
}

/// `POST /v1/complete/batch`: per-item parse and cache probe, then one
/// parallel engine batch over the misses.
pub(super) fn handle_batch(
    state: &Arc<ServiceState>,
    req: &Request,
    tenant: &Arc<Tenant>,
    obs: &mut ReqObs,
) -> Handled {
    let mut parsed: BatchCompleteRequest = decode(req)?;
    if parsed.queries.len() > MAX_BATCH_ITEMS {
        return Err(Reply::error(
            400,
            &format!(
                "batch of {} queries exceeds the cap of {MAX_BATCH_ITEMS}",
                parsed.queries.len()
            ),
        ));
    }
    let tcfg = tenant.config();
    tenant_defaults(&tcfg, &mut parsed.e, &mut parsed.pruning);
    let started = Instant::now();
    let name = parsed.schema_name();
    let entry = lookup(state, tenant, name, parsed.min_generation, obs)?;
    let cache = state.caches.partition(tenant.name());
    let cfg = parsed.config(&entry.schema).map_err(bad_config)?;
    let deadline_ms = parsed
        .deadline_ms
        .or(tcfg.deadline_ms)
        .unwrap_or(DEFAULT_BATCH_DEADLINE_MS)
        .min(MAX_BATCH_DEADLINE_MS);
    let threads = parsed
        .threads
        .unwrap_or(state.batch_threads as u64)
        .clamp(1, MAX_BATCH_THREADS) as usize;
    let fingerprint = config_fingerprint(&cfg);
    let item = |query: String, status: &str, cached: bool, duration_ns: u64| BatchItemView {
        query,
        status: status.to_owned(),
        cached,
        duration_ns,
        error: None,
        completions: Vec::new(),
    };

    // First pass: parse and probe the cache per item. Parse failures and
    // cache hits resolve immediately; misses collect into one parallel
    // engine batch.
    let mut prepare_span = obs.span.child("batch.prepare");
    prepare_span.attr("items", parsed.queries.len() as u64);
    let mut views: Vec<Option<BatchItemView>> = (0..parsed.queries.len()).map(|_| None).collect();
    let mut miss_slots: Vec<usize> = Vec::new();
    let mut miss_keys: Vec<CacheKey> = Vec::new();
    let mut miss_asts: Vec<PathExprAst> = Vec::new();
    for (i, query) in parsed.queries.iter().enumerate() {
        match parse_path_expression(query) {
            Err(e) => {
                views[i] = Some(BatchItemView {
                    error: Some(e.to_string()),
                    ..item(query.clone(), "error", false, 0)
                });
            }
            Ok(ast) => {
                let key = CacheKey {
                    schema_id: entry.id,
                    generation: entry.generation,
                    query: ast.to_string(),
                    fingerprint,
                };
                if let Some(hit) = cache.get(&key) {
                    views[i] = Some(BatchItemView {
                        completions: completion_views(&entry.schema, &hit.outcome),
                        ..item(key.query, "ok", true, 0)
                    });
                } else {
                    miss_slots.push(i);
                    miss_keys.push(key);
                    miss_asts.push(ast);
                }
            }
        }
    }
    let resolved = views.iter().filter(|v| v.is_some()).count();
    prepare_span.attr("resolved", resolved as u64);
    prepare_span.attr("misses", miss_asts.len() as u64);
    prepare_span.finish();

    // Second pass: the misses, fanned over the batch work pool. Only `ok`
    // results enter the cache — a deadline hit is a property of this
    // run's budget, not of the query.
    let mut deadline_hits = 0u64;
    if !miss_asts.is_empty() {
        let mut fanout_span = obs.span.child("batch");
        fanout_span.attr("misses", miss_asts.len() as u64);
        fanout_span.attr("threads", threads as u64);
        let opts = BatchOptions {
            threads,
            deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
            cancel: None,
            span: fanout_span.handle(),
        };
        let (engine, _) = engine_for(state, &entry, cfg);
        let out = complete_batch(&engine, &miss_asts, &opts);
        fanout_span.finish();
        for done in out {
            let key = miss_keys[done.index].clone();
            let query = key.query.clone();
            views[miss_slots[done.index]] = Some(match done.result {
                Ok(outcome) => {
                    obs.search.absorb(outcome.stats);
                    let reply = cache.insert_reply(key, &entry.schema, outcome);
                    let completions = completion_views(&entry.schema, &reply.outcome);
                    BatchItemView {
                        completions,
                        ..item(query, "ok", false, done.duration_ns)
                    }
                }
                Err(e) => {
                    let status = if matches!(e, CompleteError::DeadlineExceeded) {
                        deadline_hits += 1;
                        "deadline_exceeded"
                    } else {
                        "error"
                    };
                    BatchItemView {
                        error: Some(e.to_string()),
                        ..item(query, status, false, done.duration_ns)
                    }
                }
            });
        }
    }

    let response = BatchCompleteResponse {
        schema: split_scoped(&entry.name).1.to_owned(),
        generation: entry.generation,
        deadline_ms,
        threads: threads as u64,
        wall_ns: elapsed_ns(started),
        deadline_hits,
        items: views
            .into_iter()
            .map(|v| v.expect("every batch slot resolved"))
            .collect(),
    };
    // The batch as a whole "hit" only when every query resolved from
    // cache (no fan-out ran).
    obs.cache_hit = Some(response.items.iter().all(|v| v.cached));
    Ok(Reply::serialize(200, &response))
}

/// `POST /v1/query`: disambiguate an incomplete expression (through the
/// completion cache) and evaluate the top-E completions against the
/// schema's loaded data, answering with the certain/possible partition
/// and per-answer provenance.
///
/// Error mapping: unknown schema or no loaded data → `404`; data loaded
/// against an older schema generation → `409`; unparsable body or query →
/// `400`; already-complete expression at `e > 1`, engine rejections, and
/// evaluation failures → `422`; deadline or budget exhaustion → `504`.
pub(super) fn handle_query(
    state: &Arc<ServiceState>,
    req: &Request,
    tenant: &Arc<Tenant>,
    obs: &mut ReqObs,
) -> Handled {
    ipe_obs::counter!("query.requests", 1);
    let _t = ipe_obs::timer!("query.request");
    let mut parsed: QueryRequest = decode(req)?;
    let tcfg = tenant.config();
    tenant_defaults(&tcfg, &mut parsed.e, &mut parsed.pruning);
    let started = Instant::now();
    let name = parsed.schema_name();
    let entry = lookup(state, tenant, name, parsed.min_generation, obs)?;
    let mut data_span = obs.span.child("data.lookup");
    let data = state.data.get(&entry.name);
    data_span.attr("found", data.is_some() as u64);
    data_span.finish();
    let Some(data) = data else {
        return Err(Reply::error(
            404,
            &format!("no data loaded for `{name}`; PUT /v1/data/{name} first"),
        ));
    };
    if data.schema_id != entry.id || data.schema_generation != entry.generation {
        ipe_obs::counter!("query.stale_data", 1);
        return Err(Reply::error(
            409,
            &format!(
                "data for `{name}` was loaded against schema generation {} but the schema is now at generation {}; re-PUT /v1/data/{name}",
                data.schema_generation, entry.generation
            ),
        ));
    }
    let ast = parse(&parsed.query, obs)?;
    let cfg = parsed.config(&entry.schema).map_err(bad_config)?;
    if ast.is_complete() && cfg.e > 1 {
        return Err(Reply::error(422, &QueryError::AlreadyComplete.to_string()));
    }
    let e = cfg.e as u64;
    let deadline_ms = parsed
        .deadline_ms
        .or(tcfg.deadline_ms)
        .unwrap_or(DEFAULT_QUERY_DEADLINE_MS)
        .min(MAX_QUERY_DEADLINE_MS);
    let deadline = (deadline_ms > 0).then(|| started + Duration::from_millis(deadline_ms));
    // The completion phase shares the completion cache with
    // POST /v1/complete: same key, same entries, so a warm query reuses
    // the completion set and cold/warm answers are identical by
    // construction.
    let searched = probe_or_search(state, tenant, &entry, &ast, cfg, deadline, obs)?;
    let outcome = &searched.reply.outcome;
    let eval_limits = EvalLimits {
        deadline,
        ..EvalLimits::default()
    };
    let mut eval_span = obs.span.child("evaluate");
    eval_span.attr("completions", outcome.completions.len() as u64);
    let merged = match evaluate_completions(&data.db, &outcome.completions, &eval_limits) {
        Ok(m) => m,
        Err(err) if ipe_query::is_deadline(&err) => {
            ipe_obs::counter!("query.deadline_exceeded", 1);
            return Err(Reply::error(504, &err.to_string()));
        }
        Err(err) => return Err(Reply::error(422, &err.to_string())),
    };
    eval_span.attr("possible", merged.possible() as u64);
    eval_span.attr("certain", merged.certain as u64);
    eval_span.finish();
    Ok(Reply::serialize(
        200,
        &QueryResponse {
            schema: split_scoped(&entry.name).1.to_owned(),
            generation: entry.generation,
            data_generation: data.data_generation,
            e,
            cached: searched.cached,
            duration_ns: elapsed_ns(started),
            completions: completion_views(&entry.schema, outcome),
            answers: merged
                .answers
                .iter()
                .filter(|a| a.certain || !parsed.certain_only)
                .map(answer_view)
                .collect(),
            certain: merged.certain as u64,
            possible: merged.possible() as u64,
            visited: merged.visited,
            stats: outcome.stats,
            query: searched.query,
        },
    ))
}

/// Renders one provenance-annotated answer into wire form.
fn answer_view(a: &ipe_query::ProvenanceAnswer) -> AnswerView {
    let (kind, object, value) = match &a.answer {
        Answer::Object(o) => ("object", Some(o.0 as u64), None),
        Answer::Value(v) => ("value", None, Some(v.to_string())),
    };
    AnswerView {
        kind: kind.to_owned(),
        object,
        value,
        certain: a.certain,
        completions: a.completions.iter().map(|&i| i as u64).collect(),
    }
}

/// Body of a `409` from [`admit_read`].
#[derive(Default, serde::Serialize)]
struct ReadRefused {
    error: String,
    /// Whether retrying against this same node can succeed (true on a
    /// lagging follower, false when the requested generation exists
    /// nowhere).
    retryable: bool,
    /// Backoff hint when `retryable` (same contract as the `429` body).
    #[serde(skip_serializing_if = "Option::is_none")]
    retry_after_ms: Option<u64>,
    schema: String,
    #[serde(skip_serializing_if = "Option::is_none")]
    generation: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    min_generation: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    applied_seq: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    lag_seq: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    lag_ms: Option<u64>,
}

/// Generation-aware read admission. `None` admits the request. A reader
/// that pins `min_generation` (read-your-writes after a schema PUT on the
/// leader) never gets an older generation served silently: a follower
/// that hasn't applied it yet answers `409` with `retryable: true` and
/// its lag, and a caught-up node answers `409` with `retryable: false`
/// (the generation does not exist). A missing schema on a lagging
/// follower is also deferred — it may simply not have arrived yet — while
/// on a caught-up node it falls through to the ordinary `404`.
pub(super) fn admit_read(
    state: &ServiceState,
    name: &str,
    entry: Option<&Arc<SchemaEntry>>,
    min_generation: Option<u64>,
) -> Option<Reply> {
    let generation = entry.map(|e| e.generation);
    let met = match (generation, min_generation) {
        (Some(_), None) => true,
        (Some(have), Some(want)) => have >= want,
        (None, _) => false,
    };
    if met {
        return None;
    }
    if let Some(follower) = &state.follower {
        if !follower.is_ready() {
            ipe_obs::counter!("repl.follower.reads_deferred", 1);
            let body = ReadRefused {
                error: "replica has not applied this schema generation yet; retry".to_owned(),
                retryable: true,
                // Lag-proportional hint, floored so clients never spin
                // and capped so they re-probe a recovering replica soon.
                retry_after_ms: Some(follower.lag_ms().clamp(25, 2_000)),
                schema: name.to_owned(),
                generation,
                min_generation,
                applied_seq: Some(follower.applied_seq()),
                lag_seq: Some(follower.lag_seq()),
                lag_ms: Some(follower.lag_ms()),
            };
            return Some(Reply::serialize(409, &body));
        }
    }
    match (generation, min_generation) {
        (Some(have), Some(want)) if have < want => {
            let body = ReadRefused {
                error: format!(
                    "schema `{name}` is at generation {have}, below the requested min_generation {want}"
                ),
                schema: name.to_owned(),
                generation,
                min_generation,
                ..ReadRefused::default()
            };
            Some(Reply::serialize(409, &body))
        }
        // Caught up (or leader) and the schema simply isn't registered:
        // let the handler answer its ordinary 404.
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipe_core::SearchOutcome;
    use ipe_schema::Schema;

    /// Schema names and queries the head must escape exactly as serde
    /// does: quotes, backslashes, control characters, non-ASCII.
    const AWKWARD: [(&str, &str); 3] = [
        ("default", "ta~name"),
        ("we\"ird\\name", "q\"uo\\te~x"),
        ("tab\there\nnl\u{1}é", "ctl\u{1f}~\u{7f}ü"),
    ];

    /// The body `handle_complete` sends: head, then the cached fragment.
    fn spliced(
        name: &str,
        gen: u64,
        query: &str,
        cached: bool,
        ns: u64,
        reply: &Arc<CachedReply>,
    ) -> String {
        let head = CompleteResponse::encode_head(name, gen, query, cached, ns);
        let reply = Reply::spliced(200, head, Arc::clone(reply));
        String::from_utf8(reply.body_parts().concat()).expect("the body is UTF-8")
    }

    /// The same body through the typed response.
    fn typed(
        name: &str,
        gen: u64,
        query: &str,
        cached: bool,
        ns: u64,
        schema: &Schema,
        outcome: &SearchOutcome,
    ) -> String {
        serde_json::to_string(&CompleteResponse {
            schema: name.to_owned(),
            generation: gen,
            query: query.to_owned(),
            cached,
            duration_ns: ns,
            completions: completion_views(schema, outcome),
            stats: outcome.stats,
        })
        .expect("responses serialize")
    }

    /// Asserts byte identity for every name/query pair, cache flag and a
    /// spread of integers, with the entry's own normalized query too.
    fn assert_identical(schema: &Schema, query: &str, outcome: SearchOutcome) {
        let reply = Arc::new(CachedReply::new(schema, outcome.clone()));
        let pairs = AWKWARD.iter().copied().chain([("default", query)]);
        for (name, q) in pairs {
            for cached in [false, true] {
                for (gen, ns) in [(1, 0), (7, 123_456_789), (u64::MAX, u64::MAX)] {
                    assert_eq!(
                        spliced(name, gen, q, cached, ns, &reply),
                        typed(name, gen, q, cached, ns, schema, &outcome),
                        "schema {name:?}, query {q:?}, cached {cached}"
                    );
                }
            }
        }
    }

    fn search(schema: &Schema, query: &str, e: usize) -> (String, SearchOutcome) {
        let ast = parse_path_expression(query).expect("the query parses");
        let outcome = Completer::with_config(schema, CompletionConfig::with_e(e))
            .complete_with_stats(&ast)
            .expect("the search succeeds");
        (ast.to_string(), outcome)
    }

    #[test]
    fn spliced_complete_body_is_byte_identical_to_the_typed_one() {
        let university = ipe_schema::fixtures::university();
        for (query, e) in [("ta~name", 1), ("ta ~ name", 3), ("student~name", 2)] {
            let (normalized, outcome) = search(&university, query, e);
            assert!(!outcome.completions.is_empty(), "{query} has completions");
            assert_identical(&university, &normalized, outcome);
        }
        let empty = SearchOutcome {
            completions: Vec::new(),
            stats: Default::default(),
        };
        assert_identical(&university, "ta~name", empty);

        let cupid = ipe_gen::cupid_like(1994);
        let workload = ipe_gen::generate_workload(&cupid, &ipe_gen::WorkloadConfig::default());
        assert!(!workload.is_empty());
        for spec in &workload {
            for e in [1, 3] {
                let (normalized, outcome) = search(&cupid.schema, &spec.expr, e);
                assert_identical(&cupid.schema, &normalized, outcome);
            }
        }
    }
}
