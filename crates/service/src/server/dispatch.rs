//! The request lifecycle around the route handlers: tracing, timing,
//! admission, the follower redirect, and the dispatch on [`Kind`].

use super::{complete, ops, schemas, tenants, ServiceState};
use crate::api::error_body;
use crate::cache::CachedReply;
use crate::http::Request;
use crate::repl::StreamStart;
use crate::route::{Kind, Route};
use ipe_core::SearchStats;
use ipe_obs::{CompletedRequest, RequestTrace, SpanHandle};
use ipe_tenant::Admission;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// One routed response: status, body, and its content type (JSON for
/// everything except the Prometheus exposition).
pub(crate) struct Reply {
    pub(crate) status: u16,
    /// The body, or its per-request head when `tail` is set.
    pub(crate) body: String,
    /// A cached completion set whose pre-encoded fragment finishes the
    /// body (see [`Reply::spliced`]).
    pub(crate) tail: Option<Arc<CachedReply>>,
    pub(crate) content_type: &'static str,
    /// Extra response headers (e.g. `x-ipe-leader` on follower `421`s).
    pub(crate) headers: Vec<(&'static str, String)>,
    /// When set, the reactor writes a bare head (no `Content-Length`,
    /// `Connection: close`), detaches the socket from its epoll loop, and
    /// hands it to a replication streaming thread.
    pub(crate) stream: Option<StreamStart>,
}

impl Reply {
    pub(crate) fn json(status: u16, body: String) -> Reply {
        Reply {
            status,
            body,
            tail: None,
            content_type: "application/json",
            headers: Vec::new(),
            stream: None,
        }
    }

    /// An `{"error": message}` body.
    pub(crate) fn error(status: u16, message: &str) -> Reply {
        Reply::json(status, error_body(message))
    }

    /// `value` serialized as the JSON body; a serializer failure is a
    /// `500`.
    pub(crate) fn serialize<T: serde::Serialize + ?Sized>(status: u16, value: &T) -> Reply {
        match serde_json::to_string(value) {
            Ok(json) => Reply::json(status, json),
            Err(e) => Reply::error(500, &e.to_string()),
        }
    }

    /// A JSON body written as `head` followed by `tail`'s pre-encoded
    /// fragment, which the front end copies straight from the cache.
    pub(crate) fn spliced(status: u16, head: String, tail: Arc<CachedReply>) -> Reply {
        Reply {
            tail: Some(tail),
            ..Reply::json(status, head)
        }
    }

    /// The body's bytes, in order: the head and, when spliced, the
    /// cached fragment.
    pub(crate) fn body_parts(&self) -> [&[u8]; 2] {
        let tail = self.tail.as_ref().map_or("", |t| t.fragment.as_str());
        [self.body.as_bytes(), tail.as_bytes()]
    }

    pub(crate) fn with_header(mut self, name: &'static str, value: String) -> Reply {
        self.headers.push((name, value));
        self
    }
}

/// A handler's result: `Err` carries an early error reply, so handlers
/// can use `?`.
pub(crate) type Handled = Result<Reply, Reply>;

pub(crate) fn elapsed_ns(started: Instant) -> u64 {
    started.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// The request body as UTF-8, else a `400`.
pub(crate) fn body_text(req: &Request) -> Result<&str, Reply> {
    req.text().map_err(|msg| Reply::error(400, msg))
}

/// The request body decoded as JSON, else a `400`.
pub(crate) fn decode<T: serde::Deserialize>(req: &Request) -> Result<T, Reply> {
    serde_json::from_str(body_text(req)?)
        .map_err(|e| Reply::error(400, &format!("bad request body: {e}")))
}

/// The propagated `x-ipe-trace-id` when it is header-and-JSON safe, else
/// a fresh id.
fn trace_id(req: &Request) -> String {
    match req
        .trace_id
        .as_deref()
        .filter(|id| ipe_obs::valid_trace_id(id))
    {
        Some(id) => id.to_owned(),
        None => ipe_obs::gen_trace_id(),
    }
}

/// [`handle_request`] behind a panic barrier: a panicking handler is
/// answered `500` and the poisoned locks it left behind are recovered by
/// the next `lock_recover`, so one bad request can no longer take the
/// server down with it. (`AssertUnwindSafe` is justified by exactly that
/// recovery story: every lock crossing this boundary is poison-recovered
/// and guards append-ordered or idempotent state.)
pub(crate) fn handle_request_catching(state: &Arc<ServiceState>, req: &Request) -> (Reply, String) {
    let caught =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle_request(state, req)));
    caught.unwrap_or_else(|_| {
        ipe_obs::counter!("service.request.panicked", 1);
        (
            Reply::error(500, "internal error: request handler panicked"),
            trace_id(req),
        )
    })
}

/// Per-request observability context handed down to the route handlers:
/// the span handle children are opened under, plus the fields the access
/// log reports. The handle is disabled for unsampled requests, making
/// every span operation a no-op.
pub(crate) struct ReqObs {
    pub(crate) span: SpanHandle,
    /// Whether the completion cache answered (`None` for routes that do
    /// not consult it).
    pub(crate) cache_hit: Option<bool>,
    /// The request's search effort, summed over its engine runs.
    pub(crate) search: SearchStats,
}

/// The full request lifecycle around [`dispatch`]: trace-id extraction
/// (or generation), head sampling, the root `http` span, per-route
/// timing, flight-recorder retention, and the access log. Returns the
/// reply and the trace id to echo in the `x-ipe-trace-id` response
/// header.
fn handle_request(state: &Arc<ServiceState>, req: &Request) -> (Reply, String) {
    let _t = ipe_obs::timer!("service.request");
    state.counters.requests_total.incr();
    let started = Instant::now();
    let trace_id = trace_id(req);
    let sampled = state.flight.should_sample();
    let trace = sampled.then(|| RequestTrace::start(trace_id.clone(), 0));
    let mut obs = ReqObs {
        span: trace.as_ref().map(|t| t.root_handle()).unwrap_or_default(),
        cache_hit: None,
        search: SearchStats::default(),
    };
    let mut http_span = obs.span.child("http");
    if obs.span.is_enabled() {
        // Guarded: the format allocates, and unsampled requests must pay
        // only the sampling check.
        http_span.note(&format!("{} {}", req.method, req.path));
    }
    obs.span = http_span.handle();
    let (reply, kind) = match Route::parse(&req.method, &req.path) {
        Ok(route) => (dispatch(state, req, route, &mut obs), route.kind),
        Err(reply) => (Err(reply), Kind::Other),
    };
    let reply = reply.unwrap_or_else(|reply| reply);
    http_span.attr("status", reply.status as u64);
    http_span.finish();
    let duration_ns = elapsed_ns(started);
    kind.timer().record_ns(duration_ns);
    let label = kind.label();
    let error = reply.status >= 400;
    let slow = state.slow_ms > 0 && duration_ns >= state.slow_ms.saturating_mul(1_000_000);
    if sampled || error || slow {
        let (spans, dropped_spans) = trace
            .map(|t| t.finish())
            .map_or((Vec::new(), 0), |done| (done.spans, done.dropped));
        state.flight.record(CompletedRequest {
            trace_id: trace_id.clone(),
            route: label,
            method: req.method.clone(),
            path: req.path.clone(),
            status: reply.status,
            duration_ns,
            error,
            slow,
            spans,
            dropped_spans,
            seq: 0,
        });
    }
    if state.access_log {
        eprintln!(
            "{}",
            access_log_line(&trace_id, label, req, reply.status, duration_ns, slow, &obs)
        );
    }
    (reply, trace_id)
}

/// One structured access-log line: trace id, route, status, duration,
/// cache outcome, and search effort, as a single JSON object.
fn access_log_line(
    trace_id: &str,
    route: &'static str,
    req: &Request,
    status: u16,
    duration_ns: u64,
    slow: bool,
    obs: &ReqObs,
) -> String {
    use std::fmt::Write as _;
    let ts_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let mut out = String::with_capacity(224);
    let _ = write!(out, "{{\"ts_ms\": {ts_ms}, \"trace_id\": ");
    ipe_obs::json::push_str_literal(&mut out, trace_id);
    out.push_str(", \"route\": ");
    ipe_obs::json::push_str_literal(&mut out, route);
    out.push_str(", \"method\": ");
    ipe_obs::json::push_str_literal(&mut out, &req.method);
    out.push_str(", \"path\": ");
    ipe_obs::json::push_str_literal(&mut out, &req.path);
    let _ = write!(
        out,
        ", \"status\": {status}, \"duration_ns\": {duration_ns}"
    );
    match obs.cache_hit {
        Some(hit) => {
            let _ = write!(out, ", \"cache_hit\": {hit}");
        }
        None => out.push_str(", \"cache_hit\": null"),
    }
    let _ = write!(
        out,
        ", \"expansions\": {}, \"prunes\": {}, \"slow\": {slow}}}",
        obs.search.calls,
        obs.search.pruned()
    );
    out
}

/// Runs one parsed request under its tenant: the rate quota on data
/// plane routes, then the concurrent-search cap on search routes (the
/// permit is RAII, held for the whole handler), then the follower
/// redirect, then the handler.
fn dispatch(state: &Arc<ServiceState>, req: &Request, route: Route, obs: &mut ReqObs) -> Handled {
    let tenant = (state.tenants.get(route.tenant))
        .ok_or_else(|| Reply::error(404, &format!("no tenant named `{}`", route.tenant)))?;
    let kind = route.kind;
    if kind.data_plane() {
        if let Admission::Throttled { retry_after_ms } = tenant.admit_request() {
            return Err(throttled_reply(
                tenant.name(),
                "request rate quota exceeded",
                retry_after_ms,
            ));
        }
    }
    let _permit = if kind.searches() {
        let cap_reached = |ms| throttled_reply(tenant.name(), "concurrent-search cap reached", ms);
        Some(tenant.begin_search().map_err(cap_reached)?)
    } else {
        None
    };
    if let (true, Some(follower)) = (kind.leader_only(), &state.follower) {
        ipe_obs::counter!("repl.follower.writes_rejected", 1);
        return Err(Reply::error(
            421,
            &format!(
                "this node is a read-only follower; send schema writes for tenant `{}` to the leader at {}",
                tenant.name(),
                follower.leader
            ),
        )
        .with_header("x-ipe-leader", follower.leader.clone()));
    }
    match kind {
        Kind::Complete => complete::handle_complete(state, req, &tenant, obs),
        Kind::Batch => complete::handle_batch(state, req, &tenant, obs),
        Kind::Query => complete::handle_query(state, req, &tenant, obs),
        Kind::ListSchemas => schemas::handle_list_schemas(state, &tenant),
        Kind::Schema(verb, name) => schemas::handle_schema(state, req, &tenant, verb, name),
        Kind::Data(verb, name) => schemas::handle_data(state, req, &tenant, verb, name, obs),
        Kind::Tenants => tenants::handle_list_tenants(state),
        Kind::Tenant(verb, name) => tenants::handle_tenant(state, req, verb, name),
        Kind::Healthz => Ok(Reply::json(200, "{\"status\": \"ok\"}".to_owned())),
        Kind::Readyz => Ok(ops::handle_readyz(state)),
        Kind::ReplStream => ops::handle_repl_stream(state, req),
        Kind::ReplStatus => Ok(Reply::serialize(200, &state.repl_metrics())),
        Kind::Metrics => Ok(ops::handle_metrics(state, req)),
        Kind::DebugRequests => ops::handle_debug_requests(state),
        Kind::DebugRequest(id) => ops::handle_debug_request(state, id),
        #[cfg(test)]
        Kind::DebugPanic => super::tests::handle_debug_panic(state),
        Kind::Shutdown => {
            // Flag only; the serving reactor flushes this response, then
            // observes the flag and wakes its siblings to drain.
            state.shutdown.store(true, Ordering::SeqCst);
            Ok(Reply::json(200, "{\"ok\": true}".to_owned()))
        }
        Kind::Other => Err(Reply::error(404, "no such endpoint")),
    }
}

/// Body of every `429`: the machine-readable retry envelope shared with
/// the replica `409` (see [`complete::admit_read`]) — `retryable` says
/// whether this same node can eventually serve the request,
/// `retry_after_ms` is the server's backoff hint. Clients branch on the
/// fields, not on message text.
#[derive(serde::Serialize)]
struct ThrottleBody {
    error: String,
    retryable: bool,
    retry_after_ms: u64,
    tenant: String,
}

/// Renders a `429 Too Many Requests` with the unified retry envelope and
/// a `Retry-After` header (whole seconds, rounded up, at least 1).
fn throttled_reply(tenant: &str, what: &str, retry_after_ms: u64) -> Reply {
    let body = ThrottleBody {
        error: format!("tenant `{tenant}`: {what}"),
        retryable: true,
        retry_after_ms,
        tenant: tenant.to_owned(),
    };
    Reply::serialize(429, &body).with_header(
        "retry-after",
        retry_after_ms.div_ceil(1000).max(1).to_string(),
    )
}
