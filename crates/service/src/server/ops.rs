//! Operations routes: readiness, replication streaming and status,
//! `/metrics` in both formats, the flight-recorder debug views, and the
//! counters and gauge sections they report.

use super::dispatch::{Handled, Reply};
use super::ServiceState;
use crate::api::error_body;
use crate::cache::CacheStats;
use crate::http::Request;
use crate::repl::StreamStart;
use crate::sync::{lock_recover, Counter};
use ipe_obs::prom::Sample;
use serde::{Serialize as _, Value};

/// A server's own counts. Each is written where its event happens and
/// read only by serializing this struct, flattened into the `service`
/// section of `GET /metrics`, so its field names are the wire names.
#[derive(Default, serde::Serialize)]
pub(crate) struct ServiceCounters {
    /// Live connections across all reactors. The wire name dates from
    /// the worker-pool front end these connections replaced.
    pub(crate) queue_depth: Counter,
    /// Requests handled.
    pub(crate) requests_total: Counter,
    /// Connections answered `503` at a reactor's live cap.
    pub(crate) rejected_total: Counter,
    /// The counts of the `service.index` section, reported through
    /// [`IndexMetrics`].
    #[serde(skip)]
    pub(crate) index: IndexCounters,
    /// Replication streams being served to followers. Reported as
    /// `repl.streams_active`, since only a leader serves streams.
    #[serde(skip)]
    pub(crate) repl_streams_active: Counter,
}

/// How engine-backed completions (cache misses) were served: the counts
/// of the `service.index` section.
#[derive(Default, serde::Serialize)]
pub(crate) struct IndexCounters {
    pub(crate) completes_indexed: Counter,
    pub(crate) completes_unindexed: Counter,
}

/// The `service.index` section of `GET /metrics`.
#[derive(serde::Serialize)]
struct IndexMetrics<'a> {
    /// `"on"`, `"lazy"`, or `"off"`.
    mode: &'static str,
    /// Indexes built, one per registry entry made under `on` or `lazy`.
    builds_completed: u64,
    /// Always 0: each index is built before its entry is published.
    builds_in_flight: u64,
    /// Always 0: indexes are not persisted.
    sidecar_loads: u64,
    #[serde(flatten)]
    counters: &'a IndexCounters,
}

/// One tenant's row in the `service.tenants` section of `GET /metrics`.
#[derive(Debug, serde::Serialize)]
struct TenantMetricsRow {
    tenant: String,
    /// Searches in flight right now (the concurrency-cap gauge).
    in_flight: u64,
    admitted: u64,
    throttled: u64,
    busy: u64,
    searches: u64,
    cache: CacheStats,
    cache_budget_bytes: u64,
}

/// The `service` section of `GET /metrics`.
#[derive(serde::Serialize)]
struct ServiceMetrics<'a> {
    cache: CacheStats,
    tenants: Vec<TenantMetricsRow>,
    #[serde(flatten)]
    counters: &'a ServiceCounters,
    index: IndexMetrics<'a>,
    workers: u64,
    schemas: u64,
    data_sets: u64,
    durable: bool,
    wal_last_seq: u64,
    repl: ReplMetrics,
    /// Request traces retained in the flight recorder.
    flight_recorded: u64,
}

/// The `service.repl` section of `GET /metrics` (also the body of
/// `GET /v1/repl/status`).
#[derive(Debug, Default, serde::Serialize)]
pub(super) struct ReplMetrics {
    /// `"none"`, `"leader"`, or `"follower"`.
    role: String,
    #[serde(skip_serializing_if = "Option::is_none")]
    leader: Option<String>,
    leader_seq: u64,
    applied_seq: u64,
    lag_seq: u64,
    lag_ms: u64,
    connected: bool,
    ready: bool,
    streams_active: u64,
    reconnects: u64,
    records_applied: u64,
    snapshots_installed: u64,
}

impl ServiceState {
    /// The `service` section of `/metrics`.
    fn metrics_view(&self) -> ServiceMetrics<'_> {
        ServiceMetrics {
            cache: self.caches.stats(),
            tenants: self.tenant_metrics(),
            counters: &self.counters,
            index: IndexMetrics {
                mode: self.registry.index_mode().as_str(),
                builds_completed: self.registry.index_builds(),
                builds_in_flight: 0,
                sidecar_loads: 0,
                counters: &self.counters.index,
            },
            workers: lock_recover(&self.wakers).len() as u64,
            schemas: self.registry.list().len() as u64,
            data_sets: self.data.len() as u64,
            durable: self.store.is_some(),
            wal_last_seq: self
                .store
                .as_ref()
                .map(|s| lock_recover(s).last_seq())
                .unwrap_or(0),
            repl: self.repl_metrics(),
            flight_recorded: self.flight.recorded(),
        }
    }

    /// Per-tenant rows for `/metrics`: admission counters, in-flight
    /// searches, and the tenant's cache-partition footprint.
    fn tenant_metrics(&self) -> Vec<TenantMetricsRow> {
        self.tenants
            .list()
            .iter()
            .map(|t| {
                let partition = self.caches.partition(t.name());
                let counters = t.counters();
                TenantMetricsRow {
                    tenant: t.name().to_owned(),
                    in_flight: u64::from(t.in_flight()),
                    admitted: counters.admitted,
                    throttled: counters.throttled,
                    busy: counters.busy,
                    searches: counters.searches,
                    cache: partition.stats(),
                    cache_budget_bytes: partition.budget(),
                }
            })
            .collect()
    }

    /// The `service.repl` gauge section, shared by `/metrics` and
    /// `/v1/repl/status`.
    pub(super) fn repl_metrics(&self) -> ReplMetrics {
        match (&self.follower, &self.repl_hub) {
            (Some(f), _) => ReplMetrics {
                role: "follower".to_owned(),
                leader: Some(f.leader.clone()),
                leader_seq: f.leader_seq(),
                applied_seq: f.applied_seq(),
                lag_seq: f.lag_seq(),
                lag_ms: f.lag_ms(),
                connected: f.connected(),
                ready: f.is_ready(),
                reconnects: f.reconnects.get(),
                records_applied: f.records_applied.get(),
                snapshots_installed: f.snapshots_installed.get(),
                ..ReplMetrics::default()
            },
            (None, Some(hub)) => ReplMetrics {
                role: "leader".to_owned(),
                leader_seq: hub.last_seq(),
                applied_seq: hub.last_seq(),
                connected: true,
                ready: !self.shutting_down(),
                streams_active: self.counters.repl_streams_active.get(),
                ..ReplMetrics::default()
            },
            (None, None) => ReplMetrics {
                role: "none".to_owned(),
                ready: !self.shutting_down(),
                ..ReplMetrics::default()
            },
        }
    }
}

/// Request tracing is compiled out under `obs-off`: the debug views are
/// then cleanly absent (`404`).
fn tracing_enabled() -> Result<(), Reply> {
    if ipe_obs::disabled() {
        return Err(Reply::error(
            404,
            "request tracing is compiled out (obs-off)",
        ));
    }
    Ok(())
}

/// `GET /v1/debug/requests`: the flight recorder's retained-trace
/// summaries.
pub(super) fn handle_debug_requests(state: &ServiceState) -> Handled {
    tracing_enabled()?;
    Ok(Reply::json(200, state.flight.dump_json()))
}

/// `GET /v1/debug/requests/:trace_id`: one retained trace, spans and all.
pub(super) fn handle_debug_request(state: &ServiceState, id: &str) -> Handled {
    tracing_enabled()?;
    match state.flight.lookup(id) {
        Some(trace) => Ok(Reply::json(200, trace.to_json())),
        None => Err(Reply::error(404, &format!("no retained trace `{id}`"))),
    }
}

/// `GET /readyz`: readiness, as distinct from `/healthz` liveness. A
/// draining node and a follower that is behind the leader are both alive
/// but must be rotated out of a load balancer; the `503` body carries the
/// lag so operators can see how far behind the replica is.
pub(super) fn handle_readyz(state: &ServiceState) -> Reply {
    if state.shutting_down() {
        return Reply::json(
            503,
            "{\"ready\": false, \"status\": \"draining\"}".to_owned(),
        );
    }
    let Some(follower) = &state.follower else {
        return Reply::json(
            200,
            "{\"ready\": true, \"status\": \"ready\", \"role\": \"leader\"}".to_owned(),
        );
    };
    if follower.is_ready() {
        Reply::json(
            200,
            format!(
                "{{\"ready\": true, \"status\": \"ready\", \"role\": \"follower\", \"applied_seq\": {}}}",
                follower.applied_seq()
            ),
        )
    } else {
        ipe_obs::counter!("repl.follower.not_ready", 1);
        Reply::json(
            503,
            format!(
                "{{\"ready\": false, \"status\": \"lagging\", \"role\": \"follower\", \
                 \"connected\": {}, \"applied_seq\": {}, \"lag_seq\": {}, \"lag_ms\": {}}}",
                follower.connected(),
                follower.applied_seq(),
                follower.lag_seq(),
                follower.lag_ms()
            ),
        )
    }
}

/// `GET /v1/repl/stream?from_seq=N`: opens a replication stream. The
/// reply carries no body; the [`StreamStart`] marker makes the reactor
/// detach the socket and hand it to a streaming thread (see
/// [`crate::repl`]).
pub(super) fn handle_repl_stream(state: &ServiceState, req: &Request) -> Handled {
    if let Some(follower) = &state.follower {
        return Err(Reply::error(
            400,
            &format!(
                "this node is a follower; stream from the leader at {}",
                follower.leader
            ),
        )
        .with_header("x-ipe-leader", follower.leader.clone()));
    }
    if state.repl_hub.is_none() {
        return Err(Reply::error(
            400,
            "replication requires a durable leader (start with --data-dir)",
        ));
    }
    if state.shutting_down() {
        return Err(Reply::error(503, "leader is draining"));
    }
    let from_seq = req
        .query_param("from_seq")
        .unwrap_or("0")
        .parse::<u64>()
        .map_err(|_| Reply::error(400, "`from_seq` must be an unsigned integer"))?;
    Ok(Reply {
        content_type: "application/octet-stream",
        stream: Some(StreamStart { from_seq }),
        ..Reply::json(200, String::new())
    })
}

/// `GET /metrics`: JSON by default, the Prometheus exposition with
/// `?format=prometheus`.
pub(super) fn handle_metrics(state: &ServiceState, req: &Request) -> Reply {
    if req.query_param("format") == Some("prometheus") {
        Reply {
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            ..Reply::json(200, metrics_prometheus(state))
        }
    } else {
        Reply::json(200, metrics_json(state))
    }
}

/// Builds the `/metrics` body: the standard `ipe-obs` [`Report`] (global
/// counters and timers, including `service.cache.*` and
/// `service.request`) extended with a `service` section of live gauges.
///
/// [`Report`]: ipe_obs::Report
pub fn metrics_json(state: &ServiceState) -> String {
    let mut report = ipe_obs::Report::new();
    report.meta("component", "ipe-service");
    report.capture_metrics();
    attach_service_gauges(&mut report, serde_json::to_string(&state.metrics_view()));
    report.to_json()
}

/// Attaches the serialized `service` gauge section to a metrics report.
/// A serialization failure must not silently drop the section — the
/// scrape keeps its shape and carries an explicit error instead.
fn attach_service_gauges(report: &mut ipe_obs::Report, gauges: Result<String, serde_json::Error>) {
    match gauges {
        Ok(json) => report.attach_json("service", json),
        Err(e) => report.attach_json(
            "service",
            error_body(&format!("service gauges unavailable: {e}")),
        ),
    };
}

/// Builds the `/metrics?format=prometheus` body: every registered
/// counter and log2-bucket timer as Prometheus `counter`/`histogram`
/// families (with derived p50/p95/p99 quantile gauges), plus every
/// number and bool of the JSON `service` section, each named by its JSON
/// path (`service.cache.bytes` renders as `ipe_service_cache_bytes`): a
/// `counter` for a `*_total` field, a `gauge` otherwise. Each row of
/// `service.tenants` becomes `tenant.*` families labelled `tenant="…"`.
pub fn metrics_prometheus(state: &ServiceState) -> String {
    let view = state.metrics_view().to_value();
    let mut samples = Vec::new();
    push_samples(&mut samples, "service", &view, None);
    if let Some(Value::Seq(rows)) = view.get("tenants") {
        for row in rows {
            if let Some(Value::Str(tenant)) = row.get("tenant") {
                push_samples(&mut samples, "tenant", row, Some(tenant));
            }
        }
    }
    ipe_obs::prom::render(&samples)
}

/// Appends one sample per number or bool under `value`, named by its
/// dotted JSON path from `path`. Strings and arrays are skipped.
fn push_samples(out: &mut Vec<Sample>, path: &str, value: &Value, tenant: Option<&str>) {
    let number = match value {
        Value::Bool(b) => f64::from(u8::from(*b)),
        Value::I64(n) => *n as f64,
        Value::U64(n) => *n as f64,
        Value::F64(n) => *n,
        Value::Map(fields) => {
            for (key, field) in fields {
                push_samples(out, &format!("{path}.{key}"), field, tenant);
            }
            return;
        }
        Value::Null | Value::Str(_) | Value::Seq(_) => return,
    };
    let sample = if path.ends_with("_total") {
        let help = format!("Counter `{path}` of the /metrics JSON view.");
        Sample::counter(path, help, number)
    } else {
        let help = format!("Gauge `{path}` of the /metrics JSON view.");
        Sample::gauge(path, help, number)
    };
    out.push(match tenant {
        Some(t) => sample.label("tenant", t),
        None => sample,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The vendored `serde_json` serializer never actually fails, so the
    /// error branch of the gauge attachment is exercised with an error
    /// manufactured from the parser.
    #[test]
    fn metrics_report_carries_explicit_error_when_gauges_fail() {
        let err = serde_json::from_str::<u64>("not a number").unwrap_err();
        let mut report = ipe_obs::Report::new();
        attach_service_gauges(&mut report, Err(err));
        let json = report.to_json();
        assert!(
            json.contains("service gauges unavailable"),
            "error must be visible in the report: {json}"
        );
        assert!(
            json.contains("\"service\""),
            "the service section must keep its shape: {json}"
        );
    }

    #[test]
    fn metrics_report_embeds_gauges_on_success() {
        let mut report = ipe_obs::Report::new();
        attach_service_gauges(&mut report, Ok("{\"workers\": 4}".to_owned()));
        let json = report.to_json();
        assert!(json.contains("\"workers\": 4"), "{json}");
    }
}
