//! End-to-end tests over a real socket: registry round-trips, Figure-2
//! answers through the HTTP API, cache hits, hot-swap invalidation,
//! metrics, error paths, and graceful shutdown.

use ipe_schema::fixtures;
use ipe_service::{Client, Server, ServiceConfig};
use serde::Value;
use std::time::Duration;

/// A small test server on an ephemeral port, with the university fixture
/// preloaded as `default`.
fn start_server() -> (Server, Client) {
    let server = Server::start(ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        reactors: 4,
        queue_depth: 16,
        request_timeout: Duration::from_secs(5),
        batch_threads: 2,
        ..Default::default()
    })
    .expect("bind ephemeral port");
    server
        .state()
        .registry
        .insert("default", fixtures::university());
    let client = Client::new(server.addr().to_string());
    (server, client)
}

fn get(v: &Value, key: &str) -> Value {
    v.get(key)
        .unwrap_or_else(|| panic!("missing key {key}"))
        .clone()
}

fn as_u64(v: &Value) -> u64 {
    match v {
        Value::I64(i) => *i as u64,
        Value::U64(u) => *u,
        other => panic!("expected number, got {other:?}"),
    }
}

fn completion_texts(body: &str) -> Vec<String> {
    let v = serde_json::parse_value_text(body).expect("valid JSON");
    let Value::Seq(items) = get(&v, "completions") else {
        panic!("completions is not an array: {body}");
    };
    items
        .iter()
        .map(|c| match get(c, "text") {
            Value::Str(s) => s,
            other => panic!("text is not a string: {other:?}"),
        })
        .collect()
}

#[test]
fn healthz_and_unknown_route() {
    let (server, mut client) = start_server();
    let (status, body) = client.request("GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("ok"));
    let (status, _) = client.request("GET", "/nope", "").unwrap();
    assert_eq!(status, 404);
    server.shutdown();
}

/// The flagship `ta~name` query through the HTTP API: the two Section
/// 2.2.2 completions come back, and the identical second request is
/// served from the cache with identical results.
#[test]
fn complete_ta_name_and_cache_hit() {
    let (server, mut client) = start_server();
    let req = r#"{"query": "ta ~ name"}"#;
    let (status, first) = client.request("POST", "/v1/complete", req).unwrap();
    assert_eq!(status, 200, "{first}");
    let texts = completion_texts(&first);
    assert_eq!(texts.len(), 2, "{texts:?}");
    assert!(texts.contains(&"ta@>grad@>student@>person.name".to_owned()));
    assert!(texts.contains(&"ta@>instructor@>teacher@>employee@>person.name".to_owned()));
    let v = serde_json::parse_value_text(&first).unwrap();
    assert_eq!(get(&v, "cached"), Value::Bool(false));
    // The whitespace variant normalizes onto the same cache key.
    assert_eq!(get(&v, "query"), Value::Str("ta~name".to_owned()));

    let (status, second) = client
        .request("POST", "/v1/complete", r#"{"query": "ta~name"}"#)
        .unwrap();
    assert_eq!(status, 200);
    let v2 = serde_json::parse_value_text(&second).unwrap();
    assert_eq!(get(&v2, "cached"), Value::Bool(true));
    assert_eq!(completion_texts(&second), texts);
    // Cached responses repeat the original run's search counters.
    assert_eq!(
        as_u64(&get(&get(&v, "stats"), "calls")),
        as_u64(&get(&get(&v2, "stats"), "calls"))
    );
    server.shutdown();
}

/// Distinct configs must not share cache entries.
#[test]
fn config_changes_miss_the_cache() {
    let (server, mut client) = start_server();
    let (_, first) = client
        .request("POST", "/v1/complete", r#"{"query": "ta~name"}"#)
        .unwrap();
    let (_, second) = client
        .request("POST", "/v1/complete", r#"{"query": "ta~name", "e": 2}"#)
        .unwrap();
    let v = serde_json::parse_value_text(&second).unwrap();
    assert_eq!(
        get(&v, "cached"),
        Value::Bool(false),
        "different E: {first}"
    );
    server.shutdown();
}

/// `PUT /v1/schemas/:name` registers new schemas and hot-swaps existing
/// ones: the generation bumps and previously-cached results are not
/// served for the new version.
#[test]
fn put_schema_hot_swap_invalidates_cache() {
    let (server, mut client) = start_server();
    let uni = fixtures::university().to_json();
    let (status, body) = client.request("PUT", "/v1/schemas/uni", &uni).unwrap();
    assert_eq!(status, 200, "{body}");
    let v = serde_json::parse_value_text(&body).unwrap();
    assert_eq!(as_u64(&get(&v, "generation")), 1);

    let req = r#"{"schema": "uni", "query": "ta~name"}"#;
    client.request("POST", "/v1/complete", req).unwrap();
    let (_, warm) = client.request("POST", "/v1/complete", req).unwrap();
    let warm_v = serde_json::parse_value_text(&warm).unwrap();
    assert_eq!(get(&warm_v, "cached"), Value::Bool(true));

    // Hot-swap the same name: generation 2, cache cold again.
    let (status, body) = client.request("PUT", "/v1/schemas/uni", &uni).unwrap();
    assert_eq!(status, 200);
    let v = serde_json::parse_value_text(&body).unwrap();
    assert_eq!(as_u64(&get(&v, "generation")), 2);
    assert!(as_u64(&get(&v, "purged_cache_entries")) >= 1);

    let (_, after) = client.request("POST", "/v1/complete", req).unwrap();
    let after_v = serde_json::parse_value_text(&after).unwrap();
    assert_eq!(get(&after_v, "cached"), Value::Bool(false));
    assert_eq!(as_u64(&get(&after_v, "generation")), 2);

    // The listing reflects both schemas.
    let (status, body) = client.request("GET", "/v1/schemas", "").unwrap();
    assert_eq!(status, 200);
    assert!(
        body.contains("\"uni\"") && body.contains("\"default\""),
        "{body}"
    );
    server.shutdown();
}

/// `DELETE /v1/schemas/:name` unregisters the schema, purges its cached
/// completions, and 404s for unknown (or already-deleted) names.
#[test]
fn delete_schema_purges_cache_and_404s_unknown() {
    let (server, mut client) = start_server();
    let uni = fixtures::university().to_json();
    client.request("PUT", "/v1/schemas/doomed", &uni).unwrap();
    // Warm one entry for the doomed schema and one for default.
    let req = r#"{"schema": "doomed", "query": "ta~name"}"#;
    client.request("POST", "/v1/complete", req).unwrap();
    client
        .request("POST", "/v1/complete", r#"{"query": "ta~name"}"#)
        .unwrap();

    let (status, body) = client.request("DELETE", "/v1/schemas/doomed", "").unwrap();
    assert_eq!(status, 200, "{body}");
    let v = serde_json::parse_value_text(&body).unwrap();
    assert_eq!(get(&v, "name"), Value::Str("doomed".to_owned()));
    assert_eq!(as_u64(&get(&v, "generation")), 1);
    assert_eq!(
        as_u64(&get(&v, "purged_cache_entries")),
        1,
        "only the doomed schema's entry is purged"
    );

    // Completions against the deleted name now 404; the default schema's
    // cache entry survived.
    let (status, _) = client.request("POST", "/v1/complete", req).unwrap();
    assert_eq!(status, 404);
    let (_, warm) = client
        .request("POST", "/v1/complete", r#"{"query": "ta~name"}"#)
        .unwrap();
    let warm_v = serde_json::parse_value_text(&warm).unwrap();
    assert_eq!(get(&warm_v, "cached"), Value::Bool(true));

    // Deleting again (or a never-registered name) is a 404.
    let (status, _) = client.request("DELETE", "/v1/schemas/doomed", "").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client.request("DELETE", "/v1/schemas/ghost", "").unwrap();
    assert_eq!(status, 404);
    server.shutdown();
}

/// `GET /v1/schemas/:name` returns that schema's summary without forcing
/// a full listing.
#[test]
fn get_schema_by_name() {
    let (server, mut client) = start_server();
    let (status, body) = client.request("GET", "/v1/schemas/default", "").unwrap();
    assert_eq!(status, 200, "{body}");
    let v = serde_json::parse_value_text(&body).unwrap();
    assert_eq!(get(&v, "name"), Value::Str("default".to_owned()));
    assert_eq!(as_u64(&get(&v, "generation")), 1);
    assert!(as_u64(&get(&v, "classes")) > 0);
    let (status, _) = client.request("GET", "/v1/schemas/ghost", "").unwrap();
    assert_eq!(status, 404);
    server.shutdown();
}

#[test]
fn error_paths_return_structured_errors() {
    let (server, mut client) = start_server();
    // Unknown schema.
    let (status, body) = client
        .request(
            "POST",
            "/v1/complete",
            r#"{"schema": "ghost", "query": "a~b"}"#,
        )
        .unwrap();
    assert_eq!(status, 404, "{body}");
    // Unparseable query.
    let (status, _) = client
        .request("POST", "/v1/complete", r#"{"query": "~~~"}"#)
        .unwrap();
    assert_eq!(status, 400);
    // Unknown root class: engine error, not a server error.
    let (status, _) = client
        .request("POST", "/v1/complete", r#"{"query": "ghost~name"}"#)
        .unwrap();
    assert_eq!(status, 422);
    // Invalid JSON body.
    let (status, _) = client.request("POST", "/v1/complete", "{nope").unwrap();
    assert_eq!(status, 400);
    // Invalid schema upload.
    let (status, _) = client.request("PUT", "/v1/schemas/bad", "{}").unwrap();
    assert_eq!(status, 400);
    server.shutdown();
}

/// `/metrics` renders the standard obs report extended with the service
/// section, and its hit/miss counts are consistent with the traffic.
#[test]
fn metrics_reflect_cache_traffic() {
    let (server, mut client) = start_server();
    for _ in 0..3 {
        client
            .request("POST", "/v1/complete", r#"{"query": "ta~name"}"#)
            .unwrap();
    }
    let (status, body) = client.request("GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    let v = serde_json::parse_value_text(&body).expect("metrics is valid JSON");
    let service = get(&v, "service");
    let cache = get(&service, "cache");
    // This server is private to the test, so the gauges are exact: one
    // miss (first request), then hits.
    assert_eq!(as_u64(&get(&cache, "misses")), 1);
    assert_eq!(as_u64(&get(&cache, "hits")), 2);
    assert_eq!(as_u64(&get(&cache, "entries")), 1);
    assert!(as_u64(&get(&service, "requests_total")) >= 3);
    // The global obs sections are present (values are process-wide).
    assert!(v.get("counters").is_some());
    assert!(v.get("timers").is_some());
    server.shutdown();
}

/// Registry counters that once repeated a per-server `/metrics` field.
const DELETED_COUNTERS: [&str; 11] = [
    "service.requests",
    "service.cache.hit",
    "service.cache.miss",
    "service.cache.evict",
    "service.complete.indexed",
    "service.complete.unindexed",
    "service.index.builds",
    "service.index.sidecar_loads",
    "service.conn.rejected",
    "repl.follower.reconnects",
    "repl.follower.snapshots_installed",
];

/// Two servers in one process: each `/metrics` `service` section counts
/// only its own traffic, and no process-wide registry counter repeats
/// those counts.
#[test]
fn per_server_metrics_count_only_their_own_traffic() {
    let (a, mut client_a) = start_server();
    let (b, mut client_b) = start_server();
    for _ in 0..3 {
        let (status, body) = client_a
            .request("POST", "/v1/complete", r#"{"query": "ta~name"}"#)
            .unwrap();
        assert_eq!(status, 200, "{body}");
    }
    for query in ["ta~name", "department~take"] {
        let body = format!(r#"{{"query": "{query}"}}"#);
        let (status, body) = client_b.request("POST", "/v1/complete", &body).unwrap();
        assert_eq!(status, 200, "{body}");
    }
    // (requests, hits, misses): the `/metrics` request counts itself.
    for (client, (requests, hits, misses)) in
        [(&mut client_a, (4, 2, 1)), (&mut client_b, (3, 0, 2))]
    {
        let (status, body) = client.request("GET", "/metrics", "").unwrap();
        assert_eq!(status, 200);
        let v = serde_json::parse_value_text(&body).unwrap();
        let service = get(&v, "service");
        let count = |section: &str, key: &str| as_u64(&get(&get(&service, section), key));
        assert_eq!(as_u64(&get(&service, "requests_total")), requests, "{body}");
        assert_eq!(as_u64(&get(&service, "workers")), 4, "{body}");
        assert_eq!(count("cache", "hits"), hits, "{body}");
        assert_eq!(count("cache", "misses"), misses, "{body}");
        let completes = count("index", "completes_indexed") + count("index", "completes_unindexed");
        assert_eq!(completes, misses, "one engine run per miss: {body}");
        for name in DELETED_COUNTERS {
            assert!(get(&v, "counters").get(name).is_none(), "{name}: {body}");
        }
    }
    let (status, text) = client_a
        .request("GET", "/metrics?format=prometheus", "")
        .unwrap();
    assert_eq!(status, 200);
    for name in DELETED_COUNTERS {
        let family = format!("ipe_{}_total", name.replace('.', "_"));
        assert!(!text.contains(&family), "{family} in:\n{text}");
    }
    a.shutdown();
    b.shutdown();
}

/// `POST /v1/shutdown` answers the request, then the server drains and
/// `join` returns.
#[test]
fn shutdown_endpoint_stops_the_server() {
    let (server, mut client) = start_server();
    let addr = server.addr();
    let (status, body) = client.request("POST", "/v1/shutdown", "").unwrap();
    assert_eq!(status, 200, "{body}");
    server.join();
    // The port no longer accepts new work.
    let mut late = Client::new(addr.to_string());
    assert!(late.request("GET", "/healthz", "").is_err());
}

/// `POST /v1/complete/batch`: per-item outcomes in submission order,
/// whitespace-variant queries normalize onto one cache key, parse
/// failures are per-item errors (not a request failure), and the batch
/// shares the single-endpoint cache.
#[test]
fn batch_endpoint_completes_and_caches() {
    let (server, mut client) = start_server();
    let req = r#"{"queries": ["ta ~ name", "department~take", "~~~"], "threads": 2}"#;
    let (status, body) = client.request("POST", "/v1/complete/batch", req).unwrap();
    assert_eq!(status, 200, "{body}");
    let v = serde_json::parse_value_text(&body).unwrap();
    let Value::Seq(items) = get(&v, "items") else {
        panic!("items is not an array: {body}");
    };
    assert_eq!(items.len(), 3);
    assert_eq!(get(&items[0], "status"), Value::Str("ok".to_owned()));
    assert_eq!(get(&items[0], "cached"), Value::Bool(false));
    // Whitespace normalization applies per item.
    assert_eq!(get(&items[0], "query"), Value::Str("ta~name".to_owned()));
    assert_eq!(get(&items[1], "status"), Value::Str("ok".to_owned()));
    assert_eq!(get(&items[2], "status"), Value::Str("error".to_owned()));
    assert!(items[2].get("error").is_some(), "{body}");

    // The batch populated the same cache the single endpoint reads.
    let (_, single) = client
        .request("POST", "/v1/complete", r#"{"query": "ta~name"}"#)
        .unwrap();
    let sv = serde_json::parse_value_text(&single).unwrap();
    assert_eq!(get(&sv, "cached"), Value::Bool(true), "{single}");

    // And a repeat batch is served from the cache.
    let (_, again) = client.request("POST", "/v1/complete/batch", req).unwrap();
    let av = serde_json::parse_value_text(&again).unwrap();
    let Value::Seq(items) = get(&av, "items") else {
        panic!("items is not an array: {again}");
    };
    assert_eq!(get(&items[0], "cached"), Value::Bool(true));
    assert_eq!(get(&items[1], "cached"), Value::Bool(true));
    server.shutdown();
}

/// Batch validation errors are whole-request errors: unknown schema is a
/// 404, an over-cap batch is a 400.
#[test]
fn batch_endpoint_rejects_bad_requests() {
    let (server, mut client) = start_server();
    let (status, _) = client
        .request(
            "POST",
            "/v1/complete/batch",
            r#"{"schema": "ghost", "queries": ["a~b"]}"#,
        )
        .unwrap();
    assert_eq!(status, 404);
    let many: Vec<String> = (0..257).map(|_| "\"ta~name\"".to_owned()).collect();
    let body = format!("{{\"queries\": [{}]}}", many.join(","));
    let (status, resp) = client.request("POST", "/v1/complete/batch", &body).unwrap();
    assert_eq!(status, 400, "{resp}");
    server.shutdown();
}

/// A combinatorially heavy item trips its per-item deadline and reports
/// `deadline_exceeded` in its own slot, while the cheap item in the same
/// batch completes — the acceptance scenario for deadline isolation.
#[test]
fn batch_deadline_is_per_item() {
    use ipe_schema::{Primitive, SchemaBuilder};
    let (server, mut client) = start_server();
    // A fully-connected 12-class schema whose only `goal` attribute sits
    // on the root class: `c0~e10_11~goal` has no acyclic completion, so
    // the exhaustive multi-tilde search would run for hours without the
    // deadline, and never trips the result cap.
    let mut b = SchemaBuilder::new();
    let classes: Vec<_> = (0..12)
        .map(|i| b.class(&format!("c{i}")).unwrap())
        .collect();
    for (i, &source) in classes.iter().enumerate() {
        for (j, &target) in classes.iter().enumerate() {
            if i != j {
                b.assoc(source, target, &format!("e{i}_{j}")).unwrap();
            }
        }
    }
    b.attr(classes[0], "goal", Primitive::Real).unwrap();
    let dense = b.build().unwrap();
    let (status, body) = client
        .request("PUT", "/v1/schemas/dense", &dense.to_json())
        .unwrap();
    assert_eq!(status, 200, "{body}");

    let req = r#"{"schema": "dense", "queries": ["c0.goal", "c0~e10_11~goal"],
                  "deadline_ms": 150, "threads": 2}"#;
    let started = std::time::Instant::now();
    let (status, body) = client.request("POST", "/v1/complete/batch", req).unwrap();
    assert_eq!(status, 200, "{body}");
    let v = serde_json::parse_value_text(&body).unwrap();
    let Value::Seq(items) = get(&v, "items") else {
        panic!("items is not an array: {body}");
    };
    assert_eq!(
        get(&items[0], "status"),
        Value::Str("ok".to_owned()),
        "{body}"
    );
    assert_eq!(
        get(&items[1], "status"),
        Value::Str("deadline_exceeded".to_owned()),
        "{body}"
    );
    assert_eq!(as_u64(&get(&v, "deadline_hits")), 1);
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "batch stalled: {:?}",
        started.elapsed()
    );
    server.shutdown();
}

/// Sends raw bytes and returns the full response text (the server closes
/// rejected connections, so read-to-end terminates).
fn raw_request(addr: &str, payload: &str) -> String {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(payload.as_bytes()).expect("write");
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    out
}

fn raw_status(resp: &str) -> u16 {
    resp.split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {resp:?}"))
}

/// A declared body beyond the 32 MiB cap is answered `413` from the
/// headers alone — the server never tries to read the body.
#[test]
fn oversized_declared_body_is_413() {
    let (server, _client) = start_server();
    let addr = server.addr().to_string();
    let resp = raw_request(
        &addr,
        "POST /v1/complete HTTP/1.1\r\nHost: t\r\nContent-Length: 33554433\r\n\r\n",
    );
    assert_eq!(raw_status(&resp), 413, "{resp}");
    server.shutdown();
}

/// Conflicting duplicate `Content-Length` headers (a request-smuggling
/// vector) are a `400`; *identical* duplicates are tolerated.
#[test]
fn duplicate_content_length_handling() {
    let (server, _client) = start_server();
    let addr = server.addr().to_string();
    let resp = raw_request(
        &addr,
        "POST /v1/complete HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\n{}",
    );
    assert_eq!(raw_status(&resp), 400, "{resp}");
    assert!(resp.contains("conflicting"), "{resp}");

    let resp = raw_request(
        &addr,
        "GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(raw_status(&resp), 200, "{resp}");
    server.shutdown();
}

/// Header-field floods are answered `431`: too many header lines, or one
/// absurdly long line.
#[test]
fn header_floods_are_431() {
    let (server, _client) = start_server();
    let addr = server.addr().to_string();
    let mut flood = String::from("GET /healthz HTTP/1.1\r\nHost: t\r\n");
    for i in 0..101 {
        flood.push_str(&format!("X-Flood-{i}: x\r\n"));
    }
    flood.push_str("\r\n");
    let resp = raw_request(&addr, &flood);
    assert_eq!(raw_status(&resp), 431, "{resp}");

    let long_line = format!(
        "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Long: {}\r\n\r\n",
        "a".repeat(9 * 1024)
    );
    let resp = raw_request(&addr, &long_line);
    assert_eq!(raw_status(&resp), 431, "{resp}");

    let long_target = format!("GET /{} HTTP/1.1\r\nHost: t\r\n\r\n", "a".repeat(9 * 1024));
    let resp = raw_request(&addr, &long_target);
    assert_eq!(raw_status(&resp), 431, "{resp}");
    server.shutdown();
}

/// A test server with explicit tracing/flight-recorder knobs.
fn start_traced_server(tune: impl FnOnce(&mut ServiceConfig)) -> (Server, Client) {
    let mut config = ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        reactors: 4,
        queue_depth: 16,
        request_timeout: Duration::from_secs(5),
        batch_threads: 2,
        ..Default::default()
    };
    tune(&mut config);
    let server = Server::start(config).expect("bind ephemeral port");
    server
        .state()
        .registry
        .insert("default", fixtures::university());
    let client = Client::new(server.addr().to_string());
    (server, client)
}

/// Every span must close the parent chain: parent 0 is the root, any
/// other parent must be the id of another span in the same trace.
fn assert_parent_linkage(spans: &[Value], body: &str) {
    let ids: Vec<u64> = spans.iter().map(|s| as_u64(&get(s, "id"))).collect();
    for s in spans {
        let parent = as_u64(&get(s, "parent"));
        assert!(
            parent == 0 || ids.contains(&parent),
            "span {:?} has dangling parent {parent}: {body}",
            get(s, "name")
        );
    }
}

fn span_names(spans: &[Value]) -> Vec<String> {
    spans
        .iter()
        .map(|s| match get(s, "name") {
            Value::Str(s) => s,
            other => panic!("span name is not a string: {other:?}"),
        })
        .collect()
}

/// A propagated `x-ipe-trace-id` is echoed back and keys a retrievable
/// trace at `/v1/debug/requests/:trace_id` whose span tree covers the
/// request lifecycle (http -> cache probe -> search -> per-segment) with
/// intact parent linkage.
#[test]
#[cfg_attr(feature = "obs-off", ignore = "tracing is compiled out")]
fn trace_id_propagates_and_trace_is_retrievable() {
    let (server, mut client) = start_traced_server(|_| {});
    let resp = client
        .request_with(
            "POST",
            "/v1/complete",
            r#"{"query": "ta~name"}"#,
            &[("x-ipe-trace-id", "myid123")],
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(
        resp.header("x-ipe-trace-id"),
        Some("myid123"),
        "propagated trace id must be echoed"
    );

    let (status, body) = client
        .request("GET", "/v1/debug/requests/myid123", "")
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let v = serde_json::parse_value_text(&body).expect("trace is valid JSON");
    assert_eq!(get(&v, "trace_id"), Value::Str("myid123".to_owned()));
    assert_eq!(get(&v, "route"), Value::Str("complete".to_owned()));
    let Value::Seq(spans) = get(&v, "spans") else {
        panic!("spans is not an array: {body}");
    };
    assert!(
        spans.len() >= 4,
        "want >= 4 spans, got {}: {body}",
        spans.len()
    );
    let names = span_names(&spans);
    for expected in ["http", "cache.probe", "search", "search.segment"] {
        assert!(
            names.iter().any(|n| n == expected),
            "missing span {expected}: {names:?}"
        );
    }
    assert_parent_linkage(&spans, &body);
    // The segment search span carries the engine's prune counters.
    let seg = spans
        .iter()
        .find(|s| matches!(get(s, "name"), Value::Str(n) if n == "search.segment"))
        .unwrap();
    let attrs = get(seg, "attrs");
    assert!(attrs.get("calls").is_some(), "{body}");
    server.shutdown();
}

/// Without a propagated id the server generates one, echoes it, and the
/// trace is retrievable under the generated id.
#[test]
#[cfg_attr(feature = "obs-off", ignore = "tracing is compiled out")]
fn generated_trace_id_is_echoed_and_retained() {
    let (server, mut client) = start_traced_server(|_| {});
    let resp = client
        .request_with("POST", "/v1/complete", r#"{"query": "ta~name"}"#, &[])
        .unwrap();
    let id = resp
        .header("x-ipe-trace-id")
        .expect("generated trace id in response")
        .to_owned();
    assert!(!id.is_empty());
    let (status, body) = client
        .request("GET", &format!("/v1/debug/requests/{id}"), "")
        .unwrap();
    assert_eq!(status, 200, "{body}");
    // An invalid propagated id (spaces) is replaced, not echoed.
    let resp = client
        .request_with(
            "GET",
            "/healthz",
            "",
            &[("x-ipe-trace-id", "not a valid id")],
        )
        .unwrap();
    assert_ne!(resp.header("x-ipe-trace-id"), Some("not a valid id"));
    server.shutdown();
}

/// Trace ids cross the batch fan-out: the `batch.item` spans recorded on
/// worker threads parent back into the request's span tree.
#[test]
#[cfg_attr(feature = "obs-off", ignore = "tracing is compiled out")]
fn batch_trace_spans_cross_worker_threads() {
    let (server, mut client) = start_traced_server(|_| {});
    let resp = client
        .request_with(
            "POST",
            "/v1/complete/batch",
            r#"{"queries": ["ta~name", "department~take"], "threads": 2}"#,
            &[("x-ipe-trace-id", "batchtrace1")],
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let (status, body) = client
        .request("GET", "/v1/debug/requests/batchtrace1", "")
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let v = serde_json::parse_value_text(&body).unwrap();
    let Value::Seq(spans) = get(&v, "spans") else {
        panic!("spans is not an array: {body}");
    };
    let names = span_names(&spans);
    let items = names.iter().filter(|n| *n == "batch.item").count();
    assert_eq!(items, 2, "one batch.item span per miss: {names:?}");
    assert_parent_linkage(&spans, &body);
    // Each batch.item parents at the fan-out span, which parents at http.
    let fanout = spans
        .iter()
        .find(|s| matches!(get(s, "name"), Value::Str(n) if n == "batch"))
        .expect("fan-out span");
    let fanout_id = as_u64(&get(fanout, "id"));
    for s in spans
        .iter()
        .filter(|s| matches!(get(s, "name"), Value::Str(n) if n == "batch.item"))
    {
        assert_eq!(as_u64(&get(s, "parent")), fanout_id, "{body}");
    }
    server.shutdown();
}

/// Ring wraparound: errored requests and the slowest-K pool survive
/// while ordinary sampled traffic is evicted from the tiny recent ring.
/// The slowest pool is checked against the durations the recorder itself
/// reports, so the test never assumes which request ran slowest.
#[test]
#[cfg_attr(feature = "obs-off", ignore = "tracing is compiled out")]
fn flight_recorder_retains_errors_and_slowest_across_wraparound() {
    let (server, mut client) = start_traced_server(|c| {
        c.flight_capacity = 4;
        c.flight_keep_slowest = 2;
        c.flight_keep_errors = 2;
        // No force-retained `slow` traces: the pool is the pure top K.
        c.slow_ms = 0;
    });
    // Every trace's duration as the recorder reports it, read back right
    // after its request, while it is still the newest in its ring shard.
    let mut reported: Vec<(String, u64)> = Vec::new();
    let mut send = |client: &mut Client, id: &str, body: &str, status: u16| {
        let resp = client
            .request_with("POST", "/v1/complete", body, &[("x-ipe-trace-id", id)])
            .unwrap();
        assert_eq!(resp.status, status, "{}", resp.body);
        let (status, trace) = client
            .request("GET", &format!("/v1/debug/requests/{id}"), "")
            .unwrap();
        assert_eq!(status, 200, "fresh trace {id} is not retained: {trace}");
        let v = serde_json::parse_value_text(&trace).unwrap();
        reported.push((id.to_owned(), as_u64(&get(&v, "duration_ns"))));
    };
    // A cold search, an errored request (unknown schema -> 404), then
    // cheap cached requests wrapping the recent ring many times over.
    let ta_name = r#"{"query": "ta~name"}"#;
    send(&mut client, "cold", ta_name, 200);
    send(
        &mut client,
        "err1",
        r#"{"schema": "ghost", "query": "a~b"}"#,
        404,
    );
    for i in 0..40 {
        send(&mut client, &format!("wrap{i}"), ta_name, 200);
    }
    let (status, dump) = client.request("GET", "/v1/debug/requests", "").unwrap();
    assert_eq!(status, 200);
    let v = serde_json::parse_value_text(&dump).unwrap();
    let pool = |name: &str| -> Vec<(String, u64)> {
        let Value::Seq(rows) = get(&v, name) else {
            panic!("{name} is not an array: {dump}");
        };
        rows.iter()
            .map(|r| match get(r, "trace_id") {
                Value::Str(id) => (id, as_u64(&get(r, "duration_ns"))),
                other => panic!("trace_id is not a string: {other:?}"),
            })
            .collect()
    };
    // The errored trace survives in its always-keep pool.
    assert!(pool("errors").iter().any(|(id, _)| id == "err1"), "{dump}");
    // The slowest pool is full and holds the top-2 durations of every
    // trace the recorder has reported...
    let slowest = pool("slowest");
    assert_eq!(slowest.len(), 2, "{dump}");
    let floor = slowest.iter().map(|(_, d)| *d).min().unwrap();
    reported.extend(pool("recent"));
    reported.extend(pool("errors"));
    for (id, duration) in &reported {
        assert!(
            *duration <= floor || slowest.iter().any(|(s, _)| s == id),
            "{id} took {duration} ns, above the slowest pool's floor {floor}: {dump}"
        );
    }
    // ...and its slowest member is still retrievable. (Each recorded
    // request, the dump itself included, can displace only the pool's
    // fastest member.)
    let (id, _) = &slowest[0];
    let (status, body) = client
        .request("GET", &format!("/v1/debug/requests/{id}"), "")
        .unwrap();
    assert_eq!(status, 200, "slowest trace {id} evicted: {body}");
    // Ordinary traffic was evicted: the recent ring holds at most one
    // trace per shard (8 shards here) and the slowest reservoir two, so
    // the vast majority of the 40 wrap requests must be gone.
    let mut evicted = 0;
    for i in 0..40 {
        let (status, _) = client
            .request("GET", &format!("/v1/debug/requests/wrap{i}"), "")
            .unwrap();
        evicted += u64::from(status == 404);
    }
    assert!(evicted >= 30, "only {evicted}/40 wrap traces were evicted");
    server.shutdown();
}

/// Head sampling: with `trace_sample_n` = 2 only every other request
/// records spans, and unsampled requests leave no retrievable trace.
#[test]
#[cfg_attr(feature = "obs-off", ignore = "tracing is compiled out")]
fn head_sampling_skips_unsampled_requests() {
    let (server, mut client) = start_traced_server(|c| {
        c.trace_sample_n = 2;
        c.slow_ms = 0;
    });
    // Issue all requests first: the debug lookups below consume sampling
    // ticks too, and interleaving them would lock every probe request
    // onto the same tick parity.
    for i in 0..6 {
        let id = format!("sample{i}");
        let resp = client
            .request_with("GET", "/healthz", "", &[("x-ipe-trace-id", &id)])
            .unwrap();
        assert_eq!(resp.status, 200);
    }
    let mut retained = 0;
    for i in 0..6 {
        let (status, _) = client
            .request("GET", &format!("/v1/debug/requests/sample{i}"), "")
            .unwrap();
        retained += u64::from(status == 200);
    }
    // This server is private to the test, so exactly every other request
    // passed the 1-in-2 head sample.
    assert_eq!(retained, 3, "1-in-2 sampling retained {retained}/6");
    server.shutdown();
}

/// The Prometheus exposition passes the in-repo lint, carries the cache
/// byte gauge, histogram families for the route timers, and recorded
/// quantiles; the JSON default is unchanged and reports the same bytes.
#[test]
fn prometheus_exposition_lints_and_reports_cache_bytes() {
    let (server, mut client) = start_traced_server(|_| {});
    // A cold completion gives the cache a non-zero byte footprint.
    let (status, _) = client
        .request("POST", "/v1/complete", r#"{"query": "ta~name"}"#)
        .unwrap();
    assert_eq!(status, 200);

    let resp = client
        .request_with("GET", "/metrics?format=prometheus", "", &[])
        .unwrap();
    assert_eq!(resp.status, 200);
    assert!(
        resp.header("content-type")
            .is_some_and(|ct| ct.starts_with("text/plain")),
        "prometheus exposition must be text/plain, got {:?}",
        resp.header("content-type")
    );
    if let Err(problems) = ipe_obs::prom::lint(&resp.body) {
        panic!("prometheus lint failed: {problems:?}\n{}", resp.body);
    }
    assert!(
        resp.body.contains("ipe_service_cache_bytes"),
        "{}",
        resp.body
    );
    // The gauge is non-zero after the cold insert.
    let bytes_line = resp
        .body
        .lines()
        .find(|l| l.starts_with("ipe_service_cache_bytes "))
        .expect("cache bytes sample line");
    let value: f64 = bytes_line
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .expect("numeric sample");
    assert!(value > 0.0, "{bytes_line}");

    // Per-tenant gauges are one family each, labelled by tenant, not a
    // family per tenant with the name mangled in.
    assert!(
        resp.body
            .contains("ipe_tenant_admitted{tenant=\"default\"} "),
        "{}",
        resp.body
    );
    assert!(
        !resp.body.contains("ipe_tenant_default_admitted"),
        "{}",
        resp.body
    );

    // JSON stays the default and reports the same gauge.
    let (status, body) = client.request("GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    let v = serde_json::parse_value_text(&body).expect("metrics JSON");
    let cache = get(&get(&v, "service"), "cache");
    assert_eq!(as_u64(&get(&cache, "bytes")), value as u64, "{body}");
    server.shutdown();
}

/// Flattens the numbers and bools under `v` into the Prometheus sample
/// names they must appear under: the JSON path joined by `_`, `*_total`
/// fields skipped (those names belong to the registry's counters).
fn expected_gauges(name: &str, v: &Value, labels: &str, out: &mut Vec<(String, f64)>) {
    let value = match v {
        Value::Bool(b) => f64::from(u8::from(*b)),
        Value::I64(n) => *n as f64,
        Value::U64(n) => *n as f64,
        Value::F64(n) => *n,
        Value::Map(fields) => {
            for (key, field) in fields {
                if !key.ends_with("_total") {
                    expected_gauges(&format!("{name}_{key}"), field, labels, out);
                }
            }
            return;
        }
        _ => return,
    };
    out.push((format!("{name}{labels}"), value));
}

/// Every number and bool of the JSON `service` section, per-tenant rows
/// included, appears in the Prometheus exposition with the same value.
#[test]
fn prometheus_gauges_mirror_json_service_section() {
    // Unsampled, so the scrapes themselves leave `flight_recorded` alone.
    let (server, mut client) = start_traced_server(|c| c.trace_sample_n = 0);
    let (status, body) = client
        .request("PUT", "/v1/tenants/acme", r#"{"cache_bytes": 1000}"#)
        .unwrap();
    assert_eq!(status, 201, "{body}");
    for _ in 0..2 {
        let (status, body) = client
            .request("POST", "/v1/complete", r#"{"query": "ta~name"}"#)
            .unwrap();
        assert_eq!(status, 200, "{body}");
    }
    let (status, json) = client.request("GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    let (status, text) = client
        .request("GET", "/metrics?format=prometheus", "")
        .unwrap();
    assert_eq!(status, 200);
    if let Err(problems) = ipe_obs::prom::lint(&text) {
        panic!("prometheus lint failed: {problems:?}\n{text}");
    }

    let service = get(&serde_json::parse_value_text(&json).unwrap(), "service");
    let mut expected = Vec::new();
    expected_gauges("ipe_service", &service, "", &mut expected);
    let Value::Seq(rows) = get(&service, "tenants") else {
        panic!("service.tenants is not an array: {json}");
    };
    assert_eq!(rows.len(), 2, "{json}");
    for row in &rows {
        let Value::Str(tenant) = get(row, "tenant") else {
            panic!("tenant is not a string: {json}");
        };
        let labels = format!("{{tenant=\"{tenant}\"}}");
        expected_gauges("ipe_tenant", row, &labels, &mut expected);
    }
    for (sample, value) in &expected {
        let line = text
            .lines()
            .find(|l| {
                l.strip_prefix(sample.as_str())
                    .is_some_and(|r| r.starts_with(' '))
            })
            .unwrap_or_else(|| panic!("no `{sample}` sample in:\n{text}"));
        let got: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert_eq!(got, *value, "{line} vs JSON {json}");
    }
    for sample in [
        "ipe_service_data_sets 0",
        "ipe_service_durable 0",
        "ipe_service_flight_recorded ",
        "ipe_service_index_completes_indexed ",
        "ipe_service_repl_records_applied 0",
        "ipe_service_cache_hits 1",
        "ipe_tenant_cache_hits{tenant=\"default\"} 1",
        "ipe_tenant_cache_budget_bytes{tenant=\"acme\"} 1000",
    ] {
        assert!(text.contains(sample), "no `{sample}` in:\n{text}");
    }
    assert!(!text.contains("ipe_service_data_loaded"), "{text}");
    server.shutdown();
}

/// The byte budget is the cache's only bound, so a zero budget is
/// refused at start.
#[test]
fn zero_cache_budget_is_refused() {
    let err = Server::start(ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        cache_bytes: 0,
        ..Default::default()
    })
    .err()
    .expect("a zero cache budget must not start");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
}

/// Route timers show up as histogram families with `_bucket`/`_sum`/
/// `_count` and recorded quantile gauges once traffic has flowed.
#[cfg(not(feature = "obs-off"))]
#[test]
fn prometheus_histograms_cover_route_timers() {
    let (server, mut client) = start_traced_server(|_| {});
    for _ in 0..3 {
        client
            .request("POST", "/v1/complete", r#"{"query": "ta~name"}"#)
            .unwrap();
    }
    let (status, body) = client
        .request("GET", "/metrics?format=prometheus", "")
        .unwrap();
    assert_eq!(status, 200);
    assert!(
        body.contains("ipe_service_route_complete_ns_bucket"),
        "{body}"
    );
    assert!(body.contains("ipe_service_route_complete_ns_sum"), "{body}");
    assert!(
        body.contains("ipe_service_route_complete_ns_count"),
        "{body}"
    );
    assert!(
        body.contains("ipe_service_route_complete_ns_quantile{quantile=\"0.95\"}"),
        "{body}"
    );
    server.shutdown();
}

/// With `obs-off` the debug routes are cleanly absent (404), while the
/// rest of the service keeps working.
#[cfg(feature = "obs-off")]
#[test]
fn obs_off_debug_routes_404_cleanly() {
    let (server, mut client) = start_traced_server(|_| {});
    let (status, body) = client.request("GET", "/v1/debug/requests", "").unwrap();
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("obs-off"), "{body}");
    let (status, _) = client.request("GET", "/v1/debug/requests/abc", "").unwrap();
    assert_eq!(status, 404);
    // Tracing headers are still echoed (ids are useful in logs even
    // without span recording).
    let resp = client
        .request_with("GET", "/healthz", "", &[("x-ipe-trace-id", "offid1")])
        .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-ipe-trace-id"), Some("offid1"));
    server.shutdown();
}

/// Pipelined keep-alive: several requests written back-to-back in one
/// burst must each get exactly one response, in order, with no bytes
/// lost between requests (the over-read tail of one request is the head
/// of the next).
#[test]
fn pipelined_keepalive_round_trips_losslessly() {
    use std::io::{Read, Write};
    let (server, _client) = start_server();
    let mut s = std::net::TcpStream::connect(server.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    let body = r#"{"query": "ta~name"}"#;
    let mut burst = String::new();
    for _ in 0..3 {
        burst.push_str("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        burst.push_str(&format!(
            "POST /v1/complete HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        ));
    }
    burst.push_str("GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    s.write_all(burst.as_bytes()).expect("write burst");

    let mut out = String::new();
    s.read_to_string(&mut out).expect("read all responses");
    // Bodies and the next status line share a line, so count substrings.
    assert_eq!(
        out.matches("HTTP/1.1 ").count(),
        7,
        "expected 7 responses:\n{out}"
    );
    assert_eq!(
        out.matches("HTTP/1.1 200").count(),
        7,
        "non-200 in pipeline:\n{out}"
    );
    // Each complete response carries the Figure-2 answers — framing did
    // not shear a body into the next request.
    assert_eq!(out.matches("ta@>grad@>student@>person.name").count(), 3);
    server.shutdown();
}

/// Splits a `/v1/complete` body into the body without its `cached` and
/// `duration_ns` fields, and the text of those two fields.
fn split_cache_fields(body: &str) -> (String, String) {
    let start = body
        .find(",\"cached\":")
        .unwrap_or_else(|| panic!("no cached: {body}"));
    let end = body
        .find(",\"completions\":")
        .unwrap_or_else(|| panic!("no completions: {body}"));
    let rest = format!("{}{}", &body[..start], &body[end..]);
    (rest, body[start..end].to_owned())
}

/// Asserts the cache fields read `"cached":<cached>,"duration_ns":<n>`.
fn assert_cache_fields(fields: &str, cached: bool) {
    let prefix = format!(",\"cached\":{cached},\"duration_ns\":");
    let ns = fields
        .strip_prefix(&prefix)
        .unwrap_or_else(|| panic!("unexpected cache fields {fields:?}"));
    assert!(ns.parse::<u64>().is_ok(), "duration_ns is {ns:?}");
}

/// A warm `/v1/complete` reply (answered from the cached, pre-encoded
/// fragment) is the cold reply byte for byte except for `cached` and
/// `duration_ns`; pipelined warm replies each frame with a
/// `Content-Length` covering head and fragment exactly.
#[test]
fn warm_complete_body_equals_cold_except_cache_fields() {
    use std::io::{Read, Write};
    let (server, mut client) = start_server();
    let req = r#"{"query": "ta ~ name", "e": 2}"#;
    let (status, cold) = client.request("POST", "/v1/complete", req).unwrap();
    assert_eq!(status, 200, "{cold}");
    let (status, warm) = client.request("POST", "/v1/complete", req).unwrap();
    assert_eq!(status, 200, "{warm}");
    let (cold_rest, cold_fields) = split_cache_fields(&cold);
    let (warm_rest, warm_fields) = split_cache_fields(&warm);
    assert_cache_fields(&cold_fields, false);
    assert_cache_fields(&warm_fields, true);
    assert_eq!(cold_rest, warm_rest);
    assert!(warm.ends_with("}}"), "{warm}");

    let mut s = std::net::TcpStream::connect(server.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let one = |close: &str| {
        format!(
            "POST /v1/complete HTTP/1.1\r\nHost: t\r\n{close}Content-Length: {}\r\n\r\n{req}",
            req.len()
        )
    };
    let burst = one("") + &one("Connection: close\r\n");
    s.write_all(burst.as_bytes()).expect("write burst");
    let mut out = Vec::new();
    s.read_to_end(&mut out).expect("read both responses");
    let mut rest = out.as_slice();
    for _ in 0..2 {
        let head_end = rest
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("a response head")
            + 4;
        let head = std::str::from_utf8(&rest[..head_end]).unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("a Content-Length header")
            .parse()
            .unwrap();
        let body = std::str::from_utf8(&rest[head_end..head_end + len]).unwrap();
        let (body_rest, fields) = split_cache_fields(body);
        assert_cache_fields(&fields, true);
        assert_eq!(body_rest, warm_rest, "a pipelined warm body differs");
        rest = &rest[head_end + len..];
    }
    assert!(rest.is_empty(), "bytes after the second response: {rest:?}");
    server.shutdown();
}

/// `%XX` escapes in the request target are decoded before routing:
/// a schema whose name contains a space round-trips through
/// `PUT`/`GET /v1/schemas/my%20schema`, and percent-encoded query
/// parameter values decode (`format=%70rometheus` still selects the
/// Prometheus exposition). Malformed escapes are a `400`.
#[test]
fn percent_escapes_decode_in_routing_and_query_params() {
    let (server, mut client) = start_server();
    let uni = fixtures::university().to_json();
    let (status, body) = client
        .request("PUT", "/v1/schemas/my%20schema", &uni)
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = client
        .request("GET", "/v1/schemas/my%20schema", "")
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let v = serde_json::parse_value_text(&body).unwrap();
    assert_eq!(get(&v, "name"), Value::Str("my schema".to_owned()));

    let (status, body) = client
        .request("GET", "/metrics?format=%70rometheus", "")
        .unwrap();
    assert_eq!(status, 200);
    assert!(
        body.contains("# TYPE"),
        "decoded format param must select Prometheus text: {body}"
    );

    let addr = server.addr().to_string();
    for bad in [
        "GET /v1/schemas/bad%2 HTTP/1.1\r\nHost: t\r\n\r\n",
        "GET /v1/schemas/bad%zz HTTP/1.1\r\nHost: t\r\n\r\n",
        "GET /healthz?x=%e2%28%a1 HTTP/1.1\r\nHost: t\r\n\r\n",
    ] {
        let resp = raw_request(&addr, bad);
        assert_eq!(raw_status(&resp), 400, "{bad:?} -> {resp}");
    }
    server.shutdown();
}

/// With one reactor capped at one live connection, a second concurrent
/// connection is turned away with `503` (and the old worker-pool error
/// body), and capacity frees up once the first connection closes.
#[test]
fn backpressure_503_beyond_connection_cap() {
    use std::io::{Read, Write};
    let server = Server::start(ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        reactors: 1,
        queue_depth: 1,
        request_timeout: Duration::from_secs(5),
        ..Default::default()
    })
    .expect("bind ephemeral port");
    server
        .state()
        .registry
        .insert("default", fixtures::university());
    let addr = server.addr().to_string();

    // Occupy the single slot with a live keep-alive connection.
    let mut held = std::net::TcpStream::connect(&addr).expect("connect");
    held.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    held.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut first = [0u8; 512];
    let n = held.read(&mut first).expect("read held response");
    assert!(String::from_utf8_lossy(&first[..n]).contains("200"));

    // The next connection is rejected at accept time.
    let resp = raw_request(&addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(raw_status(&resp), 503, "{resp}");
    assert!(resp.contains("request queue is full"), "{resp}");

    // Releasing the held connection frees the slot.
    drop(held);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let resp = raw_request(&addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        if raw_status(&resp) == 200 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "slot never freed: {resp}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

/// A handler panic — injected while the store, warmup, and builder locks
/// are held — answers that request `500` and leaves the server fully
/// serviceable: the poisoned locks are recovered on next use instead of
/// condemning every later request.
#[test]
fn injected_panic_does_not_take_down_the_server() {
    let (server, mut client) = start_traced_server(|c| c.debug_panic_route = true);
    let (status, body) = client.request("POST", "/v1/debug/panic", "").unwrap();
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("panicked"), "{body}");

    // Requests that take the same locks still succeed.
    let (status, body) = client
        .request("POST", "/v1/complete", r#"{"query": "ta~name"}"#)
        .unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(completion_texts(&body).len(), 2);
    let uni = fixtures::university().to_json();
    let (status, body) = client.request("PUT", "/v1/schemas/after", &uni).unwrap();
    assert_eq!(status, 200, "{body}");

    // A second injected panic and another recovery, for good measure.
    let (status, _) = client.request("POST", "/v1/debug/panic", "").unwrap();
    assert_eq!(status, 500);
    let (status, _) = client.request("GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);

    #[cfg(not(feature = "obs-off"))]
    {
        let (status, body) = client.request("GET", "/metrics", "").unwrap();
        assert_eq!(status, 200);
        let v = serde_json::parse_value_text(&body).unwrap();
        let counters = get(&v, "counters");
        assert!(
            as_u64(&get(&counters, "service.request.panicked")) >= 2,
            "{body}"
        );
    }
    server.shutdown();
}

/// The panic route is opt-in: without `debug_panic_route` it does not
/// exist.
#[test]
fn panic_route_is_absent_by_default() {
    let (server, mut client) = start_server();
    let (status, _) = client.request("POST", "/v1/debug/panic", "").unwrap();
    assert_eq!(status, 404);
    server.shutdown();
}
