//! End-to-end multi-tenancy: namespace isolation, admission quotas with
//! the unified retry envelope, delete-purge, quota persistence across
//! restarts, and follower convergence on tenant-tagged WAL records.

use ipe_schema::fixtures;
use ipe_service::{Client, FsyncPolicy, Server, ServiceConfig};
use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ipe-tenant-e2e-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn server(dir: Option<&Path>) -> (Server, Client) {
    let server = Server::start(ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        reactors: 1,
        queue_depth: 32,
        request_timeout: Duration::from_secs(5),
        data_dir: dir.map(Path::to_path_buf),
        fsync: FsyncPolicy::Never,
        snapshot_every: 0,
        ..Default::default()
    })
    .expect("bind server");
    let client = Client::new(server.addr().to_string());
    (server, client)
}

fn follower_server(leader_addr: &str) -> (Server, Client) {
    let server = Server::start(ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        reactors: 1,
        queue_depth: 32,
        request_timeout: Duration::from_secs(5),
        follow: Some(leader_addr.to_owned()),
        ..Default::default()
    })
    .expect("bind follower");
    let client = Client::new(server.addr().to_string());
    (server, client)
}

fn get(v: &Value, key: &str) -> Value {
    v.get(key)
        .unwrap_or_else(|| panic!("missing key {key} in {v:?}"))
        .clone()
}

fn as_u64(v: &Value) -> u64 {
    match v {
        Value::I64(i) => *i as u64,
        Value::U64(u) => *u,
        other => panic!("expected number, got {other:?}"),
    }
}

fn as_bool(v: &Value) -> bool {
    match v {
        Value::Bool(b) => *b,
        other => panic!("expected bool, got {other:?}"),
    }
}

fn as_str(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        other => panic!("expected string, got {other:?}"),
    }
}

fn await_applied(client: &mut Client, seq: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (status, body) = client.request("GET", "/v1/repl/status", "").unwrap();
        assert_eq!(status, 200, "{body}");
        let v = serde_json::parse_value_text(&body).unwrap();
        if as_u64(&get(&v, "applied_seq")) >= seq && as_u64(&get(&v, "lag_seq")) == 0 {
            return;
        }
        assert!(Instant::now() < deadline, "follower stuck: {body}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The same schema name in two tenants is two schemas: different bodies,
/// different completions, separate data instances, and per-tenant listing
/// under bare names. The legacy unprefixed routes are the `default`
/// tenant.
#[test]
fn tenant_namespaces_isolate_schemas_and_data() {
    let (server, mut c) = server(None);
    for t in ["a", "b"] {
        let (status, body) = c.request("PUT", &format!("/v1/tenants/{t}"), "{}").unwrap();
        assert_eq!(status, 201, "{body}");
    }
    // A second PUT reconfigures in place; a bad name is refused, and the
    // `default` tenant cannot be deleted.
    let (status, body) = c
        .request("PUT", "/v1/tenants/a", "{\"cache_bytes\": 65536}")
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = c.request("PUT", "/v1/tenants/Not%20Valid", "{}").unwrap();
    assert_eq!(status, 400, "{body}");
    let (status, body) = c.request("DELETE", "/v1/tenants/default", "").unwrap();
    assert_eq!(status, 409, "{body}");
    // Same name, different schemas.
    let uni = fixtures::university().to_json();
    let asm = fixtures::assembly().to_json();
    let (status, body) = c.request("PUT", "/v1/t/a/schemas/s", &uni).unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = c.request("PUT", "/v1/t/b/schemas/s", &asm).unwrap();
    assert_eq!(status, 200, "{body}");
    let v = serde_json::parse_value_text(&body).unwrap();
    assert_eq!(as_str(&get(&v, "name")), "s", "responses use bare names");
    let (status, body) = c.request("GET", "/v1/t/a/schemas/s", "").unwrap();
    assert_eq!(status, 200, "{body}");
    let v = serde_json::parse_value_text(&body).unwrap();
    assert_eq!(as_str(&get(&v, "name")), "s", "{body}");

    // Each tenant completes against its own schema: `ta~name` parses in
    // the university schema, and the same query against the assembly
    // schema resolves nothing (422), proving the bodies are distinct.
    let req = "{\"schema\":\"s\",\"query\":\"ta~name\"}";
    let (status, body) = c.request("POST", "/v1/t/a/complete", req).unwrap();
    assert_eq!(status, 200, "{body}");
    let v = serde_json::parse_value_text(&body).unwrap();
    assert_eq!(as_str(&get(&v, "schema")), "s");
    let (status, _) = c.request("POST", "/v1/t/b/complete", req).unwrap();
    assert_eq!(status, 422, "assembly schema has no `ta` class");

    // Data instances are scoped too: loading tenant a's leaves b's 404.
    let (status, body) = c
        .request(
            "PUT",
            "/v1/t/a/data/s",
            "{\"gen\":{\"objects_per_class\":2,\"seed\":7}}",
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, _) = c.request("GET", "/v1/t/a/data/s", "").unwrap();
    assert_eq!(status, 200);
    let (status, _) = c.request("GET", "/v1/t/b/data/s", "").unwrap();
    assert_eq!(status, 404, "data must not leak across tenants");

    // Listings are per-tenant with bare names; the legacy route shows
    // only `default` (which owns nothing here).
    let (status, body) = c.request("GET", "/v1/t/a/schemas", "").unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"s\""), "{body}");
    let (status, body) = c.request("GET", "/v1/schemas", "").unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(
        !body.contains("\"s\""),
        "default must not see tenant schemas: {body}"
    );

    // Unknown tenants 404 before any work happens.
    let (status, body) = c.request("POST", "/v1/t/ghost/complete", req).unwrap();
    assert_eq!(status, 404, "{body}");
    server.shutdown();
}

/// Quota exhaustion answers `429` with the unified machine-readable
/// envelope (`retryable`, `retry_after_ms`, `tenant`) and a `Retry-After`
/// header; the caught-up replica `409` carries `retryable: false` and no
/// hint, while a lagging replica's carries both.
/// Only the data plane is tenant-scoped: control-plane routes have no
/// `/v1/t/:tenant/` alias, so a scoped shutdown is a 404 and the server
/// keeps serving.
#[test]
fn control_plane_has_no_tenant_scoped_alias() {
    let (server, mut c) = server(None);
    for (method, path) in [
        ("POST", "/v1/t/default/shutdown"),
        ("GET", "/v1/t/default/tenants"),
        ("PUT", "/v1/t/default/tenants/x"),
        ("GET", "/v1/t/default/repl/status"),
        ("GET", "/v1/t/default/debug/requests"),
    ] {
        let (status, body) = c.request(method, path, "").unwrap();
        assert_eq!(status, 404, "{method} {path}: {body}");
    }
    let (status, body) = c.request("GET", "/healthz", "").unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = c.request("GET", "/v1/tenants/x", "").unwrap();
    assert_eq!(
        status, 404,
        "the scoped PUT must not have created a tenant: {body}"
    );
    server.shutdown();
}

#[test]
fn retry_envelopes_are_machine_readable() {
    let (quota_srv, mut c) = server(None);
    let (status, body) = c
        .request(
            "PUT",
            "/v1/tenants/capped",
            "{\"rate_per_sec\": 0.001, \"burst\": 2}",
        )
        .unwrap();
    assert_eq!(status, 201, "{body}");
    let uni = fixtures::university().to_json();
    let (status, body) = c.request("PUT", "/v1/t/capped/schemas/s", &uni).unwrap();
    assert_eq!(status, 200, "{body}");
    let req = "{\"schema\":\"s\",\"query\":\"ta~name\"}";
    let (status, body) = c.request("POST", "/v1/t/capped/complete", req).unwrap();
    assert_eq!(status, 200, "burst allowance: {body}");

    let resp = c
        .request_with("POST", "/v1/t/capped/complete", req, &[])
        .unwrap();
    assert_eq!(resp.status, 429, "{}", resp.body);
    let v = serde_json::parse_value_text(&resp.body).unwrap();
    assert!(as_bool(&get(&v, "retryable")));
    assert!(as_u64(&get(&v, "retry_after_ms")) > 0);
    assert_eq!(as_str(&get(&v, "tenant")), "capped");
    let after: u64 = resp
        .header("retry-after")
        .expect("Retry-After header")
        .parse()
        .expect("whole seconds");
    assert!(after >= 1);

    // Control-plane routes stay reachable for a throttled tenant.
    let (status, body) = c.request("GET", "/v1/tenants/capped", "").unwrap();
    assert_eq!(status, 200, "{body}");
    let v = serde_json::parse_value_text(&body).unwrap();
    assert!(as_u64(&get(&v, "throttled")) >= 1, "{body}");
    quota_srv.shutdown();

    // The replica-side 409s share the field contract. A follower that
    // cannot reach its leader defers pinned reads with a backoff hint...
    let (follower, mut fc) = follower_server("127.0.0.1:1");
    let (status, body) = fc
        .request(
            "POST",
            "/v1/complete",
            "{\"schema\":\"s\",\"query\":\"ta~name\",\"min_generation\":1}",
        )
        .unwrap();
    assert_eq!(status, 409, "{body}");
    let v = serde_json::parse_value_text(&body).unwrap();
    assert!(as_bool(&get(&v, "retryable")));
    let hint = as_u64(&get(&v, "retry_after_ms"));
    assert!((25..=2_000).contains(&hint), "clamped hint, got {hint}");
    follower.shutdown();

    // ...while a caught-up node's refusal is final: no hint at all.
    let (srv, mut c) = server(None);
    let (status, body) = c.request("PUT", "/v1/schemas/s", &uni).unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = c
        .request(
            "POST",
            "/v1/complete",
            "{\"schema\":\"s\",\"query\":\"ta~name\",\"min_generation\":99}",
        )
        .unwrap();
    assert_eq!(status, 409, "{body}");
    let v = serde_json::parse_value_text(&body).unwrap();
    assert!(!as_bool(&get(&v, "retryable")));
    assert!(
        v.get("retry_after_ms").is_none(),
        "final refusals carry no retry hint: {body}"
    );
    srv.shutdown();
}

/// `DELETE /v1/tenants/:t` atomically purges everything the tenant owns —
/// schemas, data instances, cache partition — reports the
/// counts, and the purge survives a restart (the WAL carries the
/// deletes). Other tenants' same-named schemas are untouched.
#[test]
fn tenant_delete_purges_namespace_durably() {
    let dir = tmp_dir("purge");
    let uni = fixtures::university().to_json();
    let req = "{\"schema\":\"s\",\"query\":\"ta~name\"}";
    {
        let (server, mut c) = server(Some(&dir));
        let (status, body) = c.request("PUT", "/v1/tenants/doomed", "{}").unwrap();
        assert_eq!(status, 201, "{body}");
        for name in ["s", "s2"] {
            let (status, body) = c
                .request("PUT", &format!("/v1/t/doomed/schemas/{name}"), &uni)
                .unwrap();
            assert_eq!(status, 200, "{body}");
        }
        let (status, body) = c.request("PUT", "/v1/schemas/s", &uni).unwrap();
        assert_eq!(status, 200, "{body}");
        let (status, body) = c
            .request(
                "PUT",
                "/v1/t/doomed/data/s",
                "{\"gen\":{\"objects_per_class\":2,\"seed\":7}}",
            )
            .unwrap();
        assert_eq!(status, 200, "{body}");
        // Warm the doomed tenant's cache partition so the purge has
        // entries to count.
        let (status, _) = c.request("POST", "/v1/t/doomed/complete", req).unwrap();
        assert_eq!(status, 200);

        let (status, body) = c.request("DELETE", "/v1/tenants/doomed", "").unwrap();
        assert_eq!(status, 200, "{body}");
        let v = serde_json::parse_value_text(&body).unwrap();
        assert_eq!(as_u64(&get(&v, "purged_schemas")), 2, "{body}");
        assert_eq!(as_u64(&get(&v, "purged_data")), 1, "{body}");
        assert!(as_u64(&get(&v, "purged_cache_entries")) >= 1, "{body}");
        assert!(as_u64(&get(&v, "purged_cache_bytes")) > 0, "{body}");

        let (status, _) = c.request("GET", "/v1/t/doomed/schemas/s", "").unwrap();
        assert_eq!(status, 404, "deleted tenant must not serve");
        let (status, _) = c.request("GET", "/v1/schemas/s", "").unwrap();
        assert_eq!(status, 200, "the default tenant's `s` must survive");
        server.shutdown();
    }
    // Restart on the same directory: the purge was WAL-logged, so the
    // doomed tenant's schemas stay gone while default's recover.
    let (server, mut c) = server(Some(&dir));
    let (status, _) = c.request("GET", "/v1/t/doomed/schemas/s", "").unwrap();
    assert_eq!(status, 404, "purge must survive recovery");
    let (status, body) = c.request("GET", "/v1/schemas/s", "").unwrap();
    assert_eq!(status, 200, "{body}");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Tenant configs persist in `tenants.json`: quotas and defaults survive
/// a restart, and recovered scoped schemas land back in their tenants.
#[test]
fn tenant_quotas_and_schemas_survive_restart() {
    let dir = tmp_dir("restart");
    let uni = fixtures::university().to_json();
    {
        let (server, mut c) = server(Some(&dir));
        let (status, body) = c
            .request(
                "PUT",
                "/v1/tenants/acme",
                "{\"rate_per_sec\": 50.0, \"burst\": 7, \"default_e\": 3, \"cache_bytes\": 1000}",
            )
            .unwrap();
        assert_eq!(status, 201, "{body}");
        let (status, body) = c.request("PUT", "/v1/t/acme/schemas/s", &uni).unwrap();
        assert_eq!(status, 200, "{body}");
        server.shutdown();
    }
    let (server, mut c) = server(Some(&dir));
    let (status, body) = c.request("GET", "/v1/tenants/acme", "").unwrap();
    assert_eq!(status, 200, "{body}");
    let v = serde_json::parse_value_text(&body).unwrap();
    let config = get(&v, "config");
    assert_eq!(as_u64(&get(&config, "burst")), 7, "{body}");
    assert_eq!(as_u64(&get(&config, "default_e")), 3, "{body}");
    // `/metrics` reports the configured cache budget, not a per-shard
    // rounding of it.
    let (status, body) = c.request("GET", "/metrics", "").unwrap();
    assert_eq!(status, 200, "{body}");
    let v = serde_json::parse_value_text(&body).unwrap();
    let Value::Seq(rows) = get(&get(&v, "service"), "tenants") else {
        panic!("service.tenants is not an array: {body}");
    };
    let acme = rows
        .iter()
        .find(|r| as_str(&get(r, "tenant")) == "acme")
        .expect("acme row");
    assert_eq!(as_u64(&get(acme, "cache_budget_bytes")), 1000, "{body}");
    // The recovered schema is back under its tenant, and the tenant's
    // default_e applies to requests that omit `e` (the query response
    // echoes the effective E).
    let (status, body) = c
        .request(
            "PUT",
            "/v1/t/acme/data/s",
            "{\"gen\":{\"objects_per_class\":2,\"seed\":7}}",
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = c
        .request(
            "POST",
            "/v1/t/acme/query",
            "{\"schema\":\"s\",\"query\":\"ta~name\"}",
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let v = serde_json::parse_value_text(&body).unwrap();
    assert_eq!(as_u64(&get(&v, "e")), 3, "tenant default_e must apply");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Followers apply tenant-tagged WAL records: scoped schemas converge
/// (auto-creating the namespace), scoped reads serve on the replica,
/// scoped writes are misdirected with the leader's address, and a tenant
/// purge on the leader propagates record-by-record.
#[test]
fn followers_converge_on_tenant_tagged_records() {
    let leader_dir = tmp_dir("repl-leader");
    let (leader, mut lc) = server(Some(&leader_dir));
    let leader_addr = leader.addr().to_string();
    let uni = fixtures::university().to_json();

    let (status, body) = lc.request("PUT", "/v1/tenants/acme", "{}").unwrap();
    assert_eq!(status, 201, "{body}");
    let (status, body) = lc.request("PUT", "/v1/t/acme/schemas/s", &uni).unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = lc.request("PUT", "/v1/schemas/plain", &uni).unwrap();
    assert_eq!(status, 200, "{body}");

    let (follower, mut fc) = follower_server(&leader_addr);
    await_applied(&mut fc, 2);

    // The namespace materialized on the follower from the records alone.
    let (status, body) = fc.request("GET", "/v1/t/acme/schemas/s", "").unwrap();
    assert_eq!(status, 200, "{body}");
    let v = serde_json::parse_value_text(&body).unwrap();
    assert_eq!(as_str(&get(&v, "name")), "s");
    let (status, body) = fc
        .request(
            "POST",
            "/v1/t/acme/complete",
            "{\"schema\":\"s\",\"query\":\"ta~name\"}",
        )
        .unwrap();
    assert_eq!(status, 200, "{body}");

    // Scoped writes on the replica are misdirected like unscoped ones.
    let resp = fc
        .request_with("PUT", "/v1/t/acme/schemas/other", &uni, &[])
        .unwrap();
    assert_eq!(resp.status, 421, "{}", resp.body);
    assert_eq!(resp.header("x-ipe-leader"), Some(leader_addr.as_str()));

    // Purging the tenant on the leader removes it from the follower too
    // (as WAL deletes), leaving the default tenant's schema alone.
    let (status, body) = lc.request("DELETE", "/v1/tenants/acme", "").unwrap();
    assert_eq!(status, 200, "{body}");
    await_applied(&mut fc, 3); // seq 3 = the scoped delete
    let (status, _) = fc.request("GET", "/v1/t/acme/schemas/s", "").unwrap();
    assert_eq!(status, 404, "tenant purge must propagate");
    let (status, _) = fc.request("GET", "/v1/schemas/plain", "").unwrap();
    assert_eq!(status, 200);

    follower.shutdown();
    leader.shutdown();
    std::fs::remove_dir_all(&leader_dir).ok();
}
