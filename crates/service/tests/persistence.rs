//! End-to-end persistence tests: a server with a data directory survives
//! restarts — acknowledged schema writes come back with their exact ids
//! and generations, deletes stay deleted, and the warmup journal
//! pre-warms the completion cache.

use ipe_schema::fixtures;
use ipe_service::{Client, FsyncPolicy, Server, ServiceConfig};
use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ipe-service-persist-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn durable_server(dir: &Path) -> (Server, Client) {
    let server = Server::start(ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        reactors: 2,
        queue_depth: 16,
        request_timeout: Duration::from_secs(5),
        data_dir: Some(dir.to_path_buf()),
        fsync: FsyncPolicy::Always,
        snapshot_every: 4,
        ..Default::default()
    })
    .expect("bind ephemeral port");
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

/// PUT + DELETE traffic survives a clean restart: ids and generations are
/// restored exactly, deleted schemas never resurrect, and post-restart
/// mutations continue both sequences monotonically.
#[test]
fn registry_survives_restart_with_exact_ids_and_generations() {
    let dir = tmp_dir("registry");
    let uni = fixtures::university().to_json();
    let assembly = fixtures::assembly().to_json();

    let (uni_id, doomed_id);
    {
        let (server, mut client) = durable_server(&dir);
        let (status, body) = client.request("PUT", "/v1/schemas/uni", &uni).unwrap();
        assert_eq!(status, 200, "{body}");
        let v = serde_json::parse_value_text(&body).unwrap();
        uni_id = as_u64(&get(&v, "id"));
        // Hot-swap twice: generation 3.
        client.request("PUT", "/v1/schemas/uni", &uni).unwrap();
        let (_, body) = client.request("PUT", "/v1/schemas/uni", &uni).unwrap();
        let v = serde_json::parse_value_text(&body).unwrap();
        assert_eq!(as_u64(&get(&v, "generation")), 3);

        let (_, body) = client
            .request("PUT", "/v1/schemas/doomed", &assembly)
            .unwrap();
        let v = serde_json::parse_value_text(&body).unwrap();
        doomed_id = as_u64(&get(&v, "id"));
        let (status, _) = client.request("DELETE", "/v1/schemas/doomed", "").unwrap();
        assert_eq!(status, 200);
        server.shutdown();
    }

    {
        let (server, mut client) = durable_server(&dir);
        // `uni` came back at its exact id and generation.
        let (status, body) = client.request("GET", "/v1/schemas/uni", "").unwrap();
        assert_eq!(status, 200, "{body}");
        let v = serde_json::parse_value_text(&body).unwrap();
        assert_eq!(as_u64(&get(&v, "id")), uni_id);
        assert_eq!(as_u64(&get(&v, "generation")), 3);

        // The deleted schema stayed deleted.
        let (status, _) = client.request("GET", "/v1/schemas/doomed", "").unwrap();
        assert_eq!(status, 404, "deleted schema must not resurrect");

        // A post-restart hot-swap continues the generation sequence.
        let (_, body) = client.request("PUT", "/v1/schemas/uni", &uni).unwrap();
        let v = serde_json::parse_value_text(&body).unwrap();
        assert_eq!(as_u64(&get(&v, "generation")), 4);

        // A fresh name gets an id no previous registration ever used —
        // even the deleted one's — so pre-restart cache keys cannot
        // alias it.
        let (_, body) = client
            .request("PUT", "/v1/schemas/fresh", &assembly)
            .unwrap();
        let v = serde_json::parse_value_text(&body).unwrap();
        let fresh_id = as_u64(&get(&v, "id"));
        assert!(
            fresh_id > uni_id && fresh_id > doomed_id,
            "fresh id {fresh_id} collides with a pre-restart id"
        );
        server.shutdown();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The warmup journal written on shutdown pre-warms the completion cache:
/// the first post-restart request for a hot query is already a cache hit.
#[test]
fn warmup_journal_prewarms_the_cache_across_restart() {
    let dir = tmp_dir("warmup");
    let uni = fixtures::university().to_json();
    {
        let (server, mut client) = durable_server(&dir);
        client.request("PUT", "/v1/schemas/uni", &uni).unwrap();
        for _ in 0..3 {
            let (status, _) = client
                .request(
                    "POST",
                    "/v1/complete",
                    r#"{"schema": "uni", "query": "ta~name"}"#,
                )
                .unwrap();
            assert_eq!(status, 200);
        }
        server.shutdown();
    }
    {
        let (server, mut client) = durable_server(&dir);
        let (status, body) = client
            .request(
                "POST",
                "/v1/complete",
                r#"{"schema": "uni", "query": "ta~name"}"#,
            )
            .unwrap();
        assert_eq!(status, 200, "{body}");
        let v = serde_json::parse_value_text(&body).unwrap();
        assert_eq!(
            get(&v, "cached"),
            Value::Bool(true),
            "first request after restart should be warmed: {body}"
        );
        server.shutdown();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The `/metrics` service section reports durability gauges.
#[test]
fn metrics_report_durability() {
    let dir = tmp_dir("metrics");
    let (server, mut client) = durable_server(&dir);
    let uni = fixtures::university().to_json();
    client.request("PUT", "/v1/schemas/uni", &uni).unwrap();
    let (status, body) = client.request("GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    let v = serde_json::parse_value_text(&body).unwrap();
    let service = get(&v, "service");
    assert_eq!(get(&service, "durable"), Value::Bool(true));
    assert!(as_u64(&get(&service, "wal_last_seq")) >= 1);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A panic injected while the store mutex is held must not cost
/// durability: the lock is recovered (the WAL is append-consistent at
/// every panic point), writes keep landing on disk, and a restart
/// recovers everything written both before and after the panic.
#[test]
fn durable_writes_survive_an_injected_panic() {
    let dir = tmp_dir("panic");
    let uni = fixtures::university().to_json();
    {
        let server = Server::start(ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            reactors: 2,
            queue_depth: 16,
            request_timeout: Duration::from_secs(5),
            data_dir: Some(dir.to_path_buf()),
            fsync: FsyncPolicy::Always,
            debug_panic_route: true,
            ..Default::default()
        })
        .expect("bind ephemeral port");
        let mut client = Client::new(server.addr().to_string());

        let (status, body) = client.request("PUT", "/v1/schemas/before", &uni).unwrap();
        assert_eq!(status, 200, "{body}");

        // Poison the store/warmup/builder locks mid-flight.
        let (status, body) = client.request("POST", "/v1/debug/panic", "").unwrap();
        assert_eq!(status, 500, "{body}");

        // Durable mutations still work after recovery.
        let (status, body) = client.request("PUT", "/v1/schemas/after", &uni).unwrap();
        assert_eq!(status, 200, "{body}");
        client.request("POST", "/v1/shutdown", "").unwrap();
        server.join();
    }
    {
        let (server, mut client) = durable_server(&dir);
        for name in ["before", "after"] {
            let (status, body) = client
                .request("GET", &format!("/v1/schemas/{name}"), "")
                .unwrap();
            assert_eq!(status, 200, "{name} lost across restart: {body}");
        }
        client.request("POST", "/v1/shutdown", "").unwrap();
        server.join();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
