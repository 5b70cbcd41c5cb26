//! End-to-end tests of the service's background index builds:
//! post-build requests report index hits in `/metrics`, an eager (`on`)
//! index's sidecar is loaded on restart only when it matches the schema's
//! exact id and generation — stale or corrupt sidecars trigger a rebuild,
//! never an error and never wrong bounds — and the default lazy index
//! writes no sidecar yet serves every request after a restart indexed.
//! (Completes issued inside the build window are tested in the crate's
//! unit tests, which can hold a build.)

use ipe_index::IndexMode;
use ipe_schema::fixtures;
use ipe_service::{Client, FsyncPolicy, Server, ServiceConfig};
use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ipe-service-index-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn server_with(data_dir: &Path, index_mode: IndexMode) -> (Server, Client) {
    let server = Server::start(ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        reactors: 2,
        queue_depth: 16,
        request_timeout: Duration::from_secs(5),
        data_dir: Some(data_dir.to_path_buf()),
        fsync: FsyncPolicy::Always,
        snapshot_every: 4,
        index_mode,
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

/// The `service.index` section of `/metrics`.
fn index_metrics(client: &mut Client) -> Value {
    let (status, body) = client.request("GET", "/metrics", "").unwrap();
    assert_eq!(status, 200, "{body}");
    let v = serde_json::parse_value_text(&body).unwrap();
    get(&get(&v, "service"), "index")
}

/// Polls `/metrics` until the index section satisfies `pred`, panicking
/// after ten seconds.
fn wait_for_index(client: &mut Client, what: &str, pred: impl Fn(&Value) -> bool) -> Value {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let m = index_metrics(client);
        if pred(&m) {
            return m;
        }
        if Instant::now() > deadline {
            panic!("timed out waiting for {what}; last metrics: {m:?}");
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// A `/v1/complete` body the startup cache warm-up never fills: it warms
/// only the default configuration, and this one asks for `E = 3`.
const UNWARMED_COMPLETE: &str = r#"{"schema": "uni", "query": "ta~name", "e": 3}"#;

/// The completions of `/v1/complete` with `body`.
fn completions(client: &mut Client, body: &str) -> Value {
    let (status, reply) = client.request("POST", "/v1/complete", body).unwrap();
    assert_eq!(status, 200, "{reply}");
    get(
        &serde_json::parse_value_text(&reply).unwrap(),
        "completions",
    )
}

/// The `IPEIDX01` form of a current index payload: the same goal records
/// behind the old magic and the old layout's two `n × n` `u16` class-pair
/// matrices (here all `0xFFFF`).
fn old_layout_index(payload: &[u8], class_count: usize) -> Vec<u8> {
    let mut old = b"IPEIDX01".to_vec();
    old.extend_from_slice(&payload[8..16]);
    old.extend(vec![0xFF; 2 * class_count * class_count * 2]);
    old.extend_from_slice(&payload[16..]);
    old
}

/// With the eager index, a sidecar written on one run is loaded on the
/// next (skipping the rebuild), while a tampered, stale or old-layout
/// sidecar silently degrades to a fresh background build with identical
/// results.
#[test]
fn sidecar_roundtrip_and_stale_or_corrupt_fallback() {
    let dir = tmp_dir("sidecar");
    let uni = fixtures::university().to_json();

    // Run A: PUT, wait for the build, shutdown (joins the builder so the
    // sidecar write lands before exit).
    let schema_id;
    let generation;
    {
        let (server, mut client) = server_with(&dir, IndexMode::On);
        let (status, body) = client.request("PUT", "/v1/schemas/uni", &uni).unwrap();
        assert_eq!(status, 200, "{body}");
        let v = serde_json::parse_value_text(&body).unwrap();
        schema_id = as_u64(&get(&v, "id"));
        generation = as_u64(&get(&v, "generation"));
        wait_for_index(&mut client, "initial build", |m| {
            as_u64(&get(m, "builds_completed")) >= 1
        });
        server.shutdown();
    }
    let sidecar = ipe_store::sidecar_path(&dir, schema_id);
    assert!(sidecar.exists(), "build should have persisted a sidecar");

    // Run B: restart loads the sidecar instead of rebuilding, and an
    // uncached complete is indexed from the first request.
    let before_restarts;
    {
        let (server, mut client) = server_with(&dir, IndexMode::On);
        let m = index_metrics(&mut client);
        assert_eq!(as_u64(&get(&m, "sidecar_loads")), 1, "{m:?}");
        assert_eq!(as_u64(&get(&m, "builds_completed")), 0, "{m:?}");
        let (status, body) = client
            .request(
                "POST",
                "/v1/complete",
                r#"{"schema": "uni", "query": "ta~name"}"#,
            )
            .unwrap();
        assert_eq!(status, 200, "{body}");
        let m = index_metrics(&mut client);
        assert!(as_u64(&get(&m, "completes_indexed")) >= 1, "{m:?}");
        before_restarts = completions(&mut client, UNWARMED_COMPLETE);
        server.shutdown();
    }

    // Run C: a sidecar tagged with a *different generation* (as if left
    // behind by an older schema version) must not be loaded against the
    // current one — rebuild instead.
    ipe_store::write_sidecar(&sidecar, schema_id, 999, b"whatever").unwrap();
    {
        let (server, mut client) = server_with(&dir, IndexMode::On);
        let m = index_metrics(&mut client);
        assert_eq!(
            as_u64(&get(&m, "sidecar_loads")),
            0,
            "a stale-generation sidecar must never be loaded: {m:?}"
        );
        wait_for_index(&mut client, "rebuild after stale sidecar", |m| {
            as_u64(&get(m, "builds_completed")) >= 1
        });
        let (status, body) = client
            .request(
                "POST",
                "/v1/complete",
                r#"{"schema": "uni", "query": "department~take"}"#,
            )
            .unwrap();
        assert_eq!(status, 200, "{body}");
        server.shutdown();
    }

    // Run D: flip a byte in the (now freshly rewritten) sidecar; the
    // checksum rejects it and the server rebuilds rather than erroring.
    let mut bytes = std::fs::read(&sidecar).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&sidecar, &bytes).unwrap();
    {
        let (server, mut client) = server_with(&dir, IndexMode::On);
        let m = index_metrics(&mut client);
        assert_eq!(as_u64(&get(&m, "sidecar_loads")), 0, "{m:?}");
        wait_for_index(&mut client, "rebuild after corrupt sidecar", |m| {
            as_u64(&get(m, "builds_completed")) >= 1
        });
        let (status, _) = client.request("GET", "/v1/schemas/uni", "").unwrap();
        assert_eq!(status, 200);
        server.shutdown();
    }

    // Run E: a sidecar of the current generation with a valid checksum
    // whose payload has the old index layout (`IPEIDX01`). The server
    // starts, does not load it, rebuilds, and answers as before.
    let payload = ipe_store::read_sidecar(&sidecar, schema_id, generation)
        .expect("run D left a sidecar of the current generation");
    let old = old_layout_index(&payload, fixtures::university().class_count());
    ipe_store::write_sidecar(&sidecar, schema_id, generation, &old).unwrap();
    {
        let (server, mut client) = server_with(&dir, IndexMode::On);
        let m = index_metrics(&mut client);
        assert_eq!(
            as_u64(&get(&m, "sidecar_loads")),
            0,
            "an old-layout sidecar must never be loaded: {m:?}"
        );
        wait_for_index(&mut client, "rebuild after old-layout sidecar", |m| {
            as_u64(&get(m, "builds_completed")) >= 1
        });
        assert_eq!(completions(&mut client, UNWARMED_COMPLETE), before_restarts);
        let m = index_metrics(&mut client);
        assert!(as_u64(&get(&m, "completes_indexed")) >= 1, "{m:?}");
        server.shutdown();
    }

    // DELETE removes the sidecar with the schema.
    {
        let (server, mut client) = server_with(&dir, IndexMode::On);
        let (status, _) = client.request("DELETE", "/v1/schemas/uni", "").unwrap();
        assert_eq!(status, 200);
        assert!(!sidecar.exists(), "DELETE should remove the index sidecar");
        server.shutdown();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The default lazy index writes no sidecar, and a restart installs it
/// before serving: the same answer as before, and not one request served
/// unindexed.
#[test]
fn default_lazy_index_writes_no_sidecar_and_serves_indexed_after_restart() {
    let dir = tmp_dir("lazy");
    let uni = fixtures::university().to_json();
    let default_mode = ServiceConfig::default().index_mode;
    assert_eq!(default_mode, IndexMode::Lazy);

    let schema_id;
    let before_restart;
    {
        let (server, mut client) = server_with(&dir, default_mode);
        let (status, body) = client.request("PUT", "/v1/schemas/uni", &uni).unwrap();
        assert_eq!(status, 200, "{body}");
        schema_id = as_u64(&get(&serde_json::parse_value_text(&body).unwrap(), "id"));
        let m = wait_for_index(&mut client, "lazy install", |m| {
            as_u64(&get(m, "builds_completed")) >= 1
        });
        assert_eq!(get(&m, "mode"), Value::Str("lazy".to_owned()), "{m:?}");
        before_restart = completions(&mut client, UNWARMED_COMPLETE);
        server.shutdown();
    }
    let sidecar = ipe_store::sidecar_path(&dir, schema_id);
    assert!(!sidecar.exists(), "a lazy index must write no sidecar");

    {
        let (server, mut client) = server_with(&dir, default_mode);
        assert_eq!(completions(&mut client, UNWARMED_COMPLETE), before_restart);
        let m = index_metrics(&mut client);
        assert_eq!(as_u64(&get(&m, "sidecar_loads")), 0, "{m:?}");
        assert!(as_u64(&get(&m, "completes_indexed")) >= 1, "{m:?}");
        assert_eq!(as_u64(&get(&m, "completes_unindexed")), 0, "{m:?}");
        server.shutdown();
    }
    assert!(!sidecar.exists(), "a restart must not write one either");
    std::fs::remove_dir_all(&dir).ok();
}
