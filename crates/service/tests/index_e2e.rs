//! End-to-end tests of the service's search index: each schema write
//! publishes its entry with the index already built, so `/metrics` counts
//! every build by the time the PUT is answered and the very next cache
//! miss is indexed, under `lazy` and `on` alike. Nothing is persisted: a
//! restart builds every index again before serving, and removes the
//! `index-<id>.idx` sidecars that older builds wrote.

use ipe_index::IndexMode;
use ipe_schema::fixtures;
use ipe_service::{Client, FsyncPolicy, Server, ServiceConfig};
use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

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

/// Where older builds kept the index sidecar of registry schema `id`.
fn sidecar_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("index-{id}.idx"))
}

/// `/v1/complete` of `query` against `schema` (a fresh cache key each
/// time, so the reply comes from the engine).
fn complete(client: &mut Client, schema: &str, query: &str) {
    let body = format!(r#"{{"schema": "{schema}", "query": "{query}"}}"#);
    let (status, reply) = client.request("POST", "/v1/complete", &body).unwrap();
    assert_eq!(status, 200, "{reply}");
}

/// The `(completes_indexed, completes_unindexed)` counts.
fn completes(m: &Value) -> (u64, u64) {
    (
        as_u64(&get(m, "completes_indexed")),
        as_u64(&get(m, "completes_unindexed")),
    )
}

/// Under every mode, `/metrics` read straight after N PUT replies counts
/// exactly N builds (none under `off`) and none in flight, and an
/// uncached complete sent straight after a PUT or a hot-swap is indexed.
#[test]
fn a_put_is_indexed_by_the_time_it_is_answered() {
    let uni = fixtures::university().to_json();
    let assembly = fixtures::assembly().to_json();
    for mode in [IndexMode::Lazy, IndexMode::On, IndexMode::Off] {
        let dir = tmp_dir("put");
        let (server, mut client) = server_with(&dir, mode);
        let indexed = mode != IndexMode::Off;
        let puts = [("uni", &uni), ("asm", &assembly), ("uni", &uni)];
        for (n, (name, json)) in puts.iter().enumerate() {
            let path = format!("/v1/schemas/{name}");
            let (status, body) = client.request("PUT", &path, json).unwrap();
            assert_eq!(status, 200, "{body}");
            let m = index_metrics(&mut client);
            let want = if indexed { n as u64 + 1 } else { 0 };
            assert_eq!(
                as_u64(&get(&m, "builds_completed")),
                want,
                "{mode:?}: {m:?}"
            );
            assert_eq!(as_u64(&get(&m, "builds_in_flight")), 0, "{mode:?}: {m:?}");
            assert_eq!(as_u64(&get(&m, "sidecar_loads")), 0, "{mode:?}: {m:?}");
            assert_eq!(get(&m, "mode"), Value::Str(mode.as_str().to_owned()));
        }
        // The last PUT hot-swapped `uni` (generation 2); `asm` is fresh.
        complete(&mut client, "uni", "ta~name");
        complete(&mut client, "asm", "motor~diameter");
        let m = index_metrics(&mut client);
        let want = if indexed { (2, 0) } else { (0, 2) };
        assert_eq!(completes(&m), want, "{mode:?}: {m:?}");
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A restart on a data directory that holds sidecars from an older build
/// boots, ignores and removes them, and serves the same answers indexed
/// from its first request. Under `on` every table is built again inline,
/// and no run writes a sidecar, before or after a DELETE.
#[test]
fn restart_removes_old_sidecars_and_serves_indexed() {
    let dir = tmp_dir("sidecar");
    let uni = fixtures::university().to_json();
    let schema_id;
    let before_restart;
    {
        let (server, mut client) = server_with(&dir, IndexMode::On);
        let (status, body) = client.request("PUT", "/v1/schemas/uni", &uni).unwrap();
        assert_eq!(status, 200, "{body}");
        schema_id = as_u64(&get(&serde_json::parse_value_text(&body).unwrap(), "id"));
        before_restart = completions(&mut client, UNWARMED_COMPLETE);
        server.shutdown();
    }
    let sidecar = sidecar_path(&dir, schema_id);
    assert!(!sidecar.exists(), "an `on` index must write no sidecar");
    // What an older build could leave: a sidecar of this schema (here
    // with a corrupt body), an interrupted write, and one of a schema
    // deleted since. A file that only looks similar stays.
    let interrupted = dir.join(format!("index-{schema_id}.tmp"));
    let orphan = sidecar_path(&dir, schema_id + 7);
    let unrelated = dir.join("index-notes.idx");
    for file in [&sidecar, &interrupted, &orphan, &unrelated] {
        std::fs::write(file, b"IPESIDE1 not an index").unwrap();
    }
    {
        let (server, mut client) = server_with(&dir, IndexMode::On);
        for file in [&sidecar, &interrupted, &orphan] {
            assert!(!file.exists(), "{} was not removed", file.display());
        }
        assert!(unrelated.exists(), "a file that is no sidecar must stay");
        let m = index_metrics(&mut client);
        assert_eq!(as_u64(&get(&m, "builds_completed")), 1, "{m:?}");
        assert_eq!(as_u64(&get(&m, "sidecar_loads")), 0, "{m:?}");
        assert_eq!(completions(&mut client, UNWARMED_COMPLETE), before_restart);
        let m = index_metrics(&mut client);
        assert_eq!(completes(&m), (1, 0), "{m:?}");
        let (status, _) = client.request("DELETE", "/v1/schemas/uni", "").unwrap();
        assert_eq!(status, 200);
        server.shutdown();
    }
    assert!(!sidecar.exists(), "no run may write a sidecar");
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
        let m = index_metrics(&mut client);
        assert_eq!(as_u64(&get(&m, "builds_completed")), 1, "{m:?}");
        assert_eq!(get(&m, "mode"), Value::Str("lazy".to_owned()), "{m:?}");
        before_restart = completions(&mut client, UNWARMED_COMPLETE);
        server.shutdown();
    }
    let sidecar = sidecar_path(&dir, schema_id);
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
