//! End-to-end replication: one leader, two followers, all in-process.
//! Covers convergence, generation-aware read routing, follower write
//! rejection, readiness transitions, snapshot bootstrap behind the
//! compaction horizon, delete propagation, resume-from-persisted-seq
//! after a follower restart, and indexed reads on a freshly caught-up
//! follower.

use ipe_schema::fixtures;
use ipe_service::{Client, FsyncPolicy, Server, ServiceConfig};
use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ipe-repl-e2e-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn leader_server(dir: &Path, snapshot_every: u64) -> (Server, Client) {
    let server = Server::start(ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        reactors: 1,
        queue_depth: 32,
        request_timeout: Duration::from_secs(5),
        data_dir: Some(dir.to_path_buf()),
        fsync: FsyncPolicy::Never,
        snapshot_every,
        ..Default::default()
    })
    .expect("bind leader");
    let client = Client::new(server.addr().to_string());
    (server, client)
}

fn follower_server(leader_addr: &str, dir: Option<&Path>) -> (Server, Client) {
    let server = Server::start(ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        reactors: 1,
        queue_depth: 32,
        request_timeout: Duration::from_secs(5),
        data_dir: dir.map(Path::to_path_buf),
        fsync: FsyncPolicy::Never,
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

/// Polls `GET /readyz` until it answers 200, failing after ~5s.
fn await_ready(client: &mut Client) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (status, body) = client.request("GET", "/readyz", "").unwrap();
        if status == 200 {
            return;
        }
        assert_eq!(status, 503, "{body}");
        assert!(Instant::now() < deadline, "follower never ready: {body}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Polls until the follower's applied seq reaches `seq`, failing after ~5s.
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

/// The tentpole happy path: writes on the leader converge onto both a
/// durable and a memory-only follower, which then serve reads — and no
/// follower ever answers with a generation above what it has applied.
#[test]
fn two_followers_converge_and_serve_reads() {
    let leader_dir = tmp_dir("conv-leader");
    let f1_dir = tmp_dir("conv-f1");
    let (leader, mut lc) = leader_server(&leader_dir, 0);
    let leader_addr = leader.addr().to_string();
    let (f1, mut c1) = follower_server(&leader_addr, Some(&f1_dir));
    let (f2, mut c2) = follower_server(&leader_addr, None);

    let uni = fixtures::university().to_json();
    let (status, body) = lc.request("PUT", "/v1/schemas/uni", &uni).unwrap();
    assert_eq!(status, 200, "{body}");
    // Hot-swap to generation 3 so followers must apply every record, not
    // just the final state.
    lc.request("PUT", "/v1/schemas/uni", &uni).unwrap();
    let (_, body) = lc.request("PUT", "/v1/schemas/uni", &uni).unwrap();
    let v = serde_json::parse_value_text(&body).unwrap();
    let (uni_id, uni_gen) = (as_u64(&get(&v, "id")), as_u64(&get(&v, "generation")));
    assert_eq!(uni_gen, 3);

    for c in [&mut c1, &mut c2] {
        await_ready(c);
        await_applied(c, 3); // seq 1..=3 = the three uni puts
        let (status, body) = c.request("GET", "/v1/schemas/uni", "").unwrap();
        assert_eq!(status, 200, "{body}");
        let v = serde_json::parse_value_text(&body).unwrap();
        assert_eq!(as_u64(&get(&v, "id")), uni_id, "replicated id must match");
        assert_eq!(as_u64(&get(&v, "generation")), uni_gen);

        // Reads actually execute on the replica (not proxied).
        let (status, body) = c
            .request(
                "POST",
                "/v1/complete",
                "{\"schema\":\"uni\",\"query\":\"ta~name\"}",
            )
            .unwrap();
        assert_eq!(status, 200, "{body}");

        // Generation routing: asking for the replicated generation
        // succeeds; asking beyond it is refused as non-retryable on a
        // caught-up node — the leader genuinely doesn't have it either.
        let req =
            format!("{{\"schema\":\"uni\",\"query\":\"ta~name\",\"min_generation\":{uni_gen}}}");
        let (status, body) = c.request("POST", "/v1/complete", &req).unwrap();
        assert_eq!(status, 200, "{body}");
        let req = format!(
            "{{\"schema\":\"uni\",\"query\":\"ta~name\",\"min_generation\":{}}}",
            uni_gen + 5
        );
        let (status, body) = c.request("POST", "/v1/complete", &req).unwrap();
        assert_eq!(status, 409, "{body}");
        let v = serde_json::parse_value_text(&body).unwrap();
        assert!(
            !as_bool(&get(&v, "retryable")),
            "caught-up refusal is final"
        );
    }

    f1.shutdown();
    f2.shutdown();
    leader.shutdown();
    for d in [&leader_dir, &f1_dir] {
        std::fs::remove_dir_all(d).ok();
    }
}

/// Schema writes on a follower are misdirected: 421 plus the leader's
/// address in `x-ipe-leader`, and nothing is applied locally.
#[test]
fn follower_refuses_schema_writes_with_leader_address() {
    let leader_dir = tmp_dir("writes-leader");
    let (leader, mut lc) = leader_server(&leader_dir, 0);
    let leader_addr = leader.addr().to_string();
    let uni = fixtures::university().to_json();
    lc.request("PUT", "/v1/schemas/uni", &uni).unwrap();
    let (follower, mut fc) = follower_server(&leader_addr, None);
    await_ready(&mut fc);
    await_applied(&mut fc, 1);

    let resp = fc
        .request_with("PUT", "/v1/schemas/mine", &uni, &[])
        .unwrap();
    assert_eq!(resp.status, 421, "{}", resp.body);
    assert_eq!(resp.header("x-ipe-leader"), Some(leader_addr.as_str()));
    let resp = fc
        .request_with("DELETE", "/v1/schemas/uni", "", &[])
        .unwrap();
    assert_eq!(resp.status, 421, "{}", resp.body);
    let (status, _) = fc.request("GET", "/v1/schemas/mine", "").unwrap();
    assert_eq!(status, 404, "rejected write must not register anything");

    // Data loads stay node-local: a follower can hold its own instance.
    let (status, body) = fc
        .request("PUT", "/v1/data/uni", "{\"gen\":{\"objects_per_class\":2}}")
        .unwrap();
    assert_eq!(status, 200, "{body}");

    follower.shutdown();
    leader.shutdown();
    std::fs::remove_dir_all(&leader_dir).ok();
}

/// A follower that cannot reach its leader is not ready: `/readyz` is 503
/// with lag detail, and generation-pinned reads are deferred as
/// retryable rather than served stale.
#[test]
fn unreachable_leader_means_not_ready_and_deferred_reads() {
    // Nothing listens here: connect() fails immediately, so the follower
    // stays in its backoff loop without ever catching up.
    let (follower, mut fc) = follower_server("127.0.0.1:1", None);

    let (status, body) = fc.request("GET", "/readyz", "").unwrap();
    assert_eq!(status, 503, "{body}");
    let v = serde_json::parse_value_text(&body).unwrap();
    assert!(!as_bool(&get(&v, "ready")));
    assert!(!as_bool(&get(&v, "connected")));

    let (status, body) = fc
        .request(
            "POST",
            "/v1/complete",
            "{\"schema\":\"default\",\"query\":\"ta~name\",\"min_generation\":1}",
        )
        .unwrap();
    assert_eq!(status, 409, "{body}");
    let v = serde_json::parse_value_text(&body).unwrap();
    assert!(
        as_bool(&get(&v, "retryable")),
        "a lagging follower's refusal must be retryable: {body}"
    );

    follower.shutdown();
}

/// A follower joining after the leader compacted its WAL bootstraps from
/// a snapshot — including a delete the surviving log never mentions —
/// then switches to live records.
#[test]
fn late_joiner_bootstraps_from_snapshot() {
    let leader_dir = tmp_dir("snap-leader");
    // snapshot_every=2: the horizon moves almost immediately.
    let (leader, mut lc) = leader_server(&leader_dir, 2);
    let uni = fixtures::university().to_json();
    let assembly = fixtures::assembly().to_json();
    lc.request("PUT", "/v1/schemas/uni", &uni).unwrap();
    lc.request("PUT", "/v1/schemas/doomed", &assembly).unwrap();
    let (status, _) = lc.request("DELETE", "/v1/schemas/doomed", "").unwrap();
    assert_eq!(status, 200);
    lc.request("PUT", "/v1/schemas/uni", &uni).unwrap();

    let leader_addr = leader.addr().to_string();
    let (follower, mut fc) = follower_server(&leader_addr, None);
    await_ready(&mut fc);

    let (status, body) = fc.request("GET", "/v1/repl/status", "").unwrap();
    assert_eq!(status, 200);
    let v = serde_json::parse_value_text(&body).unwrap();
    assert!(
        as_u64(&get(&v, "snapshots_installed")) >= 1,
        "late joiner must have taken the snapshot path: {body}"
    );
    let (status, body) = fc.request("GET", "/v1/schemas/uni", "").unwrap();
    assert_eq!(status, 200, "{body}");
    let v = serde_json::parse_value_text(&body).unwrap();
    assert_eq!(as_u64(&get(&v, "generation")), 2);
    let (status, _) = fc.request("GET", "/v1/schemas/doomed", "").unwrap();
    assert_eq!(status, 404, "snapshot-erased schema must not appear");

    // Live tail after the bootstrap: a fresh write still arrives.
    lc.request("PUT", "/v1/schemas/late", &assembly).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (status, _) = fc.request("GET", "/v1/schemas/late", "").unwrap();
        if status == 200 {
            break;
        }
        assert!(Instant::now() < deadline, "live record never arrived");
        std::thread::sleep(Duration::from_millis(20));
    }

    follower.shutdown();
    leader.shutdown();
    std::fs::remove_dir_all(&leader_dir).ok();
}

/// Deletes replicate, and on every node the delete also drops the loaded
/// data instance — the regression behind `purged_data`.
#[test]
fn delete_propagates_and_purges_loaded_data() {
    let leader_dir = tmp_dir("del-leader");
    let (leader, mut lc) = leader_server(&leader_dir, 0);
    let leader_addr = leader.addr().to_string();
    let (follower, mut fc) = follower_server(&leader_addr, None);

    let uni = fixtures::university().to_json();
    lc.request("PUT", "/v1/schemas/uni", &uni).unwrap();
    let (status, body) = lc
        .request("PUT", "/v1/data/uni", "{\"gen\":{\"objects_per_class\":2}}")
        .unwrap();
    assert_eq!(status, 200, "{body}");

    await_ready(&mut fc);
    await_applied(&mut fc, 1);
    // The follower loads its own instance for the replicated schema.
    let (status, body) = fc
        .request("PUT", "/v1/data/uni", "{\"gen\":{\"objects_per_class\":2}}")
        .unwrap();
    assert_eq!(status, 200, "{body}");

    let (status, body) = lc.request("DELETE", "/v1/schemas/uni", "").unwrap();
    assert_eq!(status, 200, "{body}");
    let v = serde_json::parse_value_text(&body).unwrap();
    assert!(
        as_bool(&get(&v, "purged_data")),
        "delete must drop the loaded instance: {body}"
    );
    let (status, _) = lc.request("GET", "/v1/data/uni", "").unwrap();
    assert_eq!(status, 404, "leader data must be gone after schema delete");

    await_applied(&mut fc, 2);
    let (status, _) = fc.request("GET", "/v1/schemas/uni", "").unwrap();
    assert_eq!(status, 404, "delete must replicate");
    let (status, _) = fc.request("GET", "/v1/data/uni", "").unwrap();
    assert_eq!(status, 404, "follower data must be purged by the delete");

    follower.shutdown();
    leader.shutdown();
    std::fs::remove_dir_all(&leader_dir).ok();
}

/// A durable follower restarted after missing writes resumes from its
/// persisted seq (no snapshot re-bootstrap while the log suffix is still
/// available) and catches up.
#[test]
fn restarted_follower_resumes_from_persisted_seq() {
    let leader_dir = tmp_dir("resume-leader");
    let follower_dir = tmp_dir("resume-follower");
    let (leader, mut lc) = leader_server(&leader_dir, 0);
    let leader_addr = leader.addr().to_string();
    let uni = fixtures::university().to_json();
    lc.request("PUT", "/v1/schemas/uni", &uni).unwrap();

    {
        let (follower, mut fc) = follower_server(&leader_addr, Some(&follower_dir));
        await_ready(&mut fc);
        await_applied(&mut fc, 1);
        follower.shutdown();
    }

    // Writes the follower missed while down.
    lc.request("PUT", "/v1/schemas/uni", &uni).unwrap();
    let assembly = fixtures::assembly().to_json();
    lc.request("PUT", "/v1/schemas/extra", &assembly).unwrap();

    let (follower, mut fc) = follower_server(&leader_addr, Some(&follower_dir));
    await_ready(&mut fc);
    await_applied(&mut fc, 3);
    let (status, body) = fc.request("GET", "/v1/repl/status", "").unwrap();
    assert_eq!(status, 200);
    let v = serde_json::parse_value_text(&body).unwrap();
    assert_eq!(
        as_u64(&get(&v, "snapshots_installed")),
        0,
        "resume within the log suffix must not re-bootstrap: {body}"
    );
    let (status, body) = fc.request("GET", "/v1/schemas/uni", "").unwrap();
    assert_eq!(status, 200, "{body}");
    let v = serde_json::parse_value_text(&body).unwrap();
    assert_eq!(as_u64(&get(&v, "generation")), 2);
    let (status, _) = fc.request("GET", "/v1/schemas/extra", "").unwrap();
    assert_eq!(status, 200);

    follower.shutdown();
    leader.shutdown();
    for d in [&leader_dir, &follower_dir] {
        std::fs::remove_dir_all(d).ok();
    }
}

/// `/readyz` on a leader (and a replication-less node) reports ready; the
/// repl section of `/metrics` carries the roles.
#[test]
fn leader_and_standalone_report_ready() {
    let leader_dir = tmp_dir("ready-leader");
    let (leader, mut lc) = leader_server(&leader_dir, 0);
    let (status, body) = lc.request("GET", "/readyz", "").unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = lc.request("GET", "/v1/repl/status", "").unwrap();
    assert_eq!(status, 200);
    let v = serde_json::parse_value_text(&body).unwrap();
    assert_eq!(get(&v, "role"), Value::Str("leader".to_owned()));

    let standalone = Server::start(ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        reactors: 1,
        ..Default::default()
    })
    .unwrap();
    let mut sc = Client::new(standalone.addr().to_string());
    let (status, _) = sc.request("GET", "/readyz", "").unwrap();
    assert_eq!(status, 200);
    let (status, body) = sc.request("GET", "/v1/repl/status", "").unwrap();
    assert_eq!(status, 200);
    let v = serde_json::parse_value_text(&body).unwrap();
    assert_eq!(get(&v, "role"), Value::Str("none".to_owned()));
    // A memory-only node cannot serve the stream.
    let (status, body) = sc.request("GET", "/v1/repl/stream", "").unwrap();
    assert_eq!(status, 400, "{body}");

    standalone.shutdown();
    leader.shutdown();
    std::fs::remove_dir_all(&leader_dir).ok();
}

/// A follower publishes each schema it applies with its index built, on
/// the snapshot bootstrap and on the live tail alike: its first miss
/// after catching up is indexed, and so is the first miss on a schema
/// that arrived as a record.
#[test]
fn follower_first_miss_after_catch_up_is_indexed() {
    let leader_dir = tmp_dir("index-leader");
    let (leader, mut lc) = leader_server(&leader_dir, 2);
    let uni = fixtures::university().to_json();
    let assembly = fixtures::assembly().to_json();
    for (name, json) in [("uni", &uni), ("asm", &assembly), ("uni", &uni)] {
        let (status, body) = lc
            .request("PUT", &format!("/v1/schemas/{name}"), json)
            .unwrap();
        assert_eq!(status, 200, "{body}");
    }
    let leader_seq = |lc: &mut Client| {
        let (_, body) = lc.request("GET", "/v1/repl/status", "").unwrap();
        as_u64(&get(
            &serde_json::parse_value_text(&body).unwrap(),
            "leader_seq",
        ))
    };
    let (follower, mut fc) = follower_server(&leader.addr().to_string(), None);
    let seq = leader_seq(&mut lc);
    await_applied(&mut fc, seq);
    let (_, body) = fc.request("GET", "/v1/repl/status", "").unwrap();
    let v = serde_json::parse_value_text(&body).unwrap();
    assert!(as_u64(&get(&v, "snapshots_installed")) >= 1, "{body}");
    let index_counts = |fc: &mut Client| {
        let (_, body) = fc.request("GET", "/metrics", "").unwrap();
        let m = get(
            &get(&serde_json::parse_value_text(&body).unwrap(), "service"),
            "index",
        );
        assert_eq!(as_u64(&get(&m, "builds_in_flight")), 0, "{m:?}");
        (
            as_u64(&get(&m, "completes_indexed")),
            as_u64(&get(&m, "completes_unindexed")),
        )
    };
    let complete = |fc: &mut Client, body: &str| {
        let (status, reply) = fc.request("POST", "/v1/complete", body).unwrap();
        assert_eq!(status, 200, "{reply}");
    };
    complete(
        &mut fc,
        r#"{"schema": "uni", "query": "ta~name", "min_generation": 2}"#,
    );
    assert_eq!(index_counts(&mut fc), (1, 0));

    // A record on the live tail: a hot-swap of `asm`.
    lc.request("PUT", "/v1/schemas/asm", &assembly).unwrap();
    let seq = leader_seq(&mut lc);
    await_applied(&mut fc, seq);
    complete(
        &mut fc,
        r#"{"schema": "asm", "query": "motor~diameter", "min_generation": 2}"#,
    );
    assert_eq!(index_counts(&mut fc), (2, 0));

    follower.shutdown();
    leader.shutdown();
    std::fs::remove_dir_all(&leader_dir).ok();
}
