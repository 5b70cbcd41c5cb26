//! Crash drills against the real `ipe serve` binary: SIGKILL a durable
//! server under PUT traffic, and a durable follower after it caught up,
//! then restart each on its data directory and check that nothing
//! acknowledged was lost.

use ipe::schema::fixtures;
use ipe::service::Client;
use serde::Value;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ipe-crash-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// An `ipe serve` child process, killed (SIGKILL) when dropped.
struct Served {
    child: Child,
    addr: String,
}

impl Served {
    /// Spawns `ipe serve` with `extra` flags on an ephemeral port and reads
    /// the bound address from its stdout.
    fn spawn(extra: &[&str]) -> Served {
        let child = Command::new(env!("CARGO_BIN_EXE_ipe"))
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn ipe serve");
        let mut served = Served {
            child,
            addr: String::new(),
        };
        let stdout = served.child.stdout.take().unwrap();
        let mut lines = BufReader::new(stdout).lines();
        // A recovering server prints a recovery note before its address.
        for line in &mut lines {
            let line = line.expect("readable stdout");
            if let Some(addr) = line.strip_prefix("ipe-service listening on http://") {
                served.addr = addr.trim().to_owned();
                // Keep draining so the child never blocks on a full pipe.
                std::thread::spawn(move || lines.for_each(drop));
                return served;
            }
        }
        panic!("server exited before printing its address");
    }

    fn client(&self) -> Client {
        Client::new(self.addr.clone())
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn json_u64(body: &str, key: &str) -> u64 {
    let v = serde_json::parse_value_text(body).unwrap_or_else(|e| panic!("{e:?}: {body}"));
    match v.get(key) {
        Some(Value::U64(u)) => *u,
        Some(Value::I64(i)) if *i >= 0 => *i as u64,
        other => panic!("bad `{key}` in {body}: {other:?}"),
    }
}

/// `GET /v1/schemas/:name` as `(status, id, generation)`; 0s unless 200.
fn schema_version(client: &mut Client, name: &str) -> (u16, u64, u64) {
    let (status, body) = client
        .request("GET", &format!("/v1/schemas/{name}"), "")
        .unwrap();
    if status != 200 {
        return (status, 0, 0);
    }
    (status, json_u64(&body, "id"), json_u64(&body, "generation"))
}

/// Polls until `GET /readyz` answers 200 and the applied seq reaches `seq`
/// with zero lag.
fn await_applied(addr: &str, seq: u64) {
    let mut client = Client::new(addr.to_owned());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let ready = matches!(client.request("GET", "/readyz", ""), Ok((200, _)));
        if let (true, Ok((200, body))) = (ready, client.request("GET", "/v1/repl/status", "")) {
            if json_u64(&body, "applied_seq") >= seq && json_u64(&body, "lag_seq") == 0 {
                return;
            }
        }
        assert!(Instant::now() < deadline, "{addr} never caught up to {seq}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One acknowledged PUT: name, registry id, generation.
type Ack = (String, u64, u64);

/// SIGKILL under a stream of fsync'd PUTs: after a restart on the same
/// directory every acknowledged schema is back at its id with at least
/// its acknowledged generation, the deleted schema stays deleted, and
/// both sequences continue. Writes acknowledged after the recovery
/// survive a second SIGKILL.
#[test]
fn sigkill_under_put_traffic_loses_no_acknowledged_write() {
    let dir = tmp_dir("store");
    let flags = ["--fsync", "always", "--data-dir", dir.to_str().unwrap()];
    let uni = fixtures::university().to_json();

    let mut server = Served::spawn(&flags);
    let mut client = server.client();
    // A schema that is registered, then deleted, and must never come back.
    let (status, _) = client.request("PUT", "/v1/schemas/doomed", &uni).unwrap();
    assert_eq!(status, 200);
    let (status, _) = client.request("DELETE", "/v1/schemas/doomed", "").unwrap();
    assert_eq!(status, 200);

    // Stream PUTs (8 names, repeatedly hot-swapped) until the kill.
    let acked: Arc<Mutex<Vec<Ack>>> = Arc::default();
    let writer = {
        let acked = Arc::clone(&acked);
        let mut client = server.client();
        let uni = uni.clone();
        std::thread::spawn(move || {
            for i in 0u64.. {
                let name = format!("k{}", i % 8);
                // The kill lands here: connection refused or reset, or a
                // 500 while the server is dying.
                let Ok((200, body)) = client.request("PUT", &format!("/v1/schemas/{name}"), &uni)
                else {
                    break;
                };
                let ack = (name, json_u64(&body, "id"), json_u64(&body, "generation"));
                acked.lock().unwrap().push(ack);
            }
        })
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    while acked.lock().unwrap().len() < 24 {
        assert!(Instant::now() < deadline, "writer made no progress");
        std::thread::sleep(Duration::from_millis(5));
    }
    // SIGKILL: no destructors, no flush beyond the per-record fsync.
    server.child.kill().unwrap();
    server.child.wait().unwrap();
    writer.join().unwrap();
    let acked = std::mem::take(&mut *acked.lock().unwrap());

    let server = Served::spawn(&flags);
    let mut client = server.client();
    assert_eq!(
        schema_version(&mut client, "doomed").0,
        404,
        "deleted schema resurrected"
    );
    // The last acknowledged state per name. In-flight writes past the
    // last ack may be durable too, so a recovered generation may exceed
    // the acknowledged one but never trail it.
    let mut last: Vec<Ack> = Vec::new();
    for ack in &acked {
        match last.iter_mut().find(|(n, _, _)| *n == ack.0) {
            Some(slot) => *slot = ack.clone(),
            None => last.push(ack.clone()),
        }
    }
    for (name, id, generation) in &last {
        let (status, got_id, got_gen) = schema_version(&mut client, name);
        assert_eq!(status, 200, "acknowledged schema `{name}` lost");
        assert_eq!(got_id, *id, "`{name}` changed id");
        assert!(got_gen >= *generation, "`{name}` lost generations");
    }
    // Post-restart mutations continue both sequences.
    let name = &last[0].0;
    let before = schema_version(&mut client, name).2;
    let (status, body) = client
        .request("PUT", &format!("/v1/schemas/{name}"), &uni)
        .unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_u64(&body, "generation"), before + 1);
    let (status, body) = client.request("PUT", "/v1/schemas/fresh", &uni).unwrap();
    assert_eq!(status, 200, "{body}");
    let fresh_id = json_u64(&body, "id");
    let max_acked_id = acked.iter().map(|a| a.1).max().unwrap();
    assert!(
        fresh_id > max_acked_id,
        "fresh id {fresh_id} reuses a pre-crash id"
    );

    // The writes acknowledged since the restart are the last records on
    // disk; a second SIGKILL must not lose them either.
    drop(server);
    let server = Served::spawn(&flags);
    let mut client = server.client();
    assert_eq!(schema_version(&mut client, name).2, before + 1);
    assert_eq!(schema_version(&mut client, "fresh"), (200, fresh_id, 1));
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// SIGKILL a durable follower after it caught up, keep writing on the
/// leader, restart the follower on the same directory: it resumes from
/// its persisted sequence number (no snapshot re-bootstrap) and converges.
#[test]
fn sigkilled_follower_resumes_from_its_persisted_seq() {
    let leader_dir = tmp_dir("leader");
    let follower_dir = tmp_dir("follower");
    let uni = fixtures::university().to_json();
    // `--snapshot-every 0` keeps the leader's whole WAL, so the follower
    // can resume from its persisted seq without a snapshot bootstrap.
    let leader = Served::spawn(&[
        "--fsync",
        "never",
        "--snapshot-every",
        "0",
        "--data-dir",
        leader_dir.to_str().unwrap(),
    ]);
    let mut lc = leader.client();
    let put_k = |lc: &mut Client| {
        let (status, body) = lc.request("PUT", "/v1/schemas/k", &uni).unwrap();
        assert_eq!(status, 200, "{body}");
    };
    for _ in 0..4 {
        put_k(&mut lc);
    }
    // A CLI leader seeds `default` at seq 1, so the 4 PUTs are seqs 2..=5.
    let follower_flags = [
        "--follow",
        leader.addr.as_str(),
        "--fsync",
        "always",
        "--data-dir",
        follower_dir.to_str().unwrap(),
    ];
    let follower = Served::spawn(&follower_flags);
    await_applied(&follower.addr, 5);
    drop(follower); // SIGKILL

    // Writes the dead follower misses.
    for _ in 0..3 {
        put_k(&mut lc);
    }
    let follower = Served::spawn(&follower_flags);
    await_applied(&follower.addr, 8);
    let mut fc = follower.client();
    let (status, body) = fc.request("GET", "/v1/repl/status", "").unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        json_u64(&body, "snapshots_installed"),
        0,
        "restart re-bootstrapped instead of resuming: {body}"
    );
    assert_eq!(
        schema_version(&mut fc, "k").2,
        7,
        "follower did not converge"
    );
    drop(follower);
    drop(leader);
    for d in [&leader_dir, &follower_dir] {
        std::fs::remove_dir_all(d).ok();
    }
}
