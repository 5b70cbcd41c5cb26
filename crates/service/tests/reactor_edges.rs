//! Partial-I/O edge cases against the reactor front end: drip-fed
//! request heads (slow loris), request lines split across writes,
//! write-side backpressure on large pipelined responses, read-deadline
//! expiry mid-body, and a burst of concurrent keep-alive connections.

use ipe_schema::fixtures;
use ipe_service::{Server, ServiceConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A server with a short request deadline, so deadline tests run fast.
fn start_server(request_timeout: Duration) -> Server {
    let server = Server::start(ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        reactors: 2,
        queue_depth: 64,
        request_timeout,
        ..Default::default()
    })
    .expect("bind ephemeral port");
    server
        .state()
        .registry
        .insert("default", fixtures::university());
    server
}

fn read_all(s: &mut TcpStream) -> String {
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    out
}

fn status_of(resp: &str) -> u16 {
    resp.split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {resp:?}"))
}

/// A client that drips its request head one byte at a time never pins a
/// reactor: the per-request deadline is armed at the first byte and not
/// refreshed by later partial reads, so the connection is answered `408`
/// and closed in bounded time.
#[test]
fn slow_loris_drip_fed_head_is_408_in_bounded_time() {
    let server = start_server(Duration::from_millis(400));
    let mut s = TcpStream::connect(server.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    let started = Instant::now();
    let head = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
    // Drip well past the deadline; the server should cut us off.
    for b in head.iter() {
        if s.write_all(std::slice::from_ref(b)).is_err() {
            break; // already reset — that's a pass too, as long as it's bounded
        }
        std::thread::sleep(Duration::from_millis(60));
        if started.elapsed() > Duration::from_secs(5) {
            break;
        }
    }
    let resp = read_all(&mut s);
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "slow loris held the connection for {:?}",
        started.elapsed()
    );
    // Either we caught the 408 before the close, or the connection was
    // torn down mid-drip (reset); both bound the attack.
    if !resp.is_empty() {
        assert_eq!(status_of(&resp), 408, "{resp}");
    }
    server.shutdown();
}

/// A request line split across several small writes (with real delays
/// between them) still parses: framing is incremental off readiness
/// events, not one blocking read.
#[test]
fn split_request_line_across_writes_still_parses() {
    let server = start_server(Duration::from_secs(5));
    let mut s = TcpStream::connect(server.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    for chunk in [
        "GE",
        "T /hea",
        "lthz HT",
        "TP/1.1\r\n",
        "Host: t\r\nConnec",
        "tion: close\r\n",
        "\r\n",
    ] {
        s.write_all(chunk.as_bytes()).expect("write chunk");
        std::thread::sleep(Duration::from_millis(30));
    }
    let resp = read_all(&mut s);
    assert_eq!(status_of(&resp), 200, "{resp}");
    assert!(resp.contains("ok"), "{resp}");
    server.shutdown();
}

/// A POST whose declared body never finishes arriving trips the
/// read deadline mid-body and is answered `408`.
#[test]
fn read_deadline_expiry_mid_body_is_408() {
    let server = start_server(Duration::from_millis(300));
    let mut s = TcpStream::connect(server.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"POST /v1/complete HTTP/1.1\r\nHost: t\r\nContent-Length: 64\r\n\r\n{\"query\":")
        .expect("write partial body");
    // Never send the remaining bytes.
    let resp = read_all(&mut s);
    assert_eq!(status_of(&resp), 408, "{resp}");
    server.shutdown();
}

/// A client that pipelines a large batch of requests and then stops
/// reading exerts write backpressure; the reactor parks the connection
/// on writability instead of busy-spinning or dropping bytes, and every
/// response arrives intact once the client drains.
#[test]
fn write_backpressure_on_pipelined_responses_is_lossless() {
    let server = start_server(Duration::from_secs(30));

    // Size the batch so the response volume dwarfs what the kernel can
    // buffer on both sides (sender autotunes up to ~4 MiB): writes must
    // hit WouldBlock while the client sits on its hands. The window is
    // shrunk only enough to keep the final drain quick.
    let mut probe = ipe_service::Client::new(server.addr().to_string());
    let (status, body) = probe.request("GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    let batch = (12 * 1024 * 1024 / body.len().max(1)).clamp(512, 20_000);

    let mut s = TcpStream::connect(server.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    ipe_service::epoll::set_rcvbuf(&s, 64 * 1024).expect("shrink rcvbuf");

    let mut burst = String::new();
    for _ in 0..batch - 1 {
        burst.push_str("GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    }
    burst.push_str("GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    s.write_all(burst.as_bytes()).expect("write burst");

    // Let the server queue responses into a closed window for a while.
    std::thread::sleep(Duration::from_millis(500));

    let out = read_all(&mut s);
    assert_eq!(
        out.matches("HTTP/1.1 200").count(),
        batch,
        "lost responses under backpressure: got {} of {batch}",
        out.matches("HTTP/1.1 200").count()
    );

    #[cfg(not(feature = "obs-off"))]
    {
        use serde::Value;
        let mut client = ipe_service::Client::new(server.addr().to_string());
        let (status, body) = client.request("GET", "/metrics", "").unwrap();
        assert_eq!(status, 200);
        let v = serde_json::parse_value_text(&body).unwrap();
        let backpressured = v
            .get("counters")
            .and_then(|c| c.get("service.conn.write_backpressure"))
            .map(|n| match n {
                Value::I64(i) => *i as u64,
                Value::U64(u) => *u,
                _ => 0,
            })
            .unwrap_or(0);
        assert!(
            backpressured >= 1,
            "expected at least one WouldBlock on write: {body}"
        );
    }
    server.shutdown();
}

/// 64 simultaneous keep-alive connections, 8 completions each, spread
/// over the reactors: every answer is the two Figure-2 completions.
#[test]
fn sixty_four_connection_burst_answers_every_request() {
    let server = Server::start(ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        reactors: 2,
        ..Default::default()
    })
    .expect("bind ephemeral port");
    server
        .state()
        .registry
        .insert("default", fixtures::university());
    let addr = server.addr().to_string();
    std::thread::scope(|scope| {
        for _ in 0..64 {
            let mut client = ipe_service::Client::new(addr.clone());
            scope.spawn(move || {
                for _ in 0..8 {
                    let (status, body) = client
                        .request("POST", "/v1/complete", r#"{"query": "ta~name"}"#)
                        .unwrap();
                    assert_eq!(status, 200, "{body}");
                    let v = serde_json::parse_value_text(&body).unwrap();
                    let Some(serde::Value::Seq(items)) = v.get("completions") else {
                        panic!("no completions array: {body}");
                    };
                    let mut texts: Vec<&str> = items
                        .iter()
                        .map(|c| match c.get("text") {
                            Some(serde::Value::Str(t)) => t.as_str(),
                            other => panic!("text is not a string: {other:?}"),
                        })
                        .collect();
                    texts.sort_unstable();
                    assert_eq!(
                        texts,
                        [
                            "ta@>grad@>student@>person.name",
                            "ta@>instructor@>teacher@>employee@>person.name"
                        ],
                        "{body}"
                    );
                }
            });
        }
    });
    server.shutdown();
}
