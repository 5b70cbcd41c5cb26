//! The event-driven front end: one reactor per configured shard, each
//! owning an `SO_REUSEPORT` acceptor, an epoll instance, and every
//! connection the kernel hashes its way.
//!
//! A reactor is a single thread running a level-triggered epoll loop.
//! Each connection is a small state machine: a read buffer that carries
//! over-read bytes across requests (pipelining-safe by construction), a
//! write buffer that survives partial writes (`EPOLLOUT` re-armed only
//! while bytes are pending), and one absolute deadline — armed when a
//! request's first byte arrives and *not* refreshed by further partial
//! reads, so a slow-loris client is bounded by `request_timeout` no
//! matter how diligently it drips. Deadline expiry mid-request answers
//! `408`; expiry while idle closes silently.
//!
//! Requests are handled inline on the reactor thread. On the
//! benchmark's traced `warm_complete` runs (2-CPU VM, client and server
//! sharing one CPU) a warm `/v1/complete` spends about 2 µs in its
//! handler at the median (p99 about 4 µs), and its reply is a short head
//! plus the cached fragment, copied once into `out`; everything outside
//! the handler (client, loopback, framing, render) takes about 45 µs.
//! Handing off to a pool would add scheduling to that path and buy
//! nothing. Long-running handlers (batch fan-out, query
//! evaluation) already parallelize internally with scoped threads. A
//! panicking handler is caught per request and answered `500`; the
//! reactor and its other connections keep running.
//!
//! Shutdown follows the drain protocol: on the first observation of the
//! shutdown flag a reactor stops accepting (drops its listener shard),
//! closes idle connections, and keeps serving in-flight requests until
//! their responses flush or the drain deadline (one `request_timeout`)
//! lapses. The flag is observed either inline (the reactor served the
//! `POST /v1/shutdown` itself) or via the eventfd wake the shutdown
//! caller fires at every reactor.

use crate::api::error_body;
use crate::epoll::{Event, Poller, Wake, EPOLLERR, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::http::{parse_request, render_response, render_response_into, ParseOutcome};
use crate::repl::{spawn_leader_stream, StreamStart};
use crate::server::{handle_request_catching, ServiceState};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Token of the reactor's listener shard.
const LISTENER_TOKEN: u64 = 0;
/// Token of the reactor's shutdown eventfd.
const WAKE_TOKEN: u64 = 1;
/// First token handed to a connection.
const FIRST_CONN_TOKEN: u64 = 2;

/// Cap on bytes read from one connection per readiness tick, so a single
/// fat pipe cannot starve the reactor's other connections. Level
/// triggering re-reports the fd while bytes remain.
const READ_BURST: usize = 256 * 1024;

/// Grace period granted to flush a `408` before the connection is torn
/// down regardless.
const TIMEOUT_FLUSH_GRACE: Duration = Duration::from_secs(1);

/// Per-reactor knobs, distilled from `ServiceConfig`.
pub(crate) struct ReactorConfig {
    /// Budget for one request (first byte to framed) and for idle
    /// keep-alive reaping; also the drain deadline on shutdown.
    pub request_timeout: Duration,
    /// Connections this reactor will hold live; beyond it new accepts are
    /// answered `503` immediately (the reactor-world backpressure valve).
    pub max_conns: usize,
}

/// One connection's state between readiness events.
struct Conn {
    stream: TcpStream,
    token: u64,
    /// Read carry buffer: partial requests and pipelined over-reads.
    buf: Vec<u8>,
    /// Write buffer: rendered responses not yet accepted by the kernel.
    out: Vec<u8>,
    out_pos: usize,
    /// Absolute deadline (request in flight, idle reap, or 408 flush).
    deadline: Instant,
    /// A request's bytes have started arriving but it has not framed.
    mid_request: bool,
    /// Close as soon as `out` drains.
    close_after_flush: bool,
    /// A `408` was queued; the deadline now bounds its flush.
    timed_out: bool,
    /// Peer sent FIN; no more bytes will arrive.
    peer_eof: bool,
    /// Events currently registered with the poller.
    interest: u32,
    /// Set when a handler answered with a replication stream: the
    /// connection leaves the reactor and a blocking streaming thread
    /// takes the socket over.
    detach: Option<StreamStart>,
}

/// What `drive` decided about the connection.
#[derive(PartialEq)]
enum Verdict {
    Keep,
    Close,
    /// Hand the socket to a replication streaming thread: deregister it,
    /// restore blocking mode, and ship the unflushed response head along.
    Detach,
}

impl Conn {
    fn new(stream: TcpStream, token: u64, deadline: Instant) -> Conn {
        Conn {
            stream,
            token,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            deadline,
            mid_request: false,
            close_after_flush: false,
            timed_out: false,
            peer_eof: false,
            interest: EPOLLIN | EPOLLRDHUP,
            detach: None,
        }
    }

    /// Drains the kernel's pending bytes into `buf`, up to the per-tick
    /// burst cap.
    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        while self.buf.len() < READ_BURST {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.peer_eof = true;
                    break;
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Frames and handles every complete request in `buf`, queuing the
    /// responses, and re-arms the deadline at request boundaries.
    fn process(&mut self, state: &Arc<ServiceState>, cfg: &ReactorConfig) {
        loop {
            if self.close_after_flush {
                // A `Connection: close` request, a malformed prefix, or
                // shutdown already sealed this connection; anything still
                // buffered is not ours to serve.
                return;
            }
            match parse_request(&self.buf) {
                ParseOutcome::Ok { request, consumed } => {
                    self.buf.drain(..consumed);
                    let draining = state.shutting_down();
                    let keep = request.keep_alive && !draining;
                    let (reply, trace_id) = handle_request_catching(state, &request);
                    if let Some(start) = reply.stream {
                        // A replication stream: hand-rolled head with no
                        // Content-Length (the body is unbounded) and
                        // Connection: close, then detach. Any pipelined
                        // bytes after this request are not ours to serve.
                        let head = format!(
                            "HTTP/1.1 200 OK\r\nContent-Type: {}\r\nConnection: close\r\nx-ipe-trace-id: {trace_id}\r\n\r\n",
                            reply.content_type,
                        );
                        self.out.extend_from_slice(head.as_bytes());
                        self.detach = Some(start);
                        return;
                    }
                    let mut headers: Vec<(&str, &str)> = vec![("x-ipe-trace-id", &trace_id)];
                    for (name, value) in &reply.headers {
                        headers.push((name, value));
                    }
                    render_response_into(
                        &mut self.out,
                        reply.status,
                        reply.content_type,
                        &reply.body_parts(),
                        keep,
                        &headers,
                    );
                    if !keep || state.shutting_down() {
                        // Re-check the flag: this very request may have
                        // been the shutdown call.
                        self.close_after_flush = true;
                    }
                    self.mid_request = !self.buf.is_empty();
                    // A fresh budget: for the pipelined request already
                    // buffered, or for idle reaping.
                    self.deadline = Instant::now() + cfg.request_timeout;
                }
                ParseOutcome::Incomplete => {
                    if !self.buf.is_empty() && !self.mid_request {
                        // First bytes of a new request: arm the absolute
                        // deadline. Later partial reads do NOT touch it.
                        self.mid_request = true;
                        self.deadline = Instant::now() + cfg.request_timeout;
                    }
                    return;
                }
                ParseOutcome::Malformed(status, msg) => {
                    ipe_obs::counter!("service.conn.malformed", 1);
                    self.buf.clear();
                    let body = error_body(msg);
                    render_response_into(
                        &mut self.out,
                        status,
                        "application/json",
                        &[body.as_bytes()],
                        false,
                        &[],
                    );
                    self.close_after_flush = true;
                    return;
                }
            }
        }
    }

    /// Pushes `out` into the kernel. `Ok((drained, progressed))`:
    /// `drained` when nothing is left pending, `progressed` when at
    /// least one byte moved this call — the distinction feeds the
    /// deadline (a slowly-draining sink is activity; a stalled one is
    /// not).
    fn flush(&mut self) -> io::Result<(bool, bool)> {
        let mut progressed = false;
        loop {
            if self.out_pos >= self.out.len() {
                self.out.clear();
                self.out_pos = 0;
                return Ok((true, progressed));
            }
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out_pos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok((false, progressed)),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// One readiness tick: read what's there, frame and handle requests,
    /// flush responses, and re-arm interest.
    fn drive(
        &mut self,
        readiness: u32,
        poller: &Poller,
        state: &Arc<ServiceState>,
        cfg: &ReactorConfig,
    ) -> Verdict {
        if readiness & EPOLLERR != 0 {
            return Verdict::Close;
        }
        if readiness & (EPOLLIN | EPOLLRDHUP) != 0 && !self.peer_eof && self.fill().is_err() {
            return Verdict::Close;
        }
        self.process(state, cfg);
        if self.detach.is_some() {
            // Don't flush here: the streaming thread writes the pending
            // head itself on the restored-to-blocking socket.
            return Verdict::Detach;
        }
        match self.flush() {
            Err(_) => return Verdict::Close,
            Ok((true, _)) => {
                if self.close_after_flush {
                    return Verdict::Close;
                }
                if self.peer_eof {
                    // Every framed request is answered and the peer can
                    // send no more; a partial request left in `buf` can
                    // never complete.
                    return Verdict::Close;
                }
            }
            Ok((false, progressed)) => {
                ipe_obs::counter!("service.conn.write_backpressure", 1);
                if progressed && !self.timed_out {
                    // A slowly-draining sink is live traffic, not an idle
                    // connection: give it a fresh budget so the reaper
                    // only fires after a full timeout of zero progress.
                    // (408 flushes stay on the short grace deadline.)
                    self.deadline = Instant::now() + cfg.request_timeout;
                }
            }
        }
        let mut want = EPOLLRDHUP;
        if !self.peer_eof && !self.close_after_flush {
            want |= EPOLLIN;
        }
        if self.out_pos < self.out.len() {
            want |= EPOLLOUT;
        }
        if want != self.interest {
            if poller
                .modify(self.stream.as_raw_fd(), self.token, want)
                .is_err()
            {
                return Verdict::Close;
            }
            self.interest = want;
        }
        Verdict::Keep
    }
}

/// Runs one reactor to completion (shutdown drain finished). Never
/// panics out: an epoll-level error logs and exits the shard, and
/// per-request panics are already contained by `handle_request_catching`.
pub(crate) fn reactor_loop(
    listener: TcpListener,
    wake: Arc<Wake>,
    state: Arc<ServiceState>,
    cfg: ReactorConfig,
) {
    if let Err(e) = run(listener, &wake, &state, &cfg) {
        eprintln!("ipe-service: reactor failed: {e}");
    }
}

fn run(
    listener: TcpListener,
    wake: &Wake,
    state: &Arc<ServiceState>,
    cfg: &ReactorConfig,
) -> io::Result<()> {
    let poller = Poller::new()?;
    poller.add(listener.as_raw_fd(), LISTENER_TOKEN, EPOLLIN)?;
    poller.add(wake.raw_fd(), WAKE_TOKEN, EPOLLIN)?;
    let mut listener = Some(listener);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut drain_deadline: Option<Instant> = None;
    let mut events = vec![Event::empty(); 256];
    loop {
        let timeout = next_timeout(&conns, drain_deadline);
        let n = poller.wait(&mut events, timeout)?;
        let mut dead: Vec<u64> = Vec::new();
        let mut detached: Vec<u64> = Vec::new();
        for ev in &events[..n] {
            match ev.token() {
                LISTENER_TOKEN => {
                    if let Some(l) = &listener {
                        accept_all(l, &poller, &mut conns, &mut next_token, state, cfg);
                    }
                }
                WAKE_TOKEN => wake.drain(),
                token => {
                    if let Some(conn) = conns.get_mut(&token) {
                        match conn.drive(ev.readiness(), &poller, state, cfg) {
                            Verdict::Keep => {}
                            Verdict::Close => dead.push(token),
                            Verdict::Detach => detached.push(token),
                        }
                    }
                }
            }
        }
        for token in detached {
            detach_conn(&mut conns, token, state, &poller);
        }
        reap_expired(&mut conns, &mut dead, &poller);
        for token in dead {
            close_conn(&mut conns, token, state);
        }
        if state.shutting_down() {
            if drain_deadline.is_none() {
                // First observation: stop accepting, make sure every
                // sibling reactor wakes to do the same, close idle
                // connections, and seal the rest.
                if let Some(l) = listener.take() {
                    let _ = poller.delete(l.as_raw_fd());
                }
                state.request_shutdown();
                drain_deadline = Some(Instant::now() + cfg.request_timeout);
                let idle: Vec<u64> = conns
                    .iter()
                    .filter(|(_, c)| !c.mid_request && c.out_pos >= c.out.len())
                    .map(|(t, _)| *t)
                    .collect();
                for token in idle {
                    close_conn(&mut conns, token, state);
                }
                for conn in conns.values_mut() {
                    conn.close_after_flush = true;
                }
            }
            let past_deadline = drain_deadline.is_some_and(|d| Instant::now() >= d);
            if conns.is_empty() || past_deadline {
                for token in conns.keys().copied().collect::<Vec<_>>() {
                    close_conn(&mut conns, token, state);
                }
                return Ok(());
            }
        }
    }
}

/// The wait budget: the nearest connection (or drain) deadline, or forever
/// when nothing is pending.
fn next_timeout(conns: &HashMap<u64, Conn>, drain_deadline: Option<Instant>) -> Option<Duration> {
    let nearest = conns
        .values()
        .map(|c| c.deadline)
        .chain(drain_deadline)
        .min()?;
    Some(nearest.saturating_duration_since(Instant::now()))
}

/// Accepts every pending connection on the shard; beyond the live cap
/// each one is answered `503` and dropped immediately.
fn accept_all(
    listener: &TcpListener,
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    state: &Arc<ServiceState>,
    cfg: &ReactorConfig,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        if conns.len() >= cfg.max_conns {
            reject_busy(stream, state);
            continue;
        }
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let token = *next_token;
        *next_token += 1;
        if poller
            .add(stream.as_raw_fd(), token, EPOLLIN | EPOLLRDHUP)
            .is_err()
        {
            continue;
        }
        conns.insert(
            token,
            Conn::new(stream, token, Instant::now() + cfg.request_timeout),
        );
        state.conn_opened();
        ipe_obs::counter!("service.conn.accepted", 1);
    }
}

/// Answers an over-capacity connection `503` (best-effort; the socket is
/// fresh so the small write virtually always lands) and drops it.
fn reject_busy(mut stream: TcpStream, state: &Arc<ServiceState>) {
    state.count_rejected();
    let bytes = render_response(
        503,
        "application/json",
        &error_body("request queue is full"),
        false,
        &[],
    );
    let _ = stream.write_all(&bytes);
}

/// Expires deadlines: mid-request connections get a `408` and one grace
/// period to flush it; idle ones close silently.
fn reap_expired(conns: &mut HashMap<u64, Conn>, dead: &mut Vec<u64>, poller: &Poller) {
    let now = Instant::now();
    for (token, conn) in conns.iter_mut() {
        if now < conn.deadline || dead.contains(token) {
            continue;
        }
        if conn.mid_request && !conn.timed_out {
            ipe_obs::counter!("service.conn.timeout_408", 1);
            conn.buf.clear();
            let body = error_body("request timed out before it completed");
            render_response_into(
                &mut conn.out,
                408,
                "application/json",
                &[body.as_bytes()],
                false,
                &[],
            );
            conn.close_after_flush = true;
            conn.timed_out = true;
            conn.deadline = now + TIMEOUT_FLUSH_GRACE;
            match conn.flush() {
                Ok((true, _)) | Err(_) => dead.push(*token),
                Ok((false, _)) => {
                    // Backpressured 408: arm EPOLLOUT so the kernel tells
                    // us when it can leave; the grace deadline bounds the
                    // wait regardless.
                    let want = conn.interest | EPOLLOUT;
                    if poller.modify(conn.stream.as_raw_fd(), *token, want).is_ok() {
                        conn.interest = want;
                    } else {
                        dead.push(*token);
                    }
                }
            }
        } else {
            dead.push(*token);
        }
    }
}

/// Removes a connection: the poller registration dies with the fd.
fn close_conn(conns: &mut HashMap<u64, Conn>, token: u64, state: &Arc<ServiceState>) {
    if conns.remove(&token).is_some() {
        state.conn_closed();
        ipe_obs::counter!("service.conn.closed", 1);
    }
}

/// Moves a connection out of the reactor and onto a replication
/// streaming thread: deregister the fd, restore blocking mode, and hand
/// over the socket with whatever response bytes are still unflushed. The
/// connection stops counting against this reactor's live cap — stream
/// longevity is bounded by the hub's overflow cutoff, not the request
/// timeout.
fn detach_conn(
    conns: &mut HashMap<u64, Conn>,
    token: u64,
    state: &Arc<ServiceState>,
    poller: &Poller,
) {
    let Some(conn) = conns.remove(&token) else {
        return;
    };
    state.conn_closed();
    let _ = poller.delete(conn.stream.as_raw_fd());
    if conn.stream.set_nonblocking(false).is_err() {
        return;
    }
    let start = conn
        .detach
        .expect("detached connections carry a stream start");
    let pending = conn.out[conn.out_pos..].to_vec();
    spawn_leader_stream(state, conn.stream, pending, start);
}
