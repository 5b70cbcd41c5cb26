//! The timed phase: the workload's closed-loop main stream and the
//! open-loop side stream every workload carries.
//!
//! Replies are not parsed while the clock runs. Each one is reduced to a
//! few scanned fields and a hash, and the checks compare them against
//! independent answers once the timed phase is over.

use crate::inputs::{Churn, PROBE_QUERY, PROBE_SCHEMA, SIDE_TENANT};
use crate::rng::Rng;
use crate::stats::{generator_late_max_ns, OpenOp, MIN_BEYOND};
use crate::wire::{self, Conn, Reply};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One reply of the main stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MainRecord {
    pub key: u32,
    /// Offset of the send from the phase origin.
    pub sent_ns: u64,
    pub latency_ns: u64,
    /// The server's own `duration_ns` for the request.
    pub server_ns: u64,
    pub status: u16,
    pub generation: u64,
    pub cached: bool,
    /// See [`wire::hash_completions`].
    pub hash: u64,
}

fn record(key: usize, sent: Instant, origin: Instant, reply: &Reply) -> MainRecord {
    let body = &reply.body;
    MainRecord {
        key: key as u32,
        sent_ns: sent.duration_since(origin).as_nanos() as u64,
        latency_ns: sent.elapsed().as_nanos() as u64,
        server_ns: wire::scan_u64(body, "duration_ns").unwrap_or(0),
        status: reply.status,
        generation: wire::scan_u64(body, "generation").unwrap_or(0),
        cached: wire::scan_bool(body, "cached").unwrap_or(false),
        hash: if reply.ok() {
            wire::hash_completions(body)
        } else {
            0
        },
    }
}

/// Bytes of one [`MainRecord`] in a [`RecordLog`].
const RECORD_BYTES: usize = 47;

impl MainRecord {
    fn to_bytes(self) -> [u8; RECORD_BYTES] {
        let mut b = [0u8; RECORD_BYTES];
        b[0..4].copy_from_slice(&self.key.to_le_bytes());
        b[4..12].copy_from_slice(&self.sent_ns.to_le_bytes());
        b[12..20].copy_from_slice(&self.latency_ns.to_le_bytes());
        b[20..28].copy_from_slice(&self.server_ns.to_le_bytes());
        b[28..30].copy_from_slice(&self.status.to_le_bytes());
        b[30..38].copy_from_slice(&self.generation.to_le_bytes());
        b[38] = u8::from(self.cached);
        b[39..47].copy_from_slice(&self.hash.to_le_bytes());
        b
    }

    fn from_bytes(b: &[u8]) -> MainRecord {
        let u64_at = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().expect("8 bytes"));
        MainRecord {
            key: u32::from_le_bytes(b[0..4].try_into().expect("4 bytes")),
            sent_ns: u64_at(4),
            latency_ns: u64_at(12),
            server_ns: u64_at(20),
            status: u16::from_le_bytes(b[28..30].try_into().expect("2 bytes")),
            generation: u64_at(30),
            cached: b[38] != 0,
            hash: u64_at(39),
        }
    }
}

/// The main stream's records on their way to a file while the clock
/// runs. Written pages sit in the page cache, not in the process, so the
/// client's memory stays the same whatever the throughput, and
/// `peak_rss_mb` does not grow with the number of replies.
pub struct RecordLog {
    file: BufWriter<File>,
    path: PathBuf,
}

impl RecordLog {
    pub fn create(path: PathBuf) -> Result<RecordLog, String> {
        let file =
            File::create(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(RecordLog {
            file: BufWriter::with_capacity(1 << 20, file),
            path,
        })
    }

    fn push(&mut self, r: MainRecord) -> Result<(), String> {
        self.file
            .write_all(&r.to_bytes())
            .map_err(|e| format!("cannot write {}: {e}", self.path.display()))
    }

    /// Every record pushed, in order; removes the file.
    pub fn load(self) -> Result<Vec<MainRecord>, String> {
        let fail = |e: std::io::Error| format!("record log {}: {e}", self.path.display());
        drop(self.file.into_inner().map_err(|e| fail(e.into_error()))?);
        let bytes = std::fs::read(&self.path).map_err(fail)?;
        std::fs::remove_file(&self.path).map_err(fail)?;
        Ok(bytes
            .chunks_exact(RECORD_BYTES)
            .map(MainRecord::from_bytes)
            .collect())
    }
}

/// The main stream: a closed loop over the connections `links` driven by
/// one thread. Each connection sends its next request only after its previous
/// reply, so with two connections the server has the next request waiting
/// while the client reads a reply. `next_key` returns `None` when the key
/// supply runs out.
pub fn closed_loop(
    mut links: Vec<Conn>,
    path: &str,
    bodies: &[&str],
    next_key: &mut dyn FnMut() -> Option<usize>,
    origin: Instant,
    deadline: Instant,
    log: &mut RecordLog,
) -> Result<(), String> {
    let mut inflight: Vec<Option<(usize, Instant)>> = vec![None; links.len()];
    let send = |link: &mut Conn, k: usize| -> Result<(usize, Instant), String> {
        let sent = Instant::now();
        link.send("POST", path, bodies[k])
            .map_err(|e| format!("main stream: {e}"))?;
        Ok((k, sent))
    };
    for (slot, link) in inflight.iter_mut().zip(links.iter_mut()) {
        if let Some(k) = next_key() {
            *slot = Some(send(link, k)?);
        }
    }
    while inflight.iter().any(Option::is_some) {
        for (slot, link) in inflight.iter_mut().zip(links.iter_mut()) {
            let Some((k, sent)) = slot.take() else {
                continue;
            };
            let reply = link.recv().map_err(|e| format!("main stream: {e}"))?;
            log.push(record(k, sent, origin, &reply))?;
            if Instant::now() < deadline {
                if let Some(k) = next_key() {
                    *slot = Some(send(link, k)?);
                }
            }
        }
    }
    Ok(())
}

/// Operations each side stream sends in a run: the fewest that leave
/// [`MIN_BEYOND`] samples beyond p99, so a stream's p99 is the lowest rate
/// the tail rule allows, whatever the run's length.
pub const SIDE_OPS: u32 = 100 * MIN_BEYOND as u32;
/// The longest the side stream waits for a reply before it gives up.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SideKind {
    Probe,
    /// Upload of churn schema `name` meant to land at `generation`.
    Write {
        name: usize,
        generation: u64,
    },
}

#[derive(Clone, Copy, Debug)]
pub struct SideRecord {
    pub kind: SideKind,
    pub op: OpenOp,
    pub status: u16,
    /// Probes: hash of the completions. Writes: the generation acked.
    pub value: u64,
}

pub fn probe_body() -> String {
    crate::inputs::request_body(PROBE_SCHEMA, PROBE_QUERY, 1, None)
}

/// Due times, as offsets from the start, of `n` operations arriving
/// independently at random over `span`: a Poisson stream conditioned on
/// its count. Independent users arrive this way, and random arrivals
/// cannot lock into step with the other loop or with the server.
pub fn arrivals(rng: &mut Rng, n: u32, span: Duration) -> Vec<Duration> {
    let mut due: Vec<Duration> = (0..n).map(|_| span.mul_f64(rng.unit())).collect();
    due.sort();
    due
}

/// One open loop of the side stream, on a connection of its own.
struct OpenLoop {
    /// Sends warm probes if set, schema uploads if not.
    probes: bool,
    conn: Conn,
    due: Vec<Duration>,
    next: usize,
    inflight: Option<(SideKind, OpenOp)>,
    ops: Vec<OpenOp>,
}

impl OpenLoop {
    /// When the next operation is due, if it is waiting to be sent.
    fn due(&self, origin: Instant) -> Option<Instant> {
        let next = self.due.get(self.next)?;
        self.inflight.is_none().then(|| origin + *next)
    }
}

/// The side stream: two independent open loops driven by one thread, a
/// warm probe loop and a schema-upload loop, each sending [`SIDE_OPS`]
/// operations at seeded random times over `origin..deadline` on its own
/// connection. An operation is due on its schedule whatever happened to
/// earlier ones; if the previous reply on its connection is still out, it
/// goes the moment that reply lands. Both are timed from the due time, and
/// neither loop ever waits for the other's replies. Uploads go
/// round-robin over the churn schemas and alternate each one's two
/// variants. Returns the records and how late the generator itself ran,
/// in nanoseconds.
pub fn side_loop(
    addr: &str,
    churn: &Churn,
    seed: u64,
    origin: Instant,
    deadline: Instant,
) -> Result<(Vec<SideRecord>, u64), String> {
    let span = deadline.duration_since(origin);
    let open = |probes: bool, purpose: u64| -> Result<OpenLoop, String> {
        Ok(OpenLoop {
            probes,
            conn: Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?,
            due: arrivals(&mut Rng::fork(seed, purpose), SIDE_OPS, span),
            next: 0,
            inflight: None,
            ops: Vec::with_capacity(SIDE_OPS as usize),
        })
    };
    let mut loops = [open(true, 7)?, open(false, 8)?];
    let probe = probe_body();
    let probe_path = format!("/v1/t/{SIDE_TENANT}/complete");
    let put_paths: Vec<String> = churn
        .names
        .iter()
        .map(|n| format!("/v1/t/{SIDE_TENANT}/schemas/{n}"))
        .collect();
    let mut generation = vec![1u64; churn.names.len()];
    let ns = |t: Instant| t.duration_since(origin).as_nanos() as u64;
    let io = |e: std::io::Error| format!("side stream: {e}");
    let mut out = Vec::with_capacity(2 * SIDE_OPS as usize);
    loop {
        let now = Instant::now();
        for l in &mut loops {
            let Some(due) = l.due(origin).filter(|d| *d <= now) else {
                continue;
            };
            let sent = ns(Instant::now());
            let kind = if l.probes {
                l.conn.send("POST", &probe_path, &probe).map_err(io)?;
                SideKind::Probe
            } else {
                let name = l.next % churn.names.len();
                generation[name] += 1;
                let variant = &churn.variants[name][((generation[name] - 1) % 2) as usize];
                l.conn.send("PUT", &put_paths[name], variant).map_err(io)?;
                SideKind::Write {
                    name,
                    generation: generation[name],
                }
            };
            let op = OpenOp {
                due: ns(due),
                sent,
                done: 0,
            };
            l.inflight = Some((kind, op));
            l.next += 1;
        }
        if loops
            .iter()
            .all(|l| l.next == l.due.len() && l.inflight.is_none())
        {
            break;
        }
        // Sleep until the next operation is due or a reply arrives.
        let waiting = Instant::now();
        let wake = loops.iter().filter_map(|l| l.due(origin)).min();
        let timeout = wake.map_or(REPLY_TIMEOUT, |t| t.saturating_duration_since(waiting));
        let busy: Vec<usize> = (0..loops.len())
            .filter(|&i| loops[i].inflight.is_some())
            .collect();
        let fds: Vec<_> = busy.iter().map(|&i| loops[i].conn.fd()).collect();
        let readable = wire::wait_readable(&fds, timeout).map_err(io)?;
        if wake.is_none() && !readable.contains(&true) && waiting.elapsed() >= REPLY_TIMEOUT {
            return Err(format!("side stream: no reply within {REPLY_TIMEOUT:?}"));
        }
        for (&i, _) in busy.iter().zip(readable).filter(|(_, r)| *r) {
            let l = &mut loops[i];
            l.conn.fill().map_err(io)?;
            let Some(reply) = l.conn.buffered_reply().map_err(io)? else {
                continue;
            };
            let (kind, mut op) = l.inflight.take().expect("a reply answers a request");
            op.done = ns(Instant::now());
            let value = match kind {
                SideKind::Probe => wire::hash_completions(&reply.body),
                SideKind::Write { .. } => wire::scan_u64(&reply.body, "generation").unwrap_or(0),
            };
            l.ops.push(op);
            out.push(SideRecord {
                kind,
                op,
                status: reply.status,
                value,
            });
        }
    }
    let late = loops
        .iter()
        .map(|l| generator_late_max_ns(&l.ops))
        .max()
        .unwrap_or(0);
    Ok((out, late))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_log_gives_back_what_was_pushed() {
        let dir = std::env::temp_dir().join(format!("perfbench-log-{}", std::process::id()));
        let mut log = RecordLog::create(dir.clone()).unwrap();
        let records: Vec<MainRecord> = (0..3u64)
            .map(|i| MainRecord {
                key: i as u32 + 7,
                sent_ns: u64::MAX - i,
                latency_ns: 1_000 * i,
                server_ns: 3,
                status: 200 + i as u16,
                generation: i,
                cached: i % 2 == 0,
                hash: 0xdead_beef << i,
            })
            .collect();
        for r in &records {
            log.push(*r).unwrap();
        }
        assert_eq!(log.load().unwrap(), records);
        assert!(!dir.exists());
    }

    #[test]
    fn arrivals_are_sorted_within_the_span_and_repeat_for_a_seed() {
        let span = Duration::from_secs(30);
        let due = arrivals(&mut Rng::fork(5, 7), SIDE_OPS, span);
        assert_eq!(due.len(), SIDE_OPS as usize);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due.iter().all(|d| *d < span));
        assert_eq!(due, arrivals(&mut Rng::fork(5, 7), SIDE_OPS, span));
        // Spread over the whole span, not bunched: each third holds about
        // a third of them.
        let first = due.iter().filter(|d| **d < span / 3).count();
        assert!((250..420).contains(&first), "{first}");
    }
}
