//! A small blocking HTTP/1.1 client for the load loops, and the helpers
//! that read replies. Unlike a retrying client, a failed exchange stays
//! failed, so every error is counted.

use serde::Value;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_long, c_short, c_ulong};
use std::time::Duration;

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

pub struct Reply {
    pub status: u16,
    pub body: String,
}

impl Reply {
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Writes one request without waiting for the reply.
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> io::Result<()> {
        let req = request_bytes(method, path, body);
        self.stream.write_all(&req)
    }

    /// Reads the next reply off the connection.
    pub fn recv(&mut self) -> io::Result<Reply> {
        loop {
            if let Some(reply) = self.buffered_reply()? {
                return Ok(reply);
            }
            self.fill()?;
        }
    }

    /// One read of what the socket holds. Blocks only when it holds
    /// nothing, so after [`wait_readable`] reported it, it never does.
    pub fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        match self.stream.read(&mut chunk)? {
            0 => Err(bad("server closed the connection")),
            n => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
        }
    }

    /// The next reply, if the bytes read so far hold all of it.
    pub fn buffered_reply(&mut self) -> io::Result<Option<Reply>> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("non-UTF-8 response head"))?;
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .ok_or_else(|| bad("response without content-length"))?;
        let total = head_end + 4 + len;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = String::from_utf8(self.buf[head_end + 4..total].to_vec())
            .map_err(|_| bad("non-UTF-8 response body"))?;
        self.buf.drain(..total);
        Ok(Some(Reply { status, body }))
    }

    pub fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    pub fn call(&mut self, method: &str, path: &str, body: &str) -> io::Result<Reply> {
        self.send(method, path, body)?;
        self.recv()
    }

    /// A call whose reply must be 2xx, parsed as JSON.
    pub fn json(&mut self, method: &str, path: &str, body: &str) -> Result<Value, String> {
        let reply = self
            .call(method, path, body)
            .map_err(|e| format!("{method} {path}: {e}"))?;
        if !reply.ok() {
            return Err(format!(
                "{method} {path}: HTTP {}: {}",
                reply.status, reply.body
            ));
        }
        parse(&reply.body)
    }
}

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 1;

extern "C" {
    fn ppoll(fds: *mut PollFd, n: c_ulong, timeout: *const Timespec, sigmask: *const u8) -> c_int;
}

/// Waits until one of `fds` has bytes to read or `timeout` passes, and
/// says which are readable. A closed or failed socket counts as readable,
/// so its next read reports the error.
pub fn wait_readable(fds: &[RawFd], timeout: Duration) -> io::Result<Vec<bool>> {
    let mut polls: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `polls` holds exactly `n` initialised entries that ppoll may
    // write; `ts` outlives the call; a null mask keeps the signal mask.
    let rc = unsafe {
        ppoll(
            polls.as_mut_ptr(),
            polls.len() as c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
    match rc {
        -1 if io::Error::last_os_error().kind() == io::ErrorKind::Interrupted => {
            Ok(vec![false; fds.len()])
        }
        -1 => Err(io::Error::last_os_error()),
        _ => Ok(polls.iter().map(|p| p.revents != 0).collect()),
    }
}

/// The exact bytes a client sends for one request.
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut req = format!(
        "{method} {path} HTTP/1.1\r\nHost: ipe\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body.as_bytes());
    req
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::parse_value_text(text).map_err(|e| format!("bad JSON reply: {e:?}"))
}

/// Follows `path` through nested objects.
pub fn at<'v>(v: &'v Value, path: &[&str]) -> Result<&'v Value, String> {
    let mut cur = v;
    for key in path {
        cur = cur
            .get(key)
            .ok_or_else(|| format!("reply has no `{}`", path.join(".")))?;
    }
    Ok(cur)
}

pub fn num(v: &Value) -> Result<u64, String> {
    match v {
        Value::I64(i) if *i >= 0 => Ok(*i as u64),
        Value::U64(u) => Ok(*u),
        other => Err(format!("expected a count, got {other:?}")),
    }
}

pub fn u64_at(v: &Value, path: &[&str]) -> Result<u64, String> {
    num(at(v, path)?)
}

pub fn str_at<'v>(v: &'v Value, path: &[&str]) -> Result<&'v str, String> {
    match at(v, path)? {
        Value::Str(s) => Ok(s),
        other => Err(format!("`{}` is not a string: {other:?}", path.join("."))),
    }
}

pub fn seq_at<'v>(v: &'v Value, path: &[&str]) -> Result<&'v [Value], String> {
    match at(v, path)? {
        Value::Seq(items) => Ok(items),
        other => Err(format!("`{}` is not an array: {other:?}", path.join("."))),
    }
}

/// The unsigned number following `"field":` in a JSON text, found by
/// scanning rather than parsing, for the hot reply path.
pub fn scan_u64(body: &str, field: &str) -> Option<u64> {
    let key = format!("\"{field}\":");
    let at = body.find(&key)? + key.len();
    let digits: String = body[at..]
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

pub fn scan_bool(body: &str, field: &str) -> Option<bool> {
    let key = format!("\"{field}\":");
    let rest = body[body.find(&key)? + key.len()..].trim_start();
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// FNV-1a over the bytes of `text`.
pub fn hash(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Hash of the `completions` array of a completion reply alone.
pub fn hash_completions(body: &str) -> u64 {
    let start = body.find("\"completions\":").unwrap_or(0);
    let end = body[start..]
        .find("\"stats\":")
        .map_or(body.len(), |e| start + e);
    hash(&body[start..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scanning_reads_numbers_and_flags() {
        let body = r#"{"generation":12,"cached": true,"duration_ns":  4711,"x":[]}"#;
        assert_eq!(scan_u64(body, "generation"), Some(12));
        assert_eq!(scan_u64(body, "duration_ns"), Some(4711));
        assert_eq!(scan_bool(body, "cached"), Some(true));
        assert_eq!(scan_u64(body, "missing"), None);
    }

    #[test]
    fn completions_hash_ignores_generation_and_stats() {
        let a = r#"{"generation":1,"completions":[{"text":"a"}],"stats":{"calls":3}}"#;
        let b = r#"{"generation":2,"completions":[{"text":"a"}],"stats":{"calls":9}}"#;
        assert_eq!(hash_completions(a), hash_completions(b));
    }

    #[test]
    fn replies_split_across_reads_are_reassembled() {
        let (mut server, mut conn) = pair();
        server
            .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhe")
            .unwrap();
        assert_eq!(
            wait_readable(&[conn.fd()], Duration::from_secs(5)).unwrap(),
            [true]
        );
        conn.fill().unwrap();
        assert!(conn.buffered_reply().unwrap().is_none());
        server.write_all(b"llo").unwrap();
        let reply = conn.recv().unwrap();
        assert_eq!((reply.status, reply.body.as_str()), (200, "hello"));
        // Nothing more to read: the wait times out.
        let idle = wait_readable(&[conn.fd()], Duration::from_millis(20)).unwrap();
        assert_eq!(idle, [false]);
    }

    fn pair() -> (TcpStream, Conn) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let conn = Conn::connect(&listener.local_addr().unwrap().to_string()).unwrap();
        (listener.accept().unwrap().0, conn)
    }
}
