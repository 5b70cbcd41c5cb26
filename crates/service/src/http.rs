//! Minimal HTTP/1.1 framing: just enough for a localhost JSON service —
//! request/status lines, headers, Content-Length bodies, keep-alive, and
//! percent-decoded targets. No chunked encoding, no TLS, no async.
//!
//! The core is [`parse_request`], a pure incremental parser over a byte
//! buffer: it either frames one complete request (reporting how many
//! bytes it consumed, so pipelined bytes after the request are preserved
//! for the next call), asks for more bytes, or rejects the prefix with
//! the HTTP status the connection should die with. The reactor drives it
//! off readiness events.

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Upper bound on the request head (request line + headers). Exceeding it
/// is answered `431`.
const MAX_HEAD: usize = 64 * 1024;
/// Upper bound on a request body (schema uploads are the largest payload).
/// A declared `Content-Length` beyond it is answered `413` without reading
/// the body.
const MAX_BODY: usize = 32 * 1024 * 1024;
/// Upper bound on the number of header lines; more is answered `431`.
const MAX_HEADER_LINES: usize = 100;
/// Upper bound on one head line (request line or header); more is `431`.
const MAX_HEAD_LINE: usize = 8 * 1024;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, `PUT`, ...).
    pub method: String,
    /// Percent-decoded path with any query string stripped.
    pub path: String,
    /// The raw query string (without the `?`), empty when absent.
    pub query: String,
    /// Percent-decoded `name=value` query parameters, in order.
    pub params: Vec<(String, String)>,
    /// The `x-ipe-trace-id` request header, verbatim, when present.
    pub trace_id: Option<String>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
    /// The request body (empty unless Content-Length was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The body as UTF-8 text, or an error message for the 400 response.
    pub fn text(&self) -> Result<&str, &'static str> {
        std::str::from_utf8(&self.body).map_err(|_| "request body is not valid UTF-8")
    }

    /// The value of a `name=value` query parameter, if present.
    /// Percent-escapes were decoded at parse time (a malformed escape
    /// rejected the whole request with a `400`).
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.params
            .iter()
            .find_map(|(k, v)| (k == name).then_some(v.as_str()))
    }
}

/// Decodes the minimal `%XX` percent-escapes of a request target. `None`
/// when an escape is truncated, has non-hex digits, or decodes to invalid
/// UTF-8 — all of which the caller must answer with a `400`. `+` is left
/// alone: the service's parameters are tokens, not form submissions.
fn percent_decode(s: &str) -> Option<String> {
    if !s.contains('%') {
        return Some(s.to_owned());
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hi = hex_val(*bytes.get(i + 1)?)?;
            let lo = hex_val(*bytes.get(i + 2)?)?;
            out.push(hi * 16 + lo);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// What [`parse_request`] concluded about the front of the buffer.
#[derive(Debug)]
pub enum ParseOutcome {
    /// The buffer holds a prefix of a request; read more bytes.
    Incomplete,
    /// One full request was framed; `consumed` bytes belong to it and any
    /// remainder is the start of the next (pipelined) request.
    Ok {
        /// The framed request.
        request: Request,
        /// Bytes of the buffer this request occupied.
        consumed: usize,
    },
    /// The bytes are not HTTP or exceed the configured caps; the
    /// connection should get the paired status (`400`, `413`, or `431`)
    /// and be dropped.
    Malformed(u16, &'static str),
}

/// Shorthand for the reject outcomes.
fn reject(status: u16, msg: &'static str) -> ParseOutcome {
    ParseOutcome::Malformed(status, msg)
}

/// Incrementally parses one request from the front of `buf`. Pure: never
/// touches a socket, never consumes bytes (the caller drains `consumed`
/// on [`ParseOutcome::Ok`]). Bytes past the framed request are the next
/// pipelined request and must be preserved by the caller.
pub fn parse_request(buf: &[u8]) -> ParseOutcome {
    let Some(head_end) = find_head_end(buf) else {
        return if buf.len() > MAX_HEAD {
            reject(431, "request head too large")
        } else {
            ParseOutcome::Incomplete
        };
    };
    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(h) => h,
        Err(_) => return reject(400, "request head is not valid UTF-8"),
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    if request_line.len() > MAX_HEAD_LINE {
        return reject(431, "request line too long");
    }
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return reject(400, "malformed request line");
    };
    if !version.starts_with("HTTP/1.") {
        return reject(400, "unsupported HTTP version");
    }
    let mut content_length: Option<usize> = None;
    // HTTP/1.1 defaults to keep-alive; `Connection: close` opts out.
    let mut keep_alive = version == "HTTP/1.1";
    let mut trace_id: Option<String> = None;
    let mut header_lines = 0usize;
    for line in lines {
        header_lines += 1;
        if header_lines > MAX_HEADER_LINES {
            return reject(431, "too many header lines");
        }
        if line.len() > MAX_HEAD_LINE {
            return reject(431, "header line too long");
        }
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let Ok(n) = value.parse::<usize>() else {
                return reject(400, "bad Content-Length");
            };
            // Identical duplicates collapse (they may come from proxies
            // merging frames); *conflicting* duplicates are a smuggling
            // vector and kill the request.
            match content_length {
                Some(prev) if prev != n => {
                    return reject(400, "conflicting duplicate Content-Length headers");
                }
                _ => {}
            }
            if n > MAX_BODY {
                return reject(413, "request body too large");
            }
            content_length = Some(n);
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("x-ipe-trace-id") {
            trace_id = Some(value.to_owned());
        }
    }
    let content_length = content_length.unwrap_or(0);
    let body_start = head_end + 4;
    let total = body_start + content_length;
    if buf.len() < total {
        return ParseOutcome::Incomplete;
    }
    // Consume exactly this request's bytes: anything after `total` is the
    // next pipelined request and stays in the buffer.
    let body = buf[body_start..total].to_vec();
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let Some(path) = percent_decode(raw_path) else {
        return reject(400, "malformed percent-escape in request path");
    };
    let mut params = Vec::new();
    for pair in raw_query.split('&') {
        let Some((k, v)) = pair.split_once('=') else {
            continue;
        };
        let (Some(k), Some(v)) = (percent_decode(k), percent_decode(v)) else {
            return reject(400, "malformed percent-escape in query parameter");
        };
        params.push((k, v));
    }
    ParseOutcome::Ok {
        request: Request {
            method: method.to_ascii_uppercase(),
            path,
            query: raw_query.to_owned(),
            params,
            trace_id,
            keep_alive,
            body,
        },
        consumed: total,
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Renders one response (status line, headers, body) into wire bytes.
/// A wrapper over [`render_response_into`] for callers without a buffer
/// of their own.
pub fn render_response(
    status: u16,
    content_type: &str,
    body: &str,
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 160);
    render_response_into(
        &mut out,
        status,
        content_type,
        &[body.as_bytes()],
        keep_alive,
        extra_headers,
    );
    out
}

/// Appends one response to `out`: the head, then the body given as
/// `parts` written back to back (`Content-Length` is their total). This
/// is the single serialization point of the reactor's write buffers and
/// [`render_response`]; a body kept in pieces (a per-request prefix and a cached tail) is copied once,
/// straight into `out`.
pub fn render_response_into(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    parts: &[&[u8]],
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) {
    let reason = match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        421 => "Misdirected Request",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Internal Server Error",
    };
    let len: usize = parts.iter().map(|p| p.len()).sum();
    out.reserve(len + 160);
    // Writes into a `Vec` cannot fail.
    let _ = write!(
        out,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {len}\r\nConnection: {}\r\n",
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra_headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    out.extend_from_slice(b"\r\n");
    for part in parts {
        out.extend_from_slice(part);
    }
}

/// A minimal blocking HTTP/1.1 client with keep-alive, for the load
/// generator, the smoke test, and the integration tests.
pub struct Client {
    addr: String,
    stream: Option<TcpStream>,
}

impl Client {
    /// A client for `addr` (`host:port`). Connects lazily.
    pub fn new(addr: impl Into<String>) -> Client {
        Client {
            addr: addr.into(),
            stream: None,
        }
    }

    fn connect(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect(&self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
            self.stream = Some(s);
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    /// Sends one request and reads the full response. Reconnects once if
    /// the kept-alive connection went away.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        self.request_with(method, path, body, &[])
            .map(|r| (r.status, r.body))
    }

    /// Like [`Client::request`], sending additional request headers and
    /// returning the full response including its headers (names
    /// lower-cased).
    pub fn request_with(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        headers: &[(&str, &str)],
    ) -> io::Result<ClientResponse> {
        match self.try_request(method, path, body, headers) {
            Ok(r) => Ok(r),
            Err(_) => {
                // The pooled connection may have been closed; retry fresh.
                self.stream = None;
                self.try_request(method, path, body, headers)
            }
        }
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        headers: &[(&str, &str)],
    ) -> io::Result<ClientResponse> {
        use std::fmt::Write as _;
        let stream = self.connect()?;
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: ipe\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
            body.len()
        );
        for (name, value) in headers {
            let _ = write!(head, "{name}: {value}\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()?;

        let mut buf: Vec<u8> = Vec::with_capacity(1024);
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(pos) = find_head_end(&buf) {
                break pos;
            }
            match stream.read(&mut chunk)? {
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed before response head",
                    ))
                }
                n => buf.extend_from_slice(&chunk[..n]),
            }
        };
        let head_text = String::from_utf8_lossy(&buf[..head_end]).into_owned();
        let mut lines = head_text.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut content_length = 0usize;
        let mut keep_alive = true;
        let mut response_headers: Vec<(String, String)> = Vec::new();
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            response_headers.push((name.to_ascii_lowercase(), value.to_owned()));
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().unwrap_or(0);
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.eq_ignore_ascii_case("close");
            }
        }
        let mut body = buf[head_end + 4..].to_vec();
        while body.len() < content_length {
            match stream.read(&mut chunk)? {
                0 => break,
                n => body.extend_from_slice(&chunk[..n]),
            }
        }
        body.truncate(content_length);
        if !keep_alive {
            self.stream = None;
        }
        String::from_utf8(body)
            .map(|body| ClientResponse {
                status,
                headers: response_headers,
                body,
            })
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response body"))
    }
}

/// A full response as read by [`Client::request_with`].
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The response body as UTF-8 text.
    pub body: String,
}

impl ClientResponse {
    /// The first header named `name` (lower-case), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(buf: &[u8]) -> (Request, usize) {
        match parse_request(buf) {
            ParseOutcome::Ok { request, consumed } => (request, consumed),
            other => panic!("expected Ok, got {other:?}"),
        }
    }

    #[test]
    fn parses_one_request_and_reports_exact_consumption() {
        let wire = b"POST /v1/complete HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\n{}";
        let (req, consumed) = parse_ok(wire);
        assert_eq!(consumed, wire.len());
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/complete");
        assert_eq!(req.body, b"{}");
        assert!(req.keep_alive);
    }

    /// The pipelining regression: bytes past the first request's body
    /// must NOT be consumed with it.
    #[test]
    fn pipelined_requests_are_framed_one_at_a_time() {
        let first = b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc".to_vec();
        let second = b"GET /b HTTP/1.1\r\n\r\n".to_vec();
        let mut wire = first.clone();
        wire.extend_from_slice(&second);
        let (req, consumed) = parse_ok(&wire);
        assert_eq!(req.path, "/a");
        assert_eq!(req.body, b"abc");
        assert_eq!(consumed, first.len(), "must stop at the body boundary");
        let (req2, consumed2) = parse_ok(&wire[consumed..]);
        assert_eq!(req2.path, "/b");
        assert_eq!(consumed + consumed2, wire.len());
    }

    #[test]
    fn incomplete_prefixes_ask_for_more() {
        let wire = b"POST /a HTTP/1.1\r\nContent-Length: 5\r\n\r\nab";
        assert!(matches!(parse_request(wire), ParseOutcome::Incomplete));
        assert!(matches!(
            parse_request(b"GET /a HT"),
            ParseOutcome::Incomplete
        ));
        assert!(matches!(parse_request(b""), ParseOutcome::Incomplete));
    }

    #[test]
    fn percent_escapes_decode_in_path_and_params() {
        let (req, _) =
            parse_ok(b"GET /v1/schemas/my%20uni?format=prom%65theus&x=a%2Bb HTTP/1.1\r\n\r\n");
        assert_eq!(req.path, "/v1/schemas/my uni");
        assert_eq!(req.query_param("format"), Some("prometheus"));
        assert_eq!(req.query_param("x"), Some("a+b"));
        assert_eq!(req.query_param("absent"), None);
    }

    #[test]
    fn malformed_percent_escapes_are_400() {
        for target in ["/v1/schemas/bad%zz", "/v1/schemas/trunc%2", "/x?k=%fz"] {
            let wire = format!("GET {target} HTTP/1.1\r\n\r\n");
            match parse_request(wire.as_bytes()) {
                ParseOutcome::Malformed(400, msg) => {
                    assert!(msg.contains("percent-escape"), "{msg}")
                }
                other => panic!("{target}: expected 400, got {other:?}"),
            }
        }
        // Escapes decoding to invalid UTF-8 are rejected, not mangled.
        match parse_request(b"GET /v1/schemas/%ff%fe HTTP/1.1\r\n\r\n") {
            ParseOutcome::Malformed(400, _) => {}
            other => panic!("expected 400, got {other:?}"),
        }
    }

    #[test]
    fn caps_reject_with_the_paired_status() {
        let mut big_head = b"GET / HTTP/1.1\r\nX: ".to_vec();
        big_head.extend(std::iter::repeat_n(b'a', MAX_HEAD + 1));
        assert!(matches!(
            parse_request(&big_head),
            ParseOutcome::Malformed(431, _)
        ));
        let huge_body = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(
            parse_request(huge_body.as_bytes()),
            ParseOutcome::Malformed(413, _)
        ));
        assert!(matches!(
            parse_request(b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\n"),
            ParseOutcome::Malformed(400, _)
        ));
    }
}
