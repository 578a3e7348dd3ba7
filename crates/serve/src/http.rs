//! Hand-rolled HTTP/1.1, just enough for the daemon: `Content-Length`
//! framing with keep-alive *and* one-shot connections, strict
//! request-smuggling hygiene (duplicate `Content-Length` and
//! `Transfer-Encoding` are rejected outright), and a tiny client — both
//! one-shot and persistent — for tests, the smoke runner, and the
//! loopback load generators.
//!
//! # Keep-alive contract
//!
//! [`read_request`] records the connection semantics the client asked
//! for in [`Request::keep_alive`] (HTTP/1.1 defaults to keep-alive,
//! HTTP/1.0 to close, an explicit `Connection` header wins either way).
//! The server echoes its decision in the response's `Connection` header
//! via [`write_response`]'s `keep_alive` flag; a `Connection: close`
//! response is byte-identical to the pre-keep-alive one-shot protocol.
//! Body framing is `Content-Length` only — requests that declare a
//! body any other way are refused before a byte of the body is read,
//! so a rejected request can never desynchronize the next one on the
//! same socket.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Upper bound on a request head (request line + headers).
const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Upper bound on a request body (graph uploads are the big case; a
/// 10⁶-edge snapshot is ~8 MiB).
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method (`GET`, `PUT`, `POST`, …).
    pub method: String,
    /// Path component, query string stripped.
    pub path: String,
    /// Lower-cased header names with their values.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to reuse the connection: HTTP/1.1
    /// defaults to `true`, HTTP/1.0 to `false`, and an explicit
    /// `Connection: keep-alive` / `Connection: close` header overrides
    /// the default.
    pub keep_alive: bool,
}

impl Request {
    /// First value of header `name` (lower-case).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Path split into non-empty `/`-separated segments.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// Why a request could not be read. Maps to 400/413 (or a dropped
/// connection when the peer vanished mid-read).
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed before a full request arrived.
    ConnectionClosed,
    /// Read failure or timeout.
    Io(std::io::Error),
    /// Malformed request line, headers, or body framing — including the
    /// request-smuggling vectors (duplicate `Content-Length`, any
    /// `Transfer-Encoding`). Maps to 400; the connection is closed
    /// because framing can no longer be trusted.
    Malformed(String),
    /// The head or body exceeded its size bound. The body case is
    /// decided from the declared `Content-Length` *before* anything is
    /// allocated or read, so an attacker cannot make the server buffer
    /// an oversized payload. Maps to 413.
    TooLarge(&'static str),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::ConnectionClosed => write!(f, "connection closed mid-request"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::TooLarge(what) => write!(f, "request {what} too large"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Whether an I/O failure is a read timeout (the keep-alive idle path:
/// close quietly, no error response).
pub fn is_timeout(err: &HttpError) -> bool {
    matches!(
        err,
        HttpError::Io(e) if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        )
    )
}

/// Decides the request body length from the headers, enforcing the
/// anti-smuggling rules *before* any body byte is read:
///
/// * any `Transfer-Encoding` header is refused (this server frames by
///   `Content-Length` only; accepting chunked alongside a length is the
///   classic TE.CL smuggling vector),
/// * more than one `Content-Length` header is refused even when the
///   copies agree,
/// * a declared length above `cap` is refused before allocation.
fn body_length(req: &Request, cap: usize) -> Result<usize, HttpError> {
    if req.headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(HttpError::Malformed(
            "Transfer-Encoding is not supported (Content-Length framing only)".into(),
        ));
    }
    let mut lengths = req.headers.iter().filter(|(k, _)| k == "content-length");
    let Some((_, first)) = lengths.next() else { return Ok(0) };
    if lengths.next().is_some() {
        return Err(HttpError::Malformed("duplicate Content-Length headers".into()));
    }
    let len = first
        .parse::<usize>()
        .map_err(|_| HttpError::Malformed(format!("content-length {first:?}")))?;
    if len > cap {
        return Err(HttpError::TooLarge("body"));
    }
    Ok(len)
}

/// Reads exactly `len` body bytes. The caller has already validated
/// `len` against the cap via [`body_length`] — the allocation here is
/// always within bounds.
fn read_body(reader: &mut BufReader<TcpStream>, len: usize) -> Result<Vec<u8>, HttpError> {
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            HttpError::ConnectionClosed
        } else {
            HttpError::Io(e)
        }
    })?;
    Ok(body)
}

/// Reads one request from the stream.
pub fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Request, HttpError> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(HttpError::ConnectionClosed);
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let target =
        parts.next().ok_or_else(|| HttpError::Malformed("request line lacks a target".into()))?;
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("unsupported version {version:?}")));
    }
    let keep_alive_default = version != "HTTP/1.0";
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut headers = Vec::new();
    let mut head_bytes = line.len();
    loop {
        let mut hline = String::new();
        if reader.read_line(&mut hline)? == 0 {
            return Err(HttpError::ConnectionClosed);
        }
        head_bytes += hline.len();
        if head_bytes > MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge("head"));
        }
        let trimmed = hline.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        let (name, value) = trimmed
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header line {trimmed:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut req = Request { method, path, headers, body: Vec::new(), keep_alive: false };
    req.keep_alive = match req.header("connection").map(str::to_ascii_lowercase) {
        Some(c) if c == "close" => false,
        Some(c) if c == "keep-alive" => true,
        _ => keep_alive_default,
    };
    let len = body_length(&req, MAX_BODY_BYTES)?;
    req.body = read_body(reader, len)?;
    Ok(req)
}

/// Canonical reason phrases for the status codes the daemon emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        410 => "Gone",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Status",
    }
}

/// Writes a complete response and flushes. `keep_alive` selects the
/// `Connection` header: `false` reproduces the one-shot protocol byte
/// for byte (the caller drops the stream afterwards), `true` tells the
/// client the connection will serve another request.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    write_response_ext(stream, status, content_type, body, keep_alive, &[])
}

/// [`write_response`] plus extra response headers (e.g. `Retry-After`
/// on an admission-control 503).
pub fn write_response_ext(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        reason(status),
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("Connection: ");
    head.push_str(connection);
    head.push_str("\r\n\r\n");
    // One write for head + body: a split write would let Nagle hold the
    // second segment until the peer's (possibly delayed) ACK — a
    // ~40 ms stall per keep-alive response.
    let mut message = head.into_bytes();
    message.extend_from_slice(body);
    stream.write_all(&message)?;
    stream.flush()
}

/// A client response: status code, headers, and body.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Lower-cased response header names with their values.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of response header `name` (lower-case).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Parses the body as JSON.
    ///
    /// # Panics
    ///
    /// Panics when the body is not valid JSON — client helpers are for
    /// tests and the load generator, where that is a hard failure.
    pub fn json(&self) -> crate::json::Value {
        let text = std::str::from_utf8(&self.body).expect("response body is UTF-8");
        crate::json::parse(text).unwrap_or_else(|e| panic!("bad JSON response: {e}\n{text}"))
    }
}

/// Reads one response off the wire. Returns the response and whether
/// the server promised to keep the connection open. `read_to_eof`
/// controls the no-`Content-Length` fallback (one-shot connections can
/// frame by EOF; keep-alive connections cannot).
fn read_client_response(
    reader: &mut BufReader<TcpStream>,
    read_to_eof: bool,
) -> std::io::Result<(ClientResponse, bool)> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    if status_line.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection before a response",
        ));
    }
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("bad status line {status_line:?}")))?;
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok());
    let mut body = Vec::new();
    match content_length {
        Some(len) => {
            body.resize(len, 0);
            reader.read_exact(&mut body)?;
        }
        None if read_to_eof => {
            reader.read_to_end(&mut body)?;
        }
        None => {
            return Err(std::io::Error::other("keep-alive response lacks Content-Length"));
        }
    }
    let keep_alive = headers
        .iter()
        .find(|(k, _)| k == "connection")
        .is_some_and(|(_, v)| v.eq_ignore_ascii_case("keep-alive"));
    Ok((ClientResponse { status, headers, body }, keep_alive))
}

fn write_client_request(
    stream: &mut TcpStream,
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        body.len()
    );
    // Single write: see write_response_ext on Nagle + delayed ACK.
    let mut message = head.into_bytes();
    message.extend_from_slice(body);
    stream.write_all(&message)?;
    stream.flush()
}

/// Minimal blocking HTTP client: one request on a fresh connection
/// (`Connection: close`). Used by the integration tests,
/// `lmds-serve --smoke`, and the perfbench `serve-mixed` workload.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> std::io::Result<ClientResponse> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    write_client_request(&mut stream, addr, method, path, body, false)?;
    let mut reader = BufReader::new(stream);
    let (resp, _keep_alive) = read_client_response(&mut reader, true)?;
    Ok(resp)
}

/// Retry schedule for [`request_with_retry`]: how many attempts, how
/// the backoff between them grows, and the seed for the jitter draws.
///
/// The jitter is *seeded*, not wall-clock random: two clients built
/// with the same policy replay the same backoff schedule, so a flaky
/// test cannot hide behind retry timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_delay: Duration,
    /// Cap on any single sleep — exponential growth and advertised
    /// `Retry-After` values alike are clamped to this.
    pub max_delay: Duration,
    /// Seed for the jitter draws.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 6,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `retry` (0-based): capped
    /// exponential backoff plus up to +50% deterministic jitter, so
    /// simultaneous clients with different seeds fan out instead of
    /// stampeding in lockstep.
    fn backoff(&self, retry: u32) -> Duration {
        let exp = self.base_delay.saturating_mul(1u32 << retry.min(16)).min(self.max_delay);
        let draw = splitmix64(self.seed.wrapping_add(u64::from(retry)));
        exp.mul_f64(1.0 + (draw % 1024) as f64 / 2048.0).min(self.max_delay)
    }
}

/// SplitMix64 finalizer — the same mixer the fault plans use, copied
/// here so the serve crate keeps its dependency surface (std only).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether an I/O failure is worth retrying: the connection-level
/// failures a daemon that is still binding its socket (or shedding a
/// burst) produces. Anything else — timeouts included — is a real
/// error the caller should see.
fn retryable(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
    )
}

/// [`request`] with a retry loop around it: connection refused/reset/
/// aborted errors back off (capped exponential + seeded jitter) and
/// try again; a 503 response that advertises `Retry-After` sleeps the
/// advertised delay (clamped to [`RetryPolicy::max_delay`]) and tries
/// again; everything else — including a 503 *without* the header —
/// returns immediately. The daemon tests use this to deflake startup
/// races: the first probe can land before the listener is accepting.
///
/// # Errors
///
/// The last I/O error once the attempt budget is exhausted, or any
/// non-retryable error as soon as it occurs.
pub fn request_with_retry(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
    policy: RetryPolicy,
) -> std::io::Result<ClientResponse> {
    let attempts = policy.attempts.max(1);
    for attempt in 0..attempts {
        let exhausted = attempt + 1 >= attempts;
        match request(addr, method, path, body, timeout) {
            Ok(resp) if resp.status == 503 && !exhausted => {
                match resp.header("retry-after").and_then(|v| v.parse::<u64>().ok()) {
                    Some(secs) => {
                        std::thread::sleep(Duration::from_secs(secs).min(policy.max_delay));
                    }
                    None => return Ok(resp),
                }
            }
            Ok(resp) => return Ok(resp),
            Err(e) if retryable(&e) && !exhausted => std::thread::sleep(policy.backoff(attempt)),
            Err(e) => return Err(e),
        }
    }
    unreachable!("the loop returns on its final attempt")
}

/// A persistent HTTP/1.1 client: many requests on one socket. The
/// counterpart of the server's keep-alive loop, used by the reuse
/// tests, the smoke runner, and the soak loops.
pub struct KeepAliveClient {
    reader: BufReader<TcpStream>,
    addr: SocketAddr,
    open: bool,
    requests_sent: u64,
}

impl KeepAliveClient {
    /// Connects one socket to reuse across [`KeepAliveClient::send`]
    /// calls.
    ///
    /// # Errors
    ///
    /// Connect/configure failures.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(KeepAliveClient { reader: BufReader::new(stream), addr, open: true, requests_sent: 0 })
    }

    /// Whether the server has promised to serve another request on this
    /// socket (false after a `Connection: close` response).
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// Requests sent over this one socket so far.
    pub fn requests_sent(&self) -> u64 {
        self.requests_sent
    }

    /// Sends one request on the shared socket and reads its response.
    ///
    /// # Errors
    ///
    /// I/O failures, or calling it again after the server closed the
    /// connection.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<ClientResponse> {
        if !self.open {
            return Err(std::io::Error::other("server closed this keep-alive connection"));
        }
        let mut stream = self.reader.get_ref().try_clone()?;
        write_client_request(&mut stream, self.addr, method, path, body, true)?;
        self.requests_sent += 1;
        let (resp, keep_alive) = read_client_response(&mut self.reader, false)?;
        self.open = keep_alive;
        Ok(resp)
    }

    /// Sends a request the server is expected to *reject at the framing
    /// layer* with raw extra header lines (the smuggling-hygiene tests
    /// need duplicate `Content-Length` and `Transfer-Encoding` lines a
    /// well-formed client would never emit).
    ///
    /// # Errors
    ///
    /// I/O failures, or reuse after close.
    pub fn send_raw_head(
        &mut self,
        method: &str,
        path: &str,
        header_lines: &[&str],
        body: &[u8],
    ) -> std::io::Result<ClientResponse> {
        if !self.open {
            return Err(std::io::Error::other("server closed this keep-alive connection"));
        }
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nConnection: keep-alive\r\n",
            self.addr
        );
        for line in header_lines {
            head.push_str(line);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let mut stream = self.reader.get_ref().try_clone()?;
        let mut message = head.into_bytes();
        message.extend_from_slice(body);
        stream.write_all(&message)?;
        stream.flush()?;
        self.requests_sent += 1;
        let (resp, keep_alive) = read_client_response(&mut self.reader, false)?;
        self.open = keep_alive;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Serve exactly one connection with the given handler, on an
    /// ephemeral port.
    fn one_shot(handler: impl FnOnce(&mut BufReader<TcpStream>) + Send + 'static) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream);
            handler(&mut reader);
        });
        addr
    }

    #[test]
    fn parses_request_and_writes_response() {
        let addr = one_shot(|reader| {
            let req = read_request(reader).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/solve");
            assert_eq!(req.segments(), vec!["solve"]);
            assert!(req.header("host").is_some(), "client sends a Host header");
            assert_eq!(req.body, b"{\"k\":2}");
            assert!(!req.keep_alive, "the one-shot client asks for close");
            let mut stream = reader.get_ref().try_clone().unwrap();
            write_response(&mut stream, 200, "application/json", b"{\"ok\":true}", false).unwrap();
        });
        let resp =
            request(addr, "POST", "/solve?x=1", b"{\"k\":2}", Duration::from_secs(5)).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("connection"), Some("close"));
        assert_eq!(resp.json().get("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn query_strings_are_stripped_and_bad_requests_rejected() {
        let addr = one_shot(|reader| {
            let err = read_request(reader).unwrap_err();
            assert!(matches!(err, HttpError::Malformed(_)), "{err}");
            let mut stream = reader.get_ref().try_clone().unwrap();
            write_response(&mut stream, 400, "text/plain", b"no", false).unwrap();
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"BOGUS-LINE\r\n\r\n").unwrap();
        let mut out = String::new();
        let _ = BufReader::new(stream).read_line(&mut out);
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
    }

    #[test]
    fn oversized_content_length_is_rejected_before_reading_a_body_byte() {
        let addr = one_shot(|reader| {
            let err = read_request(reader).unwrap_err();
            assert!(matches!(err, HttpError::TooLarge("body")), "{err}");
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let huge = MAX_BODY_BYTES + 1;
        // Only the head is sent — the server must reject from the
        // declared length alone, without waiting for (or buffering) the
        // body.
        stream
            .write_all(format!("PUT /g HTTP/1.1\r\nContent-Length: {huge}\r\n\r\n").as_bytes())
            .unwrap();
        // Give the server thread a beat to observe the rejection.
        std::thread::sleep(Duration::from_millis(20));
    }

    #[test]
    fn smuggling_vectors_are_malformed() {
        // Duplicate Content-Length, even when the copies agree.
        let addr = one_shot(|reader| {
            let err = read_request(reader).unwrap_err();
            assert!(matches!(err, HttpError::Malformed(ref m) if m.contains("Content-Length")));
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /solve HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok")
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));

        // Any Transfer-Encoding header.
        let addr = one_shot(|reader| {
            let err = read_request(reader).unwrap_err();
            assert!(matches!(err, HttpError::Malformed(ref m) if m.contains("Transfer-Encoding")));
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /solve HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n")
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }

    #[test]
    fn keep_alive_defaults_follow_the_http_version() {
        let addr = one_shot(|reader| {
            let one_one = read_request(reader).unwrap();
            assert!(one_one.keep_alive, "HTTP/1.1 defaults to keep-alive");
            let one_oh = read_request(reader).unwrap();
            assert!(!one_oh.keep_alive, "HTTP/1.0 defaults to close");
            let explicit = read_request(reader).unwrap();
            assert!(explicit.keep_alive, "explicit keep-alive wins on HTTP/1.0");
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET /a HTTP/1.1\r\n\r\n").unwrap();
        stream.write_all(b"GET /b HTTP/1.0\r\n\r\n").unwrap();
        stream.write_all(b"GET /c HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }

    #[test]
    fn keep_alive_round_trips_two_requests_on_one_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream);
            for i in 0..2u8 {
                let req = read_request(&mut reader).unwrap();
                assert!(req.keep_alive);
                let mut stream = reader.get_ref().try_clone().unwrap();
                let body = format!("{{\"i\":{i}}}");
                write_response(&mut stream, 200, "application/json", body.as_bytes(), i == 0)
                    .unwrap();
            }
        });
        let mut client = KeepAliveClient::connect(addr, Duration::from_secs(5)).unwrap();
        let first = client.send("GET", "/x", b"").unwrap();
        assert_eq!(first.json().get("i").unwrap().as_u64(), Some(0));
        assert!(client.is_open(), "server kept the connection");
        let second = client.send("GET", "/y", b"").unwrap();
        assert_eq!(second.json().get("i").unwrap().as_u64(), Some(1));
        assert!(!client.is_open(), "server announced close on the last response");
        assert_eq!(client.requests_sent(), 2);
        assert!(client.send("GET", "/z", b"").is_err(), "reuse after close is refused");
    }

    #[test]
    fn retry_policy_backoff_is_deterministic_capped_and_monotone() {
        let policy = RetryPolicy {
            attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(200),
            seed: 42,
        };
        let schedule: Vec<Duration> = (0..6).map(|r| policy.backoff(r)).collect();
        // Same seed replays the same schedule (no wall-clock entropy).
        assert_eq!(schedule, (0..6).map(|r| policy.backoff(r)).collect::<Vec<_>>());
        for (r, d) in schedule.iter().enumerate() {
            assert!(*d >= Duration::from_millis(10), "retry {r}: {d:?}");
            assert!(*d <= Duration::from_millis(200), "retry {r} exceeds the cap: {d:?}");
        }
        // Exponential growth is visible before the cap bites.
        assert!(schedule[1] > schedule[0], "{schedule:?}");
        // A different seed jitters differently somewhere in the window.
        let other = RetryPolicy { seed: 43, ..policy };
        assert!((0..6).any(|r| other.backoff(r) != policy.backoff(r)));
    }

    #[test]
    fn retry_recovers_from_a_connection_refused_startup_race() {
        // Reserve a port, then *close* the listener: connects now fail
        // with ConnectionRefused, exactly like probing a daemon that
        // has not bound its socket yet.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let server = std::thread::spawn(move || {
            // The "daemon" comes up late.
            std::thread::sleep(Duration::from_millis(40));
            let listener = TcpListener::bind(addr).unwrap();
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream);
            let _ = read_request(&mut reader).unwrap();
            let mut stream = reader.get_ref().try_clone().unwrap();
            write_response(&mut stream, 200, "application/json", b"{\"up\":true}", false).unwrap();
        });
        let policy = RetryPolicy {
            attempts: 10,
            base_delay: Duration::from_millis(15),
            max_delay: Duration::from_millis(100),
            seed: 7,
        };
        let resp = request_with_retry(addr, "GET", "/health", b"", Duration::from_secs(5), policy)
            .expect("retries outlast the startup race");
        assert_eq!(resp.status, 200);
        server.join().unwrap();
    }

    #[test]
    fn retry_honors_retry_after_on_503_and_passes_other_statuses_through() {
        // First connection: a shedding 503 with Retry-After. Second:
        // the 200 the backoff earns.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for i in 0..2u8 {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream);
                let _ = read_request(&mut reader).unwrap();
                let mut stream = reader.get_ref().try_clone().unwrap();
                if i == 0 {
                    write_response_ext(
                        &mut stream,
                        503,
                        "application/json",
                        b"{}",
                        false,
                        &[("Retry-After", "1")],
                    )
                    .unwrap();
                } else {
                    write_response(&mut stream, 200, "application/json", b"{}", false).unwrap();
                }
            }
        });
        let policy = RetryPolicy {
            // Clamp the advertised 1 s to keep the test fast — the
            // clamp is part of the documented contract.
            max_delay: Duration::from_millis(50),
            ..RetryPolicy::default()
        };
        let resp = request_with_retry(addr, "GET", "/solve", b"", Duration::from_secs(5), policy)
            .expect("503 with Retry-After is retried");
        assert_eq!(resp.status, 200);

        // A 404 (or any non-503 status) is never retried: the
        // one-connection server below would hang a second attempt.
        let addr = one_shot(|reader| {
            let _ = read_request(reader).unwrap();
            let mut stream = reader.get_ref().try_clone().unwrap();
            write_response(&mut stream, 404, "application/json", b"{}", false).unwrap();
        });
        let resp =
            request_with_retry(addr, "GET", "/nope", b"", Duration::from_secs(5), policy).unwrap();
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn extra_headers_ride_the_response() {
        let addr = one_shot(|reader| {
            let _ = read_request(reader).unwrap();
            let mut stream = reader.get_ref().try_clone().unwrap();
            write_response_ext(
                &mut stream,
                503,
                "application/json",
                b"{}",
                false,
                &[("Retry-After", "1")],
            )
            .unwrap();
        });
        let resp = request(addr, "GET", "/", b"", Duration::from_secs(5)).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("1"));
    }
}
