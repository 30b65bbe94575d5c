//! Reusable zero-dependency HTTP serving core.
//!
//! The pattern-serving daemon (`midas-serve`) needs a listener, bounded
//! accept queue, worker pool, request parsing and response formatting,
//! with request *bodies* (`POST /v1/{tenant}/updates`) and an
//! application-defined router (which mounts [`crate::http::route`] for
//! the observability endpoints). This module is that core:
//!
//! * [`HttpServer::start`] binds an address and spawns one accept thread
//!   plus a configurable worker pool; every parsed request is dispatched
//!   to a caller-supplied [`Handler`];
//! * [`Request`] carries method, normalized path, raw query string,
//!   lower-cased headers and the (possibly empty) body;
//! * [`Response`] is built by the handler and serialized as a complete
//!   `HTTP/1.1` message with `Content-Length` and a `Connection` header:
//!   `keep-alive` when the worker keeps the connection (see below),
//!   `close` otherwise.
//!
//! Protocol-level rejections happen *here*, before any handler runs, and
//! are explicit rather than silent-drop. Every one of them closes the
//! connection:
//!
//! | Condition                                     | Status |
//! |-----------------------------------------------|--------|
//! | malformed request line / header, EOF mid-head | 400    |
//! | `Content-Length` unparsable                   | 400    |
//! | request head over [`MAX_HEAD_BYTES`]          | 431    |
//! | declared body over [`MAX_BODY_BYTES`]         | 413    |
//! | handler panic                                 | 500    |
//! | accept queue full (sent by the accept thread) | 503, `Retry-After: 1` |
//!
//! Only a *clean* EOF — the peer connected and closed without sending a
//! single byte (health-checker port probes do this) — is dropped without
//! a response.
//!
//! ## Persistent connections
//!
//! Keep-alive is opt-in: a connection stays open only while each request
//! carries `Connection: keep-alive`. Every other request (curl's default,
//! a client that reads to EOF) is answered with `Connection: close` and
//! the connection closes, which RFC 7230 allows after any response that
//! says so. A worker serves a kept connection's requests in order over
//! one buffered reader, so the bytes of a pipelined next request are
//! never lost. It closes the connection after
//!
//! * a protocol error or a handler panic (the table above), because the
//!   rest of the request may be unread;
//! * a response written while the server stops or while another
//!   connection waits in the accept queue.
//!
//! Between requests the worker waits for the next request head in
//! read-timeout slices of `IDLE_SLICE` (100 ms), for at most [`IO_TIMEOUT`] in
//! all, and checks the stop flag and the accept queue after each slice.
//! So an idle kept connection delays a waiting connection by at most one
//! slice, and [`HttpServer::shutdown`] never waits on an idle client. A
//! worker closes an idle connection only before it has read any byte of
//! the next request, so a client may safely resend a request that got no
//! reply byte on a reused connection.
//!
//! The accept queue holds `QUEUE` (32) connections. A connection that finds
//! it full is answered `503` with `Retry-After: 1` by the accept thread
//! itself and closed, within one slice: overload gets an explicit answer,
//! and the accept thread spends at most a slice on any one client.
//!
//! With telemetry on, the counters `httpd.connections` (accepted),
//! `httpd.requests` (answered by a worker) and `httpd.rejected`
//! (queue-full 503s) count the traffic.
//!
//! ## Worker-pool locking discipline
//!
//! Workers share one `Mutex<Receiver<TcpStream>>`. The queue mutex must
//! be held **only** for the `recv` call and released before the
//! connection is handled: a guard that lives across `handle` would
//! serialize the whole pool to one effective worker (each worker would
//! sit on the mutex while its colleague reads, parses and answers — or
//! worse, blocks up to [`IO_TIMEOUT`] on a stalled client). The worker
//! loop below binds the guard, receives, and drops the guard in its own
//! scope before touching the stream; a regression test pins the behavior
//! with a deliberately stalled connection.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hard cap on the request head (request line + headers), bytes.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Hard cap on a declared request body, bytes.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Per-connection socket read/write timeout, and the longest a kept
/// connection may sit idle between requests.
pub const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Pending-connection queue bound. A connection that finds the queue
/// full is answered 503 at once: backpressure lands on clients, never on
/// maintenance, and never as an unbounded queue.
const QUEUE: usize = 32;

/// How long a worker waits on an idle kept connection before it checks
/// the stop flag and the accept queue again; also the accept thread's
/// budget for answering a queue-full 503 and closing the connection.
const IDLE_SLICE: Duration = Duration::from_millis(100);

/// The most a queue-full 503 reads off its client before closing.
const REJECT_DRAIN_BYTES: usize = 64 * 1024;

/// One parsed HTTP request, as seen by a [`Handler`].
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-case method token as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Normalized path: query/fragment stripped, trailing slashes
    /// removed, bare root kept as `/`.
    pub path: String,
    /// Raw query string (without the `?`), if any.
    pub query: Option<String>,
    /// Headers in order, names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, if it is valid UTF-8.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }

    /// Value of a `key=value` pair in the query string (no percent
    /// decoding — the APIs here only pass tokens and numbers).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.as_deref()?.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// One HTTP response, built by a [`Handler`] and serialized by the core.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body.
    pub body: String,
    /// Extra headers, each a complete `Name: value` line (no CRLF).
    pub extra_headers: Vec<String>,
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8".into(),
            body: body.into(),
            extra_headers: Vec::new(),
        }
    }

    /// An `application/json` response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json; charset=utf-8".into(),
            body: body.into(),
            extra_headers: Vec::new(),
        }
    }

    /// Adds one extra header line (e.g. `Allow: GET`).
    pub fn with_header(mut self, header: &str) -> Response {
        self.extra_headers.push(header.to_owned());
        self
    }

    /// The stock 404.
    pub fn not_found() -> Response {
        Response::text(404, "not found\n")
    }

    /// A 400 with a one-line explanation.
    pub fn bad_request(msg: &str) -> Response {
        Response::text(400, format!("bad request: {msg}\n"))
    }

    /// Serializes the complete `HTTP/1.1` message; `keep_alive` picks
    /// the `Connection` header.
    fn serialize(&self, keep_alive: bool) -> String {
        let status = reason(self.status);
        let extra: usize = self.extra_headers.iter().map(|h| h.len() + 2).sum();
        // 100 bytes hold the fixed text of the head with a 5-digit status,
        // a 20-digit length and `keep-alive`.
        let mut out = String::with_capacity(
            100 + status.len() + self.content_type.len() + extra + self.body.len(),
        );
        let _ = write!(
            out,
            "HTTP/1.1 {} {status}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" }
        );
        for h in &self.extra_headers {
            out.push_str(h);
            out.push_str("\r\n");
        }
        out.push_str("\r\n");
        out.push_str(&self.body);
        out
    }
}

/// Canonical reason phrase for the status codes this stack uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

/// Application router: maps a parsed request to a response. Shared by all
/// workers; must be `Send + Sync`. Panics are caught and answered 500.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// What the accept thread and the workers share.
#[derive(Default)]
struct Gate {
    stop: AtomicBool,
    /// Connections accepted but not yet taken by a worker.
    queued: AtomicUsize,
}

impl Gate {
    /// True once a kept connection should give its worker back: the
    /// server is stopping, or another connection waits for a worker.
    fn crowded(&self) -> bool {
        self.stop.load(Ordering::Acquire) || self.queued.load(Ordering::Acquire) > 0
    }
}

/// A running HTTP server: accept thread + worker pool. Dropping (or
/// [`HttpServer::shutdown`]) stops accepting and joins every thread.
pub struct HttpServer {
    addr: SocketAddr,
    gate: Arc<Gate>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer")
            .field("addr", &self.addr)
            .field("threads", &self.threads.len())
            .finish()
    }
}

impl HttpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving `handler`
    /// on a pool of `workers` threads named `{name}-worker-{i}`.
    pub fn start(
        addr: &str,
        name: &str,
        workers: usize,
        handler: Handler,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let gate = Arc::new(Gate::default());
        let workers = workers.max(1);
        let (tx, rx): (SyncSender<TcpStream>, Receiver<TcpStream>) = sync_channel(QUEUE);
        let rx = Arc::new(Mutex::new(rx));
        let mut threads = Vec::with_capacity(workers + 1);
        for i in 0..workers {
            let rx = Arc::clone(&rx);
            let handler = Arc::clone(&handler);
            let gate = Arc::clone(&gate);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("{name}-worker-{i}"))
                    .spawn(move || loop {
                        // The queue mutex guards only the `recv`: bind the
                        // guard, receive, and release it *before* touching
                        // the connection, or the pool degrades to one
                        // effective worker (see module docs).
                        let stream = {
                            let guard = match rx.lock() {
                                Ok(guard) => guard,
                                Err(_) => return,
                            };
                            let stream = guard.recv();
                            drop(guard);
                            stream
                        };
                        match stream {
                            Ok(stream) => {
                                gate.queued.fetch_sub(1, Ordering::AcqRel);
                                handle_connection(stream, &handler, &gate)
                            }
                            Err(_) => return, // sender gone: shutdown
                        }
                    })?,
            );
        }
        {
            let gate = Arc::clone(&gate);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("{name}-accept"))
                    .spawn(move || {
                        for stream in listener.incoming() {
                            if gate.stop.load(Ordering::Acquire) {
                                return; // drops tx → workers drain and exit
                            }
                            let Ok(stream) = stream else { continue };
                            crate::counter_add!("httpd.connections", 1);
                            // Counted before the send, so a worker's
                            // decrement never runs ahead of it.
                            gate.queued.fetch_add(1, Ordering::AcqRel);
                            if let Err(TrySendError::Full(stream)) = tx.try_send(stream) {
                                gate.queued.fetch_sub(1, Ordering::AcqRel);
                                reject(stream);
                            }
                        }
                    })?,
            );
        }
        Ok(HttpServer {
            addr: local,
            gate,
            threads,
        })
    }

    /// The bound address (real port even when started on `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the workers, and joins every thread.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        if self.gate.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// Answers a connection that found the accept queue full with 503 and
/// `Retry-After`, then closes it, all within one [`IDLE_SLICE`] so a
/// client that neither reads nor writes cannot block the accept thread.
///
/// Closing a socket with the client's request still unread makes the
/// kernel send a reset, which may destroy the 503 before the client reads
/// it. So after the answer the write side is half-closed and whatever the
/// client sends (at most [`REJECT_DRAIN_BYTES`]) is read off until it
/// closes too, or the slice runs out.
fn reject(stream: TcpStream) {
    crate::counter_add!("httpd.rejected", 1);
    let deadline = Instant::now() + IDLE_SLICE;
    let _ = stream.set_write_timeout(Some(IDLE_SLICE));
    let response =
        Response::text(503, "server busy: every worker is taken\n").with_header("Retry-After: 1");
    if (&stream)
        .write_all(response.serialize(false).as_bytes())
        .is_err()
        || stream.shutdown(Shutdown::Write).is_err()
    {
        return;
    }
    let mut buf = [0u8; 4096];
    let mut drained = 0;
    while drained < REJECT_DRAIN_BYTES {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match (&stream).read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => drained += n,
        }
    }
}

/// Canonicalizes a request target for routing: the query string (and any
/// fragment) is dropped and trailing slashes are stripped, so
/// `GET /metrics?job=x` and `GET /healthz/` hit their endpoints instead
/// of 404ing. The bare root stays `/`.
pub fn normalize_path(target: &str) -> &str {
    let path = target.split(['?', '#']).next().unwrap_or(target);
    let trimmed = path.trim_end_matches('/');
    if trimmed.is_empty() {
        "/"
    } else {
        trimmed
    }
}

/// Why a request could not be parsed into a [`Request`].
enum ReadError {
    /// Peer closed without sending a byte — drop silently, no response.
    CleanEof,
    /// Malformed request line/header, EOF mid-message, or unreadable
    /// socket → 400.
    Bad(&'static str),
    /// Request head exceeded [`MAX_HEAD_BYTES`] → 431.
    HeadTooLarge,
    /// Declared body exceeded [`MAX_BODY_BYTES`] → 413.
    BodyTooLarge,
}

impl ReadError {
    fn response(&self) -> Option<Response> {
        match self {
            ReadError::CleanEof => None,
            ReadError::Bad(msg) => Some(Response::bad_request(msg)),
            ReadError::HeadTooLarge => Some(Response::text(431, "request head too large\n")),
            ReadError::BodyTooLarge => Some(Response::text(413, "request body too large\n")),
        }
    }
}

/// Reads one line from the size-capped head reader, distinguishing EOF,
/// hitting the head cap, and transport errors.
fn read_head_line(
    limited: &mut std::io::Take<&mut BufReader<&TcpStream>>,
    line: &mut String,
) -> Result<bool, ReadError> {
    match limited.read_line(line) {
        Ok(0) => Ok(false),
        Ok(_) => {
            if !line.ends_with('\n') {
                // The reader stopped mid-line: either the head cap was
                // exhausted or the peer died. `limit() == 0` distinguishes.
                if limited.limit() == 0 {
                    return Err(ReadError::HeadTooLarge);
                }
                return Err(ReadError::Bad("truncated line"));
            }
            Ok(true)
        }
        Err(_) => Err(ReadError::Bad("unreadable socket")),
    }
}

/// Parses one request off the wire: request line, headers, then exactly
/// `Content-Length` body bytes (absent length = empty body).
fn read_request(reader: &mut BufReader<&TcpStream>) -> Result<Request, ReadError> {
    let mut request_line = String::new();
    let mut headers = Vec::new();
    {
        // Cap the head; `+ 1` so hitting exactly the cap is detectable as
        // a truncated (newline-less) line instead of a silent short read.
        let mut limited = reader.take(MAX_HEAD_BYTES as u64 + 1);
        if !read_head_line(&mut limited, &mut request_line)? {
            return Err(ReadError::CleanEof);
        }
        loop {
            let mut line = String::new();
            if !read_head_line(&mut limited, &mut line)? {
                return Err(ReadError::Bad("eof before end of headers"));
            }
            if line == "\r\n" || line == "\n" {
                break;
            }
            match line.trim_end().split_once(':') {
                Some((k, v)) => headers.push((k.trim().to_ascii_lowercase(), v.trim().to_owned())),
                None => return Err(ReadError::Bad("malformed header line")),
            }
        }
    }

    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(ReadError::Bad("malformed request line")),
    };
    if !target.starts_with('/') || !version.starts_with("HTTP/") {
        return Err(ReadError::Bad("malformed request line"));
    }

    let content_length = match headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse::<usize>())
    {
        Some(Ok(n)) => n,
        Some(Err(_)) => return Err(ReadError::Bad("unparsable content-length")),
        None => 0,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(ReadError::BodyTooLarge);
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 && reader.read_exact(&mut body).is_err() {
        return Err(ReadError::Bad("body shorter than content-length"));
    }

    let raw_path = target.split(['?', '#']).next().unwrap_or(target);
    let query = target
        .split_once('?')
        .map(|(_, rest)| rest.split('#').next().unwrap_or(rest).to_owned())
        .filter(|q| !q.is_empty());
    Ok(Request {
        method: method.to_owned(),
        path: normalize_path(raw_path).to_owned(),
        query,
        headers,
        body,
    })
}

/// True when the request asks to keep its connection open.
fn wants_keep_alive(request: &Request) -> bool {
    request.header("connection").is_some_and(|v| {
        v.split(',')
            .any(|token| token.trim().eq_ignore_ascii_case("keep-alive"))
    })
}

/// Reads, routes and answers the requests of one connection: one, or —
/// while each asks for keep-alive and no one else needs the worker — a
/// sequence of them over one reader (see the module docs). Transport
/// errors on the response write close the connection; the client
/// retries, the daemon does not care.
fn handle_connection(stream: TcpStream, handler: &Handler, gate: &Gate) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    // A kept connection must not leave the tail of a response to wait on
    // the client's delayed ACK.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(&stream);
    loop {
        let (response, keep_alive) = match read_request(&mut reader) {
            Ok(request) => {
                // A panicking handler answers 500 instead of silently
                // shrinking the worker pool.
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler(&request))) {
                    Ok(response) => (response, wants_keep_alive(&request)),
                    Err(_) => (Response::text(500, "internal error\n"), false),
                }
            }
            Err(e) => match e.response() {
                Some(r) => (r, false),
                None => return,
            },
        };
        let keep_alive = keep_alive && !gate.crowded();
        let written = (&stream).write_all(response.serialize(keep_alive).as_bytes());
        crate::counter_add!("httpd.requests", 1);
        if written.is_err() || !keep_alive || !await_next_request(&mut reader, gate) {
            return;
        }
    }
}

/// Waits for the first byte of a kept connection's next request in
/// [`IDLE_SLICE`] read-timeout slices, for at most [`IO_TIMEOUT`].
/// Returns false — close the connection — on EOF, on a transport error,
/// after the timeout, or once the server stops or another connection
/// waits in the accept queue. It never consumes a byte, so a connection
/// it gives up on was closed before any byte of a next request was read.
fn await_next_request(reader: &mut BufReader<&TcpStream>, gate: &Gate) -> bool {
    if !reader.buffer().is_empty() {
        return true; // pipelined
    }
    let stream = *reader.get_ref();
    let _ = stream.set_read_timeout(Some(IDLE_SLICE));
    let idle_since = Instant::now();
    let ready = loop {
        match reader.fill_buf() {
            Ok(buf) => break !buf.is_empty(),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if gate.crowded() || idle_since.elapsed() >= IO_TIMEOUT {
                    break false;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break false,
        }
    };
    if ready {
        let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    }
    ready
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Instant;

    #[test]
    fn serialize_writes_the_head_then_the_body() {
        let response = Response::json(201, "{}\n").with_header("Allow: GET");
        assert_eq!(
            response.serialize(true),
            "HTTP/1.1 201 Created\r\nContent-Type: application/json; charset=utf-8\r\n\
             Content-Length: 3\r\nConnection: keep-alive\r\nAllow: GET\r\n\r\n{}\n"
        );
        assert_eq!(
            Response::text(404, "").serialize(false),
            "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain; charset=utf-8\r\n\
             Content-Length: 0\r\nConnection: close\r\n\r\n"
        );
    }

    #[test]
    fn header_lookup_ignores_the_case_of_the_name() {
        let request = Request {
            method: "GET".into(),
            path: "/".into(),
            query: None,
            headers: vec![("connection".into(), "Keep-Alive".into())],
            body: Vec::new(),
        };
        assert_eq!(request.header("Connection"), Some("Keep-Alive"));
        assert_eq!(request.header("connection"), Some("Keep-Alive"));
        assert_eq!(request.header("content-length"), None);
        assert!(wants_keep_alive(&request));
    }

    fn echo_server(workers: usize) -> HttpServer {
        let handler: Handler = Arc::new(|req: &Request| match req.path.as_str() {
            "/ping" => Response::text(200, "pong\n"),
            "/echo" => Response::text(200, req.body_str().unwrap_or("").to_owned()),
            "/panic" => panic!("handler exploded"),
            "/slow" => {
                std::thread::sleep(Duration::from_millis(300));
                Response::text(200, "slept\n")
            }
            _ => Response::not_found(),
        });
        HttpServer::start("127.0.0.1:0", "test-httpd", workers, handler).expect("bind")
    }

    /// Sends `raw` on a fresh connection and returns the whole response.
    pub(crate) fn roundtrip(addr: SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read response");
        out
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        roundtrip(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
    }

    fn keep_alive_get(path: &str) -> String {
        format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n")
    }

    /// Reads one `Content-Length`-delimited response off a kept
    /// connection: `(head, body)`.
    fn read_response(reader: &mut BufReader<TcpStream>) -> (String, String) {
        let mut head = String::new();
        loop {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).unwrap() > 0, "EOF in {head:?}");
            if line == "\r\n" {
                break;
            }
            head.push_str(&line);
        }
        let length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("Content-Length")
            .parse()
            .unwrap();
        let mut body = vec![0; length];
        reader.read_exact(&mut body).unwrap();
        (head, String::from_utf8(body).unwrap())
    }

    /// A connection that has sent one keep-alive request and read its
    /// answer, now idle.
    fn idle_kept_connection(addr: SocketAddr) -> BufReader<TcpStream> {
        let mut conn = BufReader::new(TcpStream::connect(addr).expect("connect"));
        conn.get_mut()
            .write_all(keep_alive_get("/ping").as_bytes())
            .unwrap();
        let (head, body) = read_response(&mut conn);
        assert!(head.contains("Connection: keep-alive"), "{head}");
        assert_eq!(body, "pong\n");
        conn
    }

    /// True once the peer has closed the connection: EOF (or a reset)
    /// with nothing left to read.
    fn closed(conn: &mut BufReader<TcpStream>) -> bool {
        let mut rest = Vec::new();
        match conn.read_to_end(&mut rest) {
            Ok(_) => rest.is_empty(),
            Err(e) => e.kind() == ErrorKind::ConnectionReset,
        }
    }

    #[test]
    fn serves_get_and_404() {
        let server = echo_server(2);
        let addr = server.addr();
        assert!(get(addr, "/ping").contains("pong"));
        assert!(get(addr, "/nope").starts_with("HTTP/1.1 404"));
        server.shutdown();
    }

    /// Without `Connection: keep-alive` the response says `close` and the
    /// server closes (`roundtrip` reads to EOF).
    #[test]
    fn requests_without_keep_alive_are_closed() {
        let server = echo_server(2);
        for raw in [
            "GET /ping HTTP/1.1\r\nHost: t\r\n\r\n",
            "GET /ping HTTP/1.1\r\nConnection: close\r\n\r\n",
            "GET /ping HTTP/1.0\r\n\r\n",
        ] {
            let out = roundtrip(server.addr(), raw);
            assert!(out.contains("Connection: close\r\n"), "{raw:?} -> {out}");
            assert!(out.ends_with("pong\n"), "{raw:?} -> {out}");
        }
        server.shutdown();
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let server = echo_server(1);
        let mut conn = idle_kept_connection(server.addr());
        for i in 0..20 {
            let body = format!("request {i}");
            let raw = format!(
                "POST /echo HTTP/1.1\r\nConnection: Keep-Alive\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            conn.get_mut().write_all(raw.as_bytes()).unwrap();
            let (head, echoed) = read_response(&mut conn);
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            assert!(head.contains("Connection: keep-alive"), "{head}");
            assert_eq!(echoed, body);
        }
        // A last request without keep-alive ends the connection.
        conn.get_mut()
            .write_all(b"GET /ping HTTP/1.1\r\n\r\n")
            .unwrap();
        let (head, _) = read_response(&mut conn);
        assert!(head.contains("Connection: close"), "{head}");
        assert!(closed(&mut conn));
        server.shutdown();
    }

    /// Two requests written in one packet are both answered, in order:
    /// the worker's one reader keeps the second request's bytes.
    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let server = echo_server(1);
        let mut conn = BufReader::new(TcpStream::connect(server.addr()).unwrap());
        let raw = format!(
            "POST /echo HTTP/1.1\r\nConnection: keep-alive\r\nContent-Length: 5\r\n\r\nfirst{}",
            keep_alive_get("/ping")
        );
        conn.get_mut().write_all(raw.as_bytes()).unwrap();
        assert_eq!(read_response(&mut conn).1, "first");
        assert_eq!(read_response(&mut conn).1, "pong\n");
        server.shutdown();
    }

    /// A protocol error or a handler panic on a keep-alive request
    /// answers `Connection: close` and closes.
    #[test]
    fn errors_close_a_kept_connection() {
        let server = echo_server(2);
        let huge = "x".repeat(MAX_HEAD_BYTES + 100);
        for (raw, status) in [
            (
                "GET ping HTTP/1.1\r\nConnection: keep-alive\r\n\r\n".to_owned(),
                400,
            ),
            (
                format!(
                    "POST /echo HTTP/1.1\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n",
                    MAX_BODY_BYTES + 1
                ),
                413,
            ),
            (
                format!("GET /ping HTTP/1.1\r\nConnection: keep-alive\r\nX-Huge: {huge}\r\n\r\n"),
                431,
            ),
            (keep_alive_get("/panic"), 500),
        ] {
            let mut conn = BufReader::new(TcpStream::connect(server.addr()).unwrap());
            conn.get_mut().write_all(raw.as_bytes()).unwrap();
            let (head, _) = read_response(&mut conn);
            assert!(head.starts_with(&format!("HTTP/1.1 {status}")), "{head}");
            assert!(head.contains("Connection: close"), "{status}: {head}");
            assert!(closed(&mut conn), "{status}: the connection stayed open");
        }
        assert!(get(server.addr(), "/ping").contains("pong"));
        server.shutdown();
    }

    #[test]
    fn post_body_roundtrips() {
        let server = echo_server(2);
        let body = "{\"hello\": [1, 2, 3]}";
        let raw = format!(
            "POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let out = roundtrip(server.addr(), &raw);
        assert!(out.starts_with("HTTP/1.1 200"), "{out}");
        assert!(out.ends_with(body), "{out}");
        server.shutdown();
    }

    #[test]
    fn post_without_length_gets_empty_body() {
        let server = echo_server(2);
        let out = roundtrip(server.addr(), "POST /echo HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 200"), "{out}");
        assert!(out.contains("Content-Length: 0"), "{out}");
        server.shutdown();
    }

    #[test]
    fn malformed_request_line_is_400() {
        let server = echo_server(2);
        for raw in [
            "NOT_EVEN_HTTP\r\n\r\n",
            "GET /ping\r\n\r\n",
            "GET ping HTTP/1.1\r\n\r\n",
            "GET /ping HTTP/1.1 extra\r\n\r\n",
        ] {
            let out = roundtrip(server.addr(), raw);
            assert!(out.starts_with("HTTP/1.1 400"), "{raw:?} -> {out}");
        }
        server.shutdown();
    }

    #[test]
    fn malformed_header_is_400() {
        let server = echo_server(2);
        let out = roundtrip(
            server.addr(),
            "GET /ping HTTP/1.1\r\nthis line has no colon\r\n\r\n",
        );
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        server.shutdown();
    }

    #[test]
    fn oversized_head_is_431() {
        // Regression: the old header-drain loop silently dropped oversized
        // heads (and treated EOF like any other line); now it answers.
        let server = echo_server(2);
        let huge = "x".repeat(MAX_HEAD_BYTES + 100);
        let raw = format!("GET /ping HTTP/1.1\r\nX-Huge: {huge}\r\n\r\n");
        let out = roundtrip(server.addr(), &raw);
        assert!(out.starts_with("HTTP/1.1 431"), "{out}");
        server.shutdown();
    }

    #[test]
    fn oversized_declared_body_is_413() {
        let server = echo_server(2);
        let raw = format!(
            "POST /echo HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let out = roundtrip(server.addr(), &raw);
        assert!(out.starts_with("HTTP/1.1 413"), "{out}");
        server.shutdown();
    }

    #[test]
    fn unparsable_content_length_is_400() {
        let server = echo_server(2);
        let out = roundtrip(
            server.addr(),
            "POST /echo HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
        );
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        server.shutdown();
    }

    /// A body that ends before its declared length, because the client
    /// half-closed, is answered 400 rather than handed to the handler.
    #[test]
    fn body_shorter_than_content_length_is_400() {
        let server = echo_server(2);
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let raw = format!(
            "POST /echo HTTP/1.1\r\nContent-Length: 100\r\n\r\n{}",
            "x".repeat(10)
        );
        stream.write_all(raw.as_bytes()).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read response");
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        assert!(out.contains("body shorter than content-length"), "{out}");
        server.shutdown();
    }

    /// A client that drops its socket mid-body frees the only worker: a
    /// fresh request behind it is answered well within `IO_TIMEOUT`.
    #[test]
    fn client_dropping_mid_body_does_not_hold_the_worker() {
        let server = echo_server(1);
        let addr = server.addr();
        {
            let mut dropped = TcpStream::connect(addr).expect("connect");
            let raw = format!(
                "POST /echo HTTP/1.1\r\nContent-Length: 100\r\n\r\n{}",
                "x".repeat(10)
            );
            dropped.write_all(raw.as_bytes()).unwrap();
            std::thread::sleep(Duration::from_millis(100)); // the worker reads the body
        }
        let begin = Instant::now();
        let out = get(addr, "/ping");
        let waited = begin.elapsed();
        assert!(out.contains("pong"), "{out}");
        assert!(
            waited < IO_TIMEOUT,
            "a fresh request waited {waited:?} behind a dropped mid-body client"
        );
        server.shutdown();
    }

    #[test]
    fn clean_eof_is_dropped_and_server_survives() {
        let server = echo_server(2);
        let addr = server.addr();
        {
            // Connect-and-close, the canonical port-liveness probe.
            let _probe = TcpStream::connect(addr).expect("connect");
        }
        assert!(get(addr, "/ping").contains("pong"), "server still serves");
        server.shutdown();
    }

    #[test]
    fn handler_panic_answers_500_and_pool_survives() {
        let server = echo_server(1);
        let addr = server.addr();
        let out = get(addr, "/panic");
        assert!(out.starts_with("HTTP/1.1 500"), "{out}");
        // The single worker survived the panic.
        assert!(get(addr, "/ping").contains("pong"));
        server.shutdown();
    }

    /// Regression test for the worker-pool serialization hazard: a client
    /// that stalls mid-head parks one worker inside `read_request` for up
    /// to `IO_TIMEOUT` (5 s). If the queue guard were held across
    /// handling, the whole pool would serialize behind that stall and a
    /// well-behaved second request could not be answered until the
    /// timeout. With the fix, the second worker picks it up immediately.
    #[test]
    fn stalled_connection_does_not_serialize_the_pool() {
        let server = echo_server(2);
        let addr = server.addr();
        // Deliberately slow connection: send half a request line, stall.
        let mut stalled = TcpStream::connect(addr).expect("connect");
        stalled.write_all(b"GET /pi").unwrap();
        std::thread::sleep(Duration::from_millis(100)); // let a worker pick it up
        let begin = Instant::now();
        let out = get(addr, "/ping");
        let waited = begin.elapsed();
        assert!(out.contains("pong"), "{out}");
        assert!(
            waited < Duration::from_secs(3),
            "second request waited {waited:?} — pool serialized behind the stalled client"
        );
        drop(stalled);
        server.shutdown();
    }

    /// The keep-alive form of the stalled-connection hazard: two clients
    /// each send one keep-alive request and sit idle, pinning both
    /// workers of the pool. A third, plain client is still answered
    /// within a slice or so, because an idle worker gives its connection
    /// up as soon as another connection waits in the accept queue.
    #[test]
    fn idle_keep_alive_clients_do_not_starve_the_pool() {
        let server = echo_server(2);
        let addr = server.addr();
        let mut idle: Vec<_> = (0..2).map(|_| idle_kept_connection(addr)).collect();
        let begin = Instant::now();
        let out = get(addr, "/ping");
        let waited = begin.elapsed();
        assert!(out.contains("pong"), "{out}");
        assert!(
            waited < Duration::from_secs(1),
            "a plain request waited {waited:?} behind idle kept connections"
        );
        // At least one idle connection was closed to make room.
        assert!(idle.iter_mut().any(closed));
        server.shutdown();
    }

    #[test]
    fn shutdown_does_not_wait_on_idle_kept_connections() {
        let server = echo_server(2);
        let _idle: Vec<_> = (0..2)
            .map(|_| idle_kept_connection(server.addr()))
            .collect();
        let begin = Instant::now();
        server.shutdown();
        assert!(
            begin.elapsed() < Duration::from_secs(1),
            "shutdown took {:?}",
            begin.elapsed()
        );
    }

    /// A full accept queue answers 503 with `Retry-After` from the accept
    /// thread, at once; the server serves normally again once the worker
    /// is free.
    #[test]
    fn a_full_accept_queue_answers_503() {
        let server = echo_server(1);
        let addr = server.addr();
        let mut stalled = TcpStream::connect(addr).expect("connect");
        stalled.write_all(b"GET /pi").unwrap();
        std::thread::sleep(Duration::from_millis(100)); // the worker takes it
        let begin = Instant::now();
        let mut waiting: Vec<TcpStream> = (0..QUEUE + 2)
            .map(|_| TcpStream::connect(addr).expect("connect"))
            .collect();
        let mut last = waiting.pop().unwrap();
        let mut out = String::new();
        last.read_to_string(&mut out).expect("read the 503");
        assert!(out.starts_with("HTTP/1.1 503"), "{out}");
        assert!(out.contains("Retry-After: 1\r\n"), "{out}");
        assert!(
            begin.elapsed() < Duration::from_secs(1),
            "the 503 took {:?}",
            begin.elapsed()
        );
        drop(stalled);
        drop(waiting);
        let begin = Instant::now();
        loop {
            let mut conn = TcpStream::connect(addr).expect("connect");
            conn.write_all(b"GET /ping HTTP/1.1\r\n\r\n").unwrap();
            let mut out = String::new();
            conn.read_to_string(&mut out).expect("read the answer");
            if out.contains("pong") {
                break;
            }
            assert!(out.starts_with("HTTP/1.1 503"), "{out}");
            assert!(
                begin.elapsed() < Duration::from_secs(2),
                "the server never recovered"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown();
    }

    /// A client that sent a whole request before its connection was
    /// refused reads the full 503 and a clean close, not a reset.
    #[test]
    fn a_refused_request_reads_the_whole_503() {
        let server = echo_server(1);
        let addr = server.addr();
        let mut stalled = TcpStream::connect(addr).expect("connect");
        stalled.write_all(b"GET /pi").unwrap();
        std::thread::sleep(Duration::from_millis(100)); // the worker takes it
        let queued: Vec<TcpStream> = (0..QUEUE)
            .map(|_| TcpStream::connect(addr).expect("connect"))
            .collect();
        let mut refused = TcpStream::connect(addr).expect("connect");
        refused
            .write_all(b"POST /echo HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap();
        let mut out = String::new();
        refused
            .read_to_string(&mut out)
            .expect("the 503 and a clean close");
        assert!(out.starts_with("HTTP/1.1 503"), "{out}");
        assert!(
            out.ends_with("server busy: every worker is taken\n"),
            "{out}"
        );
        drop(queued);
        drop(stalled);
        server.shutdown();
    }

    /// Two concurrent slow *handlers* run in parallel on a 2-worker pool:
    /// both /slow requests (300 ms handler sleep each) finish well under
    /// the 600 ms a serialized pool would need.
    #[test]
    fn slow_handlers_run_concurrently() {
        let server = echo_server(2);
        let addr = server.addr();
        let begin = Instant::now();
        let (tx, rx) = mpsc::channel();
        for _ in 0..2 {
            let tx = tx.clone();
            std::thread::spawn(move || {
                let out = get(addr, "/slow");
                tx.send(out.contains("slept")).unwrap();
            });
        }
        assert!(rx.recv_timeout(Duration::from_secs(5)).unwrap());
        assert!(rx.recv_timeout(Duration::from_secs(5)).unwrap());
        let waited = begin.elapsed();
        assert!(
            waited < Duration::from_millis(550),
            "two 300 ms handlers took {waited:?} on a 2-worker pool"
        );
        server.shutdown();
    }

    #[test]
    fn query_strings_parse_into_params() {
        let handler: Handler = Arc::new(|req: &Request| {
            Response::text(
                200,
                format!(
                    "mode={} n={}\n",
                    req.query_param("mode").unwrap_or("-"),
                    req.query_param("n").unwrap_or("-")
                ),
            )
        });
        let server = HttpServer::start("127.0.0.1:0", "test-q", 1, handler).expect("bind");
        let out = get(server.addr(), "/x?mode=sync&n=12");
        assert!(out.contains("mode=sync n=12"), "{out}");
        let out = get(server.addr(), "/x");
        assert!(out.contains("mode=- n=-"), "{out}");
        server.shutdown();
    }

    #[test]
    fn normalize_path_canonicalizes_targets() {
        assert_eq!(normalize_path("/metrics"), "/metrics");
        assert_eq!(normalize_path("/metrics///"), "/metrics");
        assert_eq!(normalize_path("/metrics?job=x"), "/metrics");
        assert_eq!(normalize_path("/metrics#frag"), "/metrics");
        assert_eq!(normalize_path("/"), "/");
        assert_eq!(normalize_path("/?q"), "/");
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let server = echo_server(2);
        let addr = server.addr();
        drop(server); // Drop path joins threads
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }
}
