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
//!   `HTTP/1.1` message with `Content-Length` and `Connection: close`.
//!
//! Protocol-level rejections happen *here*, before any handler runs, and
//! are explicit rather than silent-drop:
//!
//! | Condition                                     | Status |
//! |-----------------------------------------------|--------|
//! | malformed request line / header, EOF mid-head | 400    |
//! | `Content-Length` unparsable                   | 400    |
//! | request head over [`MAX_HEAD_BYTES`]          | 431    |
//! | declared body over [`MAX_BODY_BYTES`]         | 413    |
//! | handler panic                                 | 500    |
//!
//! Only a *clean* EOF — the peer connected and closed without sending a
//! single byte (health-checker port probes do this) — is dropped without
//! a response.
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

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Hard cap on the request head (request line + headers), bytes.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Hard cap on a declared request body, bytes.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Per-connection socket read/write timeout.
pub const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Pending-connection queue bound (beyond it, accepts block briefly —
/// backpressure lands on clients, never on maintenance).
const QUEUE: usize = 32;

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
        let want = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == want)
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

    /// Serializes the complete `HTTP/1.1` message.
    fn serialize(&self) -> String {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        );
        for h in &self.extra_headers {
            head.push_str(h);
            head.push_str("\r\n");
        }
        format!("{head}\r\n{}", self.body)
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
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

/// Application router: maps a parsed request to a response. Shared by all
/// workers; must be `Send + Sync`. Panics are caught and answered 500.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// A running HTTP server: accept thread + worker pool. Dropping (or
/// [`HttpServer::shutdown`]) stops accepting and joins every thread.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
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
        let stop = Arc::new(AtomicBool::new(false));
        let workers = workers.max(1);
        let (tx, rx): (SyncSender<TcpStream>, Receiver<TcpStream>) = sync_channel(QUEUE);
        let rx = Arc::new(Mutex::new(rx));
        let mut threads = Vec::with_capacity(workers + 1);
        for i in 0..workers {
            let rx = Arc::clone(&rx);
            let handler = Arc::clone(&handler);
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
                            Ok(stream) => handle_connection(stream, &handler),
                            Err(_) => return, // sender gone: shutdown
                        }
                    })?,
            );
        }
        {
            let stop = Arc::clone(&stop);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("{name}-accept"))
                    .spawn(move || {
                        for stream in listener.incoming() {
                            if stop.load(Ordering::Acquire) {
                                return; // drops tx → workers drain and exit
                            }
                            if let Ok(stream) = stream {
                                // A full queue applies backpressure to the
                                // client, never to the maintenance loop.
                                let _ = tx.send(stream);
                            }
                        }
                    })?,
            );
        }
        Ok(HttpServer {
            addr: local,
            stop,
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
        if self.stop.swap(true, Ordering::AcqRel) {
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

/// Reads, routes and answers one connection. Transport errors on the
/// response write are ignored — the client retries, the daemon does not
/// care.
fn handle_connection(stream: TcpStream, handler: &Handler) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut reader = BufReader::new(&stream);
    let response = match read_request(&mut reader) {
        Ok(request) => {
            // A panicking handler answers 500 instead of silently
            // shrinking the worker pool.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler(&request)))
                .unwrap_or_else(|_| Response::text(500, "internal error\n"))
        }
        Err(e) => match e.response() {
            Some(r) => r,
            None => return,
        },
    };
    let _ = (&stream).write_all(response.serialize().as_bytes());
    let _ = (&stream).flush();
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Instant;

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

    #[test]
    fn serves_get_and_404() {
        let server = echo_server(2);
        let addr = server.addr();
        assert!(get(addr, "/ping").contains("pong"));
        assert!(get(addr, "/nope").starts_with("HTTP/1.1 404"));
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
