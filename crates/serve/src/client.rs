//! A minimal blocking HTTP client for the serving API.
//!
//! Built on `std::net::TcpStream` only (the build is offline — no HTTP
//! crates), speaking persistent HTTP/1.1: every request asks for
//! `Connection: keep-alive`, and its reply is the status line, headers
//! and exactly `Content-Length` body bytes. One [`ServeClient`] may be
//! shared by many threads. It keeps a pool of idle connections, which
//! grows to one per concurrent caller: a request takes one (or opens
//! one) and puts it back after the reply, unless the reply said
//! `Connection: close`.
//!
//! The server may close a kept connection while it sits idle in the pool
//! (the daemon does so after an idle timeout, on shutdown, and when
//! another connection needs the worker). It closes one only before it
//! has read any byte of the next request, so a request that got no reply
//! byte at all on a *reused* connection is sent once more on a new one —
//! safe for `POST` too. A reply that breaks off after its first byte is
//! an error, never a resend.
//!
//! The typed helpers cover every `/v1` endpoint; the oracle's parity
//! check, the integration tests and servebench are built on this.

use crate::tenant::{GenOp, GenSpec};
use midas_graph::{io, BatchUpdate, LabeledGraph};
use midas_obs::json::{self as js, Value};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

/// One parsed HTTP reply.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
}

impl Reply {
    /// Parses the body as JSON, failing on non-2xx statuses.
    pub fn json(&self) -> Result<Value, String> {
        if !(200..300).contains(&self.status) {
            return Err(format!("HTTP {}: {}", self.status, self.body.trim()));
        }
        Value::parse(&self.body)
    }
}

/// A pattern snapshot as observed over HTTP.
#[derive(Debug, Clone)]
pub struct PatternsPayload {
    /// Publication epoch (0 = bootstrap).
    pub epoch: u64,
    /// Database size at publish time.
    pub db_len: u64,
    /// Publish wall-clock time, unix milliseconds.
    pub published_unix_ms: u64,
    /// Maintenance jobs queued behind this snapshot.
    pub pending_batches: u64,
    /// The canned pattern set.
    pub patterns: Vec<LabeledGraph>,
}

/// An epoch probe (no pattern payload).
#[derive(Debug, Clone, Copy)]
pub struct EpochPayload {
    /// Publication epoch.
    pub epoch: u64,
    /// Database size at publish time.
    pub db_len: u64,
    /// Maintenance jobs queued behind this snapshot.
    pub pending_batches: u64,
}

/// A blocking client bound to one daemon address, with a pool of idle
/// kept connections (see the module docs).
#[derive(Debug)]
pub struct ServeClient {
    addr: String,
    timeout: Duration,
    idle: Mutex<Vec<BufReader<TcpStream>>>,
}

impl Clone for ServeClient {
    /// A client for the same address, with connections of its own.
    fn clone(&self) -> ServeClient {
        ServeClient::new(self.addr.clone())
    }
}

/// Why an exchange failed.
enum Failure {
    /// Not one reply byte arrived: the server had closed the connection.
    Unanswered(String),
    /// The exchange broke off, or the reply was malformed.
    Broken(String),
}

impl ServeClient {
    /// A client for `addr` (`host:port`).
    pub fn new(addr: impl Into<String>) -> ServeClient {
        ServeClient {
            addr: addr.into(),
            timeout: Duration::from_secs(300),
            idle: Mutex::new(Vec::new()),
        }
    }

    /// Sends one request; `body` implies a JSON `Content-Type`.
    pub fn request(&self, method: &str, path: &str, body: Option<&str>) -> Result<Reply, String> {
        let body = body.unwrap_or("");
        // Head and body in one write: two small writes on a kept
        // connection can stall on Nagle's algorithm and a delayed ACK.
        let message = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nConnection: keep-alive\r\n{}Content-Length: {}\r\n\r\n{body}",
            self.addr,
            if body.is_empty() { "" } else { "Content-Type: application/json\r\n" },
            body.len()
        );
        let pooled = self.idle.lock().unwrap_or_else(|e| e.into_inner()).pop();
        if let Some(conn) = pooled {
            match self.exchange(conn, message.as_bytes()) {
                // Closed while idle: send once more on a new connection.
                Err(Failure::Unanswered(_)) => {}
                Err(Failure::Broken(e)) => return Err(e),
                Ok(reply) => return Ok(reply),
            }
        }
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(self.timeout))
            .map_err(|e| e.to_string())?;
        self.exchange(BufReader::new(stream), message.as_bytes())
            .map_err(|(Failure::Unanswered(e) | Failure::Broken(e))| e)
    }

    /// Writes one request on `conn` and reads its reply, then pools `conn`
    /// unless the reply said `Connection: close`.
    fn exchange(&self, mut conn: BufReader<TcpStream>, message: &[u8]) -> Result<Reply, Failure> {
        let unanswered =
            |e: &dyn std::fmt::Display| Failure::Unanswered(format!("{}: {e}", self.addr));
        conn.get_mut()
            .write_all(message)
            .map_err(|e| unanswered(&e))?;
        match conn.fill_buf() {
            Ok([]) => return Err(unanswered(&"connection closed before the reply")),
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
                ) =>
            {
                return Err(unanswered(&e))
            }
            // A timeout is no proof that the server never read the
            // request, so it is not a reason to resend.
            Err(e) => return Err(Failure::Broken(format!("{}: {e}", self.addr))),
        }
        let (reply, close) = read_reply(&mut conn).map_err(Failure::Broken)?;
        if !close {
            self.idle
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(conn);
        }
        Ok(reply)
    }

    /// `POST /v1/tenants` with a generated dataset.
    pub fn create_tenant(
        &self,
        name: &str,
        kind: &str,
        size: usize,
        seed: u64,
        config: &str,
    ) -> Result<Reply, String> {
        let body = format!(
            "{{\"name\": {}, \"dataset\": {{\"kind\": {}, \"size\": {size}, \"seed\": {seed}}}, \"config\": {}}}",
            js::quote(name),
            js::quote(kind),
            js::quote(config)
        );
        self.request("POST", "/v1/tenants", Some(&body))
    }

    /// `POST /v1/tenants` with explicit data graphs.
    pub fn create_tenant_with_graphs(
        &self,
        name: &str,
        graphs: &[LabeledGraph],
        config: &str,
    ) -> Result<Reply, String> {
        let body = format!(
            "{{\"name\": {}, \"graphs\": {}, \"config\": {}}}",
            js::quote(name),
            io::patterns_to_json(graphs).map_err(|e| e.to_string())?,
            js::quote(config)
        );
        self.request("POST", "/v1/tenants", Some(&body))
    }

    /// `GET /v1/{tenant}/patterns`, parsed.
    pub fn patterns(&self, tenant: &str) -> Result<PatternsPayload, String> {
        let doc = self
            .request("GET", &format!("/v1/{tenant}/patterns"), None)?
            .json()?;
        Ok(PatternsPayload {
            epoch: field_u64(&doc, "epoch")?,
            db_len: field_u64(&doc, "db_len")?,
            published_unix_ms: field_u64(&doc, "published_unix_ms")?,
            pending_batches: field_u64(&doc, "pending_batches")?,
            patterns: doc
                .get("patterns")
                .map(io::graphs_from_value)
                .ok_or("missing \"patterns\"")??,
        })
    }

    /// `GET /v1/{tenant}/epoch`, parsed.
    pub fn epoch(&self, tenant: &str) -> Result<EpochPayload, String> {
        let doc = self
            .request("GET", &format!("/v1/{tenant}/epoch"), None)?
            .json()?;
        Ok(EpochPayload {
            epoch: field_u64(&doc, "epoch")?,
            db_len: field_u64(&doc, "db_len")?,
            pending_batches: field_u64(&doc, "pending_batches")?,
        })
    }

    /// `POST /v1/{tenant}/updates` with an explicit batch.
    pub fn post_batch(
        &self,
        tenant: &str,
        batch: &BatchUpdate,
        sync: bool,
    ) -> Result<Reply, String> {
        let body = io::batch_to_json(batch).map_err(|e| e.to_string())?;
        self.request("POST", &updates_path(tenant, sync), Some(&body))
    }

    /// `POST /v1/{tenant}/updates` with a server-side generator spec. The
    /// body carries only the size field the op reads: `percent` for
    /// growth and deletion, `count` for novel.
    pub fn post_generate(&self, tenant: &str, spec: &GenSpec, sync: bool) -> Result<Reply, String> {
        let (op, size) = match spec.op {
            GenOp::Growth => (
                "growth",
                format!("\"percent\": {}", js::number(spec.percent)),
            ),
            GenOp::Deletion => (
                "deletion",
                format!("\"percent\": {}", js::number(spec.percent)),
            ),
            GenOp::Novel => ("novel", format!("\"count\": {}", spec.count)),
        };
        let motif = match spec.motif {
            Some(m) => format!(", \"motif\": {}", js::quote(m.name())),
            None => String::new(),
        };
        let body = format!(
            "{{\"generate\": {{\"op\": {}, {size}, \"seed\": {}{motif}}}}}",
            js::quote(op),
            spec.seed
        );
        self.request("POST", &updates_path(tenant, sync), Some(&body))
    }

    /// `POST /v1/{tenant}/querylog`; returns `(steps_live, steps_baseline)`.
    pub fn querylog(&self, tenant: &str, queries: &[LabeledGraph]) -> Result<(u64, u64), String> {
        let body = format!(
            "{{\"queries\": {}}}",
            io::patterns_to_json(queries).map_err(|e| e.to_string())?
        );
        let doc = self
            .request("POST", &format!("/v1/{tenant}/querylog"), Some(&body))?
            .json()?;
        Ok((
            field_u64(&doc, "steps_live")?,
            field_u64(&doc, "steps_baseline")?,
        ))
    }

    /// `GET /v1/{tenant}/queries` — sample a query workload.
    pub fn queries(
        &self,
        tenant: &str,
        n: usize,
        size_range: (usize, usize),
        seed: u64,
    ) -> Result<Vec<LabeledGraph>, String> {
        let path = format!(
            "/v1/{tenant}/queries?n={n}&min={}&max={}&seed={seed}",
            size_range.0, size_range.1
        );
        let doc = self.request("GET", &path, None)?.json()?;
        doc.get("queries")
            .map(io::graphs_from_value)
            .ok_or("missing \"queries\"")?
    }

    /// `GET /v1/tenants` — names of every ready tenant.
    pub fn list_tenants(&self) -> Result<Vec<String>, String> {
        let doc = self.request("GET", "/v1/tenants", None)?.json()?;
        doc.get("tenants")
            .and_then(Value::as_arr)
            .ok_or("missing \"tenants\"")?
            .iter()
            .map(|t| {
                t.get("tenant")
                    .and_then(Value::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| "tenant entry missing name".to_owned())
            })
            .collect()
    }

    /// `DELETE /v1/{tenant}`.
    pub fn delete_tenant(&self, tenant: &str) -> Result<Reply, String> {
        self.request("DELETE", &format!("/v1/{tenant}"), None)
    }
}

fn updates_path(tenant: &str, sync: bool) -> String {
    if sync {
        format!("/v1/{tenant}/updates?mode=sync")
    } else {
        format!("/v1/{tenant}/updates")
    }
}

fn field_u64(doc: &Value, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

/// Reads one reply: the status line, the headers, then exactly
/// `Content-Length` body bytes. Also returns whether the server closes
/// the connection after it.
fn read_reply(conn: &mut BufReader<TcpStream>) -> Result<(Reply, bool), String> {
    let mut status_line = String::new();
    conn.read_line(&mut status_line)
        .map_err(|e| format!("reading the reply: {e}"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let (mut length, mut close) = (None, false);
    loop {
        let mut line = String::new();
        match conn.read_line(&mut line) {
            Ok(0) => return Err("reply ended inside its headers".to_owned()),
            Ok(_) => {}
            Err(e) => return Err(format!("reading the reply headers: {e}")),
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(format!("malformed reply header {line:?}"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(
                value
                    .parse::<usize>()
                    .map_err(|_| format!("bad Content-Length {value:?}"))?,
            );
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let mut body = vec![0u8; length.ok_or("reply without Content-Length")?];
    conn.read_exact(&mut body)
        .map_err(|e| format!("reply body shorter than Content-Length: {e}"))?;
    let body = String::from_utf8(body)
        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
    Ok((Reply { status, body }, close))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{SocketAddr, TcpListener};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    const OK: &str = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";

    /// A test-local server for body-less requests. For the `i`-th request
    /// on its `n`-th connection it writes `answer(n, i).0`, then closes the
    /// connection if `answer(n, i).1`. Returns its address and a count of
    /// the connections it accepted.
    fn local_server(
        answer: fn(usize, usize) -> (&'static str, bool),
    ) -> (SocketAddr, Arc<AtomicUsize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accepted = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&accepted);
        std::thread::spawn(move || {
            for (n, stream) in listener.incoming().enumerate() {
                count.fetch_add(1, Ordering::SeqCst);
                let Ok(stream) = stream else { return };
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(&stream);
                    for i in 0.. {
                        let mut line = String::new();
                        while line != "\r\n" {
                            line.clear();
                            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                                return;
                            }
                        }
                        let (bytes, close) = answer(n, i);
                        if (&stream).write_all(bytes.as_bytes()).is_err() || close {
                            return;
                        }
                    }
                });
            }
        });
        (addr, accepted)
    }

    fn get_ok(client: &ServeClient) {
        let reply = client.request("GET", "/v1/t/patterns", None).unwrap();
        assert_eq!((reply.status, reply.body.as_str()), (200, "ok"));
    }

    #[test]
    fn sequential_requests_share_one_connection() {
        let (addr, accepted) = local_server(|_, _| (OK, false));
        let client = ServeClient::new(addr.to_string());
        for _ in 0..50 {
            get_ok(&client);
        }
        assert_eq!(accepted.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_close_reply_is_not_pooled() {
        let (addr, accepted) = local_server(|_, _| {
            (
                "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok",
                true,
            )
        });
        let client = ServeClient::new(addr.to_string());
        for _ in 0..3 {
            get_ok(&client);
        }
        assert_eq!(accepted.load(Ordering::SeqCst), 3);
    }

    /// The server answers one request per connection without saying
    /// `close`, then closes: each next request finds its pooled
    /// connection dead before any reply byte, and is sent once more on a
    /// new connection.
    #[test]
    fn a_stale_pooled_connection_is_retried() {
        let (addr, accepted) = local_server(|_, _| (OK, true));
        let client = ServeClient::new(addr.to_string());
        for _ in 0..3 {
            get_ok(&client);
        }
        assert_eq!(accepted.load(Ordering::SeqCst), 3);
    }

    /// A reply that breaks off after its first byte is an error: the
    /// server may have acted on the request, so it is not sent again.
    #[test]
    fn a_reply_that_breaks_off_is_an_error_not_a_resend() {
        let (addr, accepted) = local_server(|_, i| match i {
            0 => (OK, false),
            _ => ("HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc", true),
        });
        let client = ServeClient::new(addr.to_string());
        get_ok(&client);
        let err = client.request("GET", "/v1/t/patterns", None).unwrap_err();
        assert!(err.contains("shorter than Content-Length"), "{err}");
        assert_eq!(accepted.load(Ordering::SeqCst), 1);
        get_ok(&client);
        assert_eq!(accepted.load(Ordering::SeqCst), 2);
    }
}
