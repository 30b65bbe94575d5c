//! A minimal blocking HTTP client for the serving API.
//!
//! Built on `std::net::TcpStream` only (the build is offline — no HTTP
//! crates), speaking `Connection: close` HTTP/1.1: one TCP connection
//! per request, status line + headers + `Content-Length`-delimited body.
//! The typed helpers cover every `/v1` endpoint; the oracle's parity
//! check, the integration tests and servebench are built on this.

use crate::tenant::{GenOp, GenSpec};
use midas_datagen::MotifKind;
use midas_graph::{io, BatchUpdate, LabeledGraph};
use midas_obs::json::{self as js, Value};
use std::io::{Read, Write};
use std::net::TcpStream;
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

/// A blocking client bound to one daemon address.
#[derive(Debug, Clone)]
pub struct ServeClient {
    addr: String,
    timeout: Duration,
}

impl ServeClient {
    /// A client for `addr` (`host:port`).
    pub fn new(addr: impl Into<String>) -> ServeClient {
        ServeClient {
            addr: addr.into(),
            timeout: Duration::from_secs(300),
        }
    }

    /// Sends one request; `body` implies a JSON `Content-Type`.
    pub fn request(&self, method: &str, path: &str, body: Option<&str>) -> Result<Reply, String> {
        let mut stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream
            .set_read_timeout(Some(self.timeout))
            .map_err(|e| e.to_string())?;
        let body = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nConnection: close\r\n{}Content-Length: {}\r\n\r\n",
            self.addr,
            if body.is_empty() { "" } else { "Content-Type: application/json\r\n" },
            body.len()
        );
        stream
            .write_all(head.as_bytes())
            .map_err(|e| e.to_string())?;
        stream
            .write_all(body.as_bytes())
            .map_err(|e| e.to_string())?;
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).map_err(|e| e.to_string())?;
        parse_reply(&raw)
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
            Some(m) => format!(", \"motif\": {}", js::quote(motif_name(m))),
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

/// The wire name of a motif (inverse of the updates endpoint's parser).
pub fn motif_name(kind: MotifKind) -> &'static str {
    match kind {
        MotifKind::BenzeneRing => "benzene_ring",
        MotifKind::FiveRing => "five_ring",
        MotifKind::PyridineRing => "pyridine_ring",
        MotifKind::ThiopheneRing => "thiophene_ring",
        MotifKind::Carboxyl => "carboxyl",
        MotifKind::Amine => "amine",
        MotifKind::Amide => "amide",
        MotifKind::Hydroxyl => "hydroxyl",
        MotifKind::Thiol => "thiol",
        MotifKind::Phosphate => "phosphate",
        MotifKind::Chloride => "chloride",
        MotifKind::Fluoride => "fluoride",
        MotifKind::BoronicAcid => "boronic_acid",
        MotifKind::BoronicEster => "boronic_ester",
        MotifKind::Chain => "chain",
        MotifKind::Cyclopropane => "cyclopropane",
        MotifKind::FusedBicycle => "fused_bicycle",
    }
}

fn parse_reply(raw: &[u8]) -> Result<Reply, String> {
    let text = String::from_utf8_lossy(raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("no header/body separator in reply")?;
    let mut lines = head.lines();
    let status_line = lines.next().ok_or("empty reply")?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    // Connection: close — the body is everything after the separator, but
    // honor Content-Length if present (trailing bytes would be a bug).
    let body = match head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
                .map(str::to_owned)
        })
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(len) if len <= body.len() => body[..len].to_owned(),
        _ => body.to_owned(),
    };
    Ok(Reply { status, body })
}
