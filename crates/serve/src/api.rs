//! The `/v1` HTTP API: routing and handlers.
//!
//! | Method | Path                      | Effect                                              |
//! |--------|---------------------------|-----------------------------------------------------|
//! | GET    | `/healthz`                | Liveness, tenant and degraded counts, drift, last batch |
//! | GET    | `/v1/tenants`             | List tenants with epochs, sizes, `degraded` flags   |
//! | POST   | `/v1/tenants`             | Create a tenant (dataset spec or explicit graphs)   |
//! | GET    | `/v1/{t}/patterns`        | Current pattern snapshot (lock-free read)           |
//! | GET    | `/v1/{t}/epoch`           | Epoch/staleness probe, `degraded` (no patterns)     |
//! | GET    | `/v1/{t}/queries`         | Sample a query workload from the tenant's database  |
//! | POST   | `/v1/{t}/updates`         | Enqueue (or `?mode=sync` apply) an update batch     |
//! | POST   | `/v1/{t}/querylog`        | Log formulated queries, feeding `midas_sli_*`       |
//! | DELETE | `/v1/{t}`                 | Remove a tenant                                     |
//! | GET    | `/metrics`, `/flight`, `/slow` | [`midas_obs::http::route`]         |
//!
//! Handlers run on the HTTP worker pool; everything that can block on
//! maintenance is explicit: `GET` pattern reads never take the tenant's
//! `Midas` mutex, `POST /updates` without `mode=sync` only enqueues, and
//! with `mode=sync` it waits for its own batch on the tenant's
//! maintenance thread. A tenant whose maintenance thread has died is
//! marked `"degraded": true`; it answers updates with a 5xx at once and
//! keeps serving reads. A tenant with a full job channel answers updates
//! `429` with `Retry-After: 1`.

use crate::tenant::{Applied, GenOp, GenSpec, Ingest, Refused, Tenant};
use crate::ServeState;
use midas_core::MidasConfig;
use midas_datagen::{DatasetKind, DatasetSpec, MotifKind};
use midas_graph::io;
use midas_obs::httpd::{Request, Response};
use midas_obs::json::{self as js, Value};
use std::fmt::Write as _;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a `?mode=sync` update waits for its batch to apply before
/// answering 503 (the batch stays queued and will still apply).
const SYNC_TIMEOUT: Duration = Duration::from_secs(120);

/// Tenant names: 1–64 chars of `[a-z0-9_-]` — safe in paths, label
/// values, and log lines without any escaping.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-')
}

/// Maps a config preset name to a [`MidasConfig`]. The oracle's parity
/// check uses the same mapping on the library side, so a preset means
/// the *same* configuration through both paths.
pub fn config_preset(name: &str) -> Option<MidasConfig> {
    match name {
        "small" => Some(MidasConfig::small_defaults()),
        "default" => Some(MidasConfig::default()),
        _ => None,
    }
}

/// Routes one request against the daemon state.
pub fn route(state: &ServeState, req: &Request) -> Response {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => healthz(state),
        ("GET", ["v1", "tenants"]) => list_tenants(state),
        ("POST", ["v1", "tenants"]) => create_tenant(state, req),
        ("GET", ["v1", tenant, "patterns"]) => with_tenant(state, tenant, patterns),
        ("GET", ["v1", tenant, "epoch"]) => with_tenant(state, tenant, epoch),
        ("GET", ["v1", tenant, "queries"]) => with_tenant(state, tenant, |t| queries(t, req)),
        ("POST", ["v1", tenant, "updates"]) => with_tenant(state, tenant, |t| updates(t, req)),
        ("POST", ["v1", tenant, "querylog"]) => with_tenant(state, tenant, |t| querylog(t, req)),
        ("DELETE", ["v1", tenant]) => delete_tenant(state, tenant),
        (method, _) => midas_obs::http::route(req).unwrap_or_else(|| match method {
            "GET" | "POST" | "DELETE" => Response::not_found(),
            _ => {
                Response::text(405, "method not allowed\n").with_header("Allow: GET, POST, DELETE")
            }
        }),
    }
}

/// A JSON error document naming the tenant.
fn tenant_error(status: u16, error: &str, tenant: &str) -> Response {
    Response::json(
        status,
        format!(
            "{{\"error\": {}, \"tenant\": {}}}\n",
            js::quote(error),
            js::quote(tenant)
        ),
    )
}

fn with_tenant(
    state: &ServeState,
    name: &str,
    f: impl FnOnce(&Arc<Tenant>) -> Response,
) -> Response {
    match state.tenant(name) {
        Some(tenant) => f(&tenant),
        None => tenant_error(404, "unknown tenant", name),
    }
}

fn healthz(state: &ServeState) -> Response {
    midas_obs::http::healthz(
        state.uptime(),
        &format!(
            "\"tenants\": {}, \"degraded_tenants\": {}",
            state.tenant_count(),
            state.tenants().iter().filter(|t| t.degraded()).count()
        ),
    )
}

fn tenant_summary(t: &Tenant) -> String {
    let snap = t.snapshot();
    let pending = t.pending_len();
    format!(
        "{{\"tenant\": {}, \"kind\": {}, \"epoch\": {}, \"db_len\": {}, \"patterns\": {}, \"pending_batches\": {}, \"busy\": {}, \"degraded\": {}, \"created_unix_ms\": {}}}",
        js::quote(&t.name),
        js::quote(t.kind.name()),
        snap.epoch,
        snap.db_len,
        snap.patterns.len(),
        pending,
        pending > 0,
        t.degraded(),
        t.created_unix_ms()
    )
}

fn list_tenants(state: &ServeState) -> Response {
    let summaries: Vec<String> = state.tenants().iter().map(|t| tenant_summary(t)).collect();
    Response::json(
        200,
        format!("{{\"tenants\": [{}]}}\n", summaries.join(", ")),
    )
}

/// `POST /v1/tenants` body:
///
/// ```json
/// {"name": "acme",
///  "dataset": {"kind": "pubchem_like", "size": 120, "seed": 41},
///  "config": "small"}
/// ```
///
/// or, instead of `dataset`, explicit `"graphs": [{...}, ...]` (inserted
/// with ids `0..n`).
fn create_tenant(state: &ServeState, req: &Request) -> Response {
    let body = match req.body_str() {
        Some(b) if !b.trim().is_empty() => b,
        _ => return Response::bad_request("missing JSON body"),
    };
    let doc = match Value::parse(body) {
        Ok(v) => v,
        Err(e) => return Response::bad_request(&format!("invalid JSON: {e}")),
    };
    let name = match doc.get("name").and_then(Value::as_str) {
        Some(n) if valid_name(n) => n.to_owned(),
        Some(n) => {
            return Response::bad_request(&format!(
                "invalid tenant name {n:?} (want 1-64 chars of [a-z0-9_-])"
            ))
        }
        None => return Response::bad_request("missing \"name\""),
    };
    let config = match doc.get("config") {
        None => MidasConfig::small_defaults(),
        Some(preset) => match preset.as_str().and_then(config_preset) {
            Some(c) => c,
            None => return Response::bad_request("\"config\" must be \"small\" or \"default\""),
        },
    };
    let (kind, db) = if let Some(spec) = doc.get("dataset") {
        let kind = match spec
            .get("kind")
            .and_then(Value::as_str)
            .map(DatasetKind::from_name)
        {
            Some(Some(k)) => k,
            Some(None) => return Response::bad_request("unknown dataset kind"),
            None => return Response::bad_request("dataset missing \"kind\""),
        };
        let size = match optional_u64(spec, "dataset", "size", 100) {
            Ok(size) if (1..=100_000).contains(&size) => size as usize,
            Ok(_) => return Response::bad_request("dataset size out of range (1..=100000)"),
            Err(e) => return Response::bad_request(&e),
        };
        let seed = match optional_u64(spec, "dataset", "seed", 41) {
            Ok(seed) => seed,
            Err(e) => return Response::bad_request(&e),
        };
        (kind, DatasetSpec::new(kind, size, seed).generate().db)
    } else if let Some(graphs) = doc.get("graphs") {
        match io::graphs_from_value(graphs) {
            Ok(gs) if !gs.is_empty() => (
                DatasetKind::PubchemLike,
                midas_graph::GraphDb::from_graphs(gs),
            ),
            Ok(_) => return Response::bad_request("\"graphs\" must be non-empty"),
            Err(e) => return Response::bad_request(&format!("bad graphs: {e}")),
        }
    } else {
        return Response::bad_request("need \"dataset\" or \"graphs\"");
    };

    // Reserve the name first so two concurrent creates cannot both run a
    // (multi-second) bootstrap for the same tenant.
    if !state.reserve(&name) {
        return tenant_error(409, "tenant exists", &name);
    }
    match Tenant::bootstrap(name.clone(), kind, db, config) {
        Ok(tenant) => {
            let tenant = Arc::new(tenant);
            state.install(Arc::clone(&tenant));
            Response::json(201, format!("{}\n", tenant_summary(&tenant)))
        }
        Err(e) => {
            state.unreserve(&name);
            Response::bad_request(&format!("bootstrap failed: {e}"))
        }
    }
}

fn delete_tenant(state: &ServeState, name: &str) -> Response {
    if state.remove(name) {
        Response::json(200, format!("{{\"removed\": {}}}\n", js::quote(name)))
    } else {
        tenant_error(404, "unknown tenant", name)
    }
}

/// `GET /v1/{tenant}/patterns` — the read hot path: one `Arc` clone off
/// the published snapshot, then the per-read header fields written around
/// the snapshot's cached `graphlets` and `patterns` members (rendered once
/// per snapshot, by its first read). Epoch + publish time + pending queue
/// depth let the client judge staleness; the graphlet frequencies let it
/// compute drift against a later epoch probe.
fn patterns(tenant: &Arc<Tenant>) -> Response {
    let snap = tenant.snapshot();
    if midas_obs::enabled() {
        midas_obs::registry::registry()
            .counter(&crate::metric(&tenant.name, "serve.reads"))
            .add(1);
    }
    let fields = snap.json_fields();
    let mut body = String::with_capacity(HEADER_FIELDS_BYTES + fields.len());
    let _ = write!(
        body,
        "{{\"tenant\": {}, \"epoch\": {}, \"db_len\": {}, \"published_unix_ms\": {}, \"pending_batches\": {}, ",
        js::quote(&tenant.name),
        snap.epoch,
        snap.db_len,
        snap.published_unix_ms,
        tenant.pending_len(),
    );
    body.push_str(fields);
    body.push_str("}\n");
    Response::json(200, body)
}

/// Room for the per-read fields in front of a snapshot's cached members:
/// a 64-char tenant name and four 20-digit integers with their keys.
const HEADER_FIELDS_BYTES: usize = 256;

/// `GET /v1/{tenant}/epoch` — the cheap staleness probe (no pattern
/// payload; a reader holding an older snapshot compares epochs and
/// graphlet drift).
fn epoch(tenant: &Arc<Tenant>) -> Response {
    let snap = tenant.snapshot();
    Response::json(
        200,
        format!(
            "{{\"tenant\": {}, \"epoch\": {}, \"db_len\": {}, \"pending_batches\": {}, \"degraded\": {}, {}}}\n",
            js::quote(&tenant.name),
            snap.epoch,
            snap.db_len,
            tenant.pending_len(),
            tenant.degraded(),
            snap.graphlets_json_field()
        ),
    )
}

/// The most graphs one request may have the server generate: the cap on
/// `n` of `GET /queries` and on `count` of a generate spec.
const MAX_GRAPHS_PER_REQUEST: u64 = 4096;

/// `GET /v1/{tenant}/queries?n=16&min=3&max=8&seed=7` — samples a query
/// workload (connected subgraphs of database graphs) from the tenant's
/// current database: the queries a client posts back to `/querylog`.
fn queries(tenant: &Arc<Tenant>, req: &Request) -> Response {
    let n = req
        .query_param("n")
        .and_then(|v| v.parse().ok())
        .unwrap_or(16usize)
        .min(MAX_GRAPHS_PER_REQUEST as usize);
    let min = req
        .query_param("min")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3usize);
    let max = req
        .query_param("max")
        .and_then(|v| v.parse().ok())
        .unwrap_or(8usize)
        .max(min);
    let seed = req
        .query_param("seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(7u64);
    let queries = tenant.with_midas(|m| midas_datagen::query_set(m.db(), n, (min, max), seed));
    let body = io::patterns_to_json(&queries).unwrap_or_else(|_| "[]".into());
    Response::json(
        200,
        format!(
            "{{\"tenant\": {}, \"count\": {}, \"queries\": {}}}\n",
            js::quote(&tenant.name),
            queries.len(),
            body
        ),
    )
}

/// The non-negative integer field `key` of the `object` spec `v`, or
/// `default` when it is absent; a present value of another kind (a
/// string, a negative or fractional number) is an error naming the field.
fn optional_u64(v: &Value, object: &str, key: &str, default: u64) -> Result<u64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(x) => x
            .as_u64()
            .ok_or_else(|| format!("{object} {key:?} must be a non-negative integer")),
    }
}

/// Decodes a `generate` spec. `percent` (default 4) must lie in
/// `[0, 100]`, `count` (default 8) in `1..=4096`, `seed` (default 7) be
/// a non-negative integer and `motif` (default boronic ester) a
/// [`MotifKind::name`]; anything else is a 400 naming the field, so a
/// spec never reaches the generator with a size it cannot allocate.
fn parse_gen_spec(v: &Value) -> Result<GenSpec, String> {
    let op = match v.get("op").and_then(Value::as_str) {
        Some("growth") => GenOp::Growth,
        Some("deletion") => GenOp::Deletion,
        Some("novel") => GenOp::Novel,
        Some(other) => return Err(format!("unknown generate op {other:?}")),
        None => return Err("generate spec missing \"op\"".into()),
    };
    let motif = match v.get("motif") {
        None => None,
        Some(name) => Some(
            name.as_str()
                .and_then(MotifKind::from_name)
                .ok_or("generate \"motif\" must be a motif name such as \"boronic_ester\"")?,
        ),
    };
    let percent = match v.get("percent") {
        None => 4.0,
        Some(p) => p
            .as_f64()
            .filter(|p| (0.0..=100.0).contains(p))
            .ok_or("generate \"percent\" must be a number in [0, 100]")?,
    };
    let count = match v.get("count") {
        None => 8,
        Some(c) => c
            .as_u64()
            .filter(|c| (1..=MAX_GRAPHS_PER_REQUEST).contains(c))
            .ok_or("generate \"count\" must be an integer in 1..=4096")?,
    };
    Ok(GenSpec {
        op,
        percent,
        count: count as usize,
        motif,
        seed: optional_u64(v, "generate", "seed", 7)?,
    })
}

/// `POST /v1/{tenant}/updates[?mode=sync]` — body is either an explicit
/// batch (`{"insert": [...], "delete": [...]}`, decoded by
/// [`midas_graph::io::batch_from_value`]) or a generator spec
/// (`{"generate": {"op": "growth", "percent": 4.0, "seed": 7}}`).
///
/// Default mode enqueues and answers `202` immediately; `mode=sync`
/// waits until this job's own batch has applied (batches apply in FIFO
/// order either way) and answers with the epoch it published: `200`, or
/// `500` naming the failed `phase` and its `error` when a phase backstop
/// contained a panic in this batch (the epoch is published either way).
/// A full job channel answers 429 with `Retry-After: 1`. If the tenant's
/// maintenance thread has exited, the enqueue answers 503 and a waiting
/// sync caller gets 500 at once.
fn updates(tenant: &Arc<Tenant>, req: &Request) -> Response {
    let body = match req.body_str() {
        Some(b) if !b.trim().is_empty() => b,
        _ => return Response::bad_request("missing JSON body"),
    };
    let job = if let Ok(doc) = Value::parse(body) {
        if let Some(spec) = doc.get("generate") {
            match parse_gen_spec(spec) {
                Ok(spec) => Ingest::Generate(spec),
                Err(e) => return Response::bad_request(&e),
            }
        } else if doc.get("insert").is_some() || doc.get("delete").is_some() {
            match io::batch_from_value(&doc) {
                Ok(batch) => Ingest::Batch(batch),
                Err(e) => return Response::bad_request(&format!("bad batch: {e}")),
            }
        } else {
            return Response::bad_request("need \"insert\"/\"delete\" or \"generate\"");
        }
    } else {
        return Response::bad_request("invalid JSON");
    };

    if midas_obs::enabled() {
        midas_obs::registry::registry()
            .counter(&crate::metric(&tenant.name, "serve.updates"))
            .add(1);
    }
    let sync = req.query_param("mode") == Some("sync");
    let (reply, applied) = if sync {
        let (tx, rx) = mpsc::channel();
        (Some(tx), Some(rx))
    } else {
        (None, None)
    };
    let queued = match tenant.enqueue(job, reply) {
        Ok(queued) => queued,
        Err(Refused::Full) => {
            return tenant_error(429, "job queue is full; batch not accepted", &tenant.name)
                .with_header("Retry-After: 1")
        }
        Err(Refused::Closed) => {
            return tenant_error(
                503,
                "maintenance thread has exited; batch not accepted",
                &tenant.name,
            )
        }
    };
    let Some(applied) = applied else {
        return Response::json(
            202,
            format!(
                "{{\"tenant\": {}, \"mode\": \"async\", \"queued\": {}}}\n",
                js::quote(&tenant.name),
                queued
            ),
        );
    };
    match applied.recv_timeout(SYNC_TIMEOUT) {
        Ok(Applied {
            snapshot,
            error: Some(e),
        }) => Response::json(
            500,
            format!(
                "{{\"tenant\": {}, \"mode\": \"sync\", \"phase\": {}, \"error\": {}, \"epoch\": {}}}\n",
                js::quote(&tenant.name),
                js::quote(e.phase),
                js::quote(&e.message),
                snapshot.epoch
            ),
        ),
        Ok(Applied {
            snapshot: snap,
            error: None,
        }) => Response::json(
            200,
            format!(
                "{{\"tenant\": {}, \"mode\": \"sync\", \"epoch\": {}, \"db_len\": {}, \"patterns\": {}}}\n",
                js::quote(&tenant.name),
                snap.epoch,
                snap.db_len,
                snap.patterns.len()
            ),
        ),
        Err(RecvTimeoutError::Timeout) => tenant_error(
            503,
            "sync apply timed out; batch remains queued",
            &tenant.name,
        ),
        Err(RecvTimeoutError::Disconnected) => tenant_error(
            500,
            "maintenance thread exited before applying the batch",
            &tenant.name,
        ),
    }
}

/// `POST /v1/{tenant}/querylog` — body `{"queries": [graph, ...]}`. Each
/// query is formulated against the tenant's *live* snapshot and its
/// frozen epoch-0 baseline; the samples feed the `midas_sli_*` families
/// ([`midas_obs::sli::record_query`]) and the per-tenant query counter.
/// Every sample carries the time of the one snapshot read the request
/// made.
fn querylog(tenant: &Arc<Tenant>, req: &Request) -> Response {
    let body = match req.body_str() {
        Some(b) if !b.trim().is_empty() => b,
        _ => return Response::bad_request("missing JSON body"),
    };
    let doc = match Value::parse(body) {
        Ok(v) => v,
        Err(e) => return Response::bad_request(&format!("invalid JSON: {e}")),
    };
    let queries = match doc.get("queries").map(io::graphs_from_value) {
        Some(Ok(qs)) => qs,
        Some(Err(e)) => return Response::bad_request(&format!("bad queries: {e}")),
        None => return Response::bad_request("missing \"queries\""),
    };
    let read_start = Instant::now();
    let snap = tenant.snapshot();
    let read_ns = read_start.elapsed().as_nanos() as u64;
    let mut steps_live = 0u64;
    let mut steps_baseline = 0u64;
    for q in &queries {
        let begin = Instant::now();
        let live = midas_queryform::formulate(q, &snap.patterns).steps as u64;
        let formulate_ns = begin.elapsed().as_nanos() as u64;
        let base = midas_queryform::formulate(q, tenant.baseline()).steps as u64;
        steps_live += live;
        steps_baseline += base;
        // Staleness vs the snapshot published *now*, after formulation.
        let latest = tenant.snapshot();
        midas_obs::sli::record_query(&midas_obs::QuerySample {
            read_ns,
            formulate_ns,
            steps_live: live,
            steps_baseline: base,
            staleness_batches: snap.batches_behind(&latest),
            staleness_drift: snap.drift_to(&latest),
        });
    }
    if midas_obs::enabled() && !queries.is_empty() {
        midas_obs::registry::registry()
            .counter(&crate::metric(&tenant.name, "serve.queries"))
            .add(queries.len() as u64);
    }
    Response::json(
        200,
        format!(
            "{{\"tenant\": {}, \"logged\": {}, \"epoch\": {}, \"steps_live\": {}, \"steps_baseline\": {}, \"reduction\": {}}}\n",
            js::quote(&tenant.name),
            queries.len(),
            snap.epoch,
            steps_live,
            steps_baseline,
            js::number(midas_obs::sli::reduction_from_steps(steps_live, steps_baseline))
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::{GenOp, GenSpec, Ingest};
    use midas_core::PatternSnapshot;

    /// The `/patterns` body as rendered before snapshots cached their JSON.
    fn reference_patterns_body(tenant: &Tenant, snap: &PatternSnapshot) -> String {
        format!(
            "{{\"tenant\": {}, \"epoch\": {}, \"db_len\": {}, \"published_unix_ms\": {}, \"pending_batches\": {}, \"graphlets\": {}, \"patterns\": {}}}\n",
            js::quote(&tenant.name),
            snap.epoch,
            snap.db_len,
            snap.published_unix_ms,
            tenant.pending_len(),
            reference_graphlets(snap),
            io::patterns_to_json(&snap.patterns).unwrap()
        )
    }

    /// The `/epoch` body as rendered before snapshots cached their JSON.
    fn reference_epoch_body(tenant: &Tenant, snap: &PatternSnapshot) -> String {
        format!(
            "{{\"tenant\": {}, \"epoch\": {}, \"db_len\": {}, \"pending_batches\": {}, \"degraded\": {}, \"graphlets\": {}}}\n",
            js::quote(&tenant.name),
            snap.epoch,
            snap.db_len,
            tenant.pending_len(),
            tenant.degraded(),
            reference_graphlets(snap)
        )
    }

    fn reference_graphlets(snap: &PatternSnapshot) -> String {
        let items: Vec<String> = snap
            .graphlets
            .as_array()
            .iter()
            .map(|f| js::number(*f))
            .collect();
        format!("[{}]", items.join(", "))
    }

    fn get(state: &ServeState, path: &str) -> String {
        let response = route(
            state,
            &Request {
                method: "GET".to_owned(),
                path: path.to_owned(),
                query: None,
                headers: Vec::new(),
                body: Vec::new(),
            },
        );
        assert_eq!(response.status, 200, "{}", response.body);
        response.body
    }

    /// Applies one generated batch on the tenant's maintenance thread and
    /// waits for the snapshot it published. `size` is the percent of a
    /// growth batch and the graph count of a novel one.
    fn apply(tenant: &Tenant, op: GenOp, size: f64, seed: u64) -> Arc<PatternSnapshot> {
        let (tx, rx) = mpsc::channel();
        let spec = GenSpec {
            op,
            percent: size,
            count: size as usize,
            motif: None,
            seed,
        };
        tenant.enqueue(Ingest::Generate(spec), Some(tx)).unwrap();
        rx.recv_timeout(SYNC_TIMEOUT)
            .expect("batch applied")
            .snapshot
    }

    fn assert_bodies_match(state: &ServeState, tenant: &Tenant, snap: &Arc<PatternSnapshot>) {
        assert!(
            Arc::ptr_eq(&tenant.snapshot(), snap),
            "a later snapshot was published"
        );
        assert_eq!(
            get(state, "/v1/t/patterns"),
            reference_patterns_body(tenant, snap)
        );
        assert_eq!(
            get(state, "/v1/t/epoch"),
            reference_epoch_body(tenant, snap)
        );
    }

    /// The cached render serves the bytes the per-read render served: at
    /// bootstrap, after a batch that changes the pattern set and after a
    /// batch that leaves it as it was.
    #[test]
    fn cached_bodies_equal_the_per_read_render() {
        let state = ServeState::new();
        // Servebench's tenant configuration: unlike `small`, it swaps
        // patterns on a novel batch over a 40-graph database.
        let mut config = MidasConfig::default();
        (
            config.budget.eta_min,
            config.budget.eta_max,
            config.budget.gamma,
        ) = (3, 6, 10);
        (
            config.sup_min,
            config.max_tree_edges,
            config.coarse_clusters,
        ) = (0.4, 3, 5);
        config.epsilon = 0.01;
        let db = DatasetSpec::new(DatasetKind::PubchemLike, 40, 41)
            .generate()
            .db;
        let tenant = Arc::new(
            Tenant::bootstrap("t".to_owned(), DatasetKind::PubchemLike, db, config).unwrap(),
        );
        state.install(Arc::clone(&tenant));

        let boot = tenant.snapshot();
        assert_eq!(boot.epoch, 0);
        assert_bodies_match(&state, &tenant, &boot);

        let changed = apply(&tenant, GenOp::Novel, 20.0, 7);
        assert_eq!(changed.epoch, 1);
        assert_ne!(
            changed.patterns, boot.patterns,
            "the novel batch kept the set"
        );
        assert_bodies_match(&state, &tenant, &changed);

        let kept = apply(&tenant, GenOp::Growth, 2.0, 9);
        assert_eq!(kept.epoch, 2);
        assert_eq!(
            kept.patterns, changed.patterns,
            "the growth batch changed the set"
        );
        assert_bodies_match(&state, &tenant, &kept);

        assert!(state.remove("t"));
        state.join_maintenance();
    }
}
