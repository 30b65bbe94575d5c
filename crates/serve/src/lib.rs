//! Multi-tenant pattern-serving daemon.
//!
//! `midas-serve` turns the in-process MIDAS maintenance framework into a
//! long-running network service: one daemon hosts many named tenants,
//! each an embedded [`midas_core::Midas`] instance over its own graph
//! database, behind the zero-dependency HTTP core of
//! [`midas_obs::httpd`].
//!
//! The whole design rides on the paper's read/maintain split:
//!
//! * **Reads are lock-free.** `GET /v1/{tenant}/patterns` clones an
//!   `Arc` off the tenant's [`midas_core::Published`] snapshot cell —
//!   it never touches the tenant's `Midas` mutex, so one tenant's
//!   multi-second `apply_batch` cannot delay another tenant's (or its
//!   own) pattern reads.
//! * **Maintenance is one thread per tenant.** `POST /v1/{tenant}/updates`
//!   sends the job on the tenant's FIFO channel, and the tenant's own
//!   maintenance thread applies the jobs one at a time in arrival order
//!   (keeping the batch order — and therefore the resulting pattern set —
//!   a pure function of the request sequence), while distinct tenants
//!   apply concurrently on their own threads. A batch runs entirely on
//!   its tenant's thread: the match kernel starts no threads of its own,
//!   so concurrency comes from tenants and requests. A `?mode=sync` job
//!   carries a reply sender, so the caller waits for its own batch only.
//!
//! The daemon listens on one address: [`api::route`] answers the `/v1`
//! API and `/healthz`, and falls through to [`midas_obs::http::route`]
//! for the observability endpoints (`/metrics`, `/flight`, `/slow`).
//! See `DESIGN.md` §14 for the architecture and the API table in
//! [`api`].

#![warn(missing_docs)]

pub mod api;
pub mod client;
pub mod json;
pub mod tenant;

pub use api::{config_preset, valid_name};
pub use client::ServeClient;
pub use tenant::{Applied, GenOp, GenSpec, Ingest, Tenant};

use midas_obs::httpd::HttpServer;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The per-tenant registry name for a serve metric: dotted base plus a
/// `tenant` label block, e.g. `serve.reads{tenant="acme"}`. The prom
/// exposition splits the block back out so every tenant shares one
/// `midas_serve_reads` family.
pub fn metric(tenant: &str, base: &str) -> String {
    midas_obs::prom::labeled(base, &[("tenant", tenant)])
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// HTTP worker threads (concurrent in-flight requests).
    pub http_workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            http_workers: 8,
        }
    }
}

impl ServeConfig {
    /// Applies the `MIDAS_SERVE_ADDR` and `MIDAS_SERVE_HTTP_WORKERS`
    /// settings of `env` on top of the current values.
    pub fn with_env(mut self, env: &midas_obs::Env) -> Self {
        if let Some(addr) = &env.serve_addr {
            self.addr = addr.clone();
        }
        if let Some(n) = env.serve_http_workers {
            self.http_workers = n.max(1);
        }
        self
    }
}

/// A tenant-table slot. `Reserved` exists so concurrent creates of the
/// same name collide on the cheap table insert, not after both have run
/// a multi-second bootstrap.
enum Slot {
    Reserved,
    Ready(Arc<Tenant>),
}

/// Shared daemon state: the tenant table, each tenant with its own
/// maintenance thread. Handlers receive `&ServeState`.
pub struct ServeState {
    tenants: RwLock<BTreeMap<String, Slot>>,
    /// Maintenance threads of removed tenants, joined at shutdown.
    retired: Mutex<Vec<JoinHandle<()>>>,
    started: Instant,
}

impl std::fmt::Debug for ServeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeState")
            .field("tenants", &self.tenant_count())
            .finish()
    }
}

impl ServeState {
    fn new() -> ServeState {
        ServeState {
            tenants: RwLock::new(BTreeMap::new()),
            retired: Mutex::new(Vec::new()),
            started: Instant::now(),
        }
    }

    /// Looks up a ready tenant by name.
    pub fn tenant(&self, name: &str) -> Option<Arc<Tenant>> {
        match self
            .tenants
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
        {
            Some(Slot::Ready(t)) => Some(Arc::clone(t)),
            _ => None,
        }
    }

    /// Every ready tenant, in name order.
    pub fn tenants(&self) -> Vec<Arc<Tenant>> {
        self.tenants
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .filter_map(|s| match s {
                Slot::Ready(t) => Some(Arc::clone(t)),
                Slot::Reserved => None,
            })
            .collect()
    }

    /// Number of table entries (ready + mid-bootstrap reservations).
    pub fn tenant_count(&self) -> usize {
        self.tenants.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Time since the daemon started.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Claims `name` for an in-flight bootstrap. Returns false if the
    /// name is already taken (reserved or ready).
    pub fn reserve(&self, name: &str) -> bool {
        let mut map = self.tenants.write().unwrap_or_else(|e| e.into_inner());
        if map.contains_key(name) {
            return false;
        }
        map.insert(name.to_owned(), Slot::Reserved);
        true
    }

    /// Replaces a reservation with the bootstrapped tenant.
    pub fn install(&self, tenant: Arc<Tenant>) {
        let mut map = self.tenants.write().unwrap_or_else(|e| e.into_inner());
        map.insert(tenant.name.clone(), Slot::Ready(tenant));
    }

    /// Releases a reservation after a failed bootstrap.
    pub fn unreserve(&self, name: &str) {
        let mut map = self.tenants.write().unwrap_or_else(|e| e.into_inner());
        if let Some(Slot::Reserved) = map.get(name) {
            map.remove(name);
        }
    }

    /// Removes a ready tenant and closes its job channel: its
    /// maintenance thread applies the jobs it already accepted, then
    /// exits. Held snapshots stay valid.
    pub fn remove(&self, name: &str) -> bool {
        let slot = self
            .tenants
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .remove(name);
        let Some(Slot::Ready(tenant)) = slot else {
            return false;
        };
        let mut retired = self.retired.lock().unwrap_or_else(|e| e.into_inner());
        retired.retain(|t| !t.is_finished());
        retired.extend(tenant.close());
        true
    }

    /// Closes every tenant's job channel, then joins every maintenance
    /// thread, removed tenants' included.
    fn join_maintenance(&self) {
        let mut threads: Vec<JoinHandle<()>> =
            self.tenants().iter().filter_map(|t| t.close()).collect();
        threads.append(&mut self.retired.lock().unwrap_or_else(|e| e.into_inner()));
        for t in threads {
            let _ = t.join();
        }
    }
}

/// The running daemon: an HTTP front end over a [`ServeState`]. Shuts
/// down (and joins every thread) on drop.
pub struct ServeDaemon {
    http: Option<HttpServer>,
    state: Arc<ServeState>,
}

impl std::fmt::Debug for ServeDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeDaemon")
            .field("addr", &self.addr())
            .field("state", &self.state)
            .finish()
    }
}

impl ServeDaemon {
    /// Binds the listener, spawns the HTTP pool, and returns the running
    /// daemon.
    pub fn start(config: ServeConfig) -> std::io::Result<ServeDaemon> {
        let state = Arc::new(ServeState::new());
        let handler_state = Arc::clone(&state);
        let http = HttpServer::start(
            &config.addr,
            "serve",
            config.http_workers.max(1),
            Arc::new(move |req| api::route(&handler_state, req)),
        )?;
        Ok(ServeDaemon {
            http: Some(http),
            state,
        })
    }

    /// The bound listen address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.http.as_ref().expect("daemon running").addr()
    }

    /// The shared state (tests reach tenants directly through this).
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Stops the HTTP listener, then closes every tenant's job channel and
    /// joins every maintenance thread once it has applied what it
    /// accepted. Idempotent via drop.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(http) = self.http.take() {
            http.shutdown();
        }
        self.state.join_maintenance();
    }
}

impl Drop for ServeDaemon {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServeClient;
    use midas_graph::BatchUpdate;
    use midas_graph::GraphBuilder;
    use midas_obs::json::Value;

    fn daemon() -> (ServeDaemon, ServeClient) {
        let daemon = ServeDaemon::start(ServeConfig::default()).expect("start daemon");
        let client = ServeClient::new(daemon.addr().to_string());
        (daemon, client)
    }

    #[test]
    fn two_tenants_serve_independently_end_to_end() {
        let (daemon, client) = daemon();
        let a = client
            .create_tenant("acme", "pubchem_like", 32, 41, "small")
            .unwrap();
        assert_eq!(a.status, 201, "{}", a.body);
        let b = client
            .create_tenant("bmol", "emol_like", 24, 43, "small")
            .unwrap();
        assert_eq!(b.status, 201, "{}", b.body);
        assert_eq!(client.list_tenants().unwrap(), vec!["acme", "bmol"]);

        let pa = client.patterns("acme").unwrap();
        let pb = client.patterns("bmol").unwrap();
        assert_eq!((pa.epoch, pb.epoch), (0, 0));
        assert!(!pa.patterns.is_empty() && !pb.patterns.is_empty());
        assert_eq!(pa.db_len, 32);
        assert_eq!(pb.db_len, 24);

        // Synchronous growth on one tenant bumps only that tenant.
        let spec = GenSpec {
            op: GenOp::Growth,
            percent: 10.0,
            count: 0,
            motif: None,
            seed: 7,
        };
        let reply = client.post_generate("acme", &spec, true).unwrap();
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert_eq!(client.epoch("acme").unwrap().epoch, 1);
        assert_eq!(client.epoch("bmol").unwrap().epoch, 0);
        assert!(client.epoch("acme").unwrap().db_len > 32);

        // Queries sampled over HTTP formulate against the live snapshot.
        let queries = client.queries("bmol", 4, (3, 6), 9).unwrap();
        assert_eq!(queries.len(), 4);
        let (live, baseline) = client.querylog("bmol", &queries).unwrap();
        assert!(live > 0 && baseline > 0);

        let del = client.delete_tenant("bmol").unwrap();
        assert_eq!(del.status, 200);
        assert!(client.patterns("bmol").unwrap_err().contains("404"));
        daemon.shutdown();
    }

    #[test]
    fn async_updates_apply_in_the_background() {
        let (daemon, client) = daemon();
        client
            .create_tenant("t", "emol_like", 20, 5, "small")
            .unwrap();
        let g = GraphBuilder::new().vertices(&[0, 1]).edge(0, 1).build();
        let reply = client
            .post_batch("t", &BatchUpdate::insert_only(vec![g]), false)
            .unwrap();
        assert_eq!(reply.status, 202, "{}", reply.body);
        let begin = std::time::Instant::now();
        loop {
            let e = client.epoch("t").unwrap();
            if e.epoch == 1 {
                assert_eq!(e.db_len, 21);
                break;
            }
            assert!(
                begin.elapsed() < Duration::from_secs(30),
                "batch never applied"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        daemon.shutdown();
    }

    fn one_edge_batch() -> BatchUpdate {
        BatchUpdate::insert_only(vec![GraphBuilder::new()
            .vertices(&[0, 1])
            .edge(0, 1)
            .build()])
    }

    fn reply_epoch(reply: &client::Reply) -> u64 {
        let doc = reply.json().expect("JSON reply");
        doc.get("epoch").and_then(|e| e.as_u64()).expect("epoch")
    }

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let begin = Instant::now();
        while !done() {
            assert!(begin.elapsed() < Duration::from_secs(30), "{what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// A sync update answers with the epoch its own batch published, even
    /// when an async batch queued behind it applies before the caller
    /// could look.
    #[test]
    fn sync_update_reports_its_own_batch() {
        let (daemon, client) = daemon();
        client
            .create_tenant("t", "emol_like", 20, 5, "small")
            .unwrap();
        let tenant = daemon.state().tenant("t").unwrap();
        // Holding the `Midas` lock keeps both batches from applying until
        // both are queued.
        let sync = tenant.with_midas(|_| {
            let sync = std::thread::spawn({
                let client = client.clone();
                move || client.post_batch("t", &one_edge_batch(), true)
            });
            wait_until("the sync batch was never accepted", || {
                let tenants = client.request("GET", "/v1/tenants", None).unwrap();
                tenants.body.contains("\"busy\": true")
            });
            let queued = client.post_batch("t", &one_edge_batch(), false).unwrap();
            assert_eq!(queued.status, 202, "{}", queued.body);
            sync
        });
        let reply = sync.join().unwrap().unwrap();
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert_eq!(reply_epoch(&reply), 1, "{}", reply.body);
        wait_until("the async batch never applied", || {
            client.epoch("t").unwrap().epoch == 2
        });
        daemon.shutdown();
    }

    /// A maintenance thread that dies fails its own tenant's updates at
    /// once, while reads and other tenants keep working.
    #[test]
    fn a_dead_maintenance_thread_fails_fast_and_locally() {
        let (daemon, client) = daemon();
        for name in ["doomed", "other"] {
            let created = client
                .create_tenant(name, "emol_like", 20, 5, "small")
                .unwrap();
            assert_eq!(created.status, 201, "{}", created.body);
        }
        let doomed = daemon.state().tenant("doomed").unwrap();
        let waiting = doomed.with_midas(|_| {
            assert_eq!(doomed.enqueue(Ingest::Panic, None), Ok(1));
            let waiting = std::thread::spawn({
                let client = client.clone();
                move || client.post_batch("doomed", &one_edge_batch(), true)
            });
            wait_until("the sync batch was never accepted", || {
                doomed.pending_len() == 2
            });
            waiting
        });
        let released = Instant::now();
        let reply = waiting.join().unwrap().unwrap();
        assert_eq!(reply.status, 500, "{}", reply.body);
        assert!(reply.body.contains("doomed"), "{}", reply.body);
        assert!(
            released.elapsed() < Duration::from_secs(1),
            "the sync caller waited {:?}",
            released.elapsed()
        );

        let refused = client
            .post_batch("doomed", &one_edge_batch(), false)
            .unwrap();
        assert_eq!(refused.status, 503, "{}", refused.body);
        let read = client.request("GET", "/v1/doomed/patterns", None).unwrap();
        assert_eq!(read.status, 200, "{}", read.body);
        assert_eq!(reply_epoch(&read), 0);

        let applied = client.post_batch("other", &one_edge_batch(), true).unwrap();
        assert_eq!(applied.status, 200, "{}", applied.body);
        assert_eq!(reply_epoch(&applied), 1);

        // The dead tenant is marked, and only it.
        assert!(doomed.degraded());
        assert!(!daemon.state().tenant("other").unwrap().degraded());
        let flag = |doc: &Value| match doc.get("degraded") {
            Some(Value::Bool(b)) => *b,
            other => panic!("\"degraded\" is {other:?}"),
        };
        let epoch_flag = |name: &str| {
            let path = format!("/v1/{name}/epoch");
            flag(&client.request("GET", &path, None).unwrap().json().unwrap())
        };
        assert!(epoch_flag("doomed"));
        assert!(!epoch_flag("other"));
        let tenants = client.request("GET", "/v1/tenants", None).unwrap();
        let doc = tenants.json().unwrap();
        let flags: Vec<(&str, bool)> = doc
            .get("tenants")
            .and_then(|t| t.as_arr())
            .unwrap()
            .iter()
            .map(|t| {
                let name = t.get("tenant").and_then(|n| n.as_str()).unwrap();
                (name, flag(t))
            })
            .collect();
        assert_eq!(flags, vec![("doomed", true), ("other", false)]);
        let health = client.request("GET", "/healthz", None).unwrap();
        let doc = health.json().unwrap();
        assert_eq!(
            doc.get("degraded_tenants").and_then(|n| n.as_u64()),
            Some(1)
        );
        daemon.shutdown();
    }

    /// A full job channel refuses an update with 429 and `Retry-After`,
    /// without counting it as pending, and every accepted job applies.
    #[test]
    fn a_full_job_channel_answers_429() {
        let (daemon, client) = daemon();
        client
            .create_tenant("t", "emol_like", 20, 5, "small")
            .unwrap();
        let tenant = daemon.state().tenant("t").unwrap();
        let bound = tenant::JOB_CAPACITY as u64;
        // Holding the `Midas` lock blocks the thread on its first job.
        let accepted = tenant.with_midas(|_| {
            let mut accepted = 0;
            let refused = loop {
                let reply = client.post_batch("t", &one_edge_batch(), false).unwrap();
                if reply.status != 202 {
                    break reply;
                }
                accepted += 1;
                assert!(accepted <= bound + 1, "the channel never filled");
            };
            assert_eq!(refused.status, 429, "{}", refused.body);
            // The thread may have taken the first job off the channel.
            assert!(accepted == bound || accepted == bound + 1, "{accepted}");
            let again = api::route(
                daemon.state(),
                &midas_obs::httpd::Request {
                    method: "POST".to_owned(),
                    path: "/v1/t/updates".to_owned(),
                    query: None,
                    headers: Vec::new(),
                    body: midas_graph::io::batch_to_json(&one_edge_batch())
                        .unwrap()
                        .into_bytes(),
                },
            );
            assert_eq!(again.status, 429, "{}", again.body);
            assert_eq!(again.extra_headers, ["Retry-After: 1"]);
            assert_eq!(tenant.pending_len(), accepted, "a refusal is not pending");
            accepted
        });
        wait_until("the accepted jobs never applied", || {
            client.epoch("t").unwrap().epoch == accepted
        });
        assert_eq!(tenant.pending_len(), 0);
        daemon.shutdown();
    }

    /// Idle kept connections in a client's pool do not hold up shutdown.
    #[test]
    fn stop_does_not_wait_on_pooled_connections() {
        let (daemon, client) = daemon();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    for _ in 0..10 {
                        assert_eq!(client.request("GET", "/healthz", None).unwrap().status, 200);
                    }
                });
            }
        });
        let begin = Instant::now();
        daemon.shutdown();
        assert!(
            begin.elapsed() < Duration::from_secs(1),
            "stop took {:?}",
            begin.elapsed()
        );
    }

    #[test]
    fn malformed_create_and_generate_fields_are_400s_naming_the_field() {
        let (daemon, client) = daemon();
        for (field, value) in [
            ("size", "\"120\""),
            ("size", "-5"),
            ("size", "1.5"),
            ("seed", "\"41\""),
            ("seed", "-1"),
            ("seed", "2.5"),
        ] {
            let size = if field == "size" { value } else { "12" };
            let seed = if field == "seed" { value } else { "41" };
            let body = format!(
                r#"{{"name": "m", "dataset": {{"kind": "emol_like", "size": {size}, "seed": {seed}}}}}"#
            );
            let reply = client.request("POST", "/v1/tenants", Some(&body)).unwrap();
            assert_eq!(reply.status, 400, "{body}: {}", reply.body);
            assert!(reply.body.contains(field), "{body}: {}", reply.body);
        }
        // An absent seed keeps its default.
        let created = client
            .request(
                "POST",
                "/v1/tenants",
                Some(r#"{"name": "m", "dataset": {"kind": "emol_like", "size": 12}}"#),
            )
            .unwrap();
        assert_eq!(created.status, 201, "{}", created.body);
        let body = r#"{"name": "c", "dataset": {"kind": "emol_like", "size": 12}, "config": 1}"#;
        let reply = client.request("POST", "/v1/tenants", Some(body)).unwrap();
        assert_eq!(reply.status, 400, "{body}: {}", reply.body);
        assert!(reply.body.contains("config"), "{body}: {}", reply.body);
        for (field, value) in [
            ("seed", "\"7\""),
            ("seed", "-1"),
            ("seed", "2.5"),
            ("motif", "5"),
            ("motif", "\"benzene\""),
        ] {
            let body = format!(r#"{{"generate": {{"op": "novel", "{field}": {value}}}}}"#);
            let reply = client
                .request("POST", "/v1/m/updates", Some(&body))
                .unwrap();
            assert_eq!(reply.status, 400, "{body}: {}", reply.body);
            assert!(reply.body.contains(field), "{body}: {}", reply.body);
        }
        let reply = client
            .request(
                "POST",
                "/v1/m/updates?mode=sync",
                Some(r#"{"generate": {"op": "growth"}}"#),
            )
            .unwrap();
        assert_eq!(reply.status, 200, "{}", reply.body);
        daemon.shutdown();
    }

    #[test]
    fn protocol_errors_are_typed() {
        let (daemon, client) = daemon();
        // Unknown tenant.
        assert_eq!(
            client
                .request("GET", "/v1/nope/patterns", None)
                .unwrap()
                .status,
            404
        );
        // Invalid name.
        let bad = client
            .create_tenant("Bad Name!", "emol_like", 10, 1, "small")
            .unwrap();
        assert_eq!(bad.status, 400);
        // Unknown preset / kind.
        assert_eq!(
            client
                .create_tenant("x", "emol_like", 10, 1, "huge")
                .unwrap()
                .status,
            400
        );
        assert_eq!(
            client
                .create_tenant("x", "oracle9i", 10, 1, "small")
                .unwrap()
                .status,
            400
        );
        // Duplicate.
        assert_eq!(
            client
                .create_tenant("dup", "emol_like", 12, 1, "small")
                .unwrap()
                .status,
            201
        );
        assert_eq!(
            client
                .create_tenant("dup", "emol_like", 12, 1, "small")
                .unwrap()
                .status,
            409
        );
        // Malformed bodies.
        assert_eq!(
            client
                .request("POST", "/v1/tenants", Some("{oops"))
                .unwrap()
                .status,
            400
        );
        assert_eq!(
            client
                .request("POST", "/v1/dup/updates", Some("{}"))
                .unwrap()
                .status,
            400
        );
        // Out-of-range generate sizes are 400s naming the field, before
        // anything is queued: the tenant keeps serving sync updates.
        for (body, field) in [
            (
                r#"{"generate": {"op": "growth", "percent": 1e30}}"#,
                "percent",
            ),
            (r#"{"generate": {"op": "novel", "count": 100000}}"#, "count"),
        ] {
            let reply = client
                .request("POST", "/v1/dup/updates", Some(body))
                .unwrap();
            assert_eq!(reply.status, 400, "{body}: {}", reply.body);
            assert!(reply.body.contains(field), "{body}: {}", reply.body);
        }
        let begin = Instant::now();
        let reply = client
            .request(
                "POST",
                "/v1/dup/updates?mode=sync",
                Some(r#"{"generate": {"op": "growth", "percent": 10}}"#),
            )
            .unwrap();
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert!(
            begin.elapsed() < Duration::from_secs(30),
            "sync update took {:?}",
            begin.elapsed()
        );
        assert_eq!(
            client
                .request("POST", "/v1/dup/querylog", None)
                .unwrap()
                .status,
            400
        );
        // Unknown route / method.
        assert_eq!(
            client
                .request("GET", "/v2/dup/patterns", None)
                .unwrap()
                .status,
            404
        );
        assert_eq!(
            client
                .request("PUT", "/v1/dup/patterns", None)
                .unwrap()
                .status,
            405
        );
        daemon.shutdown();
    }

    #[test]
    fn env_overrides_apply() {
        let config = ServeConfig {
            addr: "127.0.0.1:0".into(),
            http_workers: 3,
        };
        // No settings: values pass through.
        let same = config.clone().with_env(&midas_obs::Env::default());
        assert_eq!(same.http_workers, 3);
        let (env, _) = midas_obs::Env::parse([
            ("MIDAS_SERVE_ADDR", "127.0.0.1:9"),
            ("MIDAS_SERVE_HTTP_WORKERS", "0"),
        ]);
        let set = config.with_env(&env);
        assert_eq!(set.addr, "127.0.0.1:9");
        assert_eq!(set.http_workers, 1, "pools never shrink to zero");
    }

    #[test]
    fn metric_names_carry_the_tenant_label() {
        assert_eq!(
            metric("acme", "serve.reads"),
            "serve.reads{tenant=\"acme\"}"
        );
    }
}
