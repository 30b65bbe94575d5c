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
//! * **Maintenance is pooled.** `POST /v1/{tenant}/updates` enqueues on
//!   the tenant's FIFO and wakes a shared pool of maintenance workers.
//!   A busy-CAS in [`tenant::Tenant::drain`] guarantees at most one
//!   worker applies a given tenant's batches at a time (keeping the
//!   batch order — and therefore the resulting pattern set — a pure
//!   function of the request sequence), while distinct tenants apply
//!   concurrently on distinct workers.
//!
//! The daemon listens on one address: [`api::route`] answers the `/v1`
//! API and `/healthz`, and falls through to [`midas_obs::http::route`]
//! for the observability endpoints (`/metrics`, `/flight`, `/sli`, …).
//! See `DESIGN.md` §14 for the architecture and the API table in
//! [`api`].

#![warn(missing_docs)]

pub mod api;
pub mod client;
pub mod json;
pub mod tenant;

pub use api::{config_preset, valid_name};
pub use client::ServeClient;
pub use tenant::{GenOp, GenSpec, Ingest, Tenant};

use midas_obs::httpd::HttpServer;
use std::collections::BTreeMap;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex, RwLock};
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
    /// Maintenance worker threads (concurrent tenant batch applies).
    pub maintenance_workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            http_workers: 8,
            maintenance_workers: 2,
        }
    }
}

impl ServeConfig {
    /// Applies the `MIDAS_SERVE_ADDR`, `MIDAS_SERVE_HTTP_WORKERS` and
    /// `MIDAS_SERVE_MAINT_WORKERS` settings of `env` on top of the
    /// current values.
    pub fn with_env(mut self, env: &midas_obs::Env) -> Self {
        if let Some(addr) = &env.serve_addr {
            self.addr = addr.clone();
        }
        if let Some(n) = env.serve_http_workers {
            self.http_workers = n.max(1);
        }
        if let Some(n) = env.serve_maint_workers {
            self.maintenance_workers = n.max(1);
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

/// Shared daemon state: the tenant table and the maintenance work
/// channel. Handlers receive `&ServeState`; the daemon owns the worker
/// threads.
pub struct ServeState {
    tenants: RwLock<BTreeMap<String, Slot>>,
    work: Mutex<Option<Sender<Arc<Tenant>>>>,
    started: Instant,
    maintenance_workers: usize,
}

impl std::fmt::Debug for ServeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeState")
            .field("tenants", &self.tenant_count())
            .field("maintenance_workers", &self.maintenance_workers)
            .finish()
    }
}

impl ServeState {
    fn new(maintenance_workers: usize, work: Sender<Arc<Tenant>>) -> ServeState {
        ServeState {
            tenants: RwLock::new(BTreeMap::new()),
            work: Mutex::new(Some(work)),
            started: Instant::now(),
            maintenance_workers,
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

    /// Size of the maintenance pool.
    pub fn maintenance_workers(&self) -> usize {
        self.maintenance_workers
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

    /// Removes a ready tenant. Queued jobs for it are dropped once the
    /// pool's in-flight `Arc`s resolve; held snapshots stay valid.
    pub fn remove(&self, name: &str) -> bool {
        let mut map = self.tenants.write().unwrap_or_else(|e| e.into_inner());
        matches!(map.remove(name), Some(Slot::Ready(_)))
    }

    /// Hands a tenant with pending work to the maintenance pool. If the
    /// pool is already gone (shutdown race), drains on the calling
    /// thread so no accepted job is silently dropped.
    pub fn wake(&self, tenant: &Arc<Tenant>) {
        let sent = {
            let guard = self.work.lock().unwrap_or_else(|e| e.into_inner());
            match guard.as_ref() {
                Some(tx) => tx.send(Arc::clone(tenant)).is_ok(),
                None => false,
            }
        };
        if !sent {
            tenant.drain();
        }
    }

    fn close_work_channel(&self) {
        self.work.lock().unwrap_or_else(|e| e.into_inner()).take();
    }
}

/// The running daemon: an HTTP front end over a [`ServeState`] plus the
/// maintenance worker pool. Shuts down (and joins every thread) on drop.
pub struct ServeDaemon {
    http: Option<HttpServer>,
    state: Arc<ServeState>,
    workers: Vec<JoinHandle<()>>,
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
    /// Binds the listener, spawns the HTTP and maintenance pools, and
    /// returns the running daemon.
    pub fn start(config: ServeConfig) -> std::io::Result<ServeDaemon> {
        let (tx, rx) = mpsc::channel::<Arc<Tenant>>();
        let state = Arc::new(ServeState::new(config.maintenance_workers.max(1), tx));

        // Maintenance pool: same shared-receiver discipline as the HTTP
        // pool in `midas_obs::httpd` — take the guard, take one token,
        // drop the guard *before* the (long) drain.
        let rx = Arc::new(Mutex::new(rx));
        let workers: Vec<JoinHandle<()>> = (0..config.maintenance_workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("serve-maint-{i}"))
                    .spawn(move || maintenance_worker(&rx))
                    .expect("spawn maintenance worker")
            })
            .collect();

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
            workers,
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

    /// Stops the HTTP listener, closes the work channel, and joins every
    /// worker. Idempotent via drop.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(http) = self.http.take() {
            http.shutdown();
        }
        self.state.close_work_channel();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ServeDaemon {
    fn drop(&mut self) {
        self.stop();
    }
}

fn maintenance_worker(rx: &Mutex<Receiver<Arc<Tenant>>>) {
    loop {
        let tenant = {
            let guard = match rx.lock() {
                Ok(guard) => guard,
                Err(_) => return,
            };
            let tenant = guard.recv();
            drop(guard);
            tenant
        };
        match tenant {
            Ok(tenant) => tenant.drain(),
            Err(_) => return, // channel closed: shutdown
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServeClient;
    use midas_graph::BatchUpdate;
    use midas_graph::GraphBuilder;

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
            maintenance_workers: 5,
        };
        // No settings: values pass through.
        let same = config.clone().with_env(&midas_obs::Env::default());
        assert_eq!((same.http_workers, same.maintenance_workers), (3, 5));
        let (env, _) = midas_obs::Env::parse([
            ("MIDAS_SERVE_ADDR", "127.0.0.1:9"),
            ("MIDAS_SERVE_HTTP_WORKERS", "0"),
            ("MIDAS_SERVE_MAINT_WORKERS", "4"),
        ]);
        let set = config.with_env(&env);
        assert_eq!(set.addr, "127.0.0.1:9");
        assert_eq!(set.http_workers, 1, "pools never shrink to zero");
        assert_eq!(set.maintenance_workers, 4);
    }

    #[test]
    fn metric_names_carry_the_tenant_label() {
        assert_eq!(
            metric("acme", "serve.reads"),
            "serve.reads{tenant=\"acme\"}"
        );
    }
}
