//! The multi-tenant pattern-serving daemon, runnable.
//!
//! ```sh
//! MIDAS_SERVE_ADDR=127.0.0.1:9900 MIDAS_SERVE=127.0.0.1:9898 \
//!     cargo run --release -p midas-examples --bin serve_daemon
//! # from another shell:
//! curl -s http://127.0.0.1:9900/healthz
//! curl -s -X POST http://127.0.0.1:9900/v1/tenants \
//!   -d '{"name": "acme", "dataset": {"kind": "pubchem_like", "size": 120, "seed": 41}, "config": "small"}'
//! curl -s http://127.0.0.1:9900/v1/acme/patterns | head -c 400
//! curl -s -X POST 'http://127.0.0.1:9900/v1/acme/updates?mode=sync' \
//!   -d '{"generate": {"op": "growth", "percent": 5, "seed": 7}}'
//! curl -s http://127.0.0.1:9900/v1/acme/epoch
//! curl -s http://127.0.0.1:9898/metrics | grep 'tenant="acme"'
//! curl -s http://127.0.0.1:9898/flight    # recent batches, every tenant
//! curl -s http://127.0.0.1:9898/slow      # slowest matcher searches, attributed
//! ```
//!
//! Boots a `midas_serve::ServeDaemon` (the `/v1` API) plus the
//! observability server (`/metrics`, `/snapshot`, `/healthz`, `/flight`,
//! `/profile`, `/slow`, `/alerts`, `/sli`) in one process. Tenants are created over HTTP; each gets its own embedded
//! MIDAS instance, with reads served lock-free off the published
//! snapshot and maintenance running on the shared worker pool.
//!
//! Environment knobs:
//!
//! * `MIDAS_SERVE_ADDR` — the API bind address (default `127.0.0.1:0`,
//!   printed, and written to `MIDAS_ADDR_FILE` when that is set);
//! * `MIDAS_SERVE_HTTP_WORKERS` / `MIDAS_SERVE_MAINT_WORKERS` — pool
//!   sizes (defaults 8 and 2);
//! * `MIDAS_SERVE` — the observability bind address (default
//!   `127.0.0.1:0`; written to `MIDAS_OBS_ADDR_FILE` when that is set);
//! * `MIDAS_SERVE_TENANTS` — comma-separated `name:kind:size:seed`
//!   specs to create at boot, e.g. `acme:pubchem_like:120:41`;
//! * `MIDAS_SERVE_ITERS_MS` — exit after this many milliseconds
//!   (default: run until killed), for scripted smoke runs;
//! * the telemetry switches of `TelemetryConfig::from_env`, e.g.
//!   `MIDAS_FLIGHT` (flight-recorder capacity), `MIDAS_PROFILE_HZ`
//!   (sampling profiler behind `/profile`) and `MIDAS_SLO_PHASE_US` /
//!   `MIDAS_SLO_VF2_NS` (budgets arming `/alerts`).

use midas_serve::client::ServeClient;
use midas_serve::{ServeConfig, ServeDaemon};
use std::time::Duration;

fn main() {
    // One process-wide telemetry activation and the process's single obs
    // server; tenants bootstrap with `bootstrap_embedded`, which leaves
    // both alone. The flight recorder is armed before any tenant runs a
    // batch, so the very first crash or `/flight` scrape has context.
    let telemetry = midas_obs::TelemetryConfig {
        enabled: true,
        ..midas_obs::TelemetryConfig::default()
    }
    .from_env();
    telemetry.activate();
    midas_obs::flight::install_panic_hook();
    midas_obs::flight::set_span_capture(true);
    let obs_bind = std::env::var("MIDAS_SERVE").unwrap_or_else(|_| "127.0.0.1:0".into());
    let obs = midas_obs::ObsServer::start(&obs_bind).expect("bind observability server");
    println!("observability on http://{}", obs.addr());
    if let Some(path) = std::env::var_os("MIDAS_OBS_ADDR_FILE") {
        std::fs::write(&path, obs.addr().to_string()).expect("write MIDAS_OBS_ADDR_FILE");
    }

    let daemon = ServeDaemon::start(ServeConfig::default().from_env()).expect("bind serving API");
    let addr = daemon.addr();
    println!("serving API on http://{addr}");
    println!("  GET    /healthz                    daemon liveness");
    println!("  GET    /v1/tenants                 list tenants");
    println!("  POST   /v1/tenants                 create a tenant");
    println!("  GET    /v1/{{tenant}}/patterns       lock-free pattern snapshot");
    println!("  GET    /v1/{{tenant}}/epoch          staleness probe");
    println!("  GET    /v1/{{tenant}}/queries        sample a query workload");
    println!("  POST   /v1/{{tenant}}/updates        apply/enqueue a batch (?mode=sync)");
    println!("  POST   /v1/{{tenant}}/querylog       log formulated queries into /sli");
    println!("  DELETE /v1/{{tenant}}                remove a tenant");
    if let Some(path) = std::env::var_os("MIDAS_ADDR_FILE") {
        std::fs::write(&path, addr.to_string()).expect("write MIDAS_ADDR_FILE");
    }

    // Optional boot-time tenants, through the same API path as curl.
    if let Ok(specs) = std::env::var("MIDAS_SERVE_TENANTS") {
        let client = ServeClient::new(addr.to_string());
        for spec in specs.split(',').filter(|s| !s.trim().is_empty()) {
            let parts: Vec<&str> = spec.trim().split(':').collect();
            let (name, kind, size, seed) = match parts.as_slice() {
                [n, k, s, seed] => (*n, *k, s.parse().unwrap_or(100), seed.parse().unwrap_or(41)),
                [n, k, s] => (*n, *k, s.parse().unwrap_or(100), 41),
                _ => {
                    eprintln!(
                        "skipping malformed tenant spec {spec:?} (want name:kind:size[:seed])"
                    );
                    continue;
                }
            };
            match client.create_tenant(name, kind, size, seed, "small") {
                Ok(reply) if reply.status == 201 => {
                    println!("created tenant {name} ({kind}, {size} graphs)")
                }
                Ok(reply) => eprintln!(
                    "tenant {name} failed: HTTP {} {}",
                    reply.status,
                    reply.body.trim()
                ),
                Err(e) => eprintln!("tenant {name} failed: {e}"),
            }
        }
    }

    match std::env::var("MIDAS_SERVE_ITERS_MS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
    {
        Some(ms) => {
            println!("serving for {ms} ms, then exiting");
            std::thread::sleep(Duration::from_millis(ms));
            daemon.shutdown();
            obs.shutdown();
        }
        None => {
            println!("serving until killed (ctrl-c)");
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
    }
}
