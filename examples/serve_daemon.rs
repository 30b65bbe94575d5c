//! The multi-tenant pattern-serving daemon, runnable.
//!
//! ```sh
//! MIDAS_SERVE_ADDR=127.0.0.1:9900 cargo run --release -p midas-examples --bin serve_daemon
//! # from another shell:
//! curl -s http://127.0.0.1:9900/healthz
//! curl -s -X POST http://127.0.0.1:9900/v1/tenants \
//!   -d '{"name": "acme", "dataset": {"kind": "pubchem_like", "size": 120, "seed": 41}, "config": "small"}'
//! curl -s http://127.0.0.1:9900/v1/acme/patterns | head -c 400
//! curl -s -X POST 'http://127.0.0.1:9900/v1/acme/updates?mode=sync' \
//!   -d '{"generate": {"op": "growth", "percent": 5, "seed": 7}}'
//! curl -s http://127.0.0.1:9900/v1/acme/epoch
//! curl -s http://127.0.0.1:9900/metrics | grep 'tenant="acme"'
//! curl -s http://127.0.0.1:9900/flight    # recent batches, every tenant
//! curl -s http://127.0.0.1:9900/slow      # slowest phases and searches, attributed
//! curl -s 'http://127.0.0.1:9900/v1/acme/queries?n=16' \
//!   | curl -s -X POST http://127.0.0.1:9900/v1/acme/querylog -d @-
//! curl -s http://127.0.0.1:9900/metrics | grep midas_sli_   # user-side SLIs
//! ```
//!
//! Boots one `midas_serve::ServeDaemon`: a single listener serving the
//! `/v1` API, `/healthz`, and the observability endpoints (`/metrics`,
//! `/flight`, `/slow`).
//! Tenants are created over HTTP (or at boot from `MIDAS_SERVE_TENANTS`,
//! comma-separated `name:kind:size[:seed]` specs); each gets its own
//! embedded MIDAS instance, with reads served lock-free off the published
//! snapshot and maintenance running on the tenant's own thread. It runs
//! until killed.
//!
//! Its settings — `MIDAS_SERVE_*`, `MIDAS_ADDR_FILE` and the telemetry
//! rows — are in the environment table of `crates/obs/src/config.rs`.

use midas_obs::{flight, TelemetryConfig};
use midas_serve::client::ServeClient;
use midas_serve::{ServeConfig, ServeDaemon};
use std::time::Duration;

/// Splits a boot-time tenant spec `name:kind:size[:seed]` (seed
/// defaults to 41); `None` when it is malformed.
fn tenant_spec(spec: &str) -> Option<(&str, &str, usize, u64)> {
    let (name, kind, size, seed) = match spec.split(':').collect::<Vec<_>>().as_slice() {
        [name, kind, size] => (*name, *kind, *size, "41"),
        [name, kind, size, seed] => (*name, *kind, *size, *seed),
        _ => return None,
    };
    Some((name, kind, size.parse().ok()?, seed.parse().ok()?))
}

fn main() {
    // One process-wide telemetry activation; tenants bootstrap with
    // `bootstrap_embedded`, which leaves it alone. The flight recorder is
    // armed before any tenant runs a batch, so the very first crash or
    // `/flight` scrape has context.
    let env = midas_obs::config::env();
    TelemetryConfig {
        enabled: true,
        ..TelemetryConfig::default()
    }
    .with_env(env)
    .activate();
    let dump = env.flight_dump.clone();
    flight::install_panic_hook(dump.unwrap_or_else(|| "midas-flight-dump.json".into()));
    flight::set_span_capture(true);

    let daemon = ServeDaemon::start(ServeConfig::default().with_env(env)).expect("bind daemon");
    let addr = daemon.addr();
    // The route table is the module doc of `crates/serve/src/api.rs`.
    println!("serving /healthz, /v1/* and the observability endpoints on http://{addr}");
    if let Some(path) = &env.addr_file {
        std::fs::write(path, addr.to_string()).expect("write MIDAS_ADDR_FILE");
    }

    // Optional boot-time tenants, through the same API path as curl.
    let client = ServeClient::new(addr.to_string());
    let specs = env.serve_tenants.as_deref().unwrap_or("");
    for spec in specs.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let Some((name, kind, size, seed)) = tenant_spec(spec) else {
            eprintln!("skipping malformed tenant spec {spec:?} (want name:kind:size[:seed])");
            continue;
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

    println!("serving until killed (ctrl-c)");
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
