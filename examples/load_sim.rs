//! Closed-loop load simulation with live user-facing SLIs.
//!
//! ```sh
//! MIDAS_SERVE=127.0.0.1:9898 MIDAS_LOAD_USERS=8 MIDAS_LOAD_TICKS=12 \
//!     cargo run --release -p midas-examples --bin load_sim
//! # while it runs (or during the linger window):
//! curl -s http://127.0.0.1:9898/sli       # reduction, staleness, latency
//! curl -s http://127.0.0.1:9898/metrics | grep midas_sli_
//! ```
//!
//! Boots MIDAS on a synthetic molecule repository, then runs
//! `midas_load::run`: N simulated users formulating queries against the
//! live pattern snapshot while the driver streams update batches. SLIs
//! (formulation-cost reduction vs the frozen no-maintenance baseline,
//! snapshot staleness, read/formulation latency) are served live on
//! `GET /sli` and as `midas_sli_*` Prometheus families, and the exact
//! end-of-run report is printed.
//!
//! Environment knobs:
//!
//! * `MIDAS_LOAD_USERS` / `MIDAS_LOAD_TICKS` / `MIDAS_LOAD_TICK_MS` /
//!   `MIDAS_LOAD_POOL` / `MIDAS_LOAD_SEED` — harness shape (defaults:
//!   8 users, 6 ticks);
//! * `MIDAS_LOAD_DB` — database size to bootstrap on (default 160);
//! * `MIDAS_LOAD_LINGER_MS` — keep the process (and the endpoints) alive
//!   this long after the run, so scripts can scrape `/sli` (default 0);
//! * `MIDAS_SERVE` — bind address (default `127.0.0.1:0`, printed and
//!   written to `MIDAS_ADDR_FILE` when set);
//! * `MIDAS_LOAD_HTTP` — `addr[/tenant]` of a running `serve_daemon`:
//!   instead of bootstrapping in-process, drive the closed loop over
//!   HTTP against that daemon (the tenant — default `loadsim` — is
//!   created on the fly when it does not exist yet).

use midas_core::{Midas, MidasConfig};
use midas_datagen::{DatasetKind, DatasetSpec};
use midas_load::{LoadConfig, LoadReport};
use midas_obs::TelemetryConfig;
use std::time::Duration;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}

/// Prints the end-of-run report. "load report" is the sentinel CI's
/// load-smoke job waits for before scraping the lingering server.
fn print_report(report: &LoadReport) {
    println!(
        "load report: done in {} ms: {} queries, reduction {:.4} ({} live vs {} baseline steps)",
        report.wall_ms, report.queries, report.reduction, report.steps_live, report.steps_baseline
    );
    println!(
        "  read ns      p50 {:>8}  p99 {:>8}  max {:>8}",
        report.read_ns.p50, report.read_ns.p99, report.read_ns.max
    );
    println!(
        "  formulate ns p50 {:>8}  p99 {:>8}  max {:>8}",
        report.formulate_ns.p50, report.formulate_ns.p99, report.formulate_ns.max
    );
    println!(
        "  staleness    p50 {} p99 {} max {} batches; drift mean {:.6} max {:.6}",
        report.staleness_batches.p50,
        report.staleness_batches.p99,
        report.staleness_batches.max,
        report.staleness_drift_mean,
        report.staleness_drift_max
    );
}

/// Runs the closed loop over HTTP against an external `serve_daemon`,
/// creating the target tenant when it is not there yet.
fn run_over_http(target: &str, db_size: usize, cfg: &LoadConfig) -> LoadReport {
    let (addr, tenant) = match target.split_once('/') {
        Some((addr, tenant)) if !tenant.is_empty() => (addr, tenant),
        _ => (target, "loadsim"),
    };
    let client = midas_serve::client::ServeClient::new(addr);
    let created = client
        .create_tenant(tenant, "pubchem_like", db_size, 41, "small")
        .expect("reach serve daemon");
    match created.status {
        201 => println!("created tenant {tenant} ({db_size} graphs) on {addr}"),
        409 => println!("driving existing tenant {tenant} on {addr}"),
        s => panic!("tenant create failed: HTTP {s} {}", created.body.trim()),
    }
    midas_load::run_http(addr, tenant, cfg).expect("http load run")
}

fn main() {
    let kind = DatasetKind::PubchemLike;
    let db_size = env_u64("MIDAS_LOAD_DB", 160) as usize;

    // One observability server for both modes: SLI samples are recorded
    // where the users run, which is this process either way.
    let telemetry = TelemetryConfig {
        enabled: true,
        ..TelemetryConfig::default()
    }
    .from_env();
    telemetry.activate();
    let obs = midas_obs::ObsServer::start(
        &std::env::var("MIDAS_SERVE").unwrap_or_else(|_| "127.0.0.1:0".into()),
    )
    .expect("observability server failed to bind");
    println!("serving observability endpoints on http://{}", obs.addr());
    println!("  GET /sli       user-facing SLIs: reduction, staleness, latency");
    println!("  GET /metrics   Prometheus exposition (midas_sli_* families)");
    println!("  GET /snapshot  full metrics snapshot as JSON");
    if let Some(path) = std::env::var_os("MIDAS_ADDR_FILE") {
        std::fs::write(&path, obs.addr().to_string()).expect("write MIDAS_ADDR_FILE");
    }

    let cfg = LoadConfig::default().from_env();
    // HTTP mode: the daemon at MIDAS_LOAD_HTTP owns the Midas instances;
    // this process only runs users + driver over the wire.
    let report = if let Ok(target) = std::env::var("MIDAS_LOAD_HTTP") {
        println!(
            "load (http): {} users × {} ticks (tick {} ms, pool {}) against {target}",
            cfg.users, cfg.ticks, cfg.tick_ms, cfg.pool
        );
        run_over_http(&target, db_size, &cfg)
    } else {
        let dataset = DatasetSpec::new(kind, db_size, 41).generate();
        let config = MidasConfig {
            budget: midas_catapult::PatternBudget {
                eta_min: 3,
                eta_max: 6,
                gamma: 10,
            },
            sup_min: 0.4,
            max_tree_edges: 3,
            coarse_clusters: 5,
            epsilon: 0.01,
            telemetry,
            ..MidasConfig::default()
        };
        let mut midas = Midas::bootstrap(dataset.db, config).expect("non-empty database");
        println!(
            "load: {} users × {} ticks (tick {} ms, pool {}, db {})",
            cfg.users, cfg.ticks, cfg.tick_ms, cfg.pool, db_size
        );
        midas_load::run(&mut midas, kind, &cfg)
    };
    print_report(&report);

    let linger = env_u64("MIDAS_LOAD_LINGER_MS", 0);
    if linger > 0 {
        println!("lingering {linger} ms so /sli stays scrapeable");
        std::thread::sleep(Duration::from_millis(linger));
    }
}
