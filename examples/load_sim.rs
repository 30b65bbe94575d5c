//! Closed-loop load simulation with live user-facing SLIs.
//!
//! ```sh
//! MIDAS_SERVE_ADDR=127.0.0.1:9898 MIDAS_LOAD_USERS=8 MIDAS_LOAD_TICKS=12 \
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
//! The endpoints come from one `midas_serve::ServeDaemon` in this
//! process, started in both modes (it hosts no tenants). With
//! `MIDAS_LOAD_HTTP=addr[/tenant]` the closed loop runs over HTTP against
//! a running `serve_daemon` instead of an in-process instance (the
//! tenant — default `loadsim` — is created when it does not exist yet).
//! The `MIDAS_LOAD_*`, `MIDAS_SERVE_ADDR` and `MIDAS_ADDR_FILE` settings
//! are in the environment table of `crates/obs/src/config.rs`.

use midas_core::{Midas, MidasConfig};
use midas_datagen::{DatasetKind, DatasetSpec};
use midas_load::{LoadConfig, LoadReport};
use midas_obs::TelemetryConfig;
use midas_serve::{ServeConfig, ServeDaemon};
use std::time::Duration;

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
    let env = midas_obs::config::env();
    let kind = DatasetKind::PubchemLike;
    let db_size = env.load_db.unwrap_or(160);

    // One listener for both modes: SLI samples are recorded where the
    // users run, which is this process either way.
    let telemetry = TelemetryConfig {
        enabled: true,
        ..TelemetryConfig::default()
    }
    .with_env(env);
    telemetry.activate();
    let daemon = ServeDaemon::start(ServeConfig::default().with_env(env))
        .expect("observability endpoints failed to bind");
    println!(
        "serving /sli (reduction, staleness, latency), /metrics and /snapshot on http://{}",
        daemon.addr()
    );
    if let Some(path) = &env.addr_file {
        std::fs::write(path, daemon.addr().to_string()).expect("write MIDAS_ADDR_FILE");
    }

    let cfg = LoadConfig::default().with_env(env);
    // HTTP mode: the daemon at MIDAS_LOAD_HTTP owns the Midas instances;
    // this process only runs users + driver over the wire.
    let report = if let Some(target) = &env.load_http {
        println!(
            "load (http): {} users × {} ticks (tick {} ms, pool {}) against {target}",
            cfg.users, cfg.ticks, cfg.tick_ms, cfg.pool
        );
        run_over_http(target, db_size, &cfg)
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

    let linger = env.load_linger_ms.unwrap_or(0);
    if linger > 0 {
        println!("lingering {linger} ms so /sli stays scrapeable");
        std::thread::sleep(Duration::from_millis(linger));
    }
}
