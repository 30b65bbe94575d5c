//! The traced run's per-layer numbers.
//!
//! Every layer is timed from outside, by calling its public entry point
//! after the measured window has closed: the window itself runs exactly as
//! in an untraced run, and nothing inside the crates is instrumented. The
//! maintenance layers come from replaying the run's batches through the
//! library (`Midas::bootstrap_embedded` + `apply_batch`), which is also the
//! reference the served pattern sets are checked against.

use crate::plan::{self, TenantPlan};
use crate::procfs::Groups;
use crate::stats::{median, ms, percentile, sorted, us};
use crate::workload::{ReadLog, UpdateLog};
use crate::{metric, value_of, Metric};
use midas_core::{Midas, ModificationKind, PatternSnapshot};
use midas_graph::{io, GraphId};
use midas_obs::httpd::Request;
use midas_serve::client::ServeClient;
use midas_serve::json::{self, Value};
use midas_serve::{ServeDaemon, ServeState, Tenant};
use std::hint::black_box;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// How long each client of the HTTP floor probe sends `GET /healthz`.
const FLOOR_PROBE: Duration = Duration::from_secs(1);
/// In-process calls timed per read-path layer.
const CALLS: usize = 20_000;
/// `Tenant::snapshot()` takes less than the clock's resolution, so it is
/// timed over batches of this many calls.
const SNAPSHOT_BATCH: usize = 1_000;

/// What the measured window left behind.
pub struct Window<'a> {
    pub daemon: &'a ServeDaemon,
    pub plan: &'a [TenantPlan],
    /// Concurrent readers in the window; the floor probe uses as many.
    pub readers: usize,
    pub reads: &'a ReadLog,
    pub updates: &'a UpdateLog,
    pub groups: Groups,
    /// The run's end-to-end metrics and wall-clock figures.
    pub end_to_end: Vec<Metric>,
    pub wall: Vec<Metric>,
}

/// Batch-level results of replaying the plan through the library.
#[derive(Default)]
struct Replay {
    /// `apply_batch` wall time per batch, ms, in posting order.
    apply_ms: Vec<f64>,
    /// Phase sums over every batch, ms.
    clustering_ms: f64,
    fct_ms: f64,
    index_ms: f64,
    candidate_ms: f64,
    swap_ms: f64,
    pmt_ms: f64,
    major: u64,
    minor: u64,
    candidates: u64,
    swaps: u64,
    cache_hits: u64,
    cache_misses: u64,
    /// Each tenant's final snapshot.
    finals: Vec<Arc<PatternSnapshot>>,
}

/// Measures every layer and prints the two p50 decompositions; checks that
/// fail land in `problems`.
pub fn measure(w: &Window<'_>, problems: &mut Vec<String>) -> Vec<Metric> {
    let state = w.daemon.state();
    let client = ServeClient::new(w.daemon.addr().to_string());
    let tenants: Vec<Arc<Tenant>> = w
        .plan
        .iter()
        .filter_map(|t| state.tenant(&t.name))
        .collect();

    let floor_us = httpd_floor_us(&client, w.readers, problems);
    let (route_us, body_bytes) = route_read_us(state, w.plan);
    let json_us = patterns_json_us(&tenants);
    let snapshot_ns = snapshot_ns(&tenants);
    let parse_ms = batch_parse_ms(w.plan, problems);
    let replay = replay(w.plan).unwrap_or_else(|e| {
        problems.push(e);
        Replay::default()
    });
    check_parity(&client, w.plan, &replay.finals, problems);
    let formulate_us = formulate_us(w.plan, &replay.finals);

    // Update-to-visible time spent neither parsing nor applying: transport,
    // the wait for a maintenance worker, publishing, the confirming read.
    let queue_ms: Vec<f64> = w
        .updates
        .visible_ms
        .iter()
        .zip(&parse_ms)
        .zip(&replay.apply_ms)
        .map(|((v, p), a)| v - p - a)
        .collect();

    let (mut overlapped, mut idle) = (Vec::new(), Vec::new());
    for (&rtt, &during_update) in w.reads.rtt_us.iter().zip(&w.reads.overlapped) {
        if during_update {
            overlapped.push(rtt);
        } else {
            idle.push(rtt);
        }
    }
    let overlap_share = ratio(overlapped.len() as f64, w.reads.rtt_us.len() as f64);

    let read_p50_us = value_of(&w.end_to_end, "read_p50_us");
    let apply_cpu_p50_ms = value_of(&w.end_to_end, "apply_cpu_p50_ms");
    let visible_p50_ms = value_of(&w.wall, "visible_p50_ms");
    let p50 = |v: &[f64]| percentile(&sorted(v.to_vec()), 0.50);
    let p99 = |v: Vec<f64>| percentile(&sorted(v), 0.99);
    let (parse_p50, apply_p50, queue_p50) = (p50(&parse_ms), p50(&replay.apply_ms), p50(&queue_ms));
    println!(
        "read path p50:   read_p50_us {:.2} = httpd.floor_us {floor_us:.2} + api.route_read_us {route_us:.2} + residual {:.2}",
        read_p50_us,
        read_p50_us - floor_us - route_us
    );
    println!(
        "update path p50: visible_p50_ms {:.3} = json.batch_parse_ms {parse_p50:.3} + core.apply_p50_ms {apply_p50:.3} + serve.queue_wait_ms {queue_p50:.3} + residual {:.3}",
        visible_p50_ms,
        visible_p50_ms - parse_p50 - apply_p50 - queue_p50
    );

    println!(
        "update path CPU: apply_cpu_p50_ms {:.3} beside core.apply_p50_ms {apply_p50:.3} (replay wall time)",
        apply_cpu_p50_ms
    );

    let r = &replay;
    let phases = r.clustering_ms + r.fct_ms + r.index_ms + r.candidate_ms + r.swap_ms;
    let g = &w.groups;
    vec![
        metric("httpd.floor_us", floor_us, "us"),
        metric("api.route_read_us", route_us, "us"),
        metric("io.patterns_json_us", json_us, "us"),
        metric("read.body_bytes", body_bytes, "bytes"),
        metric("published.read_ns", snapshot_ns, "ns"),
        metric("json.batch_parse_ms", parse_p50, "ms"),
        metric("core.apply_p50_ms", apply_p50, "ms"),
        metric("core.apply_sum_ms", r.apply_ms.iter().sum::<f64>(), "ms"),
        metric("core.phase.clustering_ms", r.clustering_ms, "ms"),
        metric("core.phase.fct_ms", r.fct_ms, "ms"),
        metric("core.phase.index_ms", r.index_ms, "ms"),
        metric("core.phase.candidate_ms", r.candidate_ms, "ms"),
        metric("core.phase.swap_ms", r.swap_ms, "ms"),
        metric("core.phase.other_ms", r.pmt_ms - phases, "ms"),
        metric("core.major_batches", r.major as f64, "count"),
        metric("core.minor_batches", r.minor as f64, "count"),
        metric("catapult.candidates", r.candidates as f64, "count"),
        metric("catapult.swaps", r.swaps as f64, "count"),
        metric(
            "catapult.swap_yield",
            ratio(r.swaps as f64, r.candidates as f64),
            "ratio",
        ),
        metric(
            "graph.cache_hit_rate",
            ratio(r.cache_hits as f64, (r.cache_hits + r.cache_misses) as f64),
            "ratio",
        ),
        metric("serve.queue_wait_ms", queue_p50, "ms"),
        metric("queryform.formulate_us", formulate_us, "us"),
        metric("cpu.serve-worker_s", g.cpu("serve-worker"), "s"),
        metric("cpu.serve-accept_s", g.cpu("serve-accept"), "s"),
        metric("cpu.serve-maint_s", g.cpu("serve-maint"), "s"),
        metric("cpu.bench-client_s", g.cpu("bench-client"), "s"),
        metric("cpu.helpers_s", g.helpers_cpu_s, "s"),
        metric("runq.serve-worker_s", g.runq("serve-worker"), "s"),
        metric("runq.serve-accept_s", g.runq("serve-accept"), "s"),
        metric("runq.serve-maint_s", g.runq("serve-maint"), "s"),
        metric("runq.bench-client_s", g.runq("bench-client"), "s"),
        metric("read.overlap_share", overlap_share, "ratio"),
        metric("read.p99_overlap_us", p99(overlapped), "us"),
        metric("read.p99_idle_us", p99(idle), "us"),
        metric("trace.read_p50_us", read_p50_us, "us"),
        metric(
            "trace.read_cpu_us",
            value_of(&w.end_to_end, "read_cpu_us"),
            "us",
        ),
        metric("trace.apply_cpu_p50_ms", apply_cpu_p50_ms, "ms"),
        metric(
            "trace.update_graphs_per_cpu_s",
            value_of(&w.end_to_end, "update_graphs_per_cpu_s"),
            "1/s",
        ),
        metric("wall.read_p99_us", value_of(&w.wall, "read_p99_us"), "us"),
        metric("wall.read_rps", value_of(&w.wall, "read_rps"), "1/s"),
        metric("wall.visible_p50_ms", visible_p50_ms, "ms"),
        metric(
            "wall.visible_p90_ms",
            value_of(&w.wall, "visible_p90_ms"),
            "ms",
        ),
        metric(
            "wall.update_graphs_per_s",
            value_of(&w.wall, "update_graphs_per_s"),
            "1/s",
        ),
    ]
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// p50 round trip of `GET /healthz`, the HTTP core with an almost empty
/// handler, from `clients` concurrent clients.
fn httpd_floor_us(client: &ServeClient, clients: usize, problems: &mut Vec<String>) -> f64 {
    let probes: Vec<(Vec<f64>, u64)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let (mut rtt, mut failed) = (Vec::new(), 0u64);
                    let end = Instant::now() + FLOOR_PROBE;
                    while Instant::now() < end {
                        let begin = Instant::now();
                        match client.request("GET", "/healthz", None) {
                            Ok(reply) if reply.status == 200 => rtt.push(us(begin.elapsed())),
                            _ => failed += 1,
                        }
                    }
                    (rtt, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a floor probe panicked"))
            .collect()
    });
    let failed: u64 = probes.iter().map(|p| p.1).sum();
    if failed > 0 {
        problems.push(format!("{failed} GET /healthz probes failed"));
    }
    percentile(
        &sorted(probes.into_iter().flat_map(|p| p.0).collect()),
        0.50,
    )
}

/// p50 of `api::route` called in-process on each tenant's
/// `GET /patterns` request, and the mean response body size.
fn route_read_us(state: &ServeState, plan: &[TenantPlan]) -> (f64, f64) {
    let requests: Vec<Request> = plan
        .iter()
        .map(|t| Request {
            method: "GET".to_owned(),
            path: format!("/v1/{}/patterns", t.name),
            query: None,
            headers: Vec::new(),
            body: Vec::new(),
        })
        .collect();
    let mut samples = Vec::with_capacity(CALLS);
    let mut bytes = 0usize;
    for i in 0..CALLS {
        let begin = Instant::now();
        let response = midas_serve::api::route(state, black_box(&requests[i % requests.len()]));
        samples.push(us(begin.elapsed()));
        bytes += black_box(response).body.len();
    }
    (
        percentile(&sorted(samples), 0.50),
        bytes as f64 / CALLS as f64,
    )
}

/// p50 of `io::patterns_to_json` on each tenant's current patterns.
fn patterns_json_us(tenants: &[Arc<Tenant>]) -> f64 {
    let snapshots: Vec<_> = tenants.iter().map(|t| t.snapshot()).collect();
    let samples = (0..CALLS)
        .map(|i| {
            let patterns = &snapshots[i % snapshots.len()].patterns;
            let begin = Instant::now();
            let rendered = io::patterns_to_json(black_box(patterns));
            let elapsed = us(begin.elapsed());
            drop(black_box(rendered));
            elapsed
        })
        .collect();
    percentile(&sorted(samples), 0.50)
}

/// Mean time of one `Tenant::snapshot()`, median over batches.
fn snapshot_ns(tenants: &[Arc<Tenant>]) -> f64 {
    let batches: Vec<f64> = (0..CALLS / 100)
        .map(|i| {
            let tenant = &tenants[i % tenants.len()];
            let begin = Instant::now();
            for _ in 0..SNAPSHOT_BATCH {
                drop(black_box(tenant.snapshot()));
            }
            begin.elapsed().as_nanos() as f64 / SNAPSHOT_BATCH as f64
        })
        .collect();
    median(&batches)
}

/// The daemon's parse of each posted body, in posting order.
fn batch_parse_ms(plan: &[TenantPlan], problems: &mut Vec<String>) -> Vec<f64> {
    plan::posting_order(plan)
        .map(|(_, tenant, round)| {
            let begin = Instant::now();
            let parsed = parse_batch(black_box(&round.body));
            let elapsed = ms(begin.elapsed());
            if parsed != Ok(round.batch.len()) {
                problems.push(format!(
                    "{}: a posted body parses to {parsed:?}, want {} graphs",
                    tenant.name,
                    round.batch.len()
                ));
            }
            elapsed
        })
        .collect()
}

/// What `POST /updates` does to an explicit batch before enqueueing it:
/// `json::Value::parse`, then `graphs_from_value` on the inserts and the
/// id list. Returns the number of graphs.
fn parse_batch(body: &str) -> Result<usize, String> {
    let doc = Value::parse(body)?;
    let inserted = match doc.get("insert") {
        Some(graphs) => json::graphs_from_value(graphs)?.len(),
        None => 0,
    };
    let deleted = match doc.get("delete").and_then(Value::as_arr) {
        Some(ids) => ids
            .iter()
            .map(|id| id.as_u64().map(GraphId).ok_or("bad graph id"))
            .collect::<Result<Vec<_>, _>>()?
            .len(),
        None => 0,
    };
    Ok(inserted + deleted)
}

/// Replays every tenant's batches through the library, timing each
/// `apply_batch`.
fn replay(plan: &[TenantPlan]) -> Result<Replay, String> {
    let tenants = plan.len();
    let mut r = Replay {
        apply_ms: vec![0.0; plan::posting_order(plan).count()],
        ..Replay::default()
    };
    for (t, tenant) in plan.iter().enumerate() {
        let mut midas = Midas::bootstrap_embedded(tenant.db.clone(), plan::config())?;
        let before = midas.kernel().cache().stats();
        for (i, round) in tenant.rounds.iter().enumerate() {
            let batch = round.batch.clone();
            let begin = Instant::now();
            let report = midas.apply_batch(batch);
            r.apply_ms[i * tenants + t] = ms(begin.elapsed());
            if let Some(e) = report.error {
                return Err(format!(
                    "{} round {}: the library replay failed: {e:?}",
                    tenant.name,
                    i + 1
                ));
            }
            r.clustering_ms += ms(report.clustering_time);
            r.fct_ms += ms(report.fct_time);
            r.index_ms += ms(report.index_time);
            r.candidate_ms += ms(report.candidate_time);
            r.swap_ms += ms(report.swap_time);
            r.pmt_ms += ms(report.pattern_maintenance_time);
            match report.kind {
                ModificationKind::Major => r.major += 1,
                ModificationKind::Minor => r.minor += 1,
            }
            r.candidates += report.candidates_generated as u64;
            r.swaps += report.swaps as u64;
        }
        let after = midas.kernel().cache().stats();
        r.cache_hits += after.hits.saturating_sub(before.hits);
        r.cache_misses += after.misses.saturating_sub(before.misses);
        r.finals.push(midas.pattern_snapshot());
    }
    Ok(r)
}

/// Each tenant's final `/patterns` must equal the library replay's pattern
/// set, graph for graph and in order, with the same epoch and size.
fn check_parity(
    client: &ServeClient,
    plan: &[TenantPlan],
    finals: &[Arc<PatternSnapshot>],
    problems: &mut Vec<String>,
) {
    for (tenant, want) in plan.iter().zip(finals) {
        match client.patterns(&tenant.name) {
            Ok(got)
                if got.epoch == want.epoch
                    && got.db_len as usize == want.db_len
                    && got.patterns == want.patterns => {}
            Ok(got) => problems.push(format!(
                "{}: served epoch {} over {} graphs with {} patterns differs from the library replay's epoch {} over {} graphs with {} patterns",
                tenant.name,
                got.epoch,
                got.db_len,
                got.patterns.len(),
                want.epoch,
                want.db_len,
                want.patterns.len()
            )),
            Err(e) => problems.push(format!("{}: GET /patterns: {e}", tenant.name)),
        }
    }
}

/// p50 of `formulate` of every round's queries on the tenant's final
/// patterns.
fn formulate_us(plan: &[TenantPlan], finals: &[Arc<PatternSnapshot>]) -> f64 {
    let mut samples = Vec::new();
    for (tenant, snapshot) in plan.iter().zip(finals) {
        for query in tenant.rounds.iter().flat_map(|r| &r.queries) {
            let begin = Instant::now();
            black_box(midas_queryform::formulate(
                black_box(query),
                &snapshot.patterns,
            ));
            samples.push(us(begin.elapsed()));
        }
    }
    percentile(&sorted(samples), 0.50)
}
