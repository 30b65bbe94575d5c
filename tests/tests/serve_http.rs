//! Cross-crate integration tests for the `midas-serve` daemon: tenant
//! isolation under concurrent maintenance, and the daemon producing its
//! own user-side SLIs from `/querylog`.

use midas_obs::registry::registry;
use midas_serve::client::ServeClient;
use midas_serve::{GenOp, GenSpec, ServeConfig, ServeDaemon};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

// Every test in this binary holds `midas_tests::exclusive()`: the SLI
// test reads process-wide counters, and it switches telemetry on for the
// whole process while it runs.

fn start() -> (ServeDaemon, ServeClient) {
    let daemon = ServeDaemon::start(ServeConfig::default()).expect("start daemon");
    let client = ServeClient::new(daemon.addr().to_string());
    (daemon, client)
}

/// One tenant's maintenance must not perturb another tenant's serving:
/// while a writer hammers tenant A with growth batches, every concurrent
/// read of tenant B must answer promptly, at B's unchanged epoch, with
/// B's unchanged pattern set — and every snapshot observed of *either*
/// tenant must be internally consistent (a published epoch, never a
/// half-applied state).
#[test]
fn tenant_maintenance_does_not_block_or_leak_into_other_tenants() {
    let _guard = midas_tests::exclusive();
    let (daemon, client) = start();
    assert_eq!(
        client
            .create_tenant("awrite", "pubchem_like", 36, 41, "small")
            .unwrap()
            .status,
        201
    );
    assert_eq!(
        client
            .create_tenant("bread", "emol_like", 24, 43, "small")
            .unwrap()
            .status,
        201
    );
    let b_before = client.patterns("bread").unwrap();
    assert_eq!(b_before.epoch, 0);

    let writer_done = AtomicBool::new(false);
    let mut a_final_epoch = 0;
    let mut b_reads = 0u64;
    std::thread::scope(|scope| {
        // Writer: four synchronous growth batches to A, back to back.
        // mode=sync means each response only returns after apply_batch
        // has finished — the writer holds A's maintenance busy the whole
        // time the readers below are running.
        let writer_client = client.clone();
        let writer_done = &writer_done;
        let writer = scope.spawn(move || {
            for i in 0..4u64 {
                let spec = GenSpec {
                    op: GenOp::Growth,
                    percent: 8.0,
                    count: 0,
                    motif: None,
                    seed: 100 + i,
                };
                let reply = writer_client.post_generate("awrite", &spec, true).unwrap();
                assert_eq!(reply.status, 200, "{}", reply.body);
            }
            writer_done.store(true, Ordering::Release);
        });

        // Readers: poll B (and A) for the writer's whole lifetime.
        let mut a_epochs_seen = Vec::new();
        while !writer_done.load(Ordering::Acquire) {
            let started = Instant::now();
            let b = client.patterns("bread").unwrap();
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "a read of B stalled behind A's maintenance"
            );
            // Isolation: B is untouched, bit for bit.
            assert_eq!(b.epoch, 0, "B's epoch moved while only A was written");
            assert_eq!(b.patterns, b_before.patterns, "B's pattern set changed");
            assert_eq!(b.db_len, b_before.db_len);
            b_reads += 1;

            // Consistency of the busy tenant: whatever epoch we catch,
            // the payload must be a published state (db grows with the
            // epoch; pattern set non-empty).
            let a = client.patterns("awrite").unwrap();
            assert!(a.epoch <= 4);
            assert!(!a.patterns.is_empty(), "observed a half-published snapshot");
            assert!(a.db_len >= 36, "db_len regressed under growth-only batches");
            a_epochs_seen.push(a.epoch);
        }
        writer.join().expect("writer panicked");

        // Epochs observed while reading the busy tenant never go back.
        assert!(
            a_epochs_seen.windows(2).all(|w| w[0] <= w[1]),
            "A's observed epochs were not monotone: {a_epochs_seen:?}"
        );
        a_final_epoch = client.epoch("awrite").unwrap().epoch;
    });

    assert_eq!(a_final_epoch, 4, "all four sync batches applied");
    assert!(b_reads > 0, "readers never ran while the writer was busy");
    assert_eq!(client.epoch("bread").unwrap().epoch, 0);
    daemon.shutdown();
}

/// The unlabeled sample `name` of a `/metrics` scrape (0 when absent).
fn sample(scrape: &str, name: &str) -> u64 {
    scrape
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .map_or(0, |v| v.parse().expect("integer sample"))
}

/// The daemon is the SLI producer, and `/metrics` is its one SLI record:
/// each `/querylog` sample lands in the `midas_sli_*` families with a
/// measured snapshot read, and their step counters move by exactly what
/// the `/querylog` replies report. `/sli` is gone, and a second tenant
/// stays untouched.
#[test]
fn querylog_samples_reach_metrics_while_another_tenant_stays_frozen() {
    let _guard = midas_tests::exclusive();
    let (daemon, client) = start();
    for (name, kind, size, seed) in [
        ("driven", "pubchem_like", 30, 7),
        ("frozen", "emol_like", 20, 9),
    ] {
        let created = client
            .create_tenant(name, kind, size, seed, "small")
            .unwrap();
        assert_eq!(created.status, 201, "{}", created.body);
    }

    midas_obs::set_enabled(true);
    let scrape = || {
        let reply = client.request("GET", "/metrics", None).unwrap();
        assert_eq!(reply.status, 200);
        reply.body
    };
    let before = scrape();
    let (_, read_ns_before, _) = registry().histogram("sli.read_ns").totals();
    let (mut queries, mut steps_live, mut steps_baseline) = (0, 0, 0);
    for round in 1..=2u64 {
        let workload = client.queries("driven", 8, (3, 6), round).unwrap();
        assert!(!workload.is_empty());
        let (live, baseline) = client.querylog("driven", &workload).unwrap();
        assert!(baseline > 0);
        queries += workload.len() as u64;
        steps_live += live;
        steps_baseline += baseline;
        let spec = GenSpec {
            op: GenOp::Growth,
            percent: 10.0,
            count: 0,
            motif: None,
            seed: 100 + round,
        };
        let reply = client.post_generate("driven", &spec, true).unwrap();
        assert_eq!(reply.status, 200, "{}", reply.body);
    }
    let after = scrape();
    midas_obs::set_enabled(false);

    let delta = |name: &str| sample(&after, name) - sample(&before, name);
    assert_eq!(
        delta("midas_sli_queries"),
        queries,
        "every logged query is one SLI sample"
    );
    assert_eq!(delta("midas_sli_steps_live"), steps_live);
    assert_eq!(delta("midas_sli_steps_baseline"), steps_baseline);
    let (_, read_ns_after, _) = registry().histogram("sli.read_ns").totals();
    assert!(
        read_ns_after > read_ns_before,
        "samples carry the read time"
    );
    assert_eq!(client.request("GET", "/sli", None).unwrap().status, 404);

    assert_eq!(client.epoch("driven").unwrap().epoch, 2);
    assert_eq!(client.epoch("frozen").unwrap().epoch, 0);
    daemon.shutdown();
}
