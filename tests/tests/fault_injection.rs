//! End-to-end fault-isolation test: an injected task panic (the
//! `MIDAS_FAULT=task:N` injector, armed programmatically) unwinds out of
//! the exec task map to the framework's one fault boundary, the phase
//! backstop, and surfaces as a [`PhaseError`] — on the maintenance report,
//! or as bootstrap's `Err` — while the process stays alive, the flight
//! recorder logs the event, and the framework keeps working afterwards.
//!
//! The injector is process-global, so this file holds a single test
//! function: everything that arms it runs sequentially in here, and no
//! other test in this process runs kernel tasks while armed.

use midas_core::{Midas, MidasConfig, PhaseError};
use midas_datagen::{novel_family_batch, DatasetKind, DatasetSpec, MotifKind};
use midas_graph::exec::{map_tasks, panic_message, set_fault_for_tests, slow_fault, Fault};
use midas_graph::{Csr, GraphId, LabeledGraph, MatchKernel};
use midas_oracle::fault_containment_pass;
use midas_oracle::vf2::is_subgraph_of;
use midas_serve::client::ServeClient;
use midas_serve::json::Value;
use midas_serve::{GenOp, GenSpec, ServeConfig, ServeDaemon};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs `f` with the fault injector armed at `fault` and the default
/// panic hook silenced, then disarms both.
fn armed<R>(fault: Fault, f: impl FnOnce() -> R) -> R {
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    set_fault_for_tests(Some(fault));
    let out = catch_unwind(AssertUnwindSafe(f));
    set_fault_for_tests(None);
    std::panic::set_hook(quiet);
    out.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

fn dirty_clusters(midas: &Midas) -> Vec<u64> {
    midas
        .clusters()
        .iter()
        .filter(|(_, c)| c.is_dirty())
        .map(|(id, _)| id.0)
        .collect()
}

#[test]
fn injected_worker_panic_is_contained_end_to_end() {
    // Phase 1: the full framework pass — bootstrap, arm `task:3`, apply a
    // growth batch, and require a PhaseError-carrying report plus the
    // flight-recorder trail instead of an abort.
    let line = fault_containment_pass(7, 3).expect("injected fault must be contained");
    assert!(
        line.contains("kernel_error=true"),
        "flight recorder must log the contained failure: {line}"
    );
    assert!(
        line.contains("batch.index") && line.contains("task 3"),
        "the error must name the phase and the injected task: {line}"
    );

    // Phase 2: the exec primitive directly — nothing in the task map
    // catches the injected panic; it unwinds with its own message, which
    // names the global task ordinal.
    let items: Vec<u64> = (0..64).collect();
    let payload = armed(Fault::Task(2), || {
        catch_unwind(|| map_tasks(&items, |&x| x * 2)).expect_err("the armed ordinal must unwind")
    });
    assert_eq!(
        panic_message(payload),
        "injected fault at task 2 (MIDAS_FAULT)"
    );

    // Phase 3: disarmed, the same map succeeds — the injector left no
    // poisoned global state behind.
    let clean = map_tasks(&items, |&x| x * 2);
    assert_eq!(clean, (0..64).map(|x| x * 2).collect::<Vec<u64>>());

    // Phase 4: `slow:US` arms the batch.index delay and never a task
    // panic; disarming clears it.
    set_fault_for_tests(Some(Fault::Slow(250)));
    assert_eq!(slow_fault(), Some(std::time::Duration::from_micros(250)));
    assert_eq!(map_tasks(&items, |&x| x), items);
    set_fault_for_tests(None);
    assert_eq!(slow_fault(), None);

    // Phase 5: a pattern-maintenance round abandoned to a panic keeps its
    // delta. A novel-family batch is a major modification at ε = 0.01;
    // its ε = 1.0 twin classifies the same batch as minor, which keeps
    // every dirty flag, so both must end with the same dirty clusters.
    let db = DatasetSpec::new(DatasetKind::AidsLike, 40, 7).generate().db;
    let at_epsilon = |epsilon| MidasConfig {
        epsilon,
        ..MidasConfig::small_defaults()
    };
    let batch = novel_family_batch(MotifKind::BoronicEster, 12, 3);
    let mut twin = Midas::bootstrap(db.clone(), at_epsilon(1.0)).expect("bootstrap");
    assert!(twin.apply_batch(batch.clone()).error.is_none());
    let mut midas = Midas::bootstrap(db, at_epsilon(0.01)).expect("bootstrap");
    let report = armed(Fault::Task(100), || midas.apply_batch(batch));
    let error = report.error.expect("the armed task must fail the batch");
    assert_eq!(error.phase, "batch.maintenance", "{error}");
    let dirty = dirty_clusters(&twin);
    assert!(!dirty.is_empty(), "the batch must dirty some cluster");
    assert_eq!(
        dirty_clusters(&midas),
        dirty,
        "a failed maintenance round must keep its dirty clusters"
    );

    // Phase 6: a fault during bootstrap's index build is contained too:
    // `Midas::bootstrap` returns `Err` naming the phase ...
    let small = DatasetSpec::new(DatasetKind::AidsLike, 20, 7).generate().db;
    let failed = armed(Fault::Task(0), || {
        Midas::bootstrap(small, MidasConfig::small_defaults())
    });
    let message = failed
        .err()
        .expect("an injected bootstrap fault must be an Err");
    let expected = PhaseError {
        phase: "bootstrap.index",
        message: "injected fault at task 0 (MIDAS_FAULT)".into(),
    };
    assert_eq!(message, expected.to_string());

    // ... and over HTTP, `POST /v1/tenants` answers 400 and releases the
    // name: the same create succeeds once the injector is disarmed.
    let daemon = ServeDaemon::start(ServeConfig::default()).expect("start daemon");
    let client = ServeClient::new(daemon.addr().to_string());
    let create = || client.create_tenant("faulty", "aids_like", 20, 7, "small");
    let reply = armed(Fault::Task(0), create).expect("request");
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert!(reply.body.contains("bootstrap.index"), "{}", reply.body);
    let reply = create().expect("request");
    assert_eq!(reply.status, 201, "{}", reply.body);
    daemon.shutdown();

    // Phase 7: a task panic inside a kernel coverage scan leaves the
    // kernel's memo coherent. The scan is pattern-major, one `covered_in`
    // per pattern: task 17 fails before the first pattern probes graph
    // 17, so its answers for graphs 0..17 are memoized and nothing else.
    // Disarmed, a rerun on the same kernel equals the VF2 reference, every
    // cell is one hit or one miss, and exactly the cells stored before the
    // panic hit.
    let db = DatasetSpec::new(DatasetKind::AidsLike, 40, 11)
        .generate()
        .db;
    let graphs: Vec<(GraphId, &Csr)> = db.csrs().collect();
    let kernel = MatchKernel::new();
    let patterns: Vec<LabeledGraph> = db
        .iter()
        .take(4)
        .map(|(_, g)| g.edge_subgraph(&g.edges()[..2]))
        .collect();
    let scan = || -> Vec<Vec<bool>> {
        patterns
            .iter()
            .map(|p| kernel.covered_in(p, &graphs))
            .collect()
    };
    let payload = armed(Fault::Task(17), || {
        catch_unwind(AssertUnwindSafe(scan))
            .expect_err("the armed task must unwind out of the scan")
    });
    assert_eq!(
        panic_message(payload),
        "injected fault at task 17 (MIDAS_FAULT)"
    );
    let before = kernel.cache().stats();
    assert_eq!((before.hits, before.misses), (0, 17));
    let answers = scan();
    for (p, row) in patterns.iter().zip(&answers) {
        for ((_, g), &got) in db.iter().zip(row) {
            assert_eq!(got, is_subgraph_of(p, g));
        }
    }
    let after = kernel.cache().stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    assert_eq!(hits + misses, (graphs.len() * patterns.len()) as u64);
    assert_eq!(hits, before.misses);

    // Phase 8: a sync update whose batch hits a contained fault answers
    // 500 naming the phase, and the failed batch still publishes its
    // epoch; the next sync update answers 200.
    let daemon = ServeDaemon::start(ServeConfig::default()).expect("start daemon");
    let client = ServeClient::new(daemon.addr().to_string());
    let reply = client
        .create_tenant("synced", "aids_like", 20, 7, "small")
        .expect("request");
    assert_eq!(reply.status, 201, "{}", reply.body);
    let epoch = client.epoch("synced").expect("epoch").epoch;
    let growth = |seed| GenSpec {
        op: GenOp::Growth,
        percent: 20.0,
        count: 0,
        motif: None,
        seed,
    };
    let reply = armed(Fault::Task(0), || {
        client.post_generate("synced", &growth(3), true)
    })
    .expect("request");
    assert_eq!(reply.status, 500, "{}", reply.body);
    let doc = Value::parse(&reply.body).expect("error body is JSON");
    assert_eq!(
        doc.get("phase").and_then(Value::as_str),
        Some("batch.index"),
        "{}",
        reply.body
    );
    assert_eq!(
        doc.get("error").and_then(Value::as_str),
        Some("injected fault at task 0 (MIDAS_FAULT)")
    );
    let failed_epoch = doc.get("epoch").and_then(Value::as_u64).expect("epoch");
    assert!(failed_epoch > epoch, "{}", reply.body);
    assert_eq!(client.epoch("synced").expect("epoch").epoch, failed_epoch);
    let reply = client
        .post_generate("synced", &growth(4), true)
        .expect("request");
    assert_eq!(reply.status, 200, "{}", reply.body);
    daemon.shutdown();
}
