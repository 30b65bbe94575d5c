//! Integration test for the differential oracle harness: a full run on a
//! fixed seed must come back clean (every fast path agrees with its
//! serial reference twin) and the report must serialize as valid JSON.

use midas_oracle::{graph_json, minimize_pair, Oracle};

#[test]
fn full_oracle_run_is_clean_on_the_ci_seed() {
    let report = Oracle::new(7).run_all();
    assert!(
        report.is_clean(),
        "oracle divergences: {}",
        report.to_json()
    );
    // All thirteen checks ran and actually compared something.
    assert_eq!(report.checks.len(), 13);
    for check in &report.checks {
        assert!(check.cases > 0, "check {} ran zero cases", check.name);
    }
    let names: Vec<&str> = report.checks.iter().map(|c| c.name).collect();
    assert_eq!(
        names,
        [
            "kernel_vs_serial",
            "incremental_mining",
            "graphlet_monitor",
            "ged_bounds",
            "multi_scan_swap",
            "plan_vs_vf2",
            "serve_vs_library",
            "fine_cluster_memo",
            "swap_score_cache",
            "index_maintenance",
            "mccs_vs_reference",
            "candidates_vs_reference",
            "select_vs_reference",
        ]
    );
}

#[test]
fn oracle_runs_are_deterministic_for_a_seed() {
    let a = Oracle::new(11).run_all();
    let b = Oracle::new(11).run_all();
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn report_and_witness_json_validate() {
    let report = Oracle::new(7).run_all();
    midas_obs::json::validate(&report.to_json()).expect("report is valid JSON");
    let g = midas_graph::GraphBuilder::new()
        .vertices(&[0, 1, 2])
        .path(&[0, 1, 2])
        .build();
    midas_obs::json::validate(&graph_json(&g)).expect("graph witness is valid JSON");
}

#[test]
fn minimizer_finds_small_witnesses_for_planted_violations() {
    // Plant a fake "violation": the pair disagrees whenever both graphs
    // still contain an edge. The minimal witness is a single edge each.
    let chain = |n: u32| {
        let labels: Vec<u32> = (0..n).collect();
        let vs: Vec<u32> = (0..n).collect();
        midas_graph::GraphBuilder::new()
            .vertices(&labels)
            .path(&vs)
            .build()
    };
    let (a, b) = minimize_pair(&chain(6), &chain(5), |x, y| {
        x.edge_count() >= 1 && y.edge_count() >= 1
    });
    assert_eq!(a.vertex_count(), 2);
    assert_eq!(b.vertex_count(), 2);
    assert_eq!(a.edge_count(), 1);
    assert_eq!(b.edge_count(), 1);
}
