//! End-to-end integration tests: Algorithm 1 over generated datasets, the
//! paper's maintenance guarantees, and cross-structure consistency.

use midas_core::{Midas, ModificationKind};
use midas_datagen::updates::{deletion_percent, growth_percent, novel_family_batch};
use midas_datagen::{DatasetKind, DatasetSpec, MotifKind};
use midas_graph::{BatchUpdate, GraphId};
use midas_tests::test_config;

fn bootstrap(size: usize, seed: u64) -> Midas {
    let db = DatasetSpec::new(DatasetKind::PubchemLike, size, seed)
        .generate()
        .db;
    Midas::bootstrap(db, test_config(seed)).expect("non-empty db")
}

#[test]
fn bootstrap_produces_valid_pattern_set() {
    let midas = bootstrap(80, 1);
    let patterns = midas.patterns();
    assert!(!patterns.is_empty());
    let config = midas.config();
    for p in &patterns {
        assert!(p.is_connected(), "patterns are connected");
        assert!(p.edge_count() >= config.budget.eta_min);
        assert!(p.edge_count() <= config.budget.eta_max);
    }
    // Pairwise non-isomorphic.
    for i in 0..patterns.len() {
        for j in i + 1..patterns.len() {
            assert!(!midas_graph::canonical::are_isomorphic(
                &patterns[i],
                &patterns[j]
            ));
        }
    }
}

#[test]
fn same_distribution_growth_is_minor_and_patterns_stay() {
    let mut midas = bootstrap(80, 2);
    let before = midas.patterns();
    let update = growth_percent(&DatasetKind::PubchemLike.params(), midas.db(), 10.0, 22);
    let report = midas.apply_batch(update);
    assert_eq!(
        report.kind,
        ModificationKind::Minor,
        "drift {}",
        report.distance
    );
    assert_eq!(midas.patterns(), before, "minor modifications keep P");
    assert_eq!(report.swaps, 0);
}

#[test]
fn novel_family_is_major() {
    let mut midas = bootstrap(80, 3);
    let update = novel_family_batch(MotifKind::BoronicEster, 30, 33);
    let report = midas.apply_batch(update);
    assert_eq!(
        report.kind,
        ModificationKind::Major,
        "drift {}",
        report.distance
    );
}

#[test]
fn substrate_stays_consistent_across_batches() {
    let mut midas = bootstrap(60, 4);
    for round in 0..4u64 {
        let update = match round % 3 {
            0 => novel_family_batch(MotifKind::Phosphate, 15, 40 + round),
            1 => growth_percent(
                &DatasetKind::PubchemLike.params(),
                midas.db(),
                10.0,
                40 + round,
            ),
            _ => deletion_percent(midas.db(), 10.0, 40 + round),
        };
        midas.apply_batch(update);
        // Clusters partition the database exactly.
        assert_eq!(midas.clusters().total_members(), midas.db().len());
        for (id, _) in midas.db().iter() {
            let cid = midas.clusters().cluster_of(id).expect("graph clustered");
            assert!(midas
                .clusters()
                .get(cid)
                .expect("live")
                .members()
                .contains(&id));
        }
        // FCT supports only reference live graphs.
        for (_, entry) in midas.fct_state().lattice.iter() {
            for id in &entry.support {
                assert!(midas.db().contains(*id), "stale support id {id}");
            }
        }
        // Index graph columns only reference live graphs.
        for (_, gid, _) in midas.fct_index().cells() {
            assert!(midas.db().contains(gid));
        }
    }
}

#[test]
fn quality_guarantees_on_major_modification() {
    let mut midas = bootstrap(80, 5);
    let before = midas.quality();
    let report = midas.apply_batch(novel_family_batch(MotifKind::BoronicEster, 40, 55));
    assert_eq!(report.kind, ModificationKind::Major);
    let after = midas.quality();
    // sw3/sw4 guarantees translate into global diversity / cognitive-load
    // monotonicity regardless of the sample.
    assert!(
        after.div >= before.div - 1e-9,
        "sw3: {} -> {}",
        before.div,
        after.div
    );
    assert!(
        after.cog <= before.cog + 1e-9,
        "sw4: {} -> {}",
        before.cog,
        after.cog
    );
    // γ is preserved through swapping.
    assert_eq!(midas.patterns().len(), before_len_or(&midas));
}

fn before_len_or(midas: &Midas) -> usize {
    midas.pattern_store().len()
}

#[test]
fn empty_batch_is_harmless() {
    let mut midas = bootstrap(50, 6);
    let before = midas.patterns();
    let report = midas.apply_batch(BatchUpdate::default());
    assert_eq!(report.kind, ModificationKind::Minor);
    assert_eq!(midas.patterns(), before);
}

#[test]
fn deleting_most_of_the_database_survives() {
    let mut midas = bootstrap(50, 7);
    let victims: Vec<GraphId> = midas.db().ids().take(40).collect();
    let report = midas.apply_batch(BatchUpdate::delete_only(victims));
    assert_eq!(midas.db().len(), 10);
    assert_eq!(midas.clusters().total_members(), 10);
    let _ = report;
}

#[test]
fn maintenance_is_deterministic() {
    let run = || {
        let mut midas = bootstrap(60, 8);
        midas.apply_batch(novel_family_batch(MotifKind::BoronicEster, 25, 88));
        midas.patterns()
    };
    assert_eq!(run(), run());
}

#[test]
fn midas_maintenance_is_not_slower_than_rebuild() {
    // Strict speedup claims live in the release-mode benches (Fig 11/16);
    // under a debug build timing is noisy, so this only guards against a
    // regression where incremental maintenance becomes *dramatically*
    // slower than rebuilding from scratch.
    use midas_core::baselines::catapult_pp_from_scratch;
    let mut midas = bootstrap(120, 9);
    let update = novel_family_batch(MotifKind::BoronicEster, 30, 99);
    let report = midas.apply_batch(update);
    let scratch = catapult_pp_from_scratch(midas.db(), midas.config());
    assert!(
        report.pattern_maintenance_time < scratch.total_time * 3,
        "PMT {:?} must stay within 3x of the rebuild {:?}",
        report.pattern_maintenance_time,
        scratch.total_time
    );
}
