//! Batch-update (`ΔD`) generators (§3.1, §7.1).
//!
//! The paper denotes a batch addition (deletion) of `Y%` of `|D|` graphs as
//! `+Y%` (`−Y%`). Two flavours of additions matter:
//!
//! * [`growth_batch`] — more graphs from the *same* distribution: graphlet
//!   frequencies barely move, so MIDAS should classify the modification as
//!   *minor* (Type 2).
//! * [`novel_family_batch`] — graphs dominated by a previously unseen motif
//!   family (the boronic-ester scenario of Example 1.2): graphlet and label
//!   mass shifts, so the modification should be *major* (Type 1).

use crate::molecule::{MoleculeGenerator, MoleculeParams};
use crate::motifs::{MotifKind, MotifMix};
use midas_graph::{BatchUpdate, GraphDb, GraphId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Generates `n` insertions drawn from the same molecule distribution.
pub fn growth_batch(params: &MoleculeParams, n: usize, seed: u64) -> BatchUpdate {
    let mut generator = MoleculeGenerator::new(params.clone(), seed);
    BatchUpdate::insert_only(generator.generate_many(n))
}

/// Generates `n` insertions dominated by `family` — a distribution-shifting
/// batch like the 6 375 boronic esters of Example 1.2.
///
/// A novel compound family differs from the incumbent chemistry in two
/// ways: its functional group (`family`, fused into **every** graph) and
/// its scaffold topology. We give the scaffold an sp3-rich bridged-ring
/// character (cyclopropane / fused-bicycle motifs), which concentrates new
/// graphlet mass in the triangle / tailed-triangle / diamond dimensions —
/// exactly the drift MIDAS's selective-maintenance test watches for
/// (§3.4). Base datasets are ring-6/chain-dominated, so these dimensions
/// are near-empty before the batch.
pub fn novel_family_batch(family: MotifKind, n: usize, seed: u64) -> BatchUpdate {
    use crate::molecule::fuse_motif;
    use midas_graph::LabeledGraph as G;
    let params = MoleculeParams {
        backbone: (2, 4),
        motifs: (1, 2),
        ring_closure_prob: 0.0,
        hetero_prob: 0.1,
        mix: MotifMix::new(&[
            (MotifKind::Cyclopropane, 2.0),
            (MotifKind::FusedBicycle, 2.0),
        ]),
    };
    let mut generator = MoleculeGenerator::new(params, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let family_motif = family.build();
    let graphs: Vec<G> = (0..n)
        .map(|_| {
            let mut g = generator.generate();
            // Every member of the family carries the family motif.
            let anchor = rng.random_range(0..g.vertex_count()) as u32;
            fuse_motif(&mut g, &family_motif, anchor, &mut rng);
            g
        })
        .collect();
    BatchUpdate::insert_only(graphs)
}

/// Selects `n` random graphs of `db` for deletion (a `−Y%` batch).
pub fn deletion_batch(db: &GraphDb, n: usize, seed: u64) -> BatchUpdate {
    let ids: Vec<GraphId> = db.ids().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chosen = Vec::with_capacity(n.min(ids.len()));
    let mut pool = ids;
    for _ in 0..n.min(pool.len()) {
        let idx = rng.random_range(0..pool.len());
        chosen.push(pool.swap_remove(idx));
    }
    BatchUpdate::delete_only(chosen)
}

/// Convenience: a `+Y%` batch relative to the current database size.
pub fn growth_percent(
    params: &MoleculeParams,
    db: &GraphDb,
    percent: f64,
    seed: u64,
) -> BatchUpdate {
    let n = ((db.len() as f64) * percent / 100.0).round() as usize;
    growth_batch(params, n, seed)
}

/// Convenience: a `−Y%` batch relative to the current database size.
pub fn deletion_percent(db: &GraphDb, percent: f64, seed: u64) -> BatchUpdate {
    let n = ((db.len() as f64) * percent / 100.0).round() as usize;
    deletion_batch(db, n, seed)
}

/// The novel-family motif used throughout examples and experiments: the
/// boronic ester of Example 1.2.
pub fn boronic_ester_family() -> MotifKind {
    MotifKind::BoronicEster
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetKind, DatasetSpec};
    use midas_graph::{Csr, MatchPlan};

    /// Whether `graph` contains the given motif family.
    fn contains_family(graph: &midas_graph::LabeledGraph, family: MotifKind) -> bool {
        let motif = family.build();
        MatchPlan::compile(&motif.graph).is_subgraph_of(&Csr::from_graph(graph))
    }

    #[test]
    fn growth_batch_matches_distribution_size() {
        let params = DatasetKind::EmolLike.params();
        let b = growth_batch(&params, 12, 5);
        assert_eq!(b.insert.len(), 12);
        assert!(b.delete.is_empty());
    }

    #[test]
    fn novel_family_graphs_contain_the_family() {
        let b = novel_family_batch(MotifKind::BoronicEster, 10, 5);
        for g in &b.insert {
            assert!(contains_family(g, MotifKind::BoronicEster));
        }
    }

    #[test]
    fn deletion_batch_picks_distinct_live_ids() {
        let ds = DatasetSpec::new(DatasetKind::EmolLike, 20, 1).generate();
        let b = deletion_batch(&ds.db, 5, 2);
        assert_eq!(b.delete.len(), 5);
        let mut ids = b.delete.clone();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 5, "no duplicates");
        assert!(ids.iter().all(|&id| ds.db.contains(id)));
    }

    #[test]
    fn deletion_batch_caps_at_db_size() {
        let ds = DatasetSpec::new(DatasetKind::EmolLike, 3, 1).generate();
        let b = deletion_batch(&ds.db, 10, 2);
        assert_eq!(b.delete.len(), 3);
    }

    #[test]
    fn percent_helpers() {
        let ds = DatasetSpec::new(DatasetKind::EmolLike, 40, 1).generate();
        let params = DatasetKind::EmolLike.params();
        assert_eq!(growth_percent(&params, &ds.db, 10.0, 3).insert.len(), 4);
        assert_eq!(deletion_percent(&ds.db, 25.0, 3).delete.len(), 10);
    }

    #[test]
    fn novel_family_shifts_graphlet_distribution() {
        use midas_graph::graphlets::{count_graphlets, GraphletCounts};
        let ds = DatasetSpec::new(DatasetKind::EmolLike, 60, 1).generate();
        let mut base = GraphletCounts::default();
        for (_, g) in ds.db.iter() {
            base.add(&count_graphlets(g));
        }
        // Same-distribution growth: small drift.
        let grow = growth_batch(&DatasetKind::EmolLike.params(), 30, 9);
        let mut grown = base;
        for g in &grow.insert {
            grown.add(&count_graphlets(g));
        }
        let drift_minor = base
            .distribution()
            .euclidean_distance(&grown.distribution());
        // Novel family: large drift.
        let novel = novel_family_batch(MotifKind::BoronicEster, 30, 9);
        let mut shifted = base;
        for g in &novel.insert {
            shifted.add(&count_graphlets(g));
        }
        let drift_major = base
            .distribution()
            .euclidean_distance(&shifted.distribution());
        assert!(
            drift_major > drift_minor,
            "novel family must shift graphlets more: {drift_major} vs {drift_minor}"
        );
    }
}
