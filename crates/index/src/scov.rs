//! Index-accelerated subgraph coverage (§6.1).
//!
//! > "if a pattern `p` is contained in a graph `G`, then the corresponding
//! > column entries for `p` in TP-matrix must be smaller than or equal to
//! > that of `G` in TG-matrix."
//!
//! Given a pattern, we compute its profile (embedding counts of the
//! FCT-Index features, and the multiplicity of each of its edge labels),
//! intersect the graphs whose counts dominate it, and only verify
//! isomorphism on the survivors — exactly the `(p₃, G₈), (p₃, G₉)`
//! pruning of the paper's example.
//!
//! Edge labels are read from the [`EdgeCatalog`]'s occurrence counts,
//! frequent and infrequent alike. Def. 5.1 keeps a frequent edge as a
//! one-edge FCT-Index row of embedding counts, but that count is the
//! label's occurrence count, doubled when both end labels are equal, and
//! capped at [`EMBED_CAP`](crate::EMBED_CAP). For a pattern with fewer
//! than 32 edges of one label neither side saturates, so the two tests
//! keep the same graphs (DESIGN.md §5).

use crate::fct_index::{FctIndex, FeatureId};
use midas_graph::{Csr, EdgeLabel, GraphDb, GraphId, LabeledGraph, MatchKernel};
use midas_mining::EdgeCatalog;
use std::collections::{BTreeMap, BTreeSet};

/// A pattern's profile against the current FCT-Index and edge catalog.
#[derive(Debug, Clone, Default)]
pub struct PatternProfile {
    /// Counts over FCT-Index features (only non-zero entries).
    pub fct_counts: Vec<(FeatureId, u32)>,
    /// The pattern's edge-label multiplicities, in label order, for the
    /// labels the catalog holds.
    pub edge_counts: Vec<(EdgeLabel, u32)>,
}

/// Computes the profile of an arbitrary (candidate or canned) pattern:
/// its TP column of Def. 5.1, counted on demand by
/// [`FctIndex::pattern_counts`], and the number of its edges with each
/// label of `catalog`. A label the catalog lacks is left out, so it adds
/// no constraint.
pub fn profile_pattern(
    fct: &FctIndex,
    catalog: &EdgeCatalog,
    pattern: &LabeledGraph,
) -> PatternProfile {
    let mut edge_counts: BTreeMap<EdgeLabel, u32> = BTreeMap::new();
    for label in pattern.edge_labels() {
        *edge_counts.entry(label).or_insert(0) += 1;
    }
    PatternProfile {
        fct_counts: fct.pattern_counts(pattern),
        edge_counts: edge_counts
            .into_iter()
            .filter(|&(label, _)| catalog.get(label).is_some())
            .collect(),
    }
}

/// Returns the ids of graphs in `universe` whose TG column and catalog
/// occurrence counts dominate `profile` — the candidate set that still
/// needs isomorphism verification — in ascending order.
///
/// `row` gives a feature's TG row ([`FctIndex::row`]): its nonzero
/// counts in ascending `GraphId` order, empty for a feature without one.
/// `universe` bounds the candidates (e.g. a sampled database `D_s`). When
/// the profile is empty the filter is vacuous and the whole universe
/// returns. TG rows and occurrence maps iterate in `GraphId` order, so
/// each profile entry narrows the sorted survivors with one merge pass.
/// A label absent from `catalog` adds no constraint.
pub fn candidate_graphs<'a>(
    row: impl Fn(FeatureId) -> &'a [(GraphId, u32)],
    catalog: &EdgeCatalog,
    profile: &PatternProfile,
    universe: &BTreeSet<GraphId>,
) -> Vec<GraphId> {
    fn narrow(survivors: &mut Vec<GraphId>, row: impl Iterator<Item = (GraphId, u32)>, need: u32) {
        let mut row = row.peekable();
        survivors.retain(|&id| {
            while row.next_if(|&(g, _)| g < id).is_some() {}
            row.next_if(|&(g, _)| g == id)
                .is_some_and(|(_, c)| c >= need)
        });
    }
    let mut survivors: Vec<GraphId> = universe.iter().copied().collect();
    for &(fid, need) in &profile.fct_counts {
        if survivors.is_empty() {
            break;
        }
        narrow(&mut survivors, row(fid).iter().copied(), need);
    }
    for &(label, need) in &profile.edge_counts {
        if survivors.is_empty() {
            break;
        }
        if let Some(stats) = catalog.get(label) {
            narrow(
                &mut survivors,
                stats.occurrences.iter().map(|(&g, &c)| (g, c)),
                need,
            );
        }
    }
    survivors
}

/// Computes the exact set of graphs in `universe` containing `pattern`:
/// the dominance filter, then the surviving candidates' CSR views (from
/// [`GraphDb::csr`]) verified through `kernel` (cached per `(pattern,
/// GraphId)`, the compiled plan on misses).
pub fn covered_graphs(
    kernel: &MatchKernel,
    fct: &FctIndex,
    catalog: &EdgeCatalog,
    db: &GraphDb,
    pattern: &LabeledGraph,
    universe: &BTreeSet<GraphId>,
) -> BTreeSet<GraphId> {
    let profile = profile_pattern(fct, catalog, pattern);
    let survivors = candidate_graphs(|f| fct.row(f), catalog, &profile, universe);
    verify_with(kernel, db, pattern, &survivors)
}

/// The verification half of [`covered_graphs`]: the graphs of
/// `survivors` that contain `pattern`, each tested through `kernel` on
/// its CSR view. Ids the database lacks are dropped.
pub fn verify_with(
    kernel: &MatchKernel,
    db: &GraphDb,
    pattern: &LabeledGraph,
    survivors: &[GraphId],
) -> BTreeSet<GraphId> {
    let candidates: Vec<(GraphId, &Csr)> = survivors
        .iter()
        .filter_map(|&id| db.csr(id).map(|g| (id, g)))
        .collect();
    kernel
        .covered_in(pattern, &candidates)
        .into_iter()
        .zip(&candidates)
        .filter_map(|(hit, &(id, _))| hit.then_some(id))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_graph::{GraphBuilder, MatchPlan};
    use midas_mining::{tree_key, TreeEntry};

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    fn setup() -> (FctIndex, EdgeCatalog, GraphDb) {
        // DB: G0 = C-O-N-S, G1 = C-O-C, G2 = S-N.
        let db = GraphDb::from_graphs([path(&[0, 1, 2, 3]), path(&[0, 1, 0]), path(&[3, 2])]);
        let feature = path(&[1, 0, 1]); // O-C-O
        let plan = MatchPlan::compile(&feature);
        let support = db.csrs().filter(|(_, g)| plan.is_subgraph_of(g));
        let support = support.map(|(id, _)| id).collect();
        let entry = (tree_key(&feature), TreeEntry::new(feature, support));
        let fct = FctIndex::build([(&entry.0, &entry.1)], &db);
        let catalog = EdgeCatalog::build(db.iter().map(|(id, g)| (id, g.as_ref())));
        (fct, catalog, db)
    }

    #[test]
    fn profile_counts_features_and_infrequent_edges() {
        // O-N is in one graph of three, C-O in two: an infrequent label is
        // profiled as a frequent one is.
        let (fct, catalog, _) = setup();
        let pattern = path(&[1, 0, 1, 2]); // O-C-O-N
        let profile = profile_pattern(&fct, &catalog, &pattern);
        assert_eq!(profile.fct_counts.len(), 1);
        assert_eq!(
            profile.edge_counts,
            vec![(EdgeLabel::new(0, 1), 2), (EdgeLabel::new(1, 2), 1)]
        );
    }

    #[test]
    fn dominance_filter_prunes_incompatible_graphs() {
        let (fct, catalog, db) = setup();
        let universe: BTreeSet<GraphId> = db.ids().collect();
        let ids: Vec<GraphId> = db.ids().collect();
        let survivors = |labels: &[u32]| {
            let profile = profile_pattern(&fct, &catalog, &path(labels));
            candidate_graphs(|f| fct.row(f), &catalog, &profile, &universe)
        };
        // Only G0 has both a C-O and an O-N edge.
        assert_eq!(survivors(&[0, 1, 2]), vec![ids[0]]);
        // Only G1 has two C-O edges, but its O-C-O row is empty: the
        // feature prunes what the edge labels let through.
        assert_eq!(survivors(&[0, 1, 0]), vec![ids[1]]);
        assert!(survivors(&[1, 0, 1]).is_empty());
    }

    #[test]
    fn empty_profile_returns_universe() {
        let (fct, catalog, db) = setup();
        let universe: BTreeSet<GraphId> = db.ids().collect();
        // A pattern over labels unknown to the index and the catalog: P-P.
        let pattern = path(&[4, 4]);
        let profile = profile_pattern(&fct, &catalog, &pattern);
        assert!(profile.fct_counts.is_empty());
        assert!(profile.edge_counts.is_empty());
        let candidates = candidate_graphs(|f| fct.row(f), &catalog, &profile, &universe);
        assert_eq!(candidates, universe.iter().copied().collect::<Vec<_>>());
        // But verification still rejects everything.
        let kernel = MatchKernel::new();
        assert!(covered_graphs(&kernel, &fct, &catalog, &db, &pattern, &universe).is_empty());
    }

    #[test]
    fn covered_graphs_respects_universe() {
        let (fct, catalog, db) = setup();
        let universe: BTreeSet<GraphId> = db.ids().collect();
        let pattern = path(&[0, 1]); // in G0 and G1
        let kernel = MatchKernel::new();
        assert_eq!(
            covered_graphs(&kernel, &fct, &catalog, &db, &pattern, &universe),
            db.ids().take(2).collect()
        );
        // Restrict the universe to G2 only.
        let small: BTreeSet<GraphId> = db.ids().skip(2).collect();
        assert!(covered_graphs(&kernel, &fct, &catalog, &db, &pattern, &small).is_empty());
    }
}
