//! The scoring context.
//!
//! [`ScovContext`] bundles everything needed to evaluate subgraph coverage
//! the MIDAS way: the FCT-Index and the edge catalog for dominance
//! filtering (§6.1), and
//! the lazy sample `D_s` that bounds the cost. `scov` is read from covered
//! counts ([`ScovContext::scov_of`]) that candidate generation computes
//! once and the swap carries.

use midas_graph::{GraphDb, GraphId, LabeledGraph, MatchKernel};
use midas_index::scov::{candidate_graphs, covered_graphs, profile_pattern, verify_with};
use midas_index::FctIndex;
use midas_mining::EdgeCatalog;
use std::collections::BTreeSet;

/// Everything needed to compute `scov` and the MIDAS pattern score `s'_p`.
pub struct ScovContext<'a> {
    /// The FCT-Index.
    pub fct: &'a FctIndex,
    /// The database.
    pub db: &'a GraphDb,
    /// The sampled universe `D_s` (§6.1).
    pub sample: &'a BTreeSet<GraphId>,
    /// The edge catalog: the dominance filter's edge-label counts, and
    /// `lcov`.
    pub catalog: &'a EdgeCatalog,
    /// The memoized kernel for the isomorphism verification step. The
    /// property tests and the oracle pin its sets to brute-force VF2.
    pub kernel: &'a MatchKernel,
}

impl ScovContext<'_> {
    /// The sampled graphs containing `pattern`: [`Self::verify`] over
    /// [`Self::survivors`].
    pub fn covered(&self, pattern: &LabeledGraph) -> BTreeSet<GraphId> {
        covered_graphs(
            self.kernel,
            self.fct,
            self.catalog,
            self.db,
            pattern,
            self.sample,
        )
    }

    /// The sampled graphs that the dominance filter (§6.1) keeps for
    /// `pattern`, ascending. They contain every sampled graph that
    /// contains `pattern`.
    pub fn survivors(&self, pattern: &LabeledGraph) -> Vec<GraphId> {
        let profile = profile_pattern(self.fct, self.catalog, pattern);
        candidate_graphs(|f| self.fct.row(f), self.catalog, &profile, self.sample)
    }

    /// The graphs of `survivors` that contain `pattern`, verified through
    /// the kernel.
    pub fn verify(&self, pattern: &LabeledGraph, survivors: &[GraphId]) -> BTreeSet<GraphId> {
        verify_with(self.kernel, self.db, pattern, survivors)
    }

    /// `scov(p, D_s) = |G_p ∩ D_s| / |D_s|` from the covered count
    /// `|G_p ∩ D_s|`; 0 on an empty sample.
    pub fn scov_of(&self, covered: usize) -> f64 {
        if self.sample.is_empty() {
            return 0.0;
        }
        covered as f64 / self.sample.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_graph::GraphBuilder;
    use midas_mining::{tree_key, TreeEntry};

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    struct World {
        db: GraphDb,
        fct: FctIndex,
        catalog: EdgeCatalog,
    }

    fn world() -> World {
        let db = GraphDb::from_graphs([path(&[0, 1, 2]), path(&[0, 1]), path(&[3, 4])]);
        let refs: Vec<(GraphId, &LabeledGraph)> =
            db.iter().map(|(id, g)| (id, g.as_ref())).collect();
        // C-O-N, in the first graph only.
        let feature = path(&[0, 1, 2]);
        let key = tree_key(&feature);
        let entry = TreeEntry::new(feature, db.ids().take(1).collect());
        let fct = FctIndex::build([(&key, &entry)], &db);
        let catalog = EdgeCatalog::build(refs.iter().copied());
        World { db, fct, catalog }
    }

    #[test]
    fn scov_over_sample() {
        let w = world();
        let sample: BTreeSet<GraphId> = w.db.ids().collect();
        let ctx = ScovContext {
            fct: &w.fct,
            db: &w.db,
            sample: &sample,
            catalog: &w.catalog,
            kernel: &MatchKernel::new(),
        };
        let scov = |ctx: &ScovContext<'_>, p: &LabeledGraph| ctx.scov_of(ctx.covered(p).len());
        assert!((scov(&ctx, &path(&[0, 1])) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(scov(&ctx, &path(&[7, 7])), 0.0);
        let empty = BTreeSet::new();
        let ctx2 = ScovContext {
            sample: &empty,
            ..ctx
        };
        assert_eq!(scov(&ctx2, &path(&[0, 1])), 0.0);
    }
}
