//! Feature vectors for coarse clustering (§2.3, §3.3).
//!
//! CATAPULT uses frequent subtrees (FS) as clustering features; CATAPULT++
//! and MIDAS replace them with frequent **closed** trees (FCT), which are
//! fewer and maintainable (§3.3). A graph's feature vector is binary:
//! dimension `j` is set iff the graph contains feature tree `j` — which is
//! exactly membership in that tree's support set, so vectors are read
//! directly off the [`midas_mining::TreeLattice`].

use midas_graph::GraphId;
use midas_mining::{TreeKey, TreeLattice};

/// A frozen feature basis: an ordered set of tree keys.
#[derive(Debug, Clone, Default)]
pub struct FeatureSpace {
    keys: Vec<TreeKey>,
}

/// A sparse binary feature vector: the sorted set of active dimensions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FeatureVector(pub Vec<u32>);

impl FeatureVector {
    /// Number of active dimensions.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no dimension is active.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Squared Euclidean distance to another binary vector:
    /// `|a| + |b| − 2 |a ∩ b|`.
    pub fn dist2(&self, other: &FeatureVector) -> f64 {
        let mut common = 0usize;
        let (mut i, mut j) = (0, 0);
        while i < self.0.len() && j < other.0.len() {
            match self.0[i].cmp(&other.0[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    common += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        (self.0.len() + other.0.len() - 2 * common) as f64
    }
}

impl FeatureSpace {
    /// Builds the basis from the lattice's frequent **closed** trees at
    /// `sup_min` (the CATAPULT++/MIDAS choice).
    pub fn from_fct(lattice: &TreeLattice, sup_min: f64, db_len: usize) -> Self {
        FeatureSpace {
            keys: lattice
                .frequent_closed(sup_min, db_len)
                .into_iter()
                .map(|(k, _)| k.clone())
                .collect(),
        }
    }

    /// Builds the basis from all frequent trees (the original CATAPULT
    /// choice, kept for the CATAPULT baseline).
    pub fn from_frequent(lattice: &TreeLattice, sup_min: f64, db_len: usize) -> Self {
        FeatureSpace {
            keys: lattice
                .frequent(sup_min, db_len)
                .into_iter()
                .map(|(k, _)| k.clone())
                .collect(),
        }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.keys.len()
    }

    /// The basis keys, in dimension order.
    pub fn keys(&self) -> &[TreeKey] {
        &self.keys
    }

    /// The feature vector of graph `id`, read off the lattice supports.
    ///
    /// Features whose key is no longer tracked in the lattice contribute 0
    /// (they have effectively left the basis).
    pub fn vector(&self, lattice: &TreeLattice, id: GraphId) -> FeatureVector {
        let dims = self
            .keys
            .iter()
            .enumerate()
            .filter_map(|(j, key)| {
                lattice
                    .get(key)
                    .is_some_and(|e| e.support.contains(&id))
                    .then_some(j as u32)
            })
            .collect();
        FeatureVector(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_graph::{GraphBuilder, GraphDb, LabeledGraph};
    use midas_mining::{mine_lattice, MiningConfig};

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    fn setup() -> (GraphDb, TreeLattice) {
        let db = GraphDb::from_graphs([
            path(&[0, 1, 2]),
            path(&[0, 1]),
            path(&[0, 1, 2]),
            path(&[3, 3]),
        ]);
        let ids: Vec<_> = db.ids().collect();
        let lattice = mine_lattice(
            &db,
            &ids,
            &MiningConfig {
                sup_min: 0.25,
                max_edges: 3,
            },
        );
        (db, lattice)
    }

    #[test]
    fn vectors_reflect_supports() {
        let (db, lattice) = setup();
        let space = FeatureSpace::from_frequent(&lattice, 0.25, db.len());
        assert!(space.dims() >= 3);
        let ids: Vec<_> = db.ids().collect();
        let v0 = space.vector(&lattice, ids[0]); // C-O-N
        let v3 = space.vector(&lattice, ids[3]); // S-S
        assert!(!v0.is_empty());
        assert!(!v3.is_empty());
        // Disjoint chemistry -> no overlap.
        assert_eq!(
            v0.dist2(&v3),
            (v0.len() + v3.len()) as f64,
            "no shared features"
        );
    }

    #[test]
    fn identical_graphs_have_zero_distance() {
        let (db, lattice) = setup();
        let space = FeatureSpace::from_frequent(&lattice, 0.25, db.len());
        let ids: Vec<_> = db.ids().collect();
        let a = space.vector(&lattice, ids[0]);
        let b = space.vector(&lattice, ids[2]);
        assert_eq!(a.dist2(&b), 0.0);
    }

    #[test]
    fn fct_basis_is_subset_of_frequent_basis() {
        let (db, lattice) = setup();
        let fct = FeatureSpace::from_fct(&lattice, 0.25, db.len());
        let all = FeatureSpace::from_frequent(&lattice, 0.25, db.len());
        assert!(fct.dims() <= all.dims());
        for key in fct.keys() {
            assert!(all.keys().contains(key));
        }
    }

    #[test]
    fn missing_lattice_key_contributes_zero() {
        let (db, mut lattice) = setup();
        let space = FeatureSpace::from_frequent(&lattice, 0.25, db.len());
        let key = space.keys()[0].clone();
        lattice.remove(&key);
        let id = db.ids().next().unwrap();
        let v = space.vector(&lattice, id);
        assert!(!v.0.contains(&0), "removed feature must be inactive");
    }

    #[test]
    fn dist2_is_symmetric_and_nonnegative() {
        let a = FeatureVector(vec![0, 2, 5]);
        let b = FeatureVector(vec![2, 3]);
        assert_eq!(a.dist2(&b), b.dist2(&a));
        assert_eq!(a.dist2(&b), 3.0); // |a|+|b|-2*1 = 3+2-2
        assert_eq!(a.dist2(&a), 0.0);
    }
}
