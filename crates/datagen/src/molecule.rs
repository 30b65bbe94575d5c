//! The molecule generator: backbones decorated with motifs.
//!
//! A molecule is generated as (1) a carbon backbone chain, (2) a number of
//! motifs fused onto random backbone atoms, (3) optional ring closures.
//! The result is a connected, simple, labeled graph in the size range of
//! PubChem/AIDS compounds.

use crate::motifs::{Motif, MotifKind, MotifMix};
use midas_graph::{LabeledGraph, VertexId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;

/// Shape parameters for generated molecules.
#[derive(Debug, Clone)]
pub struct MoleculeParams {
    /// Backbone length range (number of carbons), inclusive.
    pub backbone: (usize, usize),
    /// Number of motifs fused per molecule, inclusive range.
    pub motifs: (usize, usize),
    /// Probability of one extra ring-closure edge on the backbone.
    pub ring_closure_prob: f64,
    /// Probability that a backbone atom is a heteroatom (N/O/S) rather
    /// than carbon. Heteroatom interruptions keep label-generic carbon
    /// chains from covering every molecule, mirroring real repositories
    /// where subgraph coverage saturates below 1 (§7.3's scov 0.94–0.98).
    pub hetero_prob: f64,
    /// The motif mix.
    pub mix: MotifMix,
}

impl MoleculeParams {
    /// A broad default resembling mid-sized organic compounds.
    pub fn organic_default() -> Self {
        MoleculeParams {
            backbone: (3, 8),
            motifs: (1, 4),
            ring_closure_prob: 0.25,
            hetero_prob: 0.2,
            mix: MotifMix::new(&[
                (MotifKind::BenzeneRing, 3.0),
                (MotifKind::FiveRing, 1.0),
                (MotifKind::Carboxyl, 2.0),
                (MotifKind::Amine, 2.0),
                (MotifKind::Hydroxyl, 2.5),
                (MotifKind::Chain, 3.0),
                (MotifKind::Chloride, 0.8),
            ]),
        }
    }
}

/// Seeded generator producing an endless, reproducible molecule stream.
#[derive(Debug)]
pub struct MoleculeGenerator {
    params: MoleculeParams,
    motif_cache: HashMap<MotifKind, Motif>,
    rng: StdRng,
}

impl MoleculeGenerator {
    /// Creates a generator with the given parameters and seed.
    pub fn new(params: MoleculeParams, seed: u64) -> Self {
        MoleculeGenerator {
            params,
            motif_cache: HashMap::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The parameters in use.
    pub fn params(&self) -> &MoleculeParams {
        &self.params
    }

    /// Generates one molecule.
    pub fn generate(&mut self) -> LabeledGraph {
        let backbone_len = self
            .rng
            .random_range(self.params.backbone.0..=self.params.backbone.1)
            .max(1);
        use crate::vocabulary::{atom, Atom};
        let mut g = LabeledGraph::new();
        for _ in 0..backbone_len {
            let label = if self.rng.random_bool(self.params.hetero_prob) {
                match self.rng.random_range(0..3u8) {
                    0 => atom(Atom::N),
                    1 => atom(Atom::O),
                    _ => atom(Atom::S),
                }
            } else {
                atom(Atom::C)
            };
            g.add_vertex(label);
        }
        for i in 1..backbone_len as VertexId {
            g.add_edge(i - 1, i);
        }
        // Optional backbone ring closure (length >= 4 keeps it simple).
        if backbone_len >= 4 && self.rng.random_bool(self.params.ring_closure_prob) {
            g.add_edge(0, backbone_len as VertexId - 1);
        }
        let motif_count = self
            .rng
            .random_range(self.params.motifs.0..=self.params.motifs.1);
        for _ in 0..motif_count {
            let u: f64 = self.rng.random();
            let kind = self.params.mix.sample(u);
            let anchor = self.rng.random_range(0..backbone_len) as VertexId;
            let motif = self
                .motif_cache
                .entry(kind)
                .or_insert_with(|| kind.build())
                .clone();
            fuse_motif(&mut g, &motif, anchor, &mut self.rng);
        }
        g
    }

    /// Generates `n` molecules.
    pub fn generate_many(&mut self, n: usize) -> Vec<LabeledGraph> {
        (0..n).map(|_| self.generate()).collect()
    }
}

/// Fuses `motif` onto `graph` by identifying one of its attachment points
/// with `anchor`; all other motif vertices are copied in fresh.
///
/// If the attachment point's label differs from the anchor's label, the
/// motif is connected by a bridging edge instead of vertex identification
/// (so labels are never rewritten).
pub fn fuse_motif(
    graph: &mut LabeledGraph,
    motif: &Motif,
    anchor: VertexId,
    rng: &mut StdRng,
) -> Vec<VertexId> {
    let ap_idx = rng.random_range(0..motif.attachment_points.len());
    let ap = motif.attachment_points[ap_idx];
    let identify = motif.graph.label(ap) == graph.label(anchor);
    let mut mapping: Vec<VertexId> = Vec::with_capacity(motif.graph.vertex_count());
    for v in motif.graph.vertices() {
        if identify && v == ap {
            mapping.push(anchor);
        } else {
            mapping.push(graph.add_vertex(motif.graph.label(v)));
        }
    }
    for &(u, v) in motif.graph.edges() {
        let (mu, mv) = (mapping[u as usize], mapping[v as usize]);
        if !graph.has_edge(mu, mv) {
            graph.add_edge(mu, mv);
        }
    }
    if !identify {
        graph.add_edge(anchor, mapping[ap as usize]);
    }
    mapping
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::motifs::MotifKind;
    use midas_graph::{Csr, MatchPlan};

    #[test]
    fn generated_molecules_are_connected_and_sized() {
        let mut generator = MoleculeGenerator::new(MoleculeParams::organic_default(), 7);
        for _ in 0..50 {
            let g = generator.generate();
            assert!(g.is_connected());
            assert!(g.vertex_count() >= 3);
            assert!(g.edge_count() >= 2);
            assert!(g.vertex_count() <= 60, "molecules stay small");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = MoleculeGenerator::new(MoleculeParams::organic_default(), 42).generate_many(10);
        let b = MoleculeGenerator::new(MoleculeParams::organic_default(), 42).generate_many(10);
        assert_eq!(a, b);
        let c = MoleculeGenerator::new(MoleculeParams::organic_default(), 43).generate_many(10);
        assert_ne!(a, c);
    }

    #[test]
    fn fuse_identifies_matching_labels() {
        let mut rng = StdRng::seed_from_u64(1);
        let carbon = crate::vocabulary::atom(crate::vocabulary::Atom::C);
        let mut g = LabeledGraph::new();
        g.add_vertex(carbon);
        let motif = MotifKind::Carboxyl.build(); // attach point is the C
        let before = g.vertex_count();
        fuse_motif(&mut g, &motif, 0, &mut rng);
        // The carboxyl C is identified with the anchor: only O, O added.
        assert_eq!(g.vertex_count(), before + motif.graph.vertex_count() - 1);
        assert!(g.is_connected());
    }

    #[test]
    fn fuse_bridges_mismatched_labels() {
        let mut rng = StdRng::seed_from_u64(1);
        let oxygen = crate::vocabulary::atom(crate::vocabulary::Atom::O);
        let mut g = LabeledGraph::new();
        g.add_vertex(oxygen);
        let motif = MotifKind::Carboxyl.build(); // attach point label C != O
        fuse_motif(&mut g, &motif, 0, &mut rng);
        assert_eq!(g.vertex_count(), 1 + motif.graph.vertex_count());
        assert!(g.is_connected());
    }

    #[test]
    fn motif_heavy_mix_produces_motif_subgraphs() {
        let params = MoleculeParams {
            backbone: (3, 3),
            motifs: (2, 2),
            ring_closure_prob: 0.0,
            hetero_prob: 0.0,
            mix: MotifMix::new(&[(MotifKind::Carboxyl, 1.0)]),
        };
        let mut generator = MoleculeGenerator::new(params, 5);
        let g = generator.generate();
        let motif = MotifKind::Carboxyl.build();
        assert!(
            MatchPlan::compile(&motif.graph).is_subgraph_of(&Csr::from_graph(&g)),
            "generated molecule must contain its motif"
        );
    }
}
