//! Functional-group motifs — the structural vocabulary of generated
//! molecules.
//!
//! Each [`Motif`] is a small labeled graph with designated *attachment
//! points*: vertices that the generator may fuse onto a molecule backbone.
//! Motif repetition across a dataset is what gives rise to frequent closed
//! trees and high-coverage canned patterns, mirroring how functional groups
//! recur across PubChem compounds (Example 1.1's boronic acid / Figure 2's
//! canned patterns).

use crate::vocabulary::{atom, Atom};
use midas_graph::{GraphBuilder, LabeledGraph, VertexId};

/// The built-in motif families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MotifKind {
    /// Benzene-like carbon 6-ring.
    BenzeneRing,
    /// Cyclopentane-like carbon 5-ring.
    FiveRing,
    /// Pyridine-like ring: five carbons and a nitrogen.
    PyridineRing,
    /// Thiophene-like ring: four carbons and a sulfur.
    ThiopheneRing,
    /// Carboxyl group: `C` bonded to two `O`.
    Carboxyl,
    /// Amine group: `C–N` with two `H` on the nitrogen.
    Amine,
    /// Amide group: `C(–O)(–N)`.
    Amide,
    /// Hydroxyl: `O–H` hanging off a carbon.
    Hydroxyl,
    /// Thiol: `C–S–H`.
    Thiol,
    /// Phosphate: `P` bonded to three `O`.
    Phosphate,
    /// Halide decoration: `C–Cl`.
    Chloride,
    /// Halide decoration: `C–F`.
    Fluoride,
    /// Boronic acid: `C–B(–O–H)(–O–H)` — Example 1.1's functional group.
    BoronicAcid,
    /// Boronic ester: `C–B(–O–C)(–O–C)` ring-closed — the novel family of
    /// Example 1.2 whose arrival makes a modification *major*.
    BoronicEster,
    /// Short carbon chain `C–C–C`.
    Chain,
    /// Cyclopropane: a carbon triangle — the smallest sp3 ring. Rare in
    /// the base datasets, so batches rich in it shift the graphlet
    /// distribution (triangles / tailed triangles) markedly.
    Cyclopropane,
    /// Bicyclobutane-like fused pair of triangles (a diamond graphlet) —
    /// the strongest topology marker of a novel scaffold family.
    FusedBicycle,
}

impl MotifKind {
    /// Every motif kind.
    pub const ALL: [MotifKind; 17] = [
        MotifKind::Cyclopropane,
        MotifKind::FusedBicycle,
        MotifKind::BenzeneRing,
        MotifKind::FiveRing,
        MotifKind::PyridineRing,
        MotifKind::ThiopheneRing,
        MotifKind::Carboxyl,
        MotifKind::Amine,
        MotifKind::Amide,
        MotifKind::Hydroxyl,
        MotifKind::Thiol,
        MotifKind::Phosphate,
        MotifKind::Chloride,
        MotifKind::Fluoride,
        MotifKind::BoronicAcid,
        MotifKind::BoronicEster,
        MotifKind::Chain,
    ];

    /// The motif's wire name (`"boronic_ester"`), as the serving API's
    /// generate specs spell it.
    pub fn name(self) -> &'static str {
        match self {
            MotifKind::BenzeneRing => "benzene_ring",
            MotifKind::FiveRing => "five_ring",
            MotifKind::PyridineRing => "pyridine_ring",
            MotifKind::ThiopheneRing => "thiophene_ring",
            MotifKind::Carboxyl => "carboxyl",
            MotifKind::Amine => "amine",
            MotifKind::Amide => "amide",
            MotifKind::Hydroxyl => "hydroxyl",
            MotifKind::Thiol => "thiol",
            MotifKind::Phosphate => "phosphate",
            MotifKind::Chloride => "chloride",
            MotifKind::Fluoride => "fluoride",
            MotifKind::BoronicAcid => "boronic_acid",
            MotifKind::BoronicEster => "boronic_ester",
            MotifKind::Chain => "chain",
            MotifKind::Cyclopropane => "cyclopropane",
            MotifKind::FusedBicycle => "fused_bicycle",
        }
    }

    /// The motif whose [`Self::name`] is `name`.
    pub fn from_name(name: &str) -> Option<MotifKind> {
        MotifKind::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// Builds the motif graph.
    pub fn build(self) -> Motif {
        let (c, o, n, s, p, cl, f, b, h) = (
            atom(Atom::C),
            atom(Atom::O),
            atom(Atom::N),
            atom(Atom::S),
            atom(Atom::P),
            atom(Atom::Cl),
            atom(Atom::F),
            atom(Atom::B),
            atom(Atom::H),
        );
        let (graph, attach) = match self {
            MotifKind::BenzeneRing => {
                let g = GraphBuilder::new()
                    .vertices(&[c; 6])
                    .path(&[0, 1, 2, 3, 4, 5])
                    .edge(5, 0)
                    .build();
                (g, vec![0, 2, 4])
            }
            MotifKind::FiveRing => {
                let g = GraphBuilder::new()
                    .vertices(&[c; 5])
                    .path(&[0, 1, 2, 3, 4])
                    .edge(4, 0)
                    .build();
                (g, vec![0, 2])
            }
            MotifKind::PyridineRing => {
                let g = GraphBuilder::new()
                    .vertices(&[n, c, c, c, c, c])
                    .path(&[0, 1, 2, 3, 4, 5])
                    .edge(5, 0)
                    .build();
                (g, vec![2, 4])
            }
            MotifKind::ThiopheneRing => {
                let g = GraphBuilder::new()
                    .vertices(&[s, c, c, c, c])
                    .path(&[0, 1, 2, 3, 4])
                    .edge(4, 0)
                    .build();
                (g, vec![2, 3])
            }
            MotifKind::Carboxyl => {
                let g = GraphBuilder::new()
                    .vertices(&[c, o, o])
                    .edge(0, 1)
                    .edge(0, 2)
                    .build();
                (g, vec![0])
            }
            MotifKind::Amine => {
                let g = GraphBuilder::new()
                    .vertices(&[c, n, h, h])
                    .edge(0, 1)
                    .edge(1, 2)
                    .edge(1, 3)
                    .build();
                (g, vec![0])
            }
            MotifKind::Amide => {
                let g = GraphBuilder::new()
                    .vertices(&[c, o, n, h])
                    .edge(0, 1)
                    .edge(0, 2)
                    .edge(2, 3)
                    .build();
                (g, vec![0, 2])
            }
            MotifKind::Hydroxyl => {
                let g = GraphBuilder::new()
                    .vertices(&[c, o, h])
                    .edge(0, 1)
                    .edge(1, 2)
                    .build();
                (g, vec![0])
            }
            MotifKind::Thiol => {
                let g = GraphBuilder::new()
                    .vertices(&[c, s, h])
                    .edge(0, 1)
                    .edge(1, 2)
                    .build();
                (g, vec![0])
            }
            MotifKind::Phosphate => {
                let g = GraphBuilder::new()
                    .vertices(&[p, o, o, o])
                    .edge(0, 1)
                    .edge(0, 2)
                    .edge(0, 3)
                    .build();
                (g, vec![1])
            }
            MotifKind::Chloride => {
                let g = GraphBuilder::new().vertices(&[c, cl]).edge(0, 1).build();
                (g, vec![0])
            }
            MotifKind::Fluoride => {
                let g = GraphBuilder::new().vertices(&[c, f]).edge(0, 1).build();
                (g, vec![0])
            }
            MotifKind::BoronicAcid => {
                // C–B(–O–H)(–O–H), attach at the carbon.
                let g = GraphBuilder::new()
                    .vertices(&[c, b, o, o, h, h])
                    .edge(0, 1)
                    .edge(1, 2)
                    .edge(1, 3)
                    .edge(2, 4)
                    .edge(3, 5)
                    .build();
                (g, vec![0])
            }
            MotifKind::BoronicEster => {
                // The pinacol-ester-like ring: B bonded to two O, each O to a
                // C, and the two C bonded — a 5-ring B-O-C-C-O.
                let g = GraphBuilder::new()
                    .vertices(&[c, b, o, o, c, c])
                    .edge(0, 1)
                    .edge(1, 2)
                    .edge(1, 3)
                    .edge(2, 4)
                    .edge(3, 5)
                    .edge(4, 5)
                    .build();
                (g, vec![0, 4])
            }
            MotifKind::Chain => {
                let g = GraphBuilder::new()
                    .vertices(&[c, c, c])
                    .path(&[0, 1, 2])
                    .build();
                (g, vec![0, 2])
            }
            MotifKind::Cyclopropane => {
                let g = GraphBuilder::new()
                    .vertices(&[c, c, c])
                    .edge(0, 1)
                    .edge(1, 2)
                    .edge(0, 2)
                    .build();
                (g, vec![0])
            }
            MotifKind::FusedBicycle => {
                // Two triangles sharing the (0, 1) edge.
                let g = GraphBuilder::new()
                    .vertices(&[c, c, c, c])
                    .edge(0, 1)
                    .edge(1, 2)
                    .edge(0, 2)
                    .edge(1, 3)
                    .edge(0, 3)
                    .build();
                (g, vec![2, 3])
            }
        };
        Motif {
            kind: self,
            graph,
            attachment_points: attach,
        }
    }
}

/// A motif graph with its attachment points.
#[derive(Debug, Clone)]
pub struct Motif {
    /// Which family this motif belongs to.
    pub kind: MotifKind,
    /// The motif structure.
    pub graph: LabeledGraph,
    /// Vertices the generator may fuse to the backbone.
    pub attachment_points: Vec<VertexId>,
}

/// A weighted mix of motifs — the "chemistry" of a dataset.
#[derive(Debug, Clone)]
pub struct MotifMix {
    entries: Vec<(MotifKind, f64)>,
}

impl MotifMix {
    /// Builds a mix from `(kind, weight)` pairs; non-positive weights are
    /// dropped.
    ///
    /// # Panics
    ///
    /// Panics if no entry has positive weight.
    pub fn new(entries: &[(MotifKind, f64)]) -> Self {
        let entries: Vec<(MotifKind, f64)> =
            entries.iter().copied().filter(|&(_, w)| w > 0.0).collect();
        assert!(!entries.is_empty(), "motif mix needs a positive weight");
        MotifMix { entries }
    }

    /// The `(kind, weight)` entries.
    pub fn entries(&self) -> &[(MotifKind, f64)] {
        &self.entries
    }

    /// Samples a motif kind proportionally to weight, using a uniform draw
    /// `u ∈ [0, 1)`.
    pub fn sample(&self, u: f64) -> MotifKind {
        let total: f64 = self.entries.iter().map(|&(_, w)| w).sum();
        let mut cut = u.clamp(0.0, 1.0 - f64::EPSILON) * total;
        for &(kind, w) in &self.entries {
            if cut < w {
                return kind;
            }
            cut -= w;
        }
        self.entries.last().expect("non-empty").0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_motif_name_round_trips() {
        for kind in MotifKind::ALL {
            assert_eq!(MotifKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(MotifKind::from_name("benzene"), None);
    }

    #[test]
    fn all_motifs_are_connected_simple_graphs() {
        for kind in MotifKind::ALL {
            let m = kind.build();
            assert!(m.graph.is_connected(), "{kind:?} must be connected");
            assert!(
                !m.attachment_points.is_empty(),
                "{kind:?} needs attach points"
            );
            for &ap in &m.attachment_points {
                assert!(
                    (ap as usize) < m.graph.vertex_count(),
                    "{kind:?} attach in range"
                );
            }
        }
    }

    #[test]
    fn boronic_acid_matches_paper_shape() {
        let m = MotifKind::BoronicAcid.build();
        // One B, two O, two H, one C.
        let mut labels = m.graph.sorted_labels();
        labels.dedup();
        assert!(labels.contains(&atom(Atom::B)));
        assert_eq!(m.graph.vertex_count(), 6);
        assert_eq!(m.graph.edge_count(), 5);
    }

    #[test]
    fn boronic_ester_contains_a_ring() {
        let m = MotifKind::BoronicEster.build();
        // |E| = |V| means exactly one cycle.
        assert_eq!(m.graph.edge_count(), m.graph.vertex_count());
    }

    #[test]
    fn mix_sampling_respects_weights() {
        let mix = MotifMix::new(&[(MotifKind::Chain, 1.0), (MotifKind::Carboxyl, 0.0)]);
        // Zero-weight entries are dropped entirely.
        assert_eq!(mix.entries().len(), 1);
        for u in [0.0, 0.3, 0.9999] {
            assert_eq!(mix.sample(u), MotifKind::Chain);
        }
        let mix2 = MotifMix::new(&[(MotifKind::Chain, 1.0), (MotifKind::Carboxyl, 3.0)]);
        assert_eq!(mix2.sample(0.1), MotifKind::Chain);
        assert_eq!(mix2.sample(0.5), MotifKind::Carboxyl);
        assert_eq!(mix2.sample(0.99), MotifKind::Carboxyl);
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn empty_mix_panics() {
        MotifMix::new(&[(MotifKind::Chain, 0.0)]);
    }
}
