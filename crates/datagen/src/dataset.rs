//! Dataset presets mirroring the paper's evaluation datasets (§7.1).
//!
//! `AIDS`, `PubChem` and `eMolecules` differ in compound size and chemistry;
//! the presets here differ in backbone range and motif mix the same way.
//! Sizes are *scaled down* from the paper (thousands instead of 25K–1M) so
//! every experiment runs at laptop scale; see DESIGN.md §3.

use crate::molecule::{MoleculeGenerator, MoleculeParams};
use crate::motifs::{MotifKind, MotifMix};
use midas_graph::{GraphDb, Interner};

/// Which paper dataset a preset imitates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// AIDS antiviral screen: ring-heavy, nitrogen/sulfur-rich compounds.
    AidsLike,
    /// PubChem: a broad organic mix.
    PubchemLike,
    /// eMolecules: smaller, simpler building-block compounds.
    EmolLike,
}

impl DatasetKind {
    /// Every dataset kind.
    pub const ALL: [DatasetKind; 3] = [
        DatasetKind::AidsLike,
        DatasetKind::PubchemLike,
        DatasetKind::EmolLike,
    ];

    /// The preset's wire name (`"pubchem_like"`), as the serving API and
    /// `MIDAS_SERVE_TENANTS` spell it.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::AidsLike => "aids_like",
            DatasetKind::PubchemLike => "pubchem_like",
            DatasetKind::EmolLike => "emol_like",
        }
    }

    /// The preset whose [`Self::name`] is `name`.
    pub fn from_name(name: &str) -> Option<DatasetKind> {
        DatasetKind::ALL
            .into_iter()
            .find(|kind| kind.name() == name)
    }

    /// The molecule parameters for this preset.
    pub fn params(self) -> MoleculeParams {
        match self {
            DatasetKind::AidsLike => MoleculeParams {
                backbone: (4, 9),
                motifs: (2, 4),
                ring_closure_prob: 0.35,
                hetero_prob: 0.25,
                mix: MotifMix::new(&[
                    (MotifKind::BenzeneRing, 3.0),
                    (MotifKind::PyridineRing, 2.5),
                    (MotifKind::ThiopheneRing, 1.5),
                    (MotifKind::Amine, 2.5),
                    (MotifKind::Amide, 2.0),
                    (MotifKind::Thiol, 1.5),
                    (MotifKind::Hydroxyl, 1.5),
                    (MotifKind::Chain, 1.0),
                ]),
            },
            DatasetKind::PubchemLike => MoleculeParams {
                backbone: (3, 8),
                motifs: (1, 4),
                ring_closure_prob: 0.25,
                hetero_prob: 0.2,
                mix: MotifMix::new(&[
                    (MotifKind::BenzeneRing, 3.0),
                    (MotifKind::FiveRing, 1.0),
                    (MotifKind::Carboxyl, 2.5),
                    (MotifKind::Amine, 2.0),
                    (MotifKind::Hydroxyl, 2.5),
                    (MotifKind::Chain, 3.0),
                    (MotifKind::Chloride, 0.8),
                    (MotifKind::Fluoride, 0.5),
                    (MotifKind::Phosphate, 0.7),
                    (MotifKind::BoronicAcid, 0.4),
                ]),
            },
            DatasetKind::EmolLike => MoleculeParams {
                backbone: (2, 5),
                motifs: (1, 2),
                ring_closure_prob: 0.15,
                hetero_prob: 0.15,
                mix: MotifMix::new(&[
                    (MotifKind::BenzeneRing, 2.0),
                    (MotifKind::Carboxyl, 1.5),
                    (MotifKind::Amine, 1.5),
                    (MotifKind::Hydroxyl, 2.0),
                    (MotifKind::Chain, 3.0),
                    (MotifKind::Chloride, 1.0),
                ]),
            },
        }
    }

    /// Human-readable name matching the paper's dataset naming
    /// (`<Y><X>` with Y the dataset and X the size, e.g. `AIDS25K`).
    pub fn display_name(self, size: usize) -> String {
        let base = match self {
            DatasetKind::AidsLike => "AIDS",
            DatasetKind::PubchemLike => "PubChem",
            DatasetKind::EmolLike => "eMol",
        };
        if size >= 1000 && size.is_multiple_of(1000) {
            format!("{base}{}K", size / 1000)
        } else {
            format!("{base}{size}")
        }
    }
}

/// A full dataset specification.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Which preset to imitate.
    pub kind: DatasetKind,
    /// Number of data graphs to generate.
    pub size: usize,
    /// RNG seed.
    pub seed: u64,
}

impl DatasetSpec {
    /// Creates a spec.
    pub fn new(kind: DatasetKind, size: usize, seed: u64) -> Self {
        DatasetSpec { kind, size, seed }
    }

    /// Generates the dataset.
    pub fn generate(&self) -> GeneratedDataset {
        let mut generator = MoleculeGenerator::new(self.kind.params(), self.seed);
        let db = GraphDb::from_graphs(generator.generate_many(self.size));
        GeneratedDataset {
            name: self.kind.display_name(self.size),
            kind: self.kind,
            db,
            interner: crate::vocabulary::vocabulary(),
        }
    }
}

/// A generated dataset: database plus label interner and provenance.
#[derive(Debug)]
pub struct GeneratedDataset {
    /// Paper-style name, e.g. `AIDS1K`.
    pub name: String,
    /// The preset used.
    pub kind: DatasetKind,
    /// The data graphs.
    pub db: GraphDb,
    /// Labels for display.
    pub interner: Interner,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_dataset_name_round_trips() {
        for kind in DatasetKind::ALL {
            assert_eq!(DatasetKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(DatasetKind::from_name("pubchem"), None);
    }

    #[test]
    fn generate_produces_requested_size() {
        let ds = DatasetSpec::new(DatasetKind::EmolLike, 25, 3).generate();
        assert_eq!(ds.db.len(), 25);
        assert_eq!(ds.name, "eMol25");
        assert!(ds.db.iter().all(|(_, g)| g.is_connected()));
    }

    #[test]
    fn display_names_follow_paper_convention() {
        assert_eq!(DatasetKind::AidsLike.display_name(25_000), "AIDS25K");
        assert_eq!(DatasetKind::PubchemLike.display_name(23_000), "PubChem23K");
        assert_eq!(DatasetKind::EmolLike.display_name(500), "eMol500");
    }

    #[test]
    fn kinds_produce_different_chemistry() {
        let aids = DatasetSpec::new(DatasetKind::AidsLike, 30, 1).generate();
        let emol = DatasetSpec::new(DatasetKind::EmolLike, 30, 1).generate();
        let avg = |db: &GraphDb| {
            db.iter().map(|(_, g)| g.edge_count()).sum::<usize>() as f64 / db.len() as f64
        };
        assert!(
            avg(&aids.db) > avg(&emol.db),
            "AIDS-like compounds are larger than eMol-like ones"
        );
    }

    #[test]
    fn deterministic_generation() {
        let a = DatasetSpec::new(DatasetKind::PubchemLike, 10, 9).generate();
        let b = DatasetSpec::new(DatasetKind::PubchemLike, 10, 9).generate();
        let ga: Vec<_> = a.db.iter().map(|(_, g)| g.clone()).collect();
        let gb: Vec<_> = b.db.iter().map(|(_, g)| g.clone()).collect();
        assert_eq!(ga, gb);
    }
}
