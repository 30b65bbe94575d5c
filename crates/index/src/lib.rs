//! # midas-index
//!
//! The index structure MIDAS adds on top of CATAPULT (§5.1), and the
//! containment filter it powers:
//!
//! * [`FctIndex`] — the **FCT-Index** (Def. 5.1): a token trie over the
//!   canonical strings of the frequent closed trees with at least two
//!   edges, whose terminal nodes point into the trie-graph matrix (TG) of
//!   embedding counts over data graphs. It stores graph-side rows only,
//!   each feature's nonzero cells once in ascending graph-id order: one
//!   cell per graph of the tree's support, which the FCT lattice tracks
//!   exactly. Its one mutator, [`FctIndex::sync`], applies §5.1's "Index
//!   Maintenance" rules 1–4 by making every row follow its tree's
//!   support, counting only the cells a row lacks, with the plan the
//!   tree's lattice entry compiled.
//! * [`scov`] — the containment filter for subgraph coverage (§6.1): a
//!   pattern can only be contained in graphs whose counts dominate the
//!   pattern's, cutting subgraph-isomorphism checks drastically.
//!
//! The per-(edge label, graph) counts of Def. 5.1's frequent edges and of
//! Def. 5.2's IFE-Index (the EG matrix of infrequent edges) are not stored
//! here: the filter reads them from the edge catalog
//! ([`midas_mining::EdgeCatalog`]) that FCT maintenance keeps current, as
//! occurrence counts. The pattern side of Def. 5.1/5.2 (the TP/EP
//! matrices) is not stored either: [`scov::profile_pattern`] computes a
//! pattern's feature counts ([`FctIndex::pattern_counts`]) and edge-label
//! multiplicities on demand.
//!
//! Embedding counts saturate at [`EMBED_CAP`]; the dominance filter only
//! compares counts computed under the same cap, so saturation never causes
//! a false negative (see DESIGN.md §5).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fct_index;
pub mod scov;
pub mod trie;

pub use fct_index::{FctIndex, FeatureId};
pub use trie::Trie;

/// Saturation cap for embedding counts stored in the index matrices.
///
/// Dominance comparisons (`pattern count ≤ graph count`) remain sound under
/// a shared cap: if the pattern side saturates, the graph side either also
/// saturates (counts equal, filter passes — a false *positive* at worst,
/// resolved by the subsequent isomorphism check) or is genuinely smaller.
pub const EMBED_CAP: u64 = 64;
