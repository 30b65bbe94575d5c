//! # midas-index
//!
//! The two index structures MIDAS adds on top of CATAPULT (§5.1):
//!
//! * [`FctIndex`] — the **FCT-Index** (Def. 5.1): a token trie over the
//!   canonical strings of frequent closed trees and frequent edges, whose
//!   terminal nodes point into the trie-graph matrix (TG) of embedding
//!   counts over data graphs.
//! * [`IfeIndex`] — the **IFE-Index** (Def. 5.2): the edge-graph (EG)
//!   matrix holding occurrence counts of infrequent edges.
//!
//! Both store graph-side rows only and are maintained incrementally under
//! database changes (§5.1 "Index Maintenance", rules 1–4). They power
//! [`scov`], the containment filter for subgraph coverage (§6.1): a
//! pattern can only be contained in graphs whose feature counts dominate
//! the pattern's, cutting subgraph-isomorphism checks drastically. The
//! pattern side of Def. 5.1/5.2 (the TP/EP matrices) is not stored: a
//! pattern's counts are computed on demand, one routine per index —
//! [`FctIndex::pattern_counts`] and [`IfeIndex::pattern_counts`] — and
//! form the profile [`scov`] filters with.
//!
//! Embedding counts saturate at [`EMBED_CAP`]; the dominance filter only
//! compares counts computed under the same cap, so saturation never causes
//! a false negative (see DESIGN.md §5).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fct_index;
pub mod ife_index;
pub mod scov;
pub mod sparse;
pub mod trie;

pub use fct_index::{FctIndex, FeatureId};
pub use ife_index::IfeIndex;
pub use sparse::SparseMatrix;
pub use trie::Trie;

/// Saturation cap for embedding counts stored in the index matrices.
///
/// Dominance comparisons (`pattern count ≤ graph count`) remain sound under
/// a shared cap: if the pattern side saturates, the graph side either also
/// saturates (counts equal, filter passes — a false *positive* at worst,
/// resolved by the subsequent isomorphism check) or is genuinely smaller.
pub const EMBED_CAP: u64 = 64;
