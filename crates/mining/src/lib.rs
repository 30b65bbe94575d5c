//! # midas-mining
//!
//! Frequent-subtree and frequent-**closed**-tree (FCT) mining with
//! incremental maintenance, as required by CATAPULT / CATAPULT++ / MIDAS
//! (§2.3, §3.3, §4.1–4.2 of the paper).
//!
//! * [`canonical`] — the canonical form of labeled free trees and the
//!   BFS *canonical string* with `$` sibling-family separators (Fig. 5(c)),
//!   whose tokens feed the FCT-Index trie.
//! * [`treenat`] — a TreeNat-style enumerate-and-count miner producing the
//!   frequent-tree lattice of a graph database.
//! * [`lattice`] — the [`TreeLattice`]: every tracked tree with its exact
//!   supporting-graph set and a derived *closed* flag. A tree is closed iff
//!   no proper supertree has the same support (§3.3); with exact support
//!   sets this reduces to a supertree check inside equal-support buckets.
//! * [`incremental`] — batch maintenance (the CTMiningAdd / CTMiningDelete
//!   analogues, §4.2): supports are updated only against `Δ⁺`/`Δ⁻`, new
//!   trees are mined only from `Δ⁺`, and the lattice is tracked at the
//!   relaxed threshold `sup_min / 2` (Lemma 4.5) so trees that *become*
//!   frequent after an update are never missed.
//! * [`edges`] — the per-edge-label catalog of supports and occurrence
//!   counts (the `E_freq` / `E_inf` sets of §5.1, and the edge-label
//!   counts the dominance filter reads).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod canonical;
pub mod edges;
pub mod incremental;
pub mod lattice;
pub mod treenat;

pub use canonical::{tree_key, TreeKey, SEPARATOR};
pub use edges::{EdgeCatalog, EdgeStats};
pub use lattice::{TreeEntry, TreeLattice};
pub use treenat::{mine_lattice, MiningConfig};
