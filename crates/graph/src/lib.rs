//! # midas-graph
//!
//! Graph substrate for the MIDAS canned-pattern maintenance framework
//! (Huang et al., SIGMOD 2021).
//!
//! This crate provides everything the higher layers need to talk about
//! *labeled, undirected, simple graphs* the way the paper does (§2.1):
//!
//! * [`LabeledGraph`] — vertex-labeled simple graphs with interned labels,
//!   plus [`GraphBuilder`] for ergonomic construction.
//! * [`GraphDb`] — a database `D` of small/medium data graphs with stable
//!   [`GraphId`]s and batch insert/delete ([`BatchUpdate`]), matching the
//!   paper's `D ⊕ ΔD` model (§3.1).
//! * [`ged`] — graph edit distance lower bounds: the label bound `GED_l`
//!   and the paper's tightened bound `GED'_l` (Lemma 6.1).
//! * [`graphlets`] — exact counting of all connected 3-node and 4-node
//!   graphlets and the graphlet frequency distribution `ψ` whose Euclidean
//!   drift classifies modifications as major/minor (§3.4).
//! * [`mccs`] — maximum connected common subgraph and the `ω_MCCS`
//!   similarity used by fine clustering (§2.3).
//! * [`closure`] — extended graphs and graph closure (Fig. 4), the
//!   building block of cluster summary graphs.
//! * [`canonical`] — canonical codes for small graphs, used to
//!   de-duplicate candidate patterns.
//! * [`csr`] — per-graph compressed-sparse-row views with per-label
//!   adjacency slices. [`GraphDb`] builds the only CSR of each data graph
//!   at insertion; the kernel and its memo borrow it.
//! * [`plan`] — patterns compiled once into static [`MatchPlan`]s
//!   (vertex order + per-level candidate filters) and interpreted over
//!   CSR label slices; the crate's one subgraph matcher, for containment
//!   tests, embedding counts and embedding enumeration.
//! * [`kernel`] — [`MatchKernel`], the memoized bulk
//!   operations (TG-matrix rows and grids, coverage scans) that run the
//!   plan matcher over `(GraphId, &Csr)` pairs from [`GraphDb`].
//! * [`exec`] — the serial task map every kernel `(graph × pattern)` scan
//!   runs through, with the `MIDAS_FAULT` injector; it catches no panic,
//!   so a failing task unwinds to the framework's phase backstop.
//! * [`cache`] — a single-owner [`EmbeddingCache`] memoizing capped embedding
//!   counts (and nothing else) per `(pattern canonical key, GraphId)`,
//!   invalidated per graph on batch updates.
//!
//! The references these are checked against — VF2 subgraph isomorphism
//! and exact GED — live in `midas-oracle`, which no production crate
//! depends on, so no production path can run them.
//!
//! All stochastic components take explicit seeds; nothing in this crate
//! reads ambient randomness, so every experiment is reproducible.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod canonical;
pub mod closure;
pub mod csr;
pub mod db;
pub mod exec;
pub mod fasthash;
pub mod ged;
pub mod graph;
pub mod graphlets;
pub mod io;
pub mod kernel;
pub mod labels;
pub mod mccs;
pub mod plan;

pub use cache::{CacheStats, CachedPattern, EmbeddingCache};
pub use canonical::CanonicalCode;
pub use closure::ClosureGraph;
pub use csr::Csr;
pub use db::{BatchUpdate, GraphDb, GraphId};
pub use graph::{EdgeLabel, GraphBuilder, LabeledGraph, VertexId};
pub use graphlets::{GraphletCounts, GraphletDistribution, GraphletKind};
pub use kernel::MatchKernel;
pub use labels::{Interner, LabelId};
pub use plan::MatchPlan;
