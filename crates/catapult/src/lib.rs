//! # midas-catapult
//!
//! The CATAPULT canned-pattern selection (CPS) framework (§2.3 of the MIDAS
//! paper; Huang et al., SIGMOD 2019), which MIDAS builds on and maintains.
//!
//! Selection works on the cluster summary graphs (CSGs) produced by
//! `midas-cluster`:
//!
//! 1. [`weights`] — every CSG edge gets weight
//!    `w_e = lcov(e, D) × lcov(e, C)`;
//! 2. [`random_walk`] — `x` weighted random walks per CSG collect edge
//!    traversal statistics;
//! 3. [`candidates`] — per pattern size `η ∈ [η_min, η_max]`, connected
//!    subgraphs built from the most-traversed edges form the potential /
//!    final candidate patterns (PCP → FCP), with an optional
//!    early-termination hook used by MIDAS's coverage pruning (§5.2);
//! 4. [`score`] — the pattern score `s_p` of Def. 2.1 (cluster coverage ×
//!    label coverage × diversity / cognitive load) and MIDAS's adapted
//!    `s'_p` (§6.1);
//! 5. [`select`] — the greedy selection loop with multiplicative-weights
//!    updates \[7\], yielding the canned pattern set `P`.
//!
//! The same code implements the CATAPULT++ baseline: the only differences —
//! FCT-based clustering features and index construction — live in the
//! calling layer (`midas-core`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod candidates;
pub mod random_walk;
pub mod score;
pub mod select;
pub mod weights;

pub use candidates::{generate_fcp, CandidateHook};
pub use score::{lcov_pattern, pattern_score, PatternScoreParts};
pub use select::{
    select_patterns, select_patterns_with_stats, PatternBudget, SelectionConfig, SelectionStats,
    MWU_PENALTY,
};
pub use weights::WeightedCsg;
