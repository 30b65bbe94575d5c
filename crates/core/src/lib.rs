//! # midas-core
//!
//! MIDAS — **M**a**I**ntenance of canne**D** p**A**ttern**S** — the
//! end-to-end framework of Huang et al., *MIDAS: Towards Efficient and
//! Effective Maintenance of Canned Patterns in Visual Graph Query
//! Interfaces* (SIGMOD 2021).
//!
//! Given a graph database `D` with a canned pattern set `P` on a visual
//! query interface, MIDAS maintains `P` as `D` evolves through batch
//! updates `ΔD`, guaranteeing the refreshed set keeps high coverage and
//! diversity without raising cognitive load (Def. 3.1):
//!
//! * [`monitor`] — graphlet-frequency drift classifies each batch as a
//!   *major* or *minor* modification (§3.4);
//! * [`framework`] — [`Midas`] implements Algorithm 1: cluster and CSG
//!   maintenance always run; pattern maintenance runs only on major
//!   modifications;
//! * [`candidate_gen`] — pruning-based candidate generation with the
//!   marginal-coverage early-termination test (Eq. 2, Def. 5.5);
//! * [`swap`] — the multi-scan swap with criteria **sw1–sw5**, the
//!   Kolmogorov–Smirnov size-distribution guard, and the `SWAP_α`
//!   κ-schedule (Lemma 6.3);
//! * [`baselines`] — the paper's comparison points: *NoMaintain*, *Random*
//!   swapping, and maintenance-from-scratch via CATAPULT / CATAPULT++;
//! * [`metrics`] — pattern-set quality and maintenance-time reporting used
//!   by every experiment in §7.
//!
//! ## Quick start
//!
//! ```
//! use midas_core::{Midas, MidasConfig};
//! use midas_graph::{BatchUpdate, GraphBuilder, GraphDb};
//!
//! // A toy database of C-O-N molecules (labels are interned ids).
//! let db = GraphDb::from_graphs((0..8).map(|_| {
//!     GraphBuilder::new().vertices(&[0, 1, 2, 0]).path(&[0, 1, 2, 3]).build()
//! }));
//! let mut midas = Midas::bootstrap(db, MidasConfig::small_defaults()).unwrap();
//! let before = midas.patterns().to_vec();
//!
//! // Evolve the database; MIDAS decides whether patterns need refreshing.
//! let update = BatchUpdate::insert_only(vec![
//!     GraphBuilder::new().vertices(&[3, 3, 3, 3]).path(&[0, 1, 2, 3]).build(),
//! ]);
//! let report = midas.apply_batch(update);
//! assert!(report.pattern_maintenance_time >= std::time::Duration::ZERO);
//! let _ = before;
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baselines;
pub mod candidate_gen;
pub mod config;
pub mod framework;
pub mod ks;
pub mod metrics;
pub mod monitor;
pub mod patterns;
pub mod published;
pub mod sampling;
pub mod swap;

pub use config::MidasConfig;
pub use framework::{MaintenanceReport, Midas, ModificationKind, PhaseError};
pub use patterns::{PatternId, PatternStore};
pub use published::{PatternSnapshot, Published};
