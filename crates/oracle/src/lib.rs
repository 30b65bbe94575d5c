//! # midas-oracle
//!
//! Differential correctness harness for the MIDAS stack: every fast path
//! in the workspace is cross-checked against its slow reference twin on a
//! seeded, fully reproducible world from `midas-datagen`.
//!
//! The thirteen checks ([`Oracle::run_all`]):
//!
//! 1. **`kernel_vs_serial`** — [`MatchKernel`] / `EmbeddingCache` counts
//!    and containment vs the serial VF2 walkers
//!    ([`count_embeddings`] / [`is_subgraph_of`]), including memo-hit
//!    rounds and the invalidation boundary (a graph replaced
//!    under the same [`GraphId`]).
//! 2. **`incremental_mining`** — `FctState::apply_batch` vs re-mining the
//!    post-batch database from scratch — tracked keys, exact supports and
//!    frequent trees' closed flags, and a tracked key set of exactly the
//!    scratch trees tracked before the batch or frequent in its inserted
//!    graphs — after every batch of a small stream that ends in the
//!    rebuild path and of a 20-batch servebench-scale stream (120
//!    PubchemLike graphs, novel / deletion / growth rotation).
//! 3. **`graphlet_monitor`** — `GraphletMonitor` add/remove streams
//!    (including id re-adds, bogus removes, and double removes) vs
//!    recounting graphlets over a reference world.
//! 4. **`ged_bounds`** — the GED lower-bound chain
//!    `label ≤ tight ≤ exact` on random and adversarial boundary pairs.
//! 5. **`multi_scan_swap`** — swap runs scored through a shared, warm
//!    kernel and through a fresh one must agree exactly;
//!    the scoring context's `scov` must equal brute-force VF2 coverage;
//!    set measures guarded by sw3–sw5 must not degrade; a single
//!    accepted swap must replay sw1 against brute-force coverage.
//! 6. **`plan_vs_vf2`** — the plan-compiled CSR matcher
//!    ([`midas_graph::plan`]) vs the VF2 reference on random pairs:
//!    capped counts at several caps, coverage booleans, and the full
//!    embedding *sequences* (same mappings in the same order) must agree
//!    exactly.
//! 7. **`serve_vs_library`** — the `midas-serve` daemon vs an in-process
//!    [`Midas`] fed the same bootstrap graphs and the same explicit
//!    batch sequence through sync updates: the served pattern set,
//!    epoch, and database size must be **bit-identical** at every step.
//! 8. **`fine_cluster_memo`** — a [`ClusterSet`] whose MCCS memo persists
//!    across splits vs a shadow that forgets it before every insert, over
//!    growth, mixed deletion and novel-wave batches that each split a
//!    cluster: membership, group order and CSG member sets must be
//!    identical, and the memo may only name graphs still clustered.
//! 9. **`swap_score_cache`** — the production swap, which scores from
//!    tables of GED bounds and label bitsets built once per call, vs an
//!    oracle-local copy of the re-scoring loop it replaced: identical
//!    swaps, scans, `replaced` pairs and final sets on small worlds (with
//!    verified and with unverified candidates; one world's second swap
//!    fails sw5 only against the set measures refreshed after its first)
//!    and after the major batches of two [`Midas`] streams
//!    (check 10's servebench-scale one and a carried-coverage one), whose
//!    candidates reach the swap unverified; and on those carried-coverage
//!    batches every count [`Candidate::verify`] and `coverage_state` give
//!    is the `scov` recomputed through the dominance filter, also over an
//!    empty sample.
//! 10. **`index_maintenance`** — the edge catalog and the FCT-Index that
//!     [`Midas::apply_batch`] maintains over check 2's servebench-scale
//!     stream vs references over the post-batch database: every label's
//!     support and occurrence counts must equal [`EdgeCatalog::build`]'s,
//!     and the feature keys must be [`FctState::index_trees`]' with TG
//!     cells, keyed by tree key, equal to VF2's counts
//!     ([`reference_tg_cells`]), after every batch. The stream runs at ε
//!     0.01, and the check fails unless a batch turns major.
//! 11. **`mccs_vs_reference`** — the bitset MCCS search
//!     ([`mccs_edges`]) vs its reference twin ([`reference_mccs_edges`])
//!     on PubchemLike and AidsLike pairs from the seed at budgets 50,
//!     300, 2000 and 20000: `edges` and `exact` must be equal, and enough
//!     of the cases must be capped that the visit order is under test.
//! 12. **`candidates_vs_reference`** — candidate generation, which asks
//!     each Eq. 2 question once per edge label and each Def. 5.5 question
//!     once per isomorphism class, vs [`reference_promising_candidates`],
//!     the loop that re-asked them: the same candidates in the same order
//!     with the same covered counts (an unverified candidate's forced
//!     through [`Candidate::verify`], the swap's verification, and its
//!     survivors containing every sampled graph serial VF2 finds it in),
//!     and the same next RNG draw, on its own list of swap worlds (the
//!     synthetic, generated and refreshed-measures worlds; CSGs of the
//!     whole database and of each half, and one CSG per graph), failing
//!     when one is missing or compares nothing, and on the major batches
//!     of check 9's carried-coverage [`Midas`].
//! 13. **`select_vs_reference`** — CATAPULT selection
//!     ([`select_patterns_with_stats`]), which asks each isomorphism
//!     class's `lcov`, `cog` and `ccov` once per call and matches `ccov`
//!     only when the class's bound can beat the round's best, vs
//!     `rescoring_selection`, the loop that re-scored every candidate: the
//!     same patterns, vertex numbering included, in the same order, on
//!     AidsLike and PubchemLike worlds of 30 graphs at η 3–4 / γ 4 and
//!     η 3–6 / γ 10 and two selection seeds, and on the bootstrap of check
//!     10's servebench-scale world at servebench's configuration (γ 10, η
//!     3–6, 5 coarse clusters), where the check fails unless the bound
//!     skipped a class.
//!
//! Divergences are reported as structured JSON (reusing `midas_obs::json`)
//! with the offending graph pair **minimized** by greedy vertex removal
//! ([`minimize_pair`]), so a failure lands as the smallest witness the
//! shrinker can reach rather than a 40-vertex molecule.
//!
//! [`fault_containment_pass`] additionally proves the framework's one
//! fault boundary end to end: it arms the deterministic injector behind
//! `MIDAS_FAULT=task:N`, drives a maintenance batch through [`Midas`],
//! and requires the task panic to unwind to the phase backstop and
//! surface as a [`PhaseError`](midas_core::PhaseError) on the report —
//! process alive, flight recorder carrying the event — instead of an
//! abort; the next healthy batch must leave the edge catalog and the
//! FCT-Index equal to a from-scratch build.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod reference;
pub mod vf2;

use reference::{reference_pattern_score, reference_scov};

pub use reference::{
    ged_exact, ged_exact_bounded, reference_mccs_edges, reference_promising_candidates,
    reference_tg_cells,
};

use midas_catapult::candidates::generate_candidates;
use midas_catapult::random_walk::random_walks;
use midas_catapult::score::{
    ccov_projected, csg_projections, diversity, lcov_pattern, pattern_score, PatternScoreParts,
};
use midas_catapult::{select_patterns_with_stats, SelectionConfig, WeightedCsg};
use midas_cluster::{ClusterConfig, ClusterId, ClusterSet, FeatureSpace, MCCS_BUDGET};
use midas_core::candidate_gen::{
    coverage_state, generate_promising_candidates, Candidate, Coverage, GenerationParams,
};
use midas_core::ks::distributions_similar;
use midas_core::metrics::ScovContext;
use midas_core::monitor::GraphletMonitor;
use midas_core::swap::{multi_scan_swap, SwapOutcome, SwapParams};
use midas_core::{Midas, MidasConfig, ModificationKind, PatternId, PatternStore};
use midas_datagen::updates::{boronic_ester_family, deletion_percent, growth_percent};
use midas_datagen::{
    deletion_batch, growth_batch, novel_family_batch, query_set, DatasetKind, DatasetSpec,
    MotifKind,
};
use midas_graph::exec::{set_fault_for_tests, Fault};
use midas_graph::ged::{ged_label_lower_bound, ged_tight_lower_bound};
use midas_graph::graphlets::{count_graphlets, GraphletCounts};
use midas_graph::mccs::{mccs_edges, mccs_similarity};
use midas_graph::{
    BatchUpdate, CachedPattern, CanonicalCode, ClosureGraph, Csr, EdgeLabel, GraphBuilder, GraphDb,
    GraphId, LabeledGraph, MatchKernel, MatchPlan,
};
use midas_index::{FctIndex, FeatureId};
use midas_mining::incremental::FctState;
use midas_mining::{mine_lattice, EdgeCatalog, MiningConfig, TreeKey};
use midas_obs::json;
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use vf2::{count_embeddings, find_embeddings, is_subgraph_of};

/// Saturation cap for embedding counts in the kernel check.
const COUNT_CAP: u64 = 64;

/// Batches in the servebench-scale stream of checks 2 and 10.
const SERVEBENCH_BATCHES: usize = 20;

/// One fast-path/reference disagreement.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Which check found it (e.g. `"kernel_vs_serial"`).
    pub check: &'static str,
    /// Human-readable case identifier within the check.
    pub case: String,
    /// What the reference implementation produced.
    pub expected: String,
    /// What the fast path produced.
    pub actual: String,
    /// A minimized offending graph pair, when the violation is a
    /// reproducible property of the graphs themselves.
    pub witness: Option<(LabeledGraph, LabeledGraph)>,
}

impl Divergence {
    /// Renders the divergence as a JSON object.
    pub fn to_json(&self) -> String {
        let witness = match &self.witness {
            Some((a, b)) => format!("{{\"a\": {}, \"b\": {}}}", graph_json(a), graph_json(b)),
            None => "null".to_owned(),
        };
        format!(
            "{{\"check\": {}, \"case\": {}, \"expected\": {}, \"actual\": {}, \"witness\": {}}}",
            json::quote(self.check),
            json::quote(&self.case),
            json::quote(&self.expected),
            json::quote(&self.actual),
            witness
        )
    }
}

/// Renders a graph as `{"vertices": n, "labels": [...], "edges": [[u, v], ...]}`.
pub fn graph_json(g: &LabeledGraph) -> String {
    let labels: Vec<String> = g.labels().iter().map(|l| l.to_string()).collect();
    let edges: Vec<String> = g
        .edges()
        .iter()
        .map(|&(u, v)| format!("[{u}, {v}]"))
        .collect();
    format!(
        "{{\"vertices\": {}, \"labels\": [{}], \"edges\": [{}]}}",
        g.vertex_count(),
        labels.join(", "),
        edges.join(", ")
    )
}

/// Name and case count of one executed check.
#[derive(Debug, Clone)]
pub struct CheckRun {
    /// Check name.
    pub name: &'static str,
    /// Number of individual comparisons the check performed.
    pub cases: usize,
}

/// The outcome of a full oracle run.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// The seed the world was generated from.
    pub seed: u64,
    /// Every check that ran, with its case count.
    pub checks: Vec<CheckRun>,
    /// Every disagreement found.
    pub divergences: Vec<Divergence>,
}

impl OracleReport {
    /// `true` when no check diverged.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Total comparisons across all checks.
    pub fn total_cases(&self) -> usize {
        self.checks.iter().map(|c| c.cases).sum()
    }

    /// Renders the report as one JSON document.
    pub fn to_json(&self) -> String {
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\": {}, \"cases\": {}}}",
                    json::quote(c.name),
                    c.cases
                )
            })
            .collect();
        let divergences: Vec<String> = self.divergences.iter().map(Divergence::to_json).collect();
        format!(
            "{{\"seed\": {}, \"clean\": {}, \"total_cases\": {}, \"checks\": [{}], \"divergences\": [{}]}}",
            self.seed,
            self.is_clean(),
            self.total_cases(),
            checks.join(", "),
            divergences.join(", ")
        )
    }
}

/// Greedy witness shrinker: repeatedly drops single vertices from either
/// graph while `violates(a, b)` keeps holding, until no single removal
/// preserves the violation. Returns the pair unchanged when the predicate
/// does not hold on the input (e.g. a staleness bug a fresh probe cannot
/// reproduce) — the caller still gets *a* witness, just not a smaller one.
pub fn minimize_pair<F>(
    a: &LabeledGraph,
    b: &LabeledGraph,
    violates: F,
) -> (LabeledGraph, LabeledGraph)
where
    F: Fn(&LabeledGraph, &LabeledGraph) -> bool,
{
    let mut a = a.clone();
    let mut b = b.clone();
    if !violates(&a, &b) {
        return (a, b);
    }
    loop {
        let mut shrunk = false;
        for side in 0..2 {
            let target = if side == 0 { &a } else { &b };
            if target.vertex_count() <= 1 {
                continue;
            }
            let n = target.vertex_count() as u32;
            for drop in 0..n {
                let keep: Vec<u32> = (0..n).filter(|&v| v != drop).collect();
                let candidate = target.induced_subgraph(&keep);
                let ok = if side == 0 {
                    violates(&candidate, &b)
                } else {
                    violates(&a, &candidate)
                };
                if ok {
                    if side == 0 {
                        a = candidate;
                    } else {
                        b = candidate;
                    }
                    shrunk = true;
                    break;
                }
            }
        }
        if !shrunk {
            return (a, b);
        }
    }
}

/// The differential oracle: a seeded world plus the thirteen checks.
pub struct Oracle {
    seed: u64,
}

impl Oracle {
    /// Creates an oracle whose worlds all derive from `seed`.
    pub fn new(seed: u64) -> Self {
        Oracle { seed }
    }

    /// Runs every check and collects the report. The exec fault injector
    /// is disarmed for the duration — differential runs must be
    /// fault-free; [`fault_containment_pass`] owns injection.
    pub fn run_all(&self) -> OracleReport {
        set_fault_for_tests(None);
        let mut report = OracleReport {
            seed: self.seed,
            checks: Vec::new(),
            divergences: Vec::new(),
        };
        let checks: [(&'static str, CheckFn); 13] = [
            ("kernel_vs_serial", Oracle::check_kernel_vs_serial),
            ("incremental_mining", Oracle::check_incremental_mining),
            ("graphlet_monitor", Oracle::check_monitor),
            ("ged_bounds", Oracle::check_ged_bounds),
            ("multi_scan_swap", Oracle::check_swap),
            ("plan_vs_vf2", Oracle::check_plan_vs_vf2),
            ("serve_vs_library", Oracle::check_serve_vs_library),
            ("fine_cluster_memo", Oracle::check_fine_cluster_memo),
            ("swap_score_cache", Oracle::check_swap_score_cache),
            ("index_maintenance", Oracle::check_index_maintenance),
            ("mccs_vs_reference", Oracle::check_mccs_vs_reference),
            (
                "candidates_vs_reference",
                Oracle::check_candidates_vs_reference,
            ),
            ("select_vs_reference", Oracle::check_select_vs_reference),
        ];
        for (name, check) in checks {
            let cases = check(self, &mut report.divergences);
            report.checks.push(CheckRun { name, cases });
        }
        report
    }

    /// Check 1: the memoized plan kernel against serial VF2.
    fn check_kernel_vs_serial(&self, out: &mut Vec<Divergence>) -> usize {
        let db = DatasetSpec::new(DatasetKind::AidsLike, 36, self.seed)
            .generate()
            .db;
        let patterns = query_set(&db, 6, (1, 3), self.seed ^ 0x01);
        let kernel = MatchKernel::new();
        let graphs: Vec<(GraphId, &LabeledGraph)> =
            db.iter().map(|(id, g)| (id, g.as_ref())).collect();
        let csrs: Vec<(GraphId, &Csr)> = db.csrs().collect();
        let mut cases = 0;
        // Two rounds: round 0 fills the memo, round 1 must serve hits
        // that still agree with serial recomputation.
        for round in 0..2 {
            for (pi, p) in patterns.iter().enumerate() {
                let fast_counts = count_row(&kernel, p, &csrs);
                let fast_covered = kernel.covered_in(p, &csrs);
                for (k, &(id, g)) in graphs.iter().enumerate() {
                    cases += 2;
                    let want = count_embeddings(p, g, COUNT_CAP);
                    if fast_counts[k] != want {
                        out.push(count_divergence(
                            format!("round {round}, pattern {pi}, graph {}", id.0),
                            want,
                            fast_counts[k],
                            p,
                            g,
                        ));
                    }
                    let want_cov = is_subgraph_of(p, g);
                    if fast_covered[k] != want_cov {
                        out.push(count_divergence(
                            format!("containment: round {round}, pattern {pi}, graph {}", id.0),
                            want_cov as u64,
                            fast_covered[k] as u64,
                            p,
                            g,
                        ));
                    }
                }
            }
        }
        // Invalidation boundary: replace each of the first
        // three graphs' content under its *existing* id. A stale memo
        // entry keyed on (pattern, id) would serve the old graph's count.
        let replacements = query_set(&db, 3, (2, 4), self.seed ^ 0x02);
        for (i, replacement) in replacements.iter().enumerate() {
            let (id, old) = csrs[i];
            let p = &patterns[i % patterns.len()];
            // Warm the memo on the old content, then invalidate and probe
            // the replacement's CSR under the same id.
            count_row(&kernel, p, &[(id, old)]);
            kernel.invalidate_graph(id);
            let replacement_csr = Csr::from_graph(replacement);
            let fast = count_row(&kernel, p, &[(id, &replacement_csr)]);
            let want = count_embeddings(p, replacement, COUNT_CAP);
            cases += 1;
            if fast[0] != want {
                out.push(count_divergence(
                    format!("invalidation boundary: graph {} replaced", id.0),
                    want,
                    fast[0],
                    p,
                    replacement,
                ));
            }
        }
        cases
    }

    /// Check 2: incremental FCT maintenance against mining from scratch.
    ///
    /// Two batch streams, each compared after every batch against
    /// `FctState::build` on the post-batch database: every tracked tree's
    /// key and exact support, every frequent tree's closed flag, and the
    /// tracked key set, which must hold exactly the scratch trees that were
    /// tracked before the batch or are frequent in its inserted graphs at
    /// the relaxed threshold (all of them after a rebuild; see
    /// `lattice_divergence`). The last part pins the catalog-bound cut: a
    /// cut one too high drops trees that clear the relaxed threshold
    /// exactly.
    ///
    /// * a small AidsLike world whose last batch deletes two thirds of the
    ///   database, forcing the rebuild path;
    /// * a servebench-scale world: 120 PubchemLike graphs at `sup_min`
    ///   0.4 with 3-edge trees, under 20 batches of servebench's rotation
    ///   (a novel-family wave every fifth batch, 4 % deletions on batches
    ///   5k + 3, 4 % growth otherwise).
    fn check_incremental_mining(&self, out: &mut Vec<Divergence>) -> usize {
        let small = DatasetSpec::new(DatasetKind::AidsLike, 24, self.seed ^ 0x10)
            .generate()
            .db;
        let params = DatasetKind::AidsLike.params();
        let config = MiningConfig {
            sup_min: 0.3,
            max_edges: 3,
        };
        let mut cases = replay_mining("aids_like", small, config, 4, out, |step, db| {
            match step {
                0 => growth_batch(&params, 6, self.seed ^ 0x11),
                1 => deletion_batch(db, 4, self.seed ^ 0x12),
                2 => growth_batch(&params, 5, self.seed ^ 0x13),
                // A batch large enough to void Lemma 4.5's premise and
                // force the rebuild path.
                _ => deletion_batch(db, db.len() * 2 / 3, self.seed ^ 0x14),
            }
        });

        let config = MiningConfig {
            sup_min: 0.4,
            max_edges: 3,
        };
        cases += replay_mining(
            "pubchem_like",
            self.servebench_world(),
            config,
            SERVEBENCH_BATCHES,
            out,
            |step, db| self.servebench_batch(step, db),
        );
        cases
    }

    /// The initial database of the servebench-scale stream checks 2 and
    /// 10 replay: 120 PubchemLike graphs.
    fn servebench_world(&self) -> GraphDb {
        DatasetSpec::new(DatasetKind::PubchemLike, 120, self.seed ^ 0x15)
            .generate()
            .db
    }

    /// Batch `step` of the servebench-scale stream: servebench's rotation
    /// of a novel-family wave every fifth batch, 4 % deletions on batches
    /// 5k + 3 and 4 % growth otherwise.
    fn servebench_batch(&self, step: usize, db: &GraphDb) -> BatchUpdate {
        let round = step as u64 + 1;
        let seed = self.seed ^ (0x1000 + round);
        match round % 5 {
            0 => {
                let family = if round.is_multiple_of(2) {
                    MotifKind::BoronicEster
                } else {
                    MotifKind::Phosphate
                };
                novel_family_batch(family, (db.len() / 5).max(1), seed)
            }
            3 => deletion_percent(db, 4.0, seed),
            _ => growth_percent(&DatasetKind::PubchemLike.params(), db, 4.0, seed),
        }
    }

    /// Check 10: the edge catalog and the FCT-Index that
    /// [`Midas::apply_batch`] maintains against from-scratch references
    /// over the same database and FCT state (see `catalog_divergence` and
    /// `index_divergence`), after every batch of check 2's
    /// servebench-scale stream: two cases a batch. The stream runs at
    /// check 9's drift threshold, so that batches turn major and both are
    /// compared after candidate generation and the swap too; the check
    /// fails when none does.
    fn check_index_maintenance(&self, out: &mut Vec<Divergence>) -> usize {
        let divergence = |case: String, expected: &str, actual: String| Divergence {
            check: "index_maintenance",
            case,
            expected: expected.into(),
            actual,
            witness: None,
        };
        let config = MidasConfig {
            epsilon: 0.01,
            ..MidasConfig::small_defaults()
        };
        let mut midas = match Midas::bootstrap(self.servebench_world(), config) {
            Ok(midas) => midas,
            Err(e) => {
                out.push(divergence("bootstrap".into(), "a bootstrapped Midas", e));
                return 1;
            }
        };
        let mut majors = 0;
        for step in 0..SERVEBENCH_BATCHES {
            let update = self.servebench_batch(step, midas.db());
            majors += usize::from(midas.apply_batch(update).kind == ModificationKind::Major);
            let case = format!(
                "pubchem_like step {step} (db of {} graphs)",
                midas.db().len()
            );
            if let Some(diff) = catalog_divergence(&midas) {
                out.push(divergence(
                    case.clone(),
                    "the edge catalog a from-scratch build produces",
                    diff,
                ));
            }
            if let Some(diff) = index_divergence(&midas) {
                out.push(divergence(
                    case,
                    "the FCT-Index a from-scratch VF2 build produces",
                    diff,
                ));
            }
        }
        if majors == 0 {
            out.push(divergence(
                "coverage".into(),
                "at least one major batch",
                "none".into(),
            ));
        }
        2 * SERVEBENCH_BATCHES + 1
    }

    /// Check 3: the graphlet monitor against recounting a reference world.
    fn check_monitor(&self, out: &mut Vec<Divergence>) -> usize {
        let db = DatasetSpec::new(DatasetKind::EmolLike, 12, self.seed ^ 0x20)
            .generate()
            .db;
        let mut monitor = GraphletMonitor::build(&db);
        let mut reference: BTreeMap<GraphId, LabeledGraph> =
            db.iter().map(|(id, g)| (id, g.as_ref().clone())).collect();
        let extra = query_set(&db, 3, (2, 4), self.seed ^ 0x21);
        let existing: Vec<GraphId> = db.ids().collect();
        let bogus = GraphId(u64::MAX - 7);
        let fresh = GraphId(existing.iter().map(|id| id.0).max().unwrap_or(0) + 1);

        enum Op<'a> {
            Add(GraphId, &'a LabeledGraph),
            Remove(GraphId),
        }
        let ops: Vec<(String, Op<'_>)> = vec![
            ("add fresh id".into(), Op::Add(fresh, &extra[0])),
            (
                format!("re-add existing id {}", existing[0].0),
                Op::Add(existing[0], &extra[1]),
            ),
            ("remove never-added id".into(), Op::Remove(bogus)),
            (
                format!("remove id {}", existing[1].0),
                Op::Remove(existing[1]),
            ),
            (
                format!("double-remove id {}", existing[1].0),
                Op::Remove(existing[1]),
            ),
            (
                format!("re-add removed id {}", existing[1].0),
                Op::Add(existing[1], &extra[2]),
            ),
        ];
        let mut cases = 0;
        for (label, op) in ops {
            match op {
                Op::Add(id, g) => {
                    monitor.add_graph(id, g);
                    reference.insert(id, g.clone());
                }
                Op::Remove(id) => {
                    monitor.remove_graph(id);
                    reference.remove(&id);
                }
            }
            let mut want = GraphletCounts::default();
            for g in reference.values() {
                want.add(&count_graphlets(g));
            }
            cases += 1;
            if monitor.totals().as_array() != want.as_array() {
                out.push(Divergence {
                    check: "graphlet_monitor",
                    case: label.clone(),
                    expected: format!("{:?}", want.as_array()),
                    actual: format!("{:?}", monitor.totals().as_array()),
                    witness: None,
                });
            }
            // The distribution must stay a valid probability vector even
            // right after pathological op sequences.
            let dist = monitor.distribution().as_array();
            let mass: f64 = dist.iter().sum();
            cases += 1;
            if !dist.iter().all(|p| p.is_finite() && *p >= 0.0)
                || (mass - 1.0).abs() > 1e-9 && mass.abs() > 1e-9
            {
                out.push(Divergence {
                    check: "graphlet_monitor",
                    case: format!("{label}: distribution"),
                    expected: "a probability vector (mass 1, or all-zero)".into(),
                    actual: format!("{dist:?}"),
                    witness: None,
                });
            }
        }
        cases
    }

    /// Check 4: the GED lower-bound chain `label ≤ tight ≤ exact`.
    fn check_ged_bounds(&self, out: &mut Vec<Divergence>) -> usize {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x30);
        let mut pairs: Vec<(String, LabeledGraph, LabeledGraph)> = Vec::new();
        for i in 0..120 {
            let a = random_labeled_graph(&mut rng, 5, 4, 0.4);
            let b = random_labeled_graph(&mut rng, 5, 4, 0.4);
            pairs.push((format!("random pair {i}"), a, b));
        }
        // Boundary cases: identical graphs, disjoint label alphabets,
        // isolated vertices vs a clique, single vertices.
        let isolated = GraphBuilder::new().vertices(&[0, 0, 0]).build();
        let triangle = GraphBuilder::new()
            .vertices(&[0, 0, 0])
            .edge(0, 1)
            .edge(1, 2)
            .edge(0, 2)
            .build();
        pairs.push(("identical".into(), path(&[0, 1, 2]), path(&[0, 1, 2])));
        pairs.push(("disjoint labels".into(), path(&[0, 1]), path(&[2, 3])));
        pairs.push(("isolated vs triangle".into(), isolated, triangle));
        pairs.push(("single vertices".into(), path(&[0]), path(&[1])));
        pairs.push((
            "admissibility regression (path labels 0,0,0 vs 0,1,0)".into(),
            path(&[0, 0, 0]),
            path(&[0, 1, 0]),
        ));

        let mut cases = 0;
        for (label, a, b) in &pairs {
            cases += 1;
            let lb_label = ged_label_lower_bound(a, b);
            let lb_tight = ged_tight_lower_bound(a, b);
            let exact = ged_exact(a, b);
            if lb_label <= lb_tight && lb_tight <= exact {
                continue;
            }
            let violates = |x: &LabeledGraph, y: &LabeledGraph| {
                let l = ged_label_lower_bound(x, y);
                let t = ged_tight_lower_bound(x, y);
                let e = ged_exact(x, y);
                !(l <= t && t <= e)
            };
            let witness = minimize_pair(a, b, violates);
            out.push(Divergence {
                check: "ged_bounds",
                case: label.clone(),
                expected: format!("label ≤ tight ≤ exact (exact = {exact})"),
                actual: format!("label = {lb_label}, tight = {lb_tight}, exact = {exact}"),
                witness: Some(witness),
            });
        }
        cases
    }

    /// Check 5: multi-scan swap — kernel/serial parity, sw3–sw5 set-level
    /// monotonicity, and an sw1 replay against brute-force coverage.
    fn check_swap(&self, out: &mut Vec<Divergence>) -> usize {
        self.swap_worlds()
            .into_iter()
            .map(|w| self.swap_world(w.name, w.db, w.initial, w.candidates, out))
            .sum()
    }

    /// The unweighted swap worlds checks 5 and 9 share.
    fn swap_worlds(&self) -> Vec<SwapWorld> {
        [Some(synthetic_world()), self.generated_world()]
            .into_iter()
            .flatten()
            .collect()
    }

    /// A messier generated world — parity and monotonicity under
    /// realistic molecules — or `None` when its query draw leaves no
    /// initial pattern or no candidate.
    fn generated_world(&self) -> Option<SwapWorld> {
        let db = DatasetSpec::new(DatasetKind::AidsLike, 14, self.seed ^ 0x40)
            .generate()
            .db;
        let drawn = query_set(&db, 8, (1, 3), self.seed ^ 0x41);
        let mut initial: Vec<LabeledGraph> = Vec::new();
        let mut candidates: Vec<LabeledGraph> = Vec::new();
        for q in drawn {
            let dup = initial
                .iter()
                .chain(candidates.iter())
                .any(|p| graphs_isomorphic(p, &q));
            if dup {
                continue;
            }
            if initial.len() < 3 {
                initial.push(q);
            } else {
                candidates.push(q);
            }
        }
        (!initial.is_empty() && !candidates.is_empty()).then_some(SwapWorld {
            name: "generated",
            db,
            initial,
            candidates,
        })
    }

    /// Runs one swap world through a shared and a fresh kernel and audits
    /// the result.
    fn swap_world(
        &self,
        world: &str,
        db: GraphDb,
        initial: Vec<LabeledGraph>,
        candidates: Vec<LabeledGraph>,
        out: &mut Vec<Divergence>,
    ) -> usize {
        let refs: Vec<(GraphId, &LabeledGraph)> =
            db.iter().map(|(id, g)| (id, g.as_ref())).collect();
        let catalog = EdgeCatalog::build(refs.iter().copied());
        let sample: BTreeSet<GraphId> = db.ids().collect();
        let params = SwapParams::default();
        let kernel = MatchKernel::new();

        // The reference run scores through a fresh kernel, the fast run
        // through the shared one, whose memo the parity checks below reuse.
        let run = |kernel: &MatchKernel| -> SwapRunResult {
            let mut store = PatternStore::new();
            for p in &initial {
                store.insert(p.clone());
            }
            let before: BTreeMap<PatternId, LabeledGraph> =
                store.iter().map(|(id, p)| (id, p.clone())).collect();
            let fct = FctIndex::new();
            let ctx = ScovContext {
                fct: &fct,
                db: &db,
                sample: &sample,
                catalog: &catalog,
                kernel,
            };
            let coverage = coverage_state(&store, &ctx);
            let scored = Candidate::scored(&ctx, candidates.clone());
            let outcome = multi_scan_swap(&mut store, scored, &coverage, &ctx, &params);
            let graphs = store.graphs();
            (outcome, graphs, before, store)
        };

        let (fast_out, fast_set, before_map, _store_fast) = run(&kernel);
        let (ref_out, ref_set, _, _store_ref) = run(&MatchKernel::new());
        let mut cases = 0;

        // Coverage parity: the scoring context (dominance filter + the
        // now-warm kernel memo) must agree with brute-force VF2 coverage
        // on every pattern the swap scored.
        let fct = FctIndex::new();
        let ctx = ScovContext {
            fct: &fct,
            db: &db,
            sample: &sample,
            catalog: &catalog,
            kernel: &kernel,
        };
        for (i, p) in initial.iter().chain(&candidates).enumerate() {
            cases += 1;
            let (want, got) = (brute_scov(p, &db, &sample), reference_scov(&ctx, p));
            if want != got {
                out.push(Divergence {
                    check: "multi_scan_swap",
                    case: format!("{world}: scov of pattern {i} (kernel vs brute-force VF2)"),
                    expected: format!("{want:.6}"),
                    actual: format!("{got:.6}"),
                    witness: None,
                });
            }
        }

        // Parity: the shared-kernel run and the fresh-kernel reference run
        // must make identical decisions.
        cases += 1;
        if fast_out.swaps != ref_out.swaps
            || fast_out.scans != ref_out.scans
            || fast_out.replaced != ref_out.replaced
            || fast_set != ref_set
        {
            out.push(Divergence {
                check: "multi_scan_swap",
                case: format!("{world}: shared/fresh kernel parity"),
                expected: format!(
                    "swaps {}, scans {}, {} final patterns (fresh kernel)",
                    ref_out.swaps,
                    ref_out.scans,
                    ref_set.len()
                ),
                actual: format!(
                    "swaps {}, scans {}, {} final patterns (shared kernel)",
                    fast_out.swaps,
                    fast_out.scans,
                    fast_set.len()
                ),
                witness: None,
            });
        }

        // sw3–sw5 set-level monotonicity: diversity and label coverage
        // must not drop, cognitive load must not rise.
        let initial_set: Vec<LabeledGraph> = before_map.values().cloned().collect();
        let (div0, cog0, lcov0) = set_measures(&initial_set, &catalog, &sample);
        let (div1, cog1, lcov1) = set_measures(&ref_set, &catalog, &sample);
        cases += 1;
        if div1 + 1e-9 < div0 || cog1 > cog0 + 1e-9 || lcov1 + 1e-9 < lcov0 {
            out.push(Divergence {
                check: "multi_scan_swap",
                case: format!("{world}: sw3–sw5 monotonicity"),
                expected: format!("div ≥ {div0:.6}, cog ≤ {cog0:.6}, lcov ≥ {lcov0:.6}"),
                actual: format!("div = {div1:.6}, cog = {cog1:.6}, lcov = {lcov1:.6}"),
                witness: None,
            });
        }

        // sw1 replay: a single accepted swap necessarily happened in scan
        // 1 (a swapless scan ends the loop), so the first-scan κ applies.
        // Recompute both coverages brute-force and re-check the criterion.
        if ref_out.swaps == 1 {
            let (victim_id, new_id) = ref_out.replaced[0];
            let victim = before_map.get(&victim_id).cloned();
            let candidate = _store_ref.get(new_id).cloned();
            if let (Some(victim), Some(candidate)) = (victim, candidate) {
                let victim_scov = brute_scov(&victim, &db, &sample);
                let cand_scov = brute_scov(&candidate, &db, &sample);
                cases += 1;
                if cand_scov + 1e-9 < (1.0 + params.kappa) * victim_scov {
                    out.push(Divergence {
                        check: "multi_scan_swap",
                        case: format!("{world}: sw1 replay (brute-force scov)"),
                        expected: format!(
                            "candidate scov ≥ (1 + {}) × {victim_scov:.6}",
                            params.kappa
                        ),
                        actual: format!("candidate scov = {cand_scov:.6}"),
                        witness: Some((victim, candidate)),
                    });
                }
            }
        }
        cases
    }

    /// Check 6: the plan-compiled CSR matcher against the VF2 reference.
    ///
    /// Random (pattern, target) pairs — small enough that full embedding
    /// enumeration is cheap — compared on three axes: capped counts at a
    /// spread of caps (including cap 1 and an effectively-unbounded cap),
    /// the coverage boolean, the complete embedding sets, and the order in
    /// which both matchers enumerate them. Any disagreement minimizes to
    /// the smallest violating pair.
    fn check_plan_vs_vf2(&self, out: &mut Vec<Divergence>) -> usize {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x60);
        let mut cases = 0;
        const CAPS: [u64; 3] = [1, COUNT_CAP, u64::MAX];
        const EMBED_LIMIT: usize = 4096;
        for round in 0..120 {
            let pattern = random_labeled_graph(&mut rng, 4, 3, 0.5);
            let target = random_labeled_graph(&mut rng, 7, 3, 0.35);
            for cap in CAPS {
                cases += 1;
                let want = count_embeddings(&pattern, &target, cap);
                let got = count_embeddings_plan(&pattern, &target, cap);
                if got != want {
                    out.push(plan_divergence(
                        format!("round {round}: count at cap {cap}"),
                        want.to_string(),
                        got.to_string(),
                        &pattern,
                        &target,
                    ));
                }
            }
            cases += 1;
            let want_cov = is_subgraph_of(&pattern, &target);
            let got_cov = is_subgraph_plan(&pattern, &target);
            if got_cov != want_cov {
                out.push(plan_divergence(
                    format!("round {round}: coverage boolean"),
                    want_cov.to_string(),
                    got_cov.to_string(),
                    &pattern,
                    &target,
                ));
            }
            // Full embeddings: both enumerate in pattern-vertex numbering
            // under one vertex order, so the sets and then the sequences
            // must be identical.
            cases += 2;
            let want = find_embeddings(&pattern, &target, EMBED_LIMIT);
            let got = find_embeddings_plan(&pattern, &target, EMBED_LIMIT);
            let want_set: BTreeSet<&Vec<u32>> = want.iter().collect();
            let got_set: BTreeSet<&Vec<u32>> = got.iter().collect();
            if got_set != want_set {
                out.push(plan_divergence(
                    format!("round {round}: embedding sets"),
                    format!("{} embeddings", want_set.len()),
                    format!("{} embeddings", got_set.len()),
                    &pattern,
                    &target,
                ));
            } else if got != want {
                let first = want.iter().zip(&got).position(|(w, g)| w != g);
                out.push(plan_divergence(
                    format!("round {round}: embedding order"),
                    format!("VF2 sequence of {} embeddings", want.len()),
                    format!("plan sequence first differs at position {first:?}"),
                    &pattern,
                    &target,
                ));
            }
        }
        cases
    }

    /// Check 7: the serving daemon against the library, bit for bit.
    ///
    /// Both sides bootstrap [`Midas`] (through [`Midas::bootstrap`], with
    /// the same `small` config preset) on the same graphs, then apply
    /// the same explicit batch sequence — the library side directly, the
    /// serve side through `POST /updates?mode=sync` over real HTTP. After
    /// bootstrap and after every batch, the pattern set the daemon serves
    /// must equal the library's **exactly** (same graphs, same order),
    /// along with the epoch and database size. Any drift here means the
    /// network layer changed maintenance semantics.
    fn check_serve_vs_library(&self, out: &mut Vec<Divergence>) -> usize {
        use midas_serve::client::ServeClient;
        use midas_serve::{ServeConfig, ServeDaemon};

        let world = DatasetSpec::new(DatasetKind::EmolLike, 18, self.seed ^ 0x70).generate();
        let graphs: Vec<LabeledGraph> = world.db.iter().map(|(_, g)| g.as_ref().clone()).collect();
        let params = DatasetKind::EmolLike.params();

        // Library side: the same bootstrap the daemon's tenants use.
        let library_db = GraphDb::from_graphs(graphs.iter().cloned());
        let mut library = match Midas::bootstrap(library_db, MidasConfig::small_defaults()) {
            Ok(m) => m,
            Err(e) => {
                out.push(serve_divergence(
                    "library bootstrap",
                    "a bootstrapped Midas",
                    &format!("error: {e}"),
                ));
                return 1;
            }
        };

        // Serve side: a real daemon, the tenant created from the same
        // graphs with the same config preset.
        let daemon = match ServeDaemon::start(ServeConfig::default()) {
            Ok(d) => d,
            Err(e) => {
                out.push(serve_divergence(
                    "daemon start",
                    "a listening daemon",
                    &format!("error: {e}"),
                ));
                return 1;
            }
        };
        let client = ServeClient::new(daemon.addr().to_string());
        let created = client.create_tenant_with_graphs("parity", &graphs, "small");
        if !matches!(&created, Ok(r) if r.status == 201) {
            out.push(serve_divergence(
                "tenant create",
                "HTTP 201",
                &format!("{created:?}"),
            ));
            return 1;
        }

        // The explicit batch sequence: growth, deletion, growth — the
        // deletion drawn against the library database *at that step*, so
        // both sides see the identical `BatchUpdate`.
        let mut cases = 0;
        for step in 0..4 {
            let batch = match step {
                0 => None, // compare the bootstrap state first
                1 => Some(growth_batch(&params, 5, self.seed ^ 0x71)),
                2 => Some(deletion_batch(library.db(), 3, self.seed ^ 0x72)),
                _ => Some(growth_batch(&params, 4, self.seed ^ 0x73)),
            };
            if let Some(batch) = batch {
                let _ = library.apply_batch(batch.clone());
                let reply = client.post_batch("parity", &batch, true);
                if !matches!(&reply, Ok(r) if r.status == 200) {
                    out.push(serve_divergence(
                        &format!("step {step}: sync update"),
                        "HTTP 200",
                        &format!("{reply:?}"),
                    ));
                    return cases + 1;
                }
            }
            let want = library.pattern_snapshot();
            let got = match client.patterns("parity") {
                Ok(p) => p,
                Err(e) => {
                    out.push(serve_divergence(
                        &format!("step {step}: GET patterns"),
                        "a pattern payload",
                        &format!("error: {e}"),
                    ));
                    return cases + 1;
                }
            };
            cases += 1;
            if got.epoch != want.epoch || got.db_len as usize != want.db_len {
                out.push(serve_divergence(
                    &format!("step {step}: epoch/db_len"),
                    &format!("epoch {} over {} graphs", want.epoch, want.db_len),
                    &format!("epoch {} over {} graphs", got.epoch, got.db_len),
                ));
            }
            cases += 1;
            if got.patterns != want.patterns {
                out.push(serve_divergence(
                    &format!("step {step}: pattern set"),
                    &format!("{} patterns (library, exact)", want.patterns.len()),
                    &format!("{} patterns (served)", got.patterns.len()),
                ));
            }
        }
        daemon.shutdown();
        cases
    }

    /// Check 8: fine clustering through the persistent MCCS memo against
    /// a shadow [`ClusterSet`] that clears its memo before every insert,
    /// so each of its splits searches every pair afresh.
    ///
    /// Both sets replay the same batches in Algorithm 1's order (FCT
    /// first, then cluster removes and assigns). Each batch inserts more
    /// graphs than the clusters have free slots, so it splits at least
    /// once; the deletion batches insert too, since only an insert splits.
    fn check_fine_cluster_memo(&self, out: &mut Vec<Divergence>) -> usize {
        let mut db = DatasetSpec::new(DatasetKind::AidsLike, 30, self.seed ^ 0x80)
            .generate()
            .db;
        let mining = MiningConfig {
            sup_min: 0.3,
            max_edges: 3,
        };
        let config = ClusterConfig {
            coarse_clusters: 2,
            max_cluster_size: 4,
            ..ClusterConfig::default()
        };
        let params = DatasetKind::AidsLike.params();
        let mut fct = FctState::build(&db, mining);
        let space = FeatureSpace::from_fct(&fct.lattice, mining.sup_min, db.len());
        let mut primary = ClusterSet::build(&db, &fct.lattice, space, config);
        let mut shadow = primary.clone();
        shadow.clear_mccs_memo();
        let mut cases = 0;
        for step in 0..4 {
            // Pigeonhole: a delete frees at most one slot, so inserting more
            // graphs than the free slots plus the deletes forces a split.
            let drop = [0, 4, 0, 6][step];
            let free: usize = primary
                .iter()
                .map(|(_, c)| config.max_cluster_size - c.len())
                .sum();
            let grow = free + drop + 1;
            let seed = self.seed ^ (0x81 + step as u64);
            let insert = if step < 2 {
                growth_batch(&params, grow, seed).insert
            } else {
                novel_family_batch(boronic_ester_family(), grow, seed).insert
            };
            let delete = deletion_batch(&db, drop, seed).delete;
            let update = BatchUpdate { insert, delete };
            let deleted: Vec<(GraphId, Arc<LabeledGraph>)> = update
                .delete
                .iter()
                .filter_map(|&id| db.get(id).map(|g| (id, Arc::clone(g))))
                .collect();
            let (inserted, _) = db.apply(update);
            let deleted_refs: Vec<(GraphId, &LabeledGraph)> =
                deleted.iter().map(|(id, g)| (*id, g.as_ref())).collect();
            fct.apply_batch(&db, &inserted, &deleted_refs);
            for (id, g) in &deleted {
                primary.remove(*id, g);
                shadow.remove(*id, g);
            }
            let mut splits = 0;
            for &id in &inserted {
                let graph = db.get(id).expect("inserted id").clone();
                let scored = primary.mccs_memo().computed() + primary.mccs_memo().hits();
                primary.assign(&db, &fct.lattice, id, &graph);
                shadow.clear_mccs_memo();
                shadow.assign(&db, &fct.lattice, id, &graph);
                splits += usize::from(
                    primary.mccs_memo().computed() + primary.mccs_memo().hits() > scored,
                );
            }
            cases += 1;
            if splits == 0 {
                out.push(memo_divergence(
                    format!("step {step}: coverage"),
                    "at least one split",
                    "no split",
                    None,
                ));
            }
            cases += 1;
            out.extend(cluster_diff(step, &db, &primary, &shadow));
            cases += 1;
            let dead = primary
                .mccs_memo()
                .entries()
                .filter(|&(s, m, _)| {
                    primary.cluster_of(s).is_none() || primary.cluster_of(m).is_none()
                })
                .count();
            if dead > 0 {
                out.push(memo_divergence(
                    format!("step {step}: eviction"),
                    "memo names only clustered graphs",
                    &format!("{dead} pairs name an unclustered graph"),
                    None,
                ));
            }
        }
        cases += 1;
        if primary.mccs_memo().hits() == 0 {
            out.push(memo_divergence(
                "coverage".into(),
                "the memo serves at least one score",
                "no memo hit",
                None,
            ));
        }
        cases
    }

    /// Check 11: the bitset MCCS search against its reference twin.
    ///
    /// Consecutive pairs of a seeded PubchemLike and AidsLike database (the
    /// molecule shapes servebench and check 8 split), searched in both
    /// argument orders at every budget. A capped result depends on the
    /// visit order, so the check also fails when fewer than
    /// `MIN_CAPPED` cases hit their budget.
    fn check_mccs_vs_reference(&self, out: &mut Vec<Divergence>) -> usize {
        const BUDGETS: [u64; 4] = [50, 300, 2_000, 20_000];
        const MIN_CAPPED: usize = 40;
        let (mut cases, mut capped) = (0, 0);
        for (kind, salt) in [
            (DatasetKind::PubchemLike, 0xB0),
            (DatasetKind::AidsLike, 0xB1),
        ] {
            let db = DatasetSpec::new(kind, 10, self.seed ^ salt).generate().db;
            let graphs: Vec<&LabeledGraph> = db.iter().map(|(_, g)| g.as_ref()).collect();
            for (i, pair) in graphs.windows(2).enumerate() {
                for (a, b) in [(pair[0], pair[1]), (pair[1], pair[0])] {
                    for budget in BUDGETS {
                        cases += 1;
                        let want = reference_mccs_edges(a, b, budget);
                        let got = mccs_edges(a, b, budget);
                        capped += usize::from(!want.exact);
                        if got != want {
                            let violates = |a: &LabeledGraph, b: &LabeledGraph| {
                                mccs_edges(a, b, budget) != reference_mccs_edges(a, b, budget)
                            };
                            out.push(Divergence {
                                check: "mccs_vs_reference",
                                case: format!("{kind:?} pair {i}, budget {budget}"),
                                expected: format!("{want:?}"),
                                actual: format!("{got:?}"),
                                witness: Some(minimize_pair(a, b, violates)),
                            });
                        }
                    }
                }
            }
        }
        cases += 1;
        if capped < MIN_CAPPED {
            out.push(Divergence {
                check: "mccs_vs_reference",
                case: "coverage".into(),
                expected: format!("at least {MIN_CAPPED} capped cases"),
                actual: format!("{capped} capped"),
                witness: None,
            });
        }
        cases
    }

    /// Check 9: the production swap, which scores from tables built once
    /// per call, against [`rescoring_swap`], a copy of the loop it
    /// replaced that re-scores through [`reference_pattern_score`] every scan
    /// and recomputes `set_measures` per candidate. Swaps, scans,
    /// `replaced` pairs and the final set must be identical on check 5's
    /// worlds plus a refreshed-measures one, with the candidates scored up
    /// front and with them filtered only. They must also be identical
    /// after every major batch of check 10's servebench-scale stream and of
    /// the carried-coverage stream below, on the store the batch started
    /// from and candidates generated from every cluster's CSG, which reach
    /// the swap unverified.
    ///
    /// On a bootstrapped [`Midas`]'s major batches, every candidate's
    /// covered count as [`Candidate::verify`] gives it, and every
    /// pattern's count in the
    /// [`midas_core::candidate_gen::CoverageState`], must give the `scov`
    /// that [`reference_scov`] recomputes — also over an empty sample,
    /// where both are 0.
    fn check_swap_score_cache(&self, out: &mut Vec<Divergence>) -> usize {
        let mut cases = 0;
        for w in &self.score_cache_worlds() {
            let indices = WorldIndices::build(&w.db);
            let ctx = indices.ctx(&w.db);
            let store = PatternStore::from_patterns(w.initial.iter().cloned());
            let params = SwapParams::default();
            for (kind, candidates) in [
                ("scored", Candidate::scored(&ctx, w.candidates.clone())),
                ("filtered", Candidate::filtered(&ctx, w.candidates.clone())),
            ] {
                cases += 1;
                let case = format!("{}: {kind} table swap vs re-scoring loop", w.name);
                out.extend(swap_divergence(case, &store, candidates, &ctx, &params).1);
            }
        }
        cases + self.carried_coverage(out) + self.swaps_on_major_batches(out)
    }

    /// The major-batch half of check 9's swap comparison. Fails also when
    /// neither stream makes a swap, since then no swap was compared.
    fn swaps_on_major_batches(&self, out: &mut Vec<Divergence>) -> usize {
        // Check 10's stream, with check 9's drift threshold so that batches
        // turn major.
        let config = MidasConfig {
            epsilon: 0.01,
            ..MidasConfig::small_defaults()
        };
        let servebench = Midas::bootstrap(self.servebench_world(), config);
        let (mut cases, mut swaps) = self.swap_stream(
            "servebench-scale",
            servebench,
            SERVEBENCH_BATCHES,
            |step, db| self.servebench_batch(step, db),
            out,
        );
        let (more_cases, more_swaps) = self.swap_stream(
            "carried-coverage",
            self.carried_coverage_midas(),
            CARRIED_STEPS as usize,
            |step, _| self.carried_coverage_batch(step as u64),
            out,
        );
        cases += more_cases + 1;
        swaps += more_swaps;
        if swaps == 0 {
            out.push(score_cache_divergence(
                "major batches".into(),
                "at least one swap".into(),
                "none".into(),
            ));
        }
        cases
    }

    /// Drives `midas` through `steps` batches drawn by `next` and, after
    /// each major one, compares both swaps on clones of its store. Returns
    /// the cases and the swaps compared.
    fn swap_stream(
        &self,
        name: &str,
        midas: Result<Midas, String>,
        steps: usize,
        next: impl Fn(usize, &GraphDb) -> BatchUpdate,
        out: &mut Vec<Divergence>,
    ) -> (usize, usize) {
        let mut midas = match midas {
            Ok(m) => m,
            Err(e) => {
                out.push(score_cache_divergence(
                    format!("{name}: bootstrap"),
                    "a bootstrapped Midas".into(),
                    e,
                ));
                return (1, 0);
            }
        };
        let (mut cases, mut swaps) = (0, 0);
        for step in 0..steps {
            // The store the batch's own swap started from.
            let store = midas.pattern_store().clone();
            let update = next(step, midas.db());
            if midas.apply_batch(update).kind != ModificationKind::Major {
                continue;
            }
            let sample: BTreeSet<GraphId> = midas.db().ids().collect();
            let ctx = ScovContext {
                fct: midas.fct_index(),
                db: midas.db(),
                sample: &sample,
                catalog: &midas.fct_state().edges,
                kernel: midas.kernel(),
            };
            let csgs: Vec<WeightedCsg> = midas
                .clusters()
                .iter()
                .map(|(_, c)| {
                    WeightedCsg::build(c.csg(), &midas.fct_state().edges, midas.db().len())
                })
                .collect();
            let state = coverage_state(&store, &ctx);
            let config = midas.config();
            let mut rng = StdRng::seed_from_u64(self.seed ^ (0x9C + step as u64));
            let candidates = generate_promising_candidates(
                &csgs,
                &store,
                &ctx,
                &state,
                &config.generation(),
                &mut rng,
            );
            cases += 1;
            let case = format!("{name} major batch {step}: table swap vs re-scoring loop");
            let (made, divergence) =
                swap_divergence(case, &store, candidates, &ctx, &config.swap());
            swaps += made;
            out.extend(divergence);
        }
        (cases, swaps)
    }

    /// Check 5's swap worlds plus check 9's refreshed-measures one.
    fn score_cache_worlds(&self) -> Vec<SwapWorld> {
        let mut worlds = self.swap_worlds();
        worlds.push(refreshed_measures_world());
        worlds
    }

    /// The carried-coverage half of check 9, on a bootstrapped [`Midas`].
    fn carried_coverage(&self, out: &mut Vec<Divergence>) -> usize {
        let mut midas = match self.carried_coverage_midas() {
            Ok(m) => m,
            Err(e) => {
                out.push(score_cache_divergence(
                    "bootstrap".into(),
                    "a bootstrapped Midas".into(),
                    e,
                ));
                return 1;
            }
        };
        let mut cases = 0;
        let mut majors = 0;
        for step in 0..CARRIED_STEPS {
            if midas.apply_batch(self.carried_coverage_batch(step)).kind != ModificationKind::Major
            {
                continue;
            }
            majors += 1;
            let full: BTreeSet<GraphId> = midas.db().ids().collect();
            for (label, sample) in [("sample", full), ("empty sample", BTreeSet::new())] {
                let ctx = ScovContext {
                    fct: midas.fct_index(),
                    db: midas.db(),
                    sample: &sample,
                    catalog: &midas.fct_state().edges,
                    kernel: midas.kernel(),
                };
                let csgs: Vec<WeightedCsg> = midas
                    .clusters()
                    .iter()
                    .map(|(_, c)| {
                        WeightedCsg::build(c.csg(), &midas.fct_state().edges, midas.db().len())
                    })
                    .collect();
                let state = coverage_state(midas.pattern_store(), &ctx);
                let params = midas.config().generation();
                let mut rng = StdRng::seed_from_u64(self.seed ^ (0x9A + step));
                let mut candidates = generate_promising_candidates(
                    &csgs,
                    midas.pattern_store(),
                    &ctx,
                    &state,
                    &params,
                    &mut rng,
                );
                let counts: Vec<usize> = candidates.iter_mut().map(|c| c.verify(&ctx)).collect();
                let carried = candidates
                    .iter()
                    .zip(counts)
                    .map(|(c, covered)| ("candidate", &c.graph, covered))
                    .chain(
                        midas
                            .pattern_store()
                            .iter()
                            .map(|(id, p)| ("pattern", p, state.covered[&id])),
                    );
                for (i, (side, graph, covered)) in carried.enumerate() {
                    cases += 1;
                    let (want, got) = (reference_scov(&ctx, graph), ctx.scov_of(covered));
                    let empty_nonzero = sample.is_empty() && (want != 0.0 || got != 0.0);
                    if want != got || empty_nonzero {
                        out.push(score_cache_divergence(
                            format!("step {step}, {label}: {side} {i} carried scov"),
                            format!("{want:.6} (recomputed)"),
                            format!("{got:.6} (carried count {covered})"),
                        ));
                    }
                }
            }
        }
        cases += 1;
        if majors == 0 {
            out.push(score_cache_divergence(
                "coverage".into(),
                "at least one major batch".into(),
                "none".into(),
            ));
        }
        cases
    }
}

impl Oracle {
    /// Check 9's carried-coverage world: a bootstrapped [`Midas`] whose
    /// low drift threshold makes every novel-family batch major.
    fn carried_coverage_midas(&self) -> Result<Midas, String> {
        let db = DatasetSpec::new(DatasetKind::AidsLike, 24, self.seed ^ 0x90)
            .generate()
            .db;
        let config = MidasConfig {
            epsilon: 0.01,
            ..MidasConfig::small_defaults()
        };
        Midas::bootstrap(db, config)
    }

    /// Step `step` of the carried-coverage stream.
    fn carried_coverage_batch(&self, step: u64) -> BatchUpdate {
        novel_family_batch(boronic_ester_family(), 10, self.seed ^ (0x91 + step))
    }

    /// Check 12: candidate generation, which asks each Eq. 2 and Def. 5.5
    /// question once per call, against [`reference_promising_candidates`],
    /// the loop that re-asked them. Candidate graphs, their order and
    /// covered counts, and the next `u64` of the RNG afterwards must be
    /// equal; see `candidate_divergence` for the unverified candidates.
    ///
    /// Worlds: its own list of the synthetic, generated and
    /// refreshed-measures worlds of checks 5 and 9, with the initial
    /// patterns as the store, at κ 0 and 0.1, over CSGs of the whole
    /// database and of each half, and over one CSG per graph (so classes repeat across CSGs, and
    /// one edge index names different labels in different CSGs); and the
    /// major batches of check 9's carried-coverage [`Midas`], over the CSGs
    /// of the clusters each batch changed and over every cluster's CSG.
    /// The check fails when a listed world is missing or contributes no
    /// case.
    fn check_candidates_vs_reference(&self, out: &mut Vec<Divergence>) -> usize {
        let missing = |name: &str| Divergence {
            check: "candidates_vs_reference",
            case: format!("world {name}"),
            expected: "at least one case".into(),
            actual: "none".into(),
            witness: None,
        };
        // Its own list, so that a change to another check's worlds cannot
        // shrink this one unseen.
        let worlds = [
            ("synthetic", Some(synthetic_world())),
            ("generated", self.generated_world()),
            ("refreshed-measures", Some(refreshed_measures_world())),
        ];
        let mut cases = 0;
        for (wi, (name, w)) in worlds.into_iter().enumerate() {
            let before = cases;
            let Some(w) = w else {
                out.push(missing(name));
                continue;
            };
            let indices = WorldIndices::build(&w.db);
            let ctx = indices.ctx(&w.db);
            let store = PatternStore::from_patterns(w.initial.iter().cloned());
            let state = coverage_state(&store, &ctx);
            let ids: Vec<GraphId> = w.db.ids().collect();
            let (front, back) = ids.split_at(ids.len() / 2);
            let halves = vec![ids.clone(), front.to_vec(), back.to_vec()];
            let singles = ids.iter().map(|&id| vec![id]).collect();
            for (li, (layout, parts)) in [("whole and halves", halves), ("one per graph", singles)]
                .into_iter()
                .enumerate()
            {
                let csgs: Vec<WeightedCsg> = parts
                    .iter()
                    .map(|part| {
                        let closure = ClosureGraph::from_graphs(
                            part.iter()
                                .filter_map(|&id| Some((id, w.db.get(id)?.as_ref()))),
                        );
                        WeightedCsg::build(&closure, &indices.catalog, w.db.len())
                    })
                    .collect();
                for (ki, kappa) in [0.0, 0.1].into_iter().enumerate() {
                    let params = GenerationParams {
                        budget: midas_catapult::PatternBudget {
                            eta_min: 1,
                            eta_max: 4,
                            gamma: 4,
                        },
                        walks: 40,
                        walk_length: 10,
                        seeds_per_size: 2,
                        kappa,
                    };
                    let seed = self.seed ^ (0xC0 + (wi * 4 + li * 2 + ki) as u64);
                    cases += candidate_divergence(
                        format!("{}, {layout}, κ {kappa}", w.name),
                        &csgs,
                        &store,
                        &ctx,
                        &state,
                        &params,
                        seed,
                        out,
                    );
                }
            }
            if cases == before {
                out.push(missing(name));
            }
        }
        cases + self.candidates_on_major_batches(out)
    }

    /// The carried-coverage half of check 12.
    fn candidates_on_major_batches(&self, out: &mut Vec<Divergence>) -> usize {
        let divergence = |case: &str, expected: &str, actual: String| Divergence {
            check: "candidates_vs_reference",
            case: case.into(),
            expected: expected.into(),
            actual,
            witness: None,
        };
        let mut midas = match self.carried_coverage_midas() {
            Ok(m) => m,
            Err(e) => {
                out.push(divergence("bootstrap", "a bootstrapped Midas", e));
                return 1;
            }
        };
        let members = |midas: &Midas| -> BTreeMap<ClusterId, BTreeSet<GraphId>> {
            midas
                .clusters()
                .iter()
                .map(|(id, c)| (id, c.members().clone()))
                .collect()
        };
        let (mut cases, mut majors) = (0, 0);
        for step in 0..CARRIED_STEPS {
            let before = members(&midas);
            if midas.apply_batch(self.carried_coverage_batch(step)).kind != ModificationKind::Major
            {
                continue;
            }
            majors += 1;
            let sample: BTreeSet<GraphId> = midas.db().ids().collect();
            let ctx = ScovContext {
                fct: midas.fct_index(),
                db: midas.db(),
                sample: &sample,
                catalog: &midas.fct_state().edges,
                kernel: midas.kernel(),
            };
            let params = midas.config().generation();
            let state = coverage_state(midas.pattern_store(), &ctx);
            // The batch consumed its dirty flags: the clusters it changed
            // are the ones whose members moved. Every cluster's CSG makes
            // a second world, in which classes repeat across CSGs.
            for (label, changed_only) in [("changed clusters", true), ("all clusters", false)] {
                let csgs: Vec<WeightedCsg> = midas
                    .clusters()
                    .iter()
                    .filter(|(id, c)| !changed_only || before.get(id) != Some(c.members()))
                    .map(|(_, c)| {
                        WeightedCsg::build(c.csg(), &midas.fct_state().edges, midas.db().len())
                    })
                    .collect();
                cases += candidate_divergence(
                    format!("major batch {step}, {label}"),
                    &csgs,
                    midas.pattern_store(),
                    &ctx,
                    &state,
                    &params,
                    self.seed ^ (0xCA + step),
                    out,
                );
            }
        }
        cases += 1;
        if majors == 0 {
            out.push(divergence(
                "coverage",
                "at least one major batch",
                "none".into(),
            ));
        }
        cases
    }

    /// Check 13: CATAPULT selection, which asks each class's `lcov`, `cog`
    /// and `ccov` once per call and matches `ccov` only when the class's
    /// bound can beat the round's best, vs [`rescoring_selection`], the
    /// loop that re-scored every candidate. The patterns must be equal
    /// graph for graph (vertex numbering included) and in order, on two
    /// small seeded worlds at two budgets and two selection seeds, and on
    /// the bootstrap of check 10's servebench-scale world at servebench's
    /// configuration, where the check also fails if the bound skipped no
    /// class.
    fn check_select_vs_reference(&self, out: &mut Vec<Divergence>) -> usize {
        let divergence = |case: String, expected: String, actual: String| Divergence {
            check: "select_vs_reference",
            case,
            expected,
            actual,
            witness: None,
        };
        let compare = |case: String, db: &GraphDb, config: &MidasConfig, out: &mut Vec<_>| {
            let fct = FctState::build(db, config.mining());
            let space = FeatureSpace::from_fct(&fct.lattice, config.sup_min, db.len());
            let clusters = ClusterSet::build(db, &fct.lattice, space, config.clustering());
            let selection = config.selection();
            let (got, stats) =
                select_patterns_with_stats(&clusters, &fct.edges, db.len(), &selection);
            let want = rescoring_selection(&clusters, &fct.edges, db.len(), &selection);
            if got != want {
                let render = |ps: &[LabeledGraph]| {
                    let graphs: Vec<String> = ps.iter().map(graph_json).collect();
                    format!("[{}]", graphs.join(", "))
                };
                out.push(divergence(case, render(&want), render(&got)));
            }
            stats
        };
        let mut cases = 0;
        for (name, kind) in [
            ("aids_like", DatasetKind::AidsLike),
            ("pubchem_like", DatasetKind::PubchemLike),
        ] {
            let db = DatasetSpec::new(kind, 30, self.seed ^ 0x50).generate().db;
            for (eta_max, gamma) in [(4, 4), (6, 10)] {
                for seed in [self.seed, self.seed ^ 0x51] {
                    let config = MidasConfig {
                        budget: midas_catapult::PatternBudget {
                            eta_min: 3,
                            eta_max,
                            gamma,
                        },
                        coarse_clusters: 3,
                        seed,
                        ..MidasConfig::small_defaults()
                    };
                    let case = format!("{name}, η 3–{eta_max}, γ {gamma}, seed {seed}");
                    compare(case, &db, &config, out);
                    cases += 1;
                }
            }
        }
        let config = MidasConfig {
            budget: midas_catapult::PatternBudget {
                eta_min: 3,
                eta_max: 6,
                gamma: 10,
            },
            sup_min: 0.4,
            max_tree_edges: 3,
            coarse_clusters: 5,
            ..MidasConfig::default()
        };
        let stats = compare(
            "servebench-scale bootstrap".into(),
            &self.servebench_world(),
            &config,
            out,
        );
        if stats.ccov_matched >= stats.classes {
            out.push(divergence(
                "servebench-scale bootstrap: bound".into(),
                "fewer ccov matches than classes".into(),
                format!(
                    "{} of {} classes matched",
                    stats.ccov_matched, stats.classes
                ),
            ));
        }
        cases + 1
    }
}

/// Check 13's reference: CATAPULT's selection loop as it ran before the
/// per-class scores, which re-scores every candidate it grows, repeats of
/// a class included, and matches each against every CSG projection.
fn rescoring_selection(
    clusters: &ClusterSet,
    catalog: &EdgeCatalog,
    db_len: usize,
    config: &SelectionConfig,
) -> Vec<LabeledGraph> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut csgs: Vec<WeightedCsg> = clusters
        .iter()
        .map(|(_, c)| WeightedCsg::build(c.csg(), catalog, db_len))
        .collect();
    let projections = csg_projections(clusters);
    let mut patterns: Vec<LabeledGraph> = Vec::new();
    let mut seen: BTreeSet<CanonicalCode> = BTreeSet::new();
    let mut per_size: BTreeMap<usize, usize> = BTreeMap::new();
    let cap = config.budget.per_size_cap();
    for _ in 0..config.budget.gamma * 4 {
        if patterns.len() >= config.budget.gamma {
            break;
        }
        let mut best: Option<(f64, LabeledGraph, CanonicalCode, usize)> = None;
        for (ci, csg) in csgs.iter().enumerate() {
            let order =
                random_walks(csg, config.walks, config.walk_length, &mut rng).edges_by_frequency();
            for size in config.budget.eta_min..=config.budget.eta_max {
                if per_size.get(&size).copied().unwrap_or(0) >= cap {
                    continue;
                }
                let mut no_hook = |_: &[(u32, u32)], _: (u32, u32)| true;
                let candidates =
                    generate_candidates(csg, &order, size, config.seeds_per_size, &mut no_hook);
                for (candidate, code) in candidates {
                    if seen.contains(&code) {
                        continue;
                    }
                    let score = pattern_score(PatternScoreParts {
                        coverage: ccov_projected(&candidate, &projections, db_len),
                        lcov: lcov_pattern(&candidate, catalog, db_len),
                        div: diversity(&candidate, &patterns),
                        cog: candidate.cognitive_load(),
                    });
                    if best.as_ref().is_none_or(|(b, ..)| score > *b) {
                        best = Some((score, candidate, code, ci));
                    }
                }
            }
        }
        let Some((_, chosen, code, source)) = best else {
            break;
        };
        seen.insert(code);
        *per_size.entry(chosen.edge_count()).or_insert(0) += 1;
        csgs[source].penalize(&chosen, config.mwu_penalty);
        patterns.push(chosen);
    }
    patterns
}

/// Batches in check 9's carried-coverage stream (check 12 replays it).
const CARRIED_STEPS: u64 = 3;

/// Runs production candidate generation and its reference from the same
/// RNG seed and pushes their disagreement, if any. Each unverified
/// candidate's count is forced through [`Candidate::verify`], the
/// verification the swap runs, and its survivors must contain every
/// sampled graph that serial VF2 finds it in. Returns the cases: the
/// comparison and one per unverified candidate.
#[allow(clippy::too_many_arguments)]
fn candidate_divergence(
    case: String,
    csgs: &[WeightedCsg],
    store: &PatternStore,
    ctx: &ScovContext<'_>,
    state: &midas_core::candidate_gen::CoverageState,
    params: &GenerationParams,
    seed: u64,
    out: &mut Vec<Divergence>,
) -> usize {
    let divergence = |case: String, expected: String, actual: String| Divergence {
        check: "candidates_vs_reference",
        case,
        expected,
        actual,
        witness: None,
    };
    let run = |generate: GenerateFn| {
        let mut rng = StdRng::seed_from_u64(seed);
        let candidates = generate(csgs, store, ctx, state, params, &mut rng);
        (candidates, rng.next_u64())
    };
    let (got, got_next) = run(generate_promising_candidates);
    let (want, want_next) = run(reference_promising_candidates);
    let mut cases = 1;
    for (i, c) in got.iter().enumerate() {
        let Coverage::Survivors(survivors) = &c.coverage else {
            continue;
        };
        cases += 1;
        let missed: Vec<GraphId> = ctx
            .sample
            .iter()
            .copied()
            .filter(|&id| ctx.db.get(id).is_some_and(|g| is_subgraph_of(&c.graph, g)))
            .filter(|id| survivors.binary_search(id).is_err())
            .collect();
        if !missed.is_empty() {
            out.push(divergence(
                format!("{case}: candidate {i} survivors"),
                "every sampled graph that contains the candidate".into(),
                format!("{} missing: {missed:?}", graph_json(&c.graph)),
            ));
        }
    }
    let counted = |candidates: Vec<Candidate>, next: u64| {
        let outcome: Vec<(LabeledGraph, usize)> = candidates
            .into_iter()
            .map(|mut c| {
                let covered = c.verify(ctx);
                (c.graph, covered)
            })
            .collect();
        (outcome, next)
    };
    let (got, want) = (counted(got, got_next), counted(want, want_next));
    let describe = |(outcome, next): &(Vec<(LabeledGraph, usize)>, u64)| {
        let graphs: Vec<String> = outcome
            .iter()
            .map(|(g, covered)| format!("{} covering {covered}", graph_json(g)))
            .collect();
        format!("[{}], next u64 {next}", graphs.join(", "))
    };
    if got != want {
        out.push(divergence(case, describe(&want), describe(&got)));
    }
    cases
}

/// The signature `generate_promising_candidates` and its reference share.
type GenerateFn = fn(
    &[WeightedCsg],
    &PatternStore,
    &ScovContext<'_>,
    &midas_core::candidate_gen::CoverageState,
    &GenerationParams,
    &mut StdRng,
) -> Vec<Candidate>;

/// The owned parts of a swap world's scoring context: no FCT-Index rows,
/// and the whole database as the sample.
struct WorldIndices {
    fct: FctIndex,
    catalog: EdgeCatalog,
    sample: BTreeSet<GraphId>,
    kernel: MatchKernel,
}

impl WorldIndices {
    fn build(db: &GraphDb) -> Self {
        let refs: Vec<(GraphId, &LabeledGraph)> =
            db.iter().map(|(id, g)| (id, g.as_ref())).collect();
        WorldIndices {
            fct: FctIndex::new(),
            catalog: EdgeCatalog::build(refs.iter().copied()),
            sample: db.ids().collect(),
            kernel: MatchKernel::new(),
        }
    }

    fn ctx<'a>(&'a self, db: &'a GraphDb) -> ScovContext<'a> {
        ScovContext {
            fct: &self.fct,
            db,
            sample: &self.sample,
            catalog: &self.catalog,
            kernel: &self.kernel,
        }
    }
}

/// One differential check: collects divergences, returns its case count.
type CheckFn = fn(&Oracle, &mut Vec<Divergence>) -> usize;

/// One swap run: the outcome, the final pattern set, the pre-swap
/// id → pattern map, and the mutated store (for id lookups).
type SwapRunResult = (
    SwapOutcome,
    Vec<LabeledGraph>,
    BTreeMap<PatternId, LabeledGraph>,
    PatternStore,
);

/// A synthetic database engineered so exactly one beneficial swap exists
/// (stale C-O-N pattern vs dominant S-S-S chains): the brute-force sw1
/// replay has a real swap to audit.
fn synthetic_world() -> SwapWorld {
    let mut graphs = vec![path(&[0, 1, 2])];
    graphs.extend(vec![path(&[3, 3, 3]); 5]);
    SwapWorld {
        name: "synthetic",
        db: GraphDb::from_graphs(graphs),
        initial: vec![path(&[0, 1, 2])],
        candidates: vec![path(&[3, 3, 3])],
    }
}

/// Check 9's refreshed-measures world. The larger S-family replaces the
/// coverage-free pattern first. The smaller one then fails sw5 against
/// C-O-N, whose edge labels reach the C-O and O-N graphs: only the set
/// measures refreshed after the first swap reject it.
fn refreshed_measures_world() -> SwapWorld {
    let mut graphs = vec![path(&[0, 1, 2])];
    graphs.extend(vec![path(&[0, 1]); 3]);
    graphs.extend(vec![path(&[1, 2]); 3]);
    graphs.extend(vec![path(&[3, 3, 3]); 5]);
    graphs.extend(vec![path(&[4, 4, 4]); 4]);
    SwapWorld {
        name: "refreshed-measures",
        db: GraphDb::from_graphs(graphs),
        initial: vec![path(&[0, 1, 2]), path(&[5, 5, 5])],
        candidates: vec![path(&[3, 3, 3]), path(&[4, 4, 4])],
    }
}

/// A swap world: database, initial patterns and candidates.
struct SwapWorld {
    name: &'static str,
    db: GraphDb,
    initial: Vec<LabeledGraph>,
    candidates: Vec<LabeledGraph>,
}

/// Runs the production swap and [`rescoring_swap`] on clones of `store`.
/// Returns the production swap's count and the two runs' disagreement, if
/// any.
fn swap_divergence(
    case: String,
    store: &PatternStore,
    candidates: Vec<Candidate>,
    ctx: &ScovContext<'_>,
    params: &SwapParams,
) -> (usize, Option<Divergence>) {
    let graphs = candidates.iter().map(|c| c.graph.clone()).collect();
    let mut fast = store.clone();
    let coverage = coverage_state(&fast, ctx);
    let got = multi_scan_swap(&mut fast, candidates, &coverage, ctx, params);
    let mut reference = store.clone();
    let want = rescoring_swap(&mut reference, graphs, ctx, params);
    let same = got.swaps == want.swaps
        && got.scans == want.scans
        && got.replaced == want.replaced
        && fast.graphs() == reference.graphs();
    let describe = |o: &SwapOutcome, store: &PatternStore| {
        format!(
            "swaps {}, scans {}, replaced {:?}, {} final patterns",
            o.swaps,
            o.scans,
            o.replaced,
            store.len()
        )
    };
    let divergence = (!same)
        .then(|| score_cache_divergence(case, describe(&want, &reference), describe(&got, &fast)));
    (got.swaps, divergence)
}

/// Check 9's reference: the multi-scan swap as it ran before scores were
/// cached — every scan re-scores both sides through [`reference_scov`],
/// and every candidate that reaches sw3 recomputes the current set's
/// measures.
fn rescoring_swap(
    store: &mut PatternStore,
    candidates: Vec<LabeledGraph>,
    ctx: &ScovContext<'_>,
    params: &SwapParams,
) -> SwapOutcome {
    let score = |p: &LabeledGraph, others: &[LabeledGraph]| reference_pattern_score(ctx, p, others);
    let mut outcome = SwapOutcome::default();
    if candidates.is_empty() || store.is_empty() {
        return outcome;
    }
    let mut pool = candidates;
    let mut sigma = 0.25f64;
    let mut kappa = params.kappa;
    loop {
        outcome.scans += 1;
        let current = store.graphs();
        let mut ranked: Vec<(f64, f64, LabeledGraph)> = pool
            .iter()
            .map(|c| (score(c, &current), reference_scov(ctx, c), c.clone()))
            .collect();
        ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));
        let mut pq_patterns: Vec<(f64, f64, PatternId)> = store
            .iter()
            .map(|(id, p)| {
                let others: Vec<LabeledGraph> = store
                    .iter()
                    .filter(|(other, _)| *other != id)
                    .map(|(_, q)| q.clone())
                    .collect();
                (score(p, &others), reference_scov(ctx, p), id)
            })
            .collect();
        pq_patterns.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite scores"));
        let mut swaps_this_scan = 0;
        let mut consumed: BTreeSet<usize> = BTreeSet::new();
        let mut victim_idx = 0usize;
        for (ci, (cand_score, cand_scov, candidate)) in ranked.iter().enumerate() {
            if victim_idx >= pq_patterns.len() {
                break;
            }
            let (victim_score, victim_scov, victim_id) = pq_patterns[victim_idx];
            if *cand_score < (1.0 + params.lambda) * victim_score {
                break;
            }
            if *cand_scov < (1.0 + kappa) * victim_scov {
                continue;
            }
            let victim_graph = store.get(victim_id).expect("live pattern").clone();
            let before: Vec<LabeledGraph> = store.graphs();
            let mut after: Vec<LabeledGraph> = store
                .iter()
                .filter(|(id, _)| *id != victim_id)
                .map(|(_, p)| p.clone())
                .collect();
            after.push(candidate.clone());
            let m_before = midas_catapult::score::set_measures(&before, ctx.catalog, ctx.sample);
            let m_after = midas_catapult::score::set_measures(&after, ctx.catalog, ctx.sample);
            let sw3 = m_after.div >= m_before.div;
            let sw4 = m_before.cog >= m_after.cog;
            let sw5 = m_after.lcov >= m_before.lcov;
            let sizes_before = store.sizes();
            let mut sizes_after: Vec<usize> = before.iter().map(|p| p.edge_count()).collect();
            if let Some(pos) = sizes_after
                .iter()
                .position(|&s| s == victim_graph.edge_count())
            {
                sizes_after[pos] = candidate.edge_count();
            }
            let ks_ok = distributions_similar(&sizes_before, &sizes_after, params.ks_alpha);
            if !(sw3 && sw4 && sw5 && ks_ok) {
                continue;
            }
            store.remove(victim_id);
            let new_id = store
                .insert(candidate.clone())
                .expect("candidates were deduplicated against the store");
            outcome.replaced.push((victim_id, new_id));
            outcome.swaps += 1;
            swaps_this_scan += 1;
            consumed.insert(ci);
            victim_idx += 1;
        }
        pool = ranked
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !consumed.contains(i))
            .map(|(_, (_, _, c))| c)
            .collect();
        if swaps_this_scan == 0 || pool.is_empty() || sigma >= 0.5 {
            break;
        }
        kappa = (1.0 - 2.0 * sigma).max(0.0);
        sigma = 0.25 / (1.0 - sigma);
    }
    outcome
}

/// Counts embeddings of `pattern` in `target` through a freshly compiled
/// plan: check 6's fast side.
fn count_embeddings_plan(pattern: &LabeledGraph, target: &LabeledGraph, cap: u64) -> u64 {
    MatchPlan::compile(pattern).count_embeddings(&Csr::from_graph(target), cap)
}

/// Whether `pattern ⊆ target` through a freshly compiled plan.
fn is_subgraph_plan(pattern: &LabeledGraph, target: &LabeledGraph) -> bool {
    MatchPlan::compile(pattern).is_subgraph_of(&Csr::from_graph(target))
}

/// Up to `limit` embeddings through a freshly compiled plan, in
/// `pattern`'s own vertex numbering.
fn find_embeddings_plan(
    pattern: &LabeledGraph,
    target: &LabeledGraph,
    limit: usize,
) -> Vec<Vec<u32>> {
    MatchPlan::compile(pattern).find_embeddings(&Csr::from_graph(target), limit)
}

/// A path graph over `labels`.
fn path(labels: &[u32]) -> LabeledGraph {
    let vs: Vec<u32> = (0..labels.len() as u32).collect();
    GraphBuilder::new().vertices(labels).path(&vs).build()
}

fn score_cache_divergence(case: String, expected: String, actual: String) -> Divergence {
    Divergence {
        check: "swap_score_cache",
        case,
        expected,
        actual,
        witness: None,
    }
}

/// Applies `batches` batches drawn by `next` to `db` through
/// `FctState::apply_batch` and compares the lattice with a from-scratch
/// build after each one. Returns the number of comparisons.
fn replay_mining(
    world: &str,
    mut db: GraphDb,
    config: MiningConfig,
    batches: usize,
    out: &mut Vec<Divergence>,
    mut next: impl FnMut(usize, &GraphDb) -> BatchUpdate,
) -> usize {
    let mut state = FctState::build(&db, config);
    for step in 0..batches {
        let update = next(step, &db);
        // Snapshot Δ⁻ graphs before they leave the database.
        let deleted_pre: Vec<(GraphId, Arc<LabeledGraph>)> = update
            .delete
            .iter()
            .filter_map(|&id| db.get(id).map(|g| (id, Arc::clone(g))))
            .collect();
        let tracked_before: BTreeSet<TreeKey> =
            state.lattice.iter().map(|(k, _)| k.clone()).collect();
        let old_len = db.len();
        let (inserted, _) = db.apply(update);
        let deleted_refs: Vec<(GraphId, &LabeledGraph)> = deleted_pre
            .iter()
            .map(|(id, g)| (*id, g.as_ref()))
            .collect();
        state.apply_batch(&db, &inserted, &deleted_refs);

        // Without the rebuild, maintenance tracks exactly the trees that
        // were tracked before or are frequent in Δ⁺ at the relaxed
        // threshold, and that clear it over the post-batch database.
        let rebuilt = deleted_pre.len() * 2 > old_len;
        let relaxed = MiningConfig {
            sup_min: state.relaxed_threshold(),
            ..config
        };
        let delta = mine_lattice(&db, &inserted, &relaxed);
        let maintained =
            |key: &TreeKey| rebuilt || tracked_before.contains(key) || delta.contains(key);
        let scratch = FctState::build(&db, config);
        if let Some(diff) = lattice_divergence(&state, &scratch, db.len(), &maintained) {
            out.push(Divergence {
                check: "incremental_mining",
                case: format!("{world} step {step} (db of {} graphs)", db.len()),
                expected: format!("{} tracked trees", scratch.lattice.len()),
                actual: diff,
                witness: None,
            });
        }
    }
    batches
}

/// How an incrementally maintained lattice departs from a from-scratch
/// build of the same database, or `None` when it keeps every guarantee
/// maintenance gives: each tracked tree carries its exact support set,
/// each tree frequent at `sup_min` is tracked (Lemma 4.5) with the same
/// closed flag, and the tracked trees are exactly the scratch trees that
/// `maintained` names. A scratch tree below `sup_min` may be missing: a
/// deletion can lift an untracked tree over the relaxed threshold without
/// anything re-mining it.
fn lattice_divergence(
    state: &FctState,
    scratch: &FctState,
    db_len: usize,
    maintained: &dyn Fn(&TreeKey) -> bool,
) -> Option<String> {
    let (mut extra, mut drifted, mut missing, mut flipped) = (0, 0, 0, 0);
    let (mut unmaintained, mut dropped) = (0, 0);
    for (key, entry) in state.lattice.iter() {
        match scratch.lattice.get(key) {
            None => extra += 1,
            Some(want) if want.support != entry.support => drifted += 1,
            Some(_) => {}
        }
        if !maintained(key) {
            unmaintained += 1;
        }
    }
    for (key, _) in scratch.lattice.iter() {
        if maintained(key) && !state.lattice.contains(key) {
            dropped += 1;
        }
    }
    for (key, want) in scratch.frequent_trees(db_len) {
        match state.lattice.get(key) {
            None => missing += 1,
            Some(got) if got.closed != want.closed => flipped += 1,
            Some(_) => {}
        }
    }
    (extra + drifted + missing + flipped + unmaintained + dropped > 0).then(|| {
        format!(
            "{} tracked trees: {extra} not tracked from scratch, {drifted} with drifted \
             support, {missing} frequent ones missing, {flipped} frequent ones with a \
             flipped closed flag, {unmaintained} neither tracked before nor frequent in \
             the inserted graphs, {dropped} tracked before or frequent in the inserted \
             graphs but dropped",
            state.lattice.len()
        )
    })
}

/// How `midas`'s maintained edge catalog departs from
/// [`EdgeCatalog::build`] over its current database, or `None` when every
/// label has the same supporting graphs and the same occurrence counts.
fn catalog_divergence(midas: &Midas) -> Option<String> {
    let db = midas.db();
    let want = EdgeCatalog::build(db.iter().map(|(id, g)| (id, g.as_ref())));
    let have = &midas.fct_state().edges;
    let labels: BTreeSet<EdgeLabel> = want.labels().chain(have.labels()).map(|(l, _)| l).collect();
    let (mut missing, mut extra, mut support, mut occurrences) = (0, 0, 0, 0);
    for label in labels {
        match (want.get(label), have.get(label)) {
            (Some(_), None) => missing += 1,
            (None, Some(_)) => extra += 1,
            (Some(w), Some(h)) => {
                support += usize::from(w.support != h.support);
                occurrences += usize::from(w.occurrences != h.occurrences);
            }
            (None, None) => {}
        }
    }
    (missing + extra + support + occurrences > 0).then(|| {
        format!(
            "{} labels: {missing} missing, {extra} extra, {support} with other supporting \
             graphs, {occurrences} with other occurrence counts",
            want.len()
        )
    })
}

/// How `midas`'s maintained FCT-Index departs from the reference over its
/// current database, or `None` when its feature keys are those of
/// [`FctState::index_trees`] (the function the framework reads) and
/// every TG cell, keyed by [`TreeKey`] since feature ids depend on
/// insertion history, equals VF2's count in [`reference_tg_cells`].
fn index_divergence(midas: &Midas) -> Option<String> {
    let db = midas.db();
    let features: Vec<(TreeKey, LabeledGraph)> = midas
        .fct_state()
        .index_trees(db.len())
        .into_iter()
        .map(|(k, e)| (k.clone(), e.tree.clone()))
        .collect();
    let want_keys: BTreeSet<TreeKey> = features.iter().map(|(k, _)| k.clone()).collect();
    let want_tg = reference_tg_cells(&features, db.iter().map(|(id, g)| (id, g.as_ref())));

    let got = midas.fct_index();
    let key: BTreeMap<FeatureId, &TreeKey> = got.features().map(|(id, f)| (id, &f.key)).collect();
    let have_keys: BTreeSet<TreeKey> = key.values().map(|&k| k.clone()).collect();
    let have_tg: BTreeMap<(TreeKey, GraphId), u32> = got
        .tg()
        .iter()
        .map(|(fid, gid, count)| ((key[&fid].clone(), gid), count))
        .collect();
    let mut diffs = Vec::new();
    if want_keys != have_keys {
        diffs.push(format!(
            "feature keys: {} missing, {} extra",
            want_keys.difference(&have_keys).count(),
            have_keys.difference(&want_keys).count()
        ));
    }
    let tg_off = cells_differing(&want_tg, &have_tg);
    if tg_off > 0 {
        diffs.push(format!("{tg_off} of {} TG cells differ", want_tg.len()));
    }
    (!diffs.is_empty()).then(|| diffs.join("; "))
}

/// Number of keys whose value differs between two sparse cell maps (an
/// absent key reads as zero).
fn cells_differing<K: Ord>(a: &BTreeMap<K, u32>, b: &BTreeMap<K, u32>) -> usize {
    let only_b = b.keys().filter(|k| !a.contains_key(k)).count();
    a.iter().filter(|(k, v)| b.get(k) != Some(v)).count() + only_b
}

/// `pattern`'s capped count in each of `graphs` through `kernel`: the
/// one-pattern [`MatchKernel::count_grid`].
fn count_row(kernel: &MatchKernel, pattern: &LabeledGraph, graphs: &[(GraphId, &Csr)]) -> Vec<u64> {
    let prepared = CachedPattern::new(pattern);
    let grid = kernel.count_grid(&[&prepared], graphs, COUNT_CAP);
    grid.into_iter().map(|row| row[0]).collect()
}

/// A kernel-count divergence with a shrunk `(pattern, graph)` witness.
fn count_divergence(
    case: String,
    want: u64,
    got: u64,
    pattern: &LabeledGraph,
    graph: &LabeledGraph,
) -> Divergence {
    // Shrink against a *fresh* kernel: only violations that are a
    // reproducible property of the pair minimize; staleness bugs keep the
    // original pair as witness.
    let violates = |p: &LabeledGraph, g: &LabeledGraph| {
        let fresh = MatchKernel::new();
        let fast = count_row(&fresh, p, &[(GraphId(0), &Csr::from_graph(g))]);
        fast[0] != count_embeddings(p, g, COUNT_CAP)
    };
    let witness = minimize_pair(pattern, graph, violates);
    Divergence {
        check: "kernel_vs_serial",
        case,
        expected: want.to_string(),
        actual: got.to_string(),
        witness: Some(witness),
    }
}

/// A `plan_vs_vf2` divergence, with the pair minimized against the axis
/// that actually disagreed (re-checking all three axes keeps the shrinker
/// honest when a smaller pair diverges differently).
fn plan_divergence(
    case: String,
    expected: String,
    actual: String,
    pattern: &LabeledGraph,
    graph: &LabeledGraph,
) -> Divergence {
    let violates = |p: &LabeledGraph, g: &LabeledGraph| {
        count_embeddings_plan(p, g, COUNT_CAP) != count_embeddings(p, g, COUNT_CAP)
            || is_subgraph_plan(p, g) != is_subgraph_of(p, g)
            || find_embeddings_plan(p, g, 4096) != find_embeddings(p, g, 4096)
    };
    let witness = minimize_pair(pattern, graph, violates);
    Divergence {
        check: "plan_vs_vf2",
        case,
        expected,
        actual,
        witness: Some(witness),
    }
}

/// A `serve_vs_library` divergence (no graph witness — the batches are
/// explicit and seeded, so the case string is the reproduction recipe).
fn serve_divergence(case: &str, expected: &str, actual: &str) -> Divergence {
    Divergence {
        check: "serve_vs_library",
        case: case.to_owned(),
        expected: expected.to_owned(),
        actual: actual.to_owned(),
        witness: None,
    }
}

/// The first difference between two cluster sets, comparing cluster ids
/// with their members in group order and each cluster's CSG member set.
/// The shadow is the expectation; the witness comes from [`memo_witness`].
fn cluster_diff(
    step: usize,
    db: &GraphDb,
    primary: &ClusterSet,
    shadow: &ClusterSet,
) -> Option<Divergence> {
    let groups = |set: &ClusterSet| -> Vec<(u64, Vec<GraphId>, Vec<GraphId>)> {
        set.iter()
            .map(|(cid, c)| {
                let members = c.members().iter().copied().collect();
                let csg = c.csg().members().iter().copied().collect();
                (cid.0, members, csg)
            })
            .collect()
    };
    let (want, got) = (groups(shadow), groups(primary));
    if want == got {
        return None;
    }
    let at = want
        .iter()
        .zip(&got)
        .position(|(w, g)| w != g)
        .unwrap_or(want.len().min(got.len()));
    let show = |g: Option<&(u64, Vec<GraphId>, Vec<GraphId>)>| match g {
        Some((cid, members, csg)) => {
            format!("C{cid}: members {members:?}, CSG members {csg:?}")
        }
        None => "no cluster".to_owned(),
    };
    Some(memo_divergence(
        format!("step {step}: cluster #{at} of {}", want.len()),
        &show(want.get(at)),
        &show(got.get(at)),
        memo_witness(db, primary, got.get(at).map(|g| g.1.as_slice())),
    ))
}

/// A witness pair for a `fine_cluster_memo` divergence: the first cached
/// score (in id order) that a fresh search disagrees with, or else the
/// seed of the diverging group with the first other member. Minimized on
/// order dependence, the property an unordered memo key would get wrong.
fn memo_witness(
    db: &GraphDb,
    set: &ClusterSet,
    group: Option<&[GraphId]>,
) -> Option<(LabeledGraph, LabeledGraph)> {
    let budget = MCCS_BUDGET;
    let mut entries: Vec<(GraphId, GraphId, f64)> = set.mccs_memo().entries().collect();
    entries.sort_by_key(|&(s, m, _)| (s, m));
    let stale = entries.into_iter().find_map(|(s, m, cached)| {
        let (a, b) = (db.get(s)?, db.get(m)?);
        (mccs_similarity(a, b, budget) != cached).then_some((s, m))
    });
    let (a, b) = stale.or_else(|| {
        let group = group?;
        let seed = *group.iter().max_by_key(|&&id| {
            (
                db.get(id).map_or(0, |g| g.edge_count()),
                std::cmp::Reverse(id),
            )
        })?;
        Some((seed, *group.iter().find(|&&id| id != seed)?))
    })?;
    let violates = |a: &LabeledGraph, b: &LabeledGraph| {
        mccs_similarity(a, b, budget) != mccs_similarity(b, a, budget)
    };
    Some(minimize_pair(db.get(a)?, db.get(b)?, violates))
}

/// A `fine_cluster_memo` divergence.
fn memo_divergence(
    case: String,
    expected: &str,
    actual: &str,
    witness: Option<(LabeledGraph, LabeledGraph)>,
) -> Divergence {
    Divergence {
        check: "fine_cluster_memo",
        case,
        expected: expected.to_owned(),
        actual: actual.to_owned(),
        witness,
    }
}

/// Uniform random connected-or-not labeled graph: `1..=max_v` vertices,
/// labels in `0..labels`, each unordered pair an edge with probability `p`.
fn random_labeled_graph(rng: &mut StdRng, max_v: usize, labels: u32, p: f64) -> LabeledGraph {
    let n = rng.random_range(1..=max_v);
    let mut g = LabeledGraph::new();
    for _ in 0..n {
        g.add_vertex(rng.random_range(0..labels));
    }
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if rng.random_bool(p) {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// Exact isomorphism for small graphs via mutual size + one-way embedding.
fn graphs_isomorphic(a: &LabeledGraph, b: &LabeledGraph) -> bool {
    a.vertex_count() == b.vertex_count()
        && a.edge_count() == b.edge_count()
        && a.sorted_labels() == b.sorted_labels()
        && is_subgraph_of(a, b)
}

/// Independent reference for `midas_catapult::score::set_measures`: the
/// exact quantities sw3–sw5 guard (min diversity, max cognitive load,
/// sampled label coverage).
fn set_measures(
    patterns: &[LabeledGraph],
    catalog: &EdgeCatalog,
    sample: &BTreeSet<GraphId>,
) -> (f64, f64, f64) {
    let div = patterns
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let others: Vec<LabeledGraph> = patterns
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, q)| q.clone())
                .collect();
            diversity(p, &others)
        })
        .fold(f64::INFINITY, f64::min);
    let div = if div.is_finite() { div } else { 0.0 };
    let cog = patterns
        .iter()
        .map(|p| p.cognitive_load())
        .fold(0.0, f64::max);
    let mut union: BTreeSet<GraphId> = BTreeSet::new();
    for p in patterns {
        for label in p.edge_labels() {
            if let Some(stats) = catalog.get(label) {
                union.extend(stats.support.intersection(sample).copied());
            }
        }
    }
    let lcov = if sample.is_empty() {
        0.0
    } else {
        union.len() as f64 / sample.len() as f64
    };
    (div, cog, lcov)
}

/// Brute-force `scov`: the sampled-containment fraction via serial VF2,
/// bypassing every index and cache.
fn brute_scov(pattern: &LabeledGraph, db: &GraphDb, sample: &BTreeSet<GraphId>) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let covered = sample
        .iter()
        .filter(|&&id| db.get(id).is_some_and(|g| is_subgraph_of(pattern, g)))
        .count();
    covered as f64 / sample.len() as f64
}

/// Proves end-to-end fault containment: arms the injector once at exec
/// task `target`, drives up to 20 growth batches through a bootstrapped
/// [`Midas`], and
/// requires the injected task panic to be caught by the phase backstop
/// and surface as a [`midas_core::PhaseError`] on the maintenance report
/// (with the flight recorder carrying the `kernel_error` event) rather
/// than an abort or hang. A healthy follow-up batch must then succeed and leave
/// the edge catalog and the FCT-Index equal to a from-scratch build
/// (`catalog_divergence`, `index_divergence`): a failed batch's graphs
/// may not stay missing from either. Returns a
/// human-readable success line, or an error describing which containment
/// guarantee failed.
pub fn fault_containment_pass(seed: u64, target: u64) -> Result<String, String> {
    /// Growth batches driven under the armed injector before the pass
    /// gives up; the database grows by 10 graphs per batch.
    const FAULT_BATCHES: u64 = 20;
    // Bootstrap must run clean — the injector counts tasks process-wide,
    // and the pass is about containment *inside* apply_batch.
    set_fault_for_tests(None);
    let db = DatasetSpec::new(DatasetKind::AidsLike, 20, seed)
        .generate()
        .db;
    let mut midas = Midas::bootstrap(db, MidasConfig::small_defaults())
        .map_err(|e| format!("bootstrap failed: {e}"))?;
    let params = DatasetKind::AidsLike.params();

    // The injected panic is expected; silence the default hook's
    // backtrace spam for the armed region only.
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut result = Err(format!(
        "no batch tripped the injected fault at task {target}; containment unverified"
    ));
    // Armed once: the task ordinal runs on across batches, so a target
    // past one batch's task count fires in a later, larger one.
    set_fault_for_tests(Some(Fault::Task(target)));
    for attempt in 0..FAULT_BATCHES {
        midas_obs::flight::clear();
        let update = growth_batch(&params, 10, seed ^ (0xFA_u64 + attempt));
        let report = midas.apply_batch(update);
        if let Some(err) = report.error {
            let events = midas_obs::flight::events();
            let injected = events.iter().any(|e| e.kind == "fault_injected");
            let recorded = events.iter().any(|e| e.kind == "kernel_error");
            result = if !recorded {
                Err(format!(
                    "contained `{err}` but the flight recorder has no kernel_error event"
                ))
            } else {
                Ok(format!(
                    "contained injected fault on attempt {attempt}: `{err}` \
                     (flight: fault_injected={injected}, kernel_error=true); \
                     process alive, report returned normally"
                ))
            };
            break;
        }
    }
    set_fault_for_tests(None);
    std::panic::set_hook(quiet);
    // Whatever happened, the framework must still be usable afterwards.
    if result.is_ok() {
        let follow_up = midas.apply_batch(growth_batch(&params, 2, seed ^ 0xFF));
        if follow_up.error.is_some() {
            return Err("framework did not recover after the contained fault".into());
        }
        if let Some(diff) = catalog_divergence(&midas).or_else(|| index_divergence(&midas)) {
            return Err(format!(
                "indices did not recover after the contained fault: {diff}"
            ));
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_json_is_valid_json() {
        let g = path(&[0, 1, 2]);
        midas_obs::json::validate(&graph_json(&g)).expect("graph json parses");
    }

    #[test]
    fn report_json_is_valid_json() {
        let report = OracleReport {
            seed: 7,
            checks: vec![CheckRun {
                name: "kernel_vs_serial",
                cases: 3,
            }],
            divergences: vec![Divergence {
                check: "kernel_vs_serial",
                case: "unit \"case\"".into(),
                expected: "1".into(),
                actual: "2".into(),
                witness: Some((path(&[0]), path(&[1, 2]))),
            }],
        };
        midas_obs::json::validate(&report.to_json()).expect("report json parses");
        assert!(!report.is_clean());
        assert_eq!(report.total_cases(), 3);
    }

    #[test]
    fn minimize_pair_shrinks_to_the_smallest_violating_pair() {
        // Artificial violation: "a has at least 2 vertices and b at least
        // 3" — minimal witness is exactly (2, 3) vertices.
        let a = path(&[0, 1, 2, 3, 4]);
        let b = path(&[5, 6, 7, 8]);
        let (sa, sb) = minimize_pair(&a, &b, |x, y| {
            x.vertex_count() >= 2 && y.vertex_count() >= 3
        });
        assert_eq!(sa.vertex_count(), 2);
        assert_eq!(sb.vertex_count(), 3);
    }

    #[test]
    fn minimize_pair_returns_input_when_not_violating() {
        let a = path(&[0, 1]);
        let b = path(&[2]);
        let (sa, sb) = minimize_pair(&a, &b, |_, _| false);
        assert_eq!(sa, a);
        assert_eq!(sb, b);
    }

    #[test]
    fn ged_bounds_check_runs_clean_on_a_small_seed() {
        let oracle = Oracle::new(3);
        let mut divergences = Vec::new();
        let cases = oracle.check_ged_bounds(&mut divergences);
        assert!(cases > 120);
        assert!(divergences.is_empty(), "{:?}", divergences.first());
    }

    #[test]
    fn monitor_check_runs_clean() {
        let oracle = Oracle::new(5);
        let mut divergences = Vec::new();
        let cases = oracle.check_monitor(&mut divergences);
        assert!(cases >= 12);
        assert!(divergences.is_empty(), "{:?}", divergences.first());
    }

    #[test]
    fn serve_parity_check_runs_clean() {
        let oracle = Oracle::new(11);
        let mut divergences = Vec::new();
        let cases = oracle.check_serve_vs_library(&mut divergences);
        assert_eq!(cases, 8, "bootstrap + 3 batches, 2 comparisons each");
        assert!(divergences.is_empty(), "{:?}", divergences.first());
    }
}
