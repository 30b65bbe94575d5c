//! # midas-oracle
//!
//! Differential correctness harness for the MIDAS stack: every fast path
//! in the workspace is cross-checked against its slow reference twin on a
//! seeded, fully reproducible world from `midas-datagen`.
//!
//! The eight checks ([`Oracle::run_all`]):
//!
//! 1. **`kernel_vs_serial`** — [`MatchKernel`] / `EmbeddingCache` counts
//!    and containment vs the serial VF2 walkers
//!    ([`count_embeddings`] / [`is_subgraph_of`]), including memo-hit
//!    rounds and the invalidation/generation boundary (a graph replaced
//!    under the same [`GraphId`]).
//! 2. **`incremental_mining`** — `FctState::apply_batch` vs re-mining the
//!    post-batch database from scratch, over growth and deletion batches.
//! 3. **`graphlet_monitor`** — `GraphletMonitor` add/remove streams
//!    (including id re-adds, bogus removes, and double removes) vs
//!    recounting graphlets over a reference world.
//! 4. **`ged_bounds`** — the GED lower-bound chain
//!    `label ≤ tight ≤ exact` on random and adversarial boundary pairs.
//! 5. **`multi_scan_swap`** — swap runs scored through a shared, warm
//!    kernel and through a fresh single-thread one must agree exactly;
//!    the scoring context's `scov` must equal brute-force VF2 coverage;
//!    set measures guarded by sw3–sw5 must not degrade; a single
//!    accepted swap must replay sw1 against brute-force coverage.
//! 6. **`plan_vs_vf2`** — the plan-compiled CSR matcher
//!    ([`midas_graph::plan`]) vs the VF2 reference on random pairs:
//!    capped counts at several caps, coverage booleans, and the full
//!    embedding *sets* (as sorted mappings) must agree exactly.
//! 7. **`serve_vs_library`** — the `midas-serve` daemon vs an in-process
//!    [`Midas`] fed the same bootstrap graphs and the same explicit
//!    batch sequence through sync updates: the served pattern set,
//!    epoch, and database size must be **bit-identical** at every step.
//! 8. **`fine_cluster_memo`** — a [`ClusterSet`] whose MCCS memo persists
//!    across splits vs a shadow that forgets it before every insert, over
//!    growth, mixed deletion and novel-wave batches that each split a
//!    cluster: membership, group order and CSG member sets must be
//!    identical, and the memo may only name graphs still clustered.
//!
//! Divergences are reported as structured JSON (reusing `midas_obs::json`)
//! with the offending graph pair **minimized** by greedy vertex removal
//! ([`minimize_pair`]), so a failure lands as the smallest witness the
//! shrinker can reach rather than a 40-vertex molecule.
//!
//! [`fault_containment_pass`] additionally proves the exec-layer fault
//! isolation end to end: it arms the deterministic injector behind
//! `MIDAS_FAULT=task:N`, drives a maintenance batch through [`Midas`],
//! and requires the worker panic to surface as a contained
//! [`KernelError`](midas_graph::KernelError) on the report — process
//! alive, flight recorder carrying the event — instead of an abort.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use midas_catapult::score::diversity;
use midas_cluster::{ClusterConfig, ClusterSet, FeatureSpace};
use midas_core::metrics::ScovContext;
use midas_core::monitor::GraphletMonitor;
use midas_core::swap::{multi_scan_swap, SwapOutcome, SwapParams};
use midas_core::{Midas, MidasConfig, PatternStore};
use midas_datagen::updates::boronic_ester_family;
use midas_datagen::{
    deletion_batch, growth_batch, novel_family_batch, query_set, DatasetKind, DatasetSpec,
};
use midas_graph::exec::{set_fault_for_tests, Fault};
use midas_graph::ged::{ged_exact, ged_label_lower_bound, ged_tight_lower_bound};
use midas_graph::graphlets::{count_graphlets, GraphletCounts};
use midas_graph::isomorphism::{count_embeddings, find_embeddings, is_subgraph_of};
use midas_graph::mccs::mccs_similarity;
use midas_graph::plan::{count_embeddings_plan, find_embeddings_plan, is_subgraph_plan};
use midas_graph::{BatchUpdate, Csr, GraphBuilder, GraphDb, GraphId, LabeledGraph, MatchKernel};
use midas_index::{FctIndex, IfeIndex, PatternId};
use midas_mining::incremental::FctState;
use midas_mining::{EdgeCatalog, MiningConfig, TreeKey};
use midas_obs::json;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Saturation cap for embedding counts in the kernel check.
const COUNT_CAP: u64 = 64;

/// The checks run with the fault injector disarmed, so a kernel error is
/// a bug in the harness.
const NO_FAULT: &str = "no fault is armed during the checks";

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

/// The differential oracle: a seeded world plus the eight checks.
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
        let checks: [(&'static str, CheckFn); 8] = [
            ("kernel_vs_serial", Oracle::check_kernel_vs_serial),
            ("incremental_mining", Oracle::check_incremental_mining),
            ("graphlet_monitor", Oracle::check_monitor),
            ("ged_bounds", Oracle::check_ged_bounds),
            ("multi_scan_swap", Oracle::check_swap),
            ("plan_vs_vf2", Oracle::check_plan_vs_vf2),
            ("serve_vs_library", Oracle::check_serve_vs_library),
            ("fine_cluster_memo", Oracle::check_fine_cluster_memo),
        ];
        for (name, check) in checks {
            let cases = check(self, &mut report.divergences);
            report.checks.push(CheckRun { name, cases });
        }
        report
    }

    /// Check 1: the parallel + memoized kernel against serial VF2.
    fn check_kernel_vs_serial(&self, out: &mut Vec<Divergence>) -> usize {
        let db = DatasetSpec::new(DatasetKind::AidsLike, 36, self.seed)
            .generate()
            .db;
        let patterns = query_set(&db, 6, (1, 3), self.seed ^ 0x01);
        let kernel = MatchKernel::new(4);
        let graphs: Vec<(GraphId, &LabeledGraph)> =
            db.iter().map(|(id, g)| (id, g.as_ref())).collect();
        let csrs: Vec<(GraphId, &Csr)> = db.csrs().collect();
        let mut cases = 0;
        // Two rounds: round 0 fills the memo, round 1 must serve hits
        // that still agree with serial recomputation.
        for round in 0..2 {
            for (pi, p) in patterns.iter().enumerate() {
                let fast_counts = kernel
                    .try_count_in_graphs(p, &csrs, COUNT_CAP)
                    .expect(NO_FAULT);
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
        // Invalidation / generation boundary: replace each of the first
        // three graphs' content under its *existing* id. A stale memo
        // entry keyed on (pattern, id) would serve the old graph's count.
        let replacements = query_set(&db, 3, (2, 4), self.seed ^ 0x02);
        for (i, replacement) in replacements.iter().enumerate() {
            let (id, old) = csrs[i];
            let p = &patterns[i % patterns.len()];
            // Warm the memo on the old content, then invalidate and probe
            // the replacement's CSR under the same id.
            let _ = kernel.try_count_in_graphs(p, &[(id, old)], COUNT_CAP);
            kernel.invalidate_graph(id);
            let replacement_csr = Csr::from_graph(replacement);
            let fast = kernel
                .try_count_in_graphs(p, &[(id, &replacement_csr)], COUNT_CAP)
                .expect(NO_FAULT);
            let want = count_embeddings(p, replacement, COUNT_CAP);
            cases += 1;
            if fast[0] != want {
                out.push(count_divergence(
                    format!("generation boundary: graph {} replaced", id.0),
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
    fn check_incremental_mining(&self, out: &mut Vec<Divergence>) -> usize {
        let mut db = DatasetSpec::new(DatasetKind::AidsLike, 24, self.seed ^ 0x10)
            .generate()
            .db;
        let config = MiningConfig {
            sup_min: 0.3,
            max_edges: 3,
        };
        let params = DatasetKind::AidsLike.params();
        let mut state = FctState::build(&db, config);
        let mut cases = 0;
        for step in 0..4 {
            let update = match step {
                0 => growth_batch(&params, 6, self.seed ^ 0x11),
                1 => deletion_batch(&db, 4, self.seed ^ 0x12),
                2 => growth_batch(&params, 5, self.seed ^ 0x13),
                // A batch large enough to void Lemma 4.5's premise and
                // force the rebuild path.
                _ => deletion_batch(&db, db.len() * 2 / 3, self.seed ^ 0x14),
            };
            // Snapshot Δ⁻ graphs before they leave the database.
            let deleted_pre: Vec<(GraphId, Arc<LabeledGraph>)> = update
                .delete
                .iter()
                .filter_map(|&id| db.get(id).map(|g| (id, Arc::clone(g))))
                .collect();
            let (inserted, _) = db.apply(update);
            let deleted_refs: Vec<(GraphId, &LabeledGraph)> = deleted_pre
                .iter()
                .map(|(id, g)| (*id, g.as_ref()))
                .collect();
            state.apply_batch(&db, &inserted, &deleted_refs);

            let scratch = FctState::build(&db, config);
            let fast = fct_map(&state, db.len());
            let want = fct_map(&scratch, db.len());
            cases += 1;
            if fast != want {
                out.push(Divergence {
                    check: "incremental_mining",
                    case: format!("step {step} (db of {} graphs)", db.len()),
                    expected: describe_fct_diff(&want, &fast),
                    actual: format!("{} frequent closed trees", fast.len()),
                    witness: None,
                });
            }
        }
        cases
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
        let path = |labels: &[u32]| {
            let vs: Vec<u32> = (0..labels.len() as u32).collect();
            GraphBuilder::new().vertices(labels).path(&vs).build()
        };
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
        let mut cases = 0;
        // World A: a synthetic database engineered so exactly one
        // beneficial swap exists (stale C-O-N pattern vs dominant S-S-S
        // chains) — the brute-force sw1 replay has a real swap to audit.
        let path = |labels: &[u32]| {
            let vs: Vec<u32> = (0..labels.len() as u32).collect();
            GraphBuilder::new().vertices(labels).path(&vs).build()
        };
        let mut synthetic = vec![path(&[0, 1, 2])];
        synthetic.extend(vec![path(&[3, 3, 3]); 5]);
        cases += self.swap_world(
            "synthetic",
            GraphDb::from_graphs(synthetic),
            vec![path(&[0, 1, 2])],
            vec![path(&[3, 3, 3])],
            out,
        );
        // World B: a messier generated world — parity and monotonicity
        // under realistic molecules.
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
        if !initial.is_empty() && !candidates.is_empty() {
            cases += self.swap_world("generated", db, initial, candidates, out);
        }
        cases
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
        let kernel = MatchKernel::new(2);

        // The reference run scores through a fresh single-thread kernel,
        // the fast run through the shared two-thread one.
        let run = |kernel: &MatchKernel| -> SwapRunResult {
            let mut store = PatternStore::new();
            for p in &initial {
                store.insert(p.clone());
            }
            let before: BTreeMap<PatternId, LabeledGraph> =
                store.iter().map(|(id, p)| (id, p.clone())).collect();
            let pattern_refs: Vec<(PatternId, &LabeledGraph)> =
                before.iter().map(|(&id, p)| (id, p)).collect();
            let fct = FctIndex::build(
                std::iter::empty::<(TreeKey, &LabeledGraph)>(),
                refs.iter().copied(),
                pattern_refs.iter().copied(),
            );
            let ife = IfeIndex::build(
                BTreeSet::new(),
                refs.iter().copied(),
                pattern_refs.iter().copied(),
            );
            let ctx = ScovContext {
                fct: &fct,
                ife: &ife,
                db: &db,
                sample: &sample,
                catalog: &catalog,
                kernel,
            };
            let outcome = multi_scan_swap(&mut store, candidates.clone(), &ctx, &params);
            let graphs = store.graphs();
            (outcome, graphs, before, store)
        };

        let (fast_out, fast_set, before_map, _store_fast) = run(&kernel);
        let (ref_out, ref_set, _, _store_ref) = run(&MatchKernel::new(1));
        let mut cases = 0;

        // Coverage parity: the scoring context (dominance filter + the
        // now-warm kernel memo) must agree with brute-force VF2 coverage
        // on every pattern the swap scored.
        let fct = FctIndex::build(
            std::iter::empty::<(TreeKey, &LabeledGraph)>(),
            refs.iter().copied(),
            std::iter::empty::<(PatternId, &LabeledGraph)>(),
        );
        let ife = IfeIndex::build(
            BTreeSet::new(),
            refs.iter().copied(),
            std::iter::empty::<(PatternId, &LabeledGraph)>(),
        );
        let ctx = ScovContext {
            fct: &fct,
            ife: &ife,
            db: &db,
            sample: &sample,
            catalog: &catalog,
            kernel: &kernel,
        };
        for (i, p) in initial.iter().chain(&candidates).enumerate() {
            cases += 1;
            let (want, got) = (brute_scov(p, &db, &sample), ctx.scov(p));
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
    /// the coverage boolean, and the complete embedding sets as sorted
    /// collections of mappings. Any disagreement minimizes to the
    /// smallest violating pair.
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
            // Full embedding sets: both enumerate in pattern-vertex
            // numbering, so the sets (order-free) must be identical.
            cases += 1;
            let want_set: BTreeSet<Vec<u32>> = find_embeddings(&pattern, &target, EMBED_LIMIT)
                .into_iter()
                .collect();
            let got_set: BTreeSet<Vec<u32>> = find_embeddings_plan(&pattern, &target, EMBED_LIMIT)
                .into_iter()
                .collect();
            if got_set != want_set {
                out.push(plan_divergence(
                    format!("round {round}: embedding sets"),
                    format!("{} embeddings", want_set.len()),
                    format!("{} embeddings", got_set.len()),
                    &pattern,
                    &target,
                ));
            }
        }
        cases
    }

    /// Check 7: the serving daemon against the library, bit for bit.
    ///
    /// Both sides bootstrap [`Midas`] (via the same embedded entry point
    /// and the same `small` config preset) on the same graphs, then apply
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

        // Library side: the same embedded bootstrap the daemon uses.
        let library_db = GraphDb::from_graphs(graphs.iter().cloned());
        let mut library = match Midas::bootstrap_embedded(library_db, MidasConfig::small_defaults())
        {
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

/// The frequent-closed-tree view of a state as a comparable map.
fn fct_map(state: &FctState, db_len: usize) -> BTreeMap<TreeKey, BTreeSet<GraphId>> {
    state
        .fct(db_len)
        .into_iter()
        .map(|(k, e)| (k.clone(), e.support.clone()))
        .collect()
}

/// Summarizes how two FCT maps differ (for the divergence record).
fn describe_fct_diff(
    want: &BTreeMap<TreeKey, BTreeSet<GraphId>>,
    got: &BTreeMap<TreeKey, BTreeSet<GraphId>>,
) -> String {
    let missing = want.keys().filter(|k| !got.contains_key(k)).count();
    let extra = got.keys().filter(|k| !want.contains_key(k)).count();
    let support_drift = want
        .iter()
        .filter(|(k, s)| got.get(*k).is_some_and(|t| &t != s))
        .count();
    format!(
        "{} frequent closed trees ({missing} missing, {extra} extra, {support_drift} with drifted support)",
        want.len()
    )
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
        let fresh = MatchKernel::new(1);
        let fast = fresh
            .try_count_in_graphs(p, &[(GraphId(0), &Csr::from_graph(g))], COUNT_CAP)
            .expect(NO_FAULT);
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
            || find_embeddings_plan(p, g, 4096)
                .into_iter()
                .collect::<BTreeSet<_>>()
                != find_embeddings(p, g, 4096)
                    .into_iter()
                    .collect::<BTreeSet<_>>()
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
    let budget = set.config().mccs_budget;
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

/// Proves end-to-end fault containment: arms the injector at exec task
/// `target`, drives growth batches through a bootstrapped [`Midas`], and
/// requires the injected worker panic to surface as a contained
/// [`midas_graph::KernelError`] on the maintenance report (with the
/// flight recorder carrying the `kernel_error` event) rather than an
/// abort or hang. Returns a human-readable success line, or an error
/// describing which containment guarantee failed.
pub fn fault_containment_pass(seed: u64, target: u64) -> Result<String, String> {
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
    for attempt in 0..3u64 {
        midas_obs::flight::clear();
        set_fault_for_tests(Some(Fault::Task(target)));
        let update = growth_batch(&params, 10, seed ^ (0xFA_u64 + attempt));
        let report = midas.apply_batch(update);
        set_fault_for_tests(None);
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
    std::panic::set_hook(quiet);
    // Whatever happened, the framework must still be usable afterwards.
    if result.is_ok() {
        let follow_up = midas.apply_batch(growth_batch(&params, 2, seed ^ 0xFF));
        if follow_up.error.is_some() {
            return Err("framework did not recover after the contained fault".into());
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

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
