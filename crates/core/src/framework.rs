//! The MIDAS framework — Algorithm 1 end to end.
//!
//! [`Midas`] owns the database and every derived structure (FCT lattice,
//! edge catalog, clusters + CSGs, graphlet monitor, FCT-Index, and the
//! canned pattern set). [`Midas::apply_batch`] is Algorithm 1:
//!
//! 1. capture `ψ_D`, apply `ΔD` to the database;
//! 2. maintain the FCT state (§4.2) and the edge catalog;
//! 3. assign `Δ⁺` to clusters / remove `Δ⁻` (§4.3), with CSG updates
//!    (§4.4) and fine re-clustering along the way;
//! 4. maintain the FCT-Index (§5.1);
//! 5. classify the modification by graphlet drift (§3.4); for a **major**
//!    one, generate promising candidates from dirty CSGs (§5.2) and run
//!    the multi-scan swap (§6.2).
//!
//! Every phase is timed; the report exposes PMT (total) and PGT
//! (candidate generation + swapping), the quantities §7 plots.
//!
//! When the host process has switched telemetry on (see `midas-obs`;
//! nothing in this crate sets the switch), each phase
//! additionally runs under a span (`batch.ingest`, `batch.fct`,
//! `batch.cluster`, `batch.index`, `batch.classify`, `batch.candidates`,
//! `batch.swap`) and the batch records `pmt_us`/`pgt_us` counters in the
//! process-wide registry, which `GET /metrics` renders.
//!
//! Each phase, and bootstrap's index build, runs under `contain`, the one
//! place on the maintenance path that catches a panic: a task panic
//! unwinds out of the kernel to it and becomes a [`PhaseError`]
//! on the report (or bootstrap's `Err`). A failed or skipped index phase
//! needs no repair of its own: the next one syncs every row to the FCT
//! state again. A failed pattern-maintenance round keeps its
//! dirty-cluster flags for the next major batch.

use crate::candidate_gen::{coverage_state, new_classes, promising_candidates, Candidate};
use crate::config::MidasConfig;
use crate::metrics::ScovContext;
use crate::monitor::{classify, GraphletMonitor, Modification};
use crate::patterns::{PatternId, PatternStore};
use crate::published::{PatternSnapshot, Published};
use crate::sampling::sample_database;
use crate::swap::multi_scan_swap;
use midas_catapult::score::SetQuality;
use midas_catapult::{select_patterns, WeightedCsg};
use midas_cluster::{ClusterSet, FeatureSpace};
use midas_graph::{BatchUpdate, GraphDb, GraphId, LabeledGraph, MatchKernel};
use midas_index::FctIndex;
use midas_mining::incremental::FctState;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a batch was classified and handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModificationKind {
    /// Type 1: patterns were maintained.
    Major,
    /// Type 2: only clusters/CSGs/the index were maintained.
    Minor,
}

/// Timing and outcome report for one batch (the measurements of §7).
#[derive(Debug, Clone)]
pub struct MaintenanceReport {
    /// Major or minor modification.
    pub kind: ModificationKind,
    /// Graphlet-distribution distance `dist(ψ_D, ψ_{D⊕ΔD})`.
    pub distance: f64,
    /// Total pattern maintenance time (PMT).
    pub pattern_maintenance_time: Duration,
    /// Cluster + CSG maintenance time.
    pub clustering_time: Duration,
    /// FCT maintenance time.
    pub fct_time: Duration,
    /// Index maintenance time.
    pub index_time: Duration,
    /// Candidate generation time (half of PGT).
    pub candidate_time: Duration,
    /// Swap time (the other half of PGT).
    pub swap_time: Duration,
    /// Number of promising candidates generated.
    pub candidates_generated: usize,
    /// Number of swaps performed.
    pub swaps: usize,
    /// A task panic contained during this batch (e.g. an injected
    /// `MIDAS_FAULT`): the failing phase was abandoned, later
    /// pattern-maintenance phases were skipped, and the process kept
    /// running. `None` on a healthy batch.
    pub error: Option<PhaseError>,
}

impl MaintenanceReport {
    /// Pattern generation time PGT = candidate generation + swapping
    /// (Exp 1's definition).
    pub fn pattern_generation_time(&self) -> Duration {
        self.candidate_time + self.swap_time
    }
}

/// The MIDAS framework state.
pub struct Midas {
    config: MidasConfig,
    db: GraphDb,
    fct_state: FctState,
    clusters: ClusterSet,
    monitor: GraphletMonitor,
    fct_index: FctIndex,
    patterns: PatternStore,
    kernel: MatchKernel,
    batch_counter: u64,
    /// The serving-side pattern snapshot: republished after bootstrap and
    /// at the end of every batch, read lock-free (never blocked by a
    /// batch) by any thread holding [`Midas::snapshot_handle`].
    published: Published<PatternSnapshot>,
}

impl Midas {
    /// Bootstraps MIDAS on an initial database: mines the FCT state,
    /// clusters with FCT features (the CATAPULT++ configuration), selects
    /// the initial pattern set, and fills the FCT-Index by running the
    /// index phase over an empty index.
    ///
    /// The configuration is taken exactly as given: bootstrap reads no
    /// environment and sets no process-wide switch, so a host that embeds
    /// many instances (one per tenant in `midas-serve`) keeps its
    /// telemetry settings, and the host that wants `MIDAS_*` telemetry
    /// activates it itself.
    ///
    /// Returns `Err` if the database is empty, or with the [`PhaseError`]
    /// text when a task panic is contained in the index build
    /// (`bootstrap.index`).
    pub fn bootstrap(db: GraphDb, config: MidasConfig) -> Result<Self, String> {
        if db.is_empty() {
            return Err("cannot bootstrap MIDAS on an empty database".into());
        }
        let _span = midas_obs::span!("bootstrap");
        let fct_span = midas_obs::span!("bootstrap.fct");
        let fct_state = FctState::build(&db, config.mining());
        drop(fct_span);
        let cluster_span = midas_obs::span!("bootstrap.cluster");
        let space = FeatureSpace::from_fct(&fct_state.lattice, config.sup_min, db.len());
        let clusters = ClusterSet::build(&db, &fct_state.lattice, space, config.clustering());
        drop(cluster_span);
        let select_span = midas_obs::span!("bootstrap.select");
        let patterns = PatternStore::from_patterns(select_patterns(
            &clusters,
            &fct_state.edges,
            db.len(),
            &config.selection(),
        ));
        drop(select_span);
        let monitor = GraphletMonitor::build(&db);
        let mut midas = Midas {
            config,
            db,
            fct_state,
            clusters,
            monitor,
            fct_index: FctIndex::new(),
            patterns,
            kernel: MatchKernel::new(),
            batch_counter: 0,
            published: Published::default(),
        };
        let mut failure = None;
        let index_span = midas_obs::span!("bootstrap.index");
        contain("bootstrap.index", &mut failure, || midas.maintain_index());
        drop(index_span);
        if let Some(e) = failure {
            return Err(e.to_string());
        }
        midas.publish_snapshot();
        midas.clusters.take_dirty(); // fresh clusters are not "modified"
        Ok(midas)
    }

    /// [`Midas::bootstrap`] under its former name, kept only because the
    /// serve benchmark (`servebench/`) still calls it.
    pub fn bootstrap_embedded(db: GraphDb, config: MidasConfig) -> Result<Self, String> {
        Midas::bootstrap(db, config)
    }

    /// The configuration.
    pub fn config(&self) -> &MidasConfig {
        &self.config
    }

    /// The current database.
    pub fn db(&self) -> &GraphDb {
        &self.db
    }

    /// The current canned pattern set.
    ///
    /// Routed through the published [`PatternSnapshot`] (not the mutable
    /// [`PatternStore`]), so every read path observes only complete,
    /// end-of-batch pattern sets.
    pub fn patterns(&self) -> Vec<LabeledGraph> {
        self.published.read().patterns.clone()
    }

    /// The latest published [`PatternSnapshot`]: the pattern set plus its
    /// epoch and the graphlet distribution at publish time. Cheap (`Arc`
    /// clone) and always a complete, immutable set.
    pub fn pattern_snapshot(&self) -> Arc<PatternSnapshot> {
        self.published.read()
    }

    /// A cloneable handle onto the published pattern snapshot, for reader
    /// threads that outlive any `&Midas` borrow (a serving tenant's HTTP
    /// workers). Reads through the handle are never
    /// blocked by [`Midas::apply_batch`]: a batch assembles its new
    /// snapshot off to the side and swaps one `Arc` at the very end.
    pub fn snapshot_handle(&self) -> Published<PatternSnapshot> {
        self.published.clone()
    }

    /// Builds and publishes a fresh [`PatternSnapshot`] from the current
    /// store, monitor and batch counter.
    fn publish_snapshot(&self) {
        self.published.publish(PatternSnapshot::new(
            self.batch_counter,
            self.patterns.graphs(),
            self.monitor.distribution(),
            self.db.len(),
            midas_obs::flight::unix_ms(),
        ));
        midas_obs::counter_add!("patterns.published", 1);
        midas_obs::gauge_set!("patterns.snapshot_epoch", self.batch_counter as f64);
    }

    /// The pattern store (ids + graphs).
    pub fn pattern_store(&self) -> &PatternStore {
        &self.patterns
    }

    /// The cluster set.
    pub fn clusters(&self) -> &ClusterSet {
        &self.clusters
    }

    /// The FCT state (lattice + edge catalog).
    pub fn fct_state(&self) -> &FctState {
        &self.fct_state
    }

    /// The FCT-Index.
    pub fn fct_index(&self) -> &FctIndex {
        &self.fct_index
    }

    /// The memoized isomorphism kernel shared by every hot
    /// `(graph × pattern)` scan. Its cache is invalidated per graph as
    /// batches arrive, so answers are always current.
    pub fn kernel(&self) -> &MatchKernel {
        &self.kernel
    }

    /// Pattern-set quality over a fresh sample of the current database.
    pub fn quality(&self) -> SetQuality {
        let sample = self.sample();
        midas_catapult::score::set_quality(
            &self.kernel,
            &self.patterns.graphs(),
            &self.db,
            &self.fct_state.edges,
            &sample,
        )
    }

    fn sample(&self) -> BTreeSet<GraphId> {
        sample_database(
            &self.db,
            &self.clusters,
            self.config.sample_size,
            self.config.seed ^ self.batch_counter,
        )
    }

    /// Applies one batch update — Algorithm 1.
    pub fn apply_batch(&mut self, update: BatchUpdate) -> MaintenanceReport {
        self.apply_batch_with_strategy(update, SwapStrategy::MultiScan)
    }

    /// Applies a batch with an explicit swap strategy (the *Random*
    /// baseline reuses the entire pipeline with random swapping).
    pub fn apply_batch_with_strategy(
        &mut self,
        update: BatchUpdate,
        strategy: SwapStrategy,
    ) -> MaintenanceReport {
        let total_start = Instant::now();
        self.batch_counter += 1;

        // Ingest: apply ΔD and keep the graphlet monitor current.
        let ingest_span = midas_obs::span!("batch.ingest");
        let psi_before = self.monitor.distribution();

        // Capture Δ⁻ graphs before they leave the database.
        let deleted_graphs: Vec<(GraphId, Arc<LabeledGraph>)> = update
            .delete
            .iter()
            .filter_map(|&id| self.db.get(id).map(|g| (id, g.clone())))
            .collect();
        let (inserted, deleted_ids) = self.db.apply(update);
        // The memo's contract: every id the batch touched is invalidated,
        // whichever later phase fails.
        for &id in deleted_ids.iter().chain(&inserted) {
            self.kernel.invalidate_graph(id);
        }
        midas_obs::counter_add!("batch.inserted", inserted.len() as u64);
        midas_obs::counter_add!("batch.deleted", deleted_ids.len() as u64);

        // Graphlet monitor (lines 3–4).
        for &id in &deleted_ids {
            self.monitor.remove_graph(id);
        }
        for &id in &inserted {
            self.monitor
                .add_graph(id, self.db.get(id).expect("inserted id"));
        }
        let psi_after = self.monitor.distribution();
        drop(ingest_span);

        // Every phase below runs tasks through the kernel; a task panic
        // (including an injected `MIDAS_FAULT`) unwinds to the phase's
        // `contain` — the failing phase is abandoned, later
        // pattern-maintenance phases are skipped, and the report carries the
        // error instead of the process aborting.
        let mut batch_error: Option<PhaseError> = None;

        // FCT maintenance (line 5).
        let fct_span = midas_obs::span!("batch.fct");
        let fct_start = Instant::now();
        let deleted_refs: Vec<(GraphId, &LabeledGraph)> = deleted_graphs
            .iter()
            .map(|(id, g)| (*id, g.as_ref()))
            .collect();
        contain("batch.fct", &mut batch_error, || {
            self.fct_state
                .apply_batch(&self.db, &inserted, &deleted_refs);
        });
        let fct_time = fct_start.elapsed();
        drop(fct_span);

        // Cluster + CSG maintenance (lines 1–2, 6–7).
        let cluster_span = midas_obs::span!("batch.cluster");
        let cluster_start = Instant::now();
        contain("batch.cluster", &mut batch_error, || {
            for (id, g) in &deleted_graphs {
                self.clusters.remove(*id, g);
            }
            for &id in &inserted {
                let graph = self.db.get(id).expect("inserted id").clone();
                self.clusters
                    .assign(&self.db, &self.fct_state.lattice, id, &graph);
            }
        });
        let clustering_time = cluster_start.elapsed();
        drop(cluster_span);

        // Index maintenance (line 12 — we keep the index fresh every batch
        // so minor modifications leave it consistent too). The rows follow
        // the FCT state, so a phase that fails or is skipped is completed
        // by the next one. The edge-label counts the dominance filter
        // reads are the catalog's, maintained with the FCT state above.
        let index_span = midas_obs::span!("batch.index");
        let index_start = Instant::now();
        // Injected slowdown (`MIDAS_FAULT=slow:US`): burns wall-clock inside
        // this span so `/slow` and the span summaries have a reproducible
        // slow batch to attribute.
        if let Some(delay) = midas_graph::exec::slow_fault() {
            std::thread::sleep(delay);
        }
        contain("batch.index", &mut batch_error, || self.maintain_index());
        let index_time = index_start.elapsed();
        drop(index_span);

        // Classification (line 8).
        let classify_span = midas_obs::span!("batch.classify");
        let (kind, distance) = classify(&psi_before, &psi_after, self.config.epsilon);
        drop(classify_span);
        midas_obs::obs_info!(
            "core::framework",
            "batch {}: {kind:?} modification, drift {distance:.6} (ε = {})",
            self.batch_counter,
            self.config.epsilon
        );
        let mut candidate_time = Duration::ZERO;
        let mut swap_time = Duration::ZERO;
        let mut candidates_generated = 0;
        let mut swaps = 0;
        if kind == Modification::Major && !self.patterns.is_empty() && batch_error.is_none() {
            contain("batch.maintenance", &mut batch_error, || {
                // Candidate generation from dirty CSGs (§5, lines 9–10).
                let candidates_span = midas_obs::span!("batch.candidates");
                let cand_start = Instant::now();
                let sample = self.sample();
                let ctx = ScovContext {
                    fct: &self.fct_index,
                    db: &self.db,
                    sample: &sample,
                    catalog: &self.fct_state.edges,
                    kernel: &self.kernel,
                };
                // Coverage work (`coverage_state`, then the Def. 5.5 tests)
                // brackets generation, so its span is timed in two pieces.
                let mut covered_span = midas_obs::SplitSpan::enter("batch.candidates.covered");
                let state = covered_span.time(|| coverage_state(&self.patterns, &ctx));
                let params = self.config.generation();
                midas_obs::gauge_set!(
                    "candidates.def55_threshold",
                    state.threshold(params.kappa) as f64
                );
                let generate_span = midas_obs::span!("batch.candidates.generate");
                // The dirty flags are read here but cleared only once the
                // round has completed: a round abandoned to a panic must not
                // use up its delta (§4.3, §5).
                let csgs: Vec<WeightedCsg> = self
                    .clusters
                    .iter()
                    .filter(|(_, c)| c.is_dirty())
                    .map(|(_, c)| WeightedCsg::build(c.csg(), &self.fct_state.edges, self.db.len()))
                    .collect();
                let mut rng = StdRng::seed_from_u64(self.config.seed ^ (self.batch_counter << 16));
                let classes = new_classes(&csgs, &self.patterns, &ctx, &state, &params, &mut rng);
                drop(generate_span);
                let candidates =
                    covered_span.time(|| promising_candidates(classes, &ctx, &state, params.kappa));
                drop(covered_span);
                candidates_generated = candidates.len();
                candidate_time = cand_start.elapsed();
                drop(candidates_span);
                midas_obs::counter_add!("batch.candidates_generated", candidates_generated as u64);

                // Swapping (§6).
                let swap_span = midas_obs::span!("batch.swap");
                let swap_start = Instant::now();
                swaps = match strategy {
                    SwapStrategy::MultiScan => {
                        let outcome = multi_scan_swap(
                            &mut self.patterns,
                            candidates,
                            &state,
                            &ctx,
                            &self.config.swap(),
                        );
                        midas_obs::counter_add!("swap.verified", outcome.verified as u64);
                        outcome.swaps
                    }
                    SwapStrategy::Random => random_swap(&mut self.patterns, candidates, &mut rng),
                };
                swap_time = swap_start.elapsed();
                drop(swap_span);
                midas_obs::counter_add!("batch.swaps", swaps as u64);
                midas_obs::obs_info!(
                    "core::framework",
                    "batch {}: {candidates_generated} candidates, {swaps} swaps",
                    self.batch_counter
                );
                self.clusters.take_dirty();
            });
        }
        // On a minor modification, or a major round that did not complete,
        // the dirty flags are deliberately *kept*: clusters stay marked as
        // modified until a completed major round consumes them, so candidate
        // generation sees every cluster that changed since patterns were
        // last maintained (§4.3, §5).

        // Publish the post-batch pattern snapshot before reporting: even a
        // contained phase failure publishes (the store holds whatever state
        // the batch reached — always a complete set, swaps are per-pattern
        // atomic), so concurrent readers converge on the current epoch.
        self.publish_snapshot();

        let pattern_maintenance_time = total_start.elapsed();
        midas_obs::counter_add!("pmt_us", pattern_maintenance_time.as_micros() as u64);
        midas_obs::counter_add!("pgt_us", (candidate_time + swap_time).as_micros() as u64);
        // Flight recorder: always-on (bounded ring, one short lock), so a
        // post-mortem dump has the last batches even when metrics are off.
        midas_obs::flight::record_batch(midas_obs::BatchSummary {
            seq: 0, // numbered process-wide by the recorder
            kind: match kind {
                Modification::Major => "major",
                Modification::Minor => "minor",
            },
            distance,
            pmt_us: pattern_maintenance_time.as_micros() as u64,
            pgt_us: (candidate_time + swap_time).as_micros() as u64,
            inserted: inserted.len(),
            deleted: deleted_ids.len(),
            candidates: candidates_generated,
            swaps,
            unix_ms: midas_obs::flight::unix_ms(),
        });
        if midas_obs::enabled() && midas_obs::tracing_enabled() {
            let path = midas_obs::trace::output_path();
            match midas_obs::trace::write_trace(&path) {
                Ok(n) => midas_obs::obs_debug!(
                    "core::framework",
                    "wrote {n} trace events to {}",
                    path.display()
                ),
                Err(e) => midas_obs::obs_warn!(
                    "core::framework",
                    "failed to write trace to {}: {e}",
                    path.display()
                ),
            }
        }

        MaintenanceReport {
            kind: match kind {
                Modification::Major => ModificationKind::Major,
                Modification::Minor => ModificationKind::Minor,
            },
            distance,
            pattern_maintenance_time,
            clustering_time,
            fct_time,
            index_time,
            candidate_time,
            swap_time,
            candidates_generated,
            swaps,
            error: batch_error,
        }
    }

    /// The index phase, maintenance rules 1–4 of §5.1: the FCT-Index's
    /// rows sync to [`FctState::index_trees`] and their supports.
    fn maintain_index(&mut self) {
        let trees = self.fct_state.index_trees(self.db.len());
        self.fct_index.sync(trees, &self.db);
    }
}

/// A task panic contained by a phase backstop: the phase span it
/// abandoned (`batch.index`, `bootstrap.index`, ...) and the panic's own
/// message (for an injected fault, it names the task ordinal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseError {
    /// The phase that panicked.
    pub phase: &'static str,
    /// The panic payload, stringified.
    pub message: String,
}

impl std::fmt::Display for PhaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} panicked: {}", self.phase, self.message)
    }
}

impl std::error::Error for PhaseError {}

/// Runs one phase under the panic backstop — the one place on the
/// maintenance path that catches a panic. A panic anywhere inside `f`
/// (a kernel task, or any phase-internal bug) becomes a
/// [`PhaseError`] in `error`, logged to telemetry and the flight recorder,
/// instead of unwinding out of `apply_batch` or `bootstrap`. Once `error`
/// holds a failure, later phases are skipped. Returns `None` when `f`
/// failed or was skipped.
fn contain<R>(
    phase: &'static str,
    error: &mut Option<PhaseError>,
    f: impl FnOnce() -> R,
) -> Option<R> {
    if error.is_some() {
        return None;
    }
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => Some(result),
        Err(payload) => {
            let e = PhaseError {
                phase,
                message: midas_graph::exec::panic_message(payload),
            };
            midas_obs::counter_add!("batch.kernel_errors", 1);
            midas_obs::obs_warn!("core::framework", "contained worker failure: {e}");
            midas_obs::flight::record_event("kernel_error", e.to_string());
            *error = Some(e);
            None
        }
    }
}

/// Which swap step to run on a major modification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapStrategy {
    /// MIDAS's multi-scan swap (§6.2).
    MultiScan,
    /// The *Random* baseline: candidates replace random patterns.
    Random,
}

/// The *Random* baseline's swap step: each candidate replaces a
/// uniformly random pattern, no criteria checked.
fn random_swap(store: &mut PatternStore, candidates: Vec<Candidate>, rng: &mut StdRng) -> usize {
    use rand::RngExt;
    let mut swaps = 0;
    for candidate in candidates {
        if store.is_empty() {
            break;
        }
        let ids: Vec<PatternId> = store.iter().map(|(id, _)| id).collect();
        let victim = ids[rng.random_range(0..ids.len())];
        store.remove(victim);
        if store.insert(candidate.graph).is_some() {
            swaps += 1;
        }
    }
    swaps
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_graph::GraphBuilder;

    fn path(labels: &[u32]) -> LabeledGraph {
        let vs: Vec<u32> = (0..labels.len() as u32).collect();
        GraphBuilder::new().vertices(labels).path(&vs).build()
    }

    fn seed_db() -> GraphDb {
        // C-O-N-C chains with some variety; big enough to mine and select.
        GraphDb::from_graphs((0..10).map(|i| path(&[0, 1, 2, 0, (i % 2) as u32])))
    }

    fn config() -> MidasConfig {
        MidasConfig::small_defaults()
    }

    #[test]
    fn bootstrap_selects_initial_patterns() {
        let midas = Midas::bootstrap(seed_db(), config()).unwrap();
        assert!(!midas.patterns().is_empty());
        assert!(midas.patterns().len() <= config().budget.gamma);
        for p in midas.patterns() {
            assert!(p.is_connected());
        }
        assert!(midas.fct_index().feature_count() > 0);
    }

    #[test]
    fn bootstrap_rejects_empty_db() {
        assert!(Midas::bootstrap(GraphDb::new(), config()).is_err());
    }

    #[test]
    fn phase_error_displays_phase_and_message() {
        let e = PhaseError {
            phase: "batch.index",
            message: "xyz".into(),
        };
        assert_eq!(e.to_string(), "batch.index panicked: xyz");
    }

    #[test]
    fn minor_modification_keeps_patterns() {
        let mut midas = Midas::bootstrap(seed_db(), config()).unwrap();
        let before = midas.patterns();
        // Insert more graphs of the same shape: graphlet drift ~ 0.
        let update = BatchUpdate::insert_only(vec![path(&[0, 1, 2, 0, 0]), path(&[0, 1, 2, 0, 1])]);
        let report = midas.apply_batch(update);
        assert_eq!(
            report.kind,
            ModificationKind::Minor,
            "d = {}",
            report.distance
        );
        assert_eq!(midas.patterns(), before);
        assert_eq!(report.swaps, 0);
        // But the substrate was maintained.
        assert_eq!(midas.db().len(), 12);
        assert_eq!(midas.clusters().total_members(), 12);
    }

    #[test]
    fn major_modification_triggers_pattern_maintenance() {
        let mut midas = Midas::bootstrap(seed_db(), config()).unwrap();
        // A novel dense family: triangles of S.
        let triangle = GraphBuilder::new()
            .vertices(&[3, 3, 3, 3])
            .path(&[0, 1, 2, 3])
            .edge(0, 2)
            .edge(1, 3)
            .edge(0, 3)
            .build();
        let update = BatchUpdate::insert_only(vec![triangle; 12]);
        let report = midas.apply_batch(update);
        assert_eq!(
            report.kind,
            ModificationKind::Major,
            "d = {}",
            report.distance
        );
        // Candidate generation ran (swaps may or may not pass criteria).
        assert!(report.pattern_maintenance_time >= report.pattern_generation_time());
    }

    #[test]
    fn quality_never_degrades_across_major_batches() {
        let mut midas = Midas::bootstrap(seed_db(), config()).unwrap();
        let before = midas.quality();
        let novel: Vec<LabeledGraph> = (0..14).map(|_| path(&[3, 4, 3, 4, 3])).collect();
        let report = midas.apply_batch(BatchUpdate::insert_only(novel));
        let after = midas.quality();
        if report.swaps > 0 {
            // sw1–sw5 are sample-relative; the invariant we can assert
            // globally is that diversity and cognitive load did not worsen.
            assert!(after.div >= before.div - 1e-9);
            assert!(after.cog <= before.cog + 1e-9);
        }
        assert_eq!(midas.patterns().len(), midas.pattern_store().len());
    }

    #[test]
    fn deletion_batches_are_handled() {
        let mut midas = Midas::bootstrap(seed_db(), config()).unwrap();
        let victim = midas.db().ids().next().unwrap();
        let report = midas.apply_batch(BatchUpdate::delete_only(vec![victim]));
        assert_eq!(midas.db().len(), 9);
        assert!(!midas.db().contains(victim));
        assert_eq!(midas.clusters().total_members(), 9);
        let _ = report;
    }

    #[test]
    fn random_strategy_swaps_without_criteria() {
        let mut midas = Midas::bootstrap(seed_db(), config()).unwrap();
        let novel: Vec<LabeledGraph> = (0..14).map(|_| path(&[3, 4, 3, 4, 3])).collect();
        let report =
            midas.apply_batch_with_strategy(BatchUpdate::insert_only(novel), SwapStrategy::Random);
        // With candidates present, random swapping must swap.
        if report.candidates_generated > 0 {
            assert!(report.swaps > 0);
        }
    }

    #[test]
    fn published_snapshot_tracks_batches() {
        let mut midas = Midas::bootstrap(seed_db(), config()).unwrap();
        let s0 = midas.pattern_snapshot();
        assert_eq!(s0.epoch, 0);
        assert_eq!(s0.patterns, midas.patterns());
        assert_eq!(s0.db_len, 10);
        let handle = midas.snapshot_handle();
        midas.apply_batch(BatchUpdate::insert_only(vec![path(&[0, 1, 2])]));
        let s1 = handle.read();
        assert_eq!(s1.epoch, 1);
        assert_eq!(s1.patterns, midas.patterns());
        assert_eq!(s1.db_len, 11);
        // The held pre-batch snapshot is immutable.
        assert_eq!(s0.epoch, 0);
        assert_eq!(s0.batches_behind(&s1), 1);
    }

    // Enabled-telemetry behavior (phase spans, pmt_us, snapshot deltas) is
    // exercised in the `midas-tests` integration binary, whose tests hold
    // a lock around the process-global switch. Nothing in this binary
    // turns it on, and bootstrap never sets it, so the test below sees it
    // off.

    #[test]
    fn telemetry_off_batch_leaves_registry_unchanged() {
        let mut midas = Midas::bootstrap(seed_db(), config()).unwrap();
        let before = midas_obs::MetricsSnapshot::capture();
        midas.apply_batch(BatchUpdate::insert_only(vec![path(&[0, 1, 2])]));
        let after = midas_obs::MetricsSnapshot::capture();
        let delta = after.since(&before);
        assert!(delta.counters.is_empty(), "{:?}", delta.counters);
        assert!(delta.histograms.is_empty(), "{:?}", delta.histograms);
        assert!(delta.spans.is_empty(), "{:?}", delta.spans);
        assert_eq!(after.gauges, before.gauges);
    }

    #[test]
    fn reports_time_phases_nest() {
        let mut midas = Midas::bootstrap(seed_db(), config()).unwrap();
        let report = midas.apply_batch(BatchUpdate::insert_only(vec![path(&[0, 1, 2])]));
        let parts = report.clustering_time
            + report.fct_time
            + report.index_time
            + report.candidate_time
            + report.swap_time;
        assert!(report.pattern_maintenance_time >= parts.saturating_sub(Duration::from_millis(1)));
    }
}
