//! # midas-load
//!
//! The closed-loop load harness: N concurrent simulated users formulate
//! queries against the **live** canned pattern set while a driver applies
//! update batches to the same [`Midas`] instance — the end-to-end loop the
//! paper's claims are about, measured as user-facing SLIs instead of
//! maintenance-side timings.
//!
//! The shape (one driver, many users, shared immutable snapshots):
//!
//! * The driver owns `&mut Midas` and applies one batch per tick (growth
//!   most ticks, deletions and novel-family waves on the daemon's
//!   schedule), then refreshes the query pool from the evolved database —
//!   queries stay *derived from the data*, as §7.1 draws them.
//! * Each user loops: read the latest [`PatternSnapshot`] through the
//!   lock-free [`Published`] handle (timed — the *read latency* SLI),
//!   draw a query from the pool, formulate it with
//!   [`midas_queryform::formulate`] against the snapshot's patterns
//!   (timed — the *formulation latency* SLI) and against a **frozen
//!   baseline** set captured before the run (the no-maintenance
//!   comparison), then re-read the latest snapshot and score how stale
//!   the copy it used had become (*staleness*: batches behind + graphlet
//!   drift).
//! * Every sample feeds [`midas_obs::sli`] (live `/sli`, `midas_sli_*`
//!   Prometheus families) *and* a per-user exact sample log, so the
//!   returned [`LoadReport`] has precise quantiles even with telemetry
//!   off.
//!
//! Users never block on maintenance: they share nothing with the driver
//! but [`Published`] cells (pointer-swap reads) and relaxed atomics.
//!
//! ```
//! use midas_core::{Midas, MidasConfig};
//! use midas_datagen::{DatasetKind, DatasetSpec};
//! use midas_load::{run, LoadConfig};
//!
//! let dataset = DatasetSpec::new(DatasetKind::PubchemLike, 40, 7).generate();
//! let mut midas = Midas::bootstrap(dataset.db, MidasConfig::small_defaults()).unwrap();
//! let report = run(
//!     &mut midas,
//!     DatasetKind::PubchemLike,
//!     &LoadConfig { users: 2, ticks: 2, tick_ms: 5, ..LoadConfig::default() },
//! );
//! assert!(report.queries > 0);
//! assert_eq!(report.ticks, 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod http;

pub use http::run_http;

use midas_core::{Midas, PatternSnapshot, Published};
use midas_datagen::updates::{deletion_percent, growth_percent};
use midas_datagen::{query_set, DatasetKind, MotifKind};
use midas_graph::LabeledGraph;
use midas_obs::sli::{self, QuerySample, TickSummary};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Load-harness parameters. [`LoadConfig::with_env`] applies the
/// `MIDAS_LOAD_*` settings (see the table in `midas_obs::config`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadConfig {
    /// Concurrent simulated users.
    pub users: usize,
    /// Driver ticks; each applies one update batch.
    pub ticks: u64,
    /// Driver pause after each batch, giving users time to formulate
    /// against the new snapshot (milliseconds).
    pub tick_ms: u64,
    /// Queries drawn into the pool each tick.
    pub pool: usize,
    /// Query size range, in edges (inclusive), per §7.1's subgraph draws.
    pub query_edges: (usize, usize),
    /// Growth/deletion batch size as a percentage of the database.
    pub batch_percent: f64,
    /// Base RNG seed; user i perturbs it with its index.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            users: 8,
            ticks: 6,
            tick_ms: 50,
            pool: 32,
            query_edges: (3, 8),
            batch_percent: 4.0,
            seed: 42,
        }
    }
}

impl LoadConfig {
    /// A smaller preset for CI smoke runs and quick-mode benches.
    pub fn quick() -> Self {
        LoadConfig {
            users: 4,
            ticks: 3,
            tick_ms: 25,
            pool: 16,
            ..LoadConfig::default()
        }
    }

    /// Applies the `MIDAS_LOAD_USERS` / `MIDAS_LOAD_TICKS` /
    /// `MIDAS_LOAD_TICK_MS` / `MIDAS_LOAD_POOL` settings of `env` on top
    /// of `self`.
    pub fn with_env(mut self, env: &midas_obs::Env) -> Self {
        if let Some(v) = env.load_users {
            self.users = v.max(1);
        }
        if let Some(v) = env.load_ticks {
            self.ticks = v.max(1);
        }
        if let Some(v) = env.load_tick_ms {
            self.tick_ms = v;
        }
        if let Some(v) = env.load_pool {
            self.pool = v.max(1);
        }
        self
    }
}

/// Exact (non-bucketed) quantile over one SLI dimension of the run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QuantileLine {
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Maximum.
    pub max: u64,
}

impl QuantileLine {
    pub(crate) fn from_samples(mut v: Vec<u64>) -> QuantileLine {
        if v.is_empty() {
            return QuantileLine::default();
        }
        v.sort_unstable();
        let at = |q: f64| v[((q * (v.len() - 1) as f64).round() as usize).min(v.len() - 1)];
        QuantileLine {
            p50: at(0.50),
            p99: at(0.99),
            max: *v.last().unwrap(),
        }
    }
}

/// What one load run measured, computed from the users' exact per-query
/// sample logs (independent of the telemetry switch).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadReport {
    /// Concurrent users that ran.
    pub users: usize,
    /// Driver ticks (batches applied).
    pub ticks: u64,
    /// Queries formulated across all users.
    pub queries: u64,
    /// Total formulation steps against the live (maintained) set.
    pub steps_live: u64,
    /// Total formulation steps against the frozen baseline set.
    pub steps_baseline: u64,
    /// `1 − steps_live/steps_baseline` (0.0 when the baseline is 0).
    pub reduction: f64,
    /// Snapshot-read latency, nanoseconds.
    pub read_ns: QuantileLine,
    /// Per-query formulation latency against the live set, nanoseconds.
    pub formulate_ns: QuantileLine,
    /// Batches-behind staleness of the snapshots users formulated against.
    pub staleness_batches: QuantileLine,
    /// Mean graphlet drift between used and latest snapshots.
    pub staleness_drift_mean: f64,
    /// Worst graphlet drift observed.
    pub staleness_drift_max: f64,
    /// Pattern-set epoch when the run finished.
    pub final_epoch: u64,
    /// Wall-clock for the whole run, milliseconds.
    pub wall_ms: u64,
}

/// Shared per-tick accumulators (reset by the driver each tick).
#[derive(Default)]
pub(crate) struct TickCounters {
    queries: AtomicU64,
    steps_live: AtomicU64,
    steps_baseline: AtomicU64,
    staleness_batches_max: AtomicU64,
    /// Worst drift this tick, stored as `f64` bits (valid for
    /// `fetch_max` because non-negative IEEE-754 floats order like their
    /// bit patterns).
    drift_max_bits: AtomicU64,
}

impl TickCounters {
    pub(crate) fn observe(&self, s: &QuerySample) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.steps_live.fetch_add(s.steps_live, Ordering::Relaxed);
        self.steps_baseline
            .fetch_add(s.steps_baseline, Ordering::Relaxed);
        self.staleness_batches_max
            .fetch_max(s.staleness_batches, Ordering::Relaxed);
        self.drift_max_bits
            .fetch_max(s.staleness_drift.max(0.0).to_bits(), Ordering::Relaxed);
    }

    pub(crate) fn drain(&self) -> (u64, u64, u64, u64, f64) {
        (
            self.queries.swap(0, Ordering::Relaxed),
            self.steps_live.swap(0, Ordering::Relaxed),
            self.steps_baseline.swap(0, Ordering::Relaxed),
            self.staleness_batches_max.swap(0, Ordering::Relaxed),
            f64::from_bits(self.drift_max_bits.swap(0, Ordering::Relaxed)),
        )
    }
}

/// One user's closed loop: read snapshot → formulate (live + baseline) →
/// score staleness → record. Runs until `stop` flips.
fn user_loop(
    handle: &Published<PatternSnapshot>,
    pool: &Published<Vec<LabeledGraph>>,
    baseline: &[LabeledGraph],
    tickc: &TickCounters,
    stop: &AtomicBool,
    seed: u64,
) -> Vec<QuerySample> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut samples = Vec::new();
    while !stop.load(Ordering::Acquire) {
        let queries = pool.read();
        if queries.is_empty() {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        let query = &queries[rng.random_range(0..queries.len())];

        let read_start = Instant::now();
        let snap = handle.read();
        let read_ns = read_start.elapsed().as_nanos().min(u64::MAX as u128) as u64;

        let form_start = Instant::now();
        let live = midas_queryform::formulate(query, &snap.patterns);
        let formulate_ns = form_start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let base = midas_queryform::formulate(query, baseline);

        // Staleness of the copy we just used, judged against whatever is
        // latest *now* — the user-visible lag of a lock-free read.
        let latest = handle.read();
        let sample = QuerySample {
            read_ns,
            formulate_ns,
            steps_live: live.steps as u64,
            steps_baseline: base.steps as u64,
            staleness_batches: snap.batches_behind(&latest),
            staleness_drift: snap.drift_to(&latest),
        };
        sli::record_query(&sample);
        tickc.observe(&sample);
        samples.push(sample);
    }
    samples
}

/// The driver's batch for `tick`, on the daemon's rotation: novel-family
/// waves every 5th tick (major modifications), deletions on a 5k+3
/// cadence, growth otherwise.
fn tick_batch(
    midas: &Midas,
    kind: DatasetKind,
    cfg: &LoadConfig,
    tick: u64,
) -> midas_graph::BatchUpdate {
    let seed = cfg.seed.wrapping_add(1_000 + tick);
    match tick % 5 {
        0 => midas_datagen::novel_family_batch(
            if tick.is_multiple_of(2) {
                MotifKind::BoronicEster
            } else {
                MotifKind::Phosphate
            },
            (midas.db().len() / 5).max(1),
            seed,
        ),
        3 => deletion_percent(midas.db(), cfg.batch_percent, seed),
        _ => growth_percent(&kind.params(), midas.db(), cfg.batch_percent, seed),
    }
}

/// Runs the closed loop: `cfg.users` simulated users against `midas`'s
/// live pattern snapshot while the driver applies `cfg.ticks` update
/// batches. Returns the exact-sample [`LoadReport`]; live SLIs stream to
/// [`midas_obs::sli`] throughout (when telemetry is enabled).
pub fn run(midas: &mut Midas, kind: DatasetKind, cfg: &LoadConfig) -> LoadReport {
    let started = Instant::now();
    // The no-maintenance comparison: the pattern set as of *now*, frozen.
    let baseline: Vec<LabeledGraph> = midas.patterns();
    let handle = midas.snapshot_handle();
    let pool: Published<Vec<LabeledGraph>> =
        Published::new(query_set(midas.db(), cfg.pool, cfg.query_edges, cfg.seed));
    let stop = AtomicBool::new(false);
    let tickc = TickCounters::default();

    let mut all: Vec<QuerySample> = Vec::new();
    std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(cfg.users);
        for u in 0..cfg.users {
            let handle = handle.clone();
            let pool = pool.clone();
            let baseline = &baseline;
            let tickc = &tickc;
            let stop = &stop;
            let seed = cfg.seed ^ ((u as u64 + 1) << 32);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("midas-load-user-{u}"))
                    .spawn_scoped(scope, move || {
                        user_loop(&handle, &pool, baseline, tickc, stop, seed)
                    })
                    .expect("spawn load user"),
            );
        }

        for tick in 1..=cfg.ticks {
            let update = tick_batch(midas, kind, cfg, tick);
            let report = midas.apply_batch(update);
            // Fresh pool from the evolved database, so queries keep
            // tracking the data (and Δ⁺ content shows up in them).
            pool.publish(query_set(
                midas.db(),
                cfg.pool,
                cfg.query_edges,
                cfg.seed.wrapping_add(tick),
            ));
            // Let users formulate against the new snapshot before the next
            // batch lands.
            std::thread::sleep(Duration::from_millis(cfg.tick_ms));
            let (queries, steps_live, steps_baseline, stale_max, drift_max) = tickc.drain();
            sli::record_tick(TickSummary {
                tick,
                epoch: midas.pattern_snapshot().epoch,
                queries,
                steps_live,
                steps_baseline,
                reduction: sli::reduction_from_steps(steps_live, steps_baseline),
                staleness_batches_max: stale_max,
                staleness_drift_max: drift_max,
                unix_ms: midas_obs::flight::unix_ms(),
            });
            let _ = report;
        }
        stop.store(true, Ordering::Release);
        for w in workers {
            all.extend(w.join().expect("load user panicked"));
        }
    });

    let steps_live: u64 = all.iter().map(|s| s.steps_live).sum();
    let steps_baseline: u64 = all.iter().map(|s| s.steps_baseline).sum();
    let drift_sum: f64 = all.iter().map(|s| s.staleness_drift).sum();
    LoadReport {
        users: cfg.users,
        ticks: cfg.ticks,
        queries: all.len() as u64,
        steps_live,
        steps_baseline,
        reduction: sli::reduction_from_steps(steps_live, steps_baseline),
        read_ns: QuantileLine::from_samples(all.iter().map(|s| s.read_ns).collect()),
        formulate_ns: QuantileLine::from_samples(all.iter().map(|s| s.formulate_ns).collect()),
        staleness_batches: QuantileLine::from_samples(
            all.iter().map(|s| s.staleness_batches).collect(),
        ),
        staleness_drift_mean: if all.is_empty() {
            0.0
        } else {
            drift_sum / all.len() as f64
        },
        staleness_drift_max: all.iter().map(|s| s.staleness_drift).fold(0.0, f64::max),
        final_epoch: midas.pattern_snapshot().epoch,
        wall_ms: started.elapsed().as_millis().min(u64::MAX as u128) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_core::MidasConfig;
    use midas_datagen::DatasetSpec;

    fn small_midas() -> Midas {
        let dataset = DatasetSpec::new(DatasetKind::PubchemLike, 40, 7).generate();
        Midas::bootstrap(dataset.db, MidasConfig::small_defaults()).expect("bootstrap")
    }

    #[test]
    fn quantile_line_handles_empty_and_sorted() {
        assert_eq!(QuantileLine::from_samples(vec![]), QuantileLine::default());
        let q = QuantileLine::from_samples(vec![5, 1, 9, 3, 7]);
        assert_eq!(q.p50, 5);
        assert_eq!(q.max, 9);
        assert!(q.p99 <= q.max && q.p50 <= q.p99);
    }

    #[test]
    fn config_env_overrides_apply() {
        let (env, _) = midas_obs::Env::parse([
            ("MIDAS_LOAD_USERS", "3"),
            ("MIDAS_LOAD_TICKS", "9"),
            ("MIDAS_LOAD_TICK_MS", "7"),
            ("MIDAS_LOAD_POOL", "0"),
        ]);
        let cfg = LoadConfig::default().with_env(&env);
        assert_eq!(cfg.users, 3);
        assert_eq!(cfg.ticks, 9);
        assert_eq!(cfg.tick_ms, 7);
        assert_eq!(cfg.pool, 1, "the pool never shrinks to zero");
        // Absent settings leave the preset alone.
        let cfg = LoadConfig::quick().with_env(&midas_obs::Env::default());
        assert_eq!(cfg, LoadConfig::quick());
    }

    #[test]
    fn closed_loop_produces_samples_and_advances_epochs() {
        let mut midas = small_midas();
        let cfg = LoadConfig {
            users: 2,
            ticks: 3,
            tick_ms: 10,
            pool: 8,
            ..LoadConfig::default()
        };
        let report = run(&mut midas, DatasetKind::PubchemLike, &cfg);
        assert_eq!(report.users, 2);
        assert_eq!(report.ticks, 3);
        assert_eq!(report.final_epoch, 3, "one publish per batch");
        assert!(report.queries > 0, "users formulated while batches ran");
        assert!(report.steps_baseline > 0);
        assert!(report.reduction.is_finite());
        assert!(report.read_ns.p50 <= report.read_ns.p99);
        assert!(report.formulate_ns.max >= report.formulate_ns.p50);
        assert!(report.staleness_drift_max >= report.staleness_drift_mean);
    }

    #[test]
    fn report_reduction_guards_zero_baseline() {
        let r = LoadReport::default();
        assert_eq!(r.reduction, 0.0);
        assert!(sli::reduction_from_steps(0, 0).is_finite());
    }
}
