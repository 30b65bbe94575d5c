//! Tenants and the shared maintenance worker pool.
//!
//! One [`Tenant`] = one embedded [`Midas`] instance serving one dataset.
//! The two sides of a tenant touch disjoint synchronization:
//!
//! * **Reads** (`GET /v1/{tenant}/patterns`) go through the tenant's
//!   [`Published<PatternSnapshot>`] handle — an `Arc` clone under a
//!   nanosecond-scale pointer lock, never the `Midas` mutex — so a
//!   tenant's (or any other tenant's) in-flight `apply_batch` cannot
//!   block them.
//! * **Maintenance** (`POST /v1/{tenant}/updates`) enqueues an
//!   [`Ingest`] job on the tenant's FIFO and wakes the shared
//!   [maintenance pool](crate::ServeDaemon); a worker claims the tenant
//!   (busy CAS), drains its queue in order under the `Midas` mutex, and
//!   publishes a fresh snapshot per batch. One worker per tenant at a
//!   time keeps batch application serial per tenant — the final pattern
//!   set is a pure function of the batch sequence, which is what the
//!   oracle's serve-vs-library parity check pins — while different
//!   tenants apply on different workers concurrently.
//!
//! The tenant also produces the user-side SLIs of [`midas_obs::sli`]:
//! `POST /v1/{tenant}/querylog` feeds [`Tenant::observe`] one sample per
//! query, and every batch [`Tenant::drain`] applies closes one tick over
//! the samples logged since the previous batch.

use midas_core::{Midas, MidasConfig, PatternSnapshot, Published};
use midas_datagen::{DatasetKind, MotifKind};
use midas_graph::{BatchUpdate, GraphDb, LabeledGraph};
use midas_obs::sli::{self, QuerySample, TickSummary};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Server-side batch generator spec: `POST /v1/{tenant}/updates` may ship
/// either an explicit insert/delete batch or one of these, in which case
/// the batch is synthesized against the tenant's *current* database at
/// apply time (so queued generator jobs compose deterministically).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenSpec {
    /// What to generate.
    pub op: GenOp,
    /// Percent of the current database size (growth / deletion ops).
    pub percent: f64,
    /// Number of novel-family graphs (novel op).
    pub count: usize,
    /// Motif for the novel op (defaults to [`MotifKind::BoronicEster`]).
    pub motif: Option<MotifKind>,
    /// Generator seed.
    pub seed: u64,
}

/// The operation a [`GenSpec`] performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenOp {
    /// Insert `percent`% new molecules drawn from the tenant's dataset
    /// parameters.
    Growth,
    /// Delete `percent`% of the current graphs.
    Deletion,
    /// Insert `count` graphs of a novel motif family.
    Novel,
}

/// One queued maintenance job.
#[derive(Debug, Clone)]
pub enum Ingest {
    /// An explicit insert/delete batch.
    Batch(BatchUpdate),
    /// A server-side generated batch.
    Generate(GenSpec),
}

/// Shared per-tick accumulators (drained once per applied batch).
#[derive(Default)]
struct TickCounters {
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
    fn observe(&self, s: &QuerySample) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.steps_live.fetch_add(s.steps_live, Ordering::Relaxed);
        self.steps_baseline
            .fetch_add(s.steps_baseline, Ordering::Relaxed);
        self.staleness_batches_max
            .fetch_max(s.staleness_batches, Ordering::Relaxed);
        self.drift_max_bits
            .fetch_max(s.staleness_drift.max(0.0).to_bits(), Ordering::Relaxed);
    }

    fn drain(&self) -> (u64, u64, u64, u64, f64) {
        (
            self.queries.swap(0, Ordering::Relaxed),
            self.steps_live.swap(0, Ordering::Relaxed),
            self.steps_baseline.swap(0, Ordering::Relaxed),
            self.staleness_batches_max.swap(0, Ordering::Relaxed),
            f64::from_bits(self.drift_max_bits.swap(0, Ordering::Relaxed)),
        )
    }
}

/// A named serving tenant: one embedded `Midas`, its lock-free snapshot
/// handle, a frozen epoch-0 baseline pattern set (for SLI reduction
/// math), a FIFO of pending maintenance jobs, and the SLI counters of the
/// tick in progress.
pub struct Tenant {
    /// The tenant name (validated by [`crate::api::valid_name`]).
    pub name: String,
    /// Dataset family — parameterizes server-side growth generation.
    pub kind: DatasetKind,
    midas: Mutex<Midas>,
    handle: Published<PatternSnapshot>,
    baseline: Vec<LabeledGraph>,
    pending: Mutex<VecDeque<Ingest>>,
    busy: AtomicBool,
    queued: AtomicU64,
    ticks: TickCounters,
    created_unix_ms: u64,
}

impl std::fmt::Debug for Tenant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tenant")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("pending", &self.pending_len())
            .finish()
    }
}

impl Tenant {
    /// Bootstraps a tenant on `db`. Blocking (mining + clustering +
    /// selection happen here); runs on the HTTP worker that took the
    /// `POST /v1/tenants`.
    pub fn bootstrap(
        name: String,
        kind: DatasetKind,
        db: GraphDb,
        config: MidasConfig,
    ) -> Result<Tenant, String> {
        let midas = Midas::bootstrap_embedded(db, config)?;
        let handle = midas.snapshot_handle();
        let baseline = handle.read().patterns.clone();
        let tenant = Tenant {
            name,
            kind,
            midas: Mutex::new(midas),
            handle,
            baseline,
            pending: Mutex::new(VecDeque::new()),
            busy: AtomicBool::new(false),
            queued: AtomicU64::new(0),
            ticks: TickCounters::default(),
            created_unix_ms: midas_obs::flight::unix_ms(),
        };
        tenant.export_gauges();
        Ok(tenant)
    }

    /// The latest published pattern snapshot — lock-free with respect to
    /// maintenance (only the `Published` pointer lock is touched).
    pub fn snapshot(&self) -> Arc<PatternSnapshot> {
        self.handle.read()
    }

    /// The frozen epoch-0 pattern set (the "no maintenance" baseline the
    /// querylog endpoint formulates against).
    pub fn baseline(&self) -> &[LabeledGraph] {
        &self.baseline
    }

    /// Records one logged query: into the `sli.*` metrics, and into the
    /// tick the tenant's next applied batch closes.
    pub fn observe(&self, sample: &QuerySample) {
        sli::record_query(sample);
        self.ticks.observe(sample);
    }

    /// Tenant creation time, unix milliseconds.
    pub fn created_unix_ms(&self) -> u64 {
        self.created_unix_ms
    }

    /// Jobs enqueued but not yet applied.
    pub fn pending_len(&self) -> u64 {
        self.queued.load(Ordering::Acquire)
    }

    /// Enqueues one maintenance job; returns the new queue depth. The
    /// caller is responsible for waking the maintenance pool.
    pub fn enqueue(&self, job: Ingest) -> u64 {
        let mut q = self.pending.lock().unwrap_or_else(|e| e.into_inner());
        q.push_back(job);
        self.queued.store(q.len() as u64, Ordering::Release);
        q.len() as u64
    }

    fn pop_job(&self) -> Option<Ingest> {
        let mut q = self.pending.lock().unwrap_or_else(|e| e.into_inner());
        let job = q.pop_front();
        self.queued.store(q.len() as u64, Ordering::Release);
        job
    }

    /// Runs a read-only closure against the tenant's `Midas` under its
    /// maintenance mutex (query-workload generation needs the live db).
    pub fn with_midas<R>(&self, f: impl FnOnce(&Midas) -> R) -> R {
        let midas = self.midas.lock().unwrap_or_else(|e| e.into_inner());
        f(&midas)
    }

    /// Applies every pending job in FIFO order, publishing one snapshot
    /// and recording one SLI tick per batch. At most one thread drains a
    /// tenant at a time (busy CAS); a loser returns immediately — the
    /// winner re-checks the queue after releasing the claim, so no
    /// enqueued job is stranded.
    pub fn drain(&self) {
        loop {
            if self.busy.swap(true, Ordering::AcqRel) {
                return; // someone else is draining and will re-check
            }
            while let Some(job) = self.pop_job() {
                let mut midas = self.midas.lock().unwrap_or_else(|e| e.into_inner());
                let batch = match job {
                    Ingest::Batch(b) => b,
                    Ingest::Generate(spec) => spec.build(&midas, self.kind),
                };
                if !batch.is_empty() {
                    let _report = midas.apply_batch(batch);
                    let (queries, steps_live, steps_baseline, stale_max, drift_max) =
                        self.ticks.drain();
                    sli::record_tick(TickSummary {
                        tick: 0, // numbered by record_tick
                        epoch: midas.pattern_snapshot().epoch,
                        queries,
                        steps_live,
                        steps_baseline,
                        reduction: sli::reduction_from_steps(steps_live, steps_baseline),
                        staleness_batches_max: stale_max,
                        staleness_drift_max: drift_max,
                        unix_ms: midas_obs::flight::unix_ms(),
                    });
                    if midas_obs::enabled() {
                        midas_obs::registry::registry()
                            .counter(&crate::metric(&self.name, "serve.batches"))
                            .add(1);
                    }
                }
                self.export_gauges_from(&midas);
            }
            self.busy.store(false, Ordering::Release);
            if self
                .pending
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .is_empty()
            {
                return;
            }
            // A job raced in between the last pop and the release: loop
            // and try to claim the tenant again.
        }
    }

    /// True while a worker is applying this tenant's batches.
    pub fn busy(&self) -> bool {
        self.busy.load(Ordering::Acquire)
    }

    fn export_gauges(&self) {
        let midas = self.midas.lock().unwrap_or_else(|e| e.into_inner());
        self.export_gauges_from(&midas);
    }

    fn export_gauges_from(&self, _midas: &Midas) {
        if !midas_obs::enabled() {
            return;
        }
        let snap = self.handle.read();
        let reg = midas_obs::registry::registry();
        reg.gauge(&crate::metric(&self.name, "serve.epoch"))
            .set(snap.epoch as f64);
        reg.gauge(&crate::metric(&self.name, "serve.db_len"))
            .set(snap.db_len as f64);
    }
}

impl GenSpec {
    /// Synthesizes the batch against the tenant's current database.
    pub fn build(&self, midas: &Midas, kind: DatasetKind) -> BatchUpdate {
        match self.op {
            GenOp::Growth => midas_datagen::updates::growth_percent(
                &kind.params(),
                midas.db(),
                self.percent,
                self.seed,
            ),
            GenOp::Deletion => {
                midas_datagen::updates::deletion_percent(midas.db(), self.percent, self.seed)
            }
            GenOp::Novel => midas_datagen::novel_family_batch(
                self.motif.unwrap_or(MotifKind::BoronicEster),
                self.count,
                self.seed,
            ),
        }
    }
}
