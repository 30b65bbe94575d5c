//! Tenants and their maintenance threads.
//!
//! One [`Tenant`] = one embedded [`Midas`] instance serving one dataset,
//! plus the one maintenance thread (`serve-maint-<n>`) that
//! [`Tenant::bootstrap`] spawns for it. The two sides of a tenant touch
//! disjoint synchronization:
//!
//! * **Reads** (`GET /v1/{tenant}/patterns`) go through the tenant's
//!   [`Published<PatternSnapshot>`] handle — an `Arc` clone under a
//!   nanosecond-scale pointer lock, never the `Midas` mutex — so a
//!   tenant's (or any other tenant's) in-flight `apply_batch` cannot
//!   block them.
//! * **Maintenance** (`POST /v1/{tenant}/updates`) sends one job on the
//!   tenant's FIFO channel ([`Tenant::enqueue`]), which holds at most
//!   [`JOB_CAPACITY`] jobs: a full channel refuses the job, and the
//!   request is answered `429`. The tenant's thread
//!   receives the jobs in arrival order and applies each under the
//!   `Midas` mutex, publishing a fresh snapshot per batch. One thread per
//!   tenant keeps batch application serial per tenant — the final pattern
//!   set is a pure function of the batch sequence, which is what the
//!   oracle's serve-vs-library parity check pins — while different
//!   tenants apply on their own threads concurrently. A job may carry a
//!   reply sender; the thread answers it with the snapshot that job's
//!   batch published.
//!
//! A panic outside `apply_batch`'s phase backstop ends the thread, and
//! its receiver drops with it: the tenant is marked degraded
//! ([`Tenant::degraded`]) before anyone can see the death, every job
//! still queued is dropped (so each waiting reply disconnects), and
//! [`Tenant::enqueue`] refuses new jobs. Reads keep serving the last
//! published snapshot.

use midas_core::{Midas, MidasConfig, PatternSnapshot, Published};
use midas_datagen::{DatasetKind, MotifKind};
use midas_graph::{BatchUpdate, GraphDb, LabeledGraph};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

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
    /// Panics on the maintenance thread, outside `apply_batch`.
    #[cfg(test)]
    Panic,
}

/// How many jobs a tenant's channel holds before [`Tenant::enqueue`]
/// refuses the next one; the job in flight is not counted.
pub const JOB_CAPACITY: usize = 64;

/// Why [`Tenant::enqueue`] refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refused {
    /// [`JOB_CAPACITY`] jobs are already waiting; a retry may succeed.
    Full,
    /// The maintenance thread has exited or the tenant was closed.
    Closed,
}

/// One accepted job, as the maintenance thread receives it.
struct Job {
    ingest: Ingest,
    enqueued: Instant,
    reply: Option<Sender<Arc<PatternSnapshot>>>,
}

/// What the maintenance thread shares with the request handlers.
struct Shared {
    midas: Mutex<Midas>,
    /// Jobs accepted but not yet applied, the one in flight included.
    pending: AtomicU64,
    /// Set when the maintenance thread dies other than through `close`.
    degraded: AtomicBool,
}

/// Numbers the maintenance threads `serve-maint-0`, `serve-maint-1`, …
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

/// A named serving tenant: one embedded `Midas`, its lock-free snapshot
/// handle, a frozen epoch-0 baseline pattern set (for SLI reduction
/// math), and the sending end of its maintenance thread's job channel.
pub struct Tenant {
    /// The tenant name (validated by [`crate::api::valid_name`]).
    pub name: String,
    /// Dataset family — parameterizes server-side growth generation.
    pub kind: DatasetKind,
    shared: Arc<Shared>,
    handle: Published<PatternSnapshot>,
    baseline: Vec<LabeledGraph>,
    jobs: Mutex<Option<SyncSender<Job>>>,
    thread: Mutex<Option<JoinHandle<()>>>,
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
    /// Bootstraps a tenant on `db` and spawns its maintenance thread.
    /// Blocking (mining + clustering + selection happen here); runs on
    /// the HTTP worker that took the `POST /v1/tenants`.
    pub fn bootstrap(
        name: String,
        kind: DatasetKind,
        db: GraphDb,
        config: MidasConfig,
    ) -> Result<Tenant, String> {
        let midas = Midas::bootstrap(db, config)?;
        let handle = midas.snapshot_handle();
        let baseline = handle.read().patterns.clone();
        let shared = Arc::new(Shared {
            midas: Mutex::new(midas),
            pending: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
        });
        let (tx, rx) = mpsc::sync_channel(JOB_CAPACITY);
        let thread = {
            let (shared, name) = (Arc::clone(&shared), name.clone());
            std::thread::Builder::new()
                .name(format!(
                    "serve-maint-{}",
                    NEXT_THREAD.fetch_add(1, Ordering::Relaxed)
                ))
                .spawn(move || maintain(&shared, &name, kind, rx))
                .map_err(|e| format!("spawn maintenance thread: {e}"))?
        };
        export_gauges(&name, &handle.read());
        Ok(Tenant {
            name,
            kind,
            shared,
            handle,
            baseline,
            jobs: Mutex::new(Some(tx)),
            thread: Mutex::new(Some(thread)),
            created_unix_ms: midas_obs::flight::unix_ms(),
        })
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

    /// Tenant creation time, unix milliseconds.
    pub fn created_unix_ms(&self) -> u64 {
        self.created_unix_ms
    }

    /// Jobs accepted but not yet applied, the one in flight included.
    pub fn pending_len(&self) -> u64 {
        self.shared.pending.load(Ordering::Acquire)
    }

    /// True once the maintenance thread has died other than through the
    /// tenant's removal or shutdown: updates are refused, reads still
    /// serve the last published snapshot.
    pub fn degraded(&self) -> bool {
        self.shared.degraded.load(Ordering::Acquire)
    }

    /// Sends one job to the maintenance thread, behind every job accepted
    /// before it, without blocking. `reply`, if given, receives the
    /// snapshot published by this job's batch (the current one if the
    /// batch is empty). Returns the pending count with this job included;
    /// a refused job leaves the count as it was.
    pub fn enqueue(
        &self,
        ingest: Ingest,
        reply: Option<Sender<Arc<PatternSnapshot>>>,
    ) -> Result<u64, Refused> {
        let jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        let tx = jobs.as_ref().ok_or(Refused::Closed)?;
        // Counted before the send: the thread may apply the job and count
        // it down before `try_send` returns.
        let pending = self.shared.pending.fetch_add(1, Ordering::AcqRel) + 1;
        let job = Job {
            ingest,
            enqueued: Instant::now(),
            reply,
        };
        tx.try_send(job).map(|()| pending).map_err(|e| {
            self.shared.pending.fetch_sub(1, Ordering::AcqRel);
            match e {
                TrySendError::Full(_) => Refused::Full,
                TrySendError::Disconnected(_) => Refused::Closed,
            }
        })
    }

    /// Closes the job channel: the thread applies every job it already
    /// accepted, then exits. Returns the thread's handle, once, for the
    /// caller to join.
    pub(crate) fn close(&self) -> Option<JoinHandle<()>> {
        self.jobs.lock().unwrap_or_else(|e| e.into_inner()).take();
        self.thread.lock().unwrap_or_else(|e| e.into_inner()).take()
    }

    /// Runs a read-only closure against the tenant's `Midas` under its
    /// maintenance mutex (query-workload generation needs the live db).
    pub fn with_midas<R>(&self, f: impl FnOnce(&Midas) -> R) -> R {
        let midas = self.shared.midas.lock().unwrap_or_else(|e| e.into_inner());
        f(&midas)
    }
}

/// The maintenance thread: applies jobs in arrival order, publishing one
/// snapshot per non-empty batch, until every sender is gone.
fn maintain(shared: &Shared, name: &str, kind: DatasetKind, jobs: Receiver<Job>) {
    let queue_wait = crate::metric(name, "serve.queue_wait_us");
    let pending = crate::metric(name, "serve.pending");
    let set_pending = |n: u64| {
        if midas_obs::enabled() {
            midas_obs::registry::registry()
                .gauge(&pending)
                .set(n as f64);
        }
    };
    for job in jobs {
        // Declared after `job` and the channel, so it drops before them
        // when the job panics: the tenant reads degraded before any
        // waiting caller sees its reply disconnect.
        let _watch = DeathWatch(&shared.degraded);
        if midas_obs::enabled() {
            midas_obs::registry::registry()
                .histogram(&queue_wait)
                .record(job.enqueued.elapsed().as_micros() as u64);
        }
        set_pending(shared.pending.load(Ordering::Acquire));
        let mut midas = shared.midas.lock().unwrap_or_else(|e| e.into_inner());
        let batch = match job.ingest {
            Ingest::Batch(b) => b,
            Ingest::Generate(spec) => spec.build(&midas, kind),
            #[cfg(test)]
            Ingest::Panic => panic!("injected maintenance-thread panic"),
        };
        if !batch.is_empty() {
            let _report = midas.apply_batch(batch);
            if midas_obs::enabled() {
                midas_obs::registry::registry()
                    .counter(&crate::metric(name, "serve.batches"))
                    .add(1);
            }
        }
        let snap = midas.pattern_snapshot();
        drop(midas);
        export_gauges(name, &snap);
        set_pending(shared.pending.fetch_sub(1, Ordering::AcqRel) - 1);
        if let Some(reply) = job.reply {
            let _ = reply.send(snap); // the caller may have timed out
        }
    }
}

/// Marks its tenant degraded if the maintenance thread unwinds past it.
struct DeathWatch<'a>(&'a AtomicBool);

impl Drop for DeathWatch<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

fn export_gauges(name: &str, snap: &PatternSnapshot) {
    if !midas_obs::enabled() {
        return;
    }
    let reg = midas_obs::registry::registry();
    reg.gauge(&crate::metric(name, "serve.epoch"))
        .set(snap.epoch as f64);
    reg.gauge(&crate::metric(name, "serve.db_len"))
        .set(snap.db_len as f64);
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
