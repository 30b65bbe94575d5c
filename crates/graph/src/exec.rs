//! Scoped-thread execution helpers for the isomorphism kernel.
//!
//! Matrix construction (§5.1) and batch maintenance (Algorithm 1) are
//! dominated by embarrassingly parallel `(graph × pattern)` scans. This
//! module centralizes the fork/join plumbing those scans share, so each
//! call site is a data-parallel one-liner instead of hand-rolled chunk
//! arithmetic:
//!
//! * [`try_par_map`] — map a function over a slice, preserving order,
//!   with every task's panic contained;
//! * [`par_map`] — the same, re-raising a contained failure as a panic.
//!
//! Both run one body, so a task's fault ordinal (below) does not depend
//! on which of the two a caller uses.
//!
//! Threads are plain `std::thread::scope` workers (no pool): the work items
//! here are chunky (VF2 searches over whole graphs), so spawn overhead is
//! noise, and scoped threads let closures borrow the database and indices
//! without `Arc` gymnastics.
//!
//! When telemetry is enabled (see `midas-obs`), every parallel fan-out
//! bumps `exec.fanouts`/`exec.tasks`, and each worker runs under an
//! `exec.worker` span, so per-thread busy time shows up in span statistics
//! and as one lane per worker in the Chrome trace.
//!
//! # Thread-count selection
//!
//! [`thread_count`] resolves an explicit override (> 0, the
//! `MidasConfig::threads` knob), else `std::thread::available_parallelism()`.
//! Work is never split wider than the item count, and `1` means "run
//! inline on the caller's thread".
//!
//! The fan-outs additionally degrade to the serial path
//! ([`effective_threads`]) when the host has a single core or the fan-out
//! is narrower than [`SPAWN_THRESHOLD`] items — spawning scoped threads
//! there only adds overhead (the kernel bench measured parallel at 0.83×
//! serial on a 1-core host before this guard).
//!
//! # Fault isolation
//!
//! [`try_par_map`] runs every task under [`std::panic::catch_unwind`]: a
//! panicking task poisons only its own result slot and the whole fan-out
//! returns a [`KernelError`] naming the first failed task, instead of
//! aborting the process or wedging the caller. `MIDAS_FAULT=task:N` (or
//! [`set_fault_for_tests`]) arms a deterministic injector that panics the
//! Nth task executed through this module — the hook the oracle harness and
//! CI use to prove containment end to end. `MIDAS_FAULT=slow:US` instead
//! arms [`slow_fault`], the per-batch slowdown the framework burns inside
//! its `batch.index` span.

pub use midas_obs::config::Fault;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// A contained task failure surfaced by the fallible fan-outs
/// ([`try_par_map`] and friends) instead of an abort or a wedged scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelError {
    /// Index of the first failed work item within the fan-out.
    pub task: usize,
    /// The panic payload, stringified.
    pub message: String,
}

impl KernelError {
    /// Sentinel task index for failures contained at *phase* level (a panic
    /// that escaped an infallible fan-out and was caught by the framework's
    /// backstop) rather than in a specific fan-out slot.
    pub const PHASE: usize = usize::MAX;
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.task == Self::PHASE {
            write!(f, "kernel phase panicked: {}", self.message)
        } else {
            write!(f, "kernel task {} panicked: {}", self.task, self.message)
        }
    }
}

impl std::error::Error for KernelError {}

/// Override sentinel: defer to `MIDAS_FAULT`.
const FROM_ENV: u64 = u64::MAX;
/// Override sentinel: disarmed.
const OFF: u64 = u64::MAX - 1;

/// Programmatic overrides of the `task:` target and the `slow:`
/// microseconds (see [`set_fault_for_tests`]).
static TASK_OVERRIDE: AtomicU64 = AtomicU64::new(FROM_ENV);
static SLOW_OVERRIDE: AtomicU64 = AtomicU64::new(FROM_ENV);

/// Global task ordinal; only advanced while a fault target is armed. Each
/// fan-out reserves a block of ordinals up front (see [`fault_ordinals`]),
/// so the "Nth task" is deterministic for a fixed workload whatever the
/// thread interleaving.
static FAULT_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The armed fault's value for one kind: the override, else the
/// process's `MIDAS_FAULT` when it is of that kind.
fn armed(overridden: &AtomicU64, from_env: fn(Fault) -> Option<u64>) -> Option<u64> {
    match overridden.load(Ordering::Relaxed) {
        FROM_ENV => midas_obs::config::env().fault.and_then(from_env),
        OFF => None,
        n => Some(n),
    }
}

fn fault_target() -> Option<u64> {
    armed(&TASK_OVERRIDE, |f| match f {
        Fault::Task(n) => Some(n),
        Fault::Slow(_) => None,
    })
}

/// The armed `slow:US` delay, if any.
pub fn slow_fault() -> Option<Duration> {
    armed(&SLOW_OVERRIDE, |f| match f {
        Fault::Slow(us) => Some(us),
        Fault::Task(_) => None,
    })
    .filter(|&us| us > 0)
    .map(Duration::from_micros)
}

/// Arms `fault` (`Task(n)`: panic the `n`-th task from now; `Slow(us)`:
/// the [`slow_fault`] delay) or disarms both (`None`), overriding
/// `MIDAS_FAULT`, and resets the task counter. Process-global — callers
/// must serialize tests around it.
pub fn set_fault_for_tests(fault: Option<Fault>) {
    let (task, slow) = match fault {
        Some(Fault::Task(n)) => (n.min(OFF - 1), OFF),
        Some(Fault::Slow(us)) => (OFF, us.min(OFF - 1)),
        None => (OFF, OFF),
    };
    TASK_OVERRIDE.store(task, Ordering::Relaxed);
    SLOW_OVERRIDE.store(slow, Ordering::Relaxed);
    FAULT_COUNTER.store(0, Ordering::Relaxed);
}

/// Reserves `n` consecutive task ordinals for one fan-out and returns the
/// first: task `i` of the fan-out is ordinal `first + i`, whichever worker
/// runs it. Free (returns 0) while the injector is disarmed.
#[inline]
fn fault_ordinals(n: usize) -> u64 {
    if fault_target().is_some() {
        FAULT_COUNTER.fetch_add(n as u64, Ordering::Relaxed)
    } else {
        0
    }
}

/// The per-task injection point: panics on the armed task ordinal.
#[inline]
fn fault_point(ordinal: u64) {
    if let Some(target) = fault_target() {
        if ordinal == target {
            midas_obs::flight::record_event(
                "fault_injected",
                format!("MIDAS_FAULT fired at task {target}"),
            );
            panic!("injected fault at task {target} (MIDAS_FAULT)");
        }
    }
}

/// Stringifies a `catch_unwind` payload (also used by phase-level
/// containment backstops in `midas-core`).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Resolves the number of worker threads to use for `items` work items.
///
/// `override_threads` wins when non-zero (this is the `MidasConfig::threads`
/// knob); otherwise the machine's available parallelism.
pub fn thread_count(override_threads: usize, items: usize) -> usize {
    let configured = if override_threads > 0 {
        override_threads
    } else {
        available_cores()
    };
    configured.min(items).max(1)
}

/// Fan-outs narrower than this run inline: spawning scoped worker threads
/// costs more than matching a handful of small graphs.
pub const SPAWN_THRESHOLD: usize = 8;

/// Cached `available_parallelism` — the answer cannot change mid-process,
/// and the fan-out hot path should not repeat the syscall.
fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// [`thread_count`] with the spawn-cost degrade applied: the resolved
/// width collapses to `1` (run inline) when the host has a single core —
/// scoped threads there only add spawn and scheduling overhead — or when
/// the fan-out is narrower than [`SPAWN_THRESHOLD`] items. Results are
/// unchanged either way; only the execution strategy differs.
pub fn effective_threads(override_threads: usize, items: usize) -> usize {
    let threads = thread_count(override_threads, items);
    if threads > 1 && (available_cores() == 1 || items < SPAWN_THRESHOLD) {
        return 1;
    }
    threads
}

/// Maps `f` over `items` in parallel, preserving input order.
///
/// `threads = 0` means auto (see [`thread_count`]). Falls back to a plain
/// sequential map when one thread suffices. This is [`try_par_map`] with
/// a contained task failure re-raised as a panic carrying the
/// [`KernelError`] text, for callers whose phase-level backstop records
/// it (the framework's `contain`).
pub fn par_map<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    try_par_map(threads, items, f).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`par_map`]: every task runs under `catch_unwind`, a panic
/// poisons only its own slot, and the call returns the first failure as a
/// [`KernelError`] instead of unwinding across the scope join.
pub fn try_par_map<T, U, F>(threads: usize, items: &[T], f: F) -> Result<Vec<U>, KernelError>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    try_par_map_indexed(threads, items, |_, item| f(item))
}

/// Maps `f(index, item)` over `items` in parallel, preserving input order
/// — the one fan-out body behind [`par_map`] and [`try_par_map`]. Every
/// task runs under `catch_unwind`; remaining healthy tasks still run to
/// completion (the scope joins every worker), and only their results are
/// discarded when an error is reported.
fn try_par_map_indexed<T, U, F>(threads: usize, items: &[T], f: F) -> Result<Vec<U>, KernelError>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let first_ordinal = fault_ordinals(items.len());
    let run_task = |i: usize, item: &T| -> Result<U, KernelError> {
        catch_unwind(AssertUnwindSafe(|| {
            fault_point(first_ordinal + i as u64);
            f(i, item)
        }))
        .map_err(|payload| {
            midas_obs::counter_add!("exec.task_panics", 1);
            KernelError {
                task: i,
                message: panic_message(payload),
            }
        })
    };
    let threads = effective_threads(threads, items.len());
    if threads <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, x)| run_task(i, x))
            .collect();
    }
    midas_obs::counter_add!("exec.fanouts", 1);
    midas_obs::counter_add!("exec.tasks", items.len() as u64);
    let mut out: Vec<Option<Result<U, KernelError>>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    let chunk_len = items.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (chunk_idx, (in_chunk, out_chunk)) in items
            .chunks(chunk_len)
            .zip(out.chunks_mut(chunk_len))
            .enumerate()
        {
            let run_task = &run_task;
            scope.spawn(move || {
                let _busy = midas_obs::span!("exec.worker");
                let base = chunk_idx * chunk_len;
                for (offset, (item, slot)) in in_chunk.iter().zip(out_chunk).enumerate() {
                    *slot = Some(run_task(base + offset, item));
                }
            });
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("worker filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        for threads in [1, 2, 3, 7] {
            let doubled = par_map(threads, &items, |&x| x * 2);
            assert_eq!(doubled, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_indexed_sees_true_indices() {
        let items = vec!["a"; 257];
        let idxs = try_par_map_indexed(4, &items, |i, _| i).expect("no faults");
        assert_eq!(idxs, (0..257).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_reraises_a_contained_failure() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 4] {
            let payload = catch_unwind(|| {
                par_map(threads, &items, |&x| {
                    if x == 37 {
                        panic!("boom at {x}");
                    }
                    x
                })
            })
            .expect_err("task 37 panics");
            let message = panic_message(payload);
            assert_eq!(message, "kernel task 37 panicked: boom at 37");
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let none: Vec<u32> = Vec::new();
        assert!(par_map(8, &none, |&x| x).is_empty());
        assert_eq!(try_par_map(8, &none, |&x| x), Ok(Vec::new()));
    }

    #[test]
    fn try_par_map_matches_par_map_on_healthy_tasks() {
        let items: Vec<u64> = (0..500).collect();
        for threads in [1, 2, 8] {
            let out = try_par_map(threads, &items, |&x| x * 3).expect("no faults");
            assert_eq!(out, items.iter().map(|&x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn try_par_map_contains_a_panicking_task() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 4] {
            let err = try_par_map(threads, &items, |&x| {
                if x == 37 {
                    panic!("boom at {x}");
                }
                x
            })
            .expect_err("task 37 panics");
            assert_eq!(err.task, 37);
            assert!(err.message.contains("boom at 37"), "{err}");
        }
    }

    #[test]
    fn try_par_map_indexed_reports_first_failed_index() {
        let items = vec![(); 64];
        let err = try_par_map_indexed(2, &items, |i, ()| {
            if i % 50 == 3 {
                panic!("bad slot");
            }
            i
        })
        .expect_err("slot 3 and 53 panic");
        assert_eq!(err.task, 3, "first error in slot order wins");
        assert!(err.to_string().contains("task 3"));
    }

    #[test]
    fn kernel_error_displays_task_and_message() {
        let e = KernelError {
            task: 9,
            message: "xyz".into(),
        };
        assert_eq!(e.to_string(), "kernel task 9 panicked: xyz");
    }

    #[test]
    fn thread_count_clamps_to_items() {
        assert_eq!(thread_count(64, 3), 3);
        assert_eq!(thread_count(2, 1000), 2);
        assert_eq!(thread_count(0, 0), 1);
        assert!(thread_count(0, 1000) >= 1);
    }

    #[test]
    fn effective_threads_degrades_small_fanouts_to_serial() {
        // Below the spawn threshold the fan-out always runs inline, no
        // matter how many threads were requested or are available.
        for items in 0..SPAWN_THRESHOLD {
            assert_eq!(effective_threads(64, items), 1, "items = {items}");
        }
        // At and beyond the threshold, the degrade depends only on the
        // host: a single-core machine never spawns (parallel was measured
        // at 0.83x serial there), a multi-core one keeps the resolved
        // width.
        let wide = effective_threads(4, 1000);
        if available_cores() == 1 {
            assert_eq!(wide, 1, "single-core host must run serial");
        } else {
            assert_eq!(wide, 4, "multi-core host keeps the requested width");
        }
        // The underlying resolution order is untouched.
        assert_eq!(thread_count(64, 3), 3);
    }

    #[test]
    fn degraded_fanouts_produce_identical_results() {
        // The degrade changes execution strategy, never results: a fan-out
        // narrower than the spawn threshold matches the serial map.
        let items: Vec<u64> = (0..SPAWN_THRESHOLD as u64 - 1).collect();
        let out = par_map(8, &items, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
        let tried = try_par_map(8, &items, |&x| x + 1).expect("no faults");
        assert_eq!(tried, items.iter().map(|&x| x + 1).collect::<Vec<_>>());
    }
}
