//! Scoped-thread execution helpers for the isomorphism kernel.
//!
//! Matrix construction (§5.1) and batch maintenance (Algorithm 1) are
//! dominated by embarrassingly parallel `(graph × pattern)` scans. This
//! module centralizes the fork/join plumbing those scans share, so each
//! call site is a data-parallel one-liner instead of hand-rolled chunk
//! arithmetic:
//!
//! * [`par_map`] — map a function over a slice, preserving order.
//! * [`par_map_indexed`] — same, with the element index available.
//! * [`par_chunks`] — run a closure once per contiguous chunk, for
//!   reductions that want per-thread accumulators.
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
//! [`thread_count`] resolves, in order: an explicit override (> 0), the
//! `MIDAS_THREADS` environment variable (> 0), then
//! `std::thread::available_parallelism()`. Work is never split wider than
//! the item count, and `1` means "run inline on the caller's thread".
//!
//! The fan-outs additionally degrade to the serial path
//! ([`effective_threads`]) when the host has a single core or the fan-out
//! is narrower than [`SPAWN_THRESHOLD`] items — spawning scoped threads
//! there only adds overhead (the kernel bench measured parallel at 0.83×
//! serial on a 1-core host before this guard).
//!
//! # Fault isolation
//!
//! [`try_par_map`] / [`try_par_map_indexed`] run every task under
//! [`std::panic::catch_unwind`]: a panicking task poisons only its own
//! result slot and the whole fan-out returns a [`KernelError`] naming the
//! first failed task, instead of aborting the process or wedging the
//! caller. The `MIDAS_FAULT=task:N` environment variable (or
//! [`set_fault_for_tests`]) arms a deterministic injector that panics the
//! Nth task executed through this module — the hook the oracle harness and
//! CI use to prove containment end to end.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::OnceLock;

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

/// Sentinel for "no programmatic fault override": fall back to the env var.
const FAULT_FROM_ENV: i64 = i64::MIN;

/// Programmatic override of the fault target (tests); `FAULT_FROM_ENV`
/// defers to `MIDAS_FAULT`, any other negative value disables injection.
static FAULT_OVERRIDE: AtomicI64 = AtomicI64::new(FAULT_FROM_ENV);

/// Global task ordinal; only advanced while a fault target is armed. Each
/// fan-out reserves a block of ordinals up front (see [`fault_ordinals`]),
/// so the "Nth task" is deterministic for a fixed workload whatever the
/// thread interleaving.
static FAULT_COUNTER: AtomicU64 = AtomicU64::new(0);

/// `MIDAS_FAULT=task:N`, parsed once.
fn env_fault_target() -> Option<u64> {
    static PARSED: OnceLock<Option<u64>> = OnceLock::new();
    *PARSED.get_or_init(|| {
        std::env::var("MIDAS_FAULT")
            .ok()
            .as_deref()
            .and_then(|s| s.trim().strip_prefix("task:"))
            .and_then(|n| n.trim().parse::<u64>().ok())
    })
}

fn fault_target() -> Option<u64> {
    match FAULT_OVERRIDE.load(Ordering::Relaxed) {
        FAULT_FROM_ENV => env_fault_target(),
        n if n >= 0 => Some(n as u64),
        _ => None,
    }
}

/// Arms (`Some(n)`: panic the `n`-th task from now) or disarms (`None`)
/// the fault injector, overriding `MIDAS_FAULT`, and resets the task
/// counter. Process-global — callers must serialize tests around it.
pub fn set_fault_for_tests(target: Option<u64>) {
    FAULT_OVERRIDE.store(
        match target {
            Some(n) => n as i64,
            None => -1,
        },
        Ordering::Relaxed,
    );
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
/// knob); otherwise the `MIDAS_THREADS` environment variable (when set to a
/// positive integer); otherwise the machine's available parallelism.
pub fn thread_count(override_threads: usize, items: usize) -> usize {
    let configured = if override_threads > 0 {
        override_threads
    } else {
        env_threads().unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        })
    };
    configured.min(items).max(1)
}

fn env_threads() -> Option<usize> {
    std::env::var("MIDAS_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
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
/// sequential map when one thread suffices.
pub fn par_map<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(threads, items, |_, item| f(item))
}

/// Maps `f(index, item)` over `items` in parallel, preserving input order.
pub fn par_map_indexed<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let first_ordinal = fault_ordinals(items.len());
    let threads = effective_threads(threads, items.len());
    if threads <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, x)| {
                fault_point(first_ordinal + i as u64);
                f(i, x)
            })
            .collect();
    }
    midas_obs::counter_add!("exec.fanouts", 1);
    midas_obs::counter_add!("exec.tasks", items.len() as u64);
    let mut out: Vec<Option<U>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    let chunk_len = items.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (chunk_idx, (in_chunk, out_chunk)) in items
            .chunks(chunk_len)
            .zip(out.chunks_mut(chunk_len))
            .enumerate()
        {
            let f = &f;
            scope.spawn(move || {
                let _busy = midas_obs::span!("exec.worker");
                let base = chunk_idx * chunk_len;
                for (offset, (item, slot)) in in_chunk.iter().zip(out_chunk).enumerate() {
                    fault_point(first_ordinal + (base + offset) as u64);
                    *slot = Some(f(base + offset, item));
                }
            });
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("worker filled every slot"))
        .collect()
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

/// Fallible [`par_map_indexed`]. Remaining healthy tasks still run to
/// completion (the scope joins every worker); only their results are
/// discarded when an error is reported.
pub fn try_par_map_indexed<T, U, F>(
    threads: usize,
    items: &[T],
    f: F,
) -> Result<Vec<U>, KernelError>
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

/// Runs `f(chunk_start, chunk)` once per contiguous chunk, in parallel, and
/// returns the per-chunk results in order. Useful for reductions: each
/// worker builds a private accumulator, the caller merges the handful of
/// results.
pub fn par_chunks<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &[T]) -> U + Sync,
{
    let threads = effective_threads(threads, items.len());
    if threads <= 1 {
        if items.is_empty() {
            return Vec::new();
        }
        return vec![f(0, items)];
    }
    midas_obs::counter_add!("exec.fanouts", 1);
    midas_obs::counter_add!("exec.tasks", items.len() as u64);
    let chunk_len = items.len().div_ceil(threads);
    let mut out: Vec<Option<U>> = Vec::new();
    out.resize_with(items.len().div_ceil(chunk_len), || None);
    std::thread::scope(|scope| {
        for (chunk_idx, (chunk, slot)) in items.chunks(chunk_len).zip(out.iter_mut()).enumerate() {
            let f = &f;
            scope.spawn(move || {
                let _busy = midas_obs::span!("exec.worker");
                *slot = Some(f(chunk_idx * chunk_len, chunk));
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
        let idxs = par_map_indexed(4, &items, |i, _| i);
        assert_eq!(idxs, (0..257).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_partitions_exactly() {
        let items: Vec<usize> = (0..103).collect();
        for threads in [1, 2, 5, 16] {
            let sums = par_chunks(threads, &items, |start, chunk| {
                assert_eq!(chunk[0], start);
                chunk.iter().sum::<usize>()
            });
            assert_eq!(sums.iter().sum::<usize>(), items.iter().sum::<usize>());
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let none: Vec<u32> = Vec::new();
        assert!(par_map(8, &none, |&x| x).is_empty());
        assert!(par_chunks(8, &none, |_, c: &[u32]| c.len()).is_empty());
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
