//! The serial task map of the isomorphism kernel, and the fault injector.
//!
//! Matrix construction (§5.1) and batch maintenance (Algorithm 1) are
//! `(graph × pattern)` scans. Every kernel scan runs through [`map_tasks`],
//! one task per item, in input order, on the caller's thread: MIDAS runs
//! Algorithm 1 as one batch procedure per database, and the daemon's unit
//! of concurrency is the tenant's own maintenance thread, not a fan-out
//! inside one batch.
//!
//! # Panics
//!
//! This module catches no panic. A panicking task unwinds out of
//! [`map_tasks`] with its own payload. The one place on the maintenance
//! path that catches it is the framework's phase backstop (`contain` in
//! `midas-core`).
//!
//! `MIDAS_FAULT=task:N` (or [`set_fault_for_tests`]) arms a deterministic
//! injector that panics the Nth task executed through this module — the
//! hook the oracle harness and CI use to prove containment end to end.
//! `MIDAS_FAULT=slow:US` instead arms [`slow_fault`], the per-batch
//! slowdown the framework burns inside its `batch.index` span.

pub use midas_obs::config::Fault;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Override sentinel: defer to `MIDAS_FAULT`.
const FROM_ENV: u64 = u64::MAX;
/// Override sentinel: disarmed.
const OFF: u64 = u64::MAX - 1;

/// Programmatic overrides of the `task:` target and the `slow:`
/// microseconds (see [`set_fault_for_tests`]).
static TASK_OVERRIDE: AtomicU64 = AtomicU64::new(FROM_ENV);
static SLOW_OVERRIDE: AtomicU64 = AtomicU64::new(FROM_ENV);

/// Global task ordinal; only advanced while a fault target is armed, so
/// the "Nth task" is deterministic for a fixed workload.
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

/// The per-task injection point: takes the next task ordinal and panics
/// on the armed one. Free while the injector is disarmed.
#[inline]
fn fault_point() {
    if let Some(target) = fault_target() {
        if FAULT_COUNTER.fetch_add(1, Ordering::Relaxed) == target {
            midas_obs::flight::record_event(
                "fault_injected",
                format!("MIDAS_FAULT fired at task {target}"),
            );
            panic!("injected fault at task {target} (MIDAS_FAULT)");
        }
    }
}

/// Stringifies a caught panic payload (the framework's phase backstop
/// reports it).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Maps `f` over `items` in input order, one task per item, with the
/// `task:N` fault point before each. A panicking task unwinds out of this
/// call with its own payload (see the module docs).
pub fn map_tasks<T, U>(items: &[T], mut f: impl FnMut(&T) -> U) -> Vec<U> {
    items
        .iter()
        .map(|item| {
            fault_point();
            f(item)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Named for `map_tasks`' former name, `par_map`, so the test id stays.
    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let doubled = map_tasks(&items, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_fine() {
        let none: Vec<u32> = Vec::new();
        assert!(map_tasks(&none, |&x| x).is_empty());
    }
}
