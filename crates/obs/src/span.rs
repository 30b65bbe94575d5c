//! RAII span timers with a per-thread span stack.
//!
//! A [`Span`] measures one named region of work. On `enter` (when metrics
//! are enabled) it pushes its name onto the calling thread's span stack; on
//! drop it pops, records the duration into the registry's span statistic of
//! the same name, and — when tracing is on — appends a Chrome-trace
//! complete event. Nesting therefore comes for free: a `batch.swap.scan`
//! span opened while `batch.swap` is live renders inside it both in the
//! snapshot (two named statistics) and in the trace (time containment on
//! the same `tid`).
//!
//! # Sharing with the sampling profiler
//!
//! Each thread's stack is an [`Arc<ThreadStack>`] held in a thread-local
//! and registered (as a `Weak`) in a global roster, so
//! [`crate::profile::sample_once`] can walk every live stack from the
//! sampler thread. The frames sit behind a `Mutex` rather than a
//! `RefCell` for exactly that cross-thread read; the lock is uncontended
//! in the common case (the owner pushes/pops, the sampler reads a few
//! dozen times a second) and is only ever touched when telemetry is
//! enabled — the disabled path stays one relaxed atomic load. A thread
//! that exits drops its `Arc`; the roster's `Weak` goes dead and is
//! pruned on the sampler's next pass.

use crate::registry::registry;
use crate::trace;
use std::cell::RefCell;
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

/// One thread's live span stack, readable from the sampler thread.
#[derive(Debug)]
pub(crate) struct ThreadStack {
    /// Dense thread index (also the Chrome-trace `tid`).
    pub(crate) tid: usize,
    frames: Mutex<Vec<&'static str>>,
}

impl ThreadStack {
    /// A point-in-time copy of the frames, outermost first.
    pub(crate) fn snapshot(&self) -> Vec<&'static str> {
        self.frames
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

fn roster() -> &'static Mutex<Vec<Weak<ThreadStack>>> {
    static ROSTER: OnceLock<Mutex<Vec<Weak<ThreadStack>>>> = OnceLock::new();
    ROSTER.get_or_init(|| Mutex::new(Vec::new()))
}

/// Every registered stack still owned by a live thread; dead entries are
/// pruned in passing. Called by the sampling profiler.
pub(crate) fn live_stacks() -> Vec<Arc<ThreadStack>> {
    let mut roster = roster().lock().unwrap_or_else(|e| e.into_inner());
    roster.retain(|w| w.strong_count() > 0);
    roster.iter().filter_map(Weak::upgrade).collect()
}

thread_local! {
    static STACK: RefCell<Option<Arc<ThreadStack>>> = const { RefCell::new(None) };
}

/// Runs `f` against this thread's stack, creating and registering it on
/// first use.
fn with_stack<R>(f: impl FnOnce(&ThreadStack) -> R) -> R {
    STACK.with(|cell| {
        let mut slot = cell.borrow_mut();
        let stack = slot.get_or_insert_with(|| {
            let stack = Arc::new(ThreadStack {
                tid: crate::registry::thread_index(),
                frames: Mutex::new(Vec::new()),
            });
            roster()
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Arc::downgrade(&stack));
            stack
        });
        f(stack)
    })
}

/// The names of the spans currently open on this thread, outermost first.
/// Mostly useful for debugging instrumentation; empty when telemetry is
/// disabled.
pub fn current_stack() -> Vec<&'static str> {
    STACK.with(|cell| {
        cell.borrow()
            .as_ref()
            .map(|s| s.snapshot())
            .unwrap_or_default()
    })
}

/// Depth of the calling thread's span stack.
pub fn current_depth() -> usize {
    current_stack().len()
}

/// An RAII guard timing one named region. Construct via
/// [`crate::span!`] or [`Span::enter`]; inert (zero work on drop) when
/// metrics were disabled at entry.
#[derive(Debug)]
#[must_use = "a span measures until dropped; binding it to `_` drops it immediately"]
pub struct Span {
    active: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    name: &'static str,
    start: Instant,
}

impl Span {
    /// Opens a span named `name`. When metrics are disabled this is one
    /// relaxed atomic load and the guard does nothing on drop.
    #[inline]
    pub fn enter(name: &'static str) -> Span {
        if !crate::enabled() {
            return Span { active: None };
        }
        with_stack(|s| {
            s.frames
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(name)
        });
        Span {
            active: Some(ActiveSpan {
                name,
                start: Instant::now(),
            }),
        }
    }

    /// The span's name, if it is live.
    pub fn name(&self) -> Option<&'static str> {
        self.active.as_ref().map(|a| a.name)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let dur = active.start.elapsed();
        with_stack(|s| {
            let mut stack = s.frames.lock().unwrap_or_else(|e| e.into_inner());
            // Pop our own frame. Overlapping (non-nested) guard lifetimes
            // cannot corrupt other frames: we remove the deepest matching
            // occurrence of our name only.
            if let Some(pos) = stack.iter().rposition(|&n| n == active.name) {
                stack.remove(pos);
            }
        });
        registry().span(active.name).record(dur);
        // Phase spans feed the tail-latency exemplar store, so `/slow` can
        // attribute slow batches, not just slow plan searches.
        if active.name.starts_with("batch.") {
            crate::exemplar::offer_named(active.name, "us", dur.as_micros() as u64);
        }
        if crate::tracing_enabled() {
            trace::push_complete_event(active.name, active.start, dur);
        }
        if crate::flight::span_capture_enabled() {
            crate::flight::record_event("SPAN", format!("{} {}µs", active.name, dur.as_micros()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::exclusive;
    use std::time::Duration;

    #[test]
    fn span_records_duration_and_nests() {
        let _g = exclusive();
        crate::set_enabled(true);
        registry().span("test.span.outer").record(Duration::ZERO); // register
        {
            let outer = Span::enter("test.span.outer");
            assert_eq!(outer.name(), Some("test.span.outer"));
            assert_eq!(current_stack(), vec!["test.span.outer"]);
            {
                let _inner = Span::enter("test.span.inner");
                assert_eq!(current_depth(), 2);
            }
            assert_eq!(current_depth(), 1);
        }
        crate::set_enabled(false);
        assert_eq!(current_depth(), 0);
        let (count, total, _) = registry().span("test.span.inner").totals();
        assert!(count >= 1);
        assert!(total >= Duration::ZERO);
    }

    #[test]
    fn disabled_span_is_inert() {
        let _g = exclusive();
        crate::set_enabled(false);
        let s = Span::enter("test.span.disabled");
        assert_eq!(s.name(), None);
        assert_eq!(current_depth(), 0);
        drop(s);
        let (count, _, _) = registry().span("test.span.disabled").totals();
        assert_eq!(count, 0);
    }

    #[test]
    fn out_of_order_drops_keep_stack_consistent() {
        let _g = exclusive();
        crate::set_enabled(true);
        let a = Span::enter("test.span.a");
        let b = Span::enter("test.span.b");
        drop(a); // dropped before b — not idiomatic, must not corrupt b
        assert_eq!(current_stack(), vec!["test.span.b"]);
        drop(b);
        crate::set_enabled(false);
        assert_eq!(current_depth(), 0);
    }

    #[test]
    fn stacks_are_visible_across_threads() {
        let _g = exclusive();
        crate::set_enabled(true);
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            let _outer = Span::enter("test.span.shared_outer");
            let _inner = Span::enter("test.span.shared_inner");
            ready_tx.send(()).unwrap();
            let _ = done_rx.recv(); // hold the spans open until observed
        });
        ready_rx.recv().unwrap();
        let stacks: Vec<Vec<&'static str>> = live_stacks().iter().map(|s| s.snapshot()).collect();
        assert!(
            stacks
                .iter()
                .any(|s| s == &vec!["test.span.shared_outer", "test.span.shared_inner"]),
            "worker stack visible from another thread: {stacks:?}"
        );
        done_tx.send(()).unwrap();
        worker.join().unwrap();
        crate::set_enabled(false);
    }
}
