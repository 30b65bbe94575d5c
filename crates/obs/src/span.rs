//! RAII span timers.
//!
//! A [`Span`] measures one named region of work: it is a name, a start
//! time and the registry's duration histogram of that name, resolved at
//! entry so a name's first-use registration is charged to its own span.
//! On drop it records the duration in microseconds, feeds `batch.*`
//! phases to the `/slow` exemplar store, and — when tracing is on —
//! appends a Chrome-trace complete event. Nesting therefore comes for
//! free: a `batch.swap.scan` span opened while `batch.swap` is live
//! renders inside it both in the snapshot (two named statistics) and in
//! the trace (time containment on the same `tid`). Entering and dropping
//! a span takes no lock of its own; the disabled path is one relaxed
//! atomic load.

use crate::registry::{registry, Histogram};
use crate::trace;
use std::time::Instant;

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
    durations_us: &'static Histogram,
}

impl Span {
    /// Opens a span named `name`. When metrics are disabled this is one
    /// relaxed atomic load and the guard does nothing on drop.
    #[inline]
    pub fn enter(name: &'static str) -> Span {
        if !crate::enabled() {
            return Span { active: None };
        }
        let start = Instant::now();
        Span {
            active: Some(ActiveSpan {
                name,
                start,
                durations_us: registry().span(name),
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
        let us = dur.as_micros().min(u64::MAX as u128) as u64;
        active.durations_us.record(us);
        // Phase spans feed the tail-latency exemplar store, so `/slow` can
        // attribute slow batches, not just slow plan searches.
        if active.name.starts_with("batch.") {
            crate::exemplar::offer_named(active.name, "us", us);
        }
        if crate::tracing_enabled() {
            trace::push_complete_event(active.name, active.start, dur);
        }
        if crate::flight::span_capture_enabled() {
            crate::flight::record_event("SPAN", format!("{} {us}µs", active.name));
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
        {
            let outer = Span::enter("test.span.outer");
            assert_eq!(outer.name(), Some("test.span.outer"));
            {
                let _inner = Span::enter("test.span.inner");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        crate::set_enabled(false);
        let (inner_count, inner_us, _) = registry().span("test.span.inner").totals();
        let (outer_count, outer_us, _) = registry().span("test.span.outer").totals();
        assert_eq!((outer_count, inner_count), (1, 1));
        assert!(inner_us >= 2_000, "{inner_us} µs");
        assert!(
            outer_us >= inner_us,
            "the outer span contains the inner one: {outer_us} µs < {inner_us} µs"
        );
    }

    #[test]
    fn disabled_span_is_inert() {
        let _g = exclusive();
        crate::set_enabled(false);
        let s = Span::enter("test.span.disabled");
        assert_eq!(s.name(), None);
        drop(s);
        let (count, _, _) = registry().span("test.span.disabled").totals();
        assert_eq!(count, 0);
    }

    #[test]
    fn out_of_order_drops_record_both_spans() {
        let _g = exclusive();
        crate::set_enabled(true);
        let a = Span::enter("test.span.a");
        let b = Span::enter("test.span.b");
        drop(a); // dropped before b — not idiomatic, must not lose b
        drop(b);
        crate::set_enabled(false);
        assert_eq!(registry().span("test.span.a").totals().0, 1);
        assert_eq!(registry().span("test.span.b").totals().0, 1);
    }

    #[test]
    fn spans_on_many_threads_feed_one_statistic() {
        let _g = exclusive();
        crate::set_enabled(true);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..25 {
                        let _s = Span::enter("test.span.shared");
                    }
                });
            }
        });
        crate::set_enabled(false);
        assert_eq!(registry().span("test.span.shared").totals().0, 100);
    }
}
