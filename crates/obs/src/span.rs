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
//! the trace (time containment on the same `tid`). A [`SplitSpan`] times
//! a region that other work interrupts, one piece at a time, and records
//! the pieces' sum as one sample. Entering and dropping
//! a span takes no lock of its own; the disabled path is one relaxed
//! atomic load.

use crate::registry::{registry, Histogram};
use crate::trace;
use std::time::{Duration, Instant};

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
        if crate::tracing_enabled() {
            trace::push_complete_event(active.name, active.start, dur);
        }
        record(active.name, active.durations_us, dur);
    }
}

/// A span over a region that other work interrupts, timed piece by piece
/// with [`SplitSpan::time`]. It records **one** sample, the sum of its
/// pieces, when dropped, so its count stays one per region; each piece is
/// its own trace event. Inert when metrics were disabled at entry.
#[derive(Debug)]
#[must_use = "a split span records its pieces when dropped"]
pub struct SplitSpan {
    name: &'static str,
    active: Option<(Duration, &'static Histogram)>,
}

impl SplitSpan {
    /// Opens a split span named `name`; no piece is timed yet.
    pub fn enter(name: &'static str) -> SplitSpan {
        SplitSpan {
            name,
            active: crate::enabled().then(|| (Duration::ZERO, registry().span(name))),
        }
    }

    /// Runs `f` as one piece of the span.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let Some((total, _)) = self.active.as_mut() else {
            return f();
        };
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        *total += dur;
        if crate::tracing_enabled() {
            trace::push_complete_event(self.name, start, dur);
        }
        out
    }
}

impl Drop for SplitSpan {
    fn drop(&mut self) {
        if let Some((total, durations_us)) = self.active.take() {
            record(self.name, durations_us, total);
        }
    }
}

/// Records one completed span sample of `dur`.
fn record(name: &'static str, durations_us: &Histogram, dur: Duration) {
    let us = dur.as_micros().min(u64::MAX as u128) as u64;
    durations_us.record(us);
    // Phase spans feed the tail-latency exemplar store, so `/slow` can
    // attribute slow batches, not just slow plan searches.
    if name.starts_with("batch.") {
        crate::exemplar::offer_named(name, "us", us);
    }
    if crate::flight::span_capture_enabled() {
        crate::flight::record_event("SPAN", format!("{name} {us}µs"));
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
    fn split_span_records_one_sample_of_its_pieces() {
        let _g = exclusive();
        crate::set_enabled(true);
        {
            let mut split = SplitSpan::enter("test.span.split");
            assert_eq!(split.time(|| 7), 7);
            split.time(|| std::thread::sleep(Duration::from_millis(2)));
            std::thread::sleep(Duration::from_millis(20)); // between pieces
            split.time(|| std::thread::sleep(Duration::from_millis(2)));
        }
        crate::set_enabled(false);
        let (count, us, _) = registry().span("test.span.split").totals();
        assert_eq!(count, 1, "one sample per split span");
        assert!(
            (4_000..20_000).contains(&us),
            "the pieces' sum, not the gap between them: {us} µs"
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
