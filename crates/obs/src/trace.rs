//! Chrome-trace-format event collection and export.
//!
//! Completed spans append *complete events* (`"ph": "X"`) to one global
//! buffer; [`write_trace`] drains it into a single JSON file loadable in
//! `chrome://tracing` or <https://ui.perfetto.dev>. Timestamps are
//! microseconds since the first event of the process (the format wants a
//! monotonic epoch, not wall time), `tid` is the dense per-thread index of
//! [`crate::registry`], and `pid` is constant.
//!
//! The buffer is capped at [`MAX_EVENTS`]; beyond it events are counted
//! but dropped, and the drop count is reported by [`write_trace`] /
//! [`dropped_events`] so truncation is never silent.

use crate::json;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Hard cap on buffered events (~24 MB worst case). A batch emits a few
/// hundred; this bounds pathological loops.
pub const MAX_EVENTS: usize = 1 << 20;

/// One Chrome-trace complete event: a finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name.
    pub name: &'static str,
    /// Microseconds since process trace epoch.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Dense thread index.
    pub tid: usize,
}

static EVENTS: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
static DROPPED: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn push(event: TraceEvent) {
    let mut events = EVENTS.lock().expect("trace buffer lock");
    if events.len() >= MAX_EVENTS {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    events.push(event);
}

/// Appends a complete event for a span that started at `start` and ran for
/// `dur`. Called from [`crate::span::Span::drop`] when tracing is on.
pub fn push_complete_event(name: &'static str, start: Instant, dur: Duration) {
    let ts_us = start
        .checked_duration_since(epoch())
        .unwrap_or(Duration::ZERO)
        .as_micros()
        .min(u64::MAX as u128) as u64;
    push(TraceEvent {
        name,
        ts_us,
        dur_us: dur.as_micros().min(u64::MAX as u128) as u64,
        tid: crate::registry::thread_index(),
    });
}

/// Number of events dropped at the cap since the last drain.
pub fn dropped_events() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Removes and returns every buffered event (oldest first).
pub fn take_events() -> Vec<TraceEvent> {
    DROPPED.store(0, Ordering::Relaxed);
    std::mem::take(&mut *EVENTS.lock().expect("trace buffer lock"))
}

/// Renders events as a Chrome trace JSON document.
pub fn render_trace(events: &[TraceEvent], dropped: u64) -> String {
    let mut out = String::from("{\n  \"traceEvents\": [\n");
    for (i, e) in events.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"cat\": \"midas\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {}}}",
            json::quote(e.name),
            e.ts_us,
            e.dur_us,
            e.tid,
        ));
        out.push_str(if i + 1 < events.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"droppedEvents\": {dropped},\n"));
    out.push_str("  \"displayTimeUnit\": \"ms\"\n}\n");
    out
}

static OUTPUT: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Overrides [`output_path`] (`Some`) or restores its default (`None`).
pub fn set_output_path(path: Option<PathBuf>) {
    *OUTPUT.lock().unwrap_or_else(|e| e.into_inner()) = path;
}

/// Where the per-batch `trace.json` goes: the [`set_output_path`]
/// override, else `MIDAS_TRACE_OUT`, else `./trace.json`.
pub fn output_path() -> PathBuf {
    let set = OUTPUT.lock().unwrap_or_else(|e| e.into_inner()).clone();
    set.or_else(|| crate::config::env().trace_out.clone())
        .unwrap_or_else(|| PathBuf::from("trace.json"))
}

/// Drains the buffer into `path` as Chrome trace JSON. Returns the number
/// of events written.
pub fn write_trace(path: impl AsRef<Path>) -> std::io::Result<usize> {
    let dropped = dropped_events();
    let events = take_events();
    let doc = render_trace(&events, dropped);
    let mut file = std::fs::File::create(path)?;
    file.write_all(doc.as_bytes())?;
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_render_as_valid_chrome_trace() {
        let events = vec![
            TraceEvent {
                name: "phase \"a\"",
                ts_us: 0,
                dur_us: 120,
                tid: 0,
            },
            TraceEvent {
                name: "phase.b",
                ts_us: 10,
                dur_us: 50,
                tid: 1,
            },
        ];
        let doc = render_trace(&events, 3);
        json::validate(&doc).expect("valid JSON");
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("\"ph\": \"X\""));
        assert!(doc.contains("\"droppedEvents\": 3"));
        assert!(doc.contains("phase \\\"a\\\""));
    }

    #[test]
    fn push_complete_event_lands_on_the_calling_tid() {
        let _g = crate::tests::exclusive();
        // Drain whatever other tests left behind, then check round trip.
        take_events();
        let start = Instant::now();
        push_complete_event("test.trace.frame", start, Duration::from_micros(7));
        let events = take_events();
        let event = events
            .iter()
            .find(|e| e.name == "test.trace.frame")
            .expect("event buffered");
        assert_eq!(event.tid, crate::registry::thread_index());
        assert_eq!(event.dur_us, 7);
    }

    #[test]
    fn empty_trace_is_valid() {
        let doc = render_trace(&[], 0);
        json::validate(&doc).expect("valid JSON");
        assert!(doc.contains("\"traceEvents\": [\n  ]"));
    }
}
