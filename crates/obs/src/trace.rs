//! Chrome-trace-format event collection and export.
//!
//! Completed spans append *complete events* (`"ph": "X"`) and the sampling
//! profiler ([`crate::profile`]) appends *sample events* (`"ph": "P"`) to
//! one global buffer; [`write_trace`] drains it into a single JSON file
//! loadable in `chrome://tracing` or <https://ui.perfetto.dev>, so the
//! span timeline and the profiler's sampled stacks render interleaved on
//! the same per-thread tracks. Timestamps are microseconds since the first
//! event of the process (the format wants a monotonic epoch, not wall
//! time), `tid` is the dense per-thread index of [`crate::registry`], and
//! `pid` is constant.
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

/// What kind of Chrome-trace event a [`TraceEvent`] renders as.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceKind {
    /// A completed span: `"ph": "X"` with a real duration.
    Complete,
    /// A profiler sample: `"ph": "P"`, zero duration, the folded stack in
    /// `args.stack`.
    Sample {
        /// Collapsed stack at the sample instant, `outer;inner`.
        stack: String,
    },
}

/// One Chrome-trace event (a span completion or a profiler sample).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (for samples: the leaf frame).
    pub name: &'static str,
    /// Microseconds since process trace epoch.
    pub ts_us: u64,
    /// Duration in microseconds (0 for samples).
    pub dur_us: u64,
    /// Dense thread index.
    pub tid: usize,
    /// Complete event or profiler sample.
    pub kind: TraceKind,
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
        kind: TraceKind::Complete,
    });
}

/// Appends a profiler sample: `leaf` is the deepest live frame and `stack`
/// the full folded stack of the sampled thread `tid` (the *sampled*
/// thread's index, not the sampler's — the sample must land on the track
/// whose spans it describes). Called from [`crate::profile::sample_once`]
/// when tracing is on.
pub fn push_sample_event(leaf: &'static str, stack: String, tid: usize) {
    let ts_us = epoch().elapsed().as_micros().min(u64::MAX as u128) as u64;
    push(TraceEvent {
        name: leaf,
        ts_us,
        dur_us: 0,
        tid,
        kind: TraceKind::Sample { stack },
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
        let line = match &e.kind {
            TraceKind::Complete => format!(
                "    {{\"name\": {}, \"cat\": \"midas\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {}}}",
                json::quote(e.name),
                e.ts_us,
                e.dur_us,
                e.tid,
            ),
            TraceKind::Sample { stack } => format!(
                "    {{\"name\": {}, \"cat\": \"midas.profile\", \"ph\": \"P\", \"ts\": {}, \"dur\": 0, \"pid\": 1, \"tid\": {}, \"args\": {{\"stack\": {}}}}}",
                json::quote(e.name),
                e.ts_us,
                e.tid,
                json::quote(stack),
            ),
        };
        out.push_str(&line);
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
                kind: TraceKind::Complete,
            },
            TraceEvent {
                name: "phase.b",
                ts_us: 10,
                dur_us: 50,
                tid: 1,
                kind: TraceKind::Complete,
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
    fn samples_interleave_with_complete_events() {
        let events = vec![
            TraceEvent {
                name: "batch.fct",
                ts_us: 0,
                dur_us: 120,
                tid: 0,
                kind: TraceKind::Complete,
            },
            TraceEvent {
                name: "batch.fct.count",
                ts_us: 40,
                dur_us: 0,
                tid: 0,
                kind: TraceKind::Sample {
                    stack: "batch.fct;batch.fct.count".to_owned(),
                },
            },
        ];
        let doc = render_trace(&events, 0);
        json::validate(&doc).expect("valid JSON");
        assert!(doc.contains("\"ph\": \"X\""));
        assert!(doc.contains("\"ph\": \"P\""));
        assert!(doc.contains("\"cat\": \"midas.profile\""));
        assert!(doc.contains("\"stack\": \"batch.fct;batch.fct.count\""));
    }

    #[test]
    fn push_sample_event_lands_on_the_sampled_tid() {
        // Drain whatever other tests left behind, then check round trip.
        take_events();
        push_sample_event("leaf.frame", "root;leaf.frame".to_owned(), 42);
        let events = take_events();
        let sample = events
            .iter()
            .find(|e| e.name == "leaf.frame")
            .expect("sample buffered");
        assert_eq!(sample.tid, 42);
        assert_eq!(sample.dur_us, 0);
        assert_eq!(
            sample.kind,
            TraceKind::Sample {
                stack: "root;leaf.frame".to_owned()
            }
        );
    }

    #[test]
    fn empty_trace_is_valid() {
        let doc = render_trace(&[], 0);
        json::validate(&doc).expect("valid JSON");
        assert!(doc.contains("\"traceEvents\": [\n  ]"));
    }
}
