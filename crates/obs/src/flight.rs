//! The flight recorder: a bounded in-memory ring of recent batch
//! summaries and span/log events, dumpable on demand (`GET /flight`) or on
//! panic.
//!
//! A long-running maintenance daemon fails *eventually* — one pathological
//! batch out of thousands. By the time anyone looks, the interesting
//! state is gone unless something cheap retained it. The recorder keeps
//! the last [`CAPACITY`] [`BatchSummary`]s (one per `apply_batch`) and the
//! last [`EVENT_CAPACITY`] [`FlightEvent`]s (log lines, plus span
//! completions when [`set_span_capture`] is on), so a post-hoc dump shows
//! what the process was doing right before it misbehaved.
//!
//! Writes are lock-light: one short `Mutex` push per batch or event, no
//! allocation beyond the ring itself, and the rings are hard-bounded so a
//! runaway loop cannot exhaust memory. [`install_panic_hook`] chains onto
//! the existing hook and writes [`dump_json`] to a file before the
//! process dies.

use crate::json;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Number of batch summaries retained.
pub const CAPACITY: usize = 64;

/// Fixed bound on retained span/log events.
pub const EVENT_CAPACITY: usize = 256;

/// One `apply_batch` outcome, compressed to what a post-mortem needs.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSummary {
    /// Batch sequence number (1-based, process lifetime, across every
    /// `Midas` instance), assigned by [`record_batch`].
    pub seq: u64,
    /// `"major"` or `"minor"`.
    pub kind: &'static str,
    /// Graphlet-distribution drift for the batch.
    pub distance: f64,
    /// Pattern maintenance time, microseconds.
    pub pmt_us: u64,
    /// Pattern generation time (candidates + swap), microseconds.
    pub pgt_us: u64,
    /// Graphs inserted / deleted by the batch.
    pub inserted: usize,
    /// Graphs deleted by the batch.
    pub deleted: usize,
    /// Promising candidates generated.
    pub candidates: usize,
    /// Swaps performed.
    pub swaps: usize,
    /// Wall-clock completion time, milliseconds since the Unix epoch.
    pub unix_ms: u64,
}

impl BatchSummary {
    fn to_json(&self) -> String {
        format!(
            "{{\"seq\": {}, \"kind\": {}, \"distance\": {}, \"pmt_us\": {}, \"pgt_us\": {}, \"inserted\": {}, \"deleted\": {}, \"candidates\": {}, \"swaps\": {}, \"unix_ms\": {}}}",
            self.seq,
            json::quote(self.kind),
            json::number(self.distance),
            self.pmt_us,
            self.pgt_us,
            self.inserted,
            self.deleted,
            self.candidates,
            self.swaps,
            self.unix_ms
        )
    }
}

/// One recent span completion or log line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Event source: a log level name (`"WARN"`) or `"SPAN"`.
    pub kind: &'static str,
    /// The message (log line body, or `"<name> <dur>µs"` for spans).
    pub message: String,
}

impl FlightEvent {
    fn to_json(&self) -> String {
        format!(
            "{{\"unix_ms\": {}, \"kind\": {}, \"message\": {}}}",
            self.unix_ms,
            json::quote(self.kind),
            json::quote(&self.message)
        )
    }
}

/// Milliseconds since the Unix epoch, saturating at 0 on a pre-epoch
/// clock.
pub fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

struct Recorder {
    batches: Mutex<VecDeque<BatchSummary>>,
    events: Mutex<VecDeque<FlightEvent>>,
    /// Total batches ever recorded (survives ring eviction).
    total_batches: AtomicU64,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        batches: Mutex::new(VecDeque::new()),
        events: Mutex::new(VecDeque::new()),
        total_batches: AtomicU64::new(0),
    })
}

/// Whether completed spans are appended to the event ring. Off by default:
/// span completions are much more frequent than batches, and the daemon
/// opts in when it actually serves `/flight`.
static SPAN_CAPTURE: AtomicBool = AtomicBool::new(false);

/// Turns span capture into the event ring on or off.
pub fn set_span_capture(on: bool) {
    SPAN_CAPTURE.store(on, Ordering::Relaxed);
}

/// Whether span completions are being captured.
#[inline]
pub fn span_capture_enabled() -> bool {
    SPAN_CAPTURE.load(Ordering::Relaxed)
}

/// Appends one batch summary, evicting the oldest beyond capacity. The
/// caller's `seq` is overwritten with the next process-lifetime number,
/// taken under the ring lock, so the ring stays in `seq` order even when
/// several tenants' batches finish concurrently.
pub fn record_batch(mut summary: BatchSummary) {
    let r = recorder();
    let mut batches = r.batches.lock().unwrap_or_else(|e| e.into_inner());
    summary.seq = r.total_batches.fetch_add(1, Ordering::Relaxed) + 1;
    if batches.len() == CAPACITY {
        batches.pop_front();
    }
    batches.push_back(summary);
}

/// Appends one event (log line or span completion), evicting beyond
/// [`EVENT_CAPACITY`].
pub fn record_event(kind: &'static str, message: String) {
    let event = FlightEvent {
        unix_ms: unix_ms(),
        kind,
        message,
    };
    let mut events = recorder().events.lock().unwrap_or_else(|e| e.into_inner());
    while events.len() >= EVENT_CAPACITY {
        events.pop_front();
    }
    events.push_back(event);
}

/// Total batches recorded over the process lifetime (not just retained).
pub fn total_batches() -> u64 {
    recorder().total_batches.load(Ordering::Relaxed)
}

/// The retained batch summaries, oldest first.
pub fn batches() -> Vec<BatchSummary> {
    recorder()
        .batches
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .cloned()
        .collect()
}

/// The most recent batch summary, if any batch has run.
pub fn last_batch() -> Option<BatchSummary> {
    recorder()
        .batches
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .back()
        .cloned()
}

/// The retained events, oldest first.
pub fn events() -> Vec<FlightEvent> {
    recorder()
        .events
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .cloned()
        .collect()
}

/// Empties both rings and the lifetime batch count (tests).
pub fn clear() {
    let r = recorder();
    r.batches.lock().unwrap_or_else(|e| e.into_inner()).clear();
    r.events.lock().unwrap_or_else(|e| e.into_inner()).clear();
    r.total_batches.store(0, Ordering::Relaxed);
}

/// Renders the recorder as one JSON document:
///
/// ```json
/// {"total_batches": 12, "capacity": 64, "batches": [...], "events": [...]}
/// ```
pub fn dump_json() -> String {
    let batches = batches();
    let events = events();
    let mut out = format!(
        "{{\n  \"total_batches\": {},\n  \"capacity\": {},\n  \"batches\": [\n",
        total_batches(),
        CAPACITY
    );
    for (i, b) in batches.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&b.to_json());
        out.push_str(if i + 1 < batches.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"events\": [\n");
    for (i, e) in events.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&e.to_json());
        out.push_str(if i + 1 < events.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Installs (once) a panic hook that writes [`dump_json`] to `path` and
/// then defers to the previously installed hook. A second call is a
/// no-op; a panic inside the dump itself cannot recurse (the guard flag
/// stays set).
pub fn install_panic_hook(path: std::path::PathBuf) {
    static INSTALLED: AtomicBool = AtomicBool::new(false);
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        static DUMPING: AtomicBool = AtomicBool::new(false);
        if !DUMPING.swap(true, Ordering::SeqCst) {
            record_event("PANIC", info.to_string());
            if std::fs::write(&path, dump_json()).is_ok() {
                eprintln!("[midas flight] wrote flight dump to {}", path.display());
            }
            DUMPING.store(false, Ordering::SeqCst);
        }
        previous(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(seq: u64) -> BatchSummary {
        BatchSummary {
            seq,
            kind: if seq.is_multiple_of(2) {
                "minor"
            } else {
                "major"
            },
            distance: 0.01 * seq as f64,
            pmt_us: 100 * seq,
            pgt_us: 10 * seq,
            inserted: 5,
            deleted: 1,
            candidates: 3,
            swaps: 1,
            unix_ms: unix_ms(),
        }
    }

    /// The recorder is process-global; tests serialize on the crate lock.
    #[test]
    fn ring_wraps_at_capacity() {
        let _g = crate::tests::exclusive();
        clear();
        let total = CAPACITY as u64 + 12;
        for seq in 1..=total {
            record_batch(summary(seq));
        }
        let seqs: Vec<u64> = batches().iter().map(|b| b.seq).collect();
        assert_eq!(seqs, (13..=total).collect::<Vec<u64>>(), "the newest 64");
        assert_eq!(total_batches(), total);
        assert_eq!(last_batch().unwrap().seq, total);
        clear();
    }

    #[test]
    fn concurrent_writers_never_exceed_bounds() {
        let _g = crate::tests::exclusive();
        clear();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                scope.spawn(move || {
                    for i in 0..200 {
                        record_batch(summary(t * 1000 + i));
                        record_event("INFO", format!("thread {t} event {i}"));
                    }
                });
            }
        });
        assert_eq!(total_batches(), 1600);
        // The recorder numbers summaries itself, so the survivors are the
        // newest 64 in strictly increasing order whatever the interleaving.
        assert_eq!(
            batches().iter().map(|b| b.seq).collect::<Vec<_>>(),
            (1537..=1600).collect::<Vec<u64>>()
        );
        assert!(events().len() <= EVENT_CAPACITY);
        // The dump stays valid JSON under whatever interleaving happened.
        json::validate(&dump_json()).expect("dump validates");
        clear();
    }

    #[test]
    fn dump_is_valid_json_with_escaping() {
        let _g = crate::tests::exclusive();
        clear();
        record_batch(summary(1));
        record_event("WARN", "quote \" backslash \\ newline \n done".into());
        let doc = dump_json();
        json::validate(&doc).expect("dump validates");
        assert!(doc.contains("\"total_batches\": 1"));
        assert!(doc.contains("\"seq\": 1"));
        assert!(doc.contains("backslash"));
        clear();
    }

    #[test]
    fn empty_dump_is_valid() {
        let _g = crate::tests::exclusive();
        clear();
        json::validate(&dump_json()).expect("empty dump validates");
    }

    #[test]
    fn panic_hook_writes_a_valid_dump() {
        let _g = crate::tests::exclusive();
        clear();
        let path = std::env::temp_dir().join(format!("midas-flight-{}.json", std::process::id()));
        install_panic_hook(path.clone());
        record_batch(summary(7));
        // Panic inside a thread so the test itself survives; silence the
        // default hook's backtrace noise by keeping the chain (our hook
        // defers to it, which prints one line).
        let result = std::thread::spawn(|| panic!("synthetic batch failure")).join();
        assert!(result.is_err());
        let doc = std::fs::read_to_string(&path).expect("panic dump written");
        let _ = std::fs::remove_file(&path);
        json::validate(&doc).expect("panic dump validates");
        assert!(doc.contains("\"seq\": 1, \"kind\": \"major\", \"distance\": 0.07"));
        assert!(doc.contains("synthetic batch failure"));
        clear();
    }
}
