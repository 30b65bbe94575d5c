//! Tail-latency exemplars: *who* was slow, not just how slow.
//!
//! The latency histograms answer "what is p99 of `plan.search_ns`?" but
//! not "which pattern against which graph produced that p99". This module
//! keeps, per monitored series, a small top-K reservoir of the largest
//! observations seen, each tagged with the pattern fingerprint and graph
//! id that were live when it was recorded (a thread-local context set by
//! the embedding cache and by FCT mining) plus a process-global sequence number for
//! cross-referencing with traces. `GET /slow` serves the reservoirs as
//! JSON; `prom.rs` appends them as OpenMetrics-style `# exemplar` comment
//! hints after the owning family.
//!
//! # Determinism and the rotating threshold
//!
//! The reservoir is a pure top-K: an observation enters iff it exceeds the
//! current minimum of a full reservoir (the "rotating threshold" — it only
//! ever rises as slower observations arrive), and ties are broken by
//! sequence number (earlier wins). Given the same observation stream the
//! reservoir content is therefore a deterministic function of the stream,
//! which the test suite pins.
//!
//! # Cost
//!
//! The hot path (`plan.search_ns`, millions of offers per batch) is guarded
//! by one relaxed load of the per-series threshold: observations at or
//! below it return before touching the reservoir lock. Only candidate
//! tail observations — by construction at most K per threshold rotation —
//! pay the lock.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};

/// Reservoir capacity per series: enough to attribute a tail, small
/// enough that `/slow` stays a glance.
pub const RESERVOIR_K: usize = 16;

/// Sentinel for "no context was set" (no real graph id or fingerprint is
/// ever `u64::MAX`: fingerprints are 64-bit hashes but the sentinel
/// collision chance is negligible and harmless — worst case one exemplar
/// renders as unattributed).
const NO_CTX: u64 = u64::MAX;

/// One captured exemplar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// The observed value (unit is per-series, see [`Series::unit`]).
    pub value: u64,
    /// Pattern fingerprint live at capture ([`NO_CTX`] when none).
    pattern: u64,
    /// Graph id live at capture ([`NO_CTX`] when none).
    graph: u64,
    /// Process-global capture sequence number.
    pub seq: u64,
}

impl Exemplar {
    /// The pattern fingerprint, if a context was set at capture.
    pub fn pattern(&self) -> Option<u64> {
        (self.pattern != NO_CTX).then_some(self.pattern)
    }

    /// The graph id, if a context was set at capture.
    pub fn graph(&self) -> Option<u64> {
        (self.graph != NO_CTX).then_some(self.graph)
    }
}

thread_local! {
    /// (pattern fingerprint, graph id) the calling thread is working on.
    static CTX: Cell<(u64, u64)> = const { Cell::new((NO_CTX, NO_CTX)) };
}

/// Restores the previous exemplar context on drop, so nested scopes (a
/// cached pattern scan inside another scan) unwind correctly.
#[derive(Debug)]
pub struct ContextGuard {
    prev: (u64, u64),
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CTX.with(|c| c.set(self.prev));
    }
}

/// Tags the calling thread with the `(pattern, graph)` it is about to
/// work on; any exemplar captured before the guard drops carries the tag.
/// Call sites should gate on [`crate::enabled`] — the guard itself is
/// cheap (two `Cell` stores) but pointless when telemetry is off.
pub fn with_context(pattern: u64, graph: u64) -> ContextGuard {
    let prev = CTX.with(|c| c.replace((pattern, graph)));
    ContextGuard { prev }
}

fn next_seq() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    SEQ.fetch_add(1, Ordering::Relaxed)
}

/// One monitored series' reservoir. Obtain via [`series`]; handles are
/// `&'static` like the metric handles of [`crate::registry`].
#[derive(Debug)]
pub struct Series {
    unit: &'static str,
    /// The rotating admission threshold: the minimum value in a *full*
    /// reservoir, 0 while filling. Relaxed — a stale read only costs one
    /// redundant lock acquisition or one missed borderline exemplar.
    threshold: AtomicU64,
    offered: AtomicU64,
    top: Mutex<Vec<Exemplar>>,
}

impl Series {
    fn new(unit: &'static str) -> Self {
        Series {
            unit,
            threshold: AtomicU64::new(0),
            offered: AtomicU64::new(0),
            top: Mutex::new(Vec::new()),
        }
    }

    /// The unit of this series' values (`"ns"` or `"us"`).
    pub fn unit(&self) -> &'static str {
        self.unit
    }

    /// Observations offered so far (admitted or not).
    pub fn offered(&self) -> u64 {
        self.offered.load(Ordering::Relaxed)
    }

    /// Offers one observation, tagging it with the calling thread's
    /// context. Cheap rejection below the rotating threshold.
    pub fn offer(&self, value: u64) {
        self.offered.fetch_add(1, Ordering::Relaxed);
        if value <= self.threshold.load(Ordering::Relaxed) {
            return;
        }
        let (pattern, graph) = CTX.with(|c| c.get());
        let exemplar = Exemplar {
            value,
            pattern,
            graph,
            seq: next_seq(),
        };
        let mut top = self.top.lock().unwrap_or_else(|e| e.into_inner());
        // Keep sorted: largest value first, ties by earlier sequence.
        let pos = top
            .binary_search_by(|e| {
                e.value
                    .cmp(&exemplar.value)
                    .reverse()
                    .then(e.seq.cmp(&exemplar.seq))
            })
            .unwrap_or_else(|p| p);
        if pos >= RESERVOIR_K {
            return; // raced a threshold rotation; still not tail-worthy
        }
        top.insert(pos, exemplar);
        top.truncate(RESERVOIR_K);
        if top.len() == RESERVOIR_K {
            self.threshold
                .store(top.last().expect("full").value, Ordering::Relaxed);
        }
    }

    /// The current reservoir, largest first.
    pub fn top(&self) -> Vec<Exemplar> {
        self.top.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Clears the reservoir, threshold and offer count (the series stays
    /// registered).
    pub fn reset(&self) {
        self.top.lock().unwrap_or_else(|e| e.into_inner()).clear();
        self.threshold.store(0, Ordering::Relaxed);
        self.offered.store(0, Ordering::Relaxed);
    }
}

type SeriesMap = RwLock<BTreeMap<&'static str, &'static Series>>;

fn series_map() -> &'static SeriesMap {
    static MAP: OnceLock<SeriesMap> = OnceLock::new();
    MAP.get_or_init(|| RwLock::new(BTreeMap::new()))
}

/// The series named `name`, registering it (with `unit`) on first use.
/// Like the registry's metric handles, the handle is `&'static` and safe
/// to cache at the call site.
pub fn series(name: &'static str, unit: &'static str) -> &'static Series {
    if let Some(&s) = series_map()
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .get(name)
    {
        return s;
    }
    let mut map = series_map().write().unwrap_or_else(|e| e.into_inner());
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(Series::new(unit))))
}

/// Offers `value` to the series named `name` when telemetry is enabled.
/// Looks the series up each call — fine for low-frequency sites (span
/// completions); hot paths should cache [`series`] in a `OnceLock`.
pub fn offer_named(name: &'static str, unit: &'static str, value: u64) {
    if !crate::enabled() {
        return;
    }
    series(name, unit).offer(value);
}

/// Visits every registered series (sorted by name).
pub fn for_each_series(mut f: impl FnMut(&'static str, &'static Series)) {
    for (name, s) in series_map()
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
    {
        f(name, s);
    }
}

/// Clears every reservoir (series stay registered). For tests and
/// operators wanting a fresh attribution window.
pub fn reset() {
    for_each_series(|_, s| s.reset());
}

/// The `/slow` document: every series' reservoir as JSON, largest first.
pub fn render_json() -> String {
    let mut out = String::from("{\n  \"reservoir_k\": ");
    out.push_str(&RESERVOIR_K.to_string());
    out.push_str(",\n  \"series\": {\n");
    let mut entries: Vec<String> = Vec::new();
    for_each_series(|name, s| {
        let mut e = format!(
            "    {}: {{\"unit\": {}, \"offered\": {}, \"top\": [",
            crate::json::quote(name),
            crate::json::quote(s.unit()),
            s.offered()
        );
        let top = s.top();
        for (i, ex) in top.iter().enumerate() {
            let pattern = match ex.pattern() {
                Some(p) => p.to_string(),
                None => "null".to_owned(),
            };
            let graph = match ex.graph() {
                Some(g) => g.to_string(),
                None => "null".to_owned(),
            };
            e.push_str(&format!(
                "{}{{\"value\": {}, \"pattern\": {}, \"graph\": {}, \"seq\": {}}}",
                if i == 0 { "" } else { ", " },
                ex.value,
                pattern,
                graph,
                ex.seq
            ));
        }
        e.push_str("]}");
        entries.push(e);
    });
    out.push_str(&entries.join(",\n"));
    out.push_str("\n  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::exclusive;

    #[test]
    fn reservoir_keeps_the_top_k_deterministically() {
        let _g = exclusive();
        let s = series("test.exemplar.topk", "ns");
        s.reset();
        // Offer 1..=40 twice, interleaved; the reservoir must hold the K
        // largest values, and for the duplicated values the earlier seq.
        for v in 1..=40u64 {
            s.offer(v);
            s.offer(v);
        }
        let top = s.top();
        assert_eq!(top.len(), RESERVOIR_K);
        let values: Vec<u64> = top.iter().map(|e| e.value).collect();
        let expected: Vec<u64> = (0..RESERVOIR_K as u64).map(|i| 40 - i / 2).collect();
        assert_eq!(values, expected, "top-K by value, duplicates kept");
        for pair in top.windows(2) {
            assert!(
                pair[0].value > pair[1].value
                    || (pair[0].value == pair[1].value && pair[0].seq < pair[1].seq),
                "ordering is (value desc, seq asc): {pair:?}"
            );
        }
        // The threshold rotated up to the current minimum.
        assert_eq!(s.threshold.load(Ordering::Relaxed), values[RESERVOIR_K - 1]);
        s.reset();
    }

    #[test]
    fn context_tags_and_unwinds() {
        let _g = exclusive();
        let s = series("test.exemplar.ctx", "ns");
        s.reset();
        {
            let _outer = with_context(7, 11);
            s.offer(100);
            {
                let _inner = with_context(8, 12);
                s.offer(200);
            }
            s.offer(150); // outer context restored
        }
        s.offer(300); // no context
        let top = s.top();
        let find = |v: u64| top.iter().find(|e| e.value == v).expect("present");
        assert_eq!(
            (find(100).pattern(), find(100).graph()),
            (Some(7), Some(11))
        );
        assert_eq!(
            (find(200).pattern(), find(200).graph()),
            (Some(8), Some(12))
        );
        assert_eq!(
            (find(150).pattern(), find(150).graph()),
            (Some(7), Some(11))
        );
        assert_eq!((find(300).pattern(), find(300).graph()), (None, None));
        s.reset();
    }

    #[test]
    fn below_threshold_offers_are_rejected_cheaply() {
        let _g = exclusive();
        let s = series("test.exemplar.threshold", "ns");
        s.reset();
        for v in 100..100 + RESERVOIR_K as u64 {
            s.offer(v);
        }
        let before = s.top();
        s.offer(5); // below the rotated threshold: must not enter
        assert_eq!(s.top(), before);
        assert_eq!(s.offered(), RESERVOIR_K as u64 + 1);
        s.reset();
    }

    #[test]
    fn render_json_is_valid_and_attributed() {
        let _g = exclusive();
        let s = series("test.exemplar.json", "us");
        s.reset();
        {
            let _c = with_context(42, 17);
            s.offer(1234);
        }
        let doc = render_json();
        crate::json::validate(&doc).expect("slow JSON validates");
        assert!(doc.contains("\"test.exemplar.json\""));
        assert!(doc.contains("\"value\": 1234"));
        assert!(doc.contains("\"pattern\": 42"));
        assert!(doc.contains("\"graph\": 17"));
        s.reset();
    }
}
