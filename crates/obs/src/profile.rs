//! Cooperative sampling profiler over the shared span stacks.
//!
//! Spans already tell us *that* a phase was slow; the profiler tells us
//! *where the time went inside it* without any per-operation probes. A
//! background sampler thread wakes `MIDAS_PROFILE_HZ` times a second,
//! walks every live thread's span stack ([`mod@crate::span`] registers them
//! in a global roster), and aggregates each observed stack as a
//! collapsed ("folded") string — `outer;inner` — with a hit count. The
//! result is directly flamegraph-ready ([`folded`], served at
//! `GET /profile`) and, when tracing is on, each sample also lands in the
//! Chrome trace as a `"ph": "P"` event on the sampled thread's track, so
//! one Perfetto file shows spans and samples together.
//!
//! This is a *cooperative* profiler: it only sees instrumented span
//! frames, never native stack frames, so it costs nothing when telemetry
//! is off and needs no signal handling or unwinding. The sampler thread
//! is spawned lazily on the first nonzero rate and parks itself (200 ms
//! naps) whenever the rate drops back to zero, so repeated
//! `TelemetryConfig::activate` calls stay idempotent.

use crate::span;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Sampling rate ceiling — beyond ~1 kHz the folded map's lock would start
/// to matter to the threads being profiled.
pub const MAX_HZ: u32 = 1_000;

static RATE_HZ: AtomicU32 = AtomicU32::new(0);
static SAMPLES: AtomicU64 = AtomicU64::new(0);

fn folded_counts() -> &'static Mutex<BTreeMap<String, u64>> {
    static COUNTS: OnceLock<Mutex<BTreeMap<String, u64>>> = OnceLock::new();
    COUNTS.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Sets the sampling rate in Hz (0 stops sampling) and makes sure the
/// sampler thread exists when the rate is nonzero. Values above
/// [`MAX_HZ`] are clamped.
pub fn set_rate(hz: u32) {
    RATE_HZ.store(hz.min(MAX_HZ), Ordering::Relaxed);
    if hz > 0 {
        ensure_sampler_thread();
    }
}

/// The current sampling rate in Hz (0 = off).
pub fn rate() -> u32 {
    RATE_HZ.load(Ordering::Relaxed)
}

/// Number of sampling passes taken so far (each pass visits every live
/// thread once).
pub fn samples() -> u64 {
    SAMPLES.load(Ordering::Relaxed)
}

fn ensure_sampler_thread() {
    static STARTED: AtomicBool = AtomicBool::new(false);
    if STARTED.swap(true, Ordering::SeqCst) {
        return;
    }
    // Detached daemon thread: it holds no resources that need joining and
    // dies with the process. Spawn failure just leaves the profiler off.
    let spawned = std::thread::Builder::new()
        .name("midas-obs-sampler".into())
        .spawn(|| loop {
            let hz = rate();
            if hz == 0 {
                std::thread::sleep(Duration::from_millis(200));
                continue;
            }
            sample_once();
            std::thread::sleep(Duration::from_micros(1_000_000 / u64::from(hz.max(1))));
        });
    if spawned.is_err() {
        STARTED.store(false, Ordering::SeqCst);
    }
}

/// Takes one sampling pass over every live thread's span stack,
/// aggregating non-empty stacks into the folded map (and the Chrome trace
/// when tracing is on). Returns the number of non-empty stacks observed.
///
/// Public so tests — and anyone embedding the crate without the
/// background thread — can drive sampling deterministically.
pub fn sample_once() -> usize {
    if !crate::enabled() {
        return 0;
    }
    SAMPLES.fetch_add(1, Ordering::Relaxed);
    let mut observed = 0;
    for stack in span::live_stacks() {
        let frames = stack.snapshot();
        let Some(&leaf) = frames.last() else {
            continue; // idle thread
        };
        observed += 1;
        let folded = frames.join(";");
        if crate::tracing_enabled() {
            crate::trace::push_sample_event(leaf, folded.clone(), stack.tid);
        }
        *folded_counts()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(folded)
            .or_insert(0) += 1;
    }
    observed
}

/// The aggregated profile as flamegraph-ready collapsed-stack text: one
/// `frame;frame count` line per distinct stack, lexicographically sorted
/// (so output is deterministic for a given multiset of samples). Feed it
/// straight to `flamegraph.pl` / `inferno-flamegraph`, or read it raw —
/// the biggest counts are where the time goes.
pub fn folded() -> String {
    let counts = folded_counts().lock().unwrap_or_else(|e| e.into_inner());
    let mut out = String::new();
    for (stack, n) in counts.iter() {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&n.to_string());
        out.push('\n');
    }
    out
}

/// Clears the aggregated profile and the sample counter (the sampling
/// rate is untouched). Used by tests and by operators who want a fresh
/// window.
pub fn reset() {
    folded_counts()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
    SAMPLES.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::exclusive;

    #[test]
    fn sample_once_folds_live_stacks() {
        let _g = exclusive();
        crate::set_enabled(true);
        reset();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            let _outer = crate::span!("test.profile.outer");
            let _inner = crate::span!("test.profile.inner");
            ready_tx.send(()).unwrap();
            let _ = done_rx.recv();
        });
        ready_rx.recv().unwrap();
        let observed = sample_once();
        assert!(observed >= 1, "worker stack must be sampled");
        let text = folded();
        assert!(
            text.contains("test.profile.outer;test.profile.inner "),
            "folded output misses the nested stack: {text:?}"
        );
        done_tx.send(()).unwrap();
        worker.join().unwrap();
        crate::set_enabled(false);
        reset();
    }

    #[test]
    fn disabled_sampling_is_inert() {
        let _g = exclusive();
        crate::set_enabled(false);
        reset();
        assert_eq!(sample_once(), 0);
        assert_eq!(folded(), "");
        assert_eq!(samples(), 0);
    }

    #[test]
    fn folded_counts_accumulate_and_sort() {
        let _g = exclusive();
        crate::set_enabled(true);
        reset();
        {
            let _a = crate::span!("test.profile.aaa");
            sample_once();
            sample_once();
        }
        {
            let _b = crate::span!("test.profile.bbb");
            sample_once();
        }
        crate::set_enabled(false);
        let text = folded();
        let ours: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("test.profile."))
            .collect();
        assert_eq!(
            ours,
            vec!["test.profile.aaa 2", "test.profile.bbb 1"],
            "{text:?}"
        );
        reset();
    }

    #[test]
    fn rate_is_clamped() {
        set_rate(1_000_000);
        assert_eq!(rate(), MAX_HZ);
        set_rate(0);
        assert_eq!(rate(), 0);
    }
}
