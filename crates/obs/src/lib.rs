//! # midas-obs
//!
//! Zero-dependency structured telemetry for the MIDAS maintenance pipeline.
//!
//! The paper's headline claims are throughput claims — PMT/PGT per batch
//! (§7), matcher work saved by pruning (§5.1), swap-scan convergence (§6.2) —
//! and verifying them needs finer instruments than one stopwatch per batch.
//! This crate provides the three layers every other crate in the workspace
//! shares:
//!
//! * [`registry`] — a global metrics registry of atomic
//!   [`Counter`]s, [`Gauge`]s and log₂-bucketed [`Histogram`]s, addressed
//!   by name through the [`counter!`]/[`counter_add!`]/[`gauge_set!`]/
//!   [`histogram_record!`] macros (each probe site caches its handle in a
//!   `OnceLock`, so an enabled counter or gauge probe is one atomic op and
//!   a histogram sample four);
//! * [`mod@span`] — RAII [`Span`] timers: each completed span records its
//!   duration (µs) into the registry histogram of its name and, when
//!   tracing is on, a Chrome-trace event;
//! * exporters — a [`MetricsSnapshot`] of the registry renders as
//!   Prometheus text ([`prom`], the `/metrics` body), and [`trace`] writes
//!   a `trace.json` loadable in `chrome://tracing` / Perfetto.
//!
//! Plus a leveled [`obs_error!`]/[`obs_warn!`]/[`obs_info!`]/[`obs_debug!`]
//! logger (level from `MIDAS_LOG`), replacing ad-hoc `eprintln!`
//! diagnostics. [`config`] is the one reader of `MIDAS_*` environment
//! variables and holds the table of them.
//!
//! # Cost when disabled
//!
//! Telemetry is **off by default**. Every probe macro begins with a single
//! relaxed atomic load of the global enable flag and does nothing else when
//! it reads `false`; the kernel benches guard this (`BENCH_kernel.json`
//! records the per-probe cost). [`Span::enter`] likewise returns an inert
//! guard. Enabling is process-global, via [`set_enabled`] or
//! [`TelemetryConfig::activate`], and belongs to the host binary: the
//! maintenance library records into the switches but never sets them.
//!
//! # Quick tour
//!
//! ```
//! midas_obs::set_enabled(true);
//! {
//!     let _span = midas_obs::span!("demo.phase");
//!     midas_obs::counter_add!("demo.items", 3);
//!     midas_obs::gauge_set!("demo.drift", 0.125);
//! }
//! let snap = midas_obs::MetricsSnapshot::capture();
//! assert_eq!(snap.counter("demo.items"), 3);
//! assert_eq!(snap.span("demo.phase").count, 1);
//! assert!(midas_obs::prom::render(&snap).contains("midas_demo_items 3"));
//! midas_obs::set_enabled(false);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod exemplar;
pub mod flight;
pub mod http;
pub mod httpd;
pub mod json;
pub mod log;
pub mod prom;
pub mod registry;
pub mod sli;
pub mod snapshot;
pub mod span;
pub mod trace;

pub use config::{Env, Fault, TelemetryConfig};
pub use flight::{BatchSummary, FlightEvent};
pub use httpd::{Handler, HttpServer, Request, Response};
pub use log::LogLevel;
pub use registry::{Counter, Gauge, Histogram};
pub use sli::QuerySample;
pub use snapshot::{HistogramSnapshot, MetricsSnapshot};
pub use span::{Span, SplitSpan};

use std::sync::atomic::{AtomicBool, Ordering};

/// Global metrics switch. All probe macros check this first.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Global trace-event switch (implies nothing about [`enabled`]; span
/// *statistics* follow [`enabled`], span *events* follow this).
static TRACING: AtomicBool = AtomicBool::new(false);

/// Whether metric collection is on — one relaxed load, the entire cost of
/// a disabled probe.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns metric collection on or off, process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether Chrome-trace event collection is on.
#[inline(always)]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Turns Chrome-trace event collection on or off, process-wide.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Registers a counter once per call site and returns its `&'static` handle.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::registry::Counter> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry::registry().counter($name))
    }};
}

/// Adds to a named counter when telemetry is enabled.
#[macro_export]
macro_rules! counter_add {
    ($name:expr, $n:expr) => {
        if $crate::enabled() {
            $crate::counter!($name).add($n as u64);
        }
    };
}

/// Sets a named gauge when telemetry is enabled.
#[macro_export]
macro_rules! gauge_set {
    ($name:expr, $v:expr) => {
        if $crate::enabled() {
            static HANDLE: ::std::sync::OnceLock<&'static $crate::registry::Gauge> =
                ::std::sync::OnceLock::new();
            HANDLE
                .get_or_init(|| $crate::registry::registry().gauge($name))
                .set($v as f64);
        }
    };
}

/// Records a value into a named histogram when telemetry is enabled.
#[macro_export]
macro_rules! histogram_record {
    ($name:expr, $v:expr) => {
        if $crate::enabled() {
            static HANDLE: ::std::sync::OnceLock<&'static $crate::registry::Histogram> =
                ::std::sync::OnceLock::new();
            HANDLE
                .get_or_init(|| $crate::registry::registry().histogram($name))
                .record($v as u64);
        }
    };
}

/// Opens an RAII span: `let _s = midas_obs::span!("batch.fct");`.
///
/// The returned [`Span`] records its duration (and a trace event when
/// tracing is on) when dropped. Bind it to a named variable — `let _ =`
/// drops immediately.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::Span::enter($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Global telemetry state is process-wide; tests that toggle it hold
    /// this lock so they do not interleave.
    static GUARD: Mutex<()> = Mutex::new(());

    pub(crate) fn exclusive() -> MutexGuard<'static, ()> {
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_probes_record_nothing() {
        let _g = exclusive();
        set_enabled(false);
        counter_add!("test.lib.disabled", 5);
        let snap = MetricsSnapshot::capture();
        assert_eq!(snap.counter("test.lib.disabled"), 0);
    }

    #[test]
    fn enabled_probes_record() {
        let _g = exclusive();
        set_enabled(true);
        counter_add!("test.lib.enabled", 2);
        counter_add!("test.lib.enabled", 3);
        gauge_set!("test.lib.gauge", 1.5);
        histogram_record!("test.lib.hist", 17);
        let snap = MetricsSnapshot::capture();
        set_enabled(false);
        assert_eq!(snap.counter("test.lib.enabled"), 5);
        assert_eq!(snap.gauges.get("test.lib.gauge"), Some(&1.5));
        let h = snap.histograms.get("test.lib.hist").expect("histogram");
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 17);
    }

    #[test]
    fn disabled_probe_is_cheap() {
        let _g = exclusive();
        set_enabled(false);
        // Not a benchmark — just a guard that the disabled path stays a
        // flag check, far from any lock or map lookup. Very generous bound
        // so slow CI machines never flake.
        let n = 1_000_000u64;
        let start = std::time::Instant::now();
        for i in 0..n {
            counter_add!("test.lib.cheap", i & 1);
        }
        let per_probe = start.elapsed().as_nanos() / n as u128;
        assert!(per_probe < 1_000, "disabled probe took {per_probe}ns");
    }
}
