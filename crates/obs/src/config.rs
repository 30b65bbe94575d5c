//! Telemetry configuration embedded in `MidasConfig`.

use crate::alerts::SloConfig;
use crate::log::LogLevel;
use std::path::PathBuf;

/// Telemetry knobs carried by `MidasConfig` (the struct stays `Copy`, so
/// paths and addresses live in environment variables, not here).
///
/// Environment overrides, applied by [`TelemetryConfig::from_env`]:
///
/// * `MIDAS_TELEMETRY` — `1|true|on` enables metrics **and** tracing,
///   `0|false|off` disables both, unset leaves the config untouched;
/// * `MIDAS_TRACE_OUT` — setting it enables tracing and names the
///   `trace.json` output path (see [`TelemetryConfig::trace_path`]);
/// * `MIDAS_FLIGHT` — flight-recorder batch capacity (a positive integer);
/// * `MIDAS_LOG` — log level (see [`crate::log`]);
/// * `MIDAS_PROFILE_HZ` — sampling-profiler rate in Hz (0 = off; clamped
///   to [`crate::profile::MAX_HZ`]);
/// * `MIDAS_SLO_PHASE_US` / `MIDAS_SLO_VF2_NS` — per-phase span and VF2
///   search latency budgets (0 = that alert family off);
/// * `MIDAS_SLO_BUDGET_PPM` / `MIDAS_SLO_BURN_MILLI` — the error budget
///   (parts-per-million over budget allowed) and the burn-rate alert
///   threshold ×1000 (see [`crate::alerts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch for counters/gauges/histograms/span statistics.
    pub enabled: bool,
    /// Also collect Chrome-trace events and write `trace.json` after each
    /// batch. Implies nothing unless [`Self::enabled`] is set.
    pub trace: bool,
    /// How many batch summaries the flight recorder retains.
    pub flight_capacity: usize,
    /// Log level for the [`crate::obs_warn!`]-family macros.
    pub log: LogLevel,
    /// Sampling-profiler rate in Hz (0 = profiler off). Only takes effect
    /// while [`Self::enabled`] is set.
    pub profile_hz: u32,
    /// SLO budgets driving the burn-rate alerts (see [`crate::alerts`]).
    pub slo: SloConfig,
}

impl Default for TelemetryConfig {
    /// Disabled: probes cost one relaxed atomic load each.
    fn default() -> Self {
        TelemetryConfig {
            enabled: false,
            trace: false,
            flight_capacity: crate::flight::DEFAULT_CAPACITY,
            log: LogLevel::Warn,
            profile_hz: 0,
            slo: SloConfig::default(),
        }
    }
}

impl TelemetryConfig {
    /// Metrics, tracing and info-level logging all on.
    pub fn on() -> Self {
        TelemetryConfig {
            enabled: true,
            trace: true,
            log: LogLevel::Info,
            ..TelemetryConfig::default()
        }
    }

    /// This config with the environment overrides listed on
    /// [`TelemetryConfig`] applied.
    pub fn from_env(mut self) -> Self {
        if let Ok(v) = std::env::var("MIDAS_TELEMETRY") {
            if let Some(on) = parse_bool(&v) {
                self.enabled = on;
                self.trace = on;
            }
        }
        if std::env::var_os("MIDAS_TRACE_OUT").is_some() {
            self.trace = true;
        }
        if let Some(cap) = std::env::var("MIDAS_FLIGHT")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&c| c > 0)
        {
            self.flight_capacity = cap;
        }
        if let Some(level) = std::env::var("MIDAS_LOG")
            .ok()
            .and_then(|s| LogLevel::parse(&s))
        {
            self.log = level;
        }
        if let Some(hz) = env_u64("MIDAS_PROFILE_HZ") {
            self.profile_hz = hz.min(u64::from(u32::MAX)) as u32;
        }
        if let Some(us) = env_u64("MIDAS_SLO_PHASE_US") {
            self.slo.phase_budget_us = us;
        }
        if let Some(ns) = env_u64("MIDAS_SLO_VF2_NS") {
            self.slo.vf2_budget_ns = ns;
        }
        if let Some(ppm) = env_u64("MIDAS_SLO_BUDGET_PPM").filter(|&p| p > 0) {
            self.slo.allowed_ppm = ppm.min(1_000_000) as u32;
        }
        if let Some(milli) = env_u64("MIDAS_SLO_BURN_MILLI").filter(|&m| m > 0) {
            self.slo.burn_milli = milli.min(u64::from(u32::MAX)) as u32;
        }
        self
    }

    /// Applies this config to the process-global switches
    /// ([`crate::set_enabled`], [`crate::set_tracing`],
    /// [`crate::log::set_log_level`], [`crate::flight::set_capacity`]).
    pub fn activate(&self) {
        crate::set_enabled(self.enabled);
        crate::set_tracing(self.enabled && self.trace);
        crate::log::set_log_level(self.log);
        crate::flight::set_capacity(self.flight_capacity);
        crate::alerts::configure(self.slo);
        crate::profile::set_rate(if self.enabled { self.profile_hz } else { 0 });
    }

    /// Where `trace.json` goes: `MIDAS_TRACE_OUT` or `./trace.json`.
    pub fn trace_path() -> PathBuf {
        std::env::var_os("MIDAS_TRACE_OUT")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("trace.json"))
    }
}

/// Parses a non-negative integer environment value; unset or unparsable
/// returns `None`.
fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name)
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
}

/// Parses a boolean environment value. Unknown strings return `None`.
pub fn parse_bool(s: &str) -> Option<bool> {
    match s.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "on" | "yes" => Some(true),
        "0" | "false" | "off" | "no" => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        let c = TelemetryConfig::default();
        assert!(!c.enabled);
        assert!(!c.trace);
        assert_eq!(c.flight_capacity, crate::flight::DEFAULT_CAPACITY);
        assert_eq!(c.log, LogLevel::Warn);
        assert_eq!(c.profile_hz, 0);
        assert!(!c.slo.any_enabled());
    }

    #[test]
    fn on_enables_everything() {
        let c = TelemetryConfig::on();
        assert!(c.enabled && c.trace);
        assert_eq!(c.log, LogLevel::Info);
    }

    #[test]
    fn parse_bool_spellings() {
        assert_eq!(parse_bool("1"), Some(true));
        assert_eq!(parse_bool(" ON "), Some(true));
        assert_eq!(parse_bool("false"), Some(false));
        assert_eq!(parse_bool("maybe"), None);
    }

    #[test]
    fn activate_round_trips() {
        let _g = crate::tests::exclusive();
        TelemetryConfig::on().activate();
        assert!(crate::enabled());
        assert!(crate::tracing_enabled());
        TelemetryConfig::default().activate();
        assert!(!crate::enabled());
        assert!(!crate::tracing_enabled());
    }
}
