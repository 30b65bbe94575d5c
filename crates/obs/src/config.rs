//! Process configuration: the one reader of `MIDAS_*` environment
//! variables, and the telemetry config a host process activates.
//!
//! [`Env::parse`] turns `(name, value)` pairs into typed settings;
//! [`env()`] runs it once over the process environment. Every consumer —
//! [`TelemetryConfig::with_env`], the daemon's config, the exec-layer
//! fault injector, the binaries and benches — takes its values from that
//! one parse, and tests pass a literal list instead of mutating the
//! process environment. An unparsable value or an unknown `MIDAS_*` name
//! is reported once through [`crate::obs_warn!`] and leaves the default
//! in place.
//!
//! | Variable                    | Value                     | Effect |
//! |-----------------------------|---------------------------|--------|
//! | `MIDAS_TELEMETRY`           | `1\|true\|on` / `0\|false\|off` | metrics **and** tracing on / off; read by `serve_daemon` and `profile_batch` |
//! | `MIDAS_TRACE_OUT`           | path                      | enables tracing in `serve_daemon` and `profile_batch`; `trace.json` destination of any process that writes a trace (default `./trace.json`) |
//! | `MIDAS_LOG`                 | `off\|error\|warn\|info\|debug\|trace` | log level (default `warn`); read by `serve_daemon` and `profile_batch` |
//! | `MIDAS_FLIGHT_DUMP`         | path                      | panic dump destination (default `./midas-flight-dump.json`) |
//! | `MIDAS_FAULT`               | `task:N` / `slow:US`      | panic the N-th exec task / sleep US µs inside `batch.index` |
//! | `MIDAS_SERVE_ADDR`          | `host:port`               | daemon listen address, `/v1/*` and obs endpoints (default `127.0.0.1:0`) |
//! | `MIDAS_SERVE_HTTP_WORKERS`  | integer                   | daemon HTTP workers (default 8) |
//! | `MIDAS_SERVE_TENANTS`       | `name:kind:size[:seed],…` | tenants `serve_daemon` creates at boot |
//! | `MIDAS_ADDR_FILE`           | path                      | `serve_daemon` writes its bound address here once it listens |
//! | `MIDAS_BENCH_QUICK`         | `1\|true\|on`             | CI-sized `kernel` bench scenarios |

use crate::log::LogLevel;
use std::path::PathBuf;
use std::sync::OnceLock;

/// An armed `MIDAS_FAULT` injector (see `midas_graph::exec`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// `task:N` — panic the N-th task run through the exec task map.
    Task(u64),
    /// `slow:US` — sleep US microseconds inside every `batch.index` span.
    Slow(u64),
}

impl Fault {
    /// Parses `task:N` or `slow:US`. Anything else returns `None`.
    fn parse(s: &str) -> Option<Fault> {
        let (kind, n) = s.trim().split_once(':')?;
        let n = n.trim().parse().ok()?;
        match kind {
            "task" => Some(Fault::Task(n)),
            "slow" => Some(Fault::Slow(n)),
            _ => None,
        }
    }
}

/// Every `MIDAS_*` setting, typed: one field per row of the module
/// table, named after the variable without its prefix (`MIDAS_SERVE_ADDR`
/// is `serve_addr`). `None` (or `false`) means unset.
#[allow(missing_docs)]
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Env {
    pub telemetry: Option<bool>,
    pub trace_out: Option<PathBuf>,
    pub log: Option<LogLevel>,
    pub flight_dump: Option<PathBuf>,
    pub fault: Option<Fault>,
    pub serve_addr: Option<String>,
    pub serve_http_workers: Option<usize>,
    pub serve_tenants: Option<String>,
    pub addr_file: Option<PathBuf>,
    pub bench_quick: bool,
}

/// Stores `parsed` into `slot`; `false` when the value did not parse.
fn set<T>(slot: &mut Option<T>, parsed: Option<T>) -> bool {
    parsed.map(|v| *slot = Some(v)).is_some()
}

fn number<T: std::str::FromStr>(s: &str) -> Option<T> {
    s.trim().parse().ok()
}

fn text(s: &str) -> Option<String> {
    Some(s.to_owned()).filter(|s| !s.is_empty())
}

impl Env {
    /// Parses `(name, value)` pairs. Names without the `MIDAS_` prefix
    /// are ignored. Returns the settings plus one warning per unknown
    /// `MIDAS_*` name or unparsable value (whose setting stays unset).
    pub fn parse<I, K, V>(vars: I) -> (Env, Vec<String>)
    where
        I: IntoIterator<Item = (K, V)>,
        K: AsRef<str>,
        V: AsRef<str>,
    {
        let mut env = Env::default();
        let mut warnings = Vec::new();
        for (name, value) in vars {
            let (name, v) = (name.as_ref(), value.as_ref());
            if !name.starts_with("MIDAS_") {
                continue;
            }
            let ok = match name {
                "MIDAS_TELEMETRY" => set(&mut env.telemetry, parse_bool(v)),
                "MIDAS_TRACE_OUT" => set(&mut env.trace_out, text(v).map(PathBuf::from)),
                "MIDAS_LOG" => set(&mut env.log, LogLevel::parse(v)),
                "MIDAS_FLIGHT_DUMP" => set(&mut env.flight_dump, text(v).map(PathBuf::from)),
                "MIDAS_FAULT" => set(&mut env.fault, Fault::parse(v)),
                "MIDAS_SERVE_ADDR" => set(&mut env.serve_addr, text(v)),
                "MIDAS_SERVE_HTTP_WORKERS" => set(&mut env.serve_http_workers, number(v)),
                "MIDAS_SERVE_TENANTS" => set(&mut env.serve_tenants, text(v)),
                "MIDAS_ADDR_FILE" => set(&mut env.addr_file, text(v).map(PathBuf::from)),
                "MIDAS_BENCH_QUICK" => parse_bool(v).map(|q| env.bench_quick = q).is_some(),
                _ => {
                    warnings.push(format!("unknown variable {name}; ignored"));
                    continue;
                }
            };
            if !ok {
                warnings.push(format!(
                    "{name}={v:?} is not a valid value; using the default"
                ));
            }
        }
        (env, warnings)
    }
}

/// The process environment's settings: [`Env::parse`] over the process's
/// `MIDAS_*` variables on first call, with each warning logged once.
pub fn env() -> &'static Env {
    static ENV: OnceLock<Env> = OnceLock::new();
    ENV.get_or_init(|| {
        let lossy = |s: std::ffi::OsString| s.to_string_lossy().into_owned();
        let (env, warnings) = Env::parse(std::env::vars_os().map(|(k, v)| (lossy(k), lossy(v))));
        for w in warnings {
            crate::obs_warn!("obs::config", "{w}");
        }
        env
    })
}

/// Telemetry knobs a host process activates once, before it runs any
/// maintenance (paths live in [`Env`], not here). The library never
/// activates one: the switches are process-wide. [`TelemetryConfig::with_env`]
/// applies the `MIDAS_TELEMETRY`, `MIDAS_TRACE_OUT` and `MIDAS_LOG` rows
/// of the module table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch for counters/gauges/histograms/span statistics.
    pub enabled: bool,
    /// Also collect Chrome-trace events and write `trace.json` after each
    /// batch. Implies nothing unless [`Self::enabled`] is set.
    pub trace: bool,
    /// Log level for the [`crate::obs_warn!`]-family macros.
    pub log: LogLevel,
}

impl Default for TelemetryConfig {
    /// Disabled: probes cost one relaxed atomic load each.
    fn default() -> Self {
        TelemetryConfig {
            enabled: false,
            trace: false,
            log: LogLevel::Warn,
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
        }
    }

    /// This config with the telemetry settings of `env` applied.
    pub fn with_env(mut self, env: &Env) -> Self {
        if let Some(on) = env.telemetry {
            self.enabled = on;
            self.trace = on;
        }
        if env.trace_out.is_some() {
            self.trace = true;
        }
        if let Some(level) = env.log {
            self.log = level;
        }
        self
    }

    /// Applies this config to the process-global switches
    /// ([`crate::set_enabled`], [`crate::set_tracing`],
    /// [`crate::log::set_log_level`]).
    pub fn activate(&self) {
        crate::set_enabled(self.enabled);
        crate::set_tracing(self.enabled && self.trace);
        crate::log::set_log_level(self.log);
    }
}

/// Parses a boolean setting. Unknown strings return `None`.
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
        assert_eq!(c.log, LogLevel::Warn);
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

    /// Every settable name parses alone and together, and has a row in
    /// the module table.
    #[test]
    fn parser_table_covers_every_name() {
        let table = [
            ("MIDAS_TELEMETRY", "on"),
            ("MIDAS_TRACE_OUT", "t.json"),
            ("MIDAS_LOG", "debug"),
            ("MIDAS_FLIGHT_DUMP", "d.json"),
            ("MIDAS_FAULT", "slow:200"),
            ("MIDAS_SERVE_ADDR", "127.0.0.1:9"),
            ("MIDAS_SERVE_HTTP_WORKERS", "3"),
            ("MIDAS_SERVE_TENANTS", "a:emol_like:9"),
            ("MIDAS_ADDR_FILE", "addr"),
            ("MIDAS_BENCH_QUICK", "1"),
        ];
        let module_doc = include_str!("config.rs");
        for (name, value) in table {
            let (env, warnings) = Env::parse([(name, value)]);
            assert!(warnings.is_empty(), "{name}: {warnings:?}");
            assert_ne!(env, Env::default(), "{name}={value} changed nothing");
            let row = format!("//! | `{name}`");
            assert!(module_doc.contains(&row), "{name} has no table row");
        }
        let (all, warnings) = Env::parse(table);
        assert!(warnings.is_empty(), "{warnings:?}");
        let expected = Env {
            telemetry: Some(true),
            trace_out: Some("t.json".into()),
            log: Some(LogLevel::Debug),
            flight_dump: Some("d.json".into()),
            fault: Some(Fault::Slow(200)),
            serve_addr: Some("127.0.0.1:9".into()),
            serve_http_workers: Some(3),
            serve_tenants: Some("a:emol_like:9".into()),
            addr_file: Some("addr".into()),
            bench_quick: true,
        };
        assert_eq!(all, expected);
    }

    #[test]
    fn malformed_values_and_unknown_names_warn_and_keep_defaults() {
        let (env, warnings) = Env::parse([
            ("MIDAS_SERVE_HTTP_WORKERS", "abc"),
            ("MIDAS_FLIGHT_DUMP", ""),
            ("MIDAS_FAULT", "task:x"),
            ("MIDAS_FAULT", "crash:3"),
            ("MIDAS_LOG", "verbose"),
            ("MIDAS_SERVE_HTTP_WORKERS", "-1"),
            ("MIDAS_TRACE_FILE", "50"),
            ("MIDAS_THREADS", "4"),
            ("HOME", "/home/x"),
        ]);
        assert_eq!(env, Env::default());
        assert_eq!(warnings.len(), 8, "{warnings:?}");
        assert!(
            warnings[0].contains("MIDAS_SERVE_HTTP_WORKERS=\"abc\""),
            "{warnings:?}"
        );
        assert!(warnings[2].contains("MIDAS_FAULT=\"task:x\""));
        assert!(warnings[6].contains("unknown variable MIDAS_TRACE_FILE"));
        assert!(warnings[7].contains("unknown variable MIDAS_THREADS"));
    }

    #[test]
    fn with_env_applies_the_telemetry_rows() {
        let (env, _) = Env::parse([("MIDAS_TRACE_OUT", "t.json"), ("MIDAS_LOG", "off")]);
        let c = TelemetryConfig::default().with_env(&env);
        assert!(!c.enabled && c.trace, "a trace path implies tracing only");
        assert_eq!(c.log, LogLevel::Off);
        let (off, _) = Env::parse([("MIDAS_TELEMETRY", "0")]);
        let c = TelemetryConfig::on().with_env(&off);
        assert!(!c.enabled && !c.trace);
    }
}
