//! Leveled structured logging, replacing ad-hoc `println!`/`eprintln!`
//! diagnostics in library crates.
//!
//! Lines go to **stderr** as `[midas LEVEL target] message`, so binary
//! stdout (experiment tables, JSON reports) stays machine-readable. The
//! level defaults to [`LogLevel::Warn`] and is set by [`set_log_level`]
//! (which [`crate::TelemetryConfig::activate`] calls with the `MIDAS_LOG`
//! setting, `off|error|warn|info|debug|trace`, case-insensitive).
//!
//! The macros evaluate their format arguments only when the level is
//! enabled, so a `obs_debug!` in a maintenance loop costs one relaxed
//! atomic load when the level is `warn`.

use std::sync::atomic::{AtomicU8, Ordering};

/// Log verbosity levels, ordered: each level includes the ones before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum LogLevel {
    /// No log output at all.
    Off = 0,
    /// Unrecoverable or corrupting conditions.
    Error = 1,
    /// Suspicious conditions the pipeline works around (the default).
    Warn = 2,
    /// Batch-level lifecycle events (classification, swap outcomes).
    Info = 3,
    /// Phase-level detail (per-scan, per-cluster decisions).
    Debug = 4,
    /// Everything, including per-item detail.
    Trace = 5,
}

impl LogLevel {
    /// Parses a `MIDAS_LOG` value. Unknown strings return `None`.
    pub fn parse(s: &str) -> Option<LogLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Some(LogLevel::Off),
            "error" | "1" => Some(LogLevel::Error),
            "warn" | "warning" | "2" => Some(LogLevel::Warn),
            "info" | "3" => Some(LogLevel::Info),
            "debug" | "4" => Some(LogLevel::Debug),
            "trace" | "5" => Some(LogLevel::Trace),
            _ => None,
        }
    }

    /// Fixed-width display name.
    pub fn name(self) -> &'static str {
        match self {
            LogLevel::Off => "OFF",
            LogLevel::Error => "ERROR",
            LogLevel::Warn => "WARN",
            LogLevel::Info => "INFO",
            LogLevel::Debug => "DEBUG",
            LogLevel::Trace => "TRACE",
        }
    }

    fn from_u8(v: u8) -> LogLevel {
        match v {
            0 => LogLevel::Off,
            1 => LogLevel::Error,
            2 => LogLevel::Warn,
            3 => LogLevel::Info,
            4 => LogLevel::Debug,
            _ => LogLevel::Trace,
        }
    }
}

static LEVEL: AtomicU8 = AtomicU8::new(LogLevel::Warn as u8);

/// The active log level.
pub fn log_level() -> LogLevel {
    LogLevel::from_u8(LEVEL.load(Ordering::Relaxed))
}

/// Sets the log level.
pub fn set_log_level(level: LogLevel) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Whether `level` would currently be emitted.
#[inline]
pub fn log_enabled(level: LogLevel) -> bool {
    level <= log_level()
}

/// Emits one formatted line to stderr (and into the flight recorder's
/// event ring, so `GET /flight` shows recent log context). Prefer the
/// level macros.
pub fn emit(level: LogLevel, target: &str, args: std::fmt::Arguments<'_>) {
    eprintln!("[midas {:5} {target}] {args}", level.name());
    crate::flight::record_event(level.name(), format!("[{target}] {args}"));
}

/// Logs at an explicit level: `obs_log!(LogLevel::Info, "core::framework",
/// "drift {:.4}", d)`.
#[macro_export]
macro_rules! obs_log {
    ($level:expr, $target:expr, $($arg:tt)+) => {
        if $crate::log::log_enabled($level) {
            $crate::log::emit($level, $target, format_args!($($arg)+));
        }
    };
}

/// Logs at [`LogLevel::Error`].
#[macro_export]
macro_rules! obs_error {
    ($target:expr, $($arg:tt)+) => {
        $crate::obs_log!($crate::LogLevel::Error, $target, $($arg)+)
    };
}

/// Logs at [`LogLevel::Warn`].
#[macro_export]
macro_rules! obs_warn {
    ($target:expr, $($arg:tt)+) => {
        $crate::obs_log!($crate::LogLevel::Warn, $target, $($arg)+)
    };
}

/// Logs at [`LogLevel::Info`].
#[macro_export]
macro_rules! obs_info {
    ($target:expr, $($arg:tt)+) => {
        $crate::obs_log!($crate::LogLevel::Info, $target, $($arg)+)
    };
}

/// Logs at [`LogLevel::Debug`].
#[macro_export]
macro_rules! obs_debug {
    ($target:expr, $($arg:tt)+) => {
        $crate::obs_log!($crate::LogLevel::Debug, $target, $($arg)+)
    };
}

/// Logs at [`LogLevel::Trace`].
#[macro_export]
macro_rules! obs_trace {
    ($target:expr, $($arg:tt)+) => {
        $crate::obs_log!($crate::LogLevel::Trace, $target, $($arg)+)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_spellings() {
        assert_eq!(LogLevel::parse("off"), Some(LogLevel::Off));
        assert_eq!(LogLevel::parse("ERROR"), Some(LogLevel::Error));
        assert_eq!(LogLevel::parse(" warn "), Some(LogLevel::Warn));
        assert_eq!(LogLevel::parse("Info"), Some(LogLevel::Info));
        assert_eq!(LogLevel::parse("debug"), Some(LogLevel::Debug));
        assert_eq!(LogLevel::parse("5"), Some(LogLevel::Trace));
        assert_eq!(LogLevel::parse("verbose"), None);
    }

    #[test]
    fn levels_order_and_gate() {
        set_log_level(LogLevel::Info);
        assert!(log_enabled(LogLevel::Error));
        assert!(log_enabled(LogLevel::Info));
        assert!(!log_enabled(LogLevel::Debug));
        set_log_level(LogLevel::Off);
        assert!(!log_enabled(LogLevel::Error));
        set_log_level(LogLevel::Warn); // restore the default for other tests
    }

    #[test]
    fn macros_do_not_evaluate_args_when_gated() {
        set_log_level(LogLevel::Warn);
        let mut evaluated = false;
        obs_debug!("obs::test", "{}", {
            evaluated = true;
            "x"
        });
        assert!(!evaluated, "gated log must skip its format arguments");
        set_log_level(LogLevel::Warn);
    }
}
