//! SLO budgets and multi-window burn-rate alerts.
//!
//! An SLO here is "at most `allowed_ppm` of observations may exceed the
//! latency budget". The burn rate of a window is how fast that error
//! budget is being spent:
//!
//! ```text
//! burn(window) = (violating / total) / (allowed_ppm / 1e6)
//! ```
//!
//! so `burn == 1` consumes the budget exactly at the allowed rate and
//! `burn == 10` spends it ten times too fast. Following the standard
//! multi-window recipe, every alert is evaluated over two windows carved
//! from the histograms' CAS-rotated slot ring ([`crate::registry`]):
//!
//! * **fast** — the last [`FAST_SLOTS`] slots (1 minute): reacts quickly,
//!   and its *recovery* is just as fast — when the slowness stops, the
//!   fast window drains within a minute and the alert clears;
//! * **slow** — the last [`SLOW_SLOTS`] slots (15 minutes): confirms the
//!   problem is sustained, so a single slow batch never pages.
//!
//! An alert is **firing** when *both* windows burn at or above the
//! threshold, **pending** when only the fast window does, and **ok**
//! otherwise. An *empty* fast window never fires (nothing is burning if
//! nothing is happening) — the rotation tests pin that.
//!
//! Violations are counted from the log₂ buckets conservatively: a bucket
//! counts as violating only when its *lower* bound already exceeds the
//! budget, so a budget falling mid-bucket under-counts rather than
//! over-counts (alerts should not fire on rounding).
//!
//! Budgets default to 0 (= alerting disabled); they are configured via
//! [`crate::TelemetryConfig`] / the `MIDAS_SLO_*` environment variables.

use crate::registry::{registry, Histogram, WindowAggregate};
use std::sync::{Mutex, OnceLock};

/// Fast-window width in ring slots (4 × 15 s = 1 minute).
pub const FAST_SLOTS: u64 = 4;

/// Slow-window width in ring slots (60 × 15 s = 15 minutes).
pub const SLOW_SLOTS: u64 = 60;

/// The Algorithm-1 phase spans monitored against the phase budget.
pub const MONITORED_PHASES: &[&str] = &[
    "batch.ingest",
    "batch.fct",
    "batch.cluster",
    "batch.index",
    "batch.classify",
    "batch.candidates",
    "batch.swap",
];

/// SLO budgets. All-integer so [`crate::TelemetryConfig`] stays
/// `Copy + Eq`; fractions are parts-per-million and thresholds ×1000.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloConfig {
    /// Latency budget for each Algorithm-1 phase span, µs
    /// (0 = phase alerting disabled).
    pub phase_budget_us: u64,
    /// Error budget: the fraction of observations allowed over budget,
    /// parts-per-million (default 10 000 = 1 %).
    pub allowed_ppm: u32,
    /// Burn-rate threshold ×1000 (default 2 000 = alert at 2× budget
    /// spend).
    pub burn_milli: u32,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            phase_budget_us: 0,
            allowed_ppm: 10_000,
            burn_milli: 2_000,
        }
    }
}

impl SloConfig {
    /// Whether any budget is set.
    pub fn any_enabled(&self) -> bool {
        self.phase_budget_us > 0
    }
}

fn current_config() -> &'static Mutex<SloConfig> {
    static CONFIG: OnceLock<Mutex<SloConfig>> = OnceLock::new();
    CONFIG.get_or_init(|| Mutex::new(SloConfig::default()))
}

/// Installs `cfg` as the process-wide SLO configuration (called by
/// [`crate::TelemetryConfig::activate`]).
pub fn configure(cfg: SloConfig) {
    *current_config().lock().unwrap_or_else(|e| e.into_inner()) = cfg;
}

/// The process-wide SLO configuration.
pub fn config() -> SloConfig {
    *current_config().lock().unwrap_or_else(|e| e.into_inner())
}

/// Alert state, in escalation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Within budget (or no recent traffic).
    Ok,
    /// The fast window is burning, the slow window not yet.
    Pending,
    /// Both windows are burning: sustained budget violation.
    Firing,
}

impl AlertState {
    /// Lowercase label used in JSON and logs.
    pub fn label(&self) -> &'static str {
        match self {
            AlertState::Ok => "ok",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
        }
    }
}

/// One evaluated alert.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEval {
    /// The monitored series (span or histogram name).
    pub name: &'static str,
    /// The latency budget, in the series' unit.
    pub budget: u64,
    /// The series' unit (`"us"`: every monitored series is a phase span).
    pub unit: &'static str,
    /// Current state.
    pub state: AlertState,
    /// Fast-window burn rate.
    pub fast_burn: f64,
    /// Slow-window burn rate.
    pub slow_burn: f64,
    /// Observations / violations in the fast window.
    pub fast: (u64, u64),
    /// Observations / violations in the slow window.
    pub slow: (u64, u64),
}

/// Lower bound of the log₂ bucket whose inclusive upper bound is `upper`.
fn bucket_lower(upper: u64) -> u64 {
    if upper == 0 {
        0
    } else {
        (upper >> 1) + 1
    }
}

/// `(observations, definite violations)` in a window aggregate.
fn violations(w: &WindowAggregate, budget: u64) -> (u64, u64) {
    let over = w
        .buckets
        .iter()
        .filter(|&&(upper, _)| bucket_lower(upper) > budget)
        .map(|&(_, n)| n)
        .sum();
    (w.count, over)
}

fn burn_rate(count: u64, over: u64, allowed_ppm: u32) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let fraction = over as f64 / count as f64;
    let allowed = f64::from(allowed_ppm.max(1)) / 1e6;
    fraction / allowed
}

fn evaluate_series(
    name: &'static str,
    unit: &'static str,
    h: &Histogram,
    budget: u64,
    cfg: &SloConfig,
    now: u64,
) -> AlertEval {
    let fast = violations(&h.windowed_recent_at(now, FAST_SLOTS), budget);
    let slow = violations(&h.windowed_recent_at(now, SLOW_SLOTS), budget);
    let fast_burn = burn_rate(fast.0, fast.1, cfg.allowed_ppm);
    let slow_burn = burn_rate(slow.0, slow.1, cfg.allowed_ppm);
    let threshold = f64::from(cfg.burn_milli) / 1000.0;
    // An empty fast window cannot fire: burn_rate(0, ..) is 0 above, so
    // both arms below are false and the alert reads Ok — recovery is
    // automatic once the fast window drains.
    let state = if fast_burn >= threshold && slow_burn >= threshold {
        AlertState::Firing
    } else if fast_burn >= threshold {
        AlertState::Pending
    } else {
        AlertState::Ok
    };
    AlertEval {
        name,
        budget,
        unit,
        state,
        fast_burn,
        slow_burn,
        fast,
        slow,
    }
}

/// Evaluates every configured alert against the live windows.
pub fn evaluate() -> Vec<AlertEval> {
    evaluate_at(crate::registry::current_tick())
}

/// [`evaluate`] at an explicit window tick, for deterministic tests.
pub fn evaluate_at(now: u64) -> Vec<AlertEval> {
    let cfg = config();
    let mut out = Vec::new();
    if cfg.phase_budget_us > 0 {
        for &phase in MONITORED_PHASES {
            let h = registry().span(phase).durations();
            out.push(evaluate_series(
                phase,
                "us",
                h,
                cfg.phase_budget_us,
                &cfg,
                now,
            ));
        }
    }
    out
}

/// Names of the alerts currently firing.
pub fn firing() -> Vec<&'static str> {
    evaluate()
        .into_iter()
        .filter(|a| a.state == AlertState::Firing)
        .map(|a| a.name)
        .collect()
}

/// Bumps the `slo.phase_violations` counter when a completed phase blew
/// its budget — per-batch attribution next to the windowed alerting.
pub fn record_phase(name: &str, dur_us: u64) {
    let cfg = config();
    if cfg.phase_budget_us > 0 && dur_us > cfg.phase_budget_us {
        crate::counter_add!("slo.phase_violations", 1);
        crate::obs_warn!(
            "obs::alerts",
            "phase {name} took {dur_us}µs (budget {}µs)",
            cfg.phase_budget_us
        );
    }
}

/// The `/alerts` document.
pub fn render_json() -> String {
    let cfg = config();
    let evals = evaluate();
    let mut out = format!(
        "{{\n  \"config\": {{\"phase_budget_us\": {}, \"allowed_ppm\": {}, \"burn_milli\": {}}},\n  \"alerts\": [\n",
        cfg.phase_budget_us, cfg.allowed_ppm, cfg.burn_milli
    );
    for (i, a) in evals.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"state\": {}, \"budget\": {}, \"unit\": {}, \"fast_burn\": {}, \"slow_burn\": {}, \"fast_count\": {}, \"fast_violations\": {}, \"slow_count\": {}, \"slow_violations\": {}}}{}\n",
            crate::json::quote(a.name),
            crate::json::quote(a.state.label()),
            a.budget,
            crate::json::quote(a.unit),
            crate::json::number(a.fast_burn),
            crate::json::number(a.slow_burn),
            a.fast.0,
            a.fast.1,
            a.slow.0,
            a.slow.1,
            if i + 1 < evals.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::exclusive;

    fn restore() {
        configure(SloConfig::default());
    }

    #[test]
    fn default_config_evaluates_no_alerts() {
        let _g = exclusive();
        restore();
        assert!(!config().any_enabled());
        assert!(evaluate().is_empty());
        assert!(firing().is_empty());
    }

    #[test]
    fn firing_needs_both_windows_burning() {
        let _g = exclusive();
        configure(SloConfig {
            phase_budget_us: 100,
            ..SloConfig::default()
        });
        let h = registry().span("batch.index").durations();
        h.reset();
        // Sustained violations early in the slow window only: ticks 0..=39
        // (now = 55, so they are inside the 60-slot slow window but far
        // outside the 4-slot fast window).
        for tick in 0..40u64 {
            h.record_windowed_at(100_000, tick);
        }
        let now = 55u64;
        let eval = evaluate_at(now)
            .into_iter()
            .find(|a| a.name == "batch.index")
            .expect("monitored");
        assert_eq!(eval.fast, (0, 0), "fast window is empty");
        assert!(eval.slow_burn > 2.0, "slow window is burning");
        assert_eq!(
            eval.state,
            AlertState::Ok,
            "an empty fast window never fires"
        );

        // Fresh violations inside the fast window escalate to firing
        // (slow window still burning since it contains the same samples).
        for tick in 52..=55u64 {
            h.record_windowed_at(100_000, tick);
        }
        let eval = evaluate_at(now)
            .into_iter()
            .find(|a| a.name == "batch.index")
            .expect("monitored");
        assert!(eval.fast.1 > 0);
        assert_eq!(eval.state, AlertState::Firing);
        h.reset();
        restore();
    }

    #[test]
    fn pending_when_only_fast_burns() {
        let _g = exclusive();
        configure(SloConfig {
            phase_budget_us: 100,
            ..SloConfig::default()
        });
        let h = registry().span("batch.fct").durations();
        h.reset();
        let now = 200u64;
        // Plenty of healthy traffic across the slow window, plus a fast
        // spike: fast burns, slow does not.
        for tick in (now - 50)..(now - FAST_SLOTS) {
            for _ in 0..20 {
                h.record_windowed_at(10, tick);
            }
        }
        for _ in 0..10 {
            h.record_windowed_at(100_000, now);
        }
        let eval = evaluate_at(now)
            .into_iter()
            .find(|a| a.name == "batch.fct")
            .expect("monitored");
        assert_eq!(eval.state, AlertState::Pending, "{eval:?}");
        h.reset();
        restore();
    }

    #[test]
    fn violations_are_counted_conservatively() {
        // Budget 100 falls inside the (64, 127] bucket: that bucket's
        // samples may or may not violate, so they must NOT count.
        let w = WindowAggregate {
            count: 10,
            sum: 0,
            max: 5000,
            buckets: vec![(127, 6), (255, 3), (4095, 1)],
        };
        assert_eq!(violations(&w, 100), (10, 4));
        // Budget exactly on a bucket upper bound: the next bucket violates.
        assert_eq!(violations(&w, 127), (10, 4));
        assert_eq!(violations(&w, 255), (10, 1));
    }

    #[test]
    fn render_json_is_valid() {
        let _g = exclusive();
        configure(SloConfig {
            phase_budget_us: 1_000,
            ..SloConfig::default()
        });
        let doc = render_json();
        crate::json::validate(&doc).expect("alerts JSON validates");
        assert!(doc.contains("\"batch.index\""));
        assert!(doc.contains("\"state\""));
        restore();
    }

    #[test]
    fn record_phase_counts_violations() {
        let _g = exclusive();
        crate::set_enabled(true);
        configure(SloConfig {
            phase_budget_us: 50,
            ..SloConfig::default()
        });
        let c = registry().counter("slo.phase_violations");
        let before = c.get();
        record_phase("batch.index", 40); // within budget
        record_phase("batch.index", 60); // over
        crate::set_enabled(false);
        assert_eq!(c.get(), before + 1);
        restore();
    }
}
