//! Prometheus text exposition (format 0.0.4) for a [`MetricsSnapshot`].
//!
//! MIDAS metric names use dots (`vf2.searches`, `batch.fct`); Prometheus
//! names must match `[a-zA-Z_:][a-zA-Z0-9_:]*`, so [`sanitize_name`] maps
//! every disallowed character to `_`. Label values may contain anything,
//! but `\`, `"` and newlines must be escaped ([`escape_label_value`]) —
//! an unescaped quote would silently truncate the label and corrupt every
//! later sample on the scrape, so the exporter escapes rather than trusts.
//!
//! Rendering rules:
//!
//! * counters → `midas_<name>` with `# TYPE ... counter`;
//! * gauges → `midas_<name>` with `# TYPE ... gauge` (non-finite values
//!   render as `0`, mirroring the JSON exporter);
//! * histograms and span durations → summary-style families: the quantile
//!   series `midas_<name>{quantile="0.5|0.9|0.99"}` plus `_sum`, `_count`
//!   and `_max`;
//! * sliding windows → the same family shape under `midas_<name>_window`,
//!   so dashboards can plot recent percentiles next to lifetime ones.

use crate::snapshot::{HistogramSnapshot, MetricsSnapshot};
use std::fmt::Write as _;

/// Prefix every exported family shares.
const PREFIX: &str = "midas_";

/// Maps an internal metric name onto the Prometheus name charset: ASCII
/// letters, digits, `_` and `:` pass through, everything else (dots, `-`,
/// quotes, newlines, unicode) becomes `_`. A leading digit gains a `_`
/// prefix. The result always matches `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label value for the text exposition format: `\` → `\\`,
/// `"` → `\"`, newline → `\n` (tabs and other control characters pass
/// through — the format only reserves those three).
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders a finite `f64` sample value (`NaN`/`±inf` → `0`, matching
/// [`crate::json::number`]).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Builds a *labeled* registry metric name: `base{key="value",...}` with
/// keys sanitized and values escaped.
///
/// The [`crate::registry`] is name-keyed and has no label dimension, so
/// multi-tenant series (one counter per tenant) register under names
/// carrying an embedded label block; the renderer (`family_of`) splits
/// it back apart so the exposition carries real Prometheus labels —
/// `midas_serve_reads{tenant="acme"}` — instead of a mangled flat name.
pub fn labeled(base: &str, labels: &[(&str, &str)]) -> String {
    let pairs = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize_name(k), escape_label_value(v)))
        .collect::<Vec<_>>()
        .join(",");
    format!("{base}{{{pairs}}}")
}

/// Splits a registry name into its sanitized family and the literal label
/// block (without braces), undoing [`labeled`]. Names without an embedded
/// block sanitize whole, as before.
fn family_of(name: &str) -> (String, Option<&str>) {
    match name.split_once('{') {
        Some((base, rest)) => (sanitize_name(base), rest.strip_suffix('}').or(Some(rest))),
        None => (sanitize_name(name), None),
    }
}

/// Pushes one sample line: `family{labels} value` (labels optional).
fn push_sample(out: &mut String, family: &str, labels: Option<&str>, value: &str) {
    match labels {
        Some(l) => {
            let _ = writeln!(out, "{family}{{{l}}} {value}");
        }
        None => {
            let _ = writeln!(out, "{family} {value}");
        }
    }
}

/// Emits the `# TYPE` comment once per (family, kind) — labeled series
/// share a family, and Prometheus rejects duplicate TYPE lines.
fn push_type(
    out: &mut String,
    typed: &mut std::collections::HashSet<String>,
    family: &str,
    kind: &str,
) {
    if typed.insert(format!("{family} {kind}")) {
        let _ = writeln!(out, "# TYPE {family} {kind}");
    }
}

/// Renders one summary-style family (quantiles + `_sum`/`_count`/`_max`),
/// merging any embedded label block into every series.
///
/// A family with zero samples (possible for sliding windows whose samples
/// all aged out) emits *no* quantile series — a quantile of an empty sample
/// set is undefined (`NaN` in Prometheus semantics, which its text parser
/// rejects for summaries), so only `_sum`/`_count`/`_max` are kept.
fn push_summary(
    out: &mut String,
    typed: &mut std::collections::HashSet<String>,
    family: &str,
    labels: Option<&str>,
    h: &HistogramSnapshot,
) {
    push_type(out, typed, family, "summary");
    if h.count > 0 {
        for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
            let quantile = format!("quantile=\"{}\"", escape_label_value(label));
            let merged = match labels {
                Some(l) => format!("{l},{quantile}"),
                None => quantile,
            };
            let _ = writeln!(out, "{family}{{{merged}}} {}", h.quantile(q));
        }
    }
    push_sample(out, &format!("{family}_sum"), labels, &h.sum.to_string());
    push_sample(
        out,
        &format!("{family}_count"),
        labels,
        &h.count.to_string(),
    );
    push_type(out, typed, &format!("{family}_max"), "gauge");
    push_sample(out, &format!("{family}_max"), labels, &h.max.to_string());
}

/// Renders the whole snapshot as one Prometheus scrape body (pure over
/// `snap`; see [`render_live`] for the full scrape with alert gauges and
/// exemplar hints from process-global state).
pub fn render(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut typed = std::collections::HashSet::new();
    for (name, v) in &snap.counters {
        let (fam, labels) = family_of(name);
        let family = format!("{PREFIX}{fam}");
        push_type(&mut out, &mut typed, &family, "counter");
        push_sample(&mut out, &family, labels, &v.to_string());
    }
    for (name, v) in &snap.gauges {
        let (fam, labels) = family_of(name);
        let family = format!("{PREFIX}{fam}");
        push_type(&mut out, &mut typed, &family, "gauge");
        push_sample(&mut out, &family, labels, &number(*v));
    }
    for (name, h) in &snap.histograms {
        let (fam, labels) = family_of(name);
        let family = format!("{PREFIX}{fam}");
        push_summary(&mut out, &mut typed, &family, labels, h);
    }
    for (name, s) in &snap.spans {
        let (fam, labels) = family_of(name);
        let family = format!("{PREFIX}span_{fam}_duration_us");
        push_summary(&mut out, &mut typed, &family, labels, &s.durations);
    }
    for (name, w) in &snap.windows {
        let (fam, labels) = family_of(name);
        let family = format!("{PREFIX}{fam}_window");
        push_summary(&mut out, &mut typed, &family, labels, w);
    }
    out
}

/// [`render`] plus the live sections that are not part of the snapshot:
/// one `midas_alert_firing{alert="..."}` gauge per evaluated burn-rate
/// alert and OpenMetrics-style `# exemplar` hint comments attributing each
/// family's slowest observations (see [`crate::exemplar`]). This is what
/// `GET /metrics` serves.
pub fn render_live(snap: &MetricsSnapshot) -> String {
    let mut out = render(snap);
    let evals = crate::alerts::evaluate();
    if !evals.is_empty() {
        let _ = writeln!(out, "# TYPE {PREFIX}alert_firing gauge");
        for a in &evals {
            let _ = writeln!(
                out,
                "{PREFIX}alert_firing{{alert=\"{}\"}} {}",
                escape_label_value(a.name),
                u8::from(a.state == crate::alerts::AlertState::Firing)
            );
        }
    }
    crate::exemplar::for_each_series(|name, series| {
        let family = format!("{PREFIX}{}", sanitize_name(name));
        for ex in series.top() {
            let pattern = ex
                .pattern()
                .map_or_else(|| "-".to_owned(), |p| p.to_string());
            let graph = ex.graph().map_or_else(|| "-".to_owned(), |g| g.to_string());
            let _ = writeln!(
                out,
                "# exemplar {family} value={} unit={} pattern={pattern} graph={graph} seq={}",
                ex.value,
                series.unit(),
                ex.seq
            );
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::registry;
    use crate::snapshot::SpanStatSnapshot;

    /// Every name must match the exposition-format identifier rule.
    fn is_valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        let first_ok = chars
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':');
        first_ok && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

    #[test]
    fn sanitize_maps_dots_and_rejects_bad_chars() {
        assert_eq!(sanitize_name("vf2.searches"), "vf2_searches");
        assert_eq!(sanitize_name("batch.swap.scan"), "batch_swap_scan");
        assert_eq!(sanitize_name("a\"b\nc\\d"), "a_b_c_d");
        assert_eq!(sanitize_name("7zip"), "_7zip");
        assert_eq!(sanitize_name(""), "_");
        assert_eq!(sanitize_name("héllo"), "h_llo");
        for raw in ["vf2.searches", "a\"b", "\n\n", "99luft", "x-y"] {
            assert!(is_valid_name(&sanitize_name(raw)), "{raw:?}");
        }
    }

    #[test]
    fn label_values_escape_the_three_reserved_chars() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
    }

    /// Sanitization covers every metric name currently registered in this
    /// process — whatever instrumentation has run so far, each one must
    /// export as a valid family name.
    #[test]
    fn every_registered_metric_sanitizes_to_a_valid_family() {
        let _g = crate::tests::exclusive();
        crate::set_enabled(true);
        // Touch representative probes (dots, multi-segment) plus a
        // deliberately hostile name.
        crate::counter_add!("test.prom.a.b", 1);
        crate::gauge_set!("test.prom.gauge", 0.5);
        crate::histogram_record!("test.prom.hist", 3);
        registry().counter("test.prom.\"quoted\"\nname\\x").add(1);
        crate::set_enabled(false);
        let mut names: Vec<String> = Vec::new();
        registry().for_each_counter(|n, _| names.push(n.to_owned()));
        registry().for_each_gauge(|n, _| names.push(n.to_owned()));
        registry().for_each_histogram(|n, _| names.push(n.to_owned()));
        registry().for_each_span(|n, _| names.push(n.to_owned()));
        assert!(!names.is_empty());
        for name in names {
            let s = sanitize_name(&name);
            assert!(is_valid_name(&s), "{name:?} sanitized to invalid {s:?}");
        }
    }

    #[test]
    fn empty_histograms_emit_no_quantile_series() {
        // Regression: a windowed-out (empty) family used to emit quantile
        // samples for a sample set that does not exist; the undefined
        // quantile of an empty summary must be *omitted*, never rendered
        // (a `NaN` value would make Prometheus reject the whole scrape).
        let mut snap = MetricsSnapshot::default();
        snap.windows
            .insert("batch.swap".into(), HistogramSnapshot::default());
        snap.histograms.insert(
            "vf2.nodes_per_search".into(),
            HistogramSnapshot {
                count: 1,
                sum: 15,
                max: 15,
                buckets: vec![(15, 1)],
            },
        );
        let doc = render(&snap);
        assert!(!doc.contains("midas_batch_swap_window{quantile"), "{doc}");
        assert!(doc.contains("midas_batch_swap_window_count 0"));
        assert!(doc.contains("midas_batch_swap_window_sum 0"));
        // Non-empty families keep their quantiles.
        assert!(doc.contains("midas_vf2_nodes_per_search{quantile=\"0.5\"}"));
        assert!(!doc.contains("NaN"), "no NaN token anywhere: {doc}");
    }

    #[test]
    fn render_live_appends_alert_gauges_and_exemplar_hints() {
        let _g = crate::tests::exclusive();
        crate::alerts::configure(crate::alerts::SloConfig {
            vf2_budget_ns: 1_000,
            ..crate::alerts::SloConfig::default()
        });
        let s = crate::exemplar::series("vf2.search_ns", "ns");
        s.reset();
        {
            let _c = crate::exemplar::with_context(99, 3);
            s.offer(50_000);
        }
        let doc = render_live(&MetricsSnapshot::default());
        assert!(doc.contains("# TYPE midas_alert_firing gauge"), "{doc}");
        assert!(doc.contains("midas_alert_firing{alert=\"vf2.search_ns\"} 0"));
        assert!(
            doc.contains("# exemplar midas_vf2_search_ns value=50000 unit=ns pattern=99 graph=3"),
            "{doc}"
        );
        s.reset();
        crate::alerts::configure(crate::alerts::SloConfig::default());
    }

    #[test]
    fn labeled_builds_and_render_splits_label_blocks() {
        assert_eq!(
            labeled("serve.reads", &[("tenant", "acme")]),
            "serve.reads{tenant=\"acme\"}"
        );
        assert_eq!(
            labeled("serve.reads", &[("tenant", "a\"b")]),
            "serve.reads{tenant=\"a\\\"b\"}"
        );
        let mut snap = MetricsSnapshot::default();
        snap.counters
            .insert(labeled("serve.reads", &[("tenant", "acme")]), 7);
        snap.counters
            .insert(labeled("serve.reads", &[("tenant", "globex")]), 3);
        snap.gauges
            .insert(labeled("serve.epoch", &[("tenant", "acme")]), 4.0);
        snap.histograms.insert(
            labeled("serve.read_ns", &[("tenant", "acme")]),
            HistogramSnapshot {
                count: 1,
                sum: 10,
                max: 10,
                buckets: vec![(15, 1)],
            },
        );
        let doc = render(&snap);
        assert!(
            doc.contains("midas_serve_reads{tenant=\"acme\"} 7"),
            "{doc}"
        );
        assert!(
            doc.contains("midas_serve_reads{tenant=\"globex\"} 3"),
            "{doc}"
        );
        assert!(
            doc.contains("midas_serve_epoch{tenant=\"acme\"} 4"),
            "{doc}"
        );
        assert!(
            doc.contains("midas_serve_read_ns{tenant=\"acme\",quantile=\"0.5\"}"),
            "{doc}"
        );
        assert!(
            doc.contains("midas_serve_read_ns_sum{tenant=\"acme\"} 10"),
            "{doc}"
        );
        // One TYPE line per family, however many tenants share it.
        assert_eq!(
            doc.matches("# TYPE midas_serve_reads counter").count(),
            1,
            "{doc}"
        );
    }

    #[test]
    fn render_produces_wellformed_exposition_lines() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("vf2.searches".into(), 7);
        snap.gauges.insert("monitor.drift".into(), f64::NAN);
        snap.histograms.insert(
            "vf2.nodes_per_search".into(),
            HistogramSnapshot {
                count: 2,
                sum: 20,
                max: 15,
                buckets: vec![(15, 2)],
            },
        );
        snap.spans.insert(
            "batch.fct".into(),
            SpanStatSnapshot {
                count: 1,
                total_us: 42,
                max_us: 42,
                durations: HistogramSnapshot {
                    count: 1,
                    sum: 42,
                    max: 42,
                    buckets: vec![(63, 1)],
                },
            },
        );
        snap.windows.insert(
            "vf2.nodes_per_search".into(),
            HistogramSnapshot {
                count: 1,
                sum: 15,
                max: 15,
                buckets: vec![(15, 1)],
            },
        );
        let doc = render(&snap);
        assert!(doc.contains("# TYPE midas_vf2_searches counter"));
        assert!(doc.contains("midas_vf2_searches 7"));
        assert!(doc.contains("midas_monitor_drift 0"), "NaN renders as 0");
        assert!(doc.contains("midas_vf2_nodes_per_search{quantile=\"0.99\"}"));
        assert!(doc.contains("midas_span_batch_fct_duration_us{quantile=\"0.5\"} 42"));
        assert!(doc.contains("midas_vf2_nodes_per_search_window{quantile=\"0.9\"}"));
        // Every non-comment line is `name[{labels}] value`.
        for line in doc.lines() {
            if line.starts_with('#') {
                assert!(line.starts_with("# TYPE "), "only TYPE comments: {line}");
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            let name = series.split('{').next().unwrap();
            assert!(is_valid_name(name), "bad family in {line:?}");
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
        }
    }
}
