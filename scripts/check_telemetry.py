#!/usr/bin/env python3
"""CI gate for the telemetry export schema.

Two modes:

* Batch-profile gate — runs after an example batch with telemetry
  enabled; validates that `metrics.prom` (the batch's registry delta in
  the `GET /metrics` text format) is well-formed and carries the required
  counters and phase spans, and that `trace.json` is a Chrome trace.

      check_telemetry.py <metrics.prom> <trace.json>

* Live-endpoint gate — runs in the serving-daemon smoke step; validates
  the saved responses of `GET /metrics` (Prometheus text exposition
  0.0.4), the daemon's `GET /healthz`, `GET /flight` and `GET /slow`
  (which must carry attributed `plan.search_ns` exemplars and at least
  one slow `batch.*` phase).

      check_telemetry.py --prom <metrics.txt> [--healthz <healthz.json>] [--flight <flight.json>] \
                         [--slow <slow.json>]

* SLI gate — runs after the serve smoke step; validates that a saved
  `GET /metrics` scrape carries the `midas_sli_*` families, the daemon's
  one record of the user-facing SLIs (formulation-cost reduction,
  staleness, read/formulation latency).

      check_telemetry.py --sli-metrics <metrics.txt>

* Serving-daemon gate — runs after the multi-tenant serve smoke step;
  validates the saved `GET /v1/tenants`, `GET /v1/{t}/patterns` and sync
  `POST /v1/{t}/updates` responses, and that `GET /metrics` carries the
  per-tenant `midas_serve_*` families.

      check_telemetry.py --serve <tenants.json> [--patterns <patterns.json>] \
                         [--update <update.json>] [--serve-metrics <metrics.txt>] \
                         [--expect-tenants <n>]

Fails loudly on drift so exporter changes are deliberate.
"""

import json
import re
import sys

REQUIRED_COUNTERS = ["pmt_us", "cache.hits", "plan.nodes", "plan.searches"]
REQUIRED_SPANS = ["batch.ingest", "batch.fct", "batch.cluster", "batch.index"]
SPAN_SERIES = ["_count", "_sum", "_max"]
EVENT_FIELDS = ["name", "cat", "ph", "ts", "dur", "pid", "tid"]

# Prometheus exposition format 0.0.4.
METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)$"
)
LABEL_PAIR = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\["\\n])*"$')
REQUIRED_FAMILIES = ["midas_pmt_us", "midas_plan_search_ns"]
# Every summary renders these quantiles, then its `_max` gauge.
SUMMARY_QUANTILES = ["0.5", "0.9", "0.99"]
# VF2 is the reference matcher: a production scrape must show no search.
REFERENCE_ONLY_COUNTERS = ["midas_vf2_searches"]
BATCH_FIELDS = [
    "seq", "kind", "distance", "pmt_us", "pgt_us",
    "inserted", "deleted", "candidates", "swaps", "unix_ms",
]


def fail(msg):
    print(f"telemetry schema check FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def prom_family(name):
    """The exposition family of a registry name (`prom::sanitize_name`)."""
    return "midas_" + re.sub(r"[^a-zA-Z0-9_:]", "_", name)


def check_batch_metrics(path):
    """Validates the batch delta `profile_batch` writes to `metrics.prom`:
    well-formed exposition text, the required counters above zero, and
    one completed span family per required phase."""
    check_prom(path)
    with open(path) as f:
        text = f.read()
    values = {}
    for line in text.splitlines():
        m = SAMPLE_LINE.match(line)
        if m and not m.group("labels"):
            values[m.group("name")] = float(m.group("value"))
    for name in REQUIRED_COUNTERS:
        value = values.get(prom_family(name))
        if value is None or value <= 0:
            fail(f"{path}: counter {name!r} missing or not positive ({value!r})")
    for name in REQUIRED_SPANS:
        family = "midas_span_" + prom_family(name)[len("midas_"):] + "_duration_us"
        for series in SPAN_SERIES:
            if family + series not in values:
                fail(f"{path}: span {name!r} missing series {family + series!r}")
        if values[family + "_count"] < 1:
            fail(f"{path}: span {name!r} never completed")
    print(f"{path}: ok ({len(REQUIRED_COUNTERS)} counters, "
          f"{len(REQUIRED_SPANS)} phase spans)")


def check_trace(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents missing or empty")
    if doc.get("displayTimeUnit") != "ms":
        fail(f"{path}: displayTimeUnit must be 'ms'")
    if not isinstance(doc.get("droppedEvents"), int):
        fail(f"{path}: droppedEvents missing")
    names = set()
    for event in events:
        for field in EVENT_FIELDS:
            if field not in event:
                fail(f"{path}: event missing field {field!r}: {event}")
        if event["ph"] != "X":
            fail(f"{path}: unexpected phase {event['ph']!r} "
                 "(complete 'X' events only)")
        names.add(event["name"])
    for name in ["batch.ingest", "batch.fct"]:
        if name not in names:
            fail(f"{path}: no {name!r} event in trace")
    print(f"{path}: ok ({len(events)} events, {len(names)} distinct spans)")


def check_prom(path):
    """Validates a saved `GET /metrics` body as exposition format 0.0.4:
    every sample typed, and each summary series (per label set) monotone,
    `quantile="0.5"` <= `"0.9"` <= `"0.99"` <= `_max`."""
    with open(path) as f:
        text = f.read()
    typed = set()
    families = set()
    quantile_series = 0
    quantiles = {}
    maxima = {}
    samples = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                fail(f"{path}:{lineno}: malformed TYPE comment: {line!r}")
            name, kind = parts[2], parts[3]
            if not METRIC_NAME.match(name):
                fail(f"{path}:{lineno}: invalid family name {name!r}")
            if kind not in ("counter", "gauge", "summary", "histogram", "untyped"):
                fail(f"{path}:{lineno}: unknown metric type {kind!r}")
            if re.sub(r"_max$", "", name).endswith("_window"):
                fail(f"{path}:{lineno}: family {name!r}: the window ring is gone")
            typed.add(name)
            continue
        if line.startswith("#"):
            continue  # HELP or free comment
        m = SAMPLE_LINE.match(line)
        if not m:
            fail(f"{path}:{lineno}: unparsable sample line: {line!r}")
        name = m.group("name")
        if not METRIC_NAME.match(name):
            fail(f"{path}:{lineno}: invalid metric name {name!r}")
        pairs = m.group("labels").split(",") if m.group("labels") else []
        for pair in pairs:
            if not LABEL_PAIR.match(pair):
                fail(f"{path}:{lineno}: malformed label pair {pair!r}")
        try:
            value = float(m.group("value"))
        except ValueError:
            fail(f"{path}:{lineno}: non-numeric sample value {m.group('value')!r}")
        # A summary's _sum/_count/quantile series share the family TYPE.
        family = re.sub(r"_(sum|count|max)$", "", name)
        # One series of a summary: its family and the labels other than
        # `quantile` (a tenant, say).
        quantile = [p for p in pairs if p.startswith('quantile="')]
        series = (family, ",".join(p for p in pairs if p not in quantile))
        if quantile:
            quantile_series += 1
            quantiles.setdefault(series, {})[quantile[0]] = value
        elif name.endswith("_max"):
            maxima[series] = value
        if name not in typed and family not in typed:
            fail(f"{path}:{lineno}: sample {name!r} has no preceding # TYPE")
        families.add(family)
        samples += 1
        if name in REFERENCE_ONLY_COUNTERS and float(m.group("value")) != 0:
            fail(f"{path}:{lineno}: {name} is {m.group('value')}; production "
                 "code must match on the plan matcher only")
    if samples == 0:
        fail(f"{path}: no samples at all")
    for family in REQUIRED_FAMILIES:
        if family not in families:
            fail(f"{path}: required family {family!r} missing")
    if quantile_series == 0:
        fail(f"{path}: no quantile-labeled series (summaries missing)")
    for (family, labels), qs in quantiles.items():
        chain = [qs.get(f'quantile="{q}"') for q in SUMMARY_QUANTILES]
        chain.append(maxima.get((family, labels)))
        series = f"{family}{{{labels}}}" if labels else family
        if None in chain:
            fail(f"{path}: summary {series} lacks a quantile of "
                 "0.5/0.9/0.99 or its _max")
        if chain != sorted(chain):
            fail(f"{path}: summary {series} not monotone: "
                 f"p50 {chain[0]:g}, p90 {chain[1]:g}, p99 {chain[2]:g}, "
                 f"max {chain[3]:g}")
    print(f"{path}: ok ({samples} samples, {len(families)} families, "
          f"{quantile_series} quantile series)")


def check_healthz(path):
    """Validates the serving daemon's saved `GET /healthz` body."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("status") != "ok":
        fail(f"{path}: status is {doc.get('status')!r}, expected 'ok'")
    if "alerts_firing" in doc:
        fail(f"{path}: stale field 'alerts_firing' (the alerts are gone)")
    for field in ["uptime_s", "drift", "batches"]:
        if not isinstance(doc.get(field), (int, float)):
            fail(f"{path}: field {field!r} missing or non-numeric")
    for field in ["tenants", "degraded_tenants"]:
        if not isinstance(doc.get(field), int):
            fail(f"{path}: daemon field {field!r} missing or non-integer")
    if not isinstance(doc.get("telemetry_enabled"), bool):
        fail(f"{path}: field 'telemetry_enabled' missing")
    if doc["batches"] < 1:
        fail(f"{path}: no batches recorded; daemon did no work")
    print(f"{path}: ok ({doc['batches']} batches, drift {doc['drift']}, "
          f"{doc['tenants']} tenants, {doc['degraded_tenants']} degraded)")


def check_flight(path):
    with open(path) as f:
        doc = json.load(f)
    for field in ["total_batches", "capacity"]:
        if not isinstance(doc.get(field), int):
            fail(f"{path}: field {field!r} missing")
    batches = doc.get("batches")
    if not isinstance(batches, list) or not batches:
        fail(f"{path}: batches missing or empty")
    if len(batches) > doc["capacity"]:
        fail(f"{path}: {len(batches)} summaries exceed capacity {doc['capacity']}")
    for batch in batches:
        for field in BATCH_FIELDS:
            if field not in batch:
                fail(f"{path}: batch summary missing field {field!r}: {batch}")
    seqs = [b["seq"] for b in batches]
    if seqs != sorted(seqs):
        fail(f"{path}: batch summaries out of order: {seqs}")
    if not isinstance(doc.get("events"), list):
        fail(f"{path}: events missing")
    print(f"{path}: ok ({len(batches)}/{doc['capacity']} summaries, "
          f"{doc['total_batches']} total batches)")


def check_slow(path, require_series=("plan.search_ns",)):
    """Validates a saved `GET /slow` body (exemplar reservoirs). The
    required series is the production matcher's: memo misses and FCT
    mining run the compiled plan under a (pattern, graph) context, so its
    exemplars must be attributed. VF2 is the reference matcher and offers
    none. At least one `batch.*` phase series must hold exemplars too, so
    the capture names which phase of which batch was slow."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc.get("reservoir_k"), int) or doc["reservoir_k"] < 1:
        fail(f"{path}: reservoir_k missing")
    series = doc.get("series")
    if not isinstance(series, dict):
        fail(f"{path}: series missing")
    for name, s in series.items():
        if s.get("unit") not in ("ns", "us"):
            fail(f"{path}: series {name!r} has bad unit {s.get('unit')!r}")
        if not isinstance(s.get("offered"), int):
            fail(f"{path}: series {name!r} missing 'offered'")
        top = s.get("top")
        if not isinstance(top, list) or len(top) > doc["reservoir_k"]:
            fail(f"{path}: series {name!r} top missing or over capacity")
        values = []
        for ex in top:
            for field in ["value", "pattern", "graph", "seq"]:
                if field not in ex:
                    fail(f"{path}: series {name!r} exemplar missing {field!r}: {ex}")
            values.append(ex["value"])
        if values != sorted(values, reverse=True):
            fail(f"{path}: series {name!r} exemplars not sorted descending")
    for name in require_series:
        top = series.get(name, {}).get("top")
        if not top:
            fail(f"{path}: required series {name!r} missing or empty")
        attributed = [e for e in top if e["pattern"] is not None
                      and e["graph"] is not None]
        if not attributed:
            fail(f"{path}: series {name!r} has no attributed exemplars "
                 "(pattern/graph context never set)")
    phases = sorted(name for name, s in series.items()
                    if name.startswith("batch.") and s.get("top"))
    if not phases:
        fail(f"{path}: no batch.* phase series with exemplars "
             "(the capture cannot say which phase was slow)")
    print(f"{path}: ok ({len(series)} series; phases {phases})")


SLI_SUMMARIES = ["midas_sli_read_ns", "midas_sli_formulate_ns",
                 "midas_sli_staleness_batches",
                 "midas_sli_staleness_drift_micro"]


def check_sli_metrics(path):
    """Validates the `midas_sli_*` families of a `/metrics` scrape taken
    after `/querylog` traffic: each summary has samples, and the step
    counters and the reduction gauge are present and plausible. `--prom`
    checks that every summary's quantiles are monotone."""
    with open(path) as f:
        text = f.read()
    values = {}
    for line in text.splitlines():
        m = SAMPLE_LINE.match(line)
        if m and not m.group("labels"):
            values[m.group("name")] = float(m.group("value"))
    for family in SLI_SUMMARIES:
        count = values.get(f"{family}_count")
        if count is None:
            fail(f"{path}: summary {family!r} missing from the scrape")
        if count < 1:
            fail(f"{path}: summary {family!r} recorded no samples")
    queries = values.get("midas_sli_queries", 0)
    if queries < 1:
        fail(f"{path}: counter 'midas_sli_queries' missing or zero")
    if "midas_sli_steps_live" not in values:
        fail(f"{path}: counter 'midas_sli_steps_live' missing")
    if values.get("midas_sli_steps_baseline", 0) < 1:
        fail(f"{path}: counter 'midas_sli_steps_baseline' missing or zero")
    reduction = values.get("midas_sli_formulation_reduction")
    if reduction is None or not -10.0 <= reduction <= 1.0:
        fail(f"{path}: gauge 'midas_sli_formulation_reduction' missing or "
             f"implausible ({reduction!r})")
    print(f"{path}: ok ({queries:g} queries, reduction {reduction:g}, "
          f"{values['midas_sli_read_ns_count']:g} reads)")


TENANT_SUMMARY_FIELDS = [
    "tenant", "kind", "epoch", "db_len", "patterns",
    "pending_batches", "busy", "degraded", "created_unix_ms",
]

SERVE_TENANT_FAMILIES = [
    "midas_serve_epoch", "midas_serve_db_len",
    # Recorded by a tenant's maintenance thread as it dequeues a job.
    "midas_serve_queue_wait_us", "midas_serve_pending",
]

# The HTTP core's traffic counters (unlabeled). The scrape must follow at
# least one request that reused a kept connection.
HTTPD_COUNTERS = ["midas_httpd_connections", "midas_httpd_requests"]


def check_serve_tenants(path, expect_tenants=None):
    """Validates a saved `GET /v1/tenants` body from the serving daemon."""
    with open(path) as f:
        doc = json.load(f)
    tenants = doc.get("tenants")
    if not isinstance(tenants, list) or not tenants:
        fail(f"{path}: tenants missing or empty (daemon served nobody)")
    names = set()
    for t in tenants:
        for field in TENANT_SUMMARY_FIELDS:
            if field not in t:
                fail(f"{path}: tenant summary missing field {field!r}: {t}")
        if not isinstance(t["tenant"], str) or not t["tenant"]:
            fail(f"{path}: tenant summary with empty name: {t}")
        if t["tenant"] in names:
            fail(f"{path}: duplicate tenant {t['tenant']!r}")
        names.add(t["tenant"])
        if t["db_len"] < 1 or t["patterns"] < 1:
            fail(f"{path}: tenant {t['tenant']!r} has an empty database "
                 f"or pattern set: {t}")
    if expect_tenants is not None and len(tenants) < int(expect_tenants):
        fail(f"{path}: only {len(tenants)} tenants, expected "
             f"at least {expect_tenants}")
    print(f"{path}: ok ({len(tenants)} tenants: {sorted(names)})")


def check_serve_patterns(path):
    """Validates a saved `GET /v1/{tenant}/patterns` body."""
    with open(path) as f:
        doc = json.load(f)
    for field in ["epoch", "db_len", "published_unix_ms", "pending_batches"]:
        if not isinstance(doc.get(field), int):
            fail(f"{path}: field {field!r} missing or non-integer")
    if not isinstance(doc.get("tenant"), str):
        fail(f"{path}: field 'tenant' missing")
    graphlets = doc.get("graphlets")
    if not isinstance(graphlets, list) or len(graphlets) != 8:
        fail(f"{path}: graphlets must be the 8-way frequency vector, "
             f"got {graphlets!r}")
    for g in graphlets:
        if not isinstance(g, (int, float)) or g < 0:
            fail(f"{path}: negative or non-numeric graphlet frequency {g!r}")
    patterns = doc.get("patterns")
    if not isinstance(patterns, list) or not patterns:
        fail(f"{path}: patterns missing or empty (nothing to serve)")
    for p in patterns:
        if not isinstance(p, dict) or "labels" not in p or "edges" not in p:
            fail(f"{path}: pattern without labels/edges: {str(p)[:120]}")
        if not p["labels"]:
            fail(f"{path}: empty pattern graph served: {str(p)[:120]}")
    print(f"{path}: ok (tenant {doc['tenant']!r}, epoch {doc['epoch']}, "
          f"{len(patterns)} patterns, db {doc['db_len']})")


def check_serve_update(path):
    """Validates a saved sync `POST /v1/{tenant}/updates` reply."""
    with open(path) as f:
        doc = json.load(f)
    for field in ["epoch", "db_len", "patterns"]:
        if not isinstance(doc.get(field), int):
            fail(f"{path}: field {field!r} missing or non-integer")
    if doc.get("mode") != "sync":
        fail(f"{path}: mode is {doc.get('mode')!r}, expected 'sync'")
    if doc["epoch"] < 1:
        fail(f"{path}: epoch {doc['epoch']} after a sync update "
             "(apply_batch never ran)")
    print(f"{path}: ok (tenant {doc.get('tenant')!r} advanced to "
          f"epoch {doc['epoch']}, db {doc['db_len']})")


def check_serve_metrics(path, expect_tenants=None):
    """Validates that `GET /metrics` carries tenant-labeled
    `midas_serve_*` families for the daemon's tenants."""
    with open(path) as f:
        text = f.read()
    by_family = {}
    unlabeled = {}
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        m = SAMPLE_LINE.match(line)
        if not m:
            continue
        if not m.group("labels"):
            unlabeled[m.group("name")] = float(m.group("value"))
            continue
        labels = dict(
            pair.split("=", 1) for pair in m.group("labels").split(",")
            if "=" in pair
        )
        tenant = labels.get("tenant")
        if tenant is None:
            continue
        by_family.setdefault(m.group("name"), set()).add(tenant.strip('"'))
    if not by_family:
        fail(f"{path}: no tenant-labeled samples at all "
             "(serve telemetry never exported)")
    for family in SERVE_TENANT_FAMILIES:
        if family not in by_family:
            fail(f"{path}: required tenant-labeled family {family!r} missing "
                 f"(saw {sorted(by_family)})")
    tenants = set().union(*by_family.values())
    if expect_tenants is not None and len(tenants) < int(expect_tenants):
        fail(f"{path}: tenant labels cover only {sorted(tenants)}, expected "
             f"at least {expect_tenants} tenants")
    for counter in HTTPD_COUNTERS:
        if counter not in unlabeled:
            fail(f"{path}: required counter {counter!r} missing")
    connections = unlabeled["midas_httpd_connections"]
    requests = unlabeled["midas_httpd_requests"]
    if requests <= connections:
        fail(f"{path}: {requests:g} requests over {connections:g} "
             "connections: no connection was kept for a second request")
    print(f"{path}: ok ({len(by_family)} tenant-labeled families over "
          f"{len(tenants)} tenants; {requests:g} requests over "
          f"{connections:g} connections)")


def main():
    args = sys.argv[1:]
    if "--serve" in args:
        opts = dict(zip(args[::2], args[1::2]))
        if "--serve" not in opts:
            fail("--serve requires a file argument")
        expect = opts.get("--expect-tenants")
        check_serve_tenants(opts["--serve"], expect)
        if "--patterns" in opts:
            check_serve_patterns(opts["--patterns"])
        if "--update" in opts:
            check_serve_update(opts["--update"])
        if "--serve-metrics" in opts:
            check_serve_metrics(opts["--serve-metrics"], expect)
        print("serve daemon check passed")
        return
    if "--sli-metrics" in args:
        opts = dict(zip(args[::2], args[1::2]))
        if "--sli-metrics" not in opts:
            fail("--sli-metrics requires a file argument")
        check_sli_metrics(opts["--sli-metrics"])
        print("sli metrics check passed")
        return
    if "--prom" in args:
        opts = dict(zip(args[::2], args[1::2]))
        if "--prom" not in opts:
            fail("--prom requires a file argument")
        check_prom(opts["--prom"])
        if "--healthz" in opts:
            check_healthz(opts["--healthz"])
        if "--flight" in opts:
            check_flight(opts["--flight"])
        if "--slow" in opts:
            check_slow(opts["--slow"])
        print("live endpoint check passed")
        return
    if len(args) != 2:
        fail(
            "usage: check_telemetry.py <metrics.prom> <trace.json>\n"
            "   or: check_telemetry.py --prom <metrics.txt> "
            "[--healthz <healthz.json>] [--flight <flight.json>] "
            "[--slow <slow.json>]\n"
            "   or: check_telemetry.py --sli-metrics <metrics.txt>\n"
            "   or: check_telemetry.py --serve <tenants.json> "
            "[--patterns <patterns.json>] [--update <update.json>] "
            "[--serve-metrics <metrics.txt>] [--expect-tenants <n>]"
        )
    check_batch_metrics(args[0])
    check_trace(args[1])
    print("telemetry schema check passed")


if __name__ == "__main__":
    main()
