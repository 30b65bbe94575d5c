#!/usr/bin/env python3
"""Regression gate over the bench trajectory in ``BENCH_history.jsonl``.

Two kinds of record share the history:

* **kernel** records — ``cargo bench -p midas-bench --bench kernel``
  appends one per run (see ``crates/bench/benches/kernel.rs``), with
  ``median_ns`` per metric and a ``quick`` flag;
* **serve** records — ``bench_gate.py --serve`` runs the servebench
  command of ``BENCHMARK.json`` on each of its workloads and appends one
  per workload, with the end-to-end ``metrics``, the ``serve`` workload
  name and the ``host`` it ran on. The same run writes
  ``BENCH_serve.json``.

Each new record is compared against the *trailing median* of the earlier
records of its own kind: kernel records in the same mode (``quick`` runs
are only ever compared with ``quick`` runs), serve records of the same
workload on the same host. Medians beat "previous run" comparisons: one
lucky baseline run cannot hide a later regression, one noisy run cannot
fail the gate forever.

Policy:

* ``TRACKED`` metrics hard-fail the gate when they get worse than their
  tolerance; every other metric is soft: a warning is printed but the
  exit code stays 0, so noisy numbers annotate instead of block.
* Kernel metrics are lower-is-better; a ``TRACKED`` one fails when
  ``latest > tolerance x trailing median``, any other warns beyond
  ``SOFT_TOLERANCE``. A ``TRACKED`` kernel metric that the newest kernel
  record does not carry fails too: a row the bench stops emitting would
  otherwise leave the gate without saying so.
* Serve metrics take their direction (``better``) and tolerance
  (``bound``, a relative change) from the ``end_to_end`` table of
  ``BENCHMARK.json``. A serve run whose ``correct`` is false fails.
* ``disabled_probe_ns`` hard-fails above ``PROBE_BUDGET_NS`` — the
  overhead budget is absolute, not relative.
* Fewer than ``MIN_BASELINE`` earlier matching records: the gate passes
  with a note (nothing to compare against yet).

Usage:
    bench_gate.py [--history PATH] [--min-baseline N]
    bench_gate.py --serve [--history PATH] [--min-baseline N]
    bench_gate.py --self-test

Exit codes: 0 pass, 1 regression (or an incorrect serve run), 2
usage/invalid history.
"""

import json
import os
import socket
import statistics
import subprocess
import sys
import tempfile
import time

# Metric -> hard tolerance. For a kernel metric: latest may be at most
# this multiple of the trailing median. For a serve metric (``None``): the
# ``bound`` that BENCHMARK.json states for it.
TRACKED = {
    "matrix_build/plan_serial": 2.0,
    "apply_batch/plan_serial": 2.0,
    # The serve read path over real HTTP, as wall time and as server CPU
    # per read: new work on `GET /v1/{t}/patterns` shows in both.
    "read_p50_us": None,
    "read_cpu_us": None,
}

# Untracked metrics warn (never fail) beyond this multiple.
SOFT_TOLERANCE = 1.5

# Absolute ceiling for the disabled-probe cost, ns (the bench itself
# asserts < 50; the gate keeps history honest about it too).
PROBE_BUDGET_NS = 50.0

# Minimum earlier matching records before comparisons start.
MIN_BASELINE = 2

# The servebench arguments every serve record is measured with.
SERVE_ARGS = ["--seed", "1", "--seconds", "20", "--trace", "0"]

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_history(path):
    records = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as e:
                    raise SystemExit(f"FAIL: {path}:{lineno}: invalid JSON: {e}")
                if is_serve(rec):
                    if "metrics" not in rec or "host" not in rec:
                        raise SystemExit(
                            f"FAIL: {path}:{lineno}: serve record missing metrics/host"
                        )
                elif "median_ns" not in rec or "quick" not in rec:
                    raise SystemExit(
                        f"FAIL: {path}:{lineno}: record missing median_ns/quick"
                    )
                records.append(rec)
    except OSError as e:
        raise SystemExit(f"FAIL: cannot read history {path}: {e}")
    return records


def is_serve(rec):
    return "serve" in rec


def gate(records, min_baseline=MIN_BASELINE):
    """Gates the newest kernel record. Returns (ok, list of report lines)."""
    lines = []
    records = [r for r in records if not is_serve(r)]
    if not records:
        return False, ["FAIL: history has no kernel record"]
    latest = records[-1]
    mode = bool(latest["quick"])
    baseline = [r for r in records[:-1] if bool(r["quick"]) == mode]
    mode_name = "quick" if mode else "full"

    ok = True
    for metric, tol in sorted(TRACKED.items()):
        if tol is not None and metric not in latest["median_ns"]:
            ok = False
            lines.append(f"FAIL {metric}: tracked, but missing from the newest record")
    probe = latest.get("disabled_probe_ns")
    if probe is not None and float(probe) >= PROBE_BUDGET_NS:
        ok = False
        lines.append(
            f"FAIL disabled_probe_ns: {probe} ns >= budget {PROBE_BUDGET_NS} ns"
        )

    if len(baseline) < min_baseline:
        lines.append(
            f"PASS: only {len(baseline)} earlier {mode_name}-mode record(s) "
            f"(< {min_baseline}); nothing to gate against yet"
        )
        return ok, lines

    for metric, value in sorted(latest["median_ns"].items()):
        history = [
            r["median_ns"][metric]
            for r in baseline
            if metric in r.get("median_ns", {}) and r["median_ns"][metric] > 0
        ]
        if not history or value <= 0:
            lines.append(f"SKIP {metric}: no usable baseline")
            continue
        median = statistics.median(history)
        ratio = value / median
        if metric in TRACKED:
            tol = TRACKED[metric]
            verdict = "FAIL" if ratio > tol else "PASS"
            if ratio > tol:
                ok = False
            lines.append(
                f"{verdict} {metric}: {value} ns vs trailing median {median:.0f} ns "
                f"({ratio:.2f}x, hard limit {tol:.1f}x, n={len(history)})"
            )
        elif ratio > SOFT_TOLERANCE:
            lines.append(
                f"WARN {metric}: {value} ns vs trailing median {median:.0f} ns "
                f"({ratio:.2f}x > soft {SOFT_TOLERANCE:.1f}x) — not gating"
            )
        else:
            lines.append(f"ok   {metric}: {ratio:.2f}x of trailing median")
    return ok, lines


def load_spec():
    """The benchmark declaration: its command, workloads and end-to-end
    metrics (name, ``better``, ``bound``)."""
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def gate_serve(records, end_to_end, min_baseline=MIN_BASELINE):
    """Gates the newest serve record against the earlier correct serve
    records of the same workload, arguments and host. Returns (ok, list of
    report lines)."""
    serve = [r for r in records if is_serve(r)]
    if not serve:
        return False, ["FAIL: history has no serve record"]
    latest = serve[-1]
    workload, host = latest["serve"], latest["host"]
    same = [
        r
        for r in serve[:-1]
        if r["serve"] == workload
        and r.get("args") == latest.get("args")
        and r.get("correct", True)
    ]
    baseline = [r for r in same if r["host"] == host]
    lines = []
    ok = True
    if latest.get("correct") is False:
        ok = False
        lines.append(f"FAIL {workload}: the run's correctness check failed")
    if len(baseline) < min_baseline:
        others = len(same) - len(baseline)
        lines.append(
            f"PASS {workload}: only {len(baseline)} earlier record(s) from host "
            f"{host!r} (< {min_baseline}); {others} from other hosts not "
            f"comparable; nothing to gate against yet"
        )
        return ok, lines

    for spec in end_to_end:
        metric, bound = spec["name"], float(spec["bound"])
        value = latest["metrics"].get(metric)
        history = [r["metrics"][metric] for r in baseline if metric in r["metrics"]]
        if value is None or not history or statistics.median(history) == 0:
            lines.append(f"SKIP {workload}/{metric}: no usable baseline")
            continue
        median = statistics.median(history)
        change = (value - median) / abs(median)
        worse = change if spec["better"] == "lower" else -change
        detail = (
            f"{value:g} vs trailing median {median:g} ({change:+.1%}, "
            f"{spec['better']} is better, bound {bound:.0%}, n={len(history)})"
        )
        if worse <= bound:
            lines.append(f"ok   {workload}/{metric}: {detail}")
        elif metric in TRACKED:
            ok = False
            lines.append(f"FAIL {workload}/{metric}: {detail}")
        else:
            lines.append(f"WARN {workload}/{metric}: {detail} — not gating")
    return ok, lines


def run_serve(history, min_baseline):
    """Runs the benchmark command on every workload, writes
    BENCH_serve.json, appends one history record per workload and gates
    each. Returns True when every run was correct and no gate failed."""
    spec = load_spec()
    host = socket.gethostname()
    report = {
        "unix_ms": int(time.time() * 1000),
        "host": host,
        "args": SERVE_ARGS,
        "workloads": {},
    }
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        cmd = spec["command"] + ["--workload", name] + SERVE_ARGS
        print("$", " ".join(cmd), flush=True)
        run = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE, text=True)
        print(run.stdout, end="", flush=True)
        out = run.stdout.strip().splitlines()
        try:
            result = json.loads(out[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"FAIL {name}: no result line (exit {run.returncode})")
            return False
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        correct = bool(result["correct"]) and run.returncode == 0
        report["workloads"][name] = {
            "correct": correct,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
        record = {
            "unix_ms": report["unix_ms"],
            "serve": name,
            "host": host,
            "args": SERVE_ARGS,
            "correct": correct,
            "metrics": {m["name"]: metrics[m["name"]] for m in spec["end_to_end"]},
        }
        with open(history, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        w_ok, lines = gate_serve(load_history(history), spec["end_to_end"], min_baseline)
        for line in lines:
            print(line)
        ok = ok and w_ok
    with open(os.path.join(REPO, "BENCH_serve.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return ok


def self_test():
    """The gate's own acceptance check: synthetic kernel and serve
    regressions must be caught, flat runs must pass."""

    def rec(build, batch, probe=0.3, quick=False):
        return {
            "unix_ms": 0,
            "quick": quick,
            "disabled_probe_ns": probe,
            "median_ns": {
                "matrix_build/plan_serial": build,
                "apply_batch/plan_serial": batch,
                "matrix_build/serial": 10 * build,
            },
        }

    baseline = [rec(100_000, 50_000) for _ in range(3)]

    ok, lines = gate(baseline + [rec(205_000, 50_000)])
    assert not ok, f"2x regression must fail: {lines}"
    assert any(l.startswith("FAIL matrix_build/plan_serial") for l in lines), lines

    # A tracked kernel row the newest record lacks fails and is named,
    # however good the rows it does carry look.
    dropped = rec(90_000, 50_000)
    del dropped["median_ns"]["apply_batch/plan_serial"]
    ok, lines = gate(baseline + [dropped])
    assert not ok, f"missing tracked metric must fail: {lines}"
    assert any(
        l.startswith("FAIL apply_batch/plan_serial") and "missing" in l for l in lines
    ), lines

    ok, lines = gate(baseline + [rec(101_000, 51_000)])
    assert ok, f"flat run must pass: {lines}"

    # Soft metrics warn, never fail.
    noisy = rec(100_000, 50_000)
    noisy["median_ns"]["matrix_build/serial"] = 10_000_000
    ok, lines = gate(baseline + [noisy])
    assert ok, f"soft regression must not gate: {lines}"
    assert any(l.startswith("WARN matrix_build/serial") for l in lines), lines

    # A newly tracked metric absent from older records skips (no baseline)
    # instead of failing, so extending TRACKED never breaks existing
    # histories.
    old = [rec(100_000, 50_000) for _ in range(3)]
    for r in old:
        del r["median_ns"]["apply_batch/plan_serial"]
    ok, lines = gate(old + [rec(100_000, 50_000)])
    assert ok, f"metric without baseline must skip, not fail: {lines}"
    assert any(l.startswith("SKIP apply_batch/plan_serial") for l in lines), lines

    # Once the batch metric has history, a regression gates like the rest.
    ok, lines = gate(baseline + [rec(100_000, 125_000)])
    assert not ok, f"apply_batch/plan_serial 2.5x regression must fail: {lines}"
    assert any(l.startswith("FAIL apply_batch/plan_serial") for l in lines), lines

    # Serve records live in the same history: the kernel gate skips them
    # and the serve gate skips kernel records.
    spec = [
        {"name": "read_p50_us", "better": "lower", "bound": 0.25},
        {"name": "read_cpu_us", "better": "lower", "bound": 0.25},
        {"name": "update_graphs_per_cpu_s", "better": "higher", "bound": 0.25},
        {"name": "formulation_reduction", "better": "higher", "bound": 0.25},
    ]

    def rec_serve(read_cpu=40.0, graphs=900.0, host="a", workload="isolated"):
        return {
            "unix_ms": 0,
            "serve": workload,
            "host": host,
            "correct": True,
            "metrics": {
                "read_p50_us": 70.0,
                "read_cpu_us": read_cpu,
                "update_graphs_per_cpu_s": graphs,
                "formulation_reduction": 0.3,
            },
        }

    serve_base = [rec_serve() for _ in range(3)]
    ok, lines = gate_serve(baseline + serve_base + [rec_serve(41.0, 880.0)], spec)
    assert ok, f"flat serve run must pass: {lines}"
    assert any(l.startswith("ok   isolated/read_cpu_us") for l in lines), lines
    # Lower-is-better: a tracked read metric 50% up fails.
    ok, lines = gate_serve(serve_base + [rec_serve(read_cpu=60.0)], spec)
    assert not ok, f"read_cpu_us regression must fail: {lines}"
    assert any(l.startswith("FAIL isolated/read_cpu_us") for l in lines), lines
    # Higher-is-better: a drop is a regression (untracked, so it warns);
    # a rise of the same size is an improvement and passes silently.
    ok, lines = gate_serve(serve_base + [rec_serve(graphs=450.0)], spec)
    assert ok, f"untracked serve regression must not gate: {lines}"
    assert any(l.startswith("WARN isolated/update_graphs_per_cpu_s") for l in lines), lines
    ok, lines = gate_serve(serve_base + [rec_serve(graphs=1800.0)], spec)
    assert ok and not any(l.startswith("WARN") for l in lines), lines
    # Another host's records are not a baseline: skip, even at 10x.
    ok, lines = gate_serve(serve_base + [rec_serve(read_cpu=400.0, host="b")], spec)
    assert ok, f"cross-host run must skip: {lines}"
    assert any("3 from other hosts" in l for l in lines), lines
    # Workloads never cross either.
    ok, lines = gate_serve(serve_base + [rec_serve(400.0, workload="read_update")], spec)
    assert ok, f"first record of a workload must pass: {lines}"
    # An incorrect run fails however fast it was.
    broken = rec_serve()
    broken["correct"] = False
    ok, lines = gate_serve(serve_base + [broken], spec)
    assert not ok, f"incorrect serve run must fail: {lines}"
    # A kernel record after serve records still gates cleanly.
    ok, lines = gate(baseline + serve_base + [rec(101_000, 51_000)])
    assert ok, f"kernel record after serve records must pass: {lines}"
    # The declared metrics carry what the serve gate reads.
    declared = load_spec()["end_to_end"]
    assert len(declared) == 7, declared
    assert all(m["better"] in ("lower", "higher") and m["bound"] > 0 for m in declared)
    assert {m for m in TRACKED if TRACKED[m] is None} <= {m["name"] for m in declared}

    # Probe budget is absolute.
    ok, lines = gate(baseline + [rec(100_000, 50_000, probe=80.0)])
    assert not ok, f"probe over budget must fail: {lines}"

    # Modes never cross: a quick run is not judged against full baselines.
    ok, lines = gate(baseline + [rec(1_000_000, 500_000, quick=True)])
    assert ok, f"first quick run has no baseline, must pass: {lines}"

    # Short history passes with a note.
    ok, lines = gate([rec(100_000, 50_000), rec(300_000, 50_000)])
    assert ok, f"single-record baseline must pass: {lines}"

    # End-to-end through a file, exercising the JSONL loader.
    with tempfile.NamedTemporaryFile("w", suffix=".jsonl", delete=False) as fh:
        for r in baseline + serve_base + [rec(205_000, 50_000)]:
            fh.write(json.dumps(r) + "\n")
        path = fh.name
    ok, _ = gate(load_history(path))
    os.unlink(path)
    assert not ok, "file round-trip must preserve the failure"

    print("bench_gate self-test: OK")


def main(argv):
    history = "BENCH_history.jsonl"
    min_baseline = MIN_BASELINE
    serve = False
    args = argv[1:]
    while args:
        arg = args.pop(0)
        if arg == "--self-test":
            self_test()
            return 0
        elif arg == "--serve":
            serve = True
        elif arg == "--history" and args:
            history = args.pop(0)
        elif arg == "--min-baseline" and args:
            min_baseline = int(args.pop(0))
        else:
            print(__doc__)
            return 2
    if serve:
        ok = run_serve(history, min_baseline)
        print("serve gate:", "PASS" if ok else "FAIL")
        return 0 if ok else 1
    ok, lines = gate(load_history(history), min_baseline)
    for line in lines:
        print(line)
    print("bench gate:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
