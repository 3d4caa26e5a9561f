#!/usr/bin/env python
"""Validate telemetry artifacts produced by ``stpsjoin --trace/--metrics``.

Checks the JSONL trace and metrics files against the schema documented in
``docs/observability.md``:

* every trace line is a JSON object with the span fields, exactly one
  root ``run`` span per run id, unique span ids, resolvable parent ids
  and non-negative durations;
* every metrics line (``jsonl`` format) is a typed instrument record;
  histogram bucket counts are consistent with the observation count;
* a ``prom`` metrics file parses as Prometheus text exposition lines;
* every audit-log line (``--audit``) is a schema-versioned
  :class:`repro.serve.audit.AuditRecord` dict with a known outcome,
  strictly increasing sequence numbers and sane timings;
* a saved ``/stats`` payload (``--stats``) carries the window /
  SLO / audit sections with ordered quantile bounds.

Used by the CI telemetry and analytics smoke jobs; exits non-zero with
a message per violation.  Usage::

    python scripts/check_telemetry.py --trace trace.jsonl \
        --metrics metrics.jsonl [--metrics-format jsonl|prom] \
        [--audit audit.jsonl] [--stats stats.json]
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import List

TRACE_FIELDS = {
    "run_id", "span_id", "parent_id", "name", "start", "end",
    "duration", "attrs", "events",
}
METRIC_TYPES = {"counter", "gauge", "histogram"}
RUN_ID = re.compile(r"^[a-z0-9:_-]+-\d{4}$")
SPAN_ID = re.compile(r"^[a-z0-9:_-]+-\d{4}/s\d+$")
PROM_LINE = re.compile(
    r"^(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.e+-]+(inf)?)$"
)


def check_trace(path: str) -> List[str]:
    problems: List[str] = []
    spans = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append(f"{path}:{lineno}: not JSON: {exc}")
                continue
            missing = TRACE_FIELDS - set(record)
            if missing:
                problems.append(
                    f"{path}:{lineno}: missing fields {sorted(missing)}"
                )
                continue
            spans.append((lineno, record))

    if not spans:
        problems.append(f"{path}: no spans recorded")
        return problems

    seen_ids = set()
    runs = {}
    for lineno, record in spans:
        span_id = record["span_id"]
        if span_id in seen_ids:
            problems.append(f"{path}:{lineno}: duplicate span_id {span_id!r}")
        seen_ids.add(span_id)
        if not RUN_ID.match(record["run_id"]):
            problems.append(
                f"{path}:{lineno}: malformed run_id {record['run_id']!r}"
            )
        if not SPAN_ID.match(span_id):
            problems.append(f"{path}:{lineno}: malformed span_id {span_id!r}")
        if record["duration"] < 0:
            problems.append(f"{path}:{lineno}: negative duration")
        if record["end"] < record["start"]:
            problems.append(f"{path}:{lineno}: end precedes start")
        if record["name"] == "run":
            if record["parent_id"] is not None:
                problems.append(
                    f"{path}:{lineno}: run span has a parent"
                )
            runs.setdefault(record["run_id"], 0)
            runs[record["run_id"]] += 1

    for lineno, record in spans:
        parent = record["parent_id"]
        if parent is not None and parent not in seen_ids:
            problems.append(
                f"{path}:{lineno}: parent_id {parent!r} not in trace"
            )

    if not runs:
        problems.append(f"{path}: no root 'run' span")
    for run_id, count in runs.items():
        if count != 1:
            problems.append(f"{path}: {count} root spans for run {run_id!r}")
    return problems


def check_metrics_jsonl(path: str) -> List[str]:
    problems: List[str] = []
    records = 0
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append(f"{path}:{lineno}: not JSON: {exc}")
                continue
            records += 1
            kind = record.get("type")
            if kind not in METRIC_TYPES:
                problems.append(f"{path}:{lineno}: unknown type {kind!r}")
                continue
            if not record.get("name"):
                problems.append(f"{path}:{lineno}: missing name")
            if kind == "counter":
                value = record.get("value")
                if not isinstance(value, int) or value < 0:
                    problems.append(
                        f"{path}:{lineno}: counter value {value!r} "
                        "is not a non-negative integer"
                    )
            elif kind == "gauge":
                if not isinstance(record.get("value"), (int, float)):
                    problems.append(f"{path}:{lineno}: gauge value not numeric")
            else:  # histogram
                counts = record.get("counts")
                if not isinstance(counts, list) or len(counts) != 17:
                    problems.append(
                        f"{path}:{lineno}: histogram needs 17 bucket counts"
                    )
                elif sum(counts) != record.get("count"):
                    problems.append(
                        f"{path}:{lineno}: bucket counts sum to "
                        f"{sum(counts)}, count says {record.get('count')}"
                    )
                if record.get("sum", 0) < 0 or record.get("count", 0) < 0:
                    problems.append(f"{path}:{lineno}: negative histogram totals")
    if not records:
        problems.append(f"{path}: no metric records")
    return problems


def check_metrics_prom(path: str) -> List[str]:
    problems: List[str] = []
    lines = 0
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            lines += 1
            if not PROM_LINE.match(line):
                problems.append(
                    f"{path}:{lineno}: not Prometheus text exposition: {line!r}"
                )
    if not lines:
        problems.append(f"{path}: empty exposition")
    return problems


# Mirrors repro.serve.audit.AUDIT_SCHEMA_VERSION / AuditRecord.as_dict()
# and repro.obs.analytics.STATS_SCHEMA_VERSION — kept standalone so the
# script needs no import path setup.
AUDIT_SCHEMA_VERSION = 2
STATS_SCHEMA_VERSION = 1
AUDIT_FIELDS = {
    "schema_version", "seq", "ts", "dataset", "fingerprint", "type",
    "algorithm", "params", "outcome", "error", "cache",
    "run_id", "seconds", "timings", "result_count", "funnel",
    "calibration",
}
AUDIT_OUTCOMES = {
    "ok", "rejected", "deadline", "bad_request", "unknown_dataset", "error",
}
TIMING_KEYS = {"queue", "setup", "execute", "serialize"}


def check_audit(path: str) -> List[str]:
    problems: List[str] = []
    last_seq = 0
    records = 0
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            if not line.endswith("\n"):
                break  # torn final line of a live file is fine
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append(f"{path}:{lineno}: not JSON: {exc}")
                continue
            records += 1
            if not isinstance(record, dict):
                problems.append(f"{path}:{lineno}: not a JSON object")
                continue
            if record.get("schema_version") != AUDIT_SCHEMA_VERSION:
                problems.append(
                    f"{path}:{lineno}: schema_version "
                    f"{record.get('schema_version')!r} != {AUDIT_SCHEMA_VERSION}"
                )
            missing = AUDIT_FIELDS - set(record)
            if missing:
                problems.append(
                    f"{path}:{lineno}: missing fields {sorted(missing)}"
                )
                continue
            seq = record["seq"]
            if not isinstance(seq, int) or seq <= last_seq:
                problems.append(
                    f"{path}:{lineno}: seq {seq!r} not strictly increasing "
                    f"(previous {last_seq})"
                )
            if isinstance(seq, int):
                last_seq = max(last_seq, seq)
            if record["outcome"] not in AUDIT_OUTCOMES:
                problems.append(
                    f"{path}:{lineno}: unknown outcome {record['outcome']!r}"
                )
            if record["outcome"] != "ok" and not record["error"]:
                problems.append(
                    f"{path}:{lineno}: outcome {record['outcome']!r} "
                    "without an error class"
                )
            seconds = record["seconds"]
            if not isinstance(seconds, (int, float)) or seconds < 0:
                problems.append(f"{path}:{lineno}: bad seconds {seconds!r}")
            timings = record["timings"]
            if not isinstance(timings, dict):
                problems.append(f"{path}:{lineno}: timings not an object")
            else:
                for key, value in timings.items():
                    if key not in TIMING_KEYS:
                        problems.append(
                            f"{path}:{lineno}: unknown timing {key!r}"
                        )
                    if not isinstance(value, (int, float)) or value < 0:
                        problems.append(
                            f"{path}:{lineno}: timing {key}={value!r}"
                        )
            if record["cache"] not in (None, "hit", "miss"):
                problems.append(
                    f"{path}:{lineno}: bad cache flag {record['cache']!r}"
                )
            for key in ("params", "funnel", "calibration"):
                if not isinstance(record[key], dict):
                    problems.append(f"{path}:{lineno}: {key} not an object")
            calibration = record["calibration"]
            if isinstance(calibration, dict) and calibration.get("chunks"):
                order = (
                    calibration.get("ratio_min", 0)
                    <= calibration.get("ratio_median", 0)
                    <= calibration.get("ratio_max", 0)
                )
                if not order or calibration.get("seconds_per_cost", 0) <= 0:
                    problems.append(
                        f"{path}:{lineno}: inconsistent calibration "
                        f"{calibration!r}"
                    )
    if not records:
        problems.append(f"{path}: no audit records")
    return problems


def _check_quantile(problems: List[str], where: str, payload) -> None:
    if not isinstance(payload, dict):
        problems.append(f"{where}: quantile is not an object")
        return
    missing = {"q", "estimate", "lower", "upper"} - set(payload)
    if missing:
        problems.append(f"{where}: quantile missing {sorted(missing)}")
        return
    if not payload["lower"] <= payload["estimate"] <= payload["upper"]:
        problems.append(
            f"{where}: quantile bounds not ordered "
            f"({payload['lower']} <= {payload['estimate']} "
            f"<= {payload['upper']} fails)"
        )


def check_stats(path: str) -> List[str]:
    problems: List[str] = []
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            return [f"{path}: not JSON: {exc}"]
    if not isinstance(payload, dict):
        return [f"{path}: not a JSON object"]
    if payload.get("schema_version") != STATS_SCHEMA_VERSION:
        problems.append(
            f"{path}: schema_version {payload.get('schema_version')!r} "
            f"!= {STATS_SCHEMA_VERSION}"
        )
    if not payload.get("analytics", False):
        return problems  # disabled server exposes only the version stub
    for section in ("window", "slo", "audit", "slow"):
        if section not in payload:
            problems.append(f"{path}: missing section {section!r}")
    window = payload.get("window", {})
    for field in ("window_seconds", "bucket_seconds", "groups", "totals"):
        if field not in window:
            problems.append(f"{path}: window missing {field!r}")
    cells = list(window.get("groups", []))
    if isinstance(window.get("totals"), dict):
        cells.append(window["totals"])
    for i, group in enumerate(cells):
        where = f"{path}: window cell {i}"
        for field in (
            "count", "ok", "errors", "timeouts", "rejected", "qps",
            "error_rate", "timeout_rate", "cache_hit_ratio", "latency",
        ):
            if field not in group:
                problems.append(f"{where}: missing {field!r}")
        latency = group.get("latency", {})
        for q in ("p50", "p95", "p99"):
            _check_quantile(problems, f"{where} {q}", latency.get(q))
    slo = payload.get("slo", {})
    for field in ("policy", "configured", "breaches", "status"):
        if field not in slo:
            problems.append(f"{path}: slo missing {field!r}")
    if slo.get("status") not in ("ok", "degraded", None):
        problems.append(f"{path}: bad slo status {slo.get('status')!r}")
    audit = payload.get("audit", {})
    for field in ("recorded", "ring_size", "ring_maxlen", "evicted"):
        if field not in audit:
            problems.append(f"{path}: audit missing {field!r}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", default=None, help="trace JSONL file")
    parser.add_argument("--metrics", default=None, help="metrics file")
    parser.add_argument(
        "--metrics-format",
        choices=("jsonl", "prom"),
        default="jsonl",
        help="format the metrics file was written in",
    )
    parser.add_argument("--audit", default=None, help="audit JSONL file")
    parser.add_argument(
        "--stats", default=None, help="saved /stats JSON payload"
    )
    args = parser.parse_args(argv)
    if all(
        value is None
        for value in (args.trace, args.metrics, args.audit, args.stats)
    ):
        parser.error(
            "nothing to check: pass --trace, --metrics, --audit and/or --stats"
        )

    problems: List[str] = []
    if args.trace is not None:
        problems += check_trace(args.trace)
    if args.metrics is not None:
        if args.metrics_format == "jsonl":
            problems += check_metrics_jsonl(args.metrics)
        else:
            problems += check_metrics_prom(args.metrics)
    if args.audit is not None:
        problems += check_audit(args.audit)
    if args.stats is not None:
        problems += check_stats(args.stats)

    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"FAIL: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    checked = [
        p for p in (args.trace, args.metrics, args.audit, args.stats) if p
    ]
    print(f"OK: {', '.join(checked)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
