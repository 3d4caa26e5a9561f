"""Tiny-size self-test of the benchmark itself.

Run from the repository root (about two minutes)::

    python3 perfbench/selftest.py

It checks that every workload, untraced and traced, prints a result line
that passes the output self-check against ``BENCHMARK.json``; that the
traced ledger adds up to the traced op CPU; that the counted pass
repeats exactly for a seed and that a differing record of the same
sources fails the run; that the self-check rejects malformed
results; and that the benchmark fails without printing a result where
the program's sources are missing.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import OUT_DIR, sources_digest, validate  # noqa: E402

#: Ledger lines that add up to ``traced.op_cpu_ms``, per workload family.
LEDGER = {
    "oneshot": ("datasets.load_ms", "stindex.grid_build_ms", "core.join_ms",
                "core.topk_ms", "core.knn_ms", "unattributed_ms"),
    "serve": ("http.overhead_ms", "serve.overhead_ms", "obs.analytics_ms",
              "core.join_ms", "core.topk_ms", "core.knn_ms", "unattributed_ms"),
}

SEED = 7


def run_bench(workload: str, trace: int, cwd: str = ROOT):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(SEED), "--seconds", "1",
               "--trace", str(trace), "--tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def check(condition: bool, message: str, failures: list) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    failures: list = []

    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            done = run_bench(workload, trace)
            label = f"{workload} --trace {trace}"
            check(done.returncode == 0,
                  f"{label} exits 0" + (f" ({done.stderr[-300:]})"
                                        if done.returncode else ""),
                  failures)
            if done.returncode != 0:
                continue
            doc = json.loads(done.stdout.strip().splitlines()[-1])
            check(not validate(doc, bench, workload, trace),
                  f"{label} result passes the self-check", failures)
            check(doc["correct"] and doc["failed"] == 0,
                  f"{label} is correct with no failed ops", failures)
            if trace:
                values = {k: v["value"] for k, v in doc["metrics"].items()}
                lines = LEDGER["oneshot" if workload == "oneshot" else "serve"]
                total = sum(values[line] for line in lines)
                check(math.isclose(total, values["traced.op_cpu_ms"],
                                   rel_tol=1e-9, abs_tol=1e-9),
                      f"{label} ledger adds up to traced.op_cpu_ms", failures)
        if workload != "serve-hot":
            # The first traced run stored this seed's counters; a second
            # run must reproduce them exactly (correct stays true).
            again = run_bench(workload, 1)
            doc = json.loads(again.stdout.strip().splitlines()[-1])
            check(again.returncode == 0 and doc["correct"],
                  f"{workload} counted-pass counters repeat for a seed", failures)
            # A stored record of the same sources that disagrees is drift.
            stored = os.path.join(
                OUT_DIR, f"counters-{workload}-s{SEED}-tiny-{sources_digest()}.json"
            )
            with open(stored, encoding="utf-8") as handle:
                counters = json.load(handle)
            try:
                with open(stored, "w", encoding="utf-8") as handle:
                    json.dump({**counters, "pairs.evaluated": -1}, handle)
                drifted = run_bench(workload, 1)
                doc = json.loads(drifted.stdout.strip().splitlines()[-1])
                check(drifted.returncode == 0 and not doc["correct"],
                      f"{workload} counter drift makes the run incorrect", failures)
            finally:
                with open(stored, "w", encoding="utf-8") as handle:
                    json.dump(counters, handle, sort_keys=True)

    good = {"correct": True, "attempted": 1, "failed": 0, "metrics": {
        m["name"]: {"value": 1.0, "unit": m["unit"]} for m in bench["end_to_end"]
    }}
    workload = bench["workloads"][0]["name"]
    check(not validate(good, bench, workload, 0),
          "self-check accepts a well-formed result", failures)
    first = bench["end_to_end"][0]["name"]
    broken = [
        ("a missing metric", lambda d: d["metrics"].pop(first)),
        ("a wrong unit", lambda d: d["metrics"][first].update(unit="?")),
        ("a NaN value", lambda d: d["metrics"][first].update(value=float("nan"))),
        ("an undeclared metric",
         lambda d: d["metrics"].update(extra={"value": 1.0, "unit": "ms"})),
        ("an extra key", lambda d: d.update(extra=1)),
        ("attempted of 0", lambda d: d.update(attempted=0)),
    ]
    for what, mutate in broken:
        doc = json.loads(json.dumps(good))
        mutate(doc)
        check(bool(validate(doc, bench, workload, 0)),
              f"self-check rejects {what}", failures)
    check(bool(validate(good, bench, "no-such-workload", 0)),
          "self-check rejects an undeclared workload", failures)

    bare = os.path.join(OUT_DIR, f"selftest-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = run_bench(workload, 0, cwd=bare)
        last = done.stdout.strip().splitlines()[-1:] or [""]
        check(done.returncode != 0 and not last[0].startswith("{"),
              "without the program's sources: non-zero exit, no result", failures)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
