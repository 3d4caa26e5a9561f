"""STPSJoin benchmark: CPU-time latency on three seeded workloads.

Run from the repository root::

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ledger of a separate traced phase.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines above it are diagnostics.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import shutil
import statistics
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Each measuring process sets up until set-up has used ``SETUP_MIN_S``
#: CPU seconds (at most ``SETUP_MAX_REPEATS`` times); ``setup_s`` is the
#: median over the processes of each process's median.
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 10

#: Share of ``--seconds`` the traced run spends untraced, to measure the
#: tracing overhead against.
UNTRACED_SHARE = 0.5

#: An untraced run splits ``--seconds`` over this many measuring
#: processes, one after another, and pools their ops: the CPU time of the
#: same ops differs by several percent from one process to the next
#: (memory layout, allocator state), and pooling averages that out.
PROCESSES = 3

#: Seconds of untimed ops before each phase.  Served ops run about 20%
#: slower for the first second after set-up than later in the run.
WARMUP_S = 1.0

#: Wall seconds a measuring process may take beyond its share of
#: ``--seconds`` (set-up repeats, warm-up, reference checks) before it is
#: stopped and the run fails.
PART_ALLOWANCE_S = 40.0


@dataclass
class Op:
    op_id: int
    query: dict
    cpu_s: float
    wall_s: float
    at: float = 0.0  # wall clock at the op's middle
    result: Any = None
    error: Optional[str] = None


@dataclass
class Phase:
    ops: List[Op]
    cpu_s: float  # process CPU of the phase, probe samples excluded
    wall_s: float
    steal: Optional[float]
    probe: Any  # the phase's SpeedProbe: rescales its CPU times


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="self-test size: tiny datasets (figures are not comparable)",
    )
    # Internal: run one measuring process and write its part to this file.
    parser.add_argument("--part", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_phase(workload, seconds: float, traced: bool) -> Phase:
    """Run ops for ``seconds`` of wall clock, one at a time."""
    from measure import SpeedProbe, cpu, steal_share, steal_ticks, wall

    probe = SpeedProbe()
    tracer = workload.tracer
    ops: List[Op] = []
    # Each distinct query's first result is kept for the reference check;
    # a later op of the same query must repeat it exactly.  (Keeping every
    # op's result would grow the process with the op count.)
    first = workload.first_results
    queries = workload.ops()
    warm_until = wall() + WARMUP_S
    while wall() < warm_until:
        query = next(queries, None)
        if query is None:
            break
        workload.run_op(query)
    gc.collect()
    probe.sample()
    steal_before = steal_ticks()
    started_wall, started_cpu, spent = wall(), cpu(), probe.spent
    deadline = started_wall + seconds
    while wall() < deadline:
        probe.tick()
        query = next(queries, None)
        if query is None:  # the workload's distinct requests are used up
            break
        op = Op(op_id=len(ops), query=query, cpu_s=0.0, wall_s=0.0)
        state = None
        w0, c0 = wall(), cpu()
        try:
            if traced:
                with tracer.span("op", op.op_id):
                    op.result, state = workload.traced_op(query)
            else:
                op.result = workload.run_op(query)
        except Exception as exc:  # a failed op is counted, not fatal
            op.error = f"{type(exc).__name__}: {exc}"
        op.cpu_s, op.wall_s = cpu() - c0, wall() - w0
        op.at = w0 + op.wall_s / 2
        if op.error is None:
            if traced:
                workload.probe_op(query, op.op_id, state)
            seen = first.setdefault(id(query), (query, op.result))[1]
            if op.result != seen:
                op.error = "result differs from an earlier op of the same query"
            op.result = None
        ops.append(op)
    cpu_s = cpu() - started_cpu - (probe.spent - spent)
    wall_s = wall() - started_wall
    steal = steal_share(steal_before, steal_ticks())
    probe.sample()
    return Phase(ops, cpu_s, wall_s, steal, probe)


def verify(workload, ops: List[Op]) -> None:
    """Mark each op whose query's result differs from its reference as failed."""
    first = workload.first_results
    refs = workload.references([query for query, _ in first.values()])
    wrong = {key for key, (_, result) in first.items() if result != refs[key]}
    for op in ops:
        if op.error is None and id(op.query) in wrong:
            op.error = "result differs from reference"


def setup(workload) -> tuple:
    """Set up repeatedly; ``(median CPU s, speed factor, each CPU s)``."""
    from measure import SpeedProbe, cpu

    probe = SpeedProbe()
    seconds: List[float] = []
    while len(seconds) < SETUP_MAX_REPEATS and sum(seconds) < SETUP_MIN_S:
        if seconds:
            workload.teardown()
        gc.collect()
        for _ in range(3):
            probe.sample()
        started = cpu()
        workload.setup()
        seconds.append(cpu() - started)
        for _ in range(3):
            probe.sample()
    return statistics.median(seconds), probe.factor(), seconds


def records(phase: Phase) -> List[list]:
    """Per op: ``[type, dataset, reference ms, raw CPU ms, wall ms, error]``."""
    return [
        [op.query["type"], op.query["dataset"],
         phase.probe.normalize_ms(op.cpu_s, op.at), op.cpu_s * 1e3,
         op.wall_s * 1e3, op.error]
        for op in phase.ops
    ]


def between_ms(phase: Phase) -> float:
    """The phase's CPU outside its ops (the loop itself), in reference ms."""
    between = phase.cpu_s - sum(op.cpu_s for op in phase.ops)
    return between * 1e3 * phase.probe.factor()


def latency_metrics(rows: List[list], between: float) -> Dict[str, float]:
    """The end-to-end timing metrics of pooled op records, in ms.

    Failed ops are timed like the rest, so a wrong result still yields a
    complete result line, with ``correct`` false.
    """
    from measure import tail

    cpu_ms = [r[2] for r in rows]
    level, tail_ms = tail(cpu_ms)
    out = {
        "cpu_ms_per_op": (sum(cpu_ms) + between) / len(rows),
        "cpu_p50_ms": statistics.median(cpu_ms),
        "cpu_tail_ms": tail_ms,
        "tail_level": level,
    }
    for kind in ("join", "topk", "knn"):
        typed = [r[2] for r in rows if r[0] == kind]
        out[f"{kind}_cpu_p50_ms"] = (
            statistics.median(typed) if typed else float("nan")
        )
    return out


def row_diagnostics(rows: List[list], wall_s: float) -> dict:
    """Wall-clock and raw-CPU twins, and p50 / op count per (dataset, type)."""
    from measure import tail

    groups: Dict[str, List[float]] = {}
    for r in rows:
        groups.setdefault(f"{r[1]}/{r[0]}", []).append(r[2])
    return {
        "wall_qps": len(rows) / wall_s,
        "wall_p50_ms": statistics.median([r[4] for r in rows]),
        "wall_tail_ms": tail([r[4] for r in rows])[1],
        "raw_cpu_p50_ms": statistics.median([r[3] for r in rows]),
        "raw_cpu_tail_ms": tail([r[3] for r in rows])[1],
        "clusters_p50_ms_n": {
            key: [round(statistics.median(v), 3), len(v)]
            for key, v in sorted(groups.items())
        },
    }


def layer_metrics(workload, phase: Phase, untraced: Phase,
                  setup_factor: float, counters: Dict[str, int]) -> Dict[str, float]:
    """The per-layer ledger and counts of a traced phase."""
    from spans import check_closure, ledger

    op_ids = [op.op_id for op in phase.ops]
    means = ledger(workload.tracer, op_ids, workload.layer_of)
    if not check_closure(means):
        raise RuntimeError(f"ledger does not add up to the op CPU: {means}")
    scale = 1e3 * phase.probe.factor()
    traced_ids = set(op_ids)
    served = [
        s.duration for s in workload.tracer.spans
        if s.name == "serve.query" and s.op_id in traced_ids
    ]
    counts = workload.layer_counts()
    serve_setup = getattr(workload, "grid_build_s", None) is not None
    pairs = counters.get("funnel.object_pairs", 0)
    evaluated = counters.get("pairs.evaluated", 0)
    traced_p50 = statistics.median([r[2] for r in records(phase)])
    untraced_p50 = latency_metrics(records(untraced), 0.0)["cpu_p50_ms"]
    metrics = {
        "datasets.load_ms": means.get("datasets.load", 0.0) * scale,
        "datasets.fingerprint_ms": (
            workload.fingerprint_s * 1e3 * setup_factor if serve_setup else 0.0
        ),
        "stindex.grid_build_ms": (
            workload.grid_build_s * 1e3 * setup_factor if serve_setup
            else means.get("stindex.grid_build", 0.0) * scale
        ),
        "stindex.occupied_cells": counts.get("stindex.occupied_cells", 0.0),
        "core.join_ms": means.get("core.join", 0.0) * scale,
        "core.topk_ms": means.get("core.topk", 0.0) * scale,
        "core.knn_ms": means.get("core.knn", 0.0) * scale,
        "core.object_pairs": pairs,
        "core.match_ratio": (
            counters.get("funnel.matched", 0) / pairs if pairs else 0.0
        ),
        "core.refine_yield": (
            counters.get("pairs.emitted", 0) / evaluated if evaluated else 0.0
        ),
        "exec.chunks": counts.get("exec.chunks", 0.0),
        "serve.query_ms": sum(served) / len(op_ids) * scale,
        "serve.overhead_ms": means.get("serve.overhead", 0.0) * scale,
        "serve.cache_hit_ratio": counts.get("serve.cache_hit_ratio", 0.0),
        "serve.cache_evictions": counts.get("serve.cache_evictions", 0),
        "obs.analytics_ms": means.get("obs.analytics", 0.0) * scale,
        "http.overhead_ms": means.get("http.overhead", 0.0) * scale,
        "http.response_bytes": counts.get("http.response_bytes", 0.0),
        "unattributed_ms": means["unattributed"] * scale,
        "traced.op_cpu_ms": means["op"] * scale,
        "traced.cpu_p50_ms": traced_p50,
        "tracing.overhead_ms": traced_p50 - untraced_p50,
    }
    return metrics


def sources_digest() -> str:
    """A digest of the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for folder, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(f for f in files if f.endswith(".py")):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def check_counters(workload, counters: Dict[str, int], tiny: bool) -> Optional[str]:
    """Counted-pass counters must repeat exactly for a seed; ``None`` if so.

    The stored counters are keyed by the sources' digest as well, so only
    an earlier run of the same code is compared against: a change that
    alters the work counts starts a fresh record instead of failing.
    """
    name = (f"counters-{workload.name}-s{workload.seed}"
            f"{'-tiny' if tiny else ''}-{sources_digest()}.json")
    path = os.path.join(OUT_DIR, name)
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            previous = json.load(handle)
        if previous != counters:
            drift = sorted(
                k for k in set(previous) | set(counters)
                if previous.get(k) != counters.get(k)
            )
            return f"work counters differ from an earlier run of this seed: {drift}"
        return None
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(counters, handle, sort_keys=True)
    return None


def validate(doc: dict, bench: dict, workload: str, trace: int) -> List[str]:
    """Problems with the result line against ``BENCHMARK.json`` (empty if none)."""
    problems = []
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(doc)}")
    if not isinstance(doc.get("correct"), bool):
        problems.append("correct is not a boolean")
    attempted, failed = doc.get("attempted"), doc.get("failed")
    if not (isinstance(attempted, int) and not isinstance(attempted, bool)
            and attempted >= 1):
        problems.append(f"attempted is {attempted!r}")
    if not (isinstance(failed, int) and not isinstance(failed, bool)
            and 0 <= failed <= (attempted if isinstance(attempted, int) else 0)):
        problems.append(f"failed is {failed!r}")
    if workload not in [w["name"] for w in bench["workloads"]]:
        problems.append(f"workload {workload!r} is not declared")
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if trace else "end_to_end"]}
    metrics = doc.get("metrics", {})
    for name, unit in declared.items():
        entry = metrics.get(name)
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append(f"metric {name} missing or malformed")
            continue
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"metric {name} is not a finite number: {value!r}")
        if entry["unit"] != unit:
            problems.append(f"metric {name} has unit {entry['unit']!r}, not {unit!r}")
    for name in set(metrics) - set(declared):
        problems.append(f"metric {name} is not declared")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            bench = json.load(handle)
        import repro  # noqa: F401  (the program under test)
    except (OSError, ValueError, ImportError) as exc:
        print(f"error: cannot load the benchmark or the program: {exc}",
              file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    # One op runs at a time (the client waits for the server thread), so
    # keeping every thread on one CPU costs no throughput, and it stops
    # the scheduler's choice between a same-CPU and a cross-CPU hand-off
    # from moving the CPU time of a served op between runs.  Measuring
    # processes inherit the setting.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.trace:
        doc, diagnostics = in_workdir(traced_run, args, WORKLOADS[args.workload])
    elif args.part:
        part = in_workdir(measure_part, args, WORKLOADS[args.workload])
        with open(args.part, "w", encoding="utf-8") as handle:
            json.dump(part, handle)
        return 0
    else:
        doc, diagnostics = pooled_run(args)
        if doc is None:
            return 1
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    doc["metrics"] = {name: {"value": value, "unit": units.get(name, "?")}
                      for name, value in doc["metrics"].items()}
    problems = validate(doc, bench, args.workload, args.trace)
    if problems:
        for problem in problems:
            print(f"error: malformed result: {problem}", file=sys.stderr)
        return 3
    for name, entry in doc["metrics"].items():
        print(f"# {name:26s} {entry['value']:14.4f} {entry['unit']}")
    print("# diagnostics " + json.dumps(diagnostics, sort_keys=True, default=str))
    print(json.dumps(doc))
    return 0


def in_workdir(fn, args, workload_cls):
    """Call ``fn(args, workload)`` with a private work directory."""
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return fn(args, workload_cls(args.seed, workdir, args.tiny))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_part(args, workload) -> dict:
    """One measuring process: set up, run the timed phase, verify."""
    import measure

    part: Dict[str, Any] = {"calib_ms_before": measure.calib_ms()}
    setup_s, setup_factor, setup_raw = setup(workload)
    try:
        phase = run_phase(workload, args.seconds, False)
        part["peak_rss_mb"] = measure.peak_rss_mb()
    finally:
        workload.teardown()
    part["calib_ms_after"] = measure.calib_ms()
    verify(workload, phase.ops)
    part.update(
        rows=records(phase),
        between_ms=between_ms(phase),
        wall_s=phase.wall_s,
        steal_share=phase.steal,
        probe_loop_ms=phase.probe.loop_median_ms(),
        setup_s=setup_s * setup_factor,
        setup_raw_s=setup_raw,
        sizes=workload.sizes,
        **workload.sizes_extra(),
    )
    return part


def pooled_run(args):
    """Run ``PROCESSES`` measuring processes in turn and pool their ops."""
    import subprocess

    import measure

    parts = []
    for index in range(PROCESSES):
        path = os.path.join(OUT_DIR, f"part-{os.getpid()}-{index}.json")
        command = [
            sys.executable, os.path.abspath(__file__),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds / PROCESSES), "--trace", "0",
            "--part", path,
        ] + (["--tiny"] if args.tiny else [])
        timeout = 3 * args.seconds / PROCESSES + PART_ALLOWANCE_S
        try:
            done = subprocess.run(command, cwd=ROOT, timeout=timeout)
            if done.returncode != 0:
                print(f"error: measuring process {index} exited with "
                      f"{done.returncode}", file=sys.stderr)
                return None, None
            with open(path, encoding="utf-8") as handle:
                parts.append(json.load(handle))
        except subprocess.TimeoutExpired:
            print(f"error: measuring process {index} did not finish within "
                  f"{timeout:.0f} s", file=sys.stderr)
            return None, None
        finally:
            if os.path.exists(path):
                os.remove(path)
    rows = [row for part in parts for row in part["rows"]]
    latency = latency_metrics(rows, sum(p["between_ms"] for p in parts))
    values = {name: latency[name] for name in (
        "cpu_ms_per_op", "cpu_p50_ms", "cpu_tail_ms",
        "join_cpu_p50_ms", "topk_cpu_p50_ms", "knn_cpu_p50_ms",
    )}
    values["setup_s"] = statistics.median(p["setup_s"] for p in parts)
    values["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in parts)
    failed = [r for r in rows if r[5] is not None]
    diagnostics: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "trace": 0,
        "processes": PROCESSES, "ops": len(rows),
        "tail_level_pct": latency["tail_level"],
        "error_rate": len(failed) / len(rows),
    }
    diagnostics.update(measure.host_info())
    diagnostics.update(row_diagnostics(rows, sum(p["wall_s"] for p in parts)))
    for key in ("steal_share", "probe_loop_ms", "calib_ms_before",
                "calib_ms_after", "setup_s", "peak_rss_mb"):
        diagnostics[f"{key}_per_process"] = [p[key] for p in parts]
    for key in set(parts[0]) - {"rows", "between_ms", "wall_s", "steal_share",
                                "probe_loop_ms", "calib_ms_before",
                                "calib_ms_after", "setup_s", "peak_rss_mb"}:
        diagnostics[key] = parts[0][key]
    if failed:
        diagnostics["first_failure"] = failed[0][5]
    doc = {"correct": not failed, "attempted": len(rows),
           "failed": len(failed), "metrics": values}
    return doc, diagnostics


def traced_run(args, workload):
    """The traced run: an untraced phase, then a traced one, in this process."""
    import measure

    diagnostics: Dict[str, Any] = {"workload": args.workload, "seed": args.seed,
                                   "trace": 1}
    diagnostics.update(measure.host_info())
    diagnostics["calib_ms_before"] = measure.calib_ms()
    _, setup_factor, _ = setup(workload)
    try:
        untraced = run_phase(workload, args.seconds * UNTRACED_SHARE, False)
        workload.start_tracing()
        try:
            phase = run_phase(workload, args.seconds, True)
        finally:
            workload.stop_tracing()
    finally:
        workload.teardown()
    diagnostics["calib_ms_after"] = measure.calib_ms()
    ops = untraced.ops + phase.ops
    verify(workload, ops)
    failed = [op for op in ops if op.error is not None]
    counters = workload.counted_pass()
    drift = check_counters(workload, counters, args.tiny)
    if drift:
        diagnostics["counter_drift"] = drift
    values = layer_metrics(workload, phase, untraced, setup_factor, counters)
    trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-s{args.seed}.jsonl")
    workload.tracer.write(trace_path)
    diagnostics.update(
        trace_file=os.path.relpath(trace_path, ROOT),
        counters=counters,
        ops=len(phase.ops),
        error_rate=len(failed) / len(ops),
        steal_share=phase.steal,
        probe_loop_ms=phase.probe.loop_median_ms(),
        sizes=workload.sizes,
        **workload.sizes_extra(),
    )
    diagnostics.update(row_diagnostics(records(phase), phase.wall_s))
    if failed:
        diagnostics["first_failure"] = failed[0].error
    doc = {"correct": not failed and not drift, "attempted": len(ops),
           "failed": len(failed), "metrics": values}
    return doc, diagnostics


if __name__ == "__main__":
    # String hashing is randomized per process, and the order in which
    # sets of user ids and keywords iterate moves the work counters (by a
    # few object pairs and early terminations), so fix it for every run.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(
            sys.executable,
            [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    sys.exit(main())
