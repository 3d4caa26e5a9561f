"""Parallel speedup of the execution engine (workers 1 / 2 / 4).

Measures S-PPJ-B — the embarrassingly parallel pairwise algorithm with
the heaviest per-pair work — through :class:`repro.exec.JoinExecutor`
with the process backend at 1, 2 and 4 workers, plus the sequential
algorithm as the no-engine baseline.  S-PPJ-F rides along at a single
worker count to show the user-shard decomposition.

Run under pytest (``pytest benchmarks/bench_parallel_speedup.py
--benchmark-only``) for the harness timings, or directly (``python
benchmarks/bench_parallel_speedup.py [--workers 1,2,4] [--users N]``)
for a wall-clock speedup table.  The speedup expectation at 4 workers
only applies on machines with at least 4 CPUs; on smaller hosts the
script still prints the curve but skips the assertion (parallel speedup
on a 1-core box is not physics).

The direct run measures three things and writes them all to
``BENCH_parallel_speedup.json`` at the repository root:

* the parallel speedup curve on the *grown* default workload
  (``--users 800``: plain S-PPJ-B runs the fused batch tier, which
  finishes 400 users in about 0.3 s, where pool startup dominates the
  curve), plus the 150-user sequential run
  (phase ``join_workers_1_users_150``) that stays directly comparable to
  the ``join_workers_1`` phase of older committed baselines;
* chunk-level load balance: ``chunk_imbalance`` is the max/median of the
  engine's per-chunk wall-clock (``report.chunk_seconds``) at the
  highest worker count — the cost-model chunking keeps it ≤ 1.5;
* the telemetry overhead budget (see ``docs/observability.md``), on
  S-PPJ-F, whose instrumented and plain runs share one evaluator: an
  enabled :class:`repro.Telemetry` may cost at most 5% over the
  uninstrumented engine run, a disabled one at most 1%, and a full
  EXPLAIN run (enabled telemetry + report + ``build_explain``) at most
  5% as well;
* the deterministic work counters of the legacy 150-user run, recorded
  into the payload's ``counters`` section so
  ``scripts/check_bench_regression.py`` can gate on them exactly.
"""

import argparse
import multiprocessing
import os
import statistics
import sys
import time

import pytest

from repro import Telemetry, stps_join
from repro.bench.reporting import write_bench_json
from repro.core.query import STPSJoinQuery
from repro.exec import JoinExecutor

from _common import REPO_ROOT, dataset_for, thresholds_for

PRESET = "twitter"
#: Users for the pytest harness timings and the legacy-comparable phase.
NUM_USERS = 150
#: Users for the direct run's speedup curve — big enough that the fused
#: join dominates pool startup (~1.8s sequential on a 2-vCPU VM).
MAIN_USERS = 800
WORKER_COUNTS = (1, 2, 4)

#: Ceiling on max/median per-chunk wall-clock under cost-model chunking.
MAX_CHUNK_IMBALANCE = 1.5

fork_available = "fork" in multiprocessing.get_all_start_methods()


def _query():
    eps_loc, eps_doc, eps_user = thresholds_for(PRESET)
    return STPSJoinQuery(eps_loc, eps_doc, eps_user)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.skipif(not fork_available, reason="fork start method unavailable")
def test_sppj_b_speedup(run_once, workers):
    dataset = dataset_for(PRESET, NUM_USERS)
    executor = JoinExecutor(workers=workers, backend="process", start_method="fork")
    result = run_once(executor.join, dataset, _query(), algorithm="s-ppj-b")
    assert isinstance(result, list)


@pytest.mark.skipif(not fork_available, reason="fork start method unavailable")
def test_sppj_f_parallel(run_once):
    dataset = dataset_for(PRESET, NUM_USERS)
    executor = JoinExecutor(workers=2, backend="process", start_method="fork")
    result = run_once(executor.join, dataset, _query(), algorithm="s-ppj-f")
    assert isinstance(result, list)


def test_sequential_baseline(run_once):
    dataset = dataset_for(PRESET, NUM_USERS)
    eps_loc, eps_doc, eps_user = thresholds_for(PRESET)
    result = run_once(
        stps_join, dataset, eps_loc, eps_doc, eps_user, algorithm="s-ppj-b"
    )
    assert isinstance(result, list)


#: Telemetry overhead budgets the observability docs promise.  The
#: explain budget matches the enabled budget: building the
#: :class:`repro.obs.ExplainReport` is a post-run aggregation over
#: already-collected counters, not extra per-pair instrumentation.
MAX_TELEMETRY_OVERHEAD = 0.05
MAX_DISABLED_OVERHEAD = 0.01
MAX_EXPLAIN_OVERHEAD = 0.05
#: Rounds of the paired telemetry estimate (every arm once per round).
TELEMETRY_ROUNDS = 21
#: The telemetry arms time S-PPJ-F: its plain and instrumented runs take
#: the same scalar evaluator, so the gap is instrumentation alone (plain
#: S-PPJ-C/B take the fused batch tier, which counts nothing, so their
#: instrumented runs would time the other tier — bench_kernels.py
#: compares the tiers).
TELEMETRY_ALGORITHM = "s-ppj-f"


def _explain_run(executor, dataset, query):
    from repro.obs import build_explain

    tele = Telemetry()
    _pairs, report = executor.join(
        dataset, query, algorithm=TELEMETRY_ALGORITHM, telemetry=tele,
        with_report=True,
    )
    build_explain(tele, report, dataset=dataset)


def _telemetry_overhead(dataset, query):
    """Per-arm telemetry overhead against no telemetry, paired by round.

    Four arms — no telemetry, disabled, enabled, explain — all run the
    sequential backend so the numbers isolate the instrumentation cost
    from scheduling noise, and each is timed in process CPU seconds: the
    run is single-threaded, so CPU time is its whole cost.  Each round
    runs every arm once, in an order rotated by one position per round
    so no arm always runs first or last, and each arm is scored by its
    ratio to the ``none`` run *of the same round*: a slow stretch of the
    host hits both sides of a ratio.  The estimate of an arm is the
    median of its per-round ratios minus one — one outlier round moves a
    median by one rank, not by its size.  With per-round ratios spread
    by σ, the median's standard error is about
    ``1.25 σ / sqrt(TELEMETRY_ROUNDS)``, so the 1% disabled budget is
    resolved where σ is a few percent; the quartiles of the ratios are
    returned so a report shows the resolution it had.

    A disabled Telemetry must be indistinguishable from none at all (the
    engine short-circuits it); the explain configuration additionally
    assembles the :class:`repro.obs.ExplainReport` after the run.  All
    four configurations run :data:`TELEMETRY_ALGORITHM`, so they time
    the *same* evaluation path.

    Returns ``({arm: median seconds}, {arm: overhead}, {arm: (q1, q3)})``.
    """
    executor = JoinExecutor(workers=1, backend="sequential")
    configs = {
        "none": lambda: executor.join(
            dataset, query, algorithm=TELEMETRY_ALGORITHM
        ),
        "disabled": lambda: executor.join(
            dataset, query, algorithm=TELEMETRY_ALGORITHM,
            telemetry=Telemetry(enabled=False),
        ),
        "enabled": lambda: executor.join(
            dataset, query, algorithm=TELEMETRY_ALGORITHM,
            telemetry=Telemetry(),
        ),
        "explain": lambda: _explain_run(executor, dataset, query),
    }
    for fn in configs.values():  # warm-up, untimed
        fn()
    names = list(configs)
    times = {name: [] for name in names}
    ratios = {name: [] for name in names if name != "none"}
    for round_no in range(TELEMETRY_ROUNDS):
        shift = round_no % len(names)
        spent = {}
        for name in names[shift:] + names[:shift]:
            start = time.process_time()
            configs[name]()
            spent[name] = time.process_time() - start
        for name, seconds in spent.items():
            times[name].append(seconds)
        for name, values in ratios.items():
            values.append(spent[name] / spent["none"])
    overhead = {
        name: statistics.median(values) - 1.0 for name, values in ratios.items()
    }
    quartiles = {}
    for name, values in ratios.items():
        q1, _, q3 = statistics.quantiles(values, n=4)
        quartiles[name] = (q1 - 1.0, q3 - 1.0)
    medians = {name: statistics.median(values) for name, values in times.items()}
    return medians, overhead, quartiles


def _chunk_imbalance(report) -> float:
    """Max/median of the per-chunk wall-clock; 1.0 for trivial runs."""
    chunk_times = sorted(report.chunk_seconds.values())
    if len(chunk_times) < 2 or chunk_times[-1] <= 0.0:
        return 1.0
    return chunk_times[-1] / statistics.median(chunk_times)


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        description="S-PPJ-B parallel speedup + chunk balance benchmark"
    )
    parser.add_argument(
        "--workers",
        default=",".join(str(w) for w in WORKER_COUNTS),
        help="comma-separated worker counts (default: %(default)s)",
    )
    parser.add_argument(
        "--users",
        type=int,
        default=MAIN_USERS,
        help="users in the speedup workload (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    args.worker_counts = tuple(
        int(w) for w in args.workers.split(",") if w.strip()
    )
    if not args.worker_counts or any(w < 1 for w in args.worker_counts):
        parser.error("--workers needs positive integers")
    return args


def main(argv=None) -> int:
    """Wall-clock speedup table: S-PPJ-B across worker counts."""
    args = _parse_args(argv)
    worker_counts = args.worker_counts
    dataset = dataset_for(PRESET, args.users)
    query = _query()
    cpus = os.cpu_count() or 1
    print(
        f"S-PPJ-B on {PRESET} ({args.users} users, "
        f"{dataset.num_objects} objects), {cpus} CPUs"
    )

    reference = None
    times = {}
    imbalances = {}
    for workers in worker_counts:
        executor = JoinExecutor(workers=workers, backend="process")
        start = time.perf_counter()
        result, report = executor.join(
            dataset, query, algorithm="s-ppj-b", with_report=True
        )
        elapsed = time.perf_counter() - start
        times[workers] = elapsed
        imbalances[workers] = _chunk_imbalance(report)
        if reference is None:
            reference = result
        elif result != reference:
            print("FAIL: parallel result diverged from workers=1")
            return 1
        speedup = times[worker_counts[0]] / elapsed
        print(
            f"  workers={workers}: {elapsed:8.3f}s  speedup {speedup:4.2f}x  "
            f"chunk imbalance {imbalances[workers]:4.2f} "
            f"({len(report.chunk_seconds)} chunks)"
        )

    # The 150-user sequential phase keeps one number directly comparable
    # to the `join_workers_1` phase of pre-grown committed baselines.  The
    # same run collects the deterministic work counters the regression
    # checker gates on exactly (the legacy workload is fixed-seed, so the
    # counters are reproducible across hosts and backends).
    legacy_dataset = dataset_for(PRESET, NUM_USERS)
    seq_executor = JoinExecutor(workers=1, backend="sequential")
    legacy_tele = Telemetry()
    start = time.perf_counter()
    seq_executor.join(
        legacy_dataset, query, algorithm="s-ppj-b", telemetry=legacy_tele
    )
    seq_150 = time.perf_counter() - start
    work_counters = legacy_tele.work_counters()
    print(f"  sequential ({NUM_USERS} users, legacy workload): {seq_150:8.3f}s")

    medians, overhead, quartiles = _telemetry_overhead(dataset, query)
    base = medians["none"]
    overhead_on = overhead["enabled"]
    overhead_off = overhead["disabled"]
    overhead_explain = overhead["explain"]
    print(
        f"telemetry ({TELEMETRY_ALGORITHM}, sequential backend, median of "
        f"{TELEMETRY_ROUNDS} paired rounds, ratio quartiles in brackets):"
    )
    print(f"  none                     : {base:8.3f}s")
    for name in ("disabled", "enabled", "explain"):
        q1, q3 = quartiles[name]
        print(
            f"  {name:<25}: {overhead[name]:+8.1%}  [{q1:+.1%} .. {q3:+.1%}]"
        )

    top_workers = max(worker_counts)
    base_workers = min(worker_counts)
    top_speedup = times[base_workers] / times[top_workers]
    chunk_imbalance = imbalances[top_workers]
    results = {
        f"speedup_at_{top_workers}": top_speedup,
        "chunk_imbalance": chunk_imbalance,
        "telemetry_overhead_enabled": overhead_on,
        "telemetry_overhead_disabled": overhead_off,
        "telemetry_overhead_explain": overhead_explain,
    }
    path = write_bench_json(
        "parallel_speedup",
        config={
            "preset": PRESET,
            "num_users": args.users,
            "legacy_num_users": NUM_USERS,
            "algorithm": "s-ppj-b",
            "telemetry_algorithm": TELEMETRY_ALGORITHM,
            "worker_counts": list(worker_counts),
            "cpus": cpus,
            "telemetry_rounds": TELEMETRY_ROUNDS,
        },
        phases={
            **{f"join_workers_{w}": t for w, t in times.items()},
            f"join_workers_1_users_{NUM_USERS}": seq_150,
            **{f"telemetry_{name}": t for name, t in medians.items()},
        },
        results={
            **results,
            **{
                f"telemetry_overhead_{name}_{edge}": value
                for name, (q1, q3) in quartiles.items()
                for edge, value in (("q1", q1), ("q3", q3))
            },
            **{
                f"chunk_imbalance_workers_{w}": v
                for w, v in imbalances.items()
            },
        },
        counters=work_counters,
        directory=REPO_ROOT,
    )
    print(f"wrote {path}")

    # Like the speedup assertion below, the imbalance gate needs a core
    # per worker: on an oversubscribed host per-chunk wall-clock measures
    # scheduler interference between time-sliced workers, not chunking.
    if cpus >= top_workers:
        if chunk_imbalance > MAX_CHUNK_IMBALANCE:
            print(
                f"FAIL: chunk imbalance {chunk_imbalance:.2f} at "
                f"{top_workers} workers exceeds {MAX_CHUNK_IMBALANCE}"
            )
            return 1
        print(
            f"OK: chunk imbalance {chunk_imbalance:.2f} at {top_workers} workers"
        )
    else:
        print(
            f"note: {cpus} CPU(s), {top_workers} max workers — imbalance "
            f"assertion skipped (got {chunk_imbalance:.2f})"
        )

    if overhead_on > MAX_TELEMETRY_OVERHEAD:
        print(
            f"FAIL: enabled-telemetry overhead {overhead_on:.1%} exceeds "
            f"{MAX_TELEMETRY_OVERHEAD:.0%}"
        )
        return 1
    if overhead_off > MAX_DISABLED_OVERHEAD:
        print(
            f"FAIL: disabled-telemetry overhead {overhead_off:.1%} exceeds "
            f"{MAX_DISABLED_OVERHEAD:.0%}"
        )
        return 1
    if overhead_explain > MAX_EXPLAIN_OVERHEAD:
        print(
            f"FAIL: explain overhead {overhead_explain:.1%} exceeds "
            f"{MAX_EXPLAIN_OVERHEAD:.0%}"
        )
        return 1
    print(
        f"OK: telemetry overhead {overhead_on:+.1%} enabled / "
        f"{overhead_off:+.1%} disabled / {overhead_explain:+.1%} explain"
    )

    if top_workers >= 4 and cpus >= top_workers:
        if top_speedup < 1.8:
            print(
                f"FAIL: expected >=1.8x speedup at {top_workers} workers, "
                f"got {top_speedup:.2f}x"
            )
            return 1
        print(f"OK: {top_speedup:.2f}x speedup at {top_workers} workers")
    else:
        print(
            f"note: {cpus} CPU(s), {top_workers} max workers — speedup "
            f"assertion skipped (got {top_speedup:.2f}x)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
