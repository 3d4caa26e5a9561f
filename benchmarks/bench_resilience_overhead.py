"""Overhead of an idle execution policy over no policy.

Every run goes through the engine's one dispatch loop; a run without an
:class:`repro.exec.ExecutionPolicy` runs it under the exact policy (no
deadline, no retries, one chunk on one worker).  An armed but
never-triggering policy — a deadline and retries — costs the deadline
checks and, because a deadline needs between-chunk checkpoints, the
plan's cost-model chunks instead of one chunk.  This benchmark pins that
cost with numbers:

* ``python benchmarks/bench_resilience_overhead.py`` compares the
  median wall-clock of a sequential S-PPJ-B run under an idle policy
  (``deadline=3600, max_retries=2``) against the same run with no
  policy, and **fails** if the idle policy costs more than 3%.

Run under pytest (``pytest benchmarks/bench_resilience_overhead.py
--benchmark-only``) for harness timings of the same two configurations.
"""

import statistics
import sys
import time

from repro import ExecutionPolicy
from repro.bench.reporting import write_bench_json
from repro.core.query import STPSJoinQuery
from repro.exec import JoinExecutor

from _common import REPO_ROOT, dataset_for, thresholds_for

PRESET = "twitter"
NUM_USERS = 120
ROUNDS = 5
MAX_OVERHEAD = 0.03


def _query():
    eps_loc, eps_doc, eps_user = thresholds_for(PRESET)
    return STPSJoinQuery(eps_loc, eps_doc, eps_user)


def test_engine_no_policy(run_once):
    dataset = dataset_for(PRESET, NUM_USERS)
    executor = JoinExecutor(workers=1, backend="sequential")
    result = run_once(executor.join, dataset, _query(), algorithm="s-ppj-b")
    assert isinstance(result, list)


def test_engine_with_idle_policy(run_once):
    dataset = dataset_for(PRESET, NUM_USERS)
    executor = JoinExecutor(
        workers=1,
        backend="sequential",
        policy=ExecutionPolicy(deadline=3600.0, max_retries=2),
    )
    result = run_once(executor.join, dataset, _query(), algorithm="s-ppj-b")
    assert isinstance(result, list)


def _interleaved_medians(configs, rounds=ROUNDS):
    """Median wall-clock per configuration, rounds interleaved.

    Interleaving (a, b, c, a, b, c, ...) instead of timing each
    configuration as a block keeps slow clock drift on a busy host from
    being attributed to whichever block happened to run last.
    """
    for fn in configs.values():  # warm-up, untimed
        fn()
    times = {name: [] for name in configs}
    for _ in range(rounds):
        for name, fn in configs.items():
            start = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - start)
    return {name: statistics.median(vals) for name, vals in times.items()}


def main() -> int:
    dataset = dataset_for(PRESET, NUM_USERS)
    query = _query()
    print(
        f"resilience overhead on {PRESET} ({NUM_USERS} users, "
        f"{dataset.num_objects} objects), median of {ROUNDS}"
    )

    no_policy = JoinExecutor(workers=1, backend="sequential")
    idle = JoinExecutor(
        workers=1,
        backend="sequential",
        policy=ExecutionPolicy(deadline=3600.0, max_retries=2),
    )
    medians = _interleaved_medians({
        "engine": lambda: no_policy.join(dataset, query, algorithm="s-ppj-b"),
        "idle": lambda: idle.join(dataset, query, algorithm="s-ppj-b"),
    })
    engine = medians["engine"]
    with_policy = medians["idle"]
    overhead = with_policy / engine - 1.0
    print(f"  engine, no policy        : {engine:8.3f}s")
    print(f"  engine, idle policy      : {with_policy:8.3f}s  ({overhead:+.1%})")

    path = write_bench_json(
        "resilience_overhead",
        config={
            "preset": PRESET,
            "num_users": NUM_USERS,
            "algorithm": "s-ppj-b",
            "rounds": ROUNDS,
            "max_overhead": MAX_OVERHEAD,
        },
        phases={
            "engine_no_policy": engine,
            "engine_idle_policy": with_policy,
        },
        results={"idle_policy_overhead": overhead},
        directory=REPO_ROOT,
    )
    print(f"wrote {path}")

    if overhead > MAX_OVERHEAD:
        print(
            f"FAIL: idle-policy overhead {overhead:.1%} exceeds "
            f"{MAX_OVERHEAD:.0%}"
        )
        return 1
    print(f"OK: idle-policy overhead {overhead:+.1%} within {MAX_OVERHEAD:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
