"""The fused and the scalar evaluation tiers on the sequential join hot path.

S-PPJ-C and S-PPJ-B have two pair evaluators.  A plain ``stps_join``
evaluates whole partner rows with the fused numpy batch kernel of
:mod:`repro.core.kernels`; a run with work counters (``stats=`` or
telemetry) evaluates pair by pair with the scalar
:func:`~repro.core.pair_eval.ppj_c_pair` / :func:`~repro.core.pair_eval.ppj_b_pair`.
This benchmark times a plain ``stps_join`` against a loop of the scalar
evaluator over every user pair on a prebuilt grid (the grid build is
left out of the scalar time, which only flatters the scalar side), on
a grown 400-user workload, and checks:

* the two result lists are byte-identical (user pairs *and* the float
  scores, compared via ``float.hex`` so not even a last-bit drift
  passes);
* the fused tier is at least 1.5x faster on both algorithms.

The deterministic work counters of an instrumented S-PPJ-C run at the
legacy size go into the payload's ``counters`` section, which
``scripts/check_bench_regression.py`` gates exactly.

The direct run writes ``BENCH_kernels.json``; CI's perf-smoke job gates
``results.speedup_sppj_c`` and ``results.speedup_sppj_b`` at >= 1.5 and
the identity flags at 1.0 via ``scripts/check_bench_regression.py``.

Run under pytest (``pytest benchmarks/bench_kernels.py
--benchmark-only``) for harness timings, or directly (``python
benchmarks/bench_kernels.py [--users N]``) for the table + JSON.
"""

import argparse
import os
import sys
import time

import pytest

from repro import Telemetry, stps_join
from repro.bench.reporting import write_bench_json
from repro.core.pair_eval import ppj_b_pair, ppj_c_pair
from repro.core.query import UserPair, pair_sort_key
from repro.stindex.stgrid import STGridIndex

from _common import REPO_ROOT, dataset_for, thresholds_for

PRESET = "twitter"
#: The grown speedup workload (the scalar loop takes ~5 s here).
MAIN_USERS = 400
#: Counter workload: the instrumented run takes the scalar tier, so the
#: counters are recorded at the legacy size.
PARITY_USERS = 150
ALGORITHMS = ("s-ppj-c", "s-ppj-b")

#: The acceptance floor CI enforces via --min-result.
MIN_SPEEDUP = 1.5


def _thresholds():
    return thresholds_for(PRESET)


def scalar_join(dataset, index, algorithm):
    """Every user pair through the scalar evaluator, canonically sorted."""
    eps_loc, eps_doc, eps_user = _thresholds()
    users = dataset.users
    sizes = [len(dataset.user_objects(u)) for u in users]
    out = []
    for i in range(len(users)):
        for j in range(i + 1, len(users)):
            total = sizes[i] + sizes[j]
            if not total:
                continue
            if algorithm == "s-ppj-c":
                score = ppj_c_pair(
                    index, users[i], users[j], eps_loc, eps_doc
                ) / total
            else:
                score = ppj_b_pair(
                    index, users[i], users[j], eps_loc, eps_doc, eps_user,
                    sizes[i], sizes[j],
                )
            if score >= eps_user:
                out.append(UserPair(users[i], users[j], score))
    out.sort(key=pair_sort_key)
    return out


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("tier", ["scalar", "fused"])
def test_evaluation_tier(run_once, algorithm, tier):
    dataset = dataset_for(PRESET, PARITY_USERS)
    eps_loc, eps_doc, eps_user = _thresholds()
    if tier == "fused":
        result = run_once(
            stps_join, dataset, eps_loc, eps_doc, eps_user, algorithm=algorithm
        )
    else:
        index = STGridIndex.build(dataset, eps_loc, with_tokens=False)
        result = run_once(scalar_join, dataset, index, algorithm)
    assert isinstance(result, list)


def _identical(a, b) -> bool:
    """Byte-level equality: pair identity and exact float scores."""
    if len(a) != len(b):
        return False
    return all(
        pa.user_a == pb.user_a
        and pa.user_b == pb.user_b
        and pa.score.hex() == pb.score.hex()
        for pa, pb in zip(a, b)
    )


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        description="fused vs scalar S-PPJ-C/B evaluation benchmark"
    )
    parser.add_argument(
        "--users",
        type=int,
        default=MAIN_USERS,
        help="users in the timed workload (default: %(default)s)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    dataset = dataset_for(PRESET, args.users)
    eps_loc, eps_doc, eps_user = _thresholds()
    cpus = os.cpu_count() or 1
    print(
        f"evaluation tiers on {PRESET} ({args.users} users, "
        f"{dataset.num_objects} objects), {cpus} CPUs"
    )

    phases = {}
    results = {}
    failures = []
    index = STGridIndex.build(dataset, eps_loc, with_tokens=False)
    for algorithm in ALGORITHMS:
        name = algorithm.replace("-", "_")
        key = name.replace("s_ppj", "sppj")
        start = time.perf_counter()
        scalar = scalar_join(dataset, index, algorithm)
        phases[f"{name}_scalar"] = scalar_s = time.perf_counter() - start
        start = time.perf_counter()
        fused = stps_join(
            dataset, eps_loc, eps_doc, eps_user, algorithm=algorithm
        )
        phases[f"{name}_fused"] = fused_s = time.perf_counter() - start
        speedup = scalar_s / fused_s
        results[f"speedup_{key}"] = speedup
        identical = _identical(fused, scalar)
        results[f"identical_{key}"] = 1.0 if identical else 0.0
        print(
            f"  {algorithm}: scalar {scalar_s:8.3f}s  fused {fused_s:8.3f}s  "
            f"speedup {speedup:4.2f}x  results "
            f"{'identical' if identical else 'DIVERGED'}"
        )
        if not identical:
            failures.append(f"{algorithm}: fused results diverged from scalar")
        if speedup < MIN_SPEEDUP:
            failures.append(
                f"{algorithm}: speedup {speedup:.2f}x below {MIN_SPEEDUP}x"
            )

    tele = Telemetry()
    stps_join(
        dataset_for(PRESET, PARITY_USERS), eps_loc, eps_doc, eps_user,
        algorithm=ALGORITHMS[0], telemetry=tele,
    )
    path = write_bench_json(
        "kernels",
        config={
            "preset": PRESET,
            "num_users": args.users,
            "parity_num_users": PARITY_USERS,
            "algorithms": list(ALGORITHMS),
            "cpus": cpus,
        },
        phases=phases,
        results=results,
        counters=tele.work_counters(),
        directory=REPO_ROOT,
    )
    print(f"wrote {path}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"OK: fused tier byte-identical and >= {MIN_SPEEDUP}x on both "
          "algorithms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
