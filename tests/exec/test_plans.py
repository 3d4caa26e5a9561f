"""One plan per algorithm name, and runs that do not depend on the hash seed.

Every algorithm has exactly one implementation: its plan.  The plain API,
the ``workers=`` route, EXPLAIN and the resident server all resolve a
name to the same plan, so a served ``topk-s-ppj-p`` really runs
TOPK-S-PPJ-P.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro import (
    JOIN_ALGORITHMS,
    TOPK_ALGORITHMS,
    ExecutionPolicy,
    Telemetry,
    generate_dataset,
    preset,
    topk_stps_join,
)
from repro.core.query import TopKQuery
from repro.exec import JOIN_PLANS, TOPK_PLANS, get_plan
from repro.serve import JoinService

JOIN_NAMES = {"naive", "s-ppj-c", "s-ppj-b", "s-ppj-f", "s-ppj-d"}
TOPK_NAMES = {"naive", "topk-s-ppj-f", "topk-s-ppj-s", "topk-s-ppj-p", "topk-s-ppj-d"}

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


class TestRegistry:
    def test_every_name_resolves_to_its_own_plan(self):
        assert JOIN_ALGORITHMS is JOIN_PLANS
        assert TOPK_ALGORITHMS is TOPK_PLANS
        for kind, names, registry in (
            ("join", JOIN_NAMES, JOIN_PLANS),
            ("topk", TOPK_NAMES, TOPK_PLANS),
        ):
            assert set(registry) == names
            plans = [get_plan(kind, name) for name in sorted(names)]
            assert len({id(plan) for plan in plans}) == len(names)
            for name, plan in zip(sorted(names), plans):
                assert plan.name == name
                assert plan.kind == kind

    def test_topk_plans_walk_their_own_user_order(self):
        dataset = generate_dataset(preset("twitter"), seed=5, num_users=30)
        query = TopKQuery(0.01, 0.3, 3)
        orders = {
            name: get_plan("topk", name).build_state(dataset, query)["order"]
            for name in ("topk-s-ppj-f", "topk-s-ppj-s", "topk-s-ppj-p",
                         "topk-s-ppj-d")
        }
        size = lambda u: len(dataset.user_objects(u))  # noqa: E731
        rank = {u: i for i, u in enumerate(dataset.users)}
        ascending = sorted(dataset.users, key=lambda u: (size(u), rank[u]))
        assert orders["topk-s-ppj-f"] == ascending
        assert orders["topk-s-ppj-p"] == ascending
        assert orders["topk-s-ppj-d"] == ascending
        assert sorted(orders["topk-s-ppj-s"]) == sorted(dataset.users)
        assert orders["topk-s-ppj-s"] != ascending

    def test_served_topk_reports_the_requested_algorithm(self, monkeypatch):
        from repro.serve import service as service_module

        reports = []
        real = service_module.topk_stps_join

        def spy(*args, **kwargs):
            result = real(*args, **kwargs)
            reports.append(result[1])  # (pairs, report, explain)
            return result

        monkeypatch.setattr(service_module, "topk_stps_join", spy)
        dataset = generate_dataset(preset("twitter"), seed=5, num_users=30)
        service = JoinService(cache_capacity=8)
        service.register_dataset("demo", dataset)
        response = service.query(
            {
                "type": "topk",
                "dataset": "demo",
                "algorithm": "topk-s-ppj-p",
                "eps_loc": 0.01,
                "eps_doc": 0.3,
                "k": 3,
                "explain": True,
            }
        )
        assert [r.algorithm for r in reports] == ["topk:topk-s-ppj-p"]
        assert response["explain"]["algorithm"] == "topk:topk-s-ppj-p"


@pytest.mark.parametrize(
    "algorithm", ["topk-s-ppj-f", "topk-s-ppj-s", "topk-s-ppj-p", "topk-s-ppj-d"]
)
def test_deadline_chunks_keep_topk_pruning(algorithm):
    """A deadline keeps cost chunks as checkpoints.  They run in the
    plan's user order and each prunes against the k-th best score of the
    chunks before it, so the work stays near the one-chunk run's (each
    chunk's own heap restarting at 0 cost about a third more here)."""
    dataset = generate_dataset(preset("twitter"), seed=5, num_users=60)
    runs = {}
    for name, policy in (("plain", None), ("deadline", ExecutionPolicy(deadline=30))):
        telemetry = Telemetry()
        pairs, report = topk_stps_join(
            dataset, 0.01, 0.3, 5, algorithm=algorithm, policy=policy,
            telemetry=telemetry, with_report=True,
        )
        runs[name] = (pairs, report, telemetry.work_counters())
    plain, deadline = runs["plain"], runs["deadline"]
    assert plain[1].chunks_total == 1 and deadline[1].chunks_total > 1
    assert deadline[0] == plain[0]
    work = [run[2]["funnel.object_pairs"] for run in (plain, deadline)]
    assert work[0] <= work[1] <= 1.1 * work[0]


#: Counted runs on string user ids, whose set order follows the hash
#: seed; argv names the query kind and the algorithms.  Refining
#: candidates in set order once made the top-k counters differ between
#: hash seeds.
_COUNTED_RUN = """
import json
import random
import sys
from repro import STDataset, Telemetry, generate_dataset, preset, stps_join, topk_stps_join
base = generate_dataset(preset("twitter"), seed=7, num_users=120, objects_scale=0.35)
rng = random.Random(7)
names = {u: "u%08x" % rng.getrandbits(32) for u in base.users}
dataset = STDataset.from_records(
    [(names[o.user], o.x, o.y, base.vocab.decode(o.doc)) for o in base.objects]
)
out = {}
for algorithm in sys.argv[2:]:
    telemetry = Telemetry()
    if sys.argv[1] == "join":
        pairs = stps_join(
            dataset, 0.01, 0.3, 0.2, algorithm=algorithm, telemetry=telemetry
        )
    else:
        pairs = topk_stps_join(
            dataset, 0.01, 0.3, 5, algorithm=algorithm, telemetry=telemetry
        )
    out[algorithm] = {
        "pairs": [[p.user_a, p.user_b, p.score] for p in pairs],
        "counters": telemetry.work_counters(),
    }
print(json.dumps(out, sort_keys=True))
"""


def _counted_run(hash_seed: str, kind: str, algorithms) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", _COUNTED_RUN, kind, *algorithms],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout)


def _assert_hash_seed_independent(kind: str, algorithms) -> None:
    first = _counted_run("0", kind, algorithms)
    second = _counted_run("1", kind, algorithms)
    for algorithm in algorithms:
        assert first[algorithm]["counters"]["funnel.object_pairs"] > 0
        assert second[algorithm] == first[algorithm], algorithm


def test_topk_counters_independent_of_hash_seed():
    """Candidates are refined in position order, never in set order, so
    every counted grid and leaf top-k run is identical under any string
    hash seed."""
    _assert_hash_seed_independent(
        "topk", ["topk-s-ppj-f", "topk-s-ppj-s", "topk-s-ppj-p", "topk-s-ppj-d"]
    )


def test_join_counters_independent_of_hash_seed():
    """The counted grid and leaf threshold joins, likewise."""
    _assert_hash_seed_independent(
        "join", ["s-ppj-c", "s-ppj-b", "s-ppj-f", "s-ppj-d"]
    )
