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

from repro import JOIN_ALGORITHMS, TOPK_ALGORITHMS, generate_dataset, preset
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


#: A counted TOPK-S-PPJ-P run on string user ids, whose set order follows
#: the hash seed.  Refining candidates in set order made these counters
#: differ between hash seeds.
_COUNTED_RUN = """
import json
import random
from repro import STDataset, Telemetry, generate_dataset, preset, topk_stps_join
base = generate_dataset(preset("twitter"), seed=7, num_users=120, objects_scale=0.35)
rng = random.Random(7)
names = {u: "u%08x" % rng.getrandbits(32) for u in base.users}
dataset = STDataset.from_records(
    [(names[o.user], o.x, o.y, base.vocab.decode(o.doc)) for o in base.objects]
)
telemetry = Telemetry()
pairs = topk_stps_join(
    dataset, 0.01, 0.3, 5, algorithm="topk-s-ppj-p", telemetry=telemetry
)
print(json.dumps({
    "pairs": [[p.user_a, p.user_b, p.score] for p in pairs],
    "counters": telemetry.work_counters(),
}, sort_keys=True))
"""


def _counted_run(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", _COUNTED_RUN],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout)


def test_topk_counters_independent_of_hash_seed():
    """Candidates are refined in position order, never in set order, so
    the counted run is identical under any string hash seed."""
    first, second = _counted_run("0"), _counted_run("1")
    assert first["counters"]
    assert first["counters"]["funnel.object_pairs"] > 0
    assert second == first
