"""The grid's candidate table: Algorithm 2's filter and Lemma 2's counts.

The table is checked against a brute-force evaluation of its definition
(every user pair sharing a token in relevant cells, with its
``sigma_bar`` numerator, and every user's potentially-matched count),
on the differential configs and on degenerate grids; the consumers —
S-PPJ-F, the grid top-k family and kNN — are checked to read it the
same way on every backend, hash seed and cache state.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import STDataset, stps_join, topk_stps_join
from repro.core.knn import naive_similar_users, similar_users
from repro.core.pair_eval import PairEvalStats
from repro.spatial.grid import UniformGrid
from repro.stindex.stgrid import STGridIndex
from tests.core.test_differential import CONFIGS, EPS_GRIDS
from tests.helpers import build_clustered_dataset, build_differential_dataset

SRC = Path(__file__).resolve().parents[2] / "src"

GRID_TOPK = ["topk-s-ppj-f", "topk-s-ppj-s", "topk-s-ppj-p"]


def brute_force(dataset: STDataset, eps_loc: float):
    """The table by definition: ``({(u, v): numerator}, {u: m_u})``."""
    grid = UniformGrid(dataset.bounds, eps_loc)
    groups = {u: {} for u in dataset.users}
    for obj in dataset.objects:
        groups[obj.user].setdefault(grid.cell_of(obj.x, obj.y), []).append(obj)
    tokens = {
        (u, cell): {t for obj in objs for t in obj.doc}
        for u, cells in groups.items()
        for cell, objs in cells.items()
    }
    pairs = {}
    for u in dataset.users:
        for v in dataset.users:
            if u == v:
                continue
            own, far = set(), set()
            for cell in groups[u]:
                for near in grid.relevant_cells(cell):
                    if near in groups[v] and tokens[u, cell] & tokens[v, near]:
                        own.add(cell)
                        far.add(near)
            if own:
                pairs[u, v] = sum(len(groups[u][c]) for c in own) + sum(
                    len(groups[v][c]) for c in far
                )
    size_order = sorted(dataset.users, key=lambda u: len(dataset.user_objects(u)))
    pos = {u: p for p, u in enumerate(size_order)}
    matched = {}
    for u in dataset.users:
        matched[u] = sum(
            any(
                pos[v] < pos[u] and set(obj.doc) & tokens.get((v, near), set())
                for near in grid.relevant_cells(cell)
                for v in dataset.users
            )
            for cell, objs in groups[u].items()
            for obj in objs
        )
    return pairs, matched


def table_of(index: STGridIndex):
    """The cached table as ``({(u, v): numerator}, {u: m_u})``."""
    table = index.candidate_table()
    users = index.users
    pairs = {}
    for r, user in enumerate(users):
        cand, num = table.row(r)
        assert cand.tolist() == sorted(cand.tolist())
        for c, n in zip(cand.tolist(), num.tolist()):
            pairs[user, users[c]] = n
    return pairs, dict(zip(users, table.matched.tolist()))


def assert_table_is_definition(dataset: STDataset, eps_loc: float) -> None:
    index = STGridIndex.build(dataset, eps_loc)
    expected = brute_force(dataset, eps_loc)
    assert table_of(index) == expected
    # A cold index joins one row at a time: the same rows.
    for rank, user in enumerate(dataset.users):
        cold = STGridIndex.build(dataset, eps_loc)
        cand, num = cold.candidate_row(rank)
        assert cold._table is None
        assert {
            (user, dataset.users[c]): n for c, n in zip(cand.tolist(), num.tolist())
        } == {key: n for key, n in expected[0].items() if key[0] == user}


class TestDefinition:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"seed{c.seed}")
    def test_differential_configs(self, config):
        dataset = build_differential_dataset(config)
        for eps in EPS_GRIDS:
            assert_table_is_definition(dataset, eps[0])

    def test_tokenless_objects(self):
        dataset = STDataset.from_records(
            [
                ("a", 0.1, 0.1, {"x"}),
                ("a", 0.1, 0.12, set()),
                ("b", 0.12, 0.1, {"x", "y"}),
                ("b", 0.5, 0.5, set()),
                ("c", 0.11, 0.11, set()),
                ("d", 0.9, 0.9, {"y"}),
            ]
        )
        assert_table_is_definition(dataset, 0.05)
        pairs, _ = table_of(STGridIndex.build(dataset, 0.05))
        assert pairs == {("a", "b"): 3, ("b", "a"): 3}

    def test_no_tokens_at_all(self):
        dataset = STDataset.from_records(
            [("a", 0.0, 0.0, set()), ("b", 0.0, 0.0, set())]
        )
        assert_table_is_definition(dataset, 0.1)
        assert table_of(STGridIndex.build(dataset, 0.1)) == ({}, {"a": 0, "b": 0})

    def test_one_cell_grid(self):
        dataset = build_clustered_dataset(3, n_users=10)
        index = STGridIndex.build(dataset, 10.0)
        assert index.occupancy()["occupied_cells"] == 1
        assert_table_is_definition(dataset, 10.0)

    def test_points_clamped_onto_the_border(self):
        # Extent 1.0 with cells of 0.25: x or y == 1.0 would be column or
        # row 4, and is clamped into the last one.
        dataset = STDataset.from_records(
            [
                ("a", 0.0, 0.0, {"x"}),
                ("a", 1.0, 1.0, {"y"}),
                ("b", 1.0, 0.76, {"y"}),
                ("c", 0.74, 1.0, {"y", "x"}),
                ("d", 0.5, 1.0, {"x"}),
                ("e", 1.0, 0.0, {"x"}),
            ]
        )
        assert_table_is_definition(dataset, 0.25)

    def test_user_alone_in_a_cell(self):
        dataset = STDataset.from_records(
            [
                ("a", 0.1, 0.1, {"x"}),
                ("b", 0.1, 0.1, {"x"}),
                ("hermit", 0.9, 0.9, {"x"}),
            ]
        )
        assert_table_is_definition(dataset, 0.1)
        index = STGridIndex.build(dataset, 0.1)
        assert index.candidate_row(dataset.users.index("hermit"))[0].tolist() == []
        assert table_of(index)[1]["hermit"] == 0


class TestLemma2Counts:
    def test_matched_counts_pinned(self):
        """``m_u`` of every user on the 20 configs x 3 grids, as the
        per-object Python walk over the per-cell inverted lists
        (``_user_bound``) counted them before the table replaced it."""
        rows = []
        for config in CONFIGS:
            dataset = build_differential_dataset(config)
            for eps in EPS_GRIDS:
                index = STGridIndex.build(dataset, eps[0])
                rows.append(
                    [config.seed, eps[0], index.candidate_table().matched.tolist()]
                )
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == (
            "25a9200aa434c4c4d430c830ccdc8ab4dedcd07bc44dc0447486ca042737d2eb"
        )


class TestIndexKinds:
    @pytest.mark.parametrize("config", CONFIGS[:6], ids=lambda c: f"seed{c.seed}")
    def test_add_user_index_builds_the_same_table(self, config):
        dataset = build_differential_dataset(config)
        bulk = STGridIndex.build(dataset, 0.05)
        incr = STGridIndex(dataset.bounds, 0.05)
        for user in dataset.users:
            incr.add_user(user, dataset.user_objects(user))
        assert table_of(incr) == table_of(bulk)
        assert [a.tolist() for a in incr.candidate_row(0)] == [
            a.tolist() for a in bulk.candidate_row(0)
        ]

    def test_filter_plans_refuse_an_index_of_other_users(self):
        dataset = build_clustered_dataset(1, n_users=8)
        subset = STGridIndex.build(dataset, 0.05, users=dataset.users[:4])
        with pytest.raises(ValueError, match="dataset's users"):
            stps_join(dataset, 0.05, 0.3, 0.3, algorithm="s-ppj-f", index=subset)
        with pytest.raises(ValueError, match="dataset's users"):
            topk_stps_join(dataset, 0.05, 0.3, 3, algorithm="topk-s-ppj-p", index=subset)
        with pytest.raises(ValueError, match="dataset's users"):
            similar_users(dataset, dataset.users[0], 0.05, 0.3, 3, index=subset)
        # S-PPJ-B reads no table and takes any grid of the right eps_loc.
        stps_join(dataset, 0.05, 0.3, 0.3, algorithm="s-ppj-b", index=subset)


def _answers(dataset, index=None):
    extra = {} if index is None else {"index": index}
    out = [stps_join(dataset, 0.05, 0.3, 0.3, algorithm="s-ppj-f", **extra)]
    out += [
        topk_stps_join(dataset, 0.05, 0.3, 3, algorithm=algorithm, **extra)
        for algorithm in GRID_TOPK
    ]
    out += [
        similar_users(dataset, user, 0.05, 0.3, 3, **extra) for user in dataset.users
    ]
    return out


class TestCaches:
    def test_drop_caches_keeps_every_answer(self):
        dataset = build_clustered_dataset(2, n_users=12)
        index = STGridIndex.build(dataset, 0.05)
        cold = _answers(dataset)
        assert _answers(dataset, index) == cold
        assert index._table is not None
        index.drop_caches()
        assert index._table is None
        assert _answers(dataset, index) == cold


class TestKnnTies:
    def test_tie_at_the_kth_place_breaks_canonically(self):
        dataset = STDataset.from_records(
            [
                ("p", 0.1, 0.1, {"x"}),
                ("p", 0.9, 0.9, {"y"}),
                ("b", 0.1, 0.1, {"x"}),
                ("a", 0.9, 0.9, {"y"}),
            ]
        )
        expected = naive_similar_users(dataset, "p", 0.05, 0.5, 1)
        assert [u for u, _ in expected] == ["a"]
        assert similar_users(dataset, "p", 0.05, 0.5, 1) == expected
        index = STGridIndex.build(dataset, 0.05)
        assert similar_users(dataset, "p", 0.05, 0.5, 1, index=index) == expected
        assert similar_users(dataset, "p", 0.05, 0.5, 2) == naive_similar_users(
            dataset, "p", 0.05, 0.5, 2
        )


class TestBackends:
    def test_process_backend_equals_sequential(self):
        """Process workers (forked, or spawned from a DatasetSnapshot
        under ``REPRO_START_METHOD=spawn``) rebuild or inherit the table
        and give the sequential results and counters."""
        dataset = build_clustered_dataset(4, n_users=14)
        for kind, algorithm in (("join", "s-ppj-f"), ("topk", "topk-s-ppj-p")):
            runs = []
            for extra in ({}, {"workers": 2, "backend": "process", "chunk_size": 3}):
                stats = PairEvalStats()
                if kind == "join":
                    result = stps_join(
                        dataset, 0.05, 0.3, 0.3, algorithm=algorithm,
                        stats=stats, **extra,
                    )
                else:
                    result = topk_stps_join(
                        dataset, 0.05, 0.3, 4, algorithm=algorithm,
                        stats=stats, **extra,
                    )
                runs.append((result, stats.as_dict()))
            assert runs[0][0], algorithm
            assert runs[1][0] == runs[0][0], algorithm
            if kind == "join":
                # Top-k chunks prune against their own thresholds, so
                # only the join's counters are chunking-invariant.
                assert runs[1][1] == runs[0][1], algorithm


#: Counted S-PPJ-F, grid top-k and kNN on string user ids, whose dict
#: and set order follows the hash seed.
_COUNTED = """
import json
import random
from repro import STDataset, Telemetry, generate_dataset, preset, stps_join, topk_stps_join
from repro.core.knn import similar_users
from repro.core.pair_eval import PairEvalStats
base = generate_dataset(preset("twitter"), seed=5, num_users=100, objects_scale=0.35)
rng = random.Random(5)
names = {u: "u%08x" % rng.getrandbits(32) for u in base.users}
dataset = STDataset.from_records(
    [(names[o.user], o.x, o.y, base.vocab.decode(o.doc)) for o in base.objects]
)
out = {}
for name, run in [
    ("s-ppj-f", lambda **kw: stps_join(dataset, 0.01, 0.3, 0.2, algorithm="s-ppj-f", **kw)),
    ("topk-s-ppj-p", lambda **kw: topk_stps_join(dataset, 0.01, 0.3, 5, algorithm="topk-s-ppj-p", **kw)),
    ("topk-s-ppj-f", lambda **kw: topk_stps_join(dataset, 0.01, 0.3, 5, algorithm="topk-s-ppj-f", **kw)),
]:
    stats, telemetry = PairEvalStats(), Telemetry()
    pairs = run(stats=stats, telemetry=telemetry)
    out[name] = [
        [[p.user_a, p.user_b, p.score] for p in pairs],
        stats.as_dict(),
        telemetry.work_counters(),
    ]
for user in dataset.users[:12]:
    stats = PairEvalStats()
    out["knn " + user] = [similar_users(dataset, user, 0.01, 0.3, 3, stats=stats), stats.as_dict()]
print(json.dumps(out, sort_keys=True))
"""


def _counted(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", _COUNTED],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout)


def test_counters_independent_of_hash_seed():
    first, second = _counted("0"), _counted("1")
    assert first == second
    assert first["s-ppj-f"][1]["refinements"] > 0
    assert any(first[k][1]["candidates"] for k in first if k.startswith("knn "))
