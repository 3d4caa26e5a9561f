"""Randomized differential testing: every algorithm against the oracle.

The strongest correctness statement the repository makes is that the four
S-PPJ algorithms (and the top-k family) are *exact*: for any dataset and
any thresholds they return precisely the pairs the exhaustive definition
yields.  This harness generates a matrix of seeded random datasets —
varying user counts, set sizes, token skew, spatial clustering and
degenerate extremes — and asserts byte-identical results across all
algorithms on several threshold grids.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import STDataset, Telemetry, stps_join, topk_stps_join
from repro.core.query import STPSJoinQuery, pairs_to_dict
from repro.stindex.stgrid import STGridIndex
from tests.helpers import DifferentialConfig, build_differential_dataset

JOIN_ALGOS = ["s-ppj-c", "s-ppj-b", "s-ppj-f", "s-ppj-d"]
TOPK_ALGOS = ["topk-s-ppj-f", "topk-s-ppj-s", "topk-s-ppj-p", "topk-s-ppj-d"]

#: ~20 dataset shapes spanning the axes the algorithms prune along.
CONFIGS = [
    # Uniform baselines at several scales.
    DifferentialConfig(seed=1, n_users=4, max_objects=3),
    DifferentialConfig(seed=2, n_users=8),
    DifferentialConfig(seed=3, n_users=12, max_objects=10),
    DifferentialConfig(seed=4, n_users=15, max_objects=4, vocab=12),
    # Token skew: long inverted lists on head tokens.
    DifferentialConfig(seed=5, n_users=10, token_skew=0.7),
    DifferentialConfig(seed=6, n_users=12, token_skew=1.5, vocab=50),
    DifferentialConfig(seed=7, n_users=8, token_skew=3.0, vocab=8),
    # Spatial clustering: dense cells/leaves, many same-cell candidates.
    DifferentialConfig(seed=8, n_users=10, cluster_fraction=0.9, spread=0.01),
    DifferentialConfig(seed=9, n_users=12, cluster_fraction=0.6, n_clusters=2),
    DifferentialConfig(seed=10, n_users=9, cluster_fraction=1.0, spread=0.005),
    # Clustered AND skewed — the adversarial combination.
    DifferentialConfig(
        seed=11, n_users=10, cluster_fraction=0.8, token_skew=1.0, spread=0.02
    ),
    DifferentialConfig(
        seed=12, n_users=14, cluster_fraction=0.7, token_skew=0.5, vocab=15
    ),
    # Set-size spread: Lemma 1's beta differs wildly across pairs.
    DifferentialConfig(seed=13, n_users=8, min_objects=1, max_objects=20),
    DifferentialConfig(seed=14, n_users=10, min_objects=5, max_objects=6),
    # Tiny vocabulary: almost everything is a candidate.
    DifferentialConfig(seed=15, n_users=10, vocab=3),
    # Huge vocabulary: almost nothing matches.
    DifferentialConfig(seed=16, n_users=10, vocab=500),
    # Singleton object sets.
    DifferentialConfig(seed=17, n_users=12, min_objects=1, max_objects=1),
    # Objects with empty documents sprinkled in.
    DifferentialConfig(seed=18, n_users=10, empty_doc_fraction=0.3),
    DifferentialConfig(seed=19, n_users=8, empty_doc_fraction=0.8, vocab=5),
    # Compressed extent: everything in one grid cell neighbourhood.
    DifferentialConfig(seed=20, n_users=8, extent=0.001, cluster_fraction=0.5),
]

#: (eps_loc, eps_doc, eps_user) grids — loose, mid, and tight.
EPS_GRIDS = [
    (0.08, 0.2, 0.1),
    (0.05, 0.4, 0.4),
    (0.02, 0.6, 0.8),
]


def _join(dataset, eps, algorithm, **kwargs):
    eps_loc, eps_doc, eps_user = eps
    return stps_join(
        dataset, eps_loc, eps_doc, eps_user, algorithm=algorithm, **kwargs
    )


class TestJoinDifferential:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"seed{c.seed}")
    def test_all_algorithms_match_oracle(self, config):
        dataset = build_differential_dataset(config)
        for eps in EPS_GRIDS:
            expected = _join(dataset, eps, "naive")
            expected_dict = pairs_to_dict(expected)
            for algorithm in JOIN_ALGOS:
                got = _join(dataset, eps, algorithm)
                # Byte-identical: same pairs, same exact float scores,
                # same canonical order.
                assert got == expected, (
                    f"{algorithm} diverged from oracle on seed={config.seed} "
                    f"eps={eps}: {pairs_to_dict(got)} != {expected_dict}"
                )

    @pytest.mark.parametrize("refine", ["ppj-b", "ppj-c"])
    def test_sppj_f_refine_variants(self, refine):
        dataset = build_differential_dataset(CONFIGS[10])
        eps = EPS_GRIDS[1]
        expected = _join(dataset, eps, "naive")
        assert _join(dataset, eps, "s-ppj-f", refine=refine) == expected

    @pytest.mark.parametrize("partitioner", ["rtree", "quadtree"])
    def test_sppj_d_partitioner_variants(self, partitioner):
        dataset = build_differential_dataset(CONFIGS[8])
        eps = EPS_GRIDS[0]
        expected = _join(dataset, eps, "naive")
        assert _join(dataset, eps, "s-ppj-d", partitioner=partitioner) == expected


class TestTopKDifferential:
    @pytest.mark.parametrize(
        "config", [CONFIGS[1], CONFIGS[5], CONFIGS[8], CONFIGS[12], CONFIGS[17]],
        ids=lambda c: f"seed{c.seed}",
    )
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_all_topk_match_oracle(self, config, k):
        dataset = build_differential_dataset(config)
        eps_loc, eps_doc = 0.05, 0.3
        expected = topk_stps_join(dataset, eps_loc, eps_doc, k, algorithm="naive")
        for algorithm in TOPK_ALGOS:
            got = topk_stps_join(dataset, eps_loc, eps_doc, k, algorithm=algorithm)
            assert got == expected, (
                f"{algorithm} diverged on seed={config.seed} k={k}"
            )


class TestDegenerateCases:
    def test_empty_dataset(self):
        dataset = STDataset.from_records([])
        for algorithm in ["naive"] + JOIN_ALGOS:
            assert _join(dataset, (0.05, 0.3, 0.2), algorithm) == []

    def test_single_user(self):
        dataset = STDataset.from_records([("solo", 0.1, 0.1, {"a", "b"})])
        for algorithm in ["naive"] + JOIN_ALGOS:
            assert _join(dataset, (0.05, 0.3, 0.2), algorithm) == []
        for algorithm in ["naive"] + TOPK_ALGOS:
            assert topk_stps_join(dataset, 0.05, 0.3, 3, algorithm=algorithm) == []

    def test_identical_users_at_eps_user_one(self):
        # Two users with identical point sets: sigma == 1.0 exactly, so
        # the pair must survive eps_user = 1.0 in every algorithm.
        records = []
        for user in ("a", "b"):
            records.append((user, 0.5, 0.5, {"x", "y"}))
            records.append((user, 0.6, 0.6, {"y", "z"}))
        dataset = STDataset.from_records(records)
        for algorithm in ["naive"] + JOIN_ALGOS:
            got = _join(dataset, (0.01, 1.0, 1.0), algorithm)
            assert [(p.user_a, p.user_b, p.score) for p in got] == [("a", "b", 1.0)], (
                algorithm
            )

    def test_eps_user_one_excludes_partial_matches(self):
        dataset = build_differential_dataset(CONFIGS[1])
        expected = _join(dataset, (0.05, 0.3, 1.0), "naive")
        for algorithm in JOIN_ALGOS:
            assert _join(dataset, (0.05, 0.3, 1.0), algorithm) == expected

    def test_eps_user_zero_rejected(self):
        # Definition 1 requires eps_user in (0, 1]; zero would admit every
        # pair and is rejected at query construction.
        with pytest.raises(ValueError):
            STPSJoinQuery(0.05, 0.3, 0.0)
        dataset = build_differential_dataset(CONFIGS[0])
        with pytest.raises(ValueError):
            stps_join(dataset, 0.05, 0.3, 0.0, algorithm="s-ppj-b")

    def test_all_empty_documents(self):
        dataset = build_differential_dataset(
            DifferentialConfig(seed=21, n_users=6, empty_doc_fraction=1.0)
        )
        for algorithm in ["naive"] + JOIN_ALGOS:
            assert _join(dataset, (0.5, 0.3, 0.1), algorithm) == []


GRID_JOIN_ALGOS = ["s-ppj-c", "s-ppj-b", "s-ppj-f"]
GRID_TOPK_ALGOS = ["topk-s-ppj-f", "topk-s-ppj-s", "topk-s-ppj-p"]


def _counted(dataset, eps, algorithm, **kwargs):
    """Results and work counters of one instrumented run."""
    telemetry = Telemetry()
    if algorithm.startswith("topk-"):
        pairs = topk_stps_join(
            dataset, eps[0], eps[1], 5, algorithm=algorithm,
            telemetry=telemetry, **kwargs,
        )
    else:
        pairs = _join(dataset, eps, algorithm, telemetry=telemetry, **kwargs)
    rows = [[repr(p.user_a), repr(p.user_b), repr(p.score)] for p in pairs]
    return rows, sorted(telemetry.work_counters().items())


class TestWorkCounterParity:
    """The columnar build must not move a single unit of work."""

    def test_results_and_counters_pinned(self):
        """Results plus every ``funnel.*``/``pairs.*``/``filter.*`` counter
        of every join and top-k algorithm on every config and grid.  The
        digest was recorded with the record-by-record dataset and the
        object-at-a-time grid build; any drift is a behaviour change."""
        rows = []
        for config in CONFIGS:
            dataset = build_differential_dataset(config)
            for eps in EPS_GRIDS:
                for algorithm in JOIN_ALGOS + TOPK_ALGOS:
                    result, counters = _counted(dataset, eps, algorithm)
                    rows.append([config.seed, list(eps), algorithm, result, counters])
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == (
            "8084903fd206fd3a6d7d9bf84929ebec25e04cc940e5e71d29e4b84a6108e5c8"
        )

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"seed{c.seed}")
    def test_incremental_index_same_work(self, config):
        """An index filled user by user with ``add_user`` drives every
        grid algorithm through exactly the work of the bulk build."""
        dataset = build_differential_dataset(config)
        for eps in EPS_GRIDS:
            index = STGridIndex(dataset.bounds, eps[0], with_tokens=True)
            for user in dataset.users:
                index.add_user(user, dataset.user_objects(user))
            for algorithm in GRID_JOIN_ALGOS + GRID_TOPK_ALGOS:
                assert _counted(dataset, eps, algorithm, index=index) == _counted(
                    dataset, eps, algorithm
                ), (eps, algorithm)
