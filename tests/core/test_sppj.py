"""Cross-algorithm equivalence: every S-PPJ variant must reproduce the
exhaustive STPSJoin semantics exactly — same pairs, same scores.

This is the correctness anchor of the whole library.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import STDataset, STPSJoinQuery, Telemetry, naive_stps_join, stps_join
from repro.core.pair_eval import PairEvalStats
from repro.core.query import pairs_to_dict
from repro.stindex.leaf_index import STLeafIndex
from tests.helpers import build_clustered_dataset, build_random_dataset

ALGORITHMS = ("s-ppj-c", "s-ppj-b", "s-ppj-f", "s-ppj-d")

THRESHOLDS = [
    (0.10, 0.30, 0.20),
    (0.30, 0.50, 0.40),
    (0.05, 0.20, 0.10),
    (0.20, 0.40, 0.70),
    (0.50, 1.00, 0.50),
]


def assert_same_pairs(expected, got, context=""):
    exp, act = pairs_to_dict(expected), pairs_to_dict(got)
    assert set(act) == set(exp), (
        f"{context}: missing {set(exp) - set(act)}, extra {set(act) - set(exp)}"
    )
    for key, score in act.items():
        assert score == pytest.approx(exp[key]), f"{context}: score mismatch at {key}"


class TestCrossAlgorithmEquivalence:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("thresholds", THRESHOLDS)
    def test_random_datasets(self, algorithm, thresholds):
        for seed in range(6):
            ds = build_random_dataset(seed, n_users=10)
            query = STPSJoinQuery(*thresholds)
            expected = naive_stps_join(ds, query)
            got = stps_join(ds, *thresholds, algorithm=algorithm)
            assert_same_pairs(expected, got, f"{algorithm} seed={seed}")

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_clustered_datasets_nontrivial_results(self, algorithm):
        found_any = False
        for seed in range(5):
            ds = build_clustered_dataset(seed, n_users=8)
            thresholds = (0.05, 0.3, 0.3)
            expected = naive_stps_join(ds, STPSJoinQuery(*thresholds))
            found_any = found_any or bool(expected)
            got = stps_join(ds, *thresholds, algorithm=algorithm)
            assert_same_pairs(expected, got, f"{algorithm} clustered seed={seed}")
        assert found_any, "clustered datasets should produce non-empty joins"

    @given(st.integers(0, 1000), st.sampled_from(THRESHOLDS))
    @settings(max_examples=20, deadline=None)
    def test_property_fuzz(self, seed, thresholds):
        ds = build_random_dataset(seed, n_users=8, max_objects=6)
        expected = naive_stps_join(ds, STPSJoinQuery(*thresholds))
        for algorithm in ALGORITHMS:
            got = stps_join(ds, *thresholds, algorithm=algorithm)
            assert_same_pairs(expected, got, f"{algorithm} fuzz seed={seed}")


class TestFigure1Scenario:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_only_u1_u3_pair(self, tiny_dataset, algorithm):
        pairs = stps_join(
            tiny_dataset, 0.005, 0.3, 0.5, algorithm=algorithm
        )
        assert [(p.user_a, p.user_b) for p in pairs] == [("u1", "u3")]
        assert pairs[0].score == pytest.approx(0.8)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_high_threshold_empty(self, tiny_dataset, algorithm):
        assert stps_join(tiny_dataset, 0.005, 0.3, 0.9, algorithm=algorithm) == []


class TestEdgeCases:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_single_user(self, algorithm):
        ds = STDataset.from_records([("u", 0, 0, {"x"}), ("u", 1, 1, {"y"})])
        assert stps_join(ds, 0.1, 0.5, 0.5, algorithm=algorithm) == []

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_empty_dataset(self, algorithm):
        ds = STDataset.from_records([])
        assert stps_join(ds, 0.1, 0.5, 0.5, algorithm=algorithm) == []

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_identical_twin_users(self, algorithm):
        records = []
        for user in ("a", "b"):
            records.append((user, 0.5, 0.5, {"x", "y"}))
            records.append((user, 0.7, 0.7, {"z"}))
        ds = STDataset.from_records(records)
        pairs = stps_join(ds, 0.01, 1.0, 1.0, algorithm=algorithm)
        assert len(pairs) == 1
        assert pairs[0].score == pytest.approx(1.0)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_all_objects_same_location(self, algorithm):
        """Everything in one grid cell / one leaf."""
        records = [
            ("a", 0.5, 0.5, {"x"}),
            ("b", 0.5, 0.5, {"x"}),
            ("c", 0.5, 0.5, {"q"}),
        ]
        ds = STDataset.from_records(records)
        pairs = stps_join(ds, 0.001, 1.0, 1.0, algorithm=algorithm)
        assert {(p.user_a, p.user_b) for p in pairs} == {("a", "b")}

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_keywordless_objects_never_match(self, algorithm):
        records = [("a", 0.5, 0.5, []), ("b", 0.5, 0.5, [])]
        ds = STDataset.from_records(records)
        assert stps_join(ds, 0.1, 0.5, 0.1, algorithm=algorithm) == []

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_eps_user_exact_boundary(self, algorithm):
        """sigma == eps_user must be included (>= semantics)."""
        records = [
            ("a", 0.0, 0.0, {"x"}),
            ("a", 9.0, 9.0, {"faraway"}),
            ("b", 0.0, 0.0, {"x"}),
            ("b", 5.0, 5.0, {"elsewhere"}),
        ]
        ds = STDataset.from_records(records)
        # 2 of 4 objects match -> sigma = 0.5 exactly.
        pairs = stps_join(ds, 0.1, 1.0, 0.5, algorithm=algorithm)
        assert len(pairs) == 1 and pairs[0].score == pytest.approx(0.5)

    def test_results_sorted_by_score(self):
        ds = build_clustered_dataset(3, n_users=10)
        pairs = stps_join(ds, 0.05, 0.3, 0.1)
        scores = [p.score for p in pairs]
        assert scores == sorted(scores, reverse=True)


class TestAlgorithmInternals:
    def test_sppj_b_early_terminates(self):
        """On a dataset with scattered users, PPJ-B must actually prune."""
        ds = build_random_dataset(1, n_users=15, extent=10.0)
        stats = PairEvalStats()
        stps_join(ds, 0.05, 0.5, 0.5, algorithm="s-ppj-b", stats=stats)
        assert stats.early_terminations > 0

    def test_sppj_f_prunes_pairs_entirely(self):
        """S-PPJ-F must evaluate fewer cell joins than S-PPJ-C."""
        ds = build_random_dataset(2, n_users=15, extent=10.0)
        tele_c, tele_f = Telemetry(), Telemetry()
        stps_join(ds, 0.05, 0.5, 0.5, algorithm="s-ppj-c", telemetry=tele_c)
        stps_join(ds, 0.05, 0.5, 0.5, algorithm="s-ppj-f", telemetry=tele_f)
        cells_c = tele_c.work_counters().get("funnel.cell_pairs", 0)
        cells_f = tele_f.work_counters().get("funnel.cell_pairs", 0)
        assert cells_f <= cells_c

    def test_sppj_d_accepts_prebuilt_index(self):
        ds = build_clustered_dataset(4, n_users=8)
        query = STPSJoinQuery(0.05, 0.3, 0.3)
        index = STLeafIndex(ds, query.eps_loc, fanout=32)
        expected = naive_stps_join(ds, query)
        got = stps_join(ds, 0.05, 0.3, 0.3, algorithm="s-ppj-d", index=index)
        assert_same_pairs(expected, got, "prebuilt index")

    def test_sppj_d_rejects_mismatched_index(self):
        ds = build_clustered_dataset(4, n_users=4)
        index = STLeafIndex(ds, 0.01, fanout=32)
        with pytest.raises(ValueError):
            stps_join(ds, 0.05, 0.3, 0.3, algorithm="s-ppj-d", index=index)

    @pytest.mark.parametrize("fanout", [4, 16, 64, 256])
    def test_sppj_d_fanout_invariant_results(self, fanout):
        ds = build_clustered_dataset(5, n_users=8)
        thresholds = (0.05, 0.3, 0.3)
        expected = naive_stps_join(ds, STPSJoinQuery(*thresholds))
        got = stps_join(ds, *thresholds, algorithm="s-ppj-d", fanout=fanout)
        assert_same_pairs(expected, got, f"fanout={fanout}")

    @pytest.mark.parametrize("seed", range(4))
    def test_sppj_d_quadtree_partitioning(self, seed):
        ds = build_clustered_dataset(seed, n_users=8)
        thresholds = (0.05, 0.3, 0.3)
        expected = naive_stps_join(ds, STPSJoinQuery(*thresholds))
        got = stps_join(
            ds, *thresholds, algorithm="s-ppj-d", partitioner="quadtree", fanout=16
        )
        assert_same_pairs(expected, got, f"quadtree seed={seed}")

    @pytest.mark.parametrize("seed", range(3))
    def test_sppj_f_refine_ablation_equivalent(self, seed):
        ds = build_clustered_dataset(seed, n_users=8)
        with_b = {p.key for p in stps_join(ds, 0.05, 0.3, 0.3, refine="ppj-b")}
        with_c = {p.key for p in stps_join(ds, 0.05, 0.3, 0.3, refine="ppj-c")}
        assert with_b == with_c

    def test_sppj_f_unknown_refine(self):
        ds = build_clustered_dataset(0, n_users=4)
        with pytest.raises(ValueError):
            stps_join(ds, 0.05, 0.3, 0.3, refine="magic")

    def test_sppj_d_unknown_partitioner(self):
        ds = build_clustered_dataset(0, n_users=4)
        with pytest.raises(ValueError):
            stps_join(
                ds, 0.05, 0.3, 0.3, algorithm="s-ppj-d", partitioner="voronoi"
            )
