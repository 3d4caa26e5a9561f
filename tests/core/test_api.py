"""The public facade."""

import pytest

from repro import (
    JOIN_ALGORITHMS,
    TOPK_ALGORITHMS,
    Telemetry,
    stps_join,
    topk_stps_join,
)
from repro.core.pair_eval import PairEvalStats
from tests.helpers import build_clustered_dataset


@pytest.fixture(scope="module")
def dataset():
    return build_clustered_dataset(11, n_users=10)


class TestStpsJoin:
    def test_unknown_algorithm(self, dataset):
        with pytest.raises(ValueError, match="unknown algorithm"):
            stps_join(dataset, 0.05, 0.3, 0.3, algorithm="nope")

    def test_registry_contains_paper_algorithms(self):
        assert {"naive", "s-ppj-c", "s-ppj-b", "s-ppj-f", "s-ppj-d"} <= set(
            JOIN_ALGORITHMS
        )
        assert {"topk-s-ppj-f", "topk-s-ppj-s", "topk-s-ppj-p"} <= set(
            TOPK_ALGORITHMS
        )

    def test_invalid_thresholds_raise(self, dataset):
        with pytest.raises(ValueError):
            stps_join(dataset, -1.0, 0.3, 0.3)
        with pytest.raises(ValueError):
            stps_join(dataset, 0.05, 0.0, 0.3)

    def test_results_sorted(self, dataset):
        pairs = stps_join(dataset, 0.05, 0.3, 0.1)
        assert [p.score for p in pairs] == sorted(
            (p.score for p in pairs), reverse=True
        )

    def test_stats_forwarded(self, dataset):
        stats, tele = PairEvalStats(), Telemetry()
        stps_join(
            dataset, 0.05, 0.3, 0.3, algorithm="s-ppj-b", stats=stats,
            telemetry=tele,
        )
        counters = tele.work_counters()
        assert counters["funnel.cell_pairs"] > 0
        # The caller's stats receive exactly what the run mirrored.
        assert {
            "filter." + name: value
            for name, value in stats.as_dict().items()
            if value
        } == {k: v for k, v in counters.items() if k.startswith("filter.")}

    def test_fanout_kwarg_for_sppjd(self, dataset):
        out_default = stps_join(dataset, 0.05, 0.3, 0.3, algorithm="s-ppj-d")
        out_small = stps_join(
            dataset, 0.05, 0.3, 0.3, algorithm="s-ppj-d", fanout=8
        )
        assert {p.key for p in out_default} == {p.key for p in out_small}

    def test_naive_via_registry(self, dataset):
        fast = stps_join(dataset, 0.05, 0.3, 0.3)
        slow = stps_join(dataset, 0.05, 0.3, 0.3, algorithm="naive")
        assert {p.key for p in fast} == {p.key for p in slow}


class TestTopkStpsJoin:
    def test_unknown_algorithm(self, dataset):
        with pytest.raises(ValueError, match="unknown algorithm"):
            topk_stps_join(dataset, 0.05, 0.3, 3, algorithm="nope")

    def test_invalid_k(self, dataset):
        with pytest.raises(ValueError):
            topk_stps_join(dataset, 0.05, 0.3, 0)

    def test_naive_via_registry(self, dataset):
        fast = topk_stps_join(dataset, 0.05, 0.3, 4)
        slow = topk_stps_join(dataset, 0.05, 0.3, 4, algorithm="naive")
        assert sorted(p.score for p in fast) == pytest.approx(
            sorted(p.score for p in slow)
        )
