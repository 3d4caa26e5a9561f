"""Pair-level evaluators (PPJ primitive, PPJ-C, PPJ-B) against the
exhaustive definitions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Telemetry
from repro.core.pair_eval import (
    PairEvalStats,
    join_object_lists,
    ppj_b_pair,
    ppj_c_pair,
)
from repro.core.similarity import matched_object_count, matched_objects, set_similarity
from repro.obs import runtime as _obs
from repro.stindex.stgrid import STGridIndex
from tests.helpers import build_random_dataset


def build_index(ds, eps_loc):
    return STGridIndex.build(ds, eps_loc, with_tokens=False)


class TestJoinObjectLists:
    def test_marks_matched_oids(self, tiny_dataset):
        du1 = tiny_dataset.user_objects("u1")
        du3 = tiny_dataset.user_objects("u3")
        matched_a, matched_b = set(), set()
        join_object_lists(du1, du3, 0.005, 0.3, matched_a, matched_b)
        assert matched_a == matched_objects(du1, du3, 0.005, 0.3)
        assert matched_b == matched_objects(du3, du1, 0.005, 0.3)

    def test_empty_lists_noop(self):
        matched_a, matched_b = set(), set()
        join_object_lists([], [], 0.1, 0.5, matched_a, matched_b)
        assert not matched_a and not matched_b

    def test_stats_counters(self, tiny_dataset):
        du1 = tiny_dataset.user_objects("u1")
        du3 = tiny_dataset.user_objects("u3")
        tele = Telemetry()
        previous = _obs.activate(tele.metrics)
        try:
            join_object_lists(du1, du3, 0.005, 0.3, set(), set())
        finally:
            _obs.restore(previous)
        counters = tele.work_counters()
        assert counters["funnel.cell_pairs"] == 1
        assert counters["funnel.object_pairs"] == len(du1) * len(du3)

    @given(st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_large_lists_use_ppjoin_path_consistently(self, seed):
        """Above the small-join cutoff the PPJOIN path must agree with the
        nested-loop definition."""
        ds = build_random_dataset(seed, n_users=2, max_objects=15, extent=0.3)
        users = ds.users
        if len(users) < 2:
            return
        a, b = ds.user_objects(users[0]), ds.user_objects(users[1])
        matched_a, matched_b = set(), set()
        join_object_lists(a, b, 0.2, 0.4, matched_a, matched_b)
        assert matched_a == matched_objects(a, b, 0.2, 0.4)
        assert matched_b == matched_objects(b, a, 0.2, 0.4)


class TestPpjCPair:
    @given(st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_matches_exhaustive_count(self, seed):
        ds = build_random_dataset(seed, n_users=2)
        if len(ds.users) < 2:
            return
        ua, ub = ds.users[0], ds.users[1]
        for eps_loc, eps_doc in [(0.1, 0.3), (0.3, 0.5), (0.05, 0.2)]:
            index = build_index(ds, eps_loc)
            got = ppj_c_pair(index, ua, ub, eps_loc, eps_doc)
            expected = matched_object_count(
                ds.user_objects(ua), ds.user_objects(ub), eps_loc, eps_doc
            )
            assert got == expected

    def test_counts_objects_not_pairs(self, tiny_dataset):
        index = build_index(tiny_dataset, 0.005)
        got = ppj_c_pair(index, "u1", "u3", 0.005, 0.3)
        assert got == 4  # 2 objects of u1 + 2 of u3, not pair count


class TestPpjBPair:
    @given(
        st.integers(0, 300),
        st.sampled_from([(0.1, 0.3, 0.2), (0.3, 0.5, 0.5), (0.05, 0.2, 0.8)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_or_provably_below(self, seed, thresholds):
        eps_loc, eps_doc, eps_user = thresholds
        ds = build_random_dataset(seed, n_users=2)
        if len(ds.users) < 2:
            return
        ua, ub = ds.users[0], ds.users[1]
        objs_a, objs_b = ds.user_objects(ua), ds.user_objects(ub)
        index = build_index(ds, eps_loc)
        got = ppj_b_pair(
            index, ua, ub, eps_loc, eps_doc, eps_user, len(objs_a), len(objs_b)
        )
        true_sigma = set_similarity(objs_a, objs_b, eps_loc, eps_doc)
        if true_sigma >= eps_user:
            assert got == pytest.approx(true_sigma)
        else:
            # Either the exact (below-threshold) value or a prune to 0.
            assert got == pytest.approx(true_sigma) or got == 0.0

    def test_early_termination_counted(self):
        ds = build_random_dataset(5, n_users=2, extent=10.0)
        ua, ub = ds.users[0], ds.users[1]
        index = build_index(ds, 0.05)
        stats = PairEvalStats()
        got = ppj_b_pair(
            index,
            ua,
            ub,
            0.05,
            0.5,
            0.9,
            len(ds.user_objects(ua)),
            len(ds.user_objects(ub)),
            stats,
        )
        assert got == 0.0
        assert stats.early_terminations == 1

    def test_zero_sizes(self, tiny_dataset):
        index = build_index(tiny_dataset, 0.005)
        assert ppj_b_pair(index, "u1", "u3", 0.005, 0.3, 0.5, 0, 0) == 0.0

    def test_figure1_pair_score(self, tiny_dataset):
        index = build_index(tiny_dataset, 0.005)
        got = ppj_b_pair(index, "u1", "u3", 0.005, 0.3, 0.5, 2, 3)
        assert got == pytest.approx(0.8)
