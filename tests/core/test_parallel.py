"""Process-parallel STPSJoin evaluation through ``stps_join(workers=N)``."""

import multiprocessing

import pytest

from repro import STPSJoinQuery, stps_join
from repro.core.naive import naive_stps_join
from repro.core.query import pairs_to_dict
from tests.helpers import build_clustered_dataset, build_random_dataset

fork_available = "fork" in multiprocessing.get_all_start_methods()


def _parallel(ds, query, **kwargs):
    return stps_join(
        ds, query.eps_loc, query.eps_doc, query.eps_user,
        algorithm="s-ppj-b", **kwargs,
    )


class TestParallelJoin:
    def test_sequential_fallback_matches_oracle(self):
        ds = build_clustered_dataset(2, n_users=8)
        query = STPSJoinQuery(0.05, 0.3, 0.2)
        got = pairs_to_dict(_parallel(ds, query, workers=1))
        expected = pairs_to_dict(naive_stps_join(ds, query))
        assert set(got) == set(expected)

    @pytest.mark.skipif(not fork_available, reason="fork start method unavailable")
    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_match_oracle(self, workers):
        ds = build_clustered_dataset(3, n_users=10)
        query = STPSJoinQuery(0.05, 0.3, 0.2)
        got = pairs_to_dict(_parallel(ds, query, workers=workers))
        expected = pairs_to_dict(naive_stps_join(ds, query))
        assert set(got) == set(expected)
        for key, score in got.items():
            assert score == pytest.approx(expected[key])

    @pytest.mark.skipif(not fork_available, reason="fork start method unavailable")
    def test_chunking_invariant(self):
        ds = build_random_dataset(4, n_users=9)
        query = STPSJoinQuery(0.2, 0.3, 0.2)
        small_chunks = _parallel(ds, query, workers=2, chunk_size=3)
        big_chunks = _parallel(ds, query, workers=2, chunk_size=10_000)
        assert pairs_to_dict(small_chunks) == pairs_to_dict(big_chunks)

    def test_single_user(self):
        ds = build_random_dataset(0, n_users=1)
        assert _parallel(ds, STPSJoinQuery(0.1, 0.3, 0.2), workers=2) == []

    def test_validation(self):
        ds = build_random_dataset(0, n_users=4)
        query = STPSJoinQuery(0.1, 0.3, 0.2)
        with pytest.raises(ValueError):
            _parallel(ds, query, workers=2, chunk_size=0)
        with pytest.raises(ValueError):
            _parallel(ds, query, workers=0)
