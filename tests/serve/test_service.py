"""JoinService behaviour: byte-identical results, caching, fingerprints.

The central contract: a served result is **byte-identical** to the
direct API call on the same dataset, for every algorithm — the warm
shared index must never change what is computed, only how fast.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import stps_join, topk_stps_join
from repro.core.api import JOIN_ALGORITHMS, TOPK_ALGORITHMS
from repro.core.knn import similar_users
from repro.serve import (
    AdmissionRejected,
    DatasetRegistry,
    JoinService,
    QueryError,
    UnknownDatasetError,
)
from tests.helpers import build_clustered_dataset, build_random_dataset

EPS_LOC, EPS_DOC, EPS_USER, K = 0.05, 0.3, 0.2, 5


@pytest.fixture(scope="module")
def dataset():
    return build_clustered_dataset(seed=11, n_users=12, objects_per_user=6)


@pytest.fixture()
def service(dataset):
    svc = JoinService(cache_capacity=32)
    svc.register_dataset("demo", dataset)
    return svc


def _encode_pairs(pairs):
    return [[p.user_a, p.user_b, p.score] for p in pairs]


class TestDifferential:
    """Server responses vs direct API calls, all algorithms."""

    @pytest.mark.parametrize("algorithm", sorted(JOIN_ALGORITHMS))
    def test_join_byte_identical(self, service, dataset, algorithm):
        response = service.query(
            {
                "type": "join",
                "dataset": "demo",
                "algorithm": algorithm,
                "eps_loc": EPS_LOC,
                "eps_doc": EPS_DOC,
                "eps_user": EPS_USER,
            }
        )
        kwargs = {"fanout": 100} if algorithm == "s-ppj-d" else {}
        direct = stps_join(
            dataset, EPS_LOC, EPS_DOC, EPS_USER, algorithm=algorithm, **kwargs
        )
        assert json.dumps(response["pairs"]) == json.dumps(
            _encode_pairs(direct)
        )

    @pytest.mark.parametrize("algorithm", sorted(TOPK_ALGORITHMS))
    def test_topk_byte_identical(self, service, dataset, algorithm):
        response = service.query(
            {
                "type": "topk",
                "dataset": "demo",
                "algorithm": algorithm,
                "eps_loc": EPS_LOC,
                "eps_doc": EPS_DOC,
                "k": K,
            }
        )
        direct = topk_stps_join(
            dataset, EPS_LOC, EPS_DOC, K, algorithm=algorithm
        )
        assert json.dumps(response["pairs"]) == json.dumps(
            _encode_pairs(direct)
        )

    def test_knn_byte_identical(self, service, dataset):
        for user in list(dataset.users)[:4]:
            response = service.query(
                {
                    "type": "knn",
                    "dataset": "demo",
                    "user": user,
                    "eps_loc": EPS_LOC,
                    "eps_doc": EPS_DOC,
                    "k": K,
                }
            )
            direct = similar_users(dataset, user, EPS_LOC, EPS_DOC, K)
            assert json.dumps(response["neighbours"]) == json.dumps(
                [[u, s] for u, s in direct]
            )

    def test_join_with_explain_matches_plain(self, service, dataset):
        plain = service.query(
            {
                "type": "join",
                "dataset": "demo",
                "eps_loc": EPS_LOC,
                "eps_doc": EPS_DOC,
                "eps_user": EPS_USER,
            }
        )
        explained = service.query(
            {
                "type": "join",
                "dataset": "demo",
                "eps_loc": EPS_LOC,
                "eps_doc": EPS_DOC,
                "eps_user": EPS_USER,
                "explain": True,
            }
        )
        assert explained["pairs"] == plain["pairs"]
        assert explained["explain"]["dataset_fingerprint"] == dataset.fingerprint()
        assert explained["explain"]["kind"] == "explain"


class TestCaching:
    def _join_request(self, **overrides):
        request = {
            "type": "join",
            "dataset": "demo",
            "eps_loc": EPS_LOC,
            "eps_doc": EPS_DOC,
            "eps_user": EPS_USER,
        }
        request.update(overrides)
        return request

    def test_repeat_query_hits_cache(self, service):
        first = service.query(self._join_request())
        second = service.query(self._join_request())
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["pairs"] == first["pairs"]
        stats = service.cache.stats()
        assert stats.hits == 1 and stats.misses == 1

    def test_different_thresholds_miss(self, service):
        service.query(self._join_request())
        other = service.query(self._join_request(eps_user=0.9))
        assert other["cached"] is False
        assert service.cache.stats().hits == 0

    def test_no_cache_bypasses(self, service):
        service.query(self._join_request())
        again = service.query(self._join_request(no_cache=True))
        assert again["cached"] is False

    def test_explain_bypasses_cache(self, service):
        service.query(self._join_request())
        explained = service.query(self._join_request(explain=True))
        assert explained["cached"] is False
        assert "explain" in explained

    def test_content_versioning_by_fingerprint(self, dataset):
        """Replacing a dataset name with different content changes the
        fingerprint, so stale cached results can never be served."""
        service = JoinService(cache_capacity=32)
        service.register_dataset("demo", dataset)
        first = service.query(self._join_request())
        other = build_random_dataset(seed=5, n_users=12)
        service.register_dataset("demo", other)
        second = service.query(self._join_request())
        assert second["cached"] is False
        assert second["fingerprint"] != first["fingerprint"]
        direct = stps_join(other, EPS_LOC, EPS_DOC, EPS_USER)
        assert second["pairs"] == _encode_pairs(direct)

    def test_reregister_same_content_keeps_cache(self, service, dataset):
        service.query(self._join_request())
        service.register_dataset("demo", build_clustered_dataset(
            seed=11, n_users=12, objects_per_user=6
        ))
        again = service.query(self._join_request())
        assert again["cached"] is True

    def test_concurrent_same_query_all_identical(self, service):
        """Many threads issuing the same query concurrently all get the
        same pairs, whether served from cache or computed."""
        results = []
        errors = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def worker() -> None:
            barrier.wait()
            try:
                response = service.query(self._join_request())
                with lock:
                    results.append(json.dumps(response["pairs"]))
            except Exception as exc:  # pragma: no cover - failure detail
                with lock:
                    errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(set(results)) == 1
        stats = service.cache.stats()
        assert stats.hits + stats.misses == 8


class TestValidationAndLimits:
    def test_unknown_dataset(self, service):
        with pytest.raises(UnknownDatasetError):
            service.query({"type": "join", "dataset": "nope",
                           "eps_loc": 1, "eps_doc": 1, "eps_user": 1})

    def test_unknown_type(self, service):
        with pytest.raises(QueryError):
            service.query({"type": "frobnicate", "dataset": "demo"})

    def test_unknown_algorithm(self, service):
        with pytest.raises(QueryError):
            service.query({"type": "join", "dataset": "demo",
                           "algorithm": "quantum", "eps_loc": 1,
                           "eps_doc": 1, "eps_user": 1})

    def test_non_numeric_threshold(self, service):
        with pytest.raises(QueryError):
            service.query({"type": "join", "dataset": "demo",
                           "eps_loc": "wide", "eps_doc": 1, "eps_user": 1})

    def test_knn_needs_user(self, service):
        with pytest.raises(QueryError):
            service.query({"type": "knn", "dataset": "demo",
                           "eps_loc": 1, "eps_doc": 1, "k": 3})

    def test_explain_not_supported_for_knn(self, service):
        with pytest.raises(QueryError):
            service.query({"type": "knn", "dataset": "demo", "user": "u",
                           "eps_loc": 1, "eps_doc": 1, "k": 3,
                           "explain": True})

    def test_draining_service_rejects(self, service):
        service.drain(timeout=1)
        with pytest.raises(AdmissionRejected):
            service.query({"type": "join", "dataset": "demo",
                           "eps_loc": EPS_LOC, "eps_doc": EPS_DOC,
                           "eps_user": EPS_USER, "no_cache": True})


class TestFingerprint:
    def test_response_carries_fingerprint(self, service, dataset):
        response = service.query(
            {"type": "join", "dataset": "demo", "eps_loc": EPS_LOC,
             "eps_doc": EPS_DOC, "eps_user": EPS_USER}
        )
        assert response["fingerprint"] == dataset.fingerprint()

    def test_fingerprint_is_content_stable(self, dataset):
        """Same objects, different construction order: same fingerprint."""
        records = [
            (obj.user, obj.x, obj.y, set(dataset.vocab.decode(obj.doc)))
            for obj in dataset.objects
        ]
        from repro import STDataset

        rebuilt = STDataset.from_records(list(reversed(records)))
        assert rebuilt.fingerprint() == dataset.fingerprint()

    def test_execution_report_carries_fingerprint(self, dataset):
        pairs, report = stps_join(
            dataset, EPS_LOC, EPS_DOC, EPS_USER, with_report=True
        )
        assert report.dataset_fingerprint == dataset.fingerprint()
        assert f"dataset {dataset.fingerprint()}" in report.summary()

    def test_warm_indexes_are_shared(self, service):
        prepared = service.registry.get("demo")
        index_a = prepared.grid_index(EPS_LOC)
        index_b = prepared.grid_index(EPS_LOC)
        assert index_a is index_b
        assert prepared.index_stats()["grid_indexes"] == 1


class TestClose:
    def _join(self, svc):
        return svc.query(
            {
                "type": "join",
                "dataset": "demo",
                "algorithm": "s-ppj-f",
                "eps_loc": EPS_LOC,
                "eps_doc": EPS_DOC,
                "eps_user": EPS_USER,
            }
        )

    def test_close_drops_own_index_caches(self, service, dataset):
        first = self._join(service)
        assert first["pairs"]
        index = service.registry.get("demo").grid_index(EPS_LOC)
        assert index._user_packs and index._table is not None
        service.close()
        assert not index._user_packs and index._table is None
        assert not index._prefix_indexes and not index._user_packs
        # Datasets, indexes and cached results stay readable.
        assert service.registry.get("demo").grid_index(EPS_LOC) is index
        assert len(service.cache) == 1
        user = dataset.users[0]
        assert similar_users(
            dataset, user, EPS_LOC, EPS_DOC, K, index=index
        ) == similar_users(dataset, user, EPS_LOC, EPS_DOC, K)

    def test_close_keeps_a_shared_registry(self, dataset):
        shared = DatasetRegistry()
        owner = JoinService(registry=shared)
        owner.register_dataset("demo", dataset)
        guest = JoinService(registry=shared)
        expected = self._join(guest)
        index = shared.get("demo").grid_index(EPS_LOC)
        guest.close()
        assert index._user_packs and index._table is not None
        assert self._join(owner)["pairs"] == expected["pairs"]
