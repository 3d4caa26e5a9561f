"""Live query analytics through JoinService and the HTTP endpoints.

Covers the audit trail per outcome class, the latency breakdown and
cost-calibration capture, slow-query EXPLAIN recapture, the SLO
watchdog flipping ``/health`` to degraded, the opt-out contract
(byte-identical payloads, empty surfaces) and the new ``/stats``,
``/audit/*`` and ``/datasets/<name>/stats`` endpoints.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.exec import DeadlineExceeded
from repro.obs.analytics import STATS_SCHEMA_VERSION, SLOPolicy
from repro.serve import (
    JoinHTTPServer,
    JoinService,
    QueryError,
    ServeClient,
    ServerError,
    UnknownDatasetError,
    serve_forever,
)
from tests.helpers import build_clustered_dataset

EPS_LOC, EPS_DOC, EPS_USER, K = 0.05, 0.3, 0.2, 5


@pytest.fixture(scope="module")
def dataset():
    return build_clustered_dataset(seed=11, n_users=12, objects_per_user=6)


@pytest.fixture()
def service(dataset):
    svc = JoinService(cache_capacity=32)
    svc.register_dataset("demo", dataset)
    return svc


def _join_request(**extra):
    return {
        "type": "join",
        "dataset": "demo",
        "eps_loc": EPS_LOC,
        "eps_doc": EPS_DOC,
        "eps_user": EPS_USER,
        **extra,
    }


class TestAuditTrail:
    def test_ok_record_is_complete(self, service):
        service.query(_join_request())
        (record,) = service.audit_tail()
        assert record["outcome"] == "ok"
        assert record["dataset"] == "demo"
        assert record["algorithm"] == "s-ppj-f"
        assert record["cache"] == "miss"
        assert record["fingerprint"] == service.registry.get("demo").fingerprint
        assert set(record["timings"]) == {
            "queue", "setup", "execute", "serialize"
        }
        assert all(v >= 0 for v in record["timings"].values())
        assert record["run_id"]
        assert record["seconds"] > 0
        assert record["result_count"] is not None
        assert "kernel" not in record
        assert record["params"]["eps_loc"] == EPS_LOC

    def test_cache_hit_recorded(self, service):
        service.query(_join_request())
        service.query(_join_request())
        records = service.audit_tail()
        assert [r["cache"] for r in records] == ["miss", "hit"]
        assert [r["outcome"] for r in records] == ["ok", "ok"]

    def test_calibration_recorded_for_engine_runs(self, service):
        service.query(_join_request(algorithm="s-ppj-c"))
        (record,) = service.audit_tail()
        calibration = record["calibration"]
        assert calibration["chunks"] > 0
        assert (
            calibration["ratio_min"]
            <= calibration["ratio_median"]
            <= calibration["ratio_max"]
        )
        assert calibration["seconds_per_cost"] > 0

    def test_bad_request_recorded_and_raised(self, service):
        with pytest.raises(QueryError):
            service.query(_join_request(eps_loc="bogus"))
        (record,) = service.audit_tail()
        assert record["outcome"] == "bad_request"
        assert record["error"] == "QueryError"
        assert record["dataset"] == "demo"

    def test_unknown_dataset_recorded(self, service):
        with pytest.raises(UnknownDatasetError):
            service.query(_join_request(dataset="nope"))
        (record,) = service.audit_tail()
        assert record["outcome"] == "unknown_dataset"
        assert record["dataset"] == "nope"

    def test_deadline_recorded(self, service):
        with pytest.raises(DeadlineExceeded):
            service.query(_join_request(deadline=1e-9, no_cache=True))
        (record,) = service.audit_tail()
        assert record["outcome"] == "deadline"
        assert record["error"] == "DeadlineExceeded"

    def test_window_sees_every_outcome(self, service):
        service.query(_join_request())
        with pytest.raises(UnknownDatasetError):
            service.query(_join_request(dataset="nope"))
        snapshot = service.window.snapshot()
        keys = {(g["dataset"], g["algorithm"]): g for g in snapshot["groups"]}
        assert keys[("demo", "s-ppj-f")]["ok"] == 1
        assert keys[("nope", "s-ppj-f")]["errors"] == 1

    def test_concurrent_queries_audited_exactly_once(self, dataset):
        svc = JoinService(cache_capacity=0, audit_ring=16)
        svc.register_dataset("demo", dataset)
        threads = 8
        barrier = threading.Barrier(threads)
        errors = []

        def worker() -> None:
            barrier.wait()
            try:
                for _ in range(5):
                    svc.query(_join_request(no_cache=True))
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert not errors
        stats = svc.audit.stats()
        assert stats["recorded"] == threads * 5
        assert stats["ring_size"] == 16
        seqs = [r["seq"] for r in svc.audit.tail(n=-1)]
        assert seqs == sorted(seqs)


class TestSlowQueryLog:
    def test_slow_query_recaptured_with_full_explain(self, dataset):
        svc = JoinService(slow_threshold=1e-9)  # everything is slow
        svc.register_dataset("demo", dataset)
        svc.query(_join_request())
        (entry,) = [
            e for e in svc.slow_entries()
            if e["record"]["outcome"] == "ok"
        ]
        assert entry["recaptured"]
        explain = entry["explain"]
        assert explain["kind"] == "explain"
        assert explain["user_funnel"]
        assert explain["cost_calibration"]["chunks"] > 0

    def test_deadline_query_recaptured_without_deadline(self, dataset):
        svc = JoinService(slow_threshold=1e-9)
        svc.register_dataset("demo", dataset)
        with pytest.raises(DeadlineExceeded):
            svc.query(_join_request(deadline=1e-9, no_cache=True))
        entries = [
            e for e in svc.slow_entries()
            if e["record"]["outcome"] == "deadline"
        ]
        assert entries
        # The recapture re-ran without the lethal deadline, so the
        # explain is complete even though the original query 504'd.
        assert entries[-1]["recaptured"]
        assert entries[-1]["explain"]["kind"] == "explain"

    def test_explain_query_reuses_its_own_report(self, dataset):
        svc = JoinService(slow_threshold=1e-9)
        svc.register_dataset("demo", dataset)
        svc.query(_join_request(explain=True))
        entry = svc.slow_entries()[-1]
        assert entry["explain"]["kind"] == "explain"
        assert not entry["recaptured"]

    def test_cache_hits_not_slow_logged(self, dataset):
        svc = JoinService(slow_threshold=1e-9)
        svc.register_dataset("demo", dataset)
        svc.query(_join_request())
        svc.query(_join_request())  # hit
        hits = [
            e for e in svc.slow_entries()
            if e["record"]["cache"] == "hit"
        ]
        assert not hits

    def test_knn_slow_logged_without_explain(self, dataset):
        svc = JoinService(slow_threshold=1e-9)
        svc.register_dataset("demo", dataset)
        svc.query(
            {
                "type": "knn",
                "dataset": "demo",
                "user": next(iter(dataset.users)),
                "eps_loc": EPS_LOC,
                "eps_doc": EPS_DOC,
                "k": K,
            }
        )
        (entry,) = svc.slow_entries()
        assert entry["record"]["type"] == "knn"
        assert entry["explain"] is None  # explain unsupported for knn
        assert not entry["recaptured"]


class TestSLOWatchdog:
    def test_breach_degrades_health(self, dataset):
        svc = JoinService(slo=SLOPolicy(error_rate=0.1, min_count=1))
        svc.register_dataset("demo", dataset)
        with pytest.raises(UnknownDatasetError):
            svc.query(_join_request(dataset="nope"))
        stats = svc.stats()
        assert stats["status"] == "degraded"
        assert stats["slo_breaches"][0]["metric"] == "error_rate"
        snapshot = svc.analytics_snapshot()
        assert snapshot["slo"]["status"] == "degraded"

    def test_unconfigured_policy_never_degrades(self, service):
        with pytest.raises(UnknownDatasetError):
            service.query(_join_request(dataset="nope"))
        assert service.stats()["status"] == "ok"

    def test_healthy_when_within_targets(self, dataset):
        svc = JoinService(slo=SLOPolicy(p99_seconds=3600.0, min_count=1))
        svc.register_dataset("demo", dataset)
        svc.query(_join_request())
        assert svc.stats()["status"] == "ok"


class TestOptOut:
    def test_payload_byte_identical_with_analytics_off(self, dataset):
        svc_on = JoinService()
        svc_off = JoinService(analytics=False)
        for svc in (svc_on, svc_off):
            svc.register_dataset("demo", dataset)
        on = svc_on.query(_join_request())
        off = svc_off.query(_join_request())
        scrub = lambda p: {k: v for k, v in p.items() if k != "elapsed"}
        assert json.dumps(scrub(on), sort_keys=True) == json.dumps(
            scrub(off), sort_keys=True
        )

    def test_surfaces_empty_when_disabled(self, dataset):
        svc = JoinService(analytics=False)
        svc.register_dataset("demo", dataset)
        svc.query(_join_request())
        assert svc.audit is None
        assert svc.audit_tail() == []
        assert svc.slow_entries() == []
        snapshot = svc.analytics_snapshot()
        assert snapshot == {
            "schema_version": STATS_SCHEMA_VERSION,
            "analytics": False,
        }
        assert svc.stats()["analytics"] is False

    def test_metrics_text_fold(self, service):
        service.query(_join_request())
        text = service.metrics_text()
        assert "repro_serve_window_demo_s_ppj_f_p99" in text
        assert "repro_serve_audit_ring_size" in text


class TestAnalyticsSnapshot:
    def test_schema(self, service):
        service.query(_join_request())
        snapshot = service.analytics_snapshot()
        assert snapshot["schema_version"] == STATS_SCHEMA_VERSION
        assert snapshot["analytics"] is True
        window = snapshot["window"]
        assert window["groups"][0]["latency"]["p99"]["lower"] <= (
            window["groups"][0]["latency"]["p99"]["upper"]
        )
        assert snapshot["audit"]["recorded"] == 1
        assert snapshot["slow"]["ring_maxlen"] > 0


class TestHTTPEndpoints:
    @pytest.fixture()
    def served(self, dataset):
        service = JoinService(
            cache_capacity=32,
            slow_threshold=1e-9,
            slo=SLOPolicy(p99_seconds=3600.0),
        )
        service.register_dataset("demo", dataset)
        server = JoinHTTPServer(("127.0.0.1", 0), service, drain_timeout=2.0)
        thread = threading.Thread(
            target=serve_forever, args=(server, False), daemon=True
        )
        thread.start()
        client = ServeClient(f"http://127.0.0.1:{server.port}", timeout=10.0)
        try:
            yield client, service
        finally:
            server.initiate_shutdown()
            thread.join(timeout=10)

    def test_stats_endpoint(self, served):
        client, _ = served
        client.join("demo", EPS_LOC, EPS_DOC, EPS_USER)
        stats = client.stats()
        assert stats["schema_version"] == STATS_SCHEMA_VERSION
        assert stats["slo"]["configured"] is True
        assert stats["window"]["totals"]["count"] == 1

    def test_audit_tail_endpoint_with_filters(self, served):
        client, _ = served
        client.join("demo", EPS_LOC, EPS_DOC, EPS_USER)
        try:
            client.join("nope", EPS_LOC, EPS_DOC, EPS_USER)
        except ServerError:
            pass
        assert len(client.audit_tail(n=10)) == 2
        records = client.audit_tail(n=10, outcome="unknown_dataset")
        assert [r["dataset"] for r in records] == ["nope"]
        assert client.audit_tail(n=10, since_seq=2) == []

    def test_audit_slow_endpoint(self, served):
        client, _ = served
        client.join("demo", EPS_LOC, EPS_DOC, EPS_USER)
        entries = client.slow_queries()
        assert entries
        assert entries[-1]["explain"]["kind"] == "explain"

    def test_dataset_stats_endpoint(self, served, dataset):
        client, _ = served
        client.join("demo", EPS_LOC, EPS_DOC, EPS_USER)  # warms the grid
        profile = client.dataset_stats("demo")
        assert profile["name"] == "demo"
        assert profile["objects"] == len(dataset.objects)
        assert profile["users"] == dataset.num_users
        assert profile["distinct_tokens"] > 0
        (grid,) = profile["grids"]
        assert grid["eps_loc"] == EPS_LOC
        assert grid["occupied_cells"] > 0
        assert grid["objects"] == len(dataset.objects)

    def test_dataset_stats_unknown_404(self, served):
        client, _ = served
        with pytest.raises(ServerError) as excinfo:
            client.dataset_stats("missing")
        assert excinfo.value.status == 404

    def test_bad_tail_params_400(self, served):
        client, _ = served
        with pytest.raises(ServerError) as excinfo:
            client._request("GET", "/audit/tail?n=bogus")
        assert excinfo.value.status == 400
