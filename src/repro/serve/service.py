"""The transport-free query service the HTTP layer and the tests drive.

:class:`JoinService` owns the pieces of the resident server that do not
care about HTTP: the dataset registry with its warm indexes, the LRU
result cache, the admission controller and the server-level metrics
registry.  ``query()`` takes a JSON-ready request dict and returns a
JSON-ready response dict — the HTTP layer only serializes.

Correctness contract: a served result is byte-identical to the direct
API call (:func:`repro.stps_join` / :func:`repro.topk_stps_join` /
:func:`repro.core.knn.similar_users`) on the same dataset.  Warm-index
reuse preserves this (the index content seen at evaluation time is the
same either way), and the cache key contains every parameter that
affects the result, fingerprint included.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional, Tuple

from ..core.api import JOIN_ALGORITHMS, TOPK_ALGORITHMS, stps_join, topk_stps_join
from ..core.knn import similar_users
from ..datasets.loaders import load_tsv
from ..exec import DeadlineExceeded, ExecutionPolicy
from ..obs import MetricsRegistry, Telemetry
from ..obs.analytics import STATS_SCHEMA_VERSION, SLOPolicy, WindowAggregator
from .admission import AdmissionController, AdmissionRejected
from .audit import AuditLog, AuditRecord, SlowQueryLog
from .cache import ResultCache
from .registry import DatasetRegistry, PreparedDataset

__all__ = ["JoinService", "QueryError", "UnknownDatasetError"]

#: Algorithms evaluated on the shared per-``eps_loc`` grid index.  One
#: ``with_tokens=True`` grid serves them all: S-PPJ-C/B simply ignore
#: the token lists, S-PPJ-F / top-k / knn probe them.
_GRID_ALGORITHMS = frozenset(
    {"s-ppj-c", "s-ppj-b", "s-ppj-f", "topk-s-ppj-f", "topk-s-ppj-s", "topk-s-ppj-p"}
)

#: Algorithms evaluated on the leaf-partitioned index.
_LEAF_ALGORITHMS = frozenset({"s-ppj-d", "topk-s-ppj-d"})

_QUERY_KINDS = ("join", "topk", "knn")


class QueryError(ValueError):
    """A malformed or unsupported query (HTTP 400)."""


class UnknownDatasetError(KeyError):
    """The named dataset is not registered (HTTP 404)."""

    def __str__(self) -> str:  # KeyError quotes its message otherwise
        return self.args[0] if self.args else ""


def _require_number(request: Dict[str, Any], key: str) -> float:
    value = request.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise QueryError(f"{key} must be a number")
    return float(value)


def _require_int(request: Dict[str, Any], key: str) -> int:
    value = request.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise QueryError(f"{key} must be an integer")
    return value


class JoinService:
    """Warm-index query evaluation behind admission control and a cache."""

    def __init__(
        self,
        registry: Optional[DatasetRegistry] = None,
        cache_capacity: int = 256,
        max_inflight: int = 4,
        max_queue: int = 16,
        default_deadline: Optional[float] = None,
        analytics: bool = True,
        audit_ring: int = 1024,
        audit_path: Optional[str] = None,
        audit_max_bytes: int = 4 * 1024 * 1024,
        audit_backups: int = 3,
        slow_threshold: float = 1.0,
        slo: Optional[SLOPolicy] = None,
        window_bucket_seconds: float = 10.0,
        window_buckets: int = 6,
    ) -> None:
        # A registry passed in may be shared with other services; close()
        # releases only one built here.
        self._owns_registry = registry is None
        self.registry = registry if registry is not None else DatasetRegistry()
        self.cache = ResultCache(capacity=cache_capacity)
        self.admission = AdmissionController(
            max_inflight=max_inflight, max_queue=max_queue
        )
        self.default_deadline = default_deadline
        self.metrics = MetricsRegistry()
        self.started_at = time.time()
        # Live analytics (audit ring + JSONL, sliding windows, slow-query
        # log, SLO watchdog) — opt-out; with analytics=False none of it is
        # built and the query path is byte-for-byte the pre-analytics one.
        self.slo = slo if slo is not None else SLOPolicy()
        if analytics:
            self.audit: Optional[AuditLog] = AuditLog(
                maxlen=audit_ring,
                path=audit_path,
                max_bytes=audit_max_bytes,
                backups=audit_backups,
            )
            self.window: Optional[WindowAggregator] = WindowAggregator(
                bucket_seconds=window_bucket_seconds,
                num_buckets=window_buckets,
            )
            self.slow: Optional[SlowQueryLog] = SlowQueryLog(
                threshold_seconds=slow_threshold
            )
        else:
            self.audit = None
            self.window = None
            self.slow = None
        self._recapture_lock = threading.Lock()

    # ------------------------------------------------------------------
    # dataset management

    def register_dataset(self, name: str, dataset) -> PreparedDataset:
        prepared = self.registry.register(name, dataset)
        self.metrics.counter("serve.datasets.registered").inc()
        return prepared

    def register_path(self, name: str, path: str) -> PreparedDataset:
        """Load a TSV dataset from disk and register it under ``name``."""
        return self.register_dataset(name, load_tsv(path))

    def _prepared(self, name: Any) -> PreparedDataset:
        if not isinstance(name, str) or not name:
            raise QueryError("dataset must be a non-empty string")
        prepared = self.registry.get(name)
        if prepared is None:
            raise UnknownDatasetError(f"unknown dataset: {name!r}")
        return prepared

    # ------------------------------------------------------------------
    # queries

    def query(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Evaluate one join / topk / knn request dict.

        Raises :class:`QueryError` (bad request),
        :class:`UnknownDatasetError`, :class:`.AdmissionRejected`
        (saturated / draining) or
        :class:`~repro.exec.DeadlineExceeded` (per-query deadline).

        With analytics enabled, *every* outcome — including those raised
        exceptions — leaves one :class:`~repro.serve.audit.AuditRecord`
        and one sliding-window observation behind; over-threshold
        queries additionally land in the slow-query log.  The response
        payload itself is byte-identical with analytics on or off.
        """
        start = time.perf_counter()
        record = self._begin_audit(request)
        if record is None:
            return self._query_impl(request, start, None)
        try:
            response = self._query_impl(request, start, record)
        except QueryError as exc:
            self._finish_audit(record, request, start, "bad_request", exc)
            raise
        except UnknownDatasetError as exc:
            self._finish_audit(record, request, start, "unknown_dataset", exc)
            raise
        except AdmissionRejected as exc:
            self._finish_audit(record, request, start, "rejected", exc)
            raise
        except DeadlineExceeded as exc:
            self._finish_audit(record, request, start, "deadline", exc)
            raise
        except Exception as exc:
            self._finish_audit(record, request, start, "error", exc)
            raise
        self._finish_audit(record, request, start, "ok", None)
        return response

    def _query_impl(
        self,
        request: Dict[str, Any],
        start: float,
        record: Optional[AuditRecord],
    ) -> Dict[str, Any]:
        if not isinstance(request, dict):
            raise QueryError("request body must be a JSON object")
        kind = request.get("type", "join")
        if kind not in _QUERY_KINDS:
            raise QueryError(
                f"unknown query type {kind!r}; choose from {_QUERY_KINDS}"
            )
        self.metrics.counter(f"serve.query.{kind}").inc()

        prepared, key, explain = self._parse(kind, request)
        if record is not None:
            record.dataset = prepared.name
            record.fingerprint = prepared.fingerprint
        use_cache = not explain and not request.get("no_cache", False)
        if use_cache:
            hit, payload = self.cache.get(key)
            self._record_cache()
            if hit:
                if record is not None:
                    record.cache = "hit"
                    record.result_count = payload.get("count")
                self.metrics.histogram("serve.request.seconds").observe(
                    time.perf_counter() - start
                )
                return self._respond(payload, cached=True, start=start)
            if record is not None:
                record.cache = "miss"

        admission = self.admission.admit()
        if record is not None:
            record.timings["queue"] = admission.waited
        with admission:
            payload = self._evaluate(kind, prepared, request, explain, record)
        if use_cache:
            self.cache.put(key, payload)
            self._record_cache()
        self.metrics.histogram("serve.request.seconds").observe(
            time.perf_counter() - start
        )
        return self._respond(payload, cached=False, start=start)

    # ------------------------------------------------------------------
    # audit + analytics

    def _begin_audit(self, request: Any) -> Optional[AuditRecord]:
        """A prefilled audit record (``None`` with analytics disabled).

        Fields are filled defensively from the raw request so even a
        query that fails validation leaves an attributable record; the
        evaluation path overwrites them with resolved values.
        """
        if self.audit is None:
            return None
        record = AuditRecord()
        if isinstance(request, dict):
            kind = request.get("type", "join")
            record.query_type = kind if isinstance(kind, str) else repr(kind)
            dataset = request.get("dataset")
            record.dataset = dataset if isinstance(dataset, str) else ""
            algorithm = request.get("algorithm")
            if not isinstance(algorithm, str):
                algorithm = {
                    "join": "s-ppj-f",
                    "topk": "topk-s-ppj-p",
                    "knn": "knn",
                }.get(record.query_type, "")
            record.algorithm = algorithm
            record.params = {
                k: request[k]
                for k in (
                    "eps_loc", "eps_doc", "eps_user", "k", "user", "fanout",
                    "partitioner", "deadline", "no_cache", "explain",
                )
                if k in request
            }
        return record

    def _finish_audit(
        self,
        record: AuditRecord,
        request: Any,
        start: float,
        outcome: str,
        exc: Optional[BaseException],
    ) -> None:
        """Seal and file one query's audit record, whatever its outcome."""
        record.seconds = time.perf_counter() - start
        record.outcome = outcome
        if exc is not None:
            record.error = type(exc).__name__
        self.audit.record(record)
        self.window.record(
            record.dataset or "?",
            record.algorithm or "?",
            record.seconds,
            outcome=outcome,
            cache=record.cache,
        )
        self.metrics.counter("serve.audit.records").inc()
        if outcome != "ok":
            self.metrics.counter(f"serve.audit.outcome.{outcome}").inc()
        if (
            self.slow is not None
            and outcome in ("ok", "deadline")
            and record.cache != "hit"
            and self.slow.is_slow(record.seconds)
        ):
            self._capture_slow(record, request)

    def _capture_slow(self, record: AuditRecord, request: Any) -> None:
        """File an over-threshold query, with a full EXPLAIN if possible.

        Explain-enabled queries already carry their report; everything
        else is *recaptured* — re-evaluated synchronously with
        ``explain=True`` and no deadline (so a 504'd query still yields a
        complete report), bypassing cache, admission and the audit path.
        One recapture at a time; when another is in progress the slow
        query is logged without an explain rather than queueing up.
        """
        self.metrics.counter("serve.slow.detected").inc()
        explain = getattr(record, "explain_payload", None)
        recaptured = False
        if (
            explain is None
            and record.query_type in ("join", "topk")
            and isinstance(request, dict)
            and self._recapture_lock.acquire(blocking=False)
        ):
            try:
                recapture = dict(request)
                recapture["explain"] = True
                recapture["deadline"] = None
                kind = recapture.get("type", "join")
                prepared, _key, _ = self._parse(kind, recapture)
                payload = self._evaluate(kind, prepared, recapture, True, None)
                explain = payload.get("explain")
                recaptured = True
            except Exception:
                explain = None
            finally:
                self._recapture_lock.release()
        self.slow.add(record, explain=explain, recaptured=recaptured)
        self.metrics.counter("serve.slow.captured").inc()

    def _parse(
        self, kind: str, request: Dict[str, Any]
    ) -> Tuple[PreparedDataset, tuple, bool]:
        """Validate the request; return (dataset, cache key, explain?)."""
        prepared = self._prepared(request.get("dataset"))
        algorithm = request.get(
            "algorithm", "topk-s-ppj-p" if kind == "topk" else "s-ppj-f"
        )
        eps_loc = _require_number(request, "eps_loc")
        eps_doc = _require_number(request, "eps_doc")
        if kind == "join":
            if algorithm not in JOIN_ALGORITHMS:
                raise QueryError(
                    f"unknown join algorithm {algorithm!r}; "
                    f"choose from {sorted(JOIN_ALGORITHMS)}"
                )
            third: Any = _require_number(request, "eps_user")
        elif kind == "topk":
            if algorithm not in TOPK_ALGORITHMS:
                raise QueryError(
                    f"unknown topk algorithm {algorithm!r}; "
                    f"choose from {sorted(TOPK_ALGORITHMS)}"
                )
            third = _require_int(request, "k")
        else:  # knn
            algorithm = "knn"
            third = _require_int(request, "k")
            user = request.get("user")
            if user is None or user == "":
                raise QueryError("user must be provided")
        explain = bool(request.get("explain", False))
        if explain and kind == "knn":
            raise QueryError("explain is not supported for knn queries")
        key = (
            prepared.fingerprint,
            kind,
            algorithm,
            eps_loc,
            eps_doc,
            third,
            request.get("user"),
            request.get("fanout"),
            request.get("partitioner"),
        )
        return prepared, key, explain

    def _policy(self, request: Dict[str, Any]) -> Optional[ExecutionPolicy]:
        deadline = request.get("deadline", self.default_deadline)
        if deadline is None:
            return None
        if not isinstance(deadline, (int, float)) or isinstance(deadline, bool):
            raise QueryError("deadline must be a number of seconds")
        return ExecutionPolicy(deadline=float(deadline))

    def _index_kwargs(
        self, prepared: PreparedDataset, algorithm: str, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        """The warm-index kwargs for ``algorithm`` (empty for naive)."""
        eps_loc = float(request["eps_loc"])
        if algorithm in _GRID_ALGORITHMS:
            return {"index": prepared.grid_index(eps_loc)}
        if algorithm in _LEAF_ALGORITHMS:
            fanout = request.get("fanout", 100)
            partitioner = request.get("partitioner", "rtree")
            if not isinstance(fanout, int) or isinstance(fanout, bool):
                raise QueryError("fanout must be an integer")
            if partitioner not in ("rtree", "quadtree"):
                raise QueryError(f"unknown partitioner: {partitioner!r}")
            return {
                "index": prepared.leaf_index(
                    eps_loc, fanout=fanout, partitioner=partitioner
                )
            }
        return {}

    def _evaluate(
        self,
        kind: str,
        prepared: PreparedDataset,
        request: Dict[str, Any],
        explain: bool,
        record: Optional[AuditRecord] = None,
    ) -> Dict[str, Any]:
        algorithm = request.get(
            "algorithm", "topk-s-ppj-p" if kind == "topk" else "s-ppj-f"
        )
        payload: Dict[str, Any] = {
            "dataset": prepared.name,
            "fingerprint": prepared.fingerprint,
            "type": kind,
        }
        if kind == "knn":
            setup_started = time.perf_counter()
            index = prepared.grid_index(float(request["eps_loc"]))
            exec_started = time.perf_counter()
            neighbours = similar_users(
                prepared.dataset,
                request["user"],
                float(request["eps_loc"]),
                float(request["eps_doc"]),
                int(request["k"]),
                index=index,
            )
            serialize_started = time.perf_counter()
            payload["user"] = request["user"]
            payload["neighbours"] = [[u, score] for u, score in neighbours]
            payload["count"] = len(neighbours)
            if record is not None:
                record.timings["setup"] = exec_started - setup_started
                record.timings["execute"] = serialize_started - exec_started
                record.timings["serialize"] = (
                    time.perf_counter() - serialize_started
                )
                record.result_count = len(neighbours)
            return payload

        payload["algorithm"] = algorithm
        if record is not None:
            record.algorithm = algorithm
        setup_started = time.perf_counter()
        kwargs = self._index_kwargs(prepared, algorithm, request)
        if record is not None:
            record.timings["setup"] = time.perf_counter() - setup_started
        policy = self._policy(request)
        if policy is not None:
            kwargs["policy"] = policy
        telemetry = Telemetry() if explain else None
        if telemetry is not None:
            kwargs["telemetry"] = telemetry
            kwargs["explain"] = True
        # Auditing asks the engine for its ExecutionReport so the record
        # carries run_id + predicted-vs-actual chunk-cost calibration; the
        # report never enters the payload, keeping cached responses
        # byte-identical with analytics on or off.
        with_report = record is not None
        if with_report:
            kwargs["with_report"] = True
        exec_started = time.perf_counter()
        if kind == "join":
            result = stps_join(
                prepared.dataset,
                float(request["eps_loc"]),
                float(request["eps_doc"]),
                float(request["eps_user"]),
                algorithm=algorithm,
                **kwargs,
            )
        else:
            result = topk_stps_join(
                prepared.dataset,
                float(request["eps_loc"]),
                float(request["eps_doc"]),
                int(request["k"]),
                algorithm=algorithm,
                **kwargs,
            )
        if record is not None:
            record.timings["execute"] = time.perf_counter() - exec_started
        report = None
        explain_report = None
        if explain and with_report:
            pairs, report, explain_report = result
        elif explain:
            pairs, explain_report = result
        elif with_report:
            pairs, report = result
        else:
            pairs = result
        if explain_report is not None:
            payload["explain"] = explain_report.as_dict()
        serialize_started = time.perf_counter()
        payload["pairs"] = [[p.user_a, p.user_b, p.score] for p in pairs]
        payload["count"] = len(pairs)
        if record is not None:
            record.timings["serialize"] = (
                time.perf_counter() - serialize_started
            )
            record.result_count = len(pairs)
            if report is not None:
                record.run_id = report.run_id
                if report.chunk_costs:
                    record.chunk_timings = (
                        tuple(report.chunk_costs.items()),
                        tuple(report.chunk_seconds.items()),
                    )
            if explain_report is not None:
                record.funnel = dict(explain_report.user_funnel)
                # Transient (not serialized): lets the slow-query log
                # reuse this explain instead of recapturing.
                record.explain_payload = payload["explain"]
        return payload

    # ------------------------------------------------------------------
    # responses, metrics, lifecycle

    def _respond(
        self, payload: Dict[str, Any], cached: bool, start: float
    ) -> Dict[str, Any]:
        self.metrics.counter("serve.requests").inc()
        if cached:
            self.metrics.counter("serve.cache.served").inc()
        response = dict(payload)
        response["cached"] = cached
        response["elapsed"] = time.perf_counter() - start
        return response

    def _record_cache(self) -> None:
        """Mirror the cache counters into gauges the exporter can render."""
        stats = self.cache.stats()
        self.metrics.gauge("serve.cache.hits").set(stats.hits)
        self.metrics.gauge("serve.cache.misses").set(stats.misses)
        self.metrics.gauge("serve.cache.evictions").set(stats.evictions)
        self.metrics.gauge("serve.cache.size").set(stats.size)

    def metrics_text(self) -> str:
        """The ``/metrics`` body: Prometheus text exposition (0.0.4)."""
        from ..obs import to_prometheus

        admission = self.admission.stats()
        self.metrics.gauge("serve.inflight").set(admission["inflight"])
        self.metrics.gauge("serve.waiting").set(admission["waiting"])
        self.metrics.gauge("serve.admitted").set(admission["admitted"])
        self.metrics.gauge("serve.rejected").set(admission["rejected"])
        self._record_cache()
        self._record_window()
        return to_prometheus(self.metrics)

    def _record_window(self) -> None:
        """Fold the rolling window and audit stats into exporter gauges.

        The Prometheus exporter has no label support, so per-group stats
        become dotted gauge names (``serve.window.<dataset>.<algo>.p99``)
        the exporter sanitizes into underscores.
        """
        if self.window is None:
            return
        snapshot = self.window.snapshot()
        gauge = self.metrics.gauge
        for group in snapshot["groups"]:
            prefix = f"serve.window.{group['dataset']}.{group['algorithm']}"
            gauge(f"{prefix}.qps").set(group["qps"])
            gauge(f"{prefix}.error_rate").set(group["error_rate"])
            gauge(f"{prefix}.timeout_rate").set(group["timeout_rate"])
            gauge(f"{prefix}.cache_hit_ratio").set(group["cache_hit_ratio"])
            for q in ("p50", "p95", "p99"):
                gauge(f"{prefix}.{q}").set(group["latency"][q]["estimate"])
        totals = snapshot["totals"]
        gauge("serve.window.qps").set(totals["qps"])
        gauge("serve.window.error_rate").set(totals["error_rate"])
        gauge("serve.window.p99").set(totals["latency"]["p99"]["estimate"])
        audit = self.audit.stats()
        gauge("serve.audit.ring_size").set(audit["ring_size"])
        gauge("serve.audit.evicted").set(audit["evicted"])
        gauge("serve.audit.rotations").set(audit["rotations"])
        slow = self.slow.stats()
        gauge("serve.slow.ring_size").set(slow["ring_size"])
        gauge(
            "serve.slo.breaches"
        ).set(len(self.slo.breaches(snapshot)) if self.slo.configured else 0)

    def stats(self) -> dict:
        """JSON-ready service health snapshot (the ``/health`` body).

        ``status`` is ``draining`` during shutdown, ``degraded`` while
        the SLO watchdog sees a breach in the rolling window, else
        ``ok``.
        """
        status = "draining" if self.admission.draining else "ok"
        payload = {
            "status": status,
            "uptime": time.time() - self.started_at,
            "datasets": self.registry.names(),
            "admission": self.admission.stats(),
            "cache": self.cache.stats().as_dict(),
            "analytics": self.audit is not None,
        }
        if (
            status == "ok"
            and self.window is not None
            and self.slo.configured
        ):
            breaches = self.slo.breaches(self.window.snapshot())
            if breaches:
                payload["status"] = "degraded"
                payload["slo_breaches"] = breaches
        return payload

    def analytics_snapshot(self) -> dict:
        """The ``/stats`` body: rolling window stats + SLO judgment."""
        if self.window is None:
            return {
                "schema_version": STATS_SCHEMA_VERSION,
                "analytics": False,
            }
        snapshot = self.window.snapshot()
        breaches = self.slo.breaches(snapshot) if self.slo.configured else []
        return {
            "schema_version": STATS_SCHEMA_VERSION,
            "analytics": True,
            "generated_at": time.time(),
            "uptime": time.time() - self.started_at,
            "window": snapshot,
            "slo": {
                "policy": self.slo.as_dict(),
                "configured": self.slo.configured,
                "breaches": breaches,
                "status": "degraded" if breaches else "ok",
            },
            "audit": self.audit.stats(),
            "slow": self.slow.stats(),
        }

    def audit_tail(self, **filters) -> list:
        """Recent audit records (``/audit/tail``); empty when disabled."""
        if self.audit is None:
            return []
        return self.audit.tail(**filters)

    def slow_entries(self, n: int = -1) -> list:
        """Recent slow-query entries (``/audit/slow``); empty when disabled."""
        if self.slow is None:
            return []
        return self.slow.entries(n)

    def dataset_profile(self, name: str) -> dict:
        """The ``/datasets/<name>/stats`` body."""
        return self._prepared(name).profile()

    def drain(self, timeout: Optional[float] = 30.0) -> bool:
        """Reject new queries and wait for in-flight ones to finish."""
        self.admission.drain()
        return self.admission.wait_idle(timeout=timeout)

    def close(self) -> None:
        """Release resources: the audit log's file handle and, when the
        service built its own registry, the lazily built caches of the
        warm grid indexes (packs, prefix indexes, neighbour maps).

        The datasets, their indexes and the result cache stay readable;
        an index a caller still holds rebuilds what a later query
        touches.  A registry passed in may be shared with services still
        serving, so it is left as it is.
        """
        if self.audit is not None:
            self.audit.close()
        if self._owns_registry:
            self.registry.drop_caches()
