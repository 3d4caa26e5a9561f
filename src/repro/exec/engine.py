"""The unified parallel execution engine: :class:`JoinExecutor`.

One executor drives every join in the repository — the four S-PPJ
threshold algorithms, the exhaustive oracles and the top-k family — by
delegating algorithm knowledge to the plans of :mod:`repro.exec.plans`
(the only implementation of each algorithm) and keeping scheduling,
worker lifecycle, fault handling and stats plumbing here.

Backends
--------

``sequential``
    Everything inline in the calling thread, on one worker.  This is the
    route of a plain :func:`~repro.core.api.stps_join` call, and the
    baseline all other backends are tested against.

``thread``
    A ``multiprocessing.dummy`` pool: worker state is shared by
    reference, tasks are Python threads.  The GIL serializes the join
    work, so this backend is about overhead measurement and about
    exercising the scheduling machinery cheaply, not about speedup.

``process``
    A real process pool with dynamic chunk scheduling.  Two transports:

    * ``fork`` — workers inherit the parent's built indexes through
      copy-on-write memory; nothing is serialized.
    * ``spawn`` — workers start blank; the parent pickles a compact
      :class:`~repro.stindex.snapshot.DatasetSnapshot` into each worker's
      initializer, which restores the dataset and rebuilds the plan state
      locally.  Index construction is deterministic, so results are
      byte-identical to fork and sequential runs.

    The start method is resolved against
    ``multiprocessing.get_all_start_methods()`` at construction time: an
    explicitly requested method that is unavailable raises
    :class:`BackendUnavailableError` (never a silent fallback), while
    automatic resolution prefers ``fork`` and emits a
    :class:`RuntimeWarning` when it has to settle for ``spawn``.  The
    ``REPRO_START_METHOD`` environment variable acts as an explicit
    request, which is how CI forces the spawn transport.

Resilience
----------

Without an :class:`~repro.exec.resilience.ExecutionPolicy` the engine is
exact and brittle on purpose: a chunk exception propagates, results are
all-or-nothing, and the scheduling path is byte-for-byte the cheap
``imap_unordered`` loop.  With a policy, pooled chunks run through an
``AsyncResult``-based dispatcher that adds, per
``docs/robustness.md``:

* per-chunk retries with deterministic exponential backoff;
* per-chunk timeouts (task abandoned and re-dispatched) and a whole-run
  deadline;
* worker-crash detection — the dispatcher watches the pool's worker pids,
  rebuilds the pool when one dies (``respawn_limit`` times) and requeues
  the chunks that were in flight;
* graceful degradation: a chunk that exhausts its pool attempts is
  re-executed on a degraded rung (thread, then inline in the caller)
  under ``on_failure="degrade"``, or recorded and skipped under
  ``"partial"``;
* an :class:`~repro.exec.resilience.ExecutionReport` describing exactly
  what happened.

Determinism
-----------

Every plan partitions the pair space so each unordered user pair is
evaluated by exactly one task, results are accepted at most once per
chunk, and merged through the canonical order of
:func:`repro.core.query.pair_sort_key`.  Output is therefore
byte-identical across backends, worker counts, chunk sizes, retries and
degraded re-executions — whenever the report's completeness is 1.0 — the
property ``tests/exec/test_determinism.py`` and
``tests/exec/test_resilience.py`` pin down.  Per-task stats counters are
collected per chunk and merged into the caller's
:class:`~repro.core.pair_eval.PairEvalStats` only when that chunk's
result is accepted, so each pair's work is counted exactly once even
when attempts fail midway and are retried.
"""

from __future__ import annotations

import itertools
import multiprocessing
import multiprocessing.dummy
import os
import threading
import time
import warnings
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..core.model import STDataset
from ..core.pair_eval import PairEvalStats
from ..core.query import STPSJoinQuery, TopKQuery, UserPair, pair_sort_key
from ..obs import runtime as _obs
from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import Telemetry
from ..stindex.snapshot import DatasetSnapshot
from . import faults as _faults
from .errors import BackendUnavailableError, DeadlineExceeded, ExecutionFailed
from .plans import Plan, get_plan
from .resilience import ChunkFailure, ExecutionPolicy, ExecutionReport, backoff_delay

__all__ = ["JoinExecutor", "BackendUnavailableError", "BACKENDS"]

#: Recognized backend names.
BACKENDS = ("sequential", "thread", "process")

#: Worker-side state, keyed by run token so that concurrent or nested
#: executors in one process (and a ``build_state`` that raises midway)
#: can never clobber each other's entries.  With the ``fork`` start
#: method (and the thread backend) the parent populates its run's entry
#: before workers exist; with ``spawn`` each worker's initializer fills
#: its own copy under the same token.
_WORKER_STATE: Dict[int, dict] = {}

#: Run-token allocator (process-wide; fork children inherit a snapshot
#: of the counter but never allocate, so collisions cannot happen).
_RUN_TOKENS = itertools.count(1)

#: Run-id sequence for untraced runs (``ExecutionReport.run_id`` when no
#: telemetry supplies a traced span id).
_RUN_SEQ = itertools.count(1)


def _execute_chunk(
    plan: Plan,
    state,
    chunk,
    chunk_index: int,
    attempt: int,
    with_stats: bool,
    with_metrics: bool = False,
) -> Tuple[List[UserPair], Optional[dict], Optional[dict], float]:
    """Evaluate one chunk, honoring the active fault plan.

    Returns ``(pairs, stats, metrics, seconds)``.  Stats — and, when
    telemetry is on, a chunk-local metrics registry — are collected per
    attempt and returned as plain dicts: a failed attempt therefore
    contributes *nothing* to the caller's counters — they are merged only
    when the chunk's result is accepted, so retried work is never
    double-counted.  ``seconds`` is the attempt's own wall-clock time,
    measured where the chunk ran (worker-side for pooled backends).
    """
    fault_plan = _faults.active_fault_plan()
    if fault_plan is not None:
        fault_plan.maybe_fire(chunk_index, attempt)
    stats = PairEvalStats() if with_stats else None
    if not with_metrics:
        started = time.perf_counter()
        pairs = plan.run_chunk(state, chunk, stats)
        seconds = time.perf_counter() - started
        return pairs, (stats.as_dict() if stats is not None else None), None, seconds
    registry = MetricsRegistry()
    previous = _obs.activate(registry)
    started = time.perf_counter()
    try:
        pairs = plan.run_chunk(state, chunk, stats)
    finally:
        seconds = time.perf_counter() - started
        _obs.restore(previous)
    return (
        pairs,
        (stats.as_dict() if stats is not None else None),
        registry.as_dict(),
        seconds,
    )


def _run_task(task) -> Tuple[int, List[UserPair], Optional[dict], Optional[dict], float]:
    """Pool-worker entry point; ``task = (token, index, attempt, chunk)``."""
    token, chunk_index, attempt, chunk = task
    entry = _WORKER_STATE[token]
    pairs, counters, metrics, seconds = _execute_chunk(
        entry["plan"], entry["state"], chunk, chunk_index, attempt,
        entry["with_stats"], entry["with_metrics"],
    )
    return chunk_index, pairs, counters, metrics, seconds


def _init_spawn_worker(
    token: int,
    snapshot: DatasetSnapshot,
    kind: str,
    algorithm: str,
    query,
    with_stats: bool,
    with_metrics: bool,
    kwargs: dict,
    fault_plan_text: Optional[str],
) -> None:
    """Spawn-worker initializer: restore the dataset, rebuild plan state.

    Index construction happens here with no active registry — spawn
    workers' build phases are deliberately absent from the parent's
    metrics (documented in ``docs/observability.md``); chunk-scoped
    counters remain byte-identical to the other transports.
    """
    if fault_plan_text:
        _faults.install_fault_plan(_faults.FaultPlan.parse(fault_plan_text))
    dataset = snapshot.restore()
    plan = get_plan(kind, algorithm)
    state = plan.build_state(dataset, query, **kwargs)
    plan.warm(state, with_stats, with_metrics)
    _WORKER_STATE[token] = {
        "plan": plan,
        "state": state,
        "with_stats": with_stats,
        "with_metrics": with_metrics,
    }


def _run_chunk_in_thread(
    plan: Plan,
    state,
    chunk,
    chunk_index: int,
    attempt: int,
    with_stats: bool,
    with_metrics: bool,
    timeout: Optional[float],
) -> Tuple[List[UserPair], Optional[dict], Optional[dict], float]:
    """Degraded thread rung: one chunk on a fresh daemon thread.

    Unlike plain inline execution this rung can enforce a timeout — the
    hung thread is abandoned (daemon, so it cannot block interpreter
    exit) and a ``TimeoutError`` is raised to the dispatcher.
    """
    box: dict = {}

    def target() -> None:
        try:
            box["ok"] = _execute_chunk(
                plan, state, chunk, chunk_index, attempt, with_stats,
                with_metrics,
            )
        except BaseException as exc:  # noqa: BLE001 - relayed to the caller
            box["err"] = exc

    worker = threading.Thread(
        target=target, name=f"repro-degraded-{chunk_index}", daemon=True
    )
    worker.start()
    worker.join(timeout)
    if worker.is_alive():
        raise TimeoutError(
            f"degraded thread rung for chunk {chunk_index} exceeded "
            f"{timeout}s"
        )
    if "err" in box:
        raise box["err"]
    return box["ok"]


class _Deadline:
    """Monotonic wall-clock budget; ``None`` seconds means unbounded."""

    __slots__ = ("_at",)

    def __init__(self, seconds: Optional[float]):
        self._at = None if seconds is None else time.monotonic() + seconds

    def expired(self) -> bool:
        return self._at is not None and time.monotonic() >= self._at

    def remaining(self) -> float:
        if self._at is None:
            return float("inf")
        return max(0.0, self._at - time.monotonic())


def _worker_pids(pool) -> Set[int]:
    """Pids of a process pool's current workers (crash watchdog input)."""
    return {w.pid for w in getattr(pool, "_pool", []) if w.pid is not None}


def _terminate_pool(pool) -> None:
    """Terminate a pool, swallowing teardown races.

    ``Pool.terminate`` SIGTERMs process workers (safe for hung chunks);
    for ``multiprocessing.dummy`` pools it only signals the handler
    threads — hung worker threads are daemons and are left to drain.
    """
    try:
        pool.terminate()
    except Exception:  # pragma: no cover - teardown best-effort
        pass


class JoinExecutor:
    """Runs any (top-k) STPSJoin algorithm across a worker pool.

    Parameters
    ----------
    workers:
        Worker count; ``None`` uses ``os.cpu_count()``.  ``workers=1``
        always evaluates inline (no pool), whatever the backend, and the
        sequential backend always has one worker.
    backend:
        ``"sequential"``, ``"thread"`` or ``"process"``.
    start_method:
        Process start method (``"fork"``, ``"spawn"``, ``"forkserver"``).
        ``None`` resolves automatically: the ``REPRO_START_METHOD``
        environment variable if set, else ``fork`` when available, else
        ``spawn`` with a :class:`RuntimeWarning`.  Requesting (directly or
        via the environment) a method the platform does not provide
        raises :class:`BackendUnavailableError`.
    chunk_size:
        Work units (user pairs or users, depending on the algorithm) per
        task; ``None`` (the default) lets the plan's cost model pack
        chunks of balanced *estimated work* (~``|Du|·|Du'|`` per pair)
        instead of equal unit counts — see ``docs/performance.md``.  A
        one-worker run without a deadline has nothing to balance and
        runs as a single chunk.
    policy:
        Default :class:`~repro.exec.resilience.ExecutionPolicy` for every
        run of this executor; ``None`` keeps the exact, fail-fast
        behavior.  :meth:`join` / :meth:`topk` accept a per-call override.

    After every run that had a policy (or requested a report),
    ``last_report`` holds the :class:`~repro.exec.resilience.ExecutionReport`.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        backend: str = "process",
        start_method: Optional[str] = None,
        chunk_size: Optional[int] = None,
        policy: Optional[ExecutionPolicy] = None,
    ):
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; choose from {BACKENDS}"
            )
        if workers is not None and workers < 1:
            raise ValueError("workers must be positive")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        self.backend = backend
        if backend == "sequential":
            self.workers = 1
        else:
            self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.chunk_size = chunk_size
        self.policy = policy
        self.last_report: Optional[ExecutionReport] = None
        self.start_method: Optional[str] = None
        if backend == "process":
            self.start_method = self._resolve_start_method(start_method)

    @staticmethod
    def _resolve_start_method(requested: Optional[str]) -> str:
        """Pick a start method, failing *loudly* when it cannot be honored."""
        available = multiprocessing.get_all_start_methods()
        origin = "start_method"
        if requested is None:
            env = os.environ.get("REPRO_START_METHOD")
            if env:
                requested, origin = env, "REPRO_START_METHOD"
        if requested is not None:
            if requested not in available:
                raise BackendUnavailableError(
                    f"{origin}={requested!r} is not available on this "
                    f"platform (available: {available})"
                )
            return requested
        if "fork" in available:
            return "fork"
        if "spawn" in available:
            warnings.warn(
                "the fork start method is unavailable; falling back to "
                "spawn (worker startup pickles a dataset snapshot and "
                "rebuilds indexes per worker)",
                RuntimeWarning,
                stacklevel=3,
            )
            return "spawn"
        raise BackendUnavailableError(
            "no multiprocessing start method is available on this platform"
        )

    # -- public entry points -----------------------------------------------------

    def join(
        self,
        dataset: STDataset,
        query: STPSJoinQuery,
        algorithm: str = "s-ppj-b",
        stats: Optional[PairEvalStats] = None,
        policy: Optional[ExecutionPolicy] = None,
        with_report: bool = False,
        telemetry: Optional[Telemetry] = None,
        **kwargs,
    ):
        """Evaluate a threshold STPSJoin; canonically sorted result.

        ``policy`` overrides the executor default for this call;
        ``with_report=True`` returns ``(pairs, report)`` instead of just
        the pair list.  The report is also stored on ``last_report``.
        ``telemetry`` attaches a :class:`~repro.obs.telemetry.Telemetry`
        that the run records metrics and trace spans into.
        """
        plan = get_plan("join", algorithm)
        pairs, report = self._run(
            plan, dataset, query, stats, kwargs, policy or self.policy,
            telemetry, with_report,
        )
        pairs.sort(key=pair_sort_key)
        self.last_report = report
        return (pairs, report) if with_report else pairs

    def topk(
        self,
        dataset: STDataset,
        query: TopKQuery,
        algorithm: str = "topk-s-ppj-p",
        stats: Optional[PairEvalStats] = None,
        policy: Optional[ExecutionPolicy] = None,
        with_report: bool = False,
        telemetry: Optional[Telemetry] = None,
        **kwargs,
    ):
        """Evaluate a top-k STPSJoin; canonically sorted k best pairs.

        Each task keeps a local top-k heap; the global top-k is a subset
        of the union of the local top-ks, so merging the per-task results
        canonically and truncating to ``k`` reproduces the sequential
        answer exactly.  ``policy`` / ``with_report`` / ``telemetry`` as
        in :meth:`join`.
        """
        plan = get_plan("topk", algorithm)
        pairs, report = self._run(
            plan, dataset, query, stats, kwargs, policy or self.policy,
            telemetry, with_report,
        )
        pairs.sort(key=pair_sort_key)
        self.last_report = report
        pairs = pairs[: query.k]
        return (pairs, report) if with_report else pairs

    # -- scheduling ---------------------------------------------------------------

    def _run(
        self,
        plan: Plan,
        dataset: STDataset,
        query,
        stats: Optional[PairEvalStats],
        kwargs: dict,
        policy: Optional[ExecutionPolicy],
        telemetry: Optional[Telemetry] = None,
        with_report: bool = False,
    ) -> Tuple[List[UserPair], ExecutionReport]:
        tele = telemetry if (telemetry is not None and telemetry.enabled) else None
        report = ExecutionReport(
            backend=self.backend,
            start_method=self.start_method,
            algorithm=f"{plan.kind}:{plan.name}",
        )
        # Hashing the whole dataset costs as much as a small join, so only
        # runs whose report is read (or traced) pay for it.
        if with_report or tele is not None:
            report.dataset_fingerprint = dataset.fingerprint()
        run_span = None
        if tele is not None:
            run_span = tele.tracer.start_run(
                plan.kind,
                attrs={
                    "algorithm": plan.name,
                    "backend": self.backend,
                    "start_method": self.start_method,
                    "workers": self.workers,
                },
            )
        # The run id is deterministic either way: the traced span id when
        # telemetry is active, an engine-local sequence number otherwise.
        report.run_id = (
            run_span.run_id if run_span is not None
            else f"{plan.kind}-{next(_RUN_SEQ):04d}"
        )
        start = time.perf_counter()
        try:
            n_units = plan.num_units(dataset)
            if n_units == 0:
                return [], report
            # An explicit chunk_size keeps the historical fixed-size
            # partition (fault plans and tests key on its chunk indices).
            # One worker without a deadline runs the whole plan as one
            # chunk: there is no load to balance, and a top-k heap that
            # spans the run prunes hardest.  Otherwise the plan's cost
            # model balances estimated work (and gives a deadline its
            # between-chunk checkpoints).
            if self.chunk_size is not None:
                chunks = list(plan.chunks(dataset, self.chunk_size))
            elif self.workers == 1 and (policy is None or policy.deadline is None):
                chunks = list(plan.chunks(dataset, n_units))
            else:
                chunks = list(plan.cost_chunks(dataset, self.workers))
            costs = plan.chunk_costs(dataset, chunks)
            if costs is not None:
                report.chunk_costs = dict(enumerate(costs))
            if self.backend == "sequential" or self.workers == 1:
                results = self._run_inline(
                    plan, dataset, query, stats, kwargs, chunks, policy,
                    report, tele, run_span,
                )
            else:
                results = self._run_pooled(
                    plan,
                    dataset,
                    query,
                    stats,
                    kwargs,
                    chunks,
                    process=(self.backend == "process"),
                    policy=policy,
                    report=report,
                    tele=tele,
                    run_span=run_span,
                )
            return results, report
        finally:
            report.elapsed = time.perf_counter() - start
            if tele is not None:
                self._finish_run_telemetry(tele, report, run_span)

    @staticmethod
    def _finish_run_telemetry(
        tele: Telemetry, report: ExecutionReport, run_span
    ) -> None:
        """Fold the report's scheduling tallies into ``engine.*`` counters
        and close the run span.  These counters describe *scheduling*
        (retries, respawns), legitimately differ under faults, and are
        excluded from :meth:`Telemetry.work_counters`."""
        m = tele.metrics
        m.counter("engine.runs").inc()
        m.counter("engine.chunks_total").inc(report.chunks_total)
        if report.chunks_retried:
            m.counter("engine.chunks_retried").inc(report.chunks_retried)
        if report.chunks_degraded:
            m.counter("engine.chunks_degraded").inc(report.chunks_degraded)
        if report.chunks_skipped:
            m.counter("engine.chunks_skipped").inc(len(report.chunks_skipped))
        if report.pool_respawns:
            m.counter("engine.pool_respawns").inc(report.pool_respawns)
        if report.deadline_hit:
            m.counter("engine.deadline_hits").inc()
        m.histogram("run.seconds").observe(report.elapsed)
        run_span.end(
            algorithm=report.algorithm,
            chunks_total=report.chunks_total,
            chunks_completed=report.chunks_completed,
            completeness=report.completeness,
            deadline_hit=report.deadline_hit,
        )

    def _accept_chunk_telemetry(
        self,
        tele: Optional[Telemetry],
        report: ExecutionReport,
        run_span,
        idx: int,
        attempts: int,
        counters: Optional[dict],
        metrics: Optional[dict],
        seconds: float,
    ) -> None:
        """Per-accepted-chunk bookkeeping shared by every scheduling path.

        Records the chunk's wall-clock and attempt count on the report
        (always), and — with telemetry attached — merges the chunk-local
        metrics snapshot, mirrors its stats counters, and back-dates a
        ``chunk`` span under the run."""
        report.chunk_seconds[idx] = seconds
        report.chunk_attempts[idx] = attempts
        if tele is None:
            return
        tele.record_stats(counters)
        tele.metrics.merge(metrics)
        tele.record_chunk(seconds, attempts)
        tele.tracer.record(
            "chunk",
            seconds,
            parent=run_span,
            attrs={"chunk": idx, "attempts": attempts},
        )

    def _build_state(
        self, plan, dataset, query, kwargs: dict, tele: Optional[Telemetry],
        run_span,
    ):
        """Build the plan state, tracing it as the run's ``setup`` span.

        The run-level registry is active during construction, so index
        builders' ``phase.index.*`` instrumentation lands in the
        telemetry (parent-side builds only; spawn workers build their
        own state uninstrumented)."""
        if tele is None:
            return plan.build_state(dataset, query, **kwargs)
        span = tele.tracer.start_span("setup", parent=run_span)
        previous = _obs.activate(tele.metrics)
        started = time.perf_counter()
        try:
            return plan.build_state(dataset, query, **kwargs)
        finally:
            _obs.restore(previous)
            tele.metrics.histogram("setup.seconds").observe(
                time.perf_counter() - started
            )
            span.end()

    # -- inline execution ---------------------------------------------------------

    def _run_inline(
        self,
        plan,
        dataset,
        query,
        stats,
        kwargs,
        chunks: Iterator,
        policy: Optional[ExecutionPolicy],
        report: ExecutionReport,
        tele: Optional[Telemetry],
        run_span,
    ) -> List[UserPair]:
        state = self._build_state(plan, dataset, query, kwargs, tele, run_span)
        plan.warm(state, stats is not None or tele is not None, tele is not None)
        if policy is None:
            if tele is None:
                # The exact fail-fast fast path: no per-chunk stats detour,
                # no deadline checks — per-chunk wall-clock timing (two
                # perf_counter reads per chunk) is the only addition over
                # the pre-resilience engine.
                results: List[UserPair] = []
                idx = 0
                for chunk in chunks:
                    started = time.perf_counter()
                    pairs = plan.run_chunk(state, chunk, stats)
                    report.chunk_seconds[idx] = time.perf_counter() - started
                    plan.accept(state, pairs)
                    results.extend(pairs)
                    report.chunk_attempts[idx] = 1
                    idx += 1
                report.chunks_total = report.chunks_completed = idx
                return results
            # Telemetry on, no policy: stats are forced per chunk so the
            # filter.* counters are populated even when the caller did not
            # ask for a PairEvalStats of its own.
            results = []
            for idx, chunk in enumerate(chunks):
                pairs, counters, metrics, seconds = _execute_chunk(
                    plan, state, chunk, idx, 0, True, True
                )
                plan.accept(state, pairs)
                results.extend(pairs)
                if stats is not None and counters is not None:
                    stats.merge(counters)
                report.chunks_total += 1
                report.chunks_completed += 1
                self._accept_chunk_telemetry(
                    tele, report, run_span, idx, 1, counters, metrics, seconds
                )
            return results
        return self._run_inline_resilient(
            plan, state, list(chunks), stats, policy, report, tele, run_span
        )

    def _run_inline_resilient(
        self,
        plan,
        state,
        chunk_list: List,
        stats: Optional[PairEvalStats],
        policy: ExecutionPolicy,
        report: ExecutionReport,
        tele: Optional[Telemetry],
        run_span,
    ) -> List[UserPair]:
        """Sequential execution under a policy.

        The deadline is checked between chunks (a running chunk is never
        interrupted; ``chunk_timeout`` is unenforceable inline and
        ignored).  ``degrade`` has no lower rung here, so it grants one
        final extra attempt before failing.
        """
        report.chunks_total = len(chunk_list)
        with_stats = stats is not None or tele is not None
        with_metrics = tele is not None
        deadline = _Deadline(policy.deadline)
        results: List[UserPair] = []

        def accept(idx, attempts, pairs, counters, metrics, seconds) -> None:
            plan.accept(state, pairs)
            results.extend(pairs)
            if stats is not None and counters is not None:
                stats.merge(counters)
            report.chunks_completed += 1
            self._accept_chunk_telemetry(
                tele, report, run_span, idx, attempts, counters, metrics,
                seconds,
            )

        for idx, chunk in enumerate(chunk_list):
            if deadline.expired():
                if run_span is not None:
                    run_span.event("deadline", next_chunk=idx)
                self._conclude_deadline(
                    policy, report, range(idx, len(chunk_list))
                )
                return results
            attempt = 0
            while True:
                try:
                    accept(
                        idx,
                        attempt + 1,
                        *_execute_chunk(
                            plan, state, chunk, idx, attempt, with_stats,
                            with_metrics,
                        ),
                    )
                    break
                except Exception as exc:
                    if attempt < policy.max_retries and not deadline.expired():
                        attempt += 1
                        report.chunks_retried += 1
                        if run_span is not None:
                            run_span.event(
                                "retry", chunk=idx, attempt=attempt,
                                error=repr(exc),
                            )
                        time.sleep(
                            min(
                                backoff_delay(policy, idx, attempt),
                                deadline.remaining(),
                            )
                        )
                        continue
                    if policy.on_failure == "degrade":
                        try:
                            accept(
                                idx,
                                attempt + 2,
                                *_execute_chunk(
                                    plan, state, chunk, idx, attempt + 1,
                                    with_stats, with_metrics,
                                ),
                            )
                            report.chunks_degraded += 1
                            if run_span is not None:
                                run_span.event("degraded", chunk=idx)
                            break
                        except Exception as exc2:
                            exc = exc2
                            attempt += 1
                    if policy.on_failure == "partial":
                        report.chunks_skipped.append(idx)
                        report.failures.append(
                            ChunkFailure(idx, attempt + 1, repr(exc), "inline")
                        )
                        if run_span is not None:
                            run_span.event(
                                "skip", chunk=idx, error=repr(exc)
                            )
                        break
                    failure = ChunkFailure(idx, attempt + 1, repr(exc), "inline")
                    report.failures.append(failure)
                    raise ExecutionFailed(
                        f"chunk {idx} failed after {attempt + 1} attempt(s): "
                        f"{exc!r}",
                        report=report,
                        failures=[failure],
                    ) from exc
        return results

    # -- pooled execution ---------------------------------------------------------

    def _run_pooled(
        self,
        plan,
        dataset,
        query,
        stats,
        kwargs,
        chunks: Iterator,
        process: bool,
        policy: Optional[ExecutionPolicy],
        report: ExecutionReport,
        tele: Optional[Telemetry],
        run_span,
    ) -> List[UserPair]:
        with_stats = stats is not None or tele is not None
        with_metrics = tele is not None
        spawnish = process and self.start_method != "fork"
        token = next(_RUN_TOKENS)

        if process:
            ctx = multiprocessing.get_context(self.start_method)
            if spawnish:
                # State crosses the process boundary as a compact snapshot;
                # each worker rebuilds its indexes in the initializer.  The
                # active fault plan rides along so injection is hermetic
                # across transports.
                active_plan = _faults.active_fault_plan()
                if tele is not None:
                    setup_span = tele.tracer.start_span(
                        "setup", parent=run_span,
                        attrs={"transport": "spawn-snapshot"},
                    )
                    snapshot = DatasetSnapshot.capture(dataset)
                    setup_span.end()
                else:
                    snapshot = DatasetSnapshot.capture(dataset)
                initargs = (
                    token,
                    snapshot,
                    plan.kind,
                    plan.name,
                    query,
                    with_stats,
                    with_metrics,
                    kwargs,
                    active_plan.serialize() if active_plan else None,
                )
                pool_factory = lambda: ctx.Pool(
                    processes=self.workers,
                    initializer=_init_spawn_worker,
                    initargs=initargs,
                )
            else:
                pool_factory = lambda: ctx.Pool(processes=self.workers)
        else:
            pool_factory = lambda: multiprocessing.dummy.Pool(self.workers)

        try:
            if not spawnish:
                # fork and thread backends read the state set up pre-fork
                # (or shared by reference) through the token-keyed global.
                _WORKER_STATE[token] = {
                    "plan": plan,
                    "state": self._build_state(
                        plan, dataset, query, kwargs, tele, run_span
                    ),
                    "with_stats": with_stats,
                    "with_metrics": with_metrics,
                }
                # Pre-fork warm-up: fork/thread workers inherit (or share)
                # the built batch kernel instead of each rebuilding it
                # inside their first timed chunk.
                plan.warm(
                    _WORKER_STATE[token]["state"], with_stats, with_metrics
                )
            if policy is None:
                results: List[UserPair] = []
                with pool_factory() as pool:
                    tasks = (
                        (token, idx, 0, chunk)
                        for idx, chunk in enumerate(chunks)
                    )
                    for idx, pairs, counters, metrics, seconds in (
                        pool.imap_unordered(_run_task, tasks)
                    ):
                        results.extend(pairs)
                        report.chunks_completed += 1
                        if stats is not None and counters is not None:
                            stats.merge(counters)
                        self._accept_chunk_telemetry(
                            tele, report, run_span, idx, 1, counters,
                            metrics, seconds,
                        )
                report.chunks_total = report.chunks_completed
                return results
            return self._dispatch_resilient(
                pool_factory,
                token,
                plan,
                dataset,
                query,
                kwargs,
                list(chunks),
                stats,
                policy,
                report,
                process,
                spawnish,
                tele,
                run_span,
            )
        finally:
            # Pop only this run's entry: a concurrent executor in the same
            # process (or a nested run) keeps its own state untouched, and
            # a build_state that raised leaves nothing behind.
            _WORKER_STATE.pop(token, None)

    def _dispatch_resilient(
        self,
        pool_factory,
        token: int,
        plan,
        dataset,
        query,
        kwargs: dict,
        chunk_list: List,
        stats: Optional[PairEvalStats],
        policy: ExecutionPolicy,
        report: ExecutionReport,
        process: bool,
        spawnish: bool,
        tele: Optional[Telemetry],
        run_span,
    ) -> List[UserPair]:
        """The resilient ``AsyncResult`` dispatcher (pooled backends).

        Replaces the bare ``imap_unordered`` loop with explicit per-chunk
        bookkeeping: bounded in-flight dispatch, per-chunk timeouts,
        retry scheduling with deterministic backoff, worker-pid watching
        with pool respawn, and terminal routing through the policy's
        ``on_failure`` mode.
        """
        report.chunks_total = len(chunk_list)
        deadline = _Deadline(policy.deadline)
        results: List[UserPair] = []
        completed: Set[int] = set()
        #: (ready_at, chunk_index, attempt) — chunks awaiting (re)dispatch.
        pending: List[Tuple[float, int, int]] = [
            (0.0, idx, 0) for idx in range(len(chunk_list))
        ]
        #: chunk_index -> (AsyncResult, attempt, dispatched_at)
        in_flight: Dict[int, Tuple] = {}
        #: (chunk_index, attempts, last error) awaiting degraded re-execution.
        degrade_queue: List[Tuple[int, int, Exception]] = []
        respawns = 0

        def accept(
            idx: int, attempts: int, pairs, counters, metrics, seconds
        ) -> None:
            if idx in completed:
                return  # a retry raced an abandoned original; first wins
            completed.add(idx)
            results.extend(pairs)
            if stats is not None and counters is not None:
                stats.merge(counters)
            report.chunks_completed += 1
            self._accept_chunk_telemetry(
                tele, report, run_span, idx, attempts, counters, metrics,
                seconds,
            )

        def terminal(idx: int, attempts: int, exc: Exception, stage: str) -> None:
            if policy.on_failure == "degrade":
                degrade_queue.append((idx, attempts, exc))
                return
            failure = ChunkFailure(idx, attempts, repr(exc), stage)
            report.failures.append(failure)
            if policy.on_failure == "partial":
                report.chunks_skipped.append(idx)
                if run_span is not None:
                    run_span.event("skip", chunk=idx, error=repr(exc))
                return
            raise ExecutionFailed(
                f"chunk {idx} failed after {attempts} attempt(s): {exc!r}",
                report=report,
                failures=[failure],
            ) from exc

        def fail(idx: int, attempt: int, exc: Exception, now: float) -> None:
            if attempt < policy.max_retries:
                report.chunks_retried += 1
                if run_span is not None:
                    run_span.event(
                        "retry", chunk=idx, attempt=attempt + 1,
                        error=repr(exc),
                    )
                pending.append(
                    (now + backoff_delay(policy, idx, attempt + 1), idx,
                     attempt + 1)
                )
            else:
                terminal(idx, attempt + 1, exc, "pool")

        pool = pool_factory()
        known_pids = _worker_pids(pool) if process else set()
        try:
            while pending or in_flight:
                now = time.monotonic()
                if deadline.expired():
                    report.deadline_hit = True
                    break
                progressed = False

                # 1) Harvest finished / timed-out chunks.
                for idx in list(in_flight):
                    handle, attempt, dispatched_at = in_flight[idx]
                    if handle.ready():
                        del in_flight[idx]
                        progressed = True
                        try:
                            _, pairs, counters, metrics, seconds = handle.get()
                        except Exception as exc:
                            fail(idx, attempt, exc, now)
                        else:
                            accept(
                                idx, attempt + 1, pairs, counters, metrics,
                                seconds,
                            )
                    elif (
                        policy.chunk_timeout is not None
                        and now - dispatched_at >= policy.chunk_timeout
                    ):
                        # Abandon the task (its worker may still be busy on
                        # it; the result, if it ever lands, is discarded).
                        del in_flight[idx]
                        progressed = True
                        if run_span is not None:
                            run_span.event("timeout", chunk=idx)
                        fail(
                            idx,
                            attempt,
                            TimeoutError(
                                f"chunk {idx} exceeded chunk_timeout="
                                f"{policy.chunk_timeout}s"
                            ),
                            now,
                        )

                # 2) Worker-crash watchdog (process backends only).
                if process:
                    pids = _worker_pids(pool)
                    if known_pids - pids:
                        progressed = True
                        if respawns < policy.respawn_limit:
                            respawns += 1
                            report.pool_respawns += 1
                            if run_span is not None:
                                run_span.event(
                                    "pool_respawn",
                                    lost_pids=sorted(known_pids - pids),
                                )
                            _terminate_pool(pool)
                            pool = pool_factory()
                            pids = _worker_pids(pool)
                            # Requeue everything that was in flight.  The
                            # attempt number advances (so a crash fault
                            # keyed to attempt 0 does not re-fire) but the
                            # retry budget is not charged — this is crash
                            # recovery, not chunk failure.
                            for idx, (_, attempt, _) in in_flight.items():
                                pending.append((now, idx, attempt + 1))
                            in_flight.clear()
                        else:
                            lost = RuntimeError(
                                "worker pool died and the respawn budget "
                                f"({policy.respawn_limit}) is exhausted"
                            )
                            doomed = list(in_flight.items())
                            in_flight.clear()
                            for idx, (_, attempt, _) in doomed:
                                terminal(idx, attempt + 1, lost, "pool-death")
                    known_pids = pids

                # 3) Dispatch pending chunks whose backoff has elapsed.
                capacity = max(1, self.workers) - len(in_flight)
                if capacity > 0 and pending:
                    still: List[Tuple[float, int, int]] = []
                    for ready_at, idx, attempt in pending:
                        if capacity > 0 and ready_at <= now:
                            handle = pool.apply_async(
                                _run_task,
                                ((token, idx, attempt, chunk_list[idx]),),
                            )
                            in_flight[idx] = (handle, attempt, now)
                            capacity -= 1
                            progressed = True
                        else:
                            still.append((ready_at, idx, attempt))
                    pending = still

                if not progressed:
                    time.sleep(
                        min(policy.poll_interval, deadline.remaining())
                    )

            if report.deadline_hit:
                leftover = sorted(
                    set(in_flight)
                    | {idx for _, idx, _ in pending}
                    | {idx for idx, _, _ in degrade_queue}
                )
                if run_span is not None:
                    run_span.event("deadline", leftover=leftover)
                self._conclude_deadline(policy, report, leftover)
                return results

            # 4) Degraded re-execution of terminally failed chunks:
            #    thread rung (timeout-capable), then inline in the caller.
            if degrade_queue:
                state = self._degraded_state(
                    token, plan, dataset, query, kwargs, spawnish
                )
                rungs = ("thread", "inline") if process else ("inline",)
                for idx, attempts, exc in degrade_queue:
                    if deadline.expired():
                        report.deadline_hit = True
                        remaining = [
                            i for i, _, _ in degrade_queue
                            if i not in completed
                        ]
                        self._conclude_deadline(policy, report, remaining)
                        return results
                    self._run_degraded(
                        plan, state, chunk_list[idx], idx, attempts, exc,
                        rungs, policy, report, accept,
                        with_metrics=(tele is not None), run_span=run_span,
                    )
            return results
        finally:
            _terminate_pool(pool)

    def _degraded_state(
        self, token: int, plan, dataset, query, kwargs: dict, spawnish: bool
    ):
        """Plan state for in-caller degraded execution.

        fork/thread runs reuse the state already built in the parent;
        spawn runs never built one locally, so it is built here (index
        construction is deterministic — results stay byte-identical).
        """
        entry = _WORKER_STATE.get(token)
        if not spawnish and entry is not None:
            return entry["state"]
        return plan.build_state(dataset, query, **kwargs)

    def _run_degraded(
        self,
        plan,
        state,
        chunk,
        idx: int,
        attempts: int,
        exc: Exception,
        rungs: Tuple[str, ...],
        policy: ExecutionPolicy,
        report: ExecutionReport,
        accept,
        with_metrics: bool = False,
        run_span=None,
    ) -> None:
        """Walk a failed chunk down the degraded rungs."""
        with_stats = True  # counters ride in the returned dict either way
        stage = "pool"
        for rung in rungs:
            attempts += 1
            try:
                if rung == "thread":
                    pairs, counters, metrics, seconds = _run_chunk_in_thread(
                        plan, state, chunk, idx, attempts - 1, with_stats,
                        with_metrics, policy.chunk_timeout,
                    )
                else:
                    pairs, counters, metrics, seconds = _execute_chunk(
                        plan, state, chunk, idx, attempts - 1, with_stats,
                        with_metrics,
                    )
            except Exception as rung_exc:
                exc, stage = rung_exc, rung
                continue
            accept(idx, attempts, pairs, counters, metrics, seconds)
            report.chunks_degraded += 1
            if run_span is not None:
                run_span.event("degraded", chunk=idx, rung=rung)
            return
        failure = ChunkFailure(idx, attempts, repr(exc), stage)
        report.failures.append(failure)
        if policy.on_failure == "partial":  # pragma: no cover - degrade only
            report.chunks_skipped.append(idx)
            return
        raise ExecutionFailed(
            f"chunk {idx} failed on every rung after {attempts} attempt(s): "
            f"{exc!r}",
            report=report,
            failures=[failure],
        ) from exc

    @staticmethod
    def _conclude_deadline(
        policy: ExecutionPolicy, report: ExecutionReport, leftover
    ) -> None:
        """Deadline hit: record the incomplete chunks, then raise or return."""
        report.deadline_hit = True
        leftover = [i for i in leftover if i not in report.chunks_skipped]
        if policy.on_failure == "partial":
            for idx in leftover:
                report.chunks_skipped.append(idx)
                report.failures.append(
                    ChunkFailure(idx, 0, "deadline exceeded", "deadline")
                )
            return
        raise DeadlineExceeded(
            f"deadline of {policy.deadline}s exceeded with "
            f"{report.chunks_completed}/{report.chunks_total} chunks done",
            report=report,
        )
