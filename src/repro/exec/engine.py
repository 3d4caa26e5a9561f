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

Scheduling and resilience
-------------------------

Every run goes through one dispatch loop over one executor interface
(``submit`` a chunk with a completion callback): the worker pool, or —
for the sequential backend and one-worker runs — an inline executor that
runs the chunk in the caller at dispatch, a pool with zero workers.
Completions land in a queue the loop blocks on, so it sleeps only until
the next completion, backoff expiry, chunk timeout or deadline; process
pools add a ``poll_interval`` tick for the crash watchdog.

A run without an :class:`~repro.exec.resilience.ExecutionPolicy` runs the
loop under the *exact* policy — no deadline, no retries, no pool
respawns — and re-raises a failed chunk's exception as-is, so results
stay all-or-nothing.  A policy adds, per ``docs/robustness.md``:

* per-chunk retries with deterministic exponential backoff;
* per-chunk timeouts (task abandoned and re-dispatched) and a whole-run
  deadline, counted from the start of the run (state build included);
* worker-crash detection — the loop watches the pool's worker pids,
  rebuilds the pool when one dies (``respawn_limit`` times) and requeues
  the chunks that were in flight; past the budget the run fails;
* graceful degradation: under ``on_failure="degrade"`` the chunks that
  exhausted their attempts go through the same loop again, without
  retries, on the next rung (process → thread → inline; thread and
  inline → inline), or are recorded and skipped under ``"partial"``;
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
import queue
import threading
import time
import warnings
from typing import Dict, List, Optional, Set, Tuple

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

#: The policy of a run without one: exact and fail-fast — no deadline,
#: no retries, no pool respawns.  A failed chunk's own exception is
#: re-raised, not wrapped in :class:`ExecutionFailed`.
_EXACT = ExecutionPolicy(max_retries=0, respawn_limit=0)

#: The telemetry of a run without one: every recording call is a no-op.
_NO_TELEMETRY = Telemetry(enabled=False)


def _execute_chunk(
    plan: Plan,
    state,
    chunk,
    chunk_index: int,
    attempt: int,
    with_stats: bool,
    with_metrics: bool,
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
    registry = MetricsRegistry() if with_metrics else None
    # Without metrics the registry already active (if any) stays active.
    previous = _obs.activate(registry if with_metrics else _obs.active())
    started = time.perf_counter()
    try:
        pairs = plan.run_chunk(state, chunk, stats)
    finally:
        seconds = time.perf_counter() - started
        _obs.restore(previous)
    return (
        pairs,
        stats.as_dict() if with_stats else None,
        registry.as_dict() if with_metrics else None,
        seconds,
    )


def _run_task(task) -> Tuple[List[UserPair], Optional[dict], Optional[dict], float]:
    """Pool-worker entry point; ``task = (token, index, attempt, chunk)``."""
    token, chunk_index, attempt, chunk = task
    entry = _WORKER_STATE[token]
    return _execute_chunk(
        entry["plan"], entry["state"], chunk, chunk_index, attempt,
        entry["with_stats"], entry["with_metrics"],
    )


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


# -- executors -------------------------------------------------------------------
#
# What the dispatch loop runs chunks on.  ``submit(idx, attempt, chunk,
# done)`` starts one attempt and arranges for ``done(idx, attempt,
# result, error)`` to be called when it finishes; ``capacity`` bounds the
# attempts in flight; ``pids()`` is ``None`` unless worker processes can
# die under the loop.


class _Inline:
    """The zero-worker pool: runs each chunk in the caller at dispatch."""

    capacity = 1
    stage = "inline"

    def __init__(self, plan: Plan, state, with_stats: bool, with_metrics: bool):
        self.plan = plan
        self.state = state
        self.with_stats = with_stats
        self.with_metrics = with_metrics

    def submit(self, idx: int, attempt: int, chunk, done) -> None:
        try:
            result = _execute_chunk(
                self.plan, self.state, chunk, idx, attempt, self.with_stats,
                self.with_metrics,
            )
        except Exception as exc:  # noqa: BLE001 - routed by the loop
            done(idx, attempt, None, exc)
        else:
            done(idx, attempt, result, None)

    def pids(self) -> Optional[Set[int]]:
        return None

    def close(self) -> None:
        pass


class _DaemonThreads(_Inline):
    """The degraded thread rung: each chunk on a fresh daemon thread, so
    a hung chunk can be abandoned on ``chunk_timeout`` (a daemon cannot
    block interpreter exit)."""

    stage = "thread"

    def submit(self, idx: int, attempt: int, chunk, done) -> None:
        threading.Thread(
            target=super().submit,
            args=(idx, attempt, chunk, done),
            name=f"repro-degraded-{idx}",
            daemon=True,
        ).start()


class _Pool:
    """A ``multiprocessing`` (or ``multiprocessing.dummy``) worker pool."""

    stage = "pool"

    def __init__(self, factory, token: int, workers: int, process: bool):
        self._factory = factory
        self._token = token
        self._process = process
        self.capacity = workers
        self._pool = factory()

    def submit(self, idx: int, attempt: int, chunk, done) -> None:
        self._pool.apply_async(
            _run_task,
            ((self._token, idx, attempt, chunk),),
            callback=lambda result: done(idx, attempt, result, None),
            error_callback=lambda exc: done(idx, attempt, None, exc),
        )

    def pids(self) -> Optional[Set[int]]:
        """Pids of the current worker processes (crash watchdog input)."""
        if not self._process:
            return None
        return {w.pid for w in getattr(self._pool, "_pool", []) if w.pid is not None}

    def respawn(self) -> None:
        self.close()
        self._pool = self._factory()

    def close(self) -> None:
        """Terminate the pool, swallowing teardown races.

        ``Pool.terminate`` SIGTERMs process workers (safe for hung
        chunks); for ``multiprocessing.dummy`` pools it only signals the
        handler threads — hung worker threads are daemons and are left to
        drain.
        """
        try:
            self._pool.terminate()
        except Exception:  # pragma: no cover - teardown best-effort
            pass


class _Run:
    """One run's bookkeeping, shared by every rung it dispatches on."""

    def __init__(
        self,
        plan: Plan,
        chunks: List,
        stats: Optional[PairEvalStats],
        policy: Optional[ExecutionPolicy],
        deadline: _Deadline,
        report: ExecutionReport,
        tele: Telemetry,
        span,
    ):
        self.plan = plan
        self.chunks = chunks
        self.stats = stats
        self.exact = policy is None
        self.policy = _EXACT if policy is None else policy
        self.deadline = deadline
        self.report = report
        self.tele = tele
        self.span = span
        self.results: List[UserPair] = []
        #: Plan state to hand accepted chunks back to (:meth:`Plan.accept`)
        #: — set only when every chunk runs in the caller, one at a time.
        self.feedback_state = None

    def accept(self, idx: int, attempts: int, result) -> None:
        pairs, counters, metrics, seconds = result
        if self.feedback_state is not None:
            self.plan.accept(self.feedback_state, pairs)
        self.results.extend(pairs)
        if self.stats is not None and counters is not None:
            self.stats.merge(counters)
        report, tele = self.report, self.tele
        report.chunks_completed += 1
        report.chunk_seconds[idx] = seconds
        report.chunk_attempts[idx] = attempts
        tele.record_stats(counters)
        tele.metrics.merge(metrics)
        tele.record_chunk(seconds, attempts)
        tele.tracer.record(
            "chunk",
            seconds,
            parent=self.span,
            attrs={"chunk": idx, "attempts": attempts},
        )

    def dispatch(
        self, executor, jobs: List[Tuple[int, int]], degraded: bool, final: bool
    ) -> List[Tuple[int, int]]:
        """The dispatch loop: run ``jobs`` — ``(chunk index, first
        attempt)`` — on ``executor`` until each is accepted, skipped or
        terminally failed.

        Retries (primary rung only), chunk timeouts, the crash watchdog
        and the deadline apply on every executor.  A terminal failure on
        a ``final`` rung follows ``on_failure``; otherwise the chunk is
        returned, with its next attempt number, for the next rung.
        """
        policy, report, span = self.policy, self.report, self.span
        max_retries = 0 if degraded else policy.max_retries
        completions: "queue.Queue" = queue.Queue()

        def done(idx, attempt, result, exc) -> None:
            completions.put((idx, attempt, result, exc))

        #: (ready_at, chunk_index, attempt) — chunks awaiting (re)dispatch.
        pending: List[Tuple[float, int, int]] = [
            (0.0, idx, attempt) for idx, attempt in jobs
        ]
        #: chunk_index -> (attempt, dispatched_at)
        in_flight: Dict[int, Tuple[int, float]] = {}
        handed_down: List[Tuple[int, int]] = []

        def terminal(idx: int, attempts: int, exc: Exception, stage: str) -> None:
            if not final:
                handed_down.append((idx, attempts))
                return
            failure = ChunkFailure(idx, attempts, repr(exc), stage)
            report.failures.append(failure)
            if policy.on_failure == "partial":
                report.chunks_skipped.append(idx)
                span.event("skip", chunk=idx, error=repr(exc))
                return
            if self.exact and stage != "pool-death":
                raise exc
            raise ExecutionFailed(
                f"chunk {idx} failed after {attempts} attempt(s): {exc!r}",
                report=report,
                failures=[failure],
            ) from exc

        def fail(idx: int, attempt: int, exc: Exception, now: float) -> None:
            if attempt < max_retries:
                report.chunks_retried += 1
                span.event(
                    "retry", chunk=idx, attempt=attempt + 1, error=repr(exc)
                )
                pending.append(
                    (now + backoff_delay(policy, idx, attempt + 1), idx,
                     attempt + 1)
                )
            else:
                terminal(idx, attempt + 1, exc, executor.stage)

        known_pids = executor.pids()
        while pending or in_flight:
            if self.deadline.expired():
                self.conclude_deadline()
                return []

            # 1) Dispatch pending chunks whose backoff has elapsed.
            now = time.monotonic()
            still: List[Tuple[float, int, int]] = []
            for ready_at, idx, attempt in pending:
                if len(in_flight) < executor.capacity and ready_at <= now:
                    in_flight[idx] = (attempt, now)
                    executor.submit(idx, attempt, self.chunks[idx], done)
                else:
                    still.append((ready_at, idx, attempt))
            pending = still

            # 2) Wait for a completion, or for the next thing to check.
            wakeups = [self.deadline.remaining()]
            if known_pids is not None:
                wakeups.append(policy.poll_interval)
            if pending and len(in_flight) < executor.capacity:
                wakeups.append(min(ready for ready, _, _ in pending) - now)
            if policy.chunk_timeout is not None and in_flight:
                oldest = min(at for _, at in in_flight.values())
                wakeups.append(oldest + policy.chunk_timeout - now)
            wait = min(wakeups)
            finished = []
            try:
                finished.append(
                    completions.get(
                        timeout=None if wait == float("inf") else max(0.0, wait)
                    )
                )
                while True:
                    finished.append(completions.get_nowait())
            except queue.Empty:
                pass

            # 3) Harvest: accept, or route the failure.  A result whose
            #    attempt is no longer in flight was abandoned (timed out
            #    or lost to a respawn) and is discarded.
            now = time.monotonic()
            for idx, attempt, result, exc in finished:
                if in_flight.get(idx, (None,))[0] != attempt:
                    continue
                del in_flight[idx]
                if exc is not None:
                    fail(idx, attempt, exc, now)
                    continue
                self.accept(idx, attempt + 1, result)
                if degraded:
                    report.chunks_degraded += 1
                    span.event("degraded", chunk=idx, rung=executor.stage)

            # 4) Per-chunk timeouts: abandon the attempt (its worker may
            #    still be busy on it; a late result is discarded).
            if policy.chunk_timeout is not None:
                for idx, (attempt, dispatched_at) in list(in_flight.items()):
                    if now - dispatched_at >= policy.chunk_timeout:
                        del in_flight[idx]
                        span.event("timeout", chunk=idx)
                        fail(
                            idx,
                            attempt,
                            TimeoutError(
                                f"chunk {idx} exceeded chunk_timeout="
                                f"{policy.chunk_timeout}s"
                            ),
                            now,
                        )

            # 5) Worker-crash watchdog (process pools only).
            if known_pids is not None:
                pids = executor.pids()
                lost = known_pids - pids
                if lost and report.pool_respawns < policy.respawn_limit:
                    report.pool_respawns += 1
                    span.event("pool_respawn", lost_pids=sorted(lost))
                    executor.respawn()
                    pids = executor.pids()
                    # Requeue everything that was in flight.  The attempt
                    # number advances (so a crash fault keyed to attempt
                    # 0 does not re-fire) but no retry is recorded — this
                    # is crash recovery, not chunk failure.
                    for idx, (attempt, _) in in_flight.items():
                        pending.append((now, idx, attempt + 1))
                    in_flight.clear()
                elif lost:
                    died = RuntimeError(
                        "worker pool died and the respawn budget "
                        f"({policy.respawn_limit}) is exhausted"
                    )
                    doomed = list(in_flight.items())
                    in_flight.clear()
                    for idx, (attempt, _) in doomed:
                        terminal(idx, attempt + 1, died, "pool-death")
                known_pids = pids
        return handed_down

    def conclude_deadline(self) -> None:
        """Deadline hit: record the incomplete chunks, then raise or return."""
        report = self.report
        report.deadline_hit = True
        leftover = [
            idx for idx in range(len(self.chunks))
            if idx not in report.chunk_seconds and idx not in report.chunks_skipped
        ]
        self.span.event("deadline", leftover=leftover)
        if self.policy.on_failure == "partial":
            for idx in leftover:
                report.chunks_skipped.append(idx)
                report.failures.append(
                    ChunkFailure(idx, 0, "deadline exceeded", "deadline")
                )
            return
        raise DeadlineExceeded(
            f"deadline of {self.policy.deadline}s exceeded with "
            f"{report.chunks_completed}/{report.chunks_total} chunks done",
            report=report,
        )


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
        # The deadline covers the whole run, state construction included.
        deadline = _Deadline(policy.deadline if policy is not None else None)
        tele = telemetry if telemetry is not None else _NO_TELEMETRY
        report = ExecutionReport(
            backend=self.backend,
            start_method=self.start_method,
            algorithm=f"{plan.kind}:{plan.name}",
        )
        # Hashing the whole dataset costs as much as a small join, so only
        # runs whose report is read (or traced) pay for it.
        if with_report or tele.enabled:
            report.dataset_fingerprint = dataset.fingerprint()
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
            run_span.run_id if tele.enabled
            else f"{plan.kind}-{next(_RUN_SEQ):04d}"
        )
        start = time.perf_counter()
        token = next(_RUN_TOKENS)
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
            report.chunks_total = len(chunks)
            run = _Run(plan, chunks, stats, policy, deadline, report, tele, run_span)
            return self._walk_rungs(run, dataset, query, kwargs, token), report
        finally:
            # Pop only this run's entry: a concurrent executor in the same
            # process (or a nested run) keeps its own state untouched, and
            # a build_state that raised leaves nothing behind.
            _WORKER_STATE.pop(token, None)
            report.elapsed = time.perf_counter() - start
            self._finish_run_telemetry(tele, report, run_span)

    def _walk_rungs(
        self, run: _Run, dataset, query, kwargs: dict, token: int
    ) -> List[UserPair]:
        """Dispatch every chunk on the primary executor, then — under
        ``on_failure="degrade"`` — the chunks it failed on each degraded
        rung in turn.

        The primary executor is the worker pool, or the inline executor
        for the sequential backend and one-worker runs.  State is built
        in the caller unless spawn workers build their own; a degraded
        rung of a spawn run builds it here (index construction is
        deterministic, so results stay byte-identical)."""
        plan, tele = run.plan, run.tele
        with_stats = run.stats is not None or tele.enabled
        with_metrics = tele.enabled
        inline = self.backend == "sequential" or self.workers == 1
        process = self.backend == "process"
        rungs = ["inline" if inline else "pool"]
        if run.policy.on_failure == "degrade":
            rungs += (["thread"] if process and not inline else []) + ["inline"]
        state = None
        if inline or self.start_method in (None, "fork"):
            state = self._build_state(plan, dataset, query, kwargs, tele, run.span)
            plan.warm(state, with_stats, with_metrics)
        if inline:
            run.feedback_state = state
        jobs = [(idx, 0) for idx in range(len(run.chunks))]
        for depth, rung in enumerate(rungs):
            if rung == "pool":
                executor = self._open_pool(
                    run, dataset, query, kwargs, token, state, with_stats,
                    with_metrics,
                )
            else:
                if state is None:
                    state = plan.build_state(dataset, query, **kwargs)
                    plan.warm(state, with_stats, with_metrics)
                factory = _DaemonThreads if rung == "thread" else _Inline
                executor = factory(plan, state, with_stats, with_metrics)
            try:
                jobs = run.dispatch(
                    executor, jobs, degraded=depth > 0,
                    final=depth == len(rungs) - 1,
                )
            finally:
                executor.close()
            if not jobs:
                break
        return run.results

    def _open_pool(
        self, run: _Run, dataset, query, kwargs: dict, token: int, state,
        with_stats: bool, with_metrics: bool,
    ) -> _Pool:
        """Start the worker pool of a thread or process run.

        fork and thread workers read the parent's state through the
        token-keyed registry; spawn workers rebuild it from a dataset
        snapshot in their initializer."""
        plan = run.plan
        process = self.backend == "process"
        if state is not None:
            _WORKER_STATE[token] = {
                "plan": plan,
                "state": state,
                "with_stats": with_stats,
                "with_metrics": with_metrics,
            }
        if not process:
            factory = lambda: multiprocessing.dummy.Pool(self.workers)
        elif state is not None:
            ctx = multiprocessing.get_context(self.start_method)
            factory = lambda: ctx.Pool(processes=self.workers)
        else:
            # State crosses the process boundary as a compact snapshot;
            # each worker rebuilds its indexes in the initializer.  The
            # active fault plan rides along so injection is hermetic
            # across transports.
            ctx = multiprocessing.get_context(self.start_method)
            active_plan = _faults.active_fault_plan()
            setup_span = run.tele.tracer.start_span(
                "setup", parent=run.span, attrs={"transport": "spawn-snapshot"}
            )
            snapshot = DatasetSnapshot.capture(dataset)
            setup_span.end()
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
            factory = lambda: ctx.Pool(
                processes=self.workers,
                initializer=_init_spawn_worker,
                initargs=initargs,
            )
        return _Pool(factory, token, self.workers, process)

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

    @staticmethod
    def _build_state(plan, dataset, query, kwargs: dict, tele: Telemetry, run_span):
        """Build the plan state, tracing it as the run's ``setup`` span.

        With telemetry on, the run-level registry is active during
        construction, so index builders' ``phase.index.*``
        instrumentation lands in it (parent-side builds only; spawn
        workers build their own state uninstrumented)."""
        span = tele.tracer.start_span("setup", parent=run_span)
        previous = _obs.activate(tele.metrics if tele.enabled else _obs.active())
        started = time.perf_counter()
        try:
            return plan.build_state(dataset, query, **kwargs)
        finally:
            _obs.restore(previous)
            tele.metrics.histogram("setup.seconds").observe(
                time.perf_counter() - started
            )
            span.end()
