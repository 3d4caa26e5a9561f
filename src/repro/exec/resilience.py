"""Execution policies and reports: deadlines, retries, graceful degradation.

The :class:`~repro.exec.engine.JoinExecutor` is *exact by default*: no
deadline, no retries, a chunk exception propagates.  Production serving
needs more — per-query cost varies by orders of magnitude with
``eps_loc``/``eps_doc`` and dataset skew, worker processes get OOM-killed,
and a partial answer delivered on time often beats an exact answer
delivered late.  An :class:`ExecutionPolicy` opts a run into that regime;
an :class:`ExecutionReport` tells the caller exactly what happened, so a
degraded or partial result is explicitly marked instead of silently wrong.

Determinism
-----------

Retry backoff uses exponential growth with *deterministic* jitter: the
jitter for (chunk, attempt) is drawn from a ``random.Random`` seeded with
``(jitter_seed, chunk_index, attempt)``, so two runs of the same faulty
workload sleep the same schedule.  Results are deterministic in a stronger
sense: chunks are the unit of both work and failure, every chunk's output
is accepted at most once, and the engine's canonical final sort makes the
result independent of completion order — whenever the report's
completeness is 1.0 the result is byte-identical to a fault-free
sequential run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "ExecutionPolicy",
    "ExecutionReport",
    "ChunkFailure",
    "ON_FAILURE_MODES",
    "backoff_delay",
]

#: Recognized ``on_failure`` modes.
#:
#: * ``"raise"``   — a terminally failed chunk aborts the run with
#:   :class:`~repro.exec.errors.ExecutionFailed` (deadline hits raise
#:   :class:`~repro.exec.errors.DeadlineExceeded`).
#: * ``"degrade"`` — a chunk that exhausted its pool retries is re-executed
#:   on progressively simpler backends (process → thread → inline); only
#:   if the inline rung also fails does the run abort.
#: * ``"partial"`` — failed chunks are recorded in the report and skipped;
#:   the run returns the pairs of every completed chunk with
#:   ``completeness < 1.0``.
ON_FAILURE_MODES = ("raise", "degrade", "partial")


@dataclass(frozen=True)
class ExecutionPolicy:
    """Resilience knobs for one executor run.

    Parameters
    ----------
    deadline:
        Wall-clock budget in seconds for the whole join (scheduling,
        retries and degraded re-execution included).  ``None`` disables.
        Checked between chunks on every backend; a chunk in progress is
        never interrupted retroactively.
    chunk_timeout:
        Per-chunk wall-clock limit in seconds, measured from dispatch.
        Enforced on the ``thread`` and ``process`` backends (the task is
        abandoned and treated as failed); inline execution cannot
        interrupt a running chunk, so sequential runs ignore it.
    max_retries:
        Re-dispatches per chunk before the ``on_failure`` mode takes
        over.  Pool-respawn requeues (worker crash recovery) increment a
        chunk's attempt number but are not charged against this budget.
    backoff_base, backoff_factor, backoff_max:
        Retry ``n`` (1-based) sleeps ``min(backoff_max, backoff_base *
        backoff_factor**(n-1))`` seconds before re-dispatch, plus jitter.
    backoff_jitter:
        Jitter fraction in [0, 1]: the actual delay is the exponential
        delay times ``1 + U`` with ``U`` drawn deterministically from
        ``[0, backoff_jitter]`` (see :func:`backoff_delay`).
    jitter_seed:
        Seed of the deterministic jitter stream.
    on_failure:
        One of :data:`ON_FAILURE_MODES`.
    respawn_limit:
        How many times a dead worker pool is rebuilt before the
        still-incomplete chunks are handed to ``on_failure``.
    poll_interval:
        Dispatcher poll granularity in seconds (process/thread backends).
    """

    deadline: Optional[float] = None
    chunk_timeout: Optional[float] = None
    max_retries: int = 1
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    backoff_jitter: float = 0.25
    jitter_seed: int = 0
    on_failure: str = "raise"
    respawn_limit: int = 1
    poll_interval: float = 0.005

    def __post_init__(self) -> None:
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive")
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ValueError("chunk_timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_factor < 1 or self.backoff_max < 0:
            raise ValueError(
                "backoff_base/backoff_max must be >= 0 and backoff_factor >= 1"
            )
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError("backoff_jitter must be in [0, 1]")
        if self.on_failure not in ON_FAILURE_MODES:
            raise ValueError(
                f"on_failure must be one of {ON_FAILURE_MODES}, "
                f"got {self.on_failure!r}"
            )
        if self.respawn_limit < 0:
            raise ValueError("respawn_limit must be >= 0")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")


def backoff_delay(policy: ExecutionPolicy, chunk_index: int, attempt: int) -> float:
    """Deterministic backoff before retry ``attempt`` (1-based) of a chunk.

    Exponential in the attempt number, capped at ``backoff_max``, then
    scaled by ``1 + U`` where ``U`` is drawn from a ``random.Random``
    seeded with ``(jitter_seed, chunk_index, attempt)`` — the same
    (policy, chunk, attempt) triple always sleeps the same delay, so retry
    schedules are reproducible run to run.
    """
    if attempt < 1:
        raise ValueError("attempt is 1-based")
    raw = policy.backoff_base * (policy.backoff_factor ** (attempt - 1))
    delay = min(policy.backoff_max, raw)
    if policy.backoff_jitter > 0.0 and delay > 0.0:
        rng = random.Random(f"{policy.jitter_seed}/{chunk_index}/{attempt}")
        delay *= 1.0 + rng.uniform(0.0, policy.backoff_jitter)
    return delay


@dataclass(frozen=True)
class ChunkFailure:
    """One chunk's terminal failure (all attempts exhausted).

    ``stage`` records where the last attempt ran: ``"pool"`` (the primary
    backend), ``"thread"``/``"inline"`` (degraded rungs), or
    ``"deadline"``/``"pool-death"`` for chunks lost to a deadline hit or
    an unrecovered worker crash before completing anywhere.
    """

    chunk_index: int
    attempts: int
    error: str
    stage: str


@dataclass
class ExecutionReport:
    """What actually happened during one executor run.

    Counters use *chunks* as the unit (the engine's unit of scheduling,
    retry and loss).  ``chunks_retried`` counts re-dispatches, so one
    chunk retried twice contributes 2; ``chunks_degraded`` counts chunks
    that produced their accepted result on a degraded rung.

    ``chunk_seconds`` maps each *accepted* chunk's index to the wall-clock
    seconds of the accepted attempt (measured where the chunk actually
    ran, worker-side for pooled backends); ``chunk_attempts`` maps it to
    how many attempts that chunk consumed before acceptance (1 for a
    clean first-try run).  Skipped chunks appear in neither.
    ``chunk_costs`` maps *every* scheduled chunk's index to the plan's
    modeled cost (the quantity the cost-model chunker balances on);
    empty when the plan has no cost model.  Comparing it against
    ``chunk_seconds`` is the predicted-vs-actual calibration surfaced in
    EXPLAIN (``cost_calibration``) and the serve audit log.

    ``run_id`` is the deterministic run identifier (the traced run span's
    id when telemetry is active, an engine-local sequence otherwise),
    ``dataset_fingerprint`` the stable content hash of the joined dataset
    (:meth:`repro.core.model.STDataset.fingerprint`; only computed when
    the caller asked for the report or attached telemetry), and ``artifacts``
    maps each written artifact kind (``trace``, ``metrics``, ``explain``)
    to its filesystem path — the CLI records everything it writes here so
    :meth:`summary` can point at it.
    """

    backend: str = "sequential"
    start_method: Optional[str] = None
    algorithm: str = ""
    run_id: Optional[str] = None
    dataset_fingerprint: Optional[str] = None
    artifacts: Dict[str, str] = field(default_factory=dict)
    chunks_total: int = 0
    chunks_completed: int = 0
    chunks_retried: int = 0
    chunks_degraded: int = 0
    chunks_skipped: List[int] = field(default_factory=list)
    pool_respawns: int = 0
    deadline_hit: bool = False
    elapsed: float = 0.0
    failures: List[ChunkFailure] = field(default_factory=list)
    chunk_seconds: Dict[int, float] = field(default_factory=dict)
    chunk_attempts: Dict[int, int] = field(default_factory=dict)
    chunk_costs: Dict[int, float] = field(default_factory=dict)

    @property
    def completeness(self) -> float:
        """Fraction of chunks whose results are in the returned pairs.

        1.0 for an empty workload; results are byte-identical to a
        fault-free sequential run exactly when this is 1.0.
        """
        if self.chunks_total == 0:
            return 1.0
        return self.chunks_completed / self.chunks_total

    @property
    def complete(self) -> bool:
        return self.chunks_completed == self.chunks_total

    def summary(self) -> str:
        """One-paragraph human-readable summary (the CLI prints this)."""
        transport = self.backend
        if self.backend == "process" and self.start_method:
            transport = f"{self.backend}/{self.start_method}"
        parts = [
            f"execution report [{self.algorithm or 'join'} on {transport}]:",
            f"{self.chunks_completed}/{self.chunks_total} chunks",
            f"completeness {self.completeness:.3f}",
        ]
        if self.dataset_fingerprint:
            parts.insert(1, f"dataset {self.dataset_fingerprint}")
        if self.run_id:
            parts.insert(1, f"run {self.run_id}")
        if self.chunks_retried:
            parts.append(f"{self.chunks_retried} retried")
        if self.chunks_degraded:
            parts.append(f"{self.chunks_degraded} degraded")
        if self.chunks_skipped:
            skipped = ",".join(str(i) for i in self.chunks_skipped[:10])
            more = "" if len(self.chunks_skipped) <= 10 else ",..."
            parts.append(f"skipped [{skipped}{more}]")
        if self.pool_respawns:
            parts.append(f"{self.pool_respawns} pool respawn(s)")
        if self.deadline_hit:
            parts.append("DEADLINE HIT")
        if self.chunk_seconds:
            timings = sorted(self.chunk_seconds.values())
            median = timings[len(timings) // 2]
            parts.append(
                f"chunk wall {timings[0]:.3f}/{median:.3f}/{timings[-1]:.3f}s "
                f"(min/med/max)"
            )
        if self.chunk_attempts:
            worst = max(self.chunk_attempts.values())
            if worst > 1:
                parts.append(f"max {worst} attempts/chunk")
        parts.append(f"{self.elapsed:.3f}s")
        for kind in sorted(self.artifacts):
            parts.append(f"{kind} -> {self.artifacts[kind]}")
        return " ".join((parts[0], ", ".join(parts[1:])))
