"""Per-query audit records: ring buffer, rotating JSONL log, slow-query log.

Every query the resident server answers — success, cache hit, 429, 504
or crash — produces one structured :class:`AuditRecord`: who asked for
what (dataset fingerprint, algorithm, params), what it cost
(admission-queue wait and the queue/setup/execute/serialize latency
breakdown), what happened (outcome class, cache hit/miss, error text)
and what the engine did (run_id, funnel summary, cost-calibration
ratios).  Records land in:

* a bounded in-memory **ring buffer** (``collections.deque(maxlen=…)``),
  served by the ``/audit/tail`` endpoint and ``repro obs tail --url``;
* optionally a **rotating JSONL file** (``path`` → ``path.1`` … ``.N``).
  Each record is one ``json.dumps`` line written with a single
  ``write()`` + ``flush()`` under the log lock, so concurrent queries
  can never interleave bytes mid-line — readers see whole lines or
  nothing (the torn-line guarantee ``tests/serve/test_audit.py`` pins).

:class:`SlowQueryLog` keeps the most recent queries whose wall-clock
exceeded a threshold together with a full ``ExplainReport`` dict when
one could be (re)captured — the "which queries were slow yesterday"
answer Prometheus counters cannot give.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..obs.analytics import calibration_summary

__all__ = [
    "AUDIT_SCHEMA_VERSION",
    "AuditRecord",
    "AuditLog",
    "SlowQueryLog",
    "read_audit_lines",
]

#: Bump when AuditRecord.as_dict() changes shape.
AUDIT_SCHEMA_VERSION = 2


@dataclass
class AuditRecord:
    """One query's structured audit trail (see module docstring)."""

    seq: int = 0
    ts: float = 0.0  # Unix epoch seconds, wall clock
    dataset: str = ""
    fingerprint: Optional[str] = None
    query_type: str = ""  # "join" | "topk" | "knn"
    algorithm: str = ""
    params: Dict[str, object] = field(default_factory=dict)
    outcome: str = "ok"  # one of repro.obs.analytics.OUTCOMES
    error: Optional[str] = None  # error class name when outcome != ok
    cache: Optional[str] = None  # "hit" | "miss" | None (uncacheable)
    run_id: Optional[str] = None
    seconds: float = 0.0  # total wall clock
    timings: Dict[str, float] = field(default_factory=dict)
    # queue / setup / execute / serialize breakdown, seconds
    result_count: Optional[int] = None
    funnel: Dict[str, int] = field(default_factory=dict)
    #: ``(chunk, cost)`` and ``(chunk, seconds)`` pairs of the run; the
    #: ring keeps these, several times smaller than the calibration
    #: summary :meth:`as_dict` derives from them.
    chunk_timings: Optional[Tuple[tuple, tuple]] = None

    def as_dict(self) -> dict:
        return {
            "schema_version": AUDIT_SCHEMA_VERSION,
            "seq": self.seq,
            "ts": self.ts,
            "dataset": self.dataset,
            "fingerprint": self.fingerprint,
            "type": self.query_type,
            "algorithm": self.algorithm,
            "params": self.params,
            "outcome": self.outcome,
            "error": self.error,
            "cache": self.cache,
            "run_id": self.run_id,
            "seconds": self.seconds,
            "timings": self.timings,
            "result_count": self.result_count,
            "funnel": self.funnel,
            "calibration": (
                calibration_summary(*map(dict, self.chunk_timings))
                if self.chunk_timings
                else {}
            ),
        }


class AuditLog:
    """Bounded ring buffer of audit records + optional rotating JSONL file.

    ``maxlen`` bounds the in-memory ring (oldest records evicted).  With
    ``path`` set, every record is also appended as one JSONL line; when
    the file would exceed ``max_bytes`` it rotates ``path`` → ``path.1``
    → … → ``path.{backups}`` (the oldest backup is dropped).  All file
    I/O happens under one lock with a single ``write()`` per record, so
    lines are never torn or interleaved across threads.
    """

    def __init__(
        self,
        maxlen: int = 1024,
        path: Optional[str] = None,
        max_bytes: int = 4 * 1024 * 1024,
        backups: int = 3,
    ) -> None:
        if maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        if max_bytes < 1024:
            raise ValueError("max_bytes must be >= 1024")
        if backups < 0:
            raise ValueError("backups must be >= 0")
        self.maxlen = int(maxlen)
        self.path = path
        self.max_bytes = int(max_bytes)
        self.backups = int(backups)
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=self.maxlen)
        self._seq = 0
        self._recorded = 0
        self._evicted = 0
        self._bytes_written = 0
        self._rotations = 0
        self._file = None
        self._file_bytes = 0
        if path:
            self._file = open(path, "a", encoding="utf-8")
            self._file_bytes = os.path.getsize(path)

    # -- recording ----------------------------------------------------------------

    def record(self, record: AuditRecord) -> AuditRecord:
        """Assign a sequence number, stamp, ring-buffer and append the record."""
        with self._lock:
            self._seq += 1
            record.seq = self._seq
            if not record.ts:
                record.ts = time.time()
            if len(self._ring) == self.maxlen:
                self._evicted += 1
            self._ring.append(record)
            self._recorded += 1
            if self._file is not None:
                line = json.dumps(
                    record.as_dict(), separators=(",", ":"), sort_keys=True
                ) + "\n"
                encoded = len(line.encode("utf-8"))
                if self._file_bytes and self._file_bytes + encoded > self.max_bytes:
                    self._rotate_locked()
                self._file.write(line)
                self._file.flush()
                self._file_bytes += encoded
                self._bytes_written += encoded
        return record

    def _rotate_locked(self) -> None:
        """Rotate path → path.1 → … → path.N; caller holds the lock."""
        self._file.close()
        if self.backups > 0:
            oldest = f"{self.path}.{self.backups}"
            if os.path.exists(oldest):
                os.remove(oldest)
            for i in range(self.backups - 1, 0, -1):
                src = f"{self.path}.{i}"
                if os.path.exists(src):
                    os.replace(src, f"{self.path}.{i + 1}")
            os.replace(self.path, f"{self.path}.1")
        else:
            os.remove(self.path)
        self._file = open(self.path, "a", encoding="utf-8")
        self._file_bytes = 0
        self._rotations += 1

    # -- reading ------------------------------------------------------------------

    def tail(
        self,
        n: int = 20,
        dataset: Optional[str] = None,
        algorithm: Optional[str] = None,
        outcome: Optional[str] = None,
        since_seq: Optional[int] = None,
    ) -> List[dict]:
        """The most recent ``n`` matching records, oldest first."""
        with self._lock:
            records = list(self._ring)
        out = []
        for record in records:
            if dataset is not None and record.dataset != dataset:
                continue
            if algorithm is not None and record.algorithm != algorithm:
                continue
            if outcome is not None and record.outcome != outcome:
                continue
            if since_seq is not None and record.seq <= since_seq:
                continue
            out.append(record.as_dict())
        return out[-n:] if n >= 0 else out

    def stats(self) -> dict:
        with self._lock:
            return {
                "recorded": self._recorded,
                "ring_size": len(self._ring),
                "ring_maxlen": self.maxlen,
                "evicted": self._evicted,
                "path": self.path,
                "bytes_written": self._bytes_written,
                "rotations": self._rotations,
            }

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


class SlowQueryLog:
    """Ring of the most recent over-threshold queries with their EXPLAINs.

    ``threshold_seconds`` classifies a query as slow; each entry keeps
    the full audit-record dict plus an ``explain`` dict (the complete
    ``ExplainReport.as_dict()``) when one was captured, and a
    ``recaptured`` flag saying whether the explain came from re-running
    the query (the normal case — production queries don't pay the
    explain overhead) or from the original run.
    """

    def __init__(self, threshold_seconds: float = 1.0, maxlen: int = 32) -> None:
        if threshold_seconds <= 0:
            raise ValueError("threshold_seconds must be positive")
        if maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        self.threshold_seconds = float(threshold_seconds)
        self.maxlen = int(maxlen)
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=self.maxlen)
        self._captured = 0

    def is_slow(self, seconds: float) -> bool:
        return seconds >= self.threshold_seconds

    def add(
        self,
        record: AuditRecord,
        explain: Optional[dict] = None,
        recaptured: bool = False,
    ) -> None:
        entry = {
            "record": record.as_dict(),
            "explain": explain,
            "recaptured": recaptured,
        }
        with self._lock:
            self._ring.append(entry)
            self._captured += 1

    def entries(self, n: int = -1) -> List[dict]:
        with self._lock:
            entries = list(self._ring)
        return entries[-n:] if n >= 0 else entries

    def stats(self) -> dict:
        with self._lock:
            return {
                "threshold_seconds": self.threshold_seconds,
                "captured": self._captured,
                "ring_size": len(self._ring),
                "ring_maxlen": self.maxlen,
            }


def read_audit_lines(path: str) -> Iterable[dict]:
    """Parse a JSONL audit file, skipping a torn final line if the file
    is being written concurrently (every complete line ends in ``\\n``)."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.endswith("\n"):
                break
            line = line.strip()
            if line:
                yield json.loads(line)
