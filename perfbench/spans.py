"""In-memory spans and the per-layer ledger built from them.

Spans are recorded by the benchmark's own code around its calls into the
repository's public functions; nothing inside the program is patched.
Each span holds name, start, end (process CPU seconds), parent span id
and op id.  They stay in memory and are written out as JSON lines when
the run ends.

Ledger rules (all figures are per op, averaged over every traced op, so
they add up):

* a span's **self time** is its duration minus its real child spans;
* the op's root span's self time is ``unattributed``;
* a **carve** moves an amount measured by a separate probe call from one
  layer's self time to another's, for work the benchmark cannot wrap from
  outside (the grid build inside a cold ``stps_join``; the core call and
  the analytics inside ``JoinService.query``).  Probe calls run after the
  op's root span has closed, so they never count toward the op's CPU;
  their spans carry the op id, ``probe: true`` and no parent.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional

from measure import cpu


@dataclass
class Span:
    span_id: int
    name: str
    op_id: Optional[int]
    parent: Optional[int]
    start: float
    end: float = 0.0
    probe: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; one op at a time, possibly across two threads."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._stack = threading.local()
        # Set by the client thread for the server thread: the span a
        # request's server-side work belongs to.
        self.remote_parent: Optional[Span] = None
        self.carves: List[tuple] = []  # (op_id, from_layer, to_layer, seconds)

    def _parents(self) -> List[Span]:
        if not hasattr(self._stack, "spans"):
            self._stack.spans = []
        return self._stack.spans

    @contextmanager
    def span(
        self, name: str, op_id: Optional[int] = None, probe: bool = False
    ) -> Iterator[Span]:
        stack = self._parents()
        parent = None if probe else (stack[-1] if stack else self.remote_parent)
        with self._lock:
            record = Span(
                span_id=len(self.spans),
                name=name,
                op_id=op_id if op_id is not None else (
                    parent.op_id if parent is not None else None
                ),
                parent=parent.span_id if parent is not None else None,
                start=0.0,
                probe=probe,
            )
            self.spans.append(record)
        stack.append(record)
        record.start = cpu()
        try:
            yield record
        finally:
            record.end = cpu()
            stack.pop()

    def carve(self, op_id: int, source: str, target: str, seconds: float) -> None:
        """Attribute ``seconds`` of ``source``'s self time to ``target``."""
        self.carves.append((op_id, source, target, seconds))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
            for op_id, source, target, seconds in self.carves:
                handle.write(json.dumps({
                    "carve": {"op_id": op_id, "from": source,
                              "to": target, "seconds": seconds}
                }) + "\n")


def ledger(tracer: Tracer, op_ids: List[int], layer_of: Dict[str, str]) -> dict:
    """Mean self seconds per op for each layer, plus ``unattributed``.

    ``layer_of`` maps span names to ledger lines; the root span of each
    op is named ``op`` and its self time is ``unattributed``.  Returns the
    per-layer means and ``op`` (mean root-span duration); the lines sum
    to ``op`` by construction, which :func:`check_closure` verifies.
    """
    wanted = set(op_ids)
    children: Dict[int, float] = {}
    for span in tracer.spans:
        if span.op_id in wanted and span.parent is not None:
            children[span.parent] = children.get(span.parent, 0.0) + span.duration
    totals: Dict[str, float] = {"unattributed": 0.0}
    op_total = 0.0
    for span in tracer.spans:
        if span.op_id not in wanted or span.probe:
            continue
        own = span.duration - children.get(span.span_id, 0.0)
        if span.name == "op":
            op_total += span.duration
            totals["unattributed"] += own
        elif span.name in layer_of:
            line = layer_of[span.name]
            totals[line] = totals.get(line, 0.0) + own
    for op_id, source, target, seconds in tracer.carves:
        if op_id in wanted:
            totals[source] = totals.get(source, 0.0) - seconds
            totals[target] = totals.get(target, 0.0) + seconds
    n = len(op_ids)
    means = {line: value / n for line, value in totals.items()}
    means["op"] = op_total / n
    return means


def check_closure(means: dict, tolerance: float = 1e-9) -> bool:
    """The layer lines plus ``unattributed`` equal the mean op CPU."""
    lines = sum(v for k, v in means.items() if k != "op")
    return abs(lines - means["op"]) <= tolerance * max(1.0, abs(means["op"]))
