"""The :class:`Telemetry` facade: one object per observed workload.

A ``Telemetry`` bundles the run-level :class:`~repro.obs.metrics.MetricsRegistry`
and :class:`~repro.obs.trace.Tracer` the execution engine reports into.
One instance may observe several executor runs (each gets its own run
span and adds into the shared registry), which is how benchmarks
aggregate phase timings over a sweep.

Obtain one through the public API::

    from repro import Telemetry, stps_join

    pairs, tele = stps_join(dataset, 0.004, 0.4, 0.4, with_telemetry=True)
    print(tele.summary())
    tele.write_trace("trace.jsonl")
    tele.write_metrics("metrics.prom", fmt="prom")

or construct and pass it explicitly (``telemetry=tele``) to accumulate
across calls.  A ``Telemetry(enabled=False)`` is inert everywhere it is
accepted, so call sites need no conditionals.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from .export import METRICS_FORMATS, render_metrics
from .metrics import MetricsRegistry
from .trace import Tracer

__all__ = ["Telemetry"]


class Telemetry:
    """Metrics registry + tracer for one observed workload."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.metrics = MetricsRegistry(enabled=enabled)
        self.tracer = Tracer(enabled=enabled)

    # -- engine-side recording ----------------------------------------------------

    def record_stats(self, counters: Optional[Dict[str, int]]) -> None:
        """Mirror an accepted chunk's :class:`PairEvalStats` snapshot into
        ``filter.*`` counters (the paper's filter-effectiveness metrics)."""
        if not counters or not self.enabled:
            return
        registry = self.metrics
        for name in sorted(counters):
            value = counters[name]
            if value:
                registry.counter("filter." + name).inc(value)

    def record_chunk(self, seconds: float, attempts: int) -> None:
        """Record one accepted chunk's wall-clock and attempt count."""
        if not self.enabled:
            return
        self.metrics.histogram("chunk.seconds").observe(seconds)
        self.metrics.counter("engine.chunks_completed").inc()
        if attempts > 1:
            self.metrics.counter("engine.chunk_extra_attempts").inc(attempts - 1)

    # -- views --------------------------------------------------------------------

    def work_counters(self) -> Dict[str, int]:
        """Counters describing *logical work* — the deterministic subset.

        Excludes the ``engine.*`` scheduling counters, which legitimately
        differ under retries, degrades and respawns, and the ``cache.*``
        lazy-build counters, which depend on how workers share (or do not
        share) the process-local pack and prefix-index caches; everything
        else is byte-identical across backends for a fixed (dataset,
        query, algorithm, chunk size) — see
        ``tests/obs/test_determinism.py``.
        """
        return {
            name: value
            for name, value in self.metrics.counter_values().items()
            if not name.startswith(("engine.", "cache."))
        }

    def summary(self) -> str:
        """Human-readable rendering of every recorded instrument."""
        return render_metrics(self.metrics, "summary")

    # -- output -------------------------------------------------------------------

    def write_trace(self, path) -> int:
        """Write the JSONL trace; returns the span count."""
        return self.tracer.write(path)

    def write_metrics(self, path, fmt: str = "jsonl") -> None:
        """Write the metrics in ``fmt`` (one of :data:`METRICS_FORMATS`)."""
        if fmt not in METRICS_FORMATS:
            raise ValueError(
                f"unknown metrics format {fmt!r}; choose from {METRICS_FORMATS}"
            )
        text = render_metrics(self.metrics, fmt)
        with open(os.fspath(path), "w", encoding="utf-8") as handle:
            handle.write(text)
            if text and not text.endswith("\n"):
                handle.write("\n")
