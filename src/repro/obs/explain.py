"""Query EXPLAIN: turn one observed run into a structured diagnosis.

The paper's performance story (Figs. 4-7) is about how aggressively the
S-PPJ filters prune candidate pairs before exact verification.  An
:class:`ExplainReport` makes that story inspectable per run: it reads
the funnel counters the kernels flush (:mod:`repro.obs.funnel`), the
phase histograms and the :class:`~repro.exec.resilience.ExecutionReport`
chunk timings, and assembles

* the **object-pair funnel** — cell pairs -> object pairs -> per-stage
  survivors -> verified -> matched, with per-stage pruning ratios;
* the **user-pair funnel** — user pairs evaluated -> bound-pruned ->
  refined -> emitted;
* **phase attribution** — wall-clock share per recorded phase;
* **chunk statistics** — count, min/median/max seconds, imbalance,
  retries — plus the top-N heaviest chunks by measured wall-clock;
* the top-N **heaviest users** by the same modeled cost
  (``|Du| * (total - |Du|)``) the cost-model chunker uses, so modeled
  cost can be eyeballed against the actual counters.

:meth:`ExplainReport.work_dict` is the *deterministic* subset — work
counters and funnels, no timings, no backend — byte-identical across
the sequential/thread/process backends for a fixed (dataset, query,
algorithm, chunk size).  ``repro obs diff`` and
``scripts/check_bench_regression.py`` gate on exactly that subset.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .funnel import PRUNE_STAGES

__all__ = [
    "EXPLAIN_SCHEMA_VERSION",
    "ExplainReport",
    "build_explain",
    "render_explain",
]

EXPLAIN_SCHEMA_VERSION = 1

#: Stage key of the funnel's final, non-pruning row.
_VERIFY_STAGE = "verify"


def _object_funnel(counters: Dict[str, int]) -> List[dict]:
    """Cumulative funnel rows from the ``funnel.*`` work counters.

    One row per materialized pruning stage (stages that pruned nothing
    have no counter and no row), in the canonical
    :data:`~repro.obs.funnel.PRUNE_STAGES` order, closed by a ``verify``
    row whose "pruned" column is the verification failures.
    """
    total = counters.get("funnel.object_pairs", 0)
    rows: List[dict] = []
    remaining = total
    for stage in PRUNE_STAGES:
        pruned = counters.get(f"funnel.pruned.{stage}", 0)
        if not pruned:
            continue
        rows.append(
            {
                "stage": stage,
                "input": remaining,
                "pruned": pruned,
                "survivors": remaining - pruned,
                "pruned_ratio": pruned / remaining if remaining else 0.0,
            }
        )
        remaining -= pruned
    verified = counters.get("funnel.verified", 0)
    failed = counters.get("funnel.verify_failed", 0)
    matched = counters.get("funnel.matched", 0)
    rows.append(
        {
            "stage": _VERIFY_STAGE,
            "input": verified,
            "pruned": failed,
            "survivors": matched,
            "pruned_ratio": failed / verified if verified else 0.0,
        }
    )
    return rows


def _user_funnel(counters: Dict[str, int]) -> dict:
    """The coarse user-pair funnel the plans record."""
    return {
        "evaluated": counters.get("pairs.evaluated", 0),
        "bound_pruned": counters.get("filter.bound_pruned", 0),
        "refinements": counters.get("filter.refinements", 0),
        "emitted": counters.get("pairs.emitted", 0),
    }


def _phase_rows(registry) -> List[dict]:
    """Wall-clock attribution rows from the recorded histograms."""
    items = registry.histogram_items()
    run = items.get("run.seconds")
    run_total = run.total if run is not None else 0.0
    rows = []
    for name, hist in items.items():
        if not hist.count:
            continue
        rows.append(
            {
                "name": name,
                "count": hist.count,
                "seconds": hist.total,
                "mean": hist.mean,
                "share": hist.total / run_total if run_total else 0.0,
            }
        )
    rows.sort(key=lambda r: (-r["seconds"], r["name"]))
    return rows


def _chunk_stats(report) -> dict:
    timings = sorted(report.chunk_seconds.values())
    stats = {
        "count": len(timings),
        "retried": report.chunks_retried,
        "max_attempts": max(report.chunk_attempts.values(), default=1),
    }
    if timings:
        median = statistics.median(timings)
        stats.update(
            min_seconds=timings[0],
            median_seconds=median,
            max_seconds=timings[-1],
            imbalance=(timings[-1] / median) if median > 0.0 else 1.0,
        )
    return stats


def _top_chunks(report, top_n: int) -> List[dict]:
    heaviest = sorted(
        report.chunk_seconds.items(), key=lambda kv: (-kv[1], kv[0])
    )[:top_n]
    return [
        {
            "chunk": index,
            "seconds": seconds,
            "attempts": report.chunk_attempts.get(index, 1),
        }
        for index, seconds in heaviest
    ]


def _top_users(dataset, top_n: int) -> List[dict]:
    """Heaviest users under the cost-model chunker's pair-cost model.

    A user's modeled cost is ``|Du| * (total_objects - |Du|)`` — the sum
    of its ``|Du_i| * |Du_j|`` pair costs against every other user —
    which is exactly the quantity ``exec/plans.py`` balances chunks on.
    """
    sizes = {u: len(dataset.user_objects(u)) for u in dataset.users}
    total = sum(sizes.values())
    costed = sorted(
        ((size * (total - size), u, size) for u, size in sizes.items()),
        key=lambda e: (-e[0], str(e[1])),
    )[:top_n]
    return [
        {"user": user, "objects": size, "modeled_cost": cost}
        for cost, user, size in costed
    ]


@dataclass
class ExplainReport:
    """Structured diagnosis of one observed run (see module docstring)."""

    algorithm: str = ""
    run_id: Optional[str] = None
    backend: str = ""
    start_method: Optional[str] = None
    dataset_fingerprint: Optional[str] = None
    elapsed: float = 0.0
    object_funnel: List[dict] = field(default_factory=list)
    user_funnel: dict = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    engine_counters: Dict[str, int] = field(default_factory=dict)
    cache_counters: Dict[str, int] = field(default_factory=dict)
    phases: List[dict] = field(default_factory=list)
    chunks: dict = field(default_factory=dict)
    top_chunks: List[dict] = field(default_factory=list)
    top_users: List[dict] = field(default_factory=list)
    cost_calibration: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-ready payload; ``kind`` tags it for ``repro obs`` tooling."""
        return {
            "kind": "explain",
            "schema_version": EXPLAIN_SCHEMA_VERSION,
            "algorithm": self.algorithm,
            "run_id": self.run_id,
            "backend": self.backend,
            "start_method": self.start_method,
            "dataset_fingerprint": self.dataset_fingerprint,
            "elapsed": self.elapsed,
            "object_funnel": self.object_funnel,
            "user_funnel": self.user_funnel,
            "counters": self.counters,
            "engine_counters": self.engine_counters,
            "cache_counters": self.cache_counters,
            "phases": self.phases,
            "chunks": self.chunks,
            "top_chunks": self.top_chunks,
            "top_users": self.top_users,
            "cost_calibration": self.cost_calibration,
        }

    def work_dict(self) -> dict:
        """The deterministic subset: funnels + work counters, no timings.

        Byte-identical across backends (and under fault-injection
        retries) for a fixed (dataset, query, algorithm, chunk size) —
        the diff/regression tooling gates on this.
        """
        return {
            "algorithm": self.algorithm,
            "object_funnel": self.object_funnel,
            "user_funnel": self.user_funnel,
            "counters": dict(self.counters),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def summary(self) -> str:
        return render_explain(self.as_dict())


def build_explain(
    telemetry,
    report=None,
    dataset=None,
    top_n: int = 5,
) -> ExplainReport:
    """Assemble an :class:`ExplainReport` from one observed run.

    ``telemetry`` supplies the counters and phase histograms; ``report``
    (an :class:`~repro.exec.resilience.ExecutionReport`, optional) the
    run id and chunk timings; ``dataset`` (optional) the modeled-cost
    top users.  All three are read-only — building an explain report
    never mutates the run's telemetry.
    """
    counters = telemetry.work_counters()
    explain = ExplainReport(
        object_funnel=_object_funnel(counters),
        user_funnel=_user_funnel(counters),
        counters=counters,
        engine_counters=telemetry.metrics.counter_values("engine."),
        cache_counters=telemetry.metrics.counter_values("cache."),
        phases=_phase_rows(telemetry.metrics),
    )
    if report is not None:
        explain.algorithm = report.algorithm
        explain.run_id = report.run_id
        explain.backend = report.backend
        explain.start_method = report.start_method
        explain.dataset_fingerprint = report.dataset_fingerprint
        explain.elapsed = report.elapsed
        explain.chunks = _chunk_stats(report)
        explain.top_chunks = _top_chunks(report, top_n)
        chunk_costs = getattr(report, "chunk_costs", None)
        if chunk_costs:
            from .analytics import calibration_summary

            explain.cost_calibration = calibration_summary(
                chunk_costs, report.chunk_seconds
            )
    if dataset is not None:
        explain.top_users = _top_users(dataset, top_n)
        if explain.dataset_fingerprint is None:
            explain.dataset_fingerprint = dataset.fingerprint()
    return explain


def render_explain(payload: dict) -> str:
    """Human-readable rendering of an explain payload (dict or JSON file).

    Works off the :meth:`ExplainReport.as_dict` shape so ``repro obs
    show`` can render artifacts written by earlier runs.
    """
    lines: List[str] = []
    head = f"explain [{payload.get('algorithm') or 'run'}]"
    run_id = payload.get("run_id")
    if run_id:
        head += f" run {run_id}"
    fingerprint = payload.get("dataset_fingerprint")
    if fingerprint:
        head += f" dataset {fingerprint}"
    backend = payload.get("backend")
    if backend:
        transport = backend
        if backend == "process" and payload.get("start_method"):
            transport += f"/{payload['start_method']}"
        head += f" on {transport}"
    lines.append(head)

    funnel = payload.get("object_funnel") or []
    if funnel:
        lines.append("object-pair funnel:")
        width = max(len(r["stage"]) for r in funnel)
        for row in funnel:
            lines.append(
                f"  {row['stage']:<{width}}  in {row['input']:>10}  "
                f"pruned {row['pruned']:>10} ({row['pruned_ratio']:6.1%})  "
                f"out {row['survivors']:>10}"
            )
    user = payload.get("user_funnel") or {}
    if any(user.values()):
        lines.append(
            "user-pair funnel: "
            f"evaluated {user.get('evaluated', 0)} -> "
            f"bound-pruned {user.get('bound_pruned', 0)} -> "
            f"refined {user.get('refinements', 0)} -> "
            f"emitted {user.get('emitted', 0)}"
        )

    phases = payload.get("phases") or []
    if phases:
        lines.append("phase attribution:")
        width = max(len(p["name"]) for p in phases)
        for p in phases:
            lines.append(
                f"  {p['name']:<{width}}  {p['seconds']:9.4f}s "
                f"({p['share']:6.1%})  x{p['count']}"
            )

    chunks = payload.get("chunks") or {}
    if chunks.get("count"):
        lines.append(
            f"chunks: {chunks['count']} accepted, wall "
            f"{chunks.get('min_seconds', 0.0):.4f}/"
            f"{chunks.get('median_seconds', 0.0):.4f}/"
            f"{chunks.get('max_seconds', 0.0):.4f}s (min/med/max), "
            f"imbalance {chunks.get('imbalance', 1.0):.2f}, "
            f"{chunks.get('retried', 0)} retried"
        )
    top_chunks = payload.get("top_chunks") or []
    if top_chunks:
        heaviest = ", ".join(
            f"#{c['chunk']} {c['seconds']:.4f}s" for c in top_chunks
        )
        lines.append(f"heaviest chunks: {heaviest}")
    top_users = payload.get("top_users") or []
    if top_users:
        heaviest = ", ".join(
            f"{u['user']} ({u['objects']} objs, cost {u['modeled_cost']})"
            for u in top_users
        )
        lines.append(f"heaviest users (modeled): {heaviest}")
    calibration = payload.get("cost_calibration") or {}
    if calibration.get("chunks"):
        worst = calibration.get("worst_chunk") or {}
        lines.append(
            f"cost calibration: {calibration['chunks']} chunks, "
            f"actual/predicted share ratio "
            f"{calibration.get('ratio_min', 0.0):.2f}/"
            f"{calibration.get('ratio_median', 0.0):.2f}/"
            f"{calibration.get('ratio_max', 0.0):.2f} (min/med/max), "
            f"{calibration.get('seconds_per_cost', 0.0):.3g}s per cost unit"
            + (
                f", worst #{worst.get('chunk')} x{worst.get('ratio', 0.0):.2f}"
                if worst
                else ""
            )
        )
    return "\n".join(lines)
