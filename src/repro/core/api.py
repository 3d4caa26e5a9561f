"""Public facade: evaluate (top-k) STPSJoin queries by algorithm name.

This is the entry point downstream code should use::

    from repro import STDataset, stps_join, topk_stps_join

    dataset = STDataset.from_records(records)
    pairs = stps_join(dataset, eps_loc=0.001, eps_doc=0.4, eps_user=0.4)
    best = topk_stps_join(dataset, eps_loc=0.001, eps_doc=0.4, k=10)

Results are :class:`~repro.core.query.UserPair` lists; threshold queries
return pairs sorted by descending score, top-k queries return exactly the
k best (fewer when fewer positive pairs exist).

Every call runs the algorithm's plan (:mod:`repro.exec.plans`, the only
implementation of each algorithm) through the execution engine: on the
sequential backend as one chunk unless ``workers=``, ``backend=``,
``chunk_size=`` or a deadline policy asks for more.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..exec import JOIN_PLANS, TOPK_PLANS, JoinExecutor
from ..exec.plans import Plan
from ..obs import Telemetry, build_explain
from .model import STDataset
from .pair_eval import PairEvalStats
from .query import STPSJoinQuery, TopKQuery

__all__ = [
    "JOIN_ALGORITHMS",
    "TOPK_ALGORITHMS",
    "stps_join",
    "topk_stps_join",
]

#: Threshold-join algorithms by name, each mapped to its plan.
#: "s-ppj-f" is the paper's best.
JOIN_ALGORITHMS: Dict[str, Plan] = JOIN_PLANS

#: Top-k algorithms by name, each mapped to its plan.  "topk-s-ppj-p" is
#: the default; "topk-s-ppj-d" is the leaf-partitioned variant the paper
#: sketches.
TOPK_ALGORITHMS: Dict[str, Plan] = TOPK_PLANS


def _execute(
    kind: str,
    dataset: STDataset,
    query,
    algorithm: str,
    stats: Optional[PairEvalStats],
    workers: Optional[int],
    backend: Optional[str],
    start_method: Optional[str],
    chunk_size: Optional[int],
    policy,
    with_report: bool,
    telemetry,
    with_telemetry: bool,
    explain: bool,
    kwargs: dict,
):
    """Run ``algorithm``'s plan through the engine and shape the return.

    A call without ``workers``/``backend`` runs on the sequential backend.
    ``with_telemetry=True`` without an explicit object constructs one so
    the caller can receive it back; ``explain`` needs one too.
    """
    if (with_telemetry or explain) and telemetry is None:
        telemetry = Telemetry()
    if backend is None:
        backend = "process" if workers is not None else "sequential"
    executor = JoinExecutor(
        workers=workers,
        backend=backend,
        start_method=start_method,
        chunk_size=chunk_size,
        policy=policy,
    )
    run = executor.join if kind == "join" else executor.topk
    want_report = with_report or explain
    out = run(
        dataset,
        query,
        algorithm=algorithm,
        stats=stats,
        with_report=want_report,
        telemetry=telemetry,
        **kwargs,
    )
    pairs, report = out if want_report else (out, None)
    result = [pairs]
    if with_report:
        result.append(report)
    if with_telemetry:
        result.append(telemetry)
    if explain:
        result.append(build_explain(telemetry, report, dataset=dataset))
    return result[0] if len(result) == 1 else tuple(result)


def stps_join(
    dataset: STDataset,
    eps_loc: float,
    eps_doc: float,
    eps_user: float,
    algorithm: str = "s-ppj-f",
    stats: Optional[PairEvalStats] = None,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    start_method: Optional[str] = None,
    chunk_size: Optional[int] = None,
    policy=None,
    with_report: bool = False,
    telemetry=None,
    with_telemetry: bool = False,
    explain: bool = False,
    **kwargs,
):
    """Evaluate an STPSJoin query (Definition 1).

    Parameters
    ----------
    eps_loc:
        Spatial distance threshold (same units as the coordinates).
    eps_doc:
        Jaccard keyword-similarity threshold in (0, 1].
    eps_user:
        Point-set similarity threshold in (0, 1].
    algorithm:
        One of :data:`JOIN_ALGORITHMS`; ``"s-ppj-d"`` additionally accepts
        ``fanout=`` and ``index=``.
    stats:
        Optional :class:`PairEvalStats` to collect work counters.
    workers / backend / start_method / chunk_size:
        The execution engine's settings (:class:`repro.exec.JoinExecutor`).
        Without ``workers`` or ``backend`` the plan runs on the sequential
        backend; ``workers`` alone selects the ``"process"`` backend.
        Results are byte-identical on every backend.
    policy:
        Optional :class:`repro.exec.ExecutionPolicy` (deadline, retries,
        graceful degradation — see ``docs/robustness.md``).
    with_report:
        Return ``(pairs, report)`` with the run's
        :class:`repro.exec.ExecutionReport` instead of just the pairs.
    telemetry / with_telemetry:
        ``telemetry=`` accepts a :class:`repro.obs.Telemetry` to record
        metrics and trace spans into; ``with_telemetry=True`` constructs
        one and appends it to the return value (after the report when
        ``with_report`` is also set); see ``docs/observability.md``.
    explain:
        Build an :class:`repro.obs.ExplainReport` (filter funnel, phase
        attribution, chunk stats — the EXPLAIN section of
        ``docs/observability.md``) from the run and append it to the
        return value, always last.  Constructs an internal ``Telemetry``
        when none was given.
    index:
        (keyword-only, via ``**kwargs``) A pre-built warm index to reuse
        instead of rebuilding per call — an
        :class:`~repro.stindex.stgrid.STGridIndex` for the grid
        algorithms or an :class:`~repro.stindex.leaf_index.STLeafIndex`
        for ``"s-ppj-d"``.  Must match the query's ``eps_loc`` (and for
        the token-probing algorithms carry token lists); the plan
        validates it.  This is the prepared-dataset
        entry point the resident join server (``docs/serving.md``) is
        built on — results are byte-identical to a cold call.

    Plain S-PPJ-C/B runs use the fused numpy batch evaluator; with
    ``stats=`` or telemetry they run the scalar evaluators, which count
    their work (see the evaluation tiers in ``docs/performance.md``).
    Results are byte-identical either way.
    """
    query = STPSJoinQuery(eps_loc=eps_loc, eps_doc=eps_doc, eps_user=eps_user)
    return _execute(
        "join", dataset, query, algorithm, stats, workers, backend,
        start_method, chunk_size, policy, with_report, telemetry,
        with_telemetry, explain, kwargs,
    )


def topk_stps_join(
    dataset: STDataset,
    eps_loc: float,
    eps_doc: float,
    k: int,
    algorithm: str = "topk-s-ppj-p",
    stats: Optional[PairEvalStats] = None,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    start_method: Optional[str] = None,
    chunk_size: Optional[int] = None,
    policy=None,
    with_report: bool = False,
    telemetry=None,
    with_telemetry: bool = False,
    explain: bool = False,
    **kwargs,
):
    """Evaluate a top-k STPSJoin query (Definition 2).

    Every keyword behaves as in :func:`stps_join`; the returned k best
    pairs are byte-identical on every backend and chunking (ties are
    broken canonically everywhere).  ``"topk-s-ppj-d"`` additionally
    accepts ``fanout=``.
    """
    query = TopKQuery(eps_loc=eps_loc, eps_doc=eps_doc, k=k)
    return _execute(
        "topk", dataset, query, algorithm, stats, workers, backend,
        start_method, chunk_size, policy, with_report, telemetry,
        with_telemetry, explain,
        {k_: v for k_, v in kwargs.items() if v is not None},
    )
