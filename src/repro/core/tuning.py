"""Automated threshold discovery (Section 5.6 of the paper).

When no prior knowledge fixes ``eps_loc``, ``eps_doc`` and ``eps_u``, the
paper proposes a greedy procedure: run S-PPJ-F once with deliberately
relaxed thresholds, then walk the parameter space depth-first, tightening
one threshold per step.  Because tightening monotonically shrinks the
result set, each step only *re-checks the pairs that survived the previous
step* (with a pair-level PPJ-C evaluation) instead of re-running the full
join.  The walk stops when the result set is no larger than the requested
size; a step that empties the result set is undone and another threshold
is tightened instead (backtracking).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import random

from ..spatial.geometry import Rect
from ..stindex.stgrid import STGridIndex
from .model import STDataset, UserId
from .pair_eval import ppj_c_pair
from .api import stps_join
from .query import STPSJoinQuery, UserPair

__all__ = [
    "TuningResult",
    "tune_thresholds",
    "evaluate_pair",
    "auto_initial_thresholds",
]

#: The three tunable parameters, in the order steps are specified.
_PARAMS = ("eps_loc", "eps_doc", "eps_user")


@dataclass
class TuningResult:
    """Outcome of a tuning run."""

    query: STPSJoinQuery
    pairs: List[UserPair]
    iterations: int
    initial_result_size: int
    initial_join_seconds: float
    tuning_seconds: float


def evaluate_pair(
    dataset: STDataset,
    user_a: UserId,
    user_b: UserId,
    eps_loc: float,
    eps_doc: float,
) -> float:
    """Exact ``sigma`` of one user pair via a pair-local PPJ-C evaluation.

    Builds a small grid over just the two users' objects — this is the
    "use PPJ-C to identify which pairs adhere to the new thresholds" step
    of the tuning procedure.
    """
    objs_a = dataset.user_objects(user_a)
    objs_b = dataset.user_objects(user_b)
    total = len(objs_a) + len(objs_b)
    if total == 0:
        return 0.0
    bounds = Rect.from_points((o.x, o.y) for o in objs_a + objs_b)
    index = STGridIndex(bounds, eps_loc, with_tokens=False)
    index.add_user(user_a, objs_a)
    index.add_user(user_b, objs_b)
    matched = ppj_c_pair(index, user_a, user_b, eps_loc, eps_doc)
    return matched / total


def _tightened(
    thresholds: Dict[str, float], param: str, steps: Dict[str, float]
) -> Optional[Dict[str, float]]:
    """One tightening step of ``param``; None when at the domain border."""
    out = dict(thresholds)
    if param == "eps_loc":
        value = thresholds["eps_loc"] - steps["eps_loc"]
        if value <= 0:
            return None
        out["eps_loc"] = value
    else:
        value = thresholds[param] + steps[param]
        if value > 1.0:
            return None
        out[param] = value
    return out


def auto_initial_thresholds(
    dataset: STDataset,
    target_size: int,
    max_relaxations: int = 8,
) -> Tuple[STPSJoinQuery, List[UserPair], float]:
    """Find relaxed initial thresholds with more than ``target_size`` pairs.

    The paper notes the tuning procedure only needs starting thresholds
    "relaxed enough to guarantee a result-set larger than the input
    value".  This helper makes that automatic: start from data-driven
    defaults (a spatial radius of 5% of the extent diagonal, permissive
    textual and user thresholds) and keep relaxing — doubling the radius,
    halving the similarity thresholds — until the join returns enough
    pairs or the thresholds cannot relax further.

    Returns ``(query, pairs, join_seconds)`` so the caller can reuse the
    final join result instead of re-running it.
    """
    if target_size < 1:
        raise ValueError("target_size must be positive")
    bounds = dataset.bounds
    diagonal = math.hypot(bounds.width, bounds.height) or 1.0
    eps_loc = 0.05 * diagonal
    eps_doc = 0.10
    eps_user = 0.10

    total_seconds = 0.0
    pairs: List[UserPair] = []
    for _ in range(max_relaxations + 1):
        query = STPSJoinQuery(eps_loc=eps_loc, eps_doc=eps_doc, eps_user=eps_user)
        t0 = time.perf_counter()
        pairs = stps_join(dataset, eps_loc, eps_doc, eps_user)
        total_seconds += time.perf_counter() - t0
        if len(pairs) > target_size:
            return query, pairs, total_seconds
        at_limit = (
            eps_loc >= diagonal and eps_doc <= 0.01 and eps_user <= 0.01
        )
        if at_limit:
            break
        eps_loc = min(diagonal, eps_loc * 2.0)
        eps_doc = max(0.01, eps_doc / 2.0)
        eps_user = max(0.01, eps_user / 2.0)
    return (
        STPSJoinQuery(eps_loc=eps_loc, eps_doc=eps_doc, eps_user=eps_user),
        pairs,
        total_seconds,
    )


def tune_thresholds(
    dataset: STDataset,
    target_size: int,
    initial: Optional[STPSJoinQuery] = None,
    step_fractions: Tuple[float, float, float] = (0.25, 0.25, 0.25),
    strategy: str = "probabilistic",
    seed: int = 0,
    max_iterations: int = 200,
) -> TuningResult:
    """Discover thresholds yielding at most ``target_size`` result pairs.

    Parameters
    ----------
    initial:
        Relaxed starting thresholds; must yield more than ``target_size``
        pairs for tuning to have anything to do.  ``None`` discovers them
        automatically with :func:`auto_initial_thresholds`.
    step_fractions:
        Step sizes as fractions of the initial ``(eps_loc, eps_doc,
        eps_user)`` values.
    strategy:
        ``"probabilistic"`` picks the threshold to tighten uniformly at
        random (seeded); ``"least_modified"`` always tightens the
        threshold tightened the fewest times so far — the deterministic
        alternative the paper mentions.
    max_iterations:
        Safety valve on re-evaluation steps.
    """
    if target_size < 1:
        raise ValueError("target_size must be positive")
    if strategy not in ("probabilistic", "least_modified"):
        raise ValueError(f"unknown strategy: {strategy}")

    if initial is None:
        initial, pairs, initial_join_seconds = auto_initial_thresholds(
            dataset, target_size
        )
    else:
        t0 = time.perf_counter()
        pairs = stps_join(
            dataset, initial.eps_loc, initial.eps_doc, initial.eps_user
        )
        initial_join_seconds = time.perf_counter() - t0
    initial_size = len(pairs)

    thresholds = {
        "eps_loc": initial.eps_loc,
        "eps_doc": initial.eps_doc,
        "eps_user": initial.eps_user,
    }
    steps = {
        param: max(frac * thresholds[param], 1e-12)
        for param, frac in zip(_PARAMS, step_fractions)
    }
    rng = random.Random(seed)
    modified = {param: 0 for param in _PARAMS}
    iterations = 0

    t0 = time.perf_counter()
    # DFS stack of (thresholds, surviving pairs, parameters that failed at
    # this node, parameter tightened to reach this node).
    stack: List[Tuple[Dict[str, float], List[UserPair], set, Optional[str]]] = [
        (thresholds, pairs, set(), None)
    ]

    while stack and len(stack[-1][1]) > target_size and iterations < max_iterations:
        current, current_pairs, dead, via = stack[-1]
        options = [
            p
            for p in _PARAMS
            if p not in dead and _tightened(current, p, steps) is not None
        ]
        if not options:
            stack.pop()
            if not stack:
                break
            # The whole subtree below `via` failed: never retry it here.
            if via is not None:
                stack[-1][2].add(via)
            continue
        if strategy == "probabilistic":
            param = rng.choice(options)
        else:
            param = min(options, key=lambda p: (modified[p], _PARAMS.index(p)))

        candidate = _tightened(current, param, steps)
        assert candidate is not None
        iterations += 1
        modified[param] += 1
        survivors = _reevaluate(dataset, current_pairs, candidate, param)
        if not survivors:
            dead.add(param)
            continue
        stack.append((candidate, survivors, set(), param))

    tuning_seconds = time.perf_counter() - t0
    if stack:
        final_thresholds, final_pairs = stack[-1][0], stack[-1][1]
    else:
        final_thresholds, final_pairs = thresholds, pairs
    query = STPSJoinQuery(
        eps_loc=final_thresholds["eps_loc"],
        eps_doc=final_thresholds["eps_doc"],
        eps_user=final_thresholds["eps_user"],
    )
    return TuningResult(
        query=query,
        pairs=final_pairs,
        iterations=iterations,
        initial_result_size=initial_size,
        initial_join_seconds=initial_join_seconds,
        tuning_seconds=tuning_seconds,
    )


def _reevaluate(
    dataset: STDataset,
    pairs: Sequence[UserPair],
    thresholds: Dict[str, float],
    tightened_param: str,
) -> List[UserPair]:
    """Pairs among ``pairs`` still qualifying under ``thresholds``.

    When only ``eps_user`` was tightened the stored scores remain valid
    and no join needs to run at all; otherwise each pair is re-evaluated
    with the pair-local PPJ-C.
    """
    eps_user = thresholds["eps_user"]
    if tightened_param == "eps_user":
        return [p for p in pairs if p.score >= eps_user]
    out: List[UserPair] = []
    for pair in pairs:
        score = evaluate_pair(
            dataset,
            pair.user_a,
            pair.user_b,
            thresholds["eps_loc"],
            thresholds["eps_doc"],
        )
        if score >= eps_user:
            out.append(UserPair(pair.user_a, pair.user_b, score))
    return out
