"""Single-user similarity search: the k most similar users to a probe.

The paper's motivating applications (friend recommendation, finding local
experts) usually ask for neighbours of *one* user rather than all pairs.
This query reuses the S-PPJ-F machinery for a single probe: index every
other user in the spatio-textual grid once, collect candidates through the
per-cell token lists, order them by the optimistic bound ``sigma_bar``
descending and refine with PPJ-B against the current k-th best score —
once the next candidate's bound cannot beat that score, the search stops.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..stindex.stgrid import STGridIndex
from .model import STDataset, UserId
from .pair_eval import PairEvalStats, ppj_b_pair
from .query import UserPair
from .similarity import set_similarity
from .sppj_f import candidate_bound, collect_candidates
from .topk import _TopKHeap

__all__ = ["similar_users", "naive_similar_users"]


def similar_users(
    dataset: STDataset,
    user: UserId,
    eps_loc: float,
    eps_doc: float,
    k: int,
    stats: Optional[PairEvalStats] = None,
    index: Optional[STGridIndex] = None,
) -> List[Tuple[UserId, float]]:
    """The ``k`` users most similar to ``user``, with their sigma scores.

    Zero-similarity users never qualify; fewer than ``k`` results are
    returned when fewer users share any matching object with the probe.

    The query probes a full grid index over the whole dataset (every
    user, probe included, ``with_tokens=True``) and drops the probe from
    its own candidates.  ``index`` may supply that index pre-built —
    the warm-index path of the resident join server — otherwise it is
    built here; both routes run the same code.

    Raises ``ValueError`` for an unknown probe user, non-positive ``k``,
    or a prebuilt index that does not match ``eps_loc``.
    """
    if k < 1:
        raise ValueError("k must be positive")
    probe_objects = dataset.user_objects(user)
    if not probe_objects:
        raise ValueError(f"unknown user (or user without objects): {user!r}")

    if index is None:
        index = STGridIndex.build(dataset, eps_loc, with_tokens=True)
    elif index.eps_loc != float(eps_loc):
        raise ValueError("prebuilt index eps_loc does not match the query")
    elif not index.with_tokens:
        raise ValueError(
            "prebuilt grid index was built with with_tokens=False; "
            "knn needs the per-cell token lists"
        )

    candidates = collect_candidates(index, user)
    # The probe is never its own neighbour.
    candidates.pop(user, None)
    if stats is not None:
        stats.candidates += len(candidates)

    size_probe = len(probe_objects)
    sizes = {cand: len(dataset.user_objects(cand)) for cand in candidates}
    scored = []
    for cand, (own_cells, cand_cells) in candidates.items():
        bound = candidate_bound(
            index, user, cand, own_cells, cand_cells, size_probe, sizes[cand]
        )
        scored.append((bound, cand))
    # Best-bound-first: lets the k-th score rise fast and the tail stop early.
    scored.sort(key=lambda item: -item[0])

    heap = _TopKHeap(k)
    for pos, (bound, cand) in enumerate(scored):
        threshold = heap.threshold
        if bound <= threshold:
            if stats is not None:
                stats.bound_pruned += len(scored) - pos
            break  # bounds are sorted: nothing later can qualify either
        if stats is not None:
            stats.refinements += 1
        score = ppj_b_pair(
            index,
            cand,
            user,
            eps_loc,
            eps_doc,
            threshold if threshold > 0.0 else 1e-12,
            sizes[cand],
            size_probe,
            stats,
        )
        if score > threshold and score > 0.0:
            heap.offer(UserPair(user, cand, score))

    return [(pair.user_b, pair.score) for pair in heap.results()]


def naive_similar_users(
    dataset: STDataset,
    user: UserId,
    eps_loc: float,
    eps_doc: float,
    k: int,
) -> List[Tuple[UserId, float]]:
    """Exhaustive oracle for :func:`similar_users`."""
    if k < 1:
        raise ValueError("k must be positive")
    probe_objects = dataset.user_objects(user)
    if not probe_objects:
        raise ValueError(f"unknown user (or user without objects): {user!r}")
    scored = []
    for other in dataset.users:
        if other == user:
            continue
        score = set_similarity(
            probe_objects, dataset.user_objects(other), eps_loc, eps_doc
        )
        if score > 0.0:
            scored.append((other, score))
    scored.sort(key=lambda item: -item[1])
    return scored[:k]
