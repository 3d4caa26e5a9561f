"""Single-user similarity search: the k most similar users to a probe.

The paper's motivating applications (friend recommendation, finding local
experts) usually ask for neighbours of *one* user rather than all pairs.
This query reuses the S-PPJ-F machinery for a single probe: the probe's
row of the grid's candidate table gives every candidate and its optimistic
bound ``sigma_bar``; candidates are refined with PPJ-B in descending bound
order (ties by rank) against the current k-th best score, and once the
next bound falls below that score the search stops.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..stindex.stgrid import STGridIndex
from .model import STDataset, UserId
from .pair_eval import PairEvalStats, ppj_b_pair
from .query import UserPair, pair_sort_key
from .similarity import set_similarity
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

    The query reads the probe's row of the candidate table of a full
    grid index over the whole dataset (every user, probe included,
    ``with_tokens=True``).  ``index`` may supply that index pre-built —
    the warm-index path of the resident join server, which reads (and
    on first use builds) the whole cached table.  Otherwise an index is
    built here and only the probe's row is joined.  Score ties at the
    k-th place break canonically, as in every top-k answer.

    Raises ``ValueError`` for an unknown probe user, non-positive ``k``,
    or a prebuilt index that does not match ``eps_loc`` or the dataset.
    """
    if k < 1:
        raise ValueError("k must be positive")
    probe_objects = dataset.user_objects(user)
    if not probe_objects:
        raise ValueError(f"unknown user (or user without objects): {user!r}")

    # The index holds the dataset's users in dataset order, so the
    # probe's table rank is its dataset position.
    rank = int(dataset.user_pos[probe_objects[0].oid])
    if index is None:
        index = STGridIndex.build(dataset, eps_loc)
        cand, num = index.candidate_row(rank)
    else:
        index.check_query(dataset, eps_loc, needs_filter=True)
        cand, num = index.candidate_table().row(rank)
    if stats is not None:
        stats.candidates += len(cand)

    size_probe = len(probe_objects)
    sizes = np.bincount(dataset.user_pos, minlength=dataset.num_users)
    bounds = (num / (size_probe + sizes[cand])).tolist()
    # Best-bound-first lets the k-th score rise fast and the tail stop
    # early; ties by rank keep the refinement order deterministic.
    scored = sorted(zip(bounds, cand.tolist()), key=lambda bc: (-bc[0], bc[1]))
    users = dataset.users
    heap = _TopKHeap(k)
    for i, (bound, c) in enumerate(scored):
        threshold = heap.threshold
        if bound < threshold:
            if stats is not None:
                stats.bound_pruned += len(scored) - i
            break  # bounds are sorted: nothing later can qualify either
        if stats is not None:
            stats.refinements += 1
        other = users[c]
        score = ppj_b_pair(
            index,
            other,
            user,
            eps_loc,
            eps_doc,
            threshold if threshold > 0.0 else 1e-12,
            int(sizes[c]),
            size_probe,
            stats,
        )
        if score > 0.0:
            heap.offer(UserPair(user, other, score))

    return [(pair.user_b, pair.score) for pair in heap.results()]


def naive_similar_users(
    dataset: STDataset,
    user: UserId,
    eps_loc: float,
    eps_doc: float,
    k: int,
) -> List[Tuple[UserId, float]]:
    """Exhaustive oracle for :func:`similar_users`: every other user's
    sigma, ranked with the canonical pair order."""
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
            scored.append(UserPair(user, other, score))
    scored.sort(key=pair_sort_key)
    return [(pair.user_b, pair.score) for pair in scored[:k]]
