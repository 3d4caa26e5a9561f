"""PPJ-D — pair evaluation over R-tree leaf partitions (Algorithm 3).

The analogue of PPJ-B for a data-driven partitioning: the two users' leaf
lists are merged in ascending leaf-id order; whenever a leaf ``l`` of one
user is consumed, it is joined with every *relevant* leaf of the other
user that has not been responsible for the pair yet (``>= l`` when
consuming from the first list, ``> l`` from the second, so each ordered
leaf pair is joined exactly once).  Each leaf-pair join is restricted to
the intersection ``A`` of the two ``eps_loc``-extended leaf MBRs —
objects outside ``A`` cannot satisfy the spatial threshold.  After a leaf
is consumed all its objects are decided, so the running count of decided,
unmatched objects prunes against the Lemma 1 bound exactly as in PPJ-B.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from ..stindex.leaf_index import STLeafIndex
from .model import STObject, UserId
from .pair_eval import PairEvalStats, join_object_lists

__all__ = ["ppj_d_pair"]

_EPS = 1e-9


def _clip(objs: Sequence[STObject], area) -> List[STObject]:
    """Objects of a leaf falling inside the (extended-MBR) intersection."""
    return [o for o in objs if area.contains_point(o.x, o.y)]


def ppj_d_pair(
    index: STLeafIndex,
    user_a: UserId,
    user_b: UserId,
    eps_loc: float,
    eps_doc: float,
    eps_user: float,
    size_a: int,
    size_b: int,
    stats: Optional[PairEvalStats] = None,
) -> float:
    """Exact ``sigma`` of a user pair, or ``0.0`` once it provably misses
    ``eps_user``."""
    total = size_a + size_b
    if total == 0:
        return 0.0
    beta = (1.0 - eps_user) * total + _EPS

    leaves_a = index.user_leaves(user_a)
    leaves_b = index.user_leaves(user_b)
    if not leaves_a or not leaves_b:
        return 0.0
    set_b = set(leaves_b)
    set_a = set(leaves_a)

    matched_a: Set[int] = set()
    matched_b: Set[int] = set()
    i_a = i_b = 0
    decided = 0  # objects whose every matching opportunity has been joined

    while i_a < len(leaves_a) or i_b < len(leaves_b):
        leaf_a = leaves_a[i_a] if i_a < len(leaves_a) else None
        leaf_b = leaves_b[i_b] if i_b < len(leaves_b) else None
        take_a = leaf_b is None or (leaf_a is not None and leaf_a <= leaf_b)
        take_b = leaf_a is None or (leaf_b is not None and leaf_b <= leaf_a)

        if take_a:
            objs_a = index.leaf_objects(leaf_a, user_a)
            for other in index.relevant_leaves(leaf_a):
                if other >= leaf_a and other in set_b:
                    area = index.intersection_area(leaf_a, other)
                    if area is None:
                        continue
                    join_object_lists(
                        _clip(objs_a, area),
                        _clip(index.leaf_objects(other, user_b), area),
                        eps_loc,
                        eps_doc,
                        matched_a,
                        matched_b,
                    )
            decided += len(objs_a)

        if take_b:
            objs_b = index.leaf_objects(leaf_b, user_b)
            for other in index.relevant_leaves(leaf_b):
                if other > leaf_b and other in set_a:
                    area = index.intersection_area(other, leaf_b)
                    if area is None:
                        continue
                    join_object_lists(
                        _clip(index.leaf_objects(other, user_a), area),
                        _clip(objs_b, area),
                        eps_loc,
                        eps_doc,
                        matched_a,
                        matched_b,
                    )
            decided += len(objs_b)

        # Lemma 1 pruning on decided objects.  len(matched) may count
        # not-yet-decided objects, which only makes the check conservative.
        if decided - (len(matched_a) + len(matched_b)) > beta:
            if stats is not None:
                stats.early_terminations += 1
            return 0.0

        if take_a:
            i_a += 1
        if take_b:
            i_b += 1

    sigma = (len(matched_a) + len(matched_b)) / total
    return sigma
