"""The filter step of S-PPJ-F (Algorithm 2), shared by every grid plan.

The tokens of user ``u``'s objects probe the per-cell inverted lists of
``u``'s cells and their neighbours; every user ``u'`` that shares a token
in a relevant cell becomes a *candidate*, and the cells contributing
evidence are accumulated in ``M^u_{u'}`` (cells of ``u``) and
``M^{u'}_{u'}`` (cells of ``u'``).  The optimistic bound

``sigma_bar = (sum |D^c_u| over M^u + sum |D^c'_u'| over M^{u'}) / (|Du| + |Du'|)``

assumes every object in a contributing cell matches; pairs with
``sigma_bar < eps_user`` are pruned without ever joining objects.  The
algorithms themselves (S-PPJ-F and the grid top-k family) are the plans
of :mod:`repro.exec.plans`; kNN and the temporal join reuse the helpers
here too.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..stindex.stgrid import STGridIndex
from .model import UserId

__all__ = ["collect_candidates", "candidate_bound"]

CellCoord = Tuple[int, int]


def collect_candidates(
    index: STGridIndex,
    user: UserId,
    pos: Optional[Dict[UserId, int]] = None,
    limit: int = 0,
) -> Dict[UserId, Tuple[Set[CellCoord], Set[CellCoord]]]:
    """Filter step of Algorithm 2 (lines 4-9) for ``user``.

    ``user`` must be in ``index``: its per-cell token signatures
    (:meth:`STGridIndex.user_tokens`) are the probes.  Returns, per
    candidate user in the index, the pair ``(M^u cells of `user`, M^{u'}
    cells of the candidate)``; ``user`` itself is a candidate whenever it
    has a token, and callers drop it.  With ``pos``, only users at
    positions below ``limit`` are kept — probing a full index this way
    yields exactly the candidates an index holding only the users before
    ``limit`` would.
    """
    candidates: Dict[UserId, Tuple[Set[CellCoord], Set[CellCoord]]] = {}
    for cell, tokens in index.user_tokens(user).items():
        if not tokens:
            continue
        for other_cell, token_map in index.relevant_token_maps(cell):
            for token in tokens:
                for cand in token_map.get(token, ()):
                    if pos is not None and pos[cand] >= limit:
                        continue
                    entry = candidates.get(cand)
                    if entry is None:
                        entry = (set(), set())
                        candidates[cand] = entry
                    entry[0].add(cell)
                    entry[1].add(other_cell)
    return candidates


def candidate_bound(
    index: STGridIndex,
    user: UserId,
    candidate: UserId,
    own_cells: Set[CellCoord],
    cand_cells: Set[CellCoord],
    size_user: int,
    size_cand: int,
) -> float:
    """The optimistic similarity bound ``sigma_bar`` (Algorithm 2, line 13)."""
    total = size_user + size_cand
    if total == 0:
        return 0.0
    own_groups = index.user_groups(user)
    cand_groups = index.user_groups(candidate)
    own = sum(len(own_groups[c]) for c in own_cells)
    other = sum(len(cand_groups[c]) for c in cand_cells)
    return (own + other) / total
