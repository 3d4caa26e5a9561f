"""Pair-level evaluation of the point-set similarity ``sigma``.

Given two users' object sets laid out on the spatio-textual grid, these
routines compute how many objects of each user match the other user —
the quantity ``sigma`` is made of.  Three building blocks:

* :func:`join_object_lists` — the PPJ primitive: a spatio-textual join
  between two small object lists (one per user) that *marks matched
  objects* instead of returning pairs, and skips pairs whose two objects
  are both already matched;
* :func:`ppj_c_pair` — the non-self-join PPJ-C of Algorithm 1: visit the
  two users' cells in ascending id order, joining each cell with itself
  and its lower-id neighbours; computes the exact matched-object count;
* :func:`ppj_b_pair` — PPJ-B (Section 4.1.2): the snake traversal that
  finishes all matching opportunities of a row before moving on, enabling
  early termination through the unmatched-object bound of Lemma 1.

Both pair evaluators work against any :class:`~repro.stindex.stgrid.STGridIndex`
that contains the two users — the bulk index of S-PPJ-C/S-PPJ-B or the
incrementally grown index of S-PPJ-F.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..obs import runtime as _obs
from ..obs.funnel import flush_funnel
from ..spatial.grid import (
    _LOWER_ID_OFFSETS,
    _SNAKE_EVEN_OFFSETS,
    _SNAKE_ODD_OFFSETS,
)
from ..stindex.stgrid import CellPack, STGridIndex
from ..textual.measures import JACCARD
from ..textual.ppjoin import build_prefix_index
from .model import STObject, UserId

__all__ = ["join_object_lists", "ppj_c_pair", "ppj_b_pair", "PairEvalStats"]

#: Below this many candidate object pairs a direct nested loop beats the
#: PPJOIN machinery (index construction dominates on tiny cell contents).
_SMALL_JOIN_LIMIT = 36

#: Guard added to float bounds so rounding can only loosen a prune.
_EPS = 1e-9


class PairEvalStats:
    """Mutable counters exposing how much work an algorithm did.

    The experiments reason about pruning effectiveness; these counters
    make that observable without affecting results (the pair-level work —
    cell pairs joined, object pairs covered — is the ``funnel.*`` family
    of :mod:`repro.obs.funnel`):

    * ``early_terminations`` — PPJ-B / PPJ-D evaluations aborted by the
      Lemma 1 bound;
    * ``candidates`` — user pairs surfaced by a filter phase (S-PPJ-F,
      S-PPJ-D, top-k);
    * ``bound_pruned`` — candidates dismissed by the ``sigma_bar``
      optimistic bound without refinement;
    * ``refinements`` — pair evaluations actually executed;
    * ``users_skipped`` — whole users dismissed by TOPK-S-PPJ-P's Lemma 2
      bound.
    """

    __slots__ = (
        "early_terminations",
        "candidates",
        "bound_pruned",
        "refinements",
        "users_skipped",
    )

    def __init__(self) -> None:
        self.early_terminations = 0
        self.candidates = 0
        self.bound_pruned = 0
        self.refinements = 0
        self.users_skipped = 0

    def as_dict(self) -> Dict[str, int]:
        """Counters as a plain dict (for reports and assertions)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def merge(self, counters: Dict[str, int]) -> None:
        """Add another stats snapshot (``as_dict`` form) into this one.

        The parallel execution engine gives every worker task its own
        counter set and merges them back here; because each user pair is
        evaluated by exactly one task, the merged counters equal those of
        a sequential run (lossless accounting).
        """
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + counters.get(name, 0))


#: Sentinels marking pruned candidates (mirrors
#: :mod:`repro.textual.ppjoin`).  Two distinct negative values let the
#: post-hoc funnel tally attribute the prune to the length or the
#: positional filter without any extra work in the probe loop (the
#: hot-path checks become ``acc < 0``, same cost as an equality test).
_PRUNED_LEN = -1
_PRUNED_POS = -2

_probe_prefix_length = JACCARD.probe_prefix_length
_required_overlap = JACCARD.required_overlap


def _join_small(
    pack_a: CellPack,
    pack_b: CellPack,
    eps_sq: float,
    eps_doc: float,
    matched_a: Set[int],
    matched_b: Set[int],
    predicate: Optional[Callable[[STObject, STObject], bool]],
) -> None:
    """Nested-loop kernel for tiny cell contents.

    Filters run cheapest-first: spatial distance, Jaccard length bounds,
    token-id range disjointness (sorted docs whose id ranges do not
    overlap cannot intersect), the optional predicate, and only then the
    exact set intersection.  All filters are admissible — a pruned pair
    provably fails the exact test — so matches are identical to the
    unfiltered loop.

    Each of the ``n_a * n_b`` pairs is charged to the first filter that
    dismissed it (the token-id-range disjointness test counts as
    ``prefix`` — it proves no shared token, which is what the prefix
    filter establishes in the indexed kernel).  Tallies live in locals
    and are flushed once at the end, only when a registry is active.
    """
    oids_a, xs_a, ys_a = pack_a.oids, pack_a.xs, pack_a.ys
    docs_a, sets_a, objs_a = pack_a.docs, pack_a.doc_sets, pack_a.objs
    oids_b, xs_b, ys_b = pack_b.oids, pack_b.xs, pack_b.ys
    docs_b, sets_b, objs_b = pack_b.docs, pack_b.doc_sets, pack_b.objs
    lens_b = pack_b.lens
    n_b = len(pack_b)
    range_b = range(pack_b.lo, pack_b.hi)
    n_skip = n_empty = n_spatial = n_length = n_prefix = n_predicate = 0
    n_verified = n_matched = 0
    for i in range(pack_a.lo, pack_a.hi):
        da = docs_a[i]
        la = len(da)
        if la == 0:
            n_empty += n_b
            continue
        sa = sets_a[i]
        ax, ay = xs_a[i], ys_a[i]
        a_first, a_last = da[0], da[-1]
        min_len = eps_doc * la - _EPS
        max_len = la / eps_doc + _EPS
        a_matched = oids_a[i] in matched_a
        for j in range_b:
            if a_matched and oids_b[j] in matched_b:
                n_skip += 1
                continue
            lb = lens_b[j]
            if lb == 0:
                n_empty += 1
                continue
            dx = ax - xs_b[j]
            dy = ay - ys_b[j]
            if dx * dx + dy * dy > eps_sq:
                n_spatial += 1
                continue
            if lb < min_len or lb > max_len:
                n_length += 1
                continue
            db = docs_b[j]
            if db[0] > a_last or a_first > db[-1]:
                n_prefix += 1
                continue
            if predicate is not None and not predicate(objs_a[i], objs_b[j]):
                n_predicate += 1
                continue
            n_verified += 1
            sb = sets_b[j]
            inter = len(sa & sb)
            if inter and inter / (la + lb - inter) >= eps_doc:
                matched_a.add(oids_a[i])
                matched_b.add(oids_b[j])
                a_matched = True
                n_matched += 1
    reg = _obs.active()
    if reg is not None:
        flush_funnel(
            reg,
            len(pack_a) * n_b,
            skip=n_skip,
            empty=n_empty,
            spatial=n_spatial,
            length=n_length,
            prefix=n_prefix,
            predicate=n_predicate,
            verified=n_verified,
            matched=n_matched,
            cell_pairs=1,
        )


def _probe_join(
    pack_a: CellPack,
    pack_b: CellPack,
    index_map: Dict[int, List[Tuple[int, int]]],
    index_is_b: bool,
    eps_sq: float,
    eps_doc: float,
    matched_a: Set[int],
    matched_b: Set[int],
    predicate: Optional[Callable[[STObject, STObject], bool]],
) -> None:
    """PPJOIN probe kernel: one pack probes the other's prefix index.

    ``index_map`` is a :func:`repro.textual.ppjoin.build_prefix_index`
    structure over the indexed pack's documents, by position in its
    columns (side selected by ``index_is_b``) — usually the cached
    per-``(cell, user)`` index of
    :meth:`repro.stindex.stgrid.STGridIndex.cell_prefix_index`.
    Candidate generation applies the size and positional filters exactly
    as :func:`repro.textual.ppjoin.similarity_rs_join`; verification then
    applies the both-matched skip, the spatial test, the optional
    predicate, and exact Jaccard on the cached ``doc_set``s.

    Funnel accounting covers *all* ``n_probe * n_indexed`` pairs: pairs
    the inverted index never surfaced for a probing record are charged to
    the ``prefix`` stage (``empty`` when a side has no tokens) — counted
    post hoc from the candidate map sizes, never inside the probe loop.
    """
    if index_is_b:
        probe, indexed = pack_a, pack_b
    else:
        probe, indexed = pack_b, pack_a
    probe_docs = probe.docs
    index_lens = indexed.lens
    oids_a, xs_a, ys_a, sets_a = pack_a.oids, pack_a.xs, pack_a.ys, pack_a.doc_sets
    oids_b, xs_b, ys_b, sets_b = pack_b.oids, pack_b.xs, pack_b.ys, pack_b.doc_sets
    reg = _obs.active()
    n_idx = len(indexed)
    if reg is not None:
        n_idx_empty = index_lens[indexed.lo:indexed.hi].count(0)
        n_idx_filled = n_idx - n_idx_empty
    n_skip = n_empty = n_spatial = n_length = n_prefix = n_positional = 0
    n_predicate = n_verified = n_matches = 0

    for x_idx in range(probe.lo, probe.hi):
        x = probe_docs[x_idx]
        lx = len(x)
        if lx == 0:
            n_empty += n_idx
            continue
        min_len = eps_doc * lx - _EPS
        max_len = lx / eps_doc + _EPS
        alpha_by_len: Dict[int, int] = {}
        candidates: Dict[int, int] = {}
        for pos_x in range(_probe_prefix_length(eps_doc, lx)):
            postings = index_map.get(x[pos_x])
            if not postings:
                continue
            for y_idx, pos_y in postings:
                acc = candidates.get(y_idx, 0)
                if acc < 0:
                    continue
                ly = index_lens[y_idx]
                if ly < min_len or ly > max_len:
                    candidates[y_idx] = _PRUNED_LEN
                    continue
                alpha = alpha_by_len.get(ly)
                if alpha is None:
                    alpha = alpha_by_len[ly] = _required_overlap(eps_doc, lx, ly)
                if acc + 1 + min(lx - pos_x - 1, ly - pos_y - 1) < alpha:
                    candidates[y_idx] = _PRUNED_POS
                    continue
                candidates[y_idx] = acc + 1

        if reg is not None:
            # Only non-empty indexed records appear in postings, so the
            # pairs this probe never surfaced split into empty partners
            # and prefix-disjoint partners.
            n_empty += n_idx_empty
            n_prefix += n_idx_filled - len(candidates)
            for acc in candidates.values():
                if acc == _PRUNED_LEN:
                    n_length += 1
                elif acc == _PRUNED_POS:
                    n_positional += 1

        for y_idx, acc in candidates.items():
            if acc <= 0:
                continue
            if index_is_b:
                i, j = x_idx, y_idx
            else:
                i, j = y_idx, x_idx
            oa, ob = oids_a[i], oids_b[j]
            if oa in matched_a and ob in matched_b:
                if reg is not None:
                    n_skip += 1
                continue
            dx = xs_a[i] - xs_b[j]
            dy = ys_a[i] - ys_b[j]
            if dx * dx + dy * dy > eps_sq:
                if reg is not None:
                    n_spatial += 1
                continue
            if predicate is not None and not predicate(
                pack_a.objs[i], pack_b.objs[j]
            ):
                if reg is not None:
                    n_predicate += 1
                continue
            if reg is not None:
                n_verified += 1
            sa, sb = sets_a[i], sets_b[j]
            inter = len(sa & sb)
            if inter and inter / (len(sa) + len(sb) - inter) >= eps_doc:
                matched_a.add(oa)
                matched_b.add(ob)
                if reg is not None:
                    n_matches += 1

    if reg is not None:
        flush_funnel(
            reg,
            len(probe) * n_idx,
            skip=n_skip,
            empty=n_empty,
            spatial=n_spatial,
            length=n_length,
            prefix=n_prefix,
            positional=n_positional,
            predicate=n_predicate,
            verified=n_verified,
            matched=n_matches,
            cell_pairs=1,
        )


def _join_cell_packs(
    index: STGridIndex,
    cell_a,
    user_a: UserId,
    pack_a: CellPack,
    cell_b,
    user_b: UserId,
    pack_b: CellPack,
    eps_sq: float,
    eps_doc: float,
    matched_a: Set[int],
    matched_b: Set[int],
    predicate: Optional[Callable[[STObject, STObject], bool]],
) -> None:
    """Join two cached cell packs, reusing the index's prefix indexes.

    The larger side is indexed (more reuse per probe) through the
    per-``(cell, user)`` cache, so repeated joins of the same cell list
    against different partner users never rebuild PPJOIN structures.
    """
    if len(pack_a) * len(pack_b) <= _SMALL_JOIN_LIMIT:
        _join_small(
            pack_a, pack_b, eps_sq, eps_doc, matched_a, matched_b, predicate
        )
        return
    if len(pack_b) >= len(pack_a):
        index_map = index.cell_prefix_index(cell_b, user_b, eps_doc)
        index_is_b = True
    else:
        index_map = index.cell_prefix_index(cell_a, user_a, eps_doc)
        index_is_b = False
    _probe_join(
        pack_a, pack_b, index_map, index_is_b, eps_sq, eps_doc,
        matched_a, matched_b, predicate,
    )


def join_object_lists(
    objs_a: Sequence[STObject],
    objs_b: Sequence[STObject],
    eps_loc: float,
    eps_doc: float,
    matched_a: Set[int],
    matched_b: Set[int],
    predicate: Optional[Callable[[STObject, STObject], bool]] = None,
) -> None:
    """PPJ between two object lists; matched oids are added to the sets.

    A pair is skipped when both objects are already matched — additional
    matches cannot change ``sigma``.  The spatial predicate is evaluated
    before textual verification (it is the cheaper check), exactly as PPJ
    extends PPJOIN in Bouros et al.  ``predicate`` is an optional extra
    match condition (e.g. the temporal proximity check of the temporal
    STPSJoin extension), evaluated after the spatial test.

    This list-based entry point packs its inputs on the fly (callers like
    PPJ-D clip leaf lists per area, so there is nothing to cache); the
    grid-based evaluators below go through the index's cached
    :class:`~repro.stindex.stgrid.CellPack`s and prefix indexes instead.
    """
    if not objs_a or not objs_b:
        return
    eps_sq = eps_loc * eps_loc
    pack_a = CellPack(objs_a)
    pack_b = CellPack(objs_b)

    if len(objs_a) * len(objs_b) <= _SMALL_JOIN_LIMIT:
        _join_small(
            pack_a, pack_b, eps_sq, eps_doc, matched_a, matched_b, predicate
        )
        return

    if len(objs_b) >= len(objs_a):
        index_map = build_prefix_index(pack_b.docs, eps_doc)
        index_is_b = True
    else:
        index_map = build_prefix_index(pack_a.docs, eps_doc)
        index_is_b = False
    _probe_join(
        pack_a, pack_b, index_map, index_is_b, eps_sq, eps_doc,
        matched_a, matched_b, predicate,
    )


def _pair_cells(
    index: STGridIndex, user_a: UserId, user_b: UserId
) -> List[Tuple[int, int]]:
    """Union of the two users' occupied cells, ascending by cell id.

    Both per-user cell lists are already sorted by cell id (the index
    maintains that invariant), so a linear merge with deduplication
    replaces the set-union + sort of the naive formulation.
    """
    cells_a = index.user_cells(user_a)
    cells_b = index.user_cells(user_b)
    if not cells_a:
        return list(cells_b)
    if not cells_b:
        return list(cells_a)
    ids_a = index.user_cell_ids(user_a)
    ids_b = index.user_cell_ids(user_b)
    out: List[Tuple[int, int]] = []
    i = j = 0
    na, nb = len(cells_a), len(cells_b)
    while i < na and j < nb:
        ida, idb = ids_a[i], ids_b[j]
        if ida == idb:
            out.append(cells_a[i])
            i += 1
            j += 1
        elif ida < idb:
            out.append(cells_a[i])
            i += 1
        else:
            out.append(cells_b[j])
            j += 1
    out.extend(cells_a[i:])
    out.extend(cells_b[j:])
    return out


def ppj_c_pair(
    index: STGridIndex,
    user_a: UserId,
    user_b: UserId,
    eps_loc: float,
    eps_doc: float,
    predicate: Optional[Callable[[STObject, STObject], bool]] = None,
) -> int:
    """Exact matched-object count via the PPJ-C traversal (no pruning).

    Visits cells in ascending id order; each cell is joined with itself
    and with its four lower-id neighbours, so every adjacent cell pair is
    examined once.  Returns ``|M(Du_a, Du_b)| + |M(Du_b, Du_a)|``.
    """
    matched_a: Set[int] = set()
    matched_b: Set[int] = set()
    eps_sq = eps_loc * eps_loc
    packs_a = index.user_packs(user_a)
    packs_b = index.user_packs(user_b)
    get_a, get_b = packs_a.get, packs_b.get
    for cell in _pair_cells(index, user_a, user_b):
        a_here = get_a(cell)
        b_here = get_b(cell)
        if a_here is not None and b_here is not None:
            _join_cell_packs(
                index, cell, user_a, a_here, cell, user_b, b_here,
                eps_sq, eps_doc, matched_a, matched_b, predicate,
            )
        col, row = cell
        for dc, dr in _LOWER_ID_OFFSETS:
            # Out-of-range coordinates simply miss the per-user dicts.
            other = (col + dc, row + dr)
            if a_here is not None:
                b_other = get_b(other)
                if b_other is not None:
                    _join_cell_packs(
                        index, cell, user_a, a_here, other, user_b, b_other,
                        eps_sq, eps_doc, matched_a, matched_b, predicate,
                    )
            if b_here is not None:
                a_other = get_a(other)
                if a_other is not None:
                    _join_cell_packs(
                        index, other, user_a, a_other, cell, user_b, b_here,
                        eps_sq, eps_doc, matched_a, matched_b, predicate,
                    )
    return len(matched_a) + len(matched_b)


def ppj_b_pair(
    index: STGridIndex,
    user_a: UserId,
    user_b: UserId,
    eps_loc: float,
    eps_doc: float,
    eps_user: float,
    size_a: int,
    size_b: int,
    stats: Optional[PairEvalStats] = None,
    predicate: Optional[Callable[[STObject, STObject], bool]] = None,
) -> float:
    """PPJ-B: exact ``sigma`` or ``0.0`` once Lemma 1 proves it < eps_user.

    Traverses rows bottom-to-top with the odd/even snake strategy of
    Figure 2b.  After the last occupied cell of a paper-odd row — or after
    skipping an empty row — every object seen in rows at or below that row
    has had all its matching opportunities; if the count of such objects
    still unmatched exceeds ``beta = (1 - eps_user) * (|Du_a| + |Du_b|)``,
    the pair cannot reach ``eps_user`` and evaluation stops.
    """
    total = size_a + size_b
    if total == 0:
        return 0.0
    beta = (1.0 - eps_user) * total + _EPS

    cells = _pair_cells(index, user_a, user_b)
    if not cells:
        return 0.0
    eps_sq = eps_loc * eps_loc
    packs_a = index.user_packs(user_a)
    packs_b = index.user_packs(user_b)
    get_a, get_b = packs_a.get, packs_b.get
    matched_a: Set[int] = set()
    matched_b: Set[int] = set()

    # Cells arrive in row-major (cell id) order, so a single pass sees each
    # row to completion.  When a paper-odd row finishes — or the next
    # occupied row leaves a gap — every object seen so far is decided, and
    # the O(1) conservative test
    #     seen_objects - |matched| > beta
    # implies decided-unmatched > beta (|matched| may count objects in
    # undecided rows, which only weakens the left side; Lemma 1 applies).
    seen = 0  # objects in fully processed rows
    prev_row: Optional[int] = None

    for cell in cells:
        col, row = cell
        if prev_row is not None and row != prev_row:
            # Row prev_row just finished; checkpoint if it was paper-odd
            # (0-based even) or if the next occupied row leaves a gap.
            if prev_row % 2 == 0 or row > prev_row + 1:
                if seen - (len(matched_a) + len(matched_b)) > beta:
                    if stats is not None:
                        stats.early_terminations += 1
                    return 0.0
        prev_row = row

        a_here = get_a(cell)
        b_here = get_b(cell)
        if a_here is not None:
            seen += len(a_here)
        if b_here is not None:
            seen += len(b_here)
        if a_here is not None and b_here is not None:
            _join_cell_packs(
                index, cell, user_a, a_here, cell, user_b, b_here,
                eps_sq, eps_doc, matched_a, matched_b, predicate,
            )
        # Snake partners (Figure 2b): paper-odd rows (0-based even) join
        # with every neighbour except the right cell, paper-even rows
        # only with the left cell.
        offsets = _SNAKE_ODD_OFFSETS if row % 2 == 0 else _SNAKE_EVEN_OFFSETS
        for dc, dr in offsets:
            other = (col + dc, row + dr)
            if a_here is not None:
                b_other = get_b(other)
                if b_other is not None:
                    _join_cell_packs(
                        index, cell, user_a, a_here, other, user_b, b_other,
                        eps_sq, eps_doc, matched_a, matched_b, predicate,
                    )
            if b_here is not None:
                a_other = get_a(other)
                if a_other is not None:
                    _join_cell_packs(
                        index, other, user_a, a_other, cell, user_b, b_here,
                        eps_sq, eps_doc, matched_a, matched_b, predicate,
                    )

    sigma = (len(matched_a) + len(matched_b)) / total
    return sigma
