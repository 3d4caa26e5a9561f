"""The spatio-textual grid index of S-PPJ-F (Figure 3 of the paper).

A dynamic uniform grid that files, per cell, the contained objects
grouped by user (``D^c_u``) — what every grid-based join in the paper
reads, S-PPJ-C and S-PPJ-B included.  The filter structure of S-PPJ-F
and the grid top-k family is the :class:`CandidateTable`: Algorithm 2's
candidate sets and ``sigma_bar`` numerators for every user pair, plus
Lemma 2's potentially-matched counts, computed once per grid from the
per-object columns and cached next to the batch kernel.

The index supports both bulk construction over a whole dataset (what
Algorithm 1's ``createGridIndex`` does) and one-user-at-a-time
population (``G.addUser``); both give the same lists and the same table.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.model import STDataset, STObject, UserId
from ..obs import runtime as _obs
from ..spatial.geometry import Rect
from ..spatial.grid import CellCoord, UniformGrid
from ..textual.ppjoin import build_prefix_index

__all__ = ["CandidateTable", "CellPack", "STGridIndex"]

#: ``(dcol, drow)`` of a cell itself and its 8 neighbours: the relevant
#: cells of ``G.getRelevantCells``.
_RELEVANT_OFFSETS = tuple((dc, dr) for dr in (-1, 0, 1) for dc in (-1, 0, 1))


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``range(s, s + c)`` over paired starts and counts."""
    ends = np.cumsum(counts)
    return np.repeat(starts - (ends - counts), counts) + np.arange(
        int(ends[-1]) if len(ends) else 0, dtype=np.int64
    )


def _group_ids(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` over the stable
    ``np.lexsort`` the grid build already runs (``np.unique``'s own sort
    and hash paths page in several hundred KB more of numpy code)."""
    order = np.lexsort((values,))
    ordered = values[order]
    new = np.ones(len(values), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty(len(values), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


class CellPack:
    """Columnar view of one ``D^c_u`` object list (the hot-path layout).

    The pair evaluators touch an object's coordinates, oid, canonical
    document and cached ``doc_set`` millions of times per join, so a
    pack hoists them into parallel tuples once.  The list is
    ``objs[lo:hi]`` and the columns are indexed by position in ``objs``:
    the grid builds one column set per user, over the user's objects in
    cell order, and each cell's pack is a :meth:`view` of it (a column
    set per cell cost five tuples per ``D^c_u``, most holding one object).
    """

    __slots__ = ("objs", "oids", "xs", "ys", "docs", "doc_sets", "lens", "lo", "hi")

    def __init__(self, objs: Sequence[STObject]):
        self.objs = objs
        # STObjects are tuples: one transpose yields every field column.
        self.oids, _users, self.xs, self.ys, self.docs, self.doc_sets = (
            zip(*objs) if objs else ((),) * 6
        )
        self.lens = tuple(map(len, self.docs))
        self.lo, self.hi = 0, len(objs)

    def view(self, lo: int, hi: int) -> "CellPack":
        """The pack of ``objs[lo:hi]``, sharing these columns."""
        pack = CellPack.__new__(CellPack)
        pack.objs, pack.oids, pack.xs, pack.ys = self.objs, self.oids, self.xs, self.ys
        pack.docs, pack.doc_sets, pack.lens = self.docs, self.doc_sets, self.lens
        pack.lo, pack.hi = lo, hi
        return pack

    def __len__(self) -> int:
        return self.hi - self.lo


class CandidateTable:
    """The filter of Algorithm 2 (lines 4-13) for every user pair of a grid.

    A CSR over the index's user ranks (:attr:`STGridIndex.users`): row
    ``r`` holds, ascending, the ranks ``cand`` of every other user that
    shares a token with user ``r`` in a pair of relevant cells, and in
    ``num`` the integer numerator of their optimistic bound

    ``sigma_bar = (sum |D^c_u| over M^u + sum |D^c'_u'| over M^{u'}) / (|Du| + |Du'|)``

    where ``M^u`` are the cells of ``u`` holding such a token and
    ``M^{u'}`` the cells of ``u'`` on the other side.  Both depend only
    on the grid and the two users — not on the thresholds, ``k`` or a
    user order — so one table serves every query on its grid, and the
    table is symmetric.  ``matched[r]`` is Lemma 2's potentially-matched
    count ``m_u`` under the TOPK-S-PPJ-P order (ascending ``|Du|``, ties
    by rank): how many objects of user ``r`` share a token, in a relevant
    cell, with a user earlier in that order.
    """

    __slots__ = ("indptr", "cand", "num", "matched")

    def __init__(self, n_users: int, keys: np.ndarray, num: np.ndarray, matched):
        rows, cand = np.divmod(keys, max(n_users, 1))
        self.indptr = np.zeros(n_users + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n_users), out=self.indptr[1:])
        self.cand = cand.astype(np.int32)
        self.num = num.astype(np.int32)
        self.matched = matched

    def row(self, rank: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(cand, num)`` of one user rank."""
        lo, hi = self.indptr[rank], self.indptr[rank + 1]
        return self.cand[lo:hi], self.num[lo:hi]

    def gather(self, ranks: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(seg, cand, num)`` over the rows ``ranks``, in that order:
        entry ``i`` belongs to the row ``ranks[seg[i]]``."""
        starts = self.indptr[ranks]
        counts = self.indptr[ranks + 1] - starts
        flat = _ranges(starts, counts)
        seg = np.repeat(np.arange(len(ranks), dtype=np.int64), counts)
        return seg, self.cand[flat], self.num[flat]

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.indptr, self.cand, self.num, self.matched))


def _filter_join(n_users, grid, rank, cols, rows, lens, tokens, probe=None):
    """Algorithm 2's filter over per-object columns, as one sort-merge join.

    Each object has an index ``rank``, a cell (``cols``/``rows``) and
    ``lens`` token ids in the flat ``tokens``.  The distinct (``D^c_u``
    group, token) entries are joined with the same entries shifted by
    each relevant-cell offset; every matching pair of different users
    marks a candidate pair and the two groups that evidence it, each
    counted once per pair.  Returns ``(keys, num, matched)``: the sorted
    pair keys ``u * n_users + u'``, their ``sigma_bar`` numerators and
    the Lemma 2 counts.  With ``probe``, only that user's entries are on
    the left, so only its row comes back (and ``matched`` is ``None``).
    """
    n = np.int64(max(n_users, 1))  # int64 products of int32 entry columns
    if not len(tokens):
        none = np.zeros(0, dtype=np.int64)
        return none, none, None if probe is not None else np.zeros(n_users, np.int64)
    cells, cell = _group_ids(rows * grid.ncols + cols)
    groups, grp = _group_ids(rank * len(cells) + cell)
    g_size = np.bincount(grp)
    g_user, g_cell = np.divmod(groups, len(cells))
    vocab = int(tokens.max()) + 1
    entries, occ_entry = _group_ids(np.repeat(grp, lens) * vocab + tokens)
    e_grp, e_tok = (part.astype(np.int32) for part in np.divmod(entries, vocab))
    e_user = g_user[e_grp]
    left = np.arange(len(entries)) if probe is None else np.flatnonzero(e_user == probe)
    li, rj = _token_pairs(grid, cells, g_cell[e_grp], e_tok, vocab, left)
    lu, ru = e_user[li], e_user[rj]
    other = lu != ru
    li, rj, lu, ru = li[other], rj[other], lu[other], ru[other]
    own_g, own_v = np.divmod(_group_ids(e_grp[li] * n + ru)[0], n)
    far_g, far_u = np.divmod(_group_ids(e_grp[rj] * n + lu)[0], n)
    keys, inverse = _group_ids(
        np.concatenate([g_user[own_g] * n + own_v, far_u * n + g_user[far_g]])
    )
    weights = np.concatenate([g_size[own_g], g_size[far_g]])
    num = np.bincount(inverse, weights=weights).astype(np.int64)
    if probe is not None:
        return keys, num, None
    # Lemma 2: an object is potentially matched when one of its entries
    # joins a user earlier in the size order than its own user.
    size_order = np.lexsort((np.arange(n_users), np.bincount(rank, minlength=n_users)))
    pos = np.empty(n_users, dtype=np.int64)
    pos[size_order] = np.arange(n_users)
    first = np.full(len(entries), n_users, dtype=np.int64)
    np.minimum.at(first, li, pos[ru])
    has = lens > 0
    obj_first = np.minimum.reduceat(first[occ_entry], (np.cumsum(lens) - lens)[has])
    obj_rank = rank[has]
    return keys, num, np.bincount(obj_rank[obj_first < pos[obj_rank]], minlength=n_users)


def _token_pairs(grid, cells, e_cell, e_tok, vocab, left):
    """``(li, rj)``: every pair of entries with the same token in relevant
    cells, ``li`` from ``left``.  ``cells`` are the sorted occupied cell
    ids and ``e_cell`` each entry's index into them."""
    ncols, nrows = grid.ncols, grid.nrows
    rkey = e_cell * vocab + e_tok
    rorder = np.lexsort((rkey,))
    rkey = rkey[rorder]
    ccol, crow = cells % ncols, cells // ncols
    li_parts, rj_parts = [], []
    for dc, dr in _RELEVANT_OFFSETS:
        ncol, nrow = ccol + dc, crow + dr
        near = nrow * ncols + ncol
        at = np.minimum(np.searchsorted(cells, near), len(cells) - 1)
        ok = (ncol >= 0) & (ncol < ncols) & (nrow >= 0) & (nrow < nrows)
        ok &= cells[at] == near
        lhs = left[ok[e_cell[left]]]
        key = at[e_cell[lhs]] * vocab + e_tok[lhs]
        lo = np.searchsorted(rkey, key, "left")
        counts = np.searchsorted(rkey, key, "right") - lo
        li_parts.append(np.repeat(lhs, counts))
        rj_parts.append(rorder[_ranges(lo, counts)])
    return np.concatenate(li_parts), np.concatenate(rj_parts)


class STGridIndex:
    """Grid + per-cell ``D^c_u`` lists over spatio-textual objects.

    Parameters
    ----------
    bounds:
        Spatial extent of the data; cells outside are clamped.
    eps_loc:
        Cell extent in each dimension — the grid is tailor-made for the
        query's spatial threshold, so matching objects are always in the
        same or adjacent cells.
    with_tokens:
        Whether the filter plans (S-PPJ-F, the grid top-k family, kNN)
        accept the index.  S-PPJ-C and S-PPJ-B accept either kind.
    """

    def __init__(self, bounds: Rect, eps_loc: float, with_tokens: bool = True):
        self.grid = UniformGrid(bounds, eps_loc)
        self.eps_loc = float(eps_loc)
        self.with_tokens = with_tokens
        #: The filed users in rank order: the order of a bulk build's
        #: ``users``, then of :meth:`add_user` calls.
        self.users: List[UserId] = []
        # The occupied cells, each mapped to the one tuple that every
        # structure keyed by it shares (duplicates of a small tuple add up
        # over a warm index).
        self._cells: Dict[CellCoord, CellCoord] = {}
        # user -> {cell -> D^c_u} over the user's cells, ascending by cell id.
        self._user_groups: Dict[UserId, Dict[CellCoord, List[STObject]]] = {}
        # user -> the scalar ids of the user's cells, in the same order
        # (cached so the pair evaluators can merge cell lists on ints).
        self._user_cell_ids: Dict[UserId, List[int]] = {}
        # (cell, user) -> threshold -> prefix index over the pack's docs.
        self._prefix_indexes: Dict[
            Tuple[CellCoord, UserId],
            Dict[float, Dict[int, List[Tuple[int, int]]]],
        ] = {}
        # user -> {cell -> columnar pack over D^c_u} over every occupied
        # cell of the user, built lazily on first touch and invalidated
        # when add_user grows one of the user's lists.
        self._user_packs: Dict[UserId, Dict[CellCoord, CellPack]] = {}
        #: ``(dataset, oids, cols, rows)`` of a bulk build: the indexed
        #: objects (ascending oid) and their cells, which the batch kernel
        #: and the candidate table gather their columns from.  ``None``
        #: once :meth:`add_user` runs.
        self.columns: Optional[
            Tuple[STDataset, np.ndarray, np.ndarray, np.ndarray]
        ] = None
        # (user order, PairBatchKernel) built by repro.core.kernels for
        # the fused batch path; invalidated on any mutation.
        self._batch_kernel: Optional[Tuple[tuple, object]] = None
        # The CandidateTable, built on first use; invalidated on mutation.
        self._table: Optional[CandidateTable] = None

    # -- construction ------------------------------------------------------------

    @classmethod
    def build(
        cls,
        dataset: STDataset,
        eps_loc: float,
        with_tokens: bool = True,
        users: Optional[Sequence[UserId]] = None,
    ) -> "STGridIndex":
        """Bulk-build the index over ``dataset`` (optionally a user subset).

        Every object's cell comes from one vectorized pass over the
        dataset's coordinate columns (:meth:`UniformGrid.cells_of`), and
        one lexsort by (user, cell id) groups the objects into their
        ``D^c_u`` lists, oid order kept.  The result holds exactly what
        :meth:`add_user` would build, user by user in ``users`` order.
        """
        with _obs.phase("index.build.grid"):
            index = cls(dataset.bounds, eps_loc, with_tokens=with_tokens)
            cols, rows = index.grid.cells_of(dataset.xs, dataset.ys)
            if users is None:
                order = dataset.users
                rank = dataset.user_pos
                oids = np.arange(len(rank), dtype=np.int64)
            else:
                order = list(users)
                rank = dataset.user_ranks(order)[dataset.user_pos]
                oids = np.flatnonzero(rank >= 0)
                rank, cols, rows = rank[oids], cols[oids], rows[oids]
            index.users = list(order)
            index.columns = (dataset, oids, cols, rows)
            perm = np.lexsort((cols, rows, rank))
            index._file_groups(
                dataset.objects, order, oids[perm], rank[perm], cols[perm], rows[perm]
            )
        return index

    def _file_groups(self, objects, order, sel, rank, cols, rows) -> None:
        """Fill the index from oids ``sel`` sorted by (user rank, row, col)."""
        n = len(sel)
        if not n:
            return
        change = np.ones(n, dtype=bool)
        change[1:] = (
            (rank[1:] != rank[:-1]) | (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        )
        starts = np.flatnonzero(change)
        bounds = starts.tolist() + [n]
        picked = list(map(objects.__getitem__, sel.tolist()))
        ncols = self.grid.ncols
        canon = self._cells
        last = -1
        for g, (r, col, row) in enumerate(
            zip(rank[starts].tolist(), cols[starts].tolist(), rows[starts].tolist())
        ):
            if r != last:
                user, last = order[r], r
                groups = self._user_groups[user] = {}
                ids = self._user_cell_ids[user] = []
            cell = (col, row)
            groups[canon.setdefault(cell, cell)] = picked[bounds[g]:bounds[g + 1]]
            ids.append(row * ncols + col)

    def add_user(self, user: UserId, objects: Iterable[STObject]) -> None:
        """Insert every object of ``user`` (``G.addUser`` in Algorithm 2)."""
        if user not in self._user_groups:
            self.users.append(user)
        groups = self._user_groups.setdefault(user, {})
        cell_of = self.grid.cell_of
        grown: Set[CellCoord] = set()
        for obj in objects:
            cell = cell_of(obj.x, obj.y)
            cell = self._cells.setdefault(cell, cell)
            groups.setdefault(cell, []).append(obj)
            grown.add(cell)
        cell_id = self.grid.cell_id
        ordered = sorted(groups, key=cell_id)
        self._user_groups[user] = {cell: groups[cell] for cell in ordered}
        self._user_cell_ids[user] = [cell_id(c) for c in ordered]
        # Drop cached packs/prefix indexes for the (cell, user) lists that
        # just grew; they are rebuilt lazily on next access.
        for cell in grown:
            self._prefix_indexes.pop((cell, user), None)
        self._user_packs.pop(user, None)
        self._batch_kernel = None
        self._table = None
        self.columns = None

    def drop_caches(self) -> None:
        """Forget every lazily built structure: the CellPacks, prefix
        indexes, the candidate table and the batch kernel.

        The index stays complete and usable; a later query rebuilds what
        it touches.  A server calls this when it closes, so an index a
        caller still references holds only its filed lists.
        """
        self._user_packs.clear()
        self._prefix_indexes.clear()
        self._batch_kernel = None
        self._table = None

    def occupancy(self) -> dict:
        """Grid occupancy profile: occupied cells, objects/users per cell.

        The spatial side of the cost model's input (``/datasets/<name>/
        stats``): dense cells drive the ``|D^c_u|·|D^c_v|`` pair costs the
        chunker balances on, so skew here predicts chunk imbalance.
        ``candidate_table_bytes`` is the memory of the cached
        :class:`CandidateTable` (0 until a filter query builds it).
        """
        objects = dict.fromkeys(self._cells, 0)
        users = dict.fromkeys(self._cells, 0)
        for groups in self._user_groups.values():
            for cell, objs in groups.items():
                objects[cell] += len(objs)
                users[cell] += 1
        objects_per_cell = list(objects.values())
        users_per_cell = list(users.values())
        n = len(objects_per_cell)
        total_objects = sum(objects_per_cell)
        table = self._table
        return {
            "eps_loc": self.eps_loc,
            "with_tokens": self.with_tokens,
            "occupied_cells": n,
            "objects": total_objects,
            "objects_per_cell_mean": total_objects / n if n else 0.0,
            "objects_per_cell_max": max(objects_per_cell, default=0),
            "users_per_cell_mean": (
                sum(users_per_cell) / n if n else 0.0
            ),
            "users_per_cell_max": max(users_per_cell, default=0),
            "candidate_table_bytes": table.nbytes if table is not None else 0,
        }

    # -- the candidate table -----------------------------------------------------

    def check_query(self, dataset: STDataset, eps_loc: float, needs_filter: bool) -> None:
        """Refuse (``ValueError``) a prebuilt index a query cannot use.

        The grid's cell extent *is* ``eps_loc``: an index built for
        another threshold would give wrong candidate sets.  A filter
        query (S-PPJ-F, the grid top-k family, kNN) reads the candidate
        table, whose ranks must be dataset ranks, so it needs a
        ``with_tokens=True`` index over the dataset's users in dataset
        order.  S-PPJ-C and S-PPJ-B take any grid, which lets a resident
        server share one warm index per ``eps_loc`` across algorithms.
        """
        if self.eps_loc != float(eps_loc):
            raise ValueError("prebuilt index eps_loc does not match the query")
        if needs_filter and not self.with_tokens:
            raise ValueError(
                "prebuilt grid index was built with with_tokens=False; this "
                "algorithm needs the candidate filter"
            )
        if needs_filter and self.users != dataset.users:
            raise ValueError(
                "prebuilt grid index does not hold the dataset's users in "
                "dataset order"
            )

    def candidate_table(self) -> CandidateTable:
        """The (cached) :class:`CandidateTable` of this grid."""
        table = self._table
        if table is None:
            with _obs.phase("index.build.candidates"):
                keys, num, matched = _filter_join(
                    len(self.users), self.grid, *self._filter_columns()
                )
                table = self._table = CandidateTable(len(self.users), keys, num, matched)
        return table

    def candidate_row(self, rank: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(cand, num)``: the :class:`CandidateTable` row of the user at
        ``rank``, joined alone over the objects near the user's cells —
        far cheaper than a whole table for one probe.  (Ids that wrap
        around a grid edge only add objects the join rejects.)"""
        ranks, cols, rows, lens, tokens = self._filter_columns()
        ncols = self.grid.ncols
        mine = ranks == rank
        near = [
            (rows[mine] + dr) * ncols + (cols[mine] + dc)
            for dc, dr in _RELEVANT_OFFSETS
        ]
        keep = np.isin(rows * ncols + cols, np.concatenate(near))
        flat = _ranges((np.cumsum(lens) - lens)[keep], lens[keep])
        keys, num, _ = _filter_join(
            len(self.users), self.grid, ranks[keep], cols[keep], rows[keep],
            lens[keep], tokens[flat], probe=rank,
        )
        return (keys % max(len(self.users), 1)).astype(np.int32), num

    def _filter_columns(self):
        """``(rank, cols, rows, lens, tokens)`` of every indexed object:
        gathered from a bulk build's columns, or from the per-user lists
        of an :meth:`add_user` index."""
        if self.columns is not None:
            dataset, oids, cols, rows = self.columns
            rank = dataset.user_ranks(self.users)[dataset.user_pos[oids]]
            starts = dataset.tok_off[oids]
            lens = dataset.tok_off[oids + 1] - starts
            tokens = dataset.tok_flat[_ranges(starts, lens)].astype(np.int64)
            return rank, cols, rows, lens, tokens
        filed = [
            (rank, col, row, obj.doc)
            for rank, user in enumerate(self.users)
            for (col, row), objs in self._user_groups[user].items()
            for obj in objs
        ]
        ranks, cols, rows, docs = zip(*filed) if filed else ((),) * 4
        tokens = [token for doc in docs for token in doc]
        return (
            np.array(ranks, dtype=np.int64),
            np.array(cols, dtype=np.int64),
            np.array(rows, dtype=np.int64),
            np.array(list(map(len, docs)), dtype=np.int64),
            np.array(tokens, dtype=np.int64),
        )

    # -- accessors ----------------------------------------------------------------

    def user_cells(self, user: UserId) -> List[CellCoord]:
        """Cells containing objects of ``user``, ascending by cell id (Cu)."""
        return list(self._user_groups.get(user, ()))

    def user_groups(self, user: UserId) -> Dict[CellCoord, List[STObject]]:
        """``{cell -> D^c_u}`` over the cells of ``user``, by cell id.

        The per-user grouping the candidate probes and bounds read, so no
        query re-derives an object's cell.  Empty for unknown users.
        """
        return self._user_groups.get(user, {})

    def user_cell_ids(self, user: UserId) -> List[int]:
        """Scalar cell ids of :meth:`user_cells`, in the same order."""
        return self._user_cell_ids.get(user, [])

    def cell_objects(self, cell: CellCoord, user: UserId) -> List[STObject]:
        """``D^c_u``: objects of ``user`` inside ``cell``."""
        return self._user_groups.get(user, {}).get(cell, [])

    def user_packs(self, user: UserId) -> Dict[CellCoord, CellPack]:
        """``{cell -> CellPack}`` over every occupied cell of ``user``.

        The pair evaluators probe this small per-user dict directly —
        one ``dict.get`` per (cell, neighbour) probe instead of a
        two-level lookup into the global cell map.  Out-of-range
        neighbour coordinates simply miss.  Built on first access and
        cached, so the many partner users joined against the same lists
        all share one layout.
        """
        packs = self._user_packs.get(user)
        if packs is None:
            groups = self._user_groups.get(user, {})
            whole = CellPack([obj for objs in groups.values() for obj in objs])
            packs = self._user_packs[user] = {}
            lo = 0
            for cell, objs in groups.items():
                packs[cell] = whole.view(lo, lo + len(objs))
                lo += len(objs)
            _obs.count("cache.pack_builds", len(packs))
        return packs

    def cell_prefix_index(
        self, cell: CellCoord, user: UserId, threshold: float
    ) -> Dict[int, List[Tuple[int, int]]]:
        """Cached PPJOIN prefix index over ``D^c_u``'s documents.

        Keyed by threshold on top of ``(cell, user)`` — the same list can
        serve joins at different ``eps_doc`` values (top-k refinement,
        repeated queries) without cross-talk.  The returned mapping is the
        RS-join index side (probing prefixes, Jaccard), what
        :func:`repro.textual.ppjoin.build_prefix_index` produces, with
        document positions in the columns of the cell's :meth:`user_packs` entry.
        """
        key = (cell, user)
        per_threshold = self._prefix_indexes.get(key)
        if per_threshold is None:
            per_threshold = self._prefix_indexes[key] = {}
        index = per_threshold.get(threshold)
        if index is None:
            pack = self.user_packs(user).get(cell)
            index = {}
            if pack is not None:
                index = build_prefix_index(pack.docs[pack.lo:pack.hi], threshold)
                if pack.lo:
                    index = {
                        token: [(pack.lo + i, pos) for i, pos in postings]
                        for token, postings in index.items()
                    }
            per_threshold[threshold] = index
            _obs.count("cache.prefix_index_builds")
        return index

    def cell_user_count(self, cell: CellCoord, user: UserId) -> int:
        """``|D^c_u|`` without materializing a list."""
        return len(self._user_groups.get(user, {}).get(cell, ()))

    def cell_users(self, cell: CellCoord) -> List[UserId]:
        """Users having at least one object in ``cell``, in rank order."""
        return [u for u, groups in self._user_groups.items() if cell in groups]

    def relevant_cells(self, cell: CellCoord) -> List[CellCoord]:
        """``cell`` and its in-range neighbours (``G.getRelevantCells``)."""
        return self.grid.relevant_cells(cell)

    def occupied_relevant_cells(self, cell: CellCoord) -> List[CellCoord]:
        """Relevant cells that actually contain objects."""
        return [c for c in self.grid.relevant_cells(cell) if c in self._cells]
