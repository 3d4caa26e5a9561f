"""The spatio-textual grid index of S-PPJ-F (Figure 3 of the paper).

A dynamic uniform grid whose cells carry two structures:

* per cell, the contained objects grouped by user (``D^c_u``) — needed by
  every grid-based join in the paper, including S-PPJ-C and S-PPJ-B;
* per cell, an inverted list mapping each token appearing in the cell to
  the set of users owning an object with that token — the filter
  structure of S-PPJ-F and TOPK-S-PPJ-P.

The index supports both bulk construction over a whole dataset (what
Algorithm 1's ``createGridIndex`` does) and the incremental, one-user-at-
a-time population that Algorithm 2 interleaves with candidate search.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.model import STDataset, STObject, UserId
from ..obs import runtime as _obs
from ..spatial.geometry import Rect
from ..spatial.grid import CellCoord, UniformGrid
from ..textual.ppjoin import build_prefix_index

__all__ = ["CellPack", "STGridIndex"]

#: The shared (immutable) answer of a token lookup that misses.
_NO_USERS: Tuple[UserId, ...] = ()


def _token_union(objs: Sequence[STObject]) -> Tuple[int, ...]:
    """Sorted distinct token ids over a ``D^c_u`` list."""
    return tuple(sorted({token for obj in objs for token in obj.doc}))


class CellPack:
    """Columnar view of one ``D^c_u`` object list (the hot-path layout).

    The pair evaluators touch an object's coordinates, oid, canonical
    document and cached ``doc_set`` millions of times per join; pulling
    attributes off object instances in the inner loop costs a lookup
    each.  A pack hoists them into parallel columns once, so the kernels
    index plain tuples instead.  ``objs`` is the ``D^c_u`` list itself,
    not a copy, for the (rare) predicate hook; the index drops a pack
    whenever its list grows.
    """

    __slots__ = ("objs", "oids", "xs", "ys", "docs", "doc_sets", "lens")

    def __init__(self, objs: Sequence[STObject]):
        self.objs = objs
        # STObjects are tuples: one transpose yields every field column.
        self.oids, _users, self.xs, self.ys, self.docs, self.doc_sets = (
            zip(*objs) if objs else ((),) * 6
        )
        self.lens = tuple(map(len, self.docs))

    def __len__(self) -> int:
        return len(self.objs)


class STGridIndex:
    """Grid + per-cell inverted lists over spatio-textual objects.

    Parameters
    ----------
    bounds:
        Spatial extent of the data; cells outside are clamped.
    eps_loc:
        Cell extent in each dimension — the grid is tailor-made for the
        query's spatial threshold, so matching objects are always in the
        same or adjacent cells.
    with_tokens:
        Maintain the per-cell token -> users inverted lists.  S-PPJ-C and
        S-PPJ-B do not need them; skipping saves construction time, which
        is part of what the experiments compare.
    """

    def __init__(self, bounds: Rect, eps_loc: float, with_tokens: bool = True):
        self.grid = UniformGrid(bounds, eps_loc)
        self.eps_loc = float(eps_loc)
        self.with_tokens = with_tokens
        # One tuple per occupied cell, shared by every structure keyed by
        # cells (duplicates of a small tuple add up over a warm index).
        self._cells: Dict[CellCoord, CellCoord] = {}
        # cell -> user -> objects of that user in the cell (D^c_u).
        self._cell_objects: Dict[CellCoord, Dict[UserId, List[STObject]]] = {}
        # cell -> token id -> users having the token in the cell, in the
        # order they were filed (a tuple: most lists hold one user, and a
        # one-element set costs four times the memory).
        self._cell_token_users: Dict[CellCoord, Dict[int, Tuple[UserId, ...]]] = {}
        # user -> {cell -> D^c_u} over the user's cells, ascending by cell
        # id; the lists are the ones _cell_objects holds.
        self._user_groups: Dict[UserId, Dict[CellCoord, List[STObject]]] = {}
        # user -> {cell -> sorted distinct token ids of D^c_u} (with_tokens
        # only): the per-cell token signature the candidate probes iterate.
        self._user_tokens: Dict[UserId, Dict[CellCoord, Tuple[int, ...]]] = {}
        # user -> cells containing the user's objects, sorted by cell id (Cu).
        self._user_cells: Dict[UserId, List[CellCoord]] = {}
        # user -> the scalar cell ids of _user_cells, same order (cached so
        # the pair evaluators can merge two users' cell lists on ints).
        self._user_cell_ids: Dict[UserId, List[int]] = {}
        # (cell, user) -> columnar pack over D^c_u, built lazily on first
        # touch and invalidated when add_user grows the list.
        self._packs: Dict[Tuple[CellCoord, UserId], CellPack] = {}
        # (cell, user) -> threshold -> prefix index over the pack's docs.
        self._prefix_indexes: Dict[
            Tuple[CellCoord, UserId],
            Dict[float, Dict[int, List[Tuple[int, int]]]],
        ] = {}
        # cell -> relevant_token_maps(cell), built on first probe; add_user
        # drops the entries a newly occupied cell belongs to.
        self._relevant_maps: Dict[
            CellCoord, Tuple[Tuple[CellCoord, Dict[int, Tuple[UserId, ...]]], ...]
        ] = {}
        # user -> {cell -> pack} over every occupied cell of the user.
        self._user_packs: Dict[UserId, Dict[CellCoord, CellPack]] = {}
        #: ``(dataset, oids, cols, rows)`` of a bulk build: the indexed
        #: objects (ascending oid) and their cells, which the batch kernel
        #: gathers its columns from.  ``None`` once :meth:`add_user` runs.
        self.columns: Optional[
            Tuple[STDataset, np.ndarray, np.ndarray, np.ndarray]
        ] = None
        # (user order, PairBatchKernel) built by repro.core.kernels for
        # the fused batch path; invalidated on any mutation.
        self._batch_kernel: Optional[Tuple[tuple, object]] = None

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
        ``D^c_u`` lists, oid order kept.  Each list is then filed once:
        its token signature goes into the cell's inverted lists, one
        entry per distinct token.  The result holds exactly what
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
        with_tokens = self.with_tokens
        canon = self._cells
        cell_objects = self._cell_objects
        cell_token_users = self._cell_token_users
        last = -1
        for g, (r, col, row) in enumerate(
            zip(rank[starts].tolist(), cols[starts].tolist(), rows[starts].tolist())
        ):
            if r != last:
                user, last = order[r], r
                groups = self._user_groups[user] = {}
                cells = self._user_cells[user] = []
                ids = self._user_cell_ids[user] = []
                if with_tokens:
                    signatures = self._user_tokens[user] = {}
            cell = (col, row)
            cell = canon.setdefault(cell, cell)
            objs = groups[cell] = picked[bounds[g]:bounds[g + 1]]
            cells.append(cell)
            ids.append(row * ncols + col)
            per_cell = cell_objects.get(cell)
            if per_cell is None:
                cell_objects[cell] = {user: objs}
            else:
                per_cell[user] = objs
            if not with_tokens:
                continue
            tokens = signatures[cell] = (
                objs[0].doc if len(objs) == 1 else _token_union(objs)
            )
            token_map = cell_token_users.get(cell)
            if token_map is None:
                token_map = cell_token_users[cell] = {}
            for token in tokens:
                users = token_map.get(token)
                token_map[token] = (user,) if users is None else users + (user,)

    def add_user(self, user: UserId, objects: Iterable[STObject]) -> None:
        """Insert every object of ``user`` (``G.addUser`` in Algorithm 2)."""
        groups = self._user_groups.setdefault(user, {})
        cell_of = self.grid.cell_of
        grown: Set[CellCoord] = set()
        for obj in objects:
            cell = cell_of(obj.x, obj.y)
            cell = self._cells.setdefault(cell, cell)
            objs = groups.get(cell)
            if objs is None:
                objs = groups[cell] = []
                self._cell_objects.setdefault(cell, {})[user] = objs
            objs.append(obj)
            grown.add(cell)
            if self.with_tokens:
                token_map = self._cell_token_users.get(cell)
                if token_map is None:
                    token_map = self._cell_token_users[cell] = {}
                    for near in self.grid.relevant_cells(cell):
                        self._relevant_maps.pop(near, None)
                for token in obj.doc:
                    users = token_map.get(token, _NO_USERS)
                    if user not in users:
                        token_map[token] = users + (user,)
        if self.with_tokens:
            signatures = self._user_tokens.setdefault(user, {})
            for cell in grown:
                signatures[cell] = _token_union(groups[cell])
        cell_id = self.grid.cell_id
        ordered = sorted(groups, key=cell_id)
        self._user_groups[user] = {cell: groups[cell] for cell in ordered}
        self._user_cells[user] = ordered
        self._user_cell_ids[user] = [cell_id(c) for c in ordered]
        # Drop cached packs/prefix indexes for the (cell, user) lists that
        # just grew; they are rebuilt lazily on next access.
        for cell in grown:
            self._packs.pop((cell, user), None)
            self._prefix_indexes.pop((cell, user), None)
        self._user_packs.pop(user, None)
        self._batch_kernel = None
        self.columns = None

    def drop_caches(self) -> None:
        """Forget every lazily built structure: the CellPacks, prefix
        indexes, neighbour token maps and the batch kernel.

        The index stays complete and usable; a later query rebuilds what
        it touches.  A server calls this when it closes, so an index a
        caller still references holds only its filed lists.
        """
        self._packs.clear()
        self._user_packs.clear()
        self._prefix_indexes.clear()
        self._relevant_maps.clear()
        self._batch_kernel = None

    def occupancy(self) -> dict:
        """Grid occupancy profile: occupied cells, objects/users per cell.

        The spatial side of the cost model's input (``/datasets/<name>/
        stats``): dense cells drive the ``|D^c_u|·|D^c_v|`` pair costs the
        chunker balances on, so skew here predicts chunk imbalance.
        """
        objects_per_cell = [
            sum(len(objs) for objs in per_user.values())
            for per_user in self._cell_objects.values()
        ]
        users_per_cell = [
            len(per_user) for per_user in self._cell_objects.values()
        ]
        n = len(objects_per_cell)
        total_objects = sum(objects_per_cell)
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
        }

    # -- accessors ----------------------------------------------------------------

    def user_cells(self, user: UserId) -> List[CellCoord]:
        """Cells containing objects of ``user``, ascending by cell id (Cu)."""
        return self._user_cells.get(user, [])

    def user_groups(self, user: UserId) -> Dict[CellCoord, List[STObject]]:
        """``{cell -> D^c_u}`` over the cells of ``user``, by cell id.

        The per-user grouping the candidate probes and bounds read, so no
        query re-derives an object's cell.  Empty for unknown users.
        """
        return self._user_groups.get(user, {})

    def user_tokens(self, user: UserId) -> Dict[CellCoord, Tuple[int, ...]]:
        """``{cell -> sorted distinct tokens of D^c_u}``: each cell's
        token signature, computed once when the user is filed."""
        if not self.with_tokens:
            raise RuntimeError("index built without token lists")
        return self._user_tokens.get(user, {})

    def user_cell_ids(self, user: UserId) -> List[int]:
        """Scalar cell ids of :meth:`user_cells`, in the same order."""
        return self._user_cell_ids.get(user, [])

    def cell_objects(self, cell: CellCoord, user: UserId) -> List[STObject]:
        """``D^c_u``: objects of ``user`` inside ``cell``."""
        per_user = self._cell_objects.get(cell)
        if not per_user:
            return []
        return per_user.get(user, [])

    def cell_pack(self, cell: CellCoord, user: UserId) -> Optional[CellPack]:
        """Columnar :class:`CellPack` over ``D^c_u``, or ``None`` if empty.

        Built on first access and cached, so the many partner users that
        S-PPJ-C/B join the same cell list against all share one layout.
        """
        key = (cell, user)
        pack = self._packs.get(key)
        if pack is None:
            per_user = self._cell_objects.get(cell)
            objs = per_user.get(user) if per_user else None
            if not objs:
                return None
            pack = CellPack(objs)
            self._packs[key] = pack
            _obs.count("cache.pack_builds")
        return pack

    def user_packs(self, user: UserId) -> Dict[CellCoord, CellPack]:
        """``{cell -> CellPack}`` over every occupied cell of ``user``.

        The pair evaluators probe this small per-user dict directly —
        one ``dict.get`` per (cell, neighbour) probe instead of a
        two-level lookup into the global cell map.  Out-of-range
        neighbour coordinates simply miss.  Cached per user and shared
        with :meth:`cell_pack`'s per-cell cache.
        """
        packs = self._user_packs.get(user)
        if packs is None:
            packs = {}
            for cell in self._user_cells.get(user, ()):
                key = (cell, user)
                pack = self._packs.get(key)
                if pack is None:
                    pack = self._packs[key] = CellPack(
                        self._cell_objects[cell][user]
                    )
                    _obs.count("cache.pack_builds")
                packs[cell] = pack
            self._user_packs[user] = packs
        return packs

    def cell_prefix_index(
        self, cell: CellCoord, user: UserId, threshold: float
    ) -> Dict[int, List[Tuple[int, int]]]:
        """Cached PPJOIN prefix index over ``D^c_u``'s documents.

        Keyed by threshold on top of ``(cell, user)`` — the same list can
        serve joins at different ``eps_doc`` values (top-k refinement,
        repeated queries) without cross-talk.  The returned mapping is the
        RS-join index side (probing prefixes, Jaccard), exactly what
        :func:`repro.textual.ppjoin.build_prefix_index` produces.
        """
        key = (cell, user)
        per_threshold = self._prefix_indexes.get(key)
        if per_threshold is None:
            per_threshold = self._prefix_indexes[key] = {}
        index = per_threshold.get(threshold)
        if index is None:
            pack = self.cell_pack(cell, user)
            docs = pack.docs if pack is not None else []
            index = per_threshold[threshold] = build_prefix_index(docs, threshold)
            _obs.count("cache.prefix_index_builds")
        return index

    def cell_user_count(self, cell: CellCoord, user: UserId) -> int:
        """``|D^c_u|`` without materializing a list."""
        per_user = self._cell_objects.get(cell)
        if not per_user:
            return 0
        objs = per_user.get(user)
        return len(objs) if objs else 0

    def cell_users(self, cell: CellCoord) -> List[UserId]:
        """Users having at least one object in ``cell``."""
        per_user = self._cell_objects.get(cell)
        return list(per_user.keys()) if per_user else []

    def cell_token_users(self, cell: CellCoord) -> Dict[int, Tuple[UserId, ...]]:
        """The inverted list of ``cell``: token id -> users having it there.

        One lookup per cell lets a probe over many tokens skip the
        per-token :meth:`token_users` call.
        """
        if not self.with_tokens:
            raise RuntimeError("index built without token lists")
        return self._cell_token_users.get(cell) or {}

    def relevant_token_maps(
        self, cell: CellCoord
    ) -> Tuple[Tuple[CellCoord, Dict[int, Tuple[UserId, ...]]], ...]:
        """``(cell', inverted list of cell')`` over the relevant cells of
        ``cell`` that have one, in :meth:`relevant_cells` order.

        What every candidate probe of ``cell`` walks; cached per cell, so
        repeated probes skip the neighbour enumeration and the empty
        cells.
        """
        maps = self._relevant_maps.get(cell)
        if maps is None:
            if not self.with_tokens:
                raise RuntimeError("index built without token lists")
            canon, lists = self._cells, self._cell_token_users
            maps = self._relevant_maps[cell] = tuple(
                (canon[other], lists[other])
                for other in self.grid.relevant_cells(cell)
                if other in lists
            )
        return maps

    def token_users(self, cell: CellCoord, token: int) -> Tuple[UserId, ...]:
        """``G.getTokenUsers``: users whose objects in ``cell`` contain
        ``token``, in the order they were filed (empty on a miss)."""
        if not self.with_tokens:
            raise RuntimeError("index built without token lists")
        token_map = self._cell_token_users.get(cell)
        if not token_map:
            return _NO_USERS
        return token_map.get(token, _NO_USERS)

    def user_cell_tokens(self, user: UserId, cell: CellCoord) -> Set[int]:
        """``calculateTokens``: tokens of ``user``'s objects inside ``cell``."""
        tokens: Set[int] = set()
        for obj in self.cell_objects(cell, user):
            tokens.update(obj.doc)
        return tokens

    def relevant_cells(self, cell: CellCoord) -> List[CellCoord]:
        """``cell`` and its in-range neighbours (``G.getRelevantCells``)."""
        return self.grid.relevant_cells(cell)

    def occupied_relevant_cells(self, cell: CellCoord) -> List[CellCoord]:
        """Relevant cells that actually contain objects."""
        return [c for c in self.grid.relevant_cells(cell) if c in self._cell_objects]
