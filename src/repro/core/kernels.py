"""The fused numpy tier: one batch evaluator for plain S-PPJ-C/B.

:class:`PairBatchKernel` is the **fused batch evaluator** behind plain
(uncounted) S-PPJ-C and S-PPJ-B runs.  Profiling the bench workload
showed the per-object-pair filters are *not* where sequential time goes:
the average cell-pair join covers ~5 candidate object pairs, so the
Python traversal (cell-list merges, neighbour dict probes) dominates.  A
per-cell-pair numpy call can never win there — numpy call overhead
exceeds the work.  Instead the kernel precomputes, once per (index, user
order), a global *cell adjacency combo table* (every ordered pair of
occupied cells at Chebyshev distance <= 1, exactly the cell pairs the
PPJ-C/PPJ-B traversals enumerate) and evaluates a whole partner *range*
per call: one slice of the combo table, one vectorized expansion into
candidate object pairs, batched spatial/length/token filters
cheapest-first, one sorted-array token intersection over the survivors,
and a distinct-count reduction back to per-partner matched counts.
Matched-set membership is evaluation-order independent (the both-matched
skip never changes final membership, only avoids work), so the fused
evaluation returns byte-identical scores.

Everything else — S-PPJ-F, top-k, knn, PPJ-D, temporal, and any S-PPJ-C/B
run with ``stats=`` or telemetry — runs the scalar tier of
:mod:`repro.core.pair_eval`.  The tier is chosen only by whether work
counters were requested: the fused kernel counts nothing.

Admissibility note: every batched filter here (spatial, Jaccard length
bounds, token-id-range disjointness) is the same admissible filter the
scalar kernels apply, and the exact Jaccard test is evaluated with the
same float64 IEEE operations (``inter / (la + lb - inter) >= eps_doc``),
so numpy and Python agree bit-for-bit on every match decision.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..stindex.stgrid import _RELEVANT_OFFSETS, _ranges

__all__ = ["resolve_kernel", "PairBatchKernel", "batch_kernel_for"]

#: Guard added to float bounds so rounding can only loosen a prune
#: (mirrors ``pair_eval._EPS`` / ``measures._EPS``).
_EPS = 1e-9


def resolve_kernel() -> str:
    """The name of the batch tier, for host/run descriptions: ``"numpy"``."""
    return "numpy"


# -- fused batch evaluator ----------------------------------------------------------


def _exclusive_cumsum(counts):
    """``[0, c0, c0+c1, ...]`` without the total (for expansion offsets)."""
    out = np.empty(len(counts), dtype=np.int64)
    if len(counts):
        np.cumsum(counts[:-1], out=out[1:])
        out[0] = 0
    return out


def _expand_products(cnt_a, cnt_b):
    """Row-major expansion of ragged cross products.

    Given per-group sizes ``cnt_a`` x ``cnt_b``, returns
    ``(group_of_pair, a_local, b_local)`` — the standard double-repeat
    trick that materializes every (i, j) of every group without a Python
    loop, in the same row-major order the scalar nested loop uses.
    """
    sizes = (cnt_a.astype(np.int64)) * cnt_b
    total = int(sizes.sum())
    group = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        _exclusive_cumsum(sizes), sizes
    )
    nb = cnt_b[group].astype(np.int64)
    return group, within // nb, within % nb


class PairBatchKernel:
    """Fused, query-agnostic batch evaluator over one grid index.

    Built once per (index, user order) and reused across queries — the
    resident join server's warm indexes keep theirs alive between HTTP
    requests.  All state is gathered from the dataset's columns and the
    cell of every object the index's bulk build computed:

    * packed per-object columns (float64 coordinates, doc lengths,
      vocabulary token-id arrays flattened with offsets, first/last token
      per doc), objects sorted by (user, cell id) with one
      lexsort and the token ids gathered with one vectorized CSR slice;
    * a per-cell table (padded scalar cell id, owning user, object range);
    * the **combo table**: every ordered pair of occupied cells belonging
      to different users at grid Chebyshev distance <= 1, sorted by
      ``(user_a, user_b)`` so one partner range is one contiguous slice.

    ``row_counts`` then answers "fixed user vs a contiguous partner
    range" — exactly the unit both the sequential S-PPJ-C/B loops and the
    executor's ``(i, j0, j1)`` chunks evaluate.
    """

    def __init__(self, index, users: Sequence) -> None:
        if index.columns is None:
            raise ValueError(
                "the batch kernel needs a grid index from STGridIndex.build"
            )
        self.users = tuple(users)
        self.n_users = len(self.users)
        dataset, oids, cols, rows = index.columns
        pad_w = index.grid.ncols + 1

        # One stable sort of the indexed objects by (user position, cell
        # id) — the index's D^c_u lists, oid order kept within each.
        rank = dataset.user_ranks(self.users)[dataset.user_pos[oids]]
        keep = np.flatnonzero(rank >= 0)
        perm = keep[np.lexsort((cols[keep], rows[keep], rank[keep]))]
        rank, cols, rows, oids = rank[perm], cols[perm], rows[perm], oids[perm]
        n = len(oids)

        self.xs = dataset.xs[oids]
        self.ys = dataset.ys[oids]
        starts = dataset.tok_off[oids]
        ends = dataset.tok_off[oids + 1]
        self.lens = ends - starts
        # A -1 sentinel after the last token stands in for empty documents.
        padded = np.append(dataset.tok_flat, -1).astype(np.int64)
        empty = self.lens == 0
        sentinel = len(dataset.tok_flat)
        self.tok_first = padded[np.where(empty, sentinel, starts)]
        self.tok_last = padded[np.where(empty, sentinel, ends - 1)]
        self.tok_off = _exclusive_cumsum(self.lens)
        self.tok_flat = dataset.tok_flat[_ranges(starts, self.lens)].astype(np.int64)
        self.vocab_stride = int(self.tok_flat.max()) + 1 if len(self.tok_flat) else 1
        self.n_objects = n

        change = np.ones(n, dtype=bool)
        change[1:] = (
            (rank[1:] != rank[:-1]) | (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        )
        self.cell_start = np.flatnonzero(change)
        self.cell_cnt = np.diff(np.append(self.cell_start, n))
        self.cell_user = rank[self.cell_start]
        cell_pid = rows[self.cell_start] * pad_w + cols[self.cell_start]
        self._build_combos(cell_pid, pad_w)

    def _build_combos(self, cell_pid, pad_w: int) -> None:
        """The global adjacency combo table (see class docstring).

        Padded scalar ids (``row * (ncols + 1) + col``) make every
        neighbour offset a constant delta with no row wrap-around: a
        ``col 0`` cell and the previous row's last column differ by 2 in
        padded space, never 1, so a delta lookup can only hit a true
        grid neighbour — the same contract the scalar traversals get
        from their ``(col, row)`` tuple keys.
        """
        order = np.argsort(cell_pid, kind="stable")
        pid_sorted = cell_pid[order]
        uniq, ustart = np.unique(pid_sorted, return_index=True)
        ucnt = np.diff(np.append(ustart, len(pid_sorted)))

        combo_a: List = []
        combo_b: List = []
        # Deltas in padded-cell-id space: a cell and its 8 neighbours.
        for dc, dr in _RELEVANT_OFFSETS:
            delta = dr * pad_w + dc
            target = uniq + delta
            j = np.searchsorted(uniq, target)
            j_clip = np.minimum(j, len(uniq) - 1)
            ok = uniq[j_clip] == target
            ok &= j < len(uniq)
            if not ok.any():
                continue
            g1 = np.nonzero(ok)[0]
            g2 = j[g1]
            group, a_loc, b_loc = _expand_products(ucnt[g1], ucnt[g2])
            combo_a.append(order[ustart[g1][group] + a_loc])
            combo_b.append(order[ustart[g2][group] + b_loc])
        if combo_a:
            ca = np.concatenate(combo_a)
            cb = np.concatenate(combo_b)
        else:  # pragma: no cover - an index with no occupied cells
            ca = np.empty(0, dtype=np.int64)
            cb = np.empty(0, dtype=np.int64)
        keep = self.cell_user[ca] != self.cell_user[cb]
        ca, cb = ca[keep], cb[keep]
        key = self.cell_user[ca] * self.n_users + self.cell_user[cb]
        order = np.argsort(key, kind="stable")
        self.combo_key = key[order]
        self.combo_a = ca[order]
        self.combo_b = cb[order]

    # -- evaluation ---------------------------------------------------------------

    def row_counts(self, fixed: int, j0: int, j1: int, eps_sq: float, eps_doc: float):
        """Matched-object counts of ``users[fixed]`` vs ``users[j0:j1]``.

        Returns an int64 array of length ``j1 - j0``:
        ``|M(Du_f, Du_j)| + |M(Du_j, Du_f)|`` per partner — the quantity
        both PPJ-C and PPJ-B reduce to (PPJ-B's Lemma 1 early exit is an
        admissible shortcut: it only ever fires on pairs whose final
        score is below threshold, so full evaluation emits the same
        results).
        """
        out = np.zeros(j1 - j0, dtype=np.int64)
        lo = np.searchsorted(self.combo_key, fixed * self.n_users + j0)
        hi = np.searchsorted(self.combo_key, fixed * self.n_users + (j1 - 1), "right")
        if hi <= lo:
            return out
        ca = self.combo_a[lo:hi]
        cb = self.combo_b[lo:hi]

        group, a_loc, b_loc = _expand_products(self.cell_cnt[ca], self.cell_cnt[cb])
        ai = self.cell_start[ca][group] + a_loc
        bi = self.cell_start[cb][group] + b_loc
        partner = self.cell_user[cb][group]

        # Cheapest-first batched filters; each is the scalar kernels'
        # admissible filter, so pruned pairs provably cannot match.
        la = self.lens[ai]
        lb = self.lens[bi]
        keep = (la > 0) & (lb > 0)
        dx = self.xs[ai] - self.xs[bi]
        dy = self.ys[ai] - self.ys[bi]
        keep &= dx * dx + dy * dy <= eps_sq
        laf = la.astype(np.float64)
        keep &= lb >= eps_doc * laf - _EPS
        keep &= lb <= laf / eps_doc + _EPS
        keep &= self.tok_first[bi] <= self.tok_last[ai]
        keep &= self.tok_first[ai] <= self.tok_last[bi]
        ai, bi, partner = ai[keep], bi[keep], partner[keep]
        if not len(ai):
            return out

        inter = self._intersections(ai, bi)
        la = self.lens[ai]
        lb = self.lens[bi]
        ok = (inter > 0) & (inter / (la + lb - inter) >= eps_doc)
        ai, bi, partner = ai[ok], bi[ok], partner[ok]
        if not len(ai):
            return out

        # Each object sits in exactly one cell, so its position in the
        # packed columns identifies it.
        stride = np.int64(self.n_objects)
        for side in (ai, bi):
            keys = np.unique(partner * stride + side)
            counts = np.bincount(
                (keys // stride) - j0, minlength=j1 - j0
            )
            out += counts
        return out

    def _intersections(self, ai, bi):
        """Sorted-array token intersection sizes for pair arrays.

        Documents are canonical sorted token-id tuples, so offsetting
        each pair's tokens by ``pair_rank * vocab_stride`` yields two
        globally sorted key arrays; one ``searchsorted`` membership probe
        plus a segmented sum counts every intersection at once.
        """
        stride = np.int64(self.vocab_stride)
        n = len(ai)
        key_a, pair_a = self._gather_tokens(ai, stride)
        key_b, _ = self._gather_tokens(bi, stride)
        if not len(key_a) or not len(key_b):
            return np.zeros(n, dtype=np.int64)
        pos = np.searchsorted(key_b, key_a)
        pos_clip = np.minimum(pos, len(key_b) - 1)
        hit = key_b[pos_clip] == key_a
        hit &= pos < len(key_b)
        return np.bincount(pair_a[hit], minlength=n).astype(np.int64)

    def _gather_tokens(self, obj_idx, stride):
        """Flattened ``pair_rank * stride + token`` keys for an object list."""
        lens = self.lens[obj_idx]
        pair_ids = np.repeat(np.arange(len(obj_idx), dtype=np.int64), lens)
        flat_pos = _ranges(self.tok_off[obj_idx], lens)
        return pair_ids * stride + self.tok_flat[flat_pos], pair_ids


def batch_kernel_for(index, users: Sequence) -> PairBatchKernel:
    """The (cached) batch kernel of ``index`` for this exact user order.

    Cached on the index and invalidated by ``add_user``: the kernel
    gathers its columns from a bulk build's per-object cells
    (``index.columns``), so only :meth:`STGridIndex.build
    <repro.stindex.stgrid.STGridIndex.build>` indexes have one.
    """
    cached = getattr(index, "_batch_kernel", None)
    users = tuple(users)
    if cached is not None and cached[0] == users:
        return cached[1]
    kernel = PairBatchKernel(index, users)
    index._batch_kernel = (users, kernel)
    return kernel
