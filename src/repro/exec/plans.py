"""The algorithms: one execution plan per (top-k) STPSJoin algorithm.

A plan is the only implementation of its algorithm.  It tells the
:class:`~repro.exec.engine.JoinExecutor` how to cut the algorithm into
independent chunks whose union is exactly the whole run; the plain API
runs the plan as one chunk on the sequential backend, ``workers=`` runs
the same plan's chunks across a pool.

* **Pairwise plans** (NAIVE, S-PPJ-C, S-PPJ-B) — every user pair is
  evaluated independently against a bulk-built index, so the triangular
  pair space is simply cut into contiguous chunks.

* **User-shard plans** (S-PPJ-F, S-PPJ-D, the top-k family) — the paper's
  algorithms are *incremental*: users are visited in an algorithm-specific
  order and user ``u`` probes an index holding only the users before it.
  A plan builds the **full** index once and, for the user at position
  ``p`` of its order, keeps only candidates at earlier positions (S-PPJ-D:
  later ones) while probing.  Because candidate membership, the
  ``sigma_bar`` bound and the pair evaluators each depend only on the
  *two* users involved — never on who else is in the index — this is the
  incremental algorithm exactly, with each unordered pair handled at one
  position.  The user orders:

  - S-PPJ-F and S-PPJ-D: dataset order;
  - TOPK-S-PPJ-F and TOPK-S-PPJ-D: ascending ``(size, dataset rank)``;
  - TOPK-S-PPJ-S: the spatial-popularity order;
  - TOPK-S-PPJ-P: ascending ``(size, dataset rank)``, plus the Lemma 2
    per-user bound over the users earlier in that order.

  The grid plans read the filter from the grid's
  :class:`~repro.stindex.stgrid.CandidateTable`: for the users of a
  chunk, one vectorized pass keeps the earlier candidates and computes
  every ``sigma_bar``, and only the pairs that pass go through the
  Python refinement loop.

* **Top-k plans** keep a *local* canonical top-k heap per chunk: a pair
  pruned against a chunk-local threshold scores below that chunk's k-th
  best pair, hence below the global k-th best, so merging the per-chunk
  heaps and re-selecting canonically yields exactly the one-chunk top-k
  (ties broken by :func:`repro.core.query.pair_sort_key` everywhere).
  When the engine runs chunks one after another in the caller (a run
  under a deadline keeps several chunks as checkpoints), it hands every
  accepted chunk's pairs back through :meth:`Plan.accept`; the grid and
  leaf top-k plans then prune against the k-th best score accepted so
  far whenever it beats the chunk's own heap.

S-PPJ-C and S-PPJ-B have two evaluators: the fused numpy batch kernel
(:mod:`repro.core.kernels`) for plain runs, and the scalar cell-by-cell
evaluators of :mod:`repro.core.pair_eval` when work counters are asked
for (``stats=`` or an active metrics registry).  Every other plan always
runs the scalar evaluators.

Worker *state* objects are built either in the parent (sequential /
thread backends, and the ``fork`` start method where children inherit
memory) or inside each worker from a pickled
:class:`~repro.stindex.snapshot.DatasetSnapshot` (the ``spawn`` start
method).  State is never pickled directly, so it can hold arbitrarily
rich index structures.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.kernels import batch_kernel_for
from ..core.model import STDataset, UserId
from ..obs import runtime as _obs
from ..core.pair_eval import PairEvalStats, ppj_b_pair, ppj_c_pair
from ..core.ppj_d import ppj_d_pair
from ..core.query import STPSJoinQuery, TopKQuery, UserPair
from ..core.similarity import set_similarity
from ..core.topk import _TopKHeap
from ..stindex.leaf_index import STLeafIndex
from ..stindex.stgrid import STGridIndex

__all__ = ["JOIN_PLANS", "TOPK_PLANS", "get_plan", "Plan"]

#: Minimum positive early-termination threshold handed to the pair
#: evaluators when the (local) top-k heap is not yet full — small enough
#: that Lemma 1 can never fire, so scores stay exact.
_NO_THRESHOLD = 1e-12

#: Hard ceiling on adaptive chunk sizes — beyond this, bigger chunks only
#: hurt load balance without reducing dispatch overhead meaningfully.
_MAX_AUTO_CHUNK = 4096

#: Tasks handed out per worker (on average) by the *size-based* adaptive
#: chunking — the fallback when no cost model applies.
_TASKS_PER_WORKER = 8

#: Chunks produced per worker by the *cost-model* chunking: few enough
#: that per-chunk dispatch overhead stays negligible, enough slack that
#: dynamic scheduling can absorb estimation error.
_COST_CHUNKS_PER_WORKER = 4


class Plan:
    """Base class: how one algorithm partitions and evaluates.

    Subclasses define :meth:`num_units` / :meth:`chunks` (the task
    partitioner), :meth:`build_state` (executed once per process holding
    the state) and :meth:`run_chunk` (the worker body).  ``kind`` is
    ``"join"`` or ``"topk"`` — plan names are unique per kind.

    Two partitioners coexist:

    * :meth:`chunks` — fixed ``chunk_size`` units per chunk, in unit
      order.  Deterministic chunk *indexing* is part of its contract:
      fault plans and the resilience tests key on chunk indices.
    * :meth:`cost_chunks` — used when the caller did not pin a chunk
      size and there are several workers or a deadline.  Subclasses with
      a cost model pack chunks so estimated *work*, not unit count, is
      balanced, and emit the heaviest chunks first so dynamic scheduling
      fills the tail with light ones.  The base implementation falls
      back to size-based adaptive chunking.

    Otherwise (one worker, no deadline) the engine runs ``chunks`` with
    ``chunk_size = num_units``: the whole plan as one chunk.

    Both emit chunks in the *compact encoding* their ``run_chunk``
    expects — ``(i, j0, j1)`` row segments for pairwise plans, position
    ranges/lists for user shards — so a chunk pickles as a handful of
    ints no matter how many units it spans.
    """

    kind: str = "join"
    name: str = ""

    def num_units(self, dataset: STDataset) -> int:
        raise NotImplementedError

    def chunks(self, dataset: STDataset, chunk_size: int) -> Iterator[list]:
        raise NotImplementedError

    def cost_chunks(self, dataset: STDataset, workers: int) -> Iterator[list]:
        """Cost-balanced chunks; base fallback is size-based chunking."""
        n_units = self.num_units(dataset)
        target = -(-n_units // (max(1, workers) * _TASKS_PER_WORKER))
        return self.chunks(dataset, max(1, min(_MAX_AUTO_CHUNK, target)))

    def chunk_costs(
        self, dataset: STDataset, chunk_list: Sequence
    ) -> Optional[List[float]]:
        """Modeled cost of each chunk, under the same cost model
        :meth:`cost_chunks` balances on — the engine records these next to
        the measured ``chunk_seconds`` so EXPLAIN and the serve audit can
        report how far the model's predictions miss reality (the
        calibration substrate for the roadmap's cost-based planner).
        Applies to *any* chunking of this plan (fixed-size included);
        ``None`` means the plan has no cost model."""
        return None

    def build_state(self, dataset: STDataset, query, **kwargs):
        raise NotImplementedError

    def warm(self, state, with_stats: bool, with_metrics: bool) -> None:
        """One-time state warm-up the engine runs outside chunk timing.

        Plans with a fused numpy tier build the batch kernel here so its
        construction cost is charged to setup, not to whichever chunk
        happens to run first (per-chunk wall-clock feeds the chunk
        imbalance gate).  Idempotent; the base plan has nothing to warm.
        """

    def run_chunk(
        self, state, chunk: Sequence, stats: Optional[PairEvalStats]
    ) -> List[UserPair]:
        raise NotImplementedError

    def accept(self, state, pairs: Sequence[UserPair]) -> None:
        """Take an accepted chunk's result, on runs whose chunks execute
        one after another in the caller (so the state is not shared with a
        concurrently running chunk).  The base plan ignores it."""


def _triangular_chunks(
    n_users: int, chunk_size: int
) -> Iterator[List[Tuple[int, int, int]]]:
    """Split the triangular pair space into contiguous chunks.

    Chunks are emitted as ``(i, j0, j1)`` row segments — the pairs
    ``(i, j)`` for ``j0 <= j < j1`` — covering exactly ``chunk_size``
    pairs each (except the last).  The pair-to-chunk-index mapping is
    identical to the historical explicit pair lists, only the encoding
    is compact.
    """
    chunk: List[Tuple[int, int, int]] = []
    count = 0
    for i in range(n_users):
        j = i + 1
        while j < n_users:
            take = min(chunk_size - count, n_users - j)
            chunk.append((i, j, j + take))
            count += take
            j += take
            if count >= chunk_size:
                yield chunk
                chunk = []
                count = 0
    if chunk:
        yield chunk


def _user_shards(n_users: int, chunk_size: int) -> Iterator[range]:
    """Split the user positions into contiguous shards (as ranges)."""
    for start in range(0, n_users, chunk_size):
        yield range(start, min(start + chunk_size, n_users))


def _user_sizes(dataset: STDataset) -> List[int]:
    return [len(dataset.user_objects(u)) for u in dataset.users]


def _balanced_pair_chunks(
    sizes: List[int], workers: int
) -> List[List[Tuple[int, int, int]]]:
    """Cost-model chunking of the triangular pair space.

    Pair ``(i, j)`` is costed at ``|Du_i|·|Du_j| + 1`` (the dominant
    term of every pairwise evaluator, plus a floor so empty users still
    count as dispatch work).  Rows are cut into segments of roughly the
    per-chunk cost target, then LPT-packed (heaviest segment onto the
    lightest bin) into ``~4× workers`` bins.  Bins are returned heaviest
    first.  Everything is derived deterministically from the sizes, so
    the partition — and therefore the result merge — is reproducible.
    """
    n = len(sizes)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + sizes[i]
    total = 0
    row_costs = []
    for i in range(n - 1):
        cost = sizes[i] * suffix[i + 1] + (n - 1 - i)
        row_costs.append(cost)
        total += cost
    n_units = n * (n - 1) // 2
    bins_wanted = max(1, min(n_units, max(1, workers) * _COST_CHUNKS_PER_WORKER))
    target = total / bins_wanted

    # Cut each row into segments of ~target cost; most rows fit whole.
    segments: List[Tuple[float, int, int, int]] = []
    for i in range(n - 1):
        if row_costs[i] <= target * 1.5:
            segments.append((row_costs[i], i, i + 1, n))
            continue
        size_i = sizes[i]
        acc = 0.0
        j0 = i + 1
        for j in range(i + 1, n):
            acc += size_i * sizes[j] + 1
            if acc >= target and j + 1 < n:
                segments.append((acc, i, j0, j + 1))
                j0 = j + 1
                acc = 0.0
        if j0 < n:
            segments.append((acc, i, j0, n))

    # LPT greedy: heaviest segment onto the currently lightest bin.
    order = sorted(
        range(len(segments)),
        key=lambda s: (-segments[s][0], segments[s][1], segments[s][2]),
    )
    loads = [0.0] * bins_wanted
    bins: List[List[Tuple[int, int, int]]] = [[] for _ in range(bins_wanted)]
    heap = [(0.0, b) for b in range(bins_wanted)]
    for s in order:
        cost, i, j0, j1 = segments[s]
        load, b = heapq.heappop(heap)
        bins[b].append((i, j0, j1))
        loads[b] = load + cost
        heapq.heappush(heap, (load + cost, b))
    for b in range(bins_wanted):
        bins[b].sort()
    packed = [
        (loads[b], bins[b]) for b in range(bins_wanted) if bins[b]
    ]
    packed.sort(key=lambda e: (-e[0], e[1]))
    return [chunk for _, chunk in packed]


def _balanced_user_shards(sizes: List[int], workers: int) -> List[range]:
    """Cost-model sharding of the user list into contiguous ranges.

    User at position ``p`` is costed at ``|Du_p|·(Σ_{q<p} |Du_q|) + |Du_p|
    + 1`` — candidate generation scales with the user's own objects and
    refinement with the pairs against earlier-ranked users (each
    unordered pair is charged to its later member, mirroring the shard
    plans' rank filter).  The cumulative cost curve is cut at equal-cost
    boundaries into ``~4× workers`` contiguous ranges, returned heaviest
    first so dynamic scheduling fills the tail with light ones.  One
    worker has no tail to fill: its ranges stay in position order, so a
    top-k run that carries its threshold from chunk to chunk
    (:meth:`Plan.accept`) sees the users in its algorithm's order.
    """
    n = len(sizes)
    costs = []
    prefix = 0
    for p in range(n):
        costs.append(sizes[p] * prefix + sizes[p] + 1)
        prefix += sizes[p]
    total = sum(costs)
    bins_wanted = max(1, min(n, max(1, workers) * _COST_CHUNKS_PER_WORKER))
    target = total / bins_wanted
    shards: List[Tuple[float, range]] = []
    acc = 0.0
    start = 0
    for p in range(n):
        acc += costs[p]
        if acc >= target and p + 1 < n:
            shards.append((acc, range(start, p + 1)))
            start = p + 1
            acc = 0.0
    if start < n:
        shards.append((acc, range(start, n)))
    if workers > 1:
        shards.sort(key=lambda e: (-e[0], e[1].start))
    return [shard for _, shard in shards]


class _PairwisePlan(Plan):
    """Shared partitioner for plans whose unit is one user pair."""

    def num_units(self, dataset: STDataset) -> int:
        n = dataset.num_users
        return n * (n - 1) // 2

    def chunks(self, dataset: STDataset, chunk_size: int):
        return _triangular_chunks(dataset.num_users, chunk_size)

    def cost_chunks(self, dataset: STDataset, workers: int):
        return _balanced_pair_chunks(_user_sizes(dataset), workers)

    def chunk_costs(self, dataset: STDataset, chunk_list: Sequence):
        # Segment (i, j0, j1) costs |Du_i|·Σ_{j0<=j<j1} |Du_j| + (j1-j0),
        # evaluated via a prefix-sum so a whole chunk list is O(n + segs).
        sizes = _user_sizes(dataset)
        prefix = [0]
        for s in sizes:
            prefix.append(prefix[-1] + s)
        return [
            float(
                sum(
                    sizes[i] * (prefix[j1] - prefix[j0]) + (j1 - j0)
                    for i, j0, j1 in chunk
                )
            )
            for chunk in chunk_list
        ]


class _UserShardPlan(Plan):
    """Shared partitioner for plans whose unit is one user.

    A unit is a *position* in the plan's user order (``state["order"]``),
    so a chunk is a contiguous stretch of that order.  ``unit_sizes`` gives
    the object-set sizes in the same order, for the cost model.
    """

    def num_units(self, dataset: STDataset) -> int:
        return dataset.num_users

    def chunks(self, dataset: STDataset, chunk_size: int):
        return _user_shards(dataset.num_users, chunk_size)

    def unit_sizes(self, dataset: STDataset) -> List[int]:
        return _user_sizes(dataset)

    def cost_chunks(self, dataset: STDataset, workers: int):
        return _balanced_user_shards(self.unit_sizes(dataset), workers)

    def chunk_costs(self, dataset: STDataset, chunk_list: Sequence):
        # Position p costs |Du_p|·(Σ_{q<p} |Du_q|) + |Du_p| + 1 — the
        # per-user cost _balanced_user_shards cuts the cumulative curve on.
        sizes = self.unit_sizes(dataset)
        prefix = [0]
        for s in sizes:
            prefix.append(prefix[-1] + s)
        return [
            float(
                sum(sizes[p] * prefix[p] + sizes[p] + 1 for p in chunk)
            )
            for chunk in chunk_list
        ]


def _size_order(dataset: STDataset) -> List[UserId]:
    """Users ascending by object-set size, ties by dataset rank."""
    return sorted(dataset.users, key=lambda u: len(dataset.user_objects(u)))


def _shard_state(dataset: STDataset, query, index, order, **extra):
    """The state every user-shard plan runs on."""
    return {
        "dataset": dataset,
        "index": index,
        "query": query,
        "order": order,
        "pos": {u: p for p, u in enumerate(order)},
        "rank": {u: i for i, u in enumerate(dataset.users)},
        "sizes": {u: len(dataset.user_objects(u)) for u in dataset.users},
        **extra,
    }


def _record_shard(reg, evaluated: int, emitted: int, cand_seconds: float) -> None:
    """Fold one chunk's candidate tallies into the active registry."""
    if reg is not None:
        reg.counter("pairs.evaluated").inc(evaluated)
        reg.counter("pairs.emitted").inc(emitted)
        reg.histogram("phase.candidates").observe(cand_seconds)


def _filter_state(dataset: STDataset, query, index: STGridIndex, order, **extra):
    """The state of a grid filter plan: :func:`_shard_state` plus the
    grid's candidate table and the arrays it is read with — per dataset
    rank (= table rank) the object-set size and the plan position, per
    position the rank."""
    state = _shard_state(dataset, query, index, order, **extra)
    rank = state["rank"]
    rank_at = np.fromiter(map(rank.__getitem__, order), np.int64, len(order))
    pos_of = np.empty_like(rank_at)
    pos_of[rank_at] = np.arange(len(order))
    state.update(
        table=index.candidate_table(),
        users=dataset.users,
        rank_at=rank_at,
        pos_of=pos_of,
        size_of=np.array(_user_sizes(dataset), dtype=np.int64),
    )
    return state


def _chunk_candidates(state, positions: np.ndarray):
    """Algorithm 2's filter for the users at ``positions``, vectorized.

    Returns ``(seg, cand, bound)``: every candidate at an earlier
    position of the plan's order, as the index into ``positions`` of the
    user it belongs to, its rank and its ``sigma_bar``.
    """
    rank_at, size_of = state["rank_at"], state["size_of"]
    ranks = rank_at[positions]
    seg, cand, num = state["table"].gather(ranks)
    earlier = state["pos_of"][cand] < positions[seg]
    seg, cand, num = seg[earlier], cand[earlier], num[earlier]
    return seg, cand, num / (size_of[ranks[seg]] + size_of[cand])


# -- threshold joins ---------------------------------------------------------------


class NaiveJoinPlan(_PairwisePlan):
    """Exhaustive oracle, pair-partitioned (for differential testing)."""

    name = "naive"

    def build_state(self, dataset: STDataset, query: STPSJoinQuery):
        users = list(dataset.users)
        return {
            "users": users,
            "objects": [dataset.user_objects(u) for u in users],
            "query": query,
        }

    def run_chunk(self, state, chunk, stats):
        users, objects = state["users"], state["objects"]
        query: STPSJoinQuery = state["query"]
        out: List[UserPair] = []
        for i, j0, j1 in chunk:
            for j in range(j0, j1):
                score = set_similarity(
                    objects[i], objects[j], query.eps_loc, query.eps_doc
                )
                if score >= query.eps_user:
                    out.append(UserPair(users[i], users[j], score))
        _obs.count("pairs.evaluated", sum(j1 - j0 for _i, j0, j1 in chunk))
        _obs.count("pairs.emitted", len(out))
        return out


class SPPJCPlan(_PairwisePlan):
    """S-PPJ-C: PPJ-C evaluation of every pair over the bulk grid."""

    name = "s-ppj-c"

    def build_state(
        self,
        dataset: STDataset,
        query: STPSJoinQuery,
        index: Optional[STGridIndex] = None,
    ):
        if index is None:
            index = STGridIndex.build(dataset, query.eps_loc, with_tokens=False)
        else:
            index.check_query(dataset, query.eps_loc, needs_filter=False)
        users = list(dataset.users)
        return {
            "users": users,
            "sizes": [len(dataset.user_objects(u)) for u in users],
            "index": index,
            "query": query,
        }

    def warm(self, state, with_stats: bool, with_metrics: bool) -> None:
        if not with_stats and not with_metrics:
            batch_kernel_for(state["index"], state["users"])

    def run_chunk(self, state, chunk, stats):
        users, sizes = state["users"], state["sizes"]
        index, query = state["index"], state["query"]
        out: List[UserPair] = []
        batch = None
        if stats is None and _obs.active() is None:
            # Fused numpy tier: whole (i, j0, j1) partner ranges per call
            # (cached on the index, so warm serve indexes amortize it).
            batch = batch_kernel_for(index, users)
        eps_sq = query.eps_loc * query.eps_loc
        for i, j0, j1 in chunk:
            if batch is not None:
                counts = batch.row_counts(i, j0, j1, eps_sq, query.eps_doc)
                for j in range(j0, j1):
                    total = sizes[i] + sizes[j]
                    if total == 0:
                        continue
                    score = int(counts[j - j0]) / total
                    if score >= query.eps_user:
                        out.append(UserPair(users[i], users[j], score))
                continue
            for j in range(j0, j1):
                matched = ppj_c_pair(
                    index, users[i], users[j], query.eps_loc, query.eps_doc
                )
                total = sizes[i] + sizes[j]
                if total == 0:
                    continue
                score = matched / total
                if score >= query.eps_user:
                    out.append(UserPair(users[i], users[j], score))
        _obs.count("pairs.evaluated", sum(j1 - j0 for _i, j0, j1 in chunk))
        _obs.count("pairs.emitted", len(out))
        return out


class SPPJBPlan(_PairwisePlan):
    """S-PPJ-B: PPJ-B (Lemma 1 early termination) per pair."""

    name = "s-ppj-b"

    def build_state(
        self,
        dataset: STDataset,
        query: STPSJoinQuery,
        index: Optional[STGridIndex] = None,
    ):
        if index is None:
            index = STGridIndex.build(dataset, query.eps_loc, with_tokens=False)
        else:
            index.check_query(dataset, query.eps_loc, needs_filter=False)
        users = list(dataset.users)
        return {
            "users": users,
            "sizes": [len(dataset.user_objects(u)) for u in users],
            "index": index,
            "query": query,
        }

    def warm(self, state, with_stats: bool, with_metrics: bool) -> None:
        if not with_stats and not with_metrics:
            batch_kernel_for(state["index"], state["users"])

    def run_chunk(self, state, chunk, stats):
        users, sizes = state["users"], state["sizes"]
        index, query = state["index"], state["query"]
        out: List[UserPair] = []
        batch = None
        if stats is None and _obs.active() is None:
            # Lemma 1 early termination is admissible (it only zeroes
            # pairs whose exact score misses eps_user), so the fused
            # batch scores select the identical result set.
            batch = batch_kernel_for(index, users)
        eps_sq = query.eps_loc * query.eps_loc
        for i, j0, j1 in chunk:
            if batch is not None:
                counts = batch.row_counts(i, j0, j1, eps_sq, query.eps_doc)
                for j in range(j0, j1):
                    total = sizes[i] + sizes[j]
                    score = int(counts[j - j0]) / total if total else 0.0
                    if score >= query.eps_user:
                        out.append(UserPair(users[i], users[j], score))
                continue
            for j in range(j0, j1):
                score = ppj_b_pair(
                    index,
                    users[i],
                    users[j],
                    query.eps_loc,
                    query.eps_doc,
                    query.eps_user,
                    sizes[i],
                    sizes[j],
                    stats,
                )
                if score >= query.eps_user:
                    out.append(UserPair(users[i], users[j], score))
        _obs.count("pairs.evaluated", sum(j1 - j0 for _i, j0, j1 in chunk))
        _obs.count("pairs.emitted", len(out))
        return out


class SPPJFPlan(_UserShardPlan):
    """S-PPJ-F (Algorithm 2): users in dataset order, each probing for
    candidates among the users before it, bound-pruned, PPJ-B refined."""

    name = "s-ppj-f"

    def build_state(
        self,
        dataset: STDataset,
        query: STPSJoinQuery,
        refine: str = "ppj-b",
        index: Optional[STGridIndex] = None,
    ):
        if refine not in ("ppj-b", "ppj-c"):
            raise ValueError(f"unknown refine strategy: {refine!r}")
        if index is None:
            index = STGridIndex.build(dataset, query.eps_loc, with_tokens=True)
        else:
            index.check_query(dataset, query.eps_loc, needs_filter=True)
        return _filter_state(
            dataset, query, index, list(dataset.users), refine=refine
        )

    def run_chunk(self, state, chunk, stats):
        index: STGridIndex = state["index"]
        order, users, sizes = state["order"], state["users"], state["sizes"]
        query: STPSJoinQuery = state["query"]
        refine: str = state["refine"]
        reg = _obs.active()
        started = time.perf_counter()
        positions = np.asarray(chunk, dtype=np.int64)
        seg, cand, bound = _chunk_candidates(state, positions)
        passed = bound >= query.eps_user
        n_passed = int(passed.sum())
        if stats is not None:
            stats.candidates += len(cand)
            stats.bound_pruned += len(cand) - n_passed
            stats.refinements += n_passed
        cand_seconds = time.perf_counter() - started
        out: List[UserPair] = []
        for p, c in zip(positions[seg[passed]].tolist(), cand[passed].tolist()):
            user, other = order[p], users[c]
            if refine == "ppj-b":
                score = ppj_b_pair(
                    index,
                    other,
                    user,
                    query.eps_loc,
                    query.eps_doc,
                    query.eps_user,
                    sizes[other],
                    sizes[user],
                    stats,
                )
            else:
                total = sizes[other] + sizes[user]
                matched = ppj_c_pair(
                    index, other, user, query.eps_loc, query.eps_doc
                )
                score = matched / total if total else 0.0
            if score >= query.eps_user:
                out.append(UserPair(other, user, score))
        _record_shard(reg, len(cand), len(out), cand_seconds)
        return out


class SPPJDPlan(_UserShardPlan):
    """S-PPJ-D: leaf-token probing; each user pairs with later users."""

    name = "s-ppj-d"

    def build_state(
        self,
        dataset: STDataset,
        query: STPSJoinQuery,
        fanout: int = 100,
        partitioner: str = "rtree",
        index: Optional[STLeafIndex] = None,
    ):
        if index is None:
            index = STLeafIndex(
                dataset, query.eps_loc, fanout=fanout, partitioner=partitioner
            )
        elif index.eps_loc != query.eps_loc:
            raise ValueError("prebuilt index eps_loc does not match the query")
        return _shard_state(dataset, query, index, list(dataset.users))

    def run_chunk(self, state, chunk, stats):
        index: STLeafIndex = state["index"]
        order, pos, sizes = state["order"], state["pos"], state["sizes"]
        query: STPSJoinQuery = state["query"]
        n_users = len(order)
        reg = _obs.active()
        cand_seconds = 0.0
        n_evaluated = 0
        out: List[UserPair] = []
        for p in chunk:
            user = order[p]
            if reg is not None:
                started = time.perf_counter()
            candidates = _leaf_candidates(index, user, pos, p + 1, n_users)
            if reg is not None:
                cand_seconds += time.perf_counter() - started
                n_evaluated += len(candidates)
            size_u = sizes[user]
            if stats is not None:
                stats.candidates += len(candidates)
            for cand, (own_leaves, cand_leaves) in candidates.items():
                total = size_u + sizes[cand]
                if total == 0:
                    continue
                own = sum(index.leaf_user_count(l, user) for l in own_leaves)
                other = sum(index.leaf_user_count(l, cand) for l in cand_leaves)
                if (own + other) / total < query.eps_user:
                    if stats is not None:
                        stats.bound_pruned += 1
                    continue
                if stats is not None:
                    stats.refinements += 1
                score = ppj_d_pair(
                    index,
                    user,
                    cand,
                    query.eps_loc,
                    query.eps_doc,
                    query.eps_user,
                    size_u,
                    sizes[cand],
                    stats,
                )
                if score >= query.eps_user:
                    out.append(UserPair(user, cand, score))
        _record_shard(reg, n_evaluated, len(out), cand_seconds)
        return out


def _leaf_candidates(
    index: STLeafIndex, user: UserId, pos: Dict[UserId, int], lo: int, hi: int
) -> Dict[UserId, Tuple[Set[int], Set[int]]]:
    """S-PPJ-D candidate generation: leaf-token probing that keeps only
    users at positions ``lo <= pos < hi``.

    S-PPJ-D pairs each user with the users *after* it in dataset order,
    TOPK-S-PPJ-D with the users *before* it in ascending-size order.
    """
    candidates: Dict[UserId, Tuple[Set[int], Set[int]]] = {}
    for leaf in index.user_leaves(user):
        tokens = index.user_leaf_tokens(user, leaf)
        if not tokens:
            continue
        for other_leaf in index.relevant_leaves(leaf):
            for token in tokens:
                for cand in index.token_users(other_leaf, token):
                    if not lo <= pos[cand] < hi:
                        continue
                    entry = candidates.get(cand)
                    if entry is None:
                        entry = (set(), set())
                        candidates[cand] = entry
                    entry[0].add(leaf)
                    entry[1].add(other_leaf)
    return candidates


# -- top-k joins -------------------------------------------------------------------


def _ordered_pair(rank, a: UserId, b: UserId, score: float) -> UserPair:
    """``UserPair`` with the users in dataset order."""
    return UserPair(a, b, score) if rank[a] < rank[b] else UserPair(b, a, score)


class NaiveTopKPlan(_PairwisePlan):
    """Exhaustive top-k, pair-partitioned with per-task heaps."""

    kind = "topk"
    name = "naive"

    def build_state(self, dataset: STDataset, query: TopKQuery):
        users = list(dataset.users)
        return {
            "users": users,
            "objects": [dataset.user_objects(u) for u in users],
            "query": query,
        }

    def run_chunk(self, state, chunk, stats):
        users, objects = state["users"], state["objects"]
        query: TopKQuery = state["query"]
        heap = _TopKHeap(query.k)
        for i, j0, j1 in chunk:
            for j in range(j0, j1):
                score = set_similarity(
                    objects[i], objects[j], query.eps_loc, query.eps_doc
                )
                if score > 0.0:
                    heap.offer(UserPair(users[i], users[j], score))
        results = heap.results()
        _obs.count("pairs.evaluated", sum(j1 - j0 for _i, j0, j1 in chunk))
        _obs.count("pairs.emitted", len(results))
        return results


class _TopKShardPlan(_UserShardPlan):
    """What the grid and leaf top-k plans share: users ascending by size
    (unless a subclass reorders them) and the *floor* — a canonical heap
    over the pairs of every chunk accepted so far (:meth:`accept`).

    A chunk prunes against its own heap's k-th best score or the floor's,
    whichever is higher.  Both are k-th best scores of exactly evaluated
    pairs, so neither exceeds the global k-th best; the comparisons stay
    strict, so a candidate that could tie the k-th best is still refined.
    """

    kind = "topk"

    def unit_sizes(self, dataset: STDataset) -> List[int]:
        return sorted(_user_sizes(dataset))

    def accept(self, state, pairs: Sequence[UserPair]) -> None:
        floor = state["floor"]
        for pair in pairs:
            floor.offer(pair)


class _TopKGridPlan(_TopKShardPlan):
    """The grid top-k skeleton of Algorithm 4 (TOPK-S-PPJ-F/-S/-P).

    Users are visited in the plan's user order.  Each user's candidates
    at *earlier* positions come from the grid's candidate table and are
    refined in position order (so the run, and its counters, do not
    depend on iteration order): the Lemma 2 user bound, the
    ``sigma_bar`` bound and PPJ-B's early termination all test against
    the current threshold — the chunk's k-th best score, raised to the
    floor's when that is higher.  That is the global threshold when the
    run is one chunk, and never above it otherwise, so pruning stays
    safe.  Thresholds only rise, so a candidate whose bound is below the
    chunk's starting threshold is pruned before the loop; the others are
    rechecked against the threshold as it rises.
    """

    def user_order(self, dataset: STDataset, index: STGridIndex) -> List[UserId]:
        return _size_order(dataset)

    def build_state(
        self,
        dataset: STDataset,
        query: TopKQuery,
        index: Optional[STGridIndex] = None,
    ):
        if index is None:
            index = STGridIndex.build(dataset, query.eps_loc, with_tokens=True)
        else:
            index.check_query(dataset, query.eps_loc, needs_filter=True)
        return _filter_state(
            dataset, query, index, self.user_order(dataset, index),
            floor=_TopKHeap(query.k),
        )

    def skip_user(self, state, p: int, threshold: float) -> bool:
        """Whether every pair of the user at position ``p`` with an
        earlier user provably scores below ``threshold``."""
        return False

    def run_chunk(self, state, chunk, stats):
        index: STGridIndex = state["index"]
        order, users, rank = state["order"], state["users"], state["rank"]
        sizes = state["sizes"]
        query: TopKQuery = state["query"]
        reg = _obs.active()
        heap = _TopKHeap(query.k)
        floor = state["floor"].threshold
        started = time.perf_counter()
        positions = np.asarray(chunk, dtype=np.int64)
        seg, cand, bound = _chunk_candidates(state, positions)
        by_pos = np.lexsort((state["pos_of"][cand], seg))
        seg, cand, bound = seg[by_pos], cand[by_pos], bound[by_pos]
        found = np.bincount(seg, minlength=len(positions)).tolist()
        live = bound >= floor
        ends = np.cumsum(np.bincount(seg[live], minlength=len(positions))).tolist()
        live_cands, live_bounds = cand[live].tolist(), bound[live].tolist()
        cand_seconds = time.perf_counter() - started
        n_evaluated = 0
        lo = 0
        for s, p in enumerate(positions.tolist()):
            user = order[p]
            hi = ends[s]
            if self.skip_user(state, p, max(heap.threshold, floor)):
                if stats is not None:
                    stats.users_skipped += 1
                lo = hi
                continue
            n_evaluated += found[s]
            if stats is not None:
                stats.candidates += found[s]
                stats.bound_pruned += found[s] - (hi - lo)
            for c, bound_c in zip(live_cands[lo:hi], live_bounds[lo:hi]):
                threshold = max(heap.threshold, floor)
                if bound_c < threshold:
                    if stats is not None:
                        stats.bound_pruned += 1
                    continue
                if stats is not None:
                    stats.refinements += 1
                other = users[c]
                score = ppj_b_pair(
                    index,
                    other,
                    user,
                    query.eps_loc,
                    query.eps_doc,
                    threshold if threshold > 0.0 else _NO_THRESHOLD,
                    sizes[other],
                    sizes[user],
                    stats,
                )
                if score > 0.0:
                    heap.offer(_ordered_pair(rank, other, user, score))
            lo = hi
        results = heap.results()
        _record_shard(reg, n_evaluated, len(results), cand_seconds)
        return results


class TopKFPlan(_TopKGridPlan):
    """TOPK-S-PPJ-F: users ascending by object-set size (Algorithm 4)."""

    name = "topk-s-ppj-f"


class TopKSPlan(_TopKGridPlan):
    """TOPK-S-PPJ-S: users ordered by the spatial-popularity heuristic.

    A cell's score counts the distinct users with objects in the cell or
    its neighbours; a user's score sums, over their objects, the score of
    the object's cell.  High scorers (users active in popular areas) come
    first, ties in dataset order.
    """

    name = "topk-s-ppj-s"

    def unit_sizes(self, dataset: STDataset) -> List[int]:
        # The order needs the grid, which is built after chunking; dataset
        # order is the cost model's stand-in.
        return _user_sizes(dataset)

    def user_order(self, dataset: STDataset, index: STGridIndex) -> List[UserId]:
        occupied: Dict[Tuple[int, int], List[UserId]] = {}
        for u in dataset.users:
            for cell in index.user_cells(u):
                occupied.setdefault(cell, []).append(u)
        scores = dict.fromkeys(dataset.users, 0)
        for cell, here in occupied.items():
            nearby: Set[UserId] = set()
            for other in index.relevant_cells(cell):
                nearby.update(occupied.get(other, ()))
            for u in here:
                scores[u] += len(nearby) * index.cell_user_count(cell, u)
        return sorted(dataset.users, key=lambda u: -scores[u])


class TopKPPlan(_TopKGridPlan):
    """TOPK-S-PPJ-P: ascending size plus the Lemma 2 per-user bound.

    An object of a user is *potentially matched* when one of its tokens
    appears, contributed by a user earlier in the order, in the object's
    cell or an adjacent cell.  With ``m_u`` such objects (the candidate
    table's ``matched``) and users in ascending set-size order,
    ``(m_u + d_max) / (|Du| + d_max)`` upper-bounds the similarity of the
    user with every earlier user, ``d_max`` being the largest earlier
    set size.
    """

    name = "topk-s-ppj-p"

    def skip_user(self, state, p: int, threshold: float) -> bool:
        if p == 0 or threshold <= 0.0:
            return False
        order, sizes = state["order"], state["sizes"]
        # Ascending size order: the previous user is the largest so far.
        max_prev = sizes[order[p - 1]]
        if max_prev == 0:
            return False
        matched = int(state["table"].matched[state["rank_at"][p]])
        bound = (matched + max_prev) / (sizes[order[p]] + max_prev)
        # Strict: a user whose bound ties the threshold may still own a
        # canonically smaller tie at the k-th position.
        return bound < threshold


class TopKLeafPlan(_TopKShardPlan):
    """TOPK-S-PPJ-D: users ascending by size, leaf-token candidates among
    earlier users, refined in position order against the chunk's heap
    (raised to the floor's threshold when that is higher)."""

    name = "topk-s-ppj-d"

    def build_state(
        self,
        dataset: STDataset,
        query: TopKQuery,
        fanout: int = 100,
        index: Optional[STLeafIndex] = None,
    ):
        if index is None:
            index = STLeafIndex(dataset, query.eps_loc, fanout=fanout)
        elif index.eps_loc != query.eps_loc:
            raise ValueError("prebuilt index eps_loc does not match the query")
        return _shard_state(
            dataset, query, index, _size_order(dataset),
            floor=_TopKHeap(query.k),
        )

    def run_chunk(self, state, chunk, stats):
        index: STLeafIndex = state["index"]
        order, pos, rank = state["order"], state["pos"], state["rank"]
        sizes = state["sizes"]
        query: TopKQuery = state["query"]
        reg = _obs.active()
        cand_seconds = 0.0
        n_evaluated = 0
        heap = _TopKHeap(query.k)
        floor = state["floor"].threshold
        for p in chunk:
            user = order[p]
            if reg is not None:
                started = time.perf_counter()
            candidates = _leaf_candidates(index, user, pos, 0, p)
            if reg is not None:
                cand_seconds += time.perf_counter() - started
                n_evaluated += len(candidates)
            size_u = sizes[user]
            if stats is not None:
                stats.candidates += len(candidates)
            for cand in sorted(candidates, key=pos.__getitem__):
                own_leaves, cand_leaves = candidates[cand]
                threshold = max(heap.threshold, floor)
                total = size_u + sizes[cand]
                if total == 0:
                    continue
                own = sum(index.leaf_user_count(l, user) for l in own_leaves)
                other = sum(index.leaf_user_count(l, cand) for l in cand_leaves)
                if (own + other) / total < threshold:
                    if stats is not None:
                        stats.bound_pruned += 1
                    continue
                if stats is not None:
                    stats.refinements += 1
                score = ppj_d_pair(
                    index,
                    user,
                    cand,
                    query.eps_loc,
                    query.eps_doc,
                    threshold if threshold > 0.0 else _NO_THRESHOLD,
                    size_u,
                    sizes[cand],
                    stats,
                )
                if score > 0.0:
                    heap.offer(_ordered_pair(rank, cand, user, score))
        results = heap.results()
        _record_shard(reg, n_evaluated, len(results), cand_seconds)
        return results


#: Threshold-join plans by algorithm name (``repro.JOIN_ALGORITHMS``).
JOIN_PLANS: Dict[str, Plan] = {
    plan.name: plan
    for plan in (NaiveJoinPlan(), SPPJCPlan(), SPPJBPlan(), SPPJFPlan(), SPPJDPlan())
}

#: Top-k plans by algorithm name (``repro.TOPK_ALGORITHMS``); each name
#: runs its own algorithm.
TOPK_PLANS: Dict[str, Plan] = {
    plan.name: plan
    for plan in (
        NaiveTopKPlan(), TopKFPlan(), TopKSPlan(), TopKPPlan(), TopKLeafPlan()
    )
}


def get_plan(kind: str, algorithm: str) -> Plan:
    """Look up a plan; raises ``ValueError`` naming the alternatives."""
    registry = JOIN_PLANS if kind == "join" else TOPK_PLANS
    try:
        return registry[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from {sorted(registry)}"
        ) from None
